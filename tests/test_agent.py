import collections
import dataclasses
import hashlib
import re
import types
import weakref

import numpy as np
import pytest

from maie import agent as ag
from maie import autodiff as ad
from maie import cli, envs
from maie.autodiff import Value
from maie.envs.base import EPISODE_CAP

import method_oracles
from op_cases import CASES


# -- action sampling ---------------------------------------------------------


def test_uniform_logits_entropy():
    logits = Value(np.zeros((1, 4)))
    _, entropy = ag.log_probs_and_entropy(logits, [0])
    assert entropy.data[0] == pytest.approx(np.log(4), abs=1e-9)


def test_dominant_logit_selected():
    logits = np.array([50.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    counts = [ag.sample_action(logits, rng) for _ in range(50)]
    assert all(a == 0 for a in counts)
    assert ag.greedy_action(logits) == 0


def test_sampling_reproducible():
    logits = np.array([0.3, -0.2, 0.1, 0.0])
    a1 = [ag.sample_action(logits, np.random.default_rng(42)) for _ in range(1)]
    a2 = [ag.sample_action(logits, np.random.default_rng(42)) for _ in range(1)]
    assert a1 == a2


def test_sampling_matches_generator_choice():
    # the inverse-CDF draw takes the same uniform as Generator.choice(p=...)
    logit_rng = np.random.default_rng(3)
    ours, ref = np.random.default_rng(11), np.random.default_rng(11)
    for i in range(2000):
        logits = logit_rng.normal(size=5) * (4.0 if i % 2 else 0.05)
        p = np.exp(logits - logits.max())
        p /= p.sum()
        assert ag.sample_action(logits, ours) == int(ref.choice(len(p), p=p))
    assert ours.bit_generator.state == ref.bit_generator.state


def test_non_finite_logits_rejected():
    with pytest.raises(ag.NumericalError, match="logits"):
        ag.sample_action(np.array([np.nan, 0.0]), np.random.default_rng(0))


# -- returns -----------------------------------------------------------------


def test_returns_undiscounted_terminal():
    out = ag.compute_returns([-1.0, -1.0, -1.0], [False, False, True], gamma=1.0, bootstrap=0.0)
    np.testing.assert_allclose(out, [-3.0, -2.0, -1.0])


def test_returns_gamma_zero():
    out = ag.compute_returns([1.0, 2.0, 3.0], [False, False, False], gamma=0.0, bootstrap=9.0)
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0])


def test_returns_single_step_bootstrap():
    out = ag.compute_returns([2.0], [False], gamma=0.9, bootstrap=5.0)
    np.testing.assert_allclose(out, [2.0 + 0.9 * 5.0])


def test_returns_reset_at_episode_boundary():
    out = ag.compute_returns([1.0, 1.0, 1.0], [False, True, False], gamma=1.0, bootstrap=10.0)
    np.testing.assert_allclose(out, [2.0, 1.0, 11.0])


def test_returns_empty_buffer_errors():
    with pytest.raises(ValueError, match="empty"):
        ag.compute_returns([], [], 0.9, 0.0)


# -- losses --------------------------------------------------------------


def test_critic_loss_zero_at_fit():
    values = Value(np.array([1.0, -2.0]))
    assert ag.critic_loss(values, np.array([1.0, -2.0])).data.item() == 0.0


def test_critic_loss_single_step():
    assert ag.critic_loss(Value(np.array([0.0])), np.array([1.0])).data.item() == pytest.approx(0.5)


def test_critic_loss_two_steps():
    loss = ag.critic_loss(Value(np.array([0.0, 0.0])), np.array([1.0, -1.0]))
    assert loss.data.item() == pytest.approx(0.5)


def test_actor_loss_zero_advantage():
    logp = Value(np.array([-1.0, -2.0]))
    ent = Value(np.array([0.0, 0.0]))
    assert ag.actor_loss(logp, np.zeros(2), ent, entropy_coef=0.0).data.item() == 0.0


def test_actor_loss_single_step():
    loss = ag.actor_loss(Value(np.array([-1.0])), np.array([2.0]), Value(np.array([0.0])), 0.0)
    assert loss.data.item() == pytest.approx(2.0)


def test_actor_loss_entropy_term():
    logits = Value(np.zeros((1, 4)))
    logp, ent = ag.log_probs_and_entropy(logits, [0])
    loss = ag.actor_loss(logp, np.zeros(1), ent, entropy_coef=0.5)
    assert loss.data.item() == pytest.approx(-0.5 * np.log(4), abs=1e-9)


def test_zero_rewards_zero_critic_give_zero_policy_gradient():
    # critic output forced to zero: returns and advantages vanish identically
    rewards = [0.0] * 4
    dones = [False] * 4
    returns = ag.compute_returns(rewards, dones, 0.99, bootstrap=0.0)
    values = Value(np.zeros(4), requires_grad=True)
    adv = returns - values.data
    logits = Value(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    logp, ent = ag.log_probs_and_entropy(logits, [0, 1, 2, 0])
    loss = ag.actor_loss(logp, adv, ent, entropy_coef=0.0)
    assert loss.data.item() == 0.0
    ad.backward(loss)
    np.testing.assert_allclose(logits.grad, 0.0, atol=1e-15)


def test_critic_regression_converges():
    rng = np.random.default_rng(1)
    head = ag.PolicyValueHead(input_dim=8, n_actions=2, seed=3)
    states = rng.normal(size=(16, 8))
    targets = rng.normal(size=16)
    critic = [v for k, v in head.params.items() if k.startswith("critic")]
    opt = ad.Adam(lr=3e-3)
    loss_val = None
    for _ in range(2000):
        values = head.critic_values(Value(states))
        loss = ag.critic_loss(values, targets)
        ad.backward(loss)
        opt.step(critic)
        ad.zero_grads(critic)
        loss_val = loss.data.item()
        if loss_val < 1e-3:
            break
    assert loss_val < 1e-3


def test_log_probs_match_manual_softmax():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(5, 3))
    actions = [0, 2, 1, 1, 0]
    logp, _ = ag.log_probs_and_entropy(Value(logits), actions)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    expected = np.log(p[np.arange(5), actions] + 1e-12)
    np.testing.assert_allclose(logp.data, expected, atol=1e-12)


# -- config validation -------------------------------------------------------


def test_config_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma"):
        ag.TrainConfig(gamma=0.0)


def test_config_rejects_short_rollout():
    with pytest.raises(ValueError, match="rollout"):
        ag.TrainConfig(rollout_length=1)


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        ag.TrainConfig(method="attention")


@pytest.mark.parametrize(
    "name, value",
    [("xi", 0.0), ("xi", 2.0), ("stats_eps", 0.0), ("stats_eps", -1.0), ("lr", 0.0), ("lr", -1e-3),
     ("c_sim", -0.1), ("c_td", -0.1), ("distance", "kl"), ("episodes", 0), ("seed", -1)],
)
def test_config_rejects_out_of_range(name, value):
    with pytest.raises(ValueError, match=name):
        ag.TrainConfig(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("episodes", 2.5), ("rollout_length", True), ("seed", "3"), ("lr", "1e-3"), ("xi", None), ("gamma", True),
     ("fixed_weight", False), ("method", None), ("seed", 3.0)],
)
def test_config_rejects_mistyped_fields(name, value):
    declared = {f.name: f.type for f in dataclasses.fields(ag.TrainConfig)}[name]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be {declared}, got {value!r}")):
        ag.TrainConfig(**{name: value})


def test_config_accepts_ints_for_floats_and_numpy_numbers():
    cfg = ag.TrainConfig(lr=1, gamma=np.float64(0.5), seed=np.int64(3), episodes=np.int32(2))
    assert cfg.lr == 1 and cfg.seed == 3


def test_config_accepts_range_edges():
    ag.TrainConfig(xi=1.0, stats_eps=1e-12, lr=1e-12, c_sim=0.0, c_td=0.0, episodes=1)


# -- trainer -------------------------------------------------------------


def _make_trainer(method="maie", env_name="hetero_nav", seed=0, **kw):
    cfg = ag.TrainConfig(method=method, seed=seed, rollout_length=8, episodes=2, **kw)
    env = envs.make_env(env_name, seed)
    return ag.Trainer(env, cfg)


def test_trainer_modalities_and_head_dims():
    tr = _make_trainer()
    assert tr.modalities == ["visual", "audio"]
    assert tr.head.params["actor1.w"].data.shape == (64, 256)
    tr3 = _make_trainer(env_name="mining_plus")
    assert tr3.modalities == ["visual", "audio", "text"]
    assert tr3.head.params["actor1.w"].data.shape == (96, 256)


@pytest.mark.parametrize("env_name", envs.ENV_NAMES)
def test_head_walk_over_arrays_is_the_walk_over_values_bitwise(env_name):
    # one layer walk, mlp: dense over the parameter Values (the replay) and affine over array_layers
    # (acting) give the same bits on one (T, D) batch of fused states at the env's fused width
    env = envs.make_env(env_name, 0)
    width = len(env.modality_shapes) * ag.FEATURE_DIM
    head = ag.PolicyValueHead(width, env.n_actions, seed=5)
    fused = np.random.default_rng(6).uniform(-1.0, 1.0, size=(16, width))
    logits = head.actor_logits(Value(fused))
    values = head.critic_values(Value(fused))
    assert logits.requires_grad and logits._op == "dense"
    assert logits.data.tobytes() == head.logits_array(fused, head.array_layers("actor")).tobytes()
    assert values.data.tobytes() == head.mlp(fused, head.array_layers("critic"), ad.affine)[:, 0].tobytes()
    assert values.data.shape == (16,) and logits.data.shape == (16, env.n_actions)


def test_extractor_seeds_differ_per_modality():
    tr = _make_trainer(env_name="av_nav")
    a = tr.extractors["visual"].params["lstm.w_hh"].data
    b = tr.extractors["audio"].params["lstm.w_hh"].data
    assert not np.array_equal(a, b)


# sha256 over each parameter's name, shape and float64 bytes, in named_parameters() order;
# av_nav and target_select share their modality shapes, so they draw the same weights
INIT_DIGESTS = {
    "hetero_nav": "c54cf0188795fcdfed01f1bbf4113e4292cbf8db1ce1cccd39486a8a7c4c876d",
    "target_select": "b539e2e5960e2ceaa20b6b0c2da6389fbc4b8a11de9b81bf26f422983db93e91",
    "av_nav": "b539e2e5960e2ceaa20b6b0c2da6389fbc4b8a11de9b81bf26f422983db93e91",
    "mining": "40a3153f579517d8824e51a7fe7b29865a06d7224519b4b82002bd97e4ffd9f4",
    "mining_plus": "0d4f7cde6dad1a0d37a520b321a12c9bfeb06301253ae361b96ddbcbbfa2625b",
}


@pytest.mark.parametrize("env_name", envs.ENV_NAMES)
def test_seed_zero_initialisation_is_golden(env_name):
    # a reordered or resized draw anywhere in construction changes the digest
    tr = ag.Trainer(envs.make_env(env_name, seed=0), ag.TrainConfig(seed=0))
    h = hashlib.sha256()
    for name, v in tr.named_parameters().items():
        h.update(name.encode())
        h.update(repr(v.data.shape).encode())
        h.update(np.ascontiguousarray(v.data, dtype=np.float64).tobytes())
    assert h.hexdigest() == INIT_DIGESTS[env_name]


def test_concat_method_keeps_lambda_one():
    tr = _make_trainer(method="concat")
    tr.train_step()
    for _, _, _, _, lams in tr.lambda_rows:
        assert all(l == 1.0 for l in lams)


def test_fixed_weights_lambdas():
    tr = _make_trainer(method="fixed_weights", fixed_weight=0.9)
    tr.train_step()
    for _, _, _, _, lams in tr.lambda_rows:
        assert lams[0] == pytest.approx(0.9)
        assert lams[1] == pytest.approx(0.1)


@pytest.mark.parametrize("method", ag.METHODS)
def test_weights_of_a_stack_match_each_row(method):
    # the lambda a replay gives a step equals the lambda acting gives it
    tr = _make_trainer(method=method, env_name="mining_plus", fixed_weight=0.7)
    rng = np.random.default_rng(5)
    for m in tr.modalities:
        tr.stats[m].mu = rng.normal(size=32)
        tr.stats[m].var = rng.uniform(0.5, 2.0, size=32)
    stack = 3.0 * rng.normal(size=(len(tr.modalities), 6, 32))
    norm = tr._norm()
    lams = tr._weights(stack, norm)
    assert lams.shape == stack.shape
    for t in range(6):
        np.testing.assert_array_equal(lams[:, t], tr._weights(stack[:, t].copy(), norm))


def test_maie_lambdas_on_simplex():
    tr = _make_trainer(method="maie")
    tr.train_step()
    for _, _, _, _, lams in tr.lambda_rows:
        assert sum(lams) == pytest.approx(1.0, abs=1e-9)


def test_no_ie_skips_stats_update():
    tr = _make_trainer(method="no_ie")
    mu_before = {m: tr.stats[m].mu.copy() for m in tr.modalities}
    tr.train_step()
    for m in tr.modalities:
        np.testing.assert_array_equal(tr.stats[m].mu, mu_before[m])


def test_no_align_updates_stats_but_skips_srl():
    tr = _make_trainer(method="no_align")
    mu_before = {m: tr.stats[m].mu.copy() for m in tr.modalities}
    metrics = tr.train_step()
    assert metrics["loss_sim"] == 0.0 and metrics["loss_td"] == 0.0
    assert any(not np.array_equal(tr.stats[m].mu, mu_before[m]) for m in tr.modalities)


def test_maie_updates_stats_and_srl():
    tr = _make_trainer(method="maie")
    metrics = tr.train_step()
    assert metrics["loss_sim"] != 0.0


@pytest.fixture(scope="module")
def recorded_nodes():
    """Graph nodes per op kind, leaves included, in one full-method update on hetero_nav and one on mining_plus."""
    counts = {}
    backward = ad.backward

    def recording(loss):
        counts[env_name].update(node._op for node in ad.Graph.trace(loss).nodes)
        backward(loss)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", recording)
        for env_name in ("hetero_nav", "mining_plus"):
            counts[env_name] = collections.Counter()
            _make_trainer(method="maie", env_name=env_name).train_step()
    return counts


@pytest.fixture(scope="module")
def recorded_kinds(recorded_nodes):
    """Op kinds in the graphs of those two updates."""
    return set().union(*recorded_nodes.values()) - {"leaf"}


# both backward passes of one update (alignment, then actor-critic), the same at every seed:
# 157 nodes on hetero_nav and 245 on mining_plus. A dense layer is one node; as matmul, bias add and
# relu nodes they were 171 and 261
NODES_PER_UPDATE = {
    "hetero_nav": {
        "add": 7, "concat": 1, "conv2d": 12, "dense": 10, "div": 4, "leaf": 48, "log": 1, "lstm_cell": 4,
        "mean": 3, "mul": 18, "neg": 3, "reshape": 5, "slice": 5, "softmax_axis": 1, "sqrt": 6,
        "square": 7, "sub": 5, "sum": 13, "transpose": 4,
    },
    "mining_plus": {
        "add": 13, "concat": 1, "conv2d": 18, "dense": 12, "div": 7, "leaf": 68, "log": 1, "lstm_cell": 6,
        "mean": 3, "mul": 26, "neg": 3, "reshape": 11, "slice": 9, "softmax_axis": 1, "sqrt": 12,
        "square": 13, "sub": 8, "sum": 25, "transpose": 8,
    },
}


def test_graph_nodes_per_update_are_pinned_per_kind(recorded_nodes):
    # an op that starts recording extra nodes (or a model change that adds some) shows here first
    assert {env: dict(c) for env, c in recorded_nodes.items()} == NODES_PER_UPDATE


# the runs each Adam.step of one update steps (autodiff._runs: consecutive slots of the one buffer at one step
# count), for the benchmark's train workloads: maie's alignment step takes the extractors, and its actor-critic
# step the extractors at step count 2k and the head at k; concat steps the whole registry at once
ADAM_RUNS_PER_UPDATE = {("hetero_nav", "maie"): [1, 2], ("mining_plus", "concat"): [1]}


@pytest.mark.parametrize("env_name, method", list(ADAM_RUNS_PER_UPDATE))
def test_adam_runs_per_update_are_pinned(env_name, method, monkeypatch):
    runs, step = [], ad.Adam.step
    monkeypatch.setattr(ad.Adam, "step", lambda opt, params: runs.append(step(opt, params)))
    tr = _make_trainer(method=method, env_name=env_name)
    for _ in range(3):
        tr.train_step()
    assert runs == 3 * ADAM_RUNS_PER_UPDATE[env_name, method]


def test_training_records_every_case_kind(recorded_kinds):
    # an op kind that no update of the full method records is one no run needs
    assert set(CASES) - recorded_kinds == set()


def test_every_recorded_kind_has_a_case(recorded_kinds):
    # an op that training records but no grad-check case covers escapes c01
    assert recorded_kinds - set(CASES) == set()


def test_replay_matches_collection_features():
    # before any update, the batched replay must reproduce acting-time features
    tr = _make_trainer(method="concat")
    initial = {m: tr._states[m].detached() for m in tr.modalities}
    buf = tr.collect_rollout()
    feats, _ = tr._replay_features(buf, initial)
    for m in tr.modalities:
        for collected, replayed in zip(buf.features[m], feats[m]):
            np.testing.assert_allclose(collected, replayed.data, atol=1e-12)


def test_first_replay_is_built_from_acting():
    # the recorded replay's features and final state are acting's own, bit for bit, and the
    # same nodes are built as by the recomputed replay
    tr = _make_trainer(method="concat", env_name="mining_plus")
    initial = {m: tr._states[m].detached() for m in tr.modalities}
    buf = tr.collect_rollout()
    feats, finals = tr._replay_features(buf, initial, buf.recorded)
    again, _ = tr._replay_features(buf, initial)
    for m in tr.modalities:
        np.testing.assert_array_equal(feats[m].data, np.array(buf.features[m]))
        assert all(f is h for f, h in zip(buf.features[m], buf.recorded[m].h))  # one record of each step
        np.testing.assert_array_equal(finals[m].h, tr._states[m].h)
        np.testing.assert_array_equal(finals[m].c, tr._states[m].c)
        kinds = [[n._op for n in ad.Graph.trace(f[m].sum()).nodes] for f in (feats, again)]
        assert kinds[0] == kinds[1]


@pytest.mark.parametrize("method", ["maie", "concat"])
def test_first_replay_takes_the_conv_outputs_out_of_the_record(method, monkeypatch):
    # the first replay's stacked conv outputs are their one copy from then on; the record keeps each
    # step's gates and its h and c rows, and the h rows, which the statistics update reads, unchanged
    tr = _make_trainer(method=method, env_name="mining_plus")
    replay, taken = tr._replay_features, []

    def replaying(buf, initial_states, recorded=None):
        rows = {m: (list(r.h), np.array(r.h)) for m, r in buf.recorded.items()}
        result = replay(buf, initial_states, recorded)
        if recorded is not None:
            for m, r in buf.recorded.items():
                assert r.conv == ([], [], []), m
                assert len(r.gates) == len(r.c) == len(buf.observations)
                assert len(r.h) == len(rows[m][0]) and all(a is b for a, b in zip(r.h, rows[m][0]))
                np.testing.assert_array_equal(np.array(r.h), rows[m][1])
            taken.append(recorded)
        return result

    monkeypatch.setattr(tr, "_replay_features", replaying)
    tr.train_step()
    assert len(taken) == 1


def test_srl_graph_is_freed_before_the_second_replay(monkeypatch):
    # the alignment step's graph, the first replay's feature nodes included, is referenced only while
    # that step runs, so none of it is alive when the actor-critic replay begins
    tr = _make_trainer(method="maie")
    replay, feature_refs, alive = tr._replay_features, [], []

    def replaying(buf, initial_states, recorded=None):
        alive.append([ref() is not None for ref in feature_refs])
        feats, finals = replay(buf, initial_states, recorded)
        feature_refs.extend(weakref.ref(f.data) for f in feats.values())
        return feats, finals

    monkeypatch.setattr(tr, "_replay_features", replaying)
    tr.train_step()
    assert alive == [[], [False] * len(tr.modalities)]


def _pass_grads(tr, monkeypatch, updates: int = 1) -> list:
    """The gradient of each parameter being clipped, by name, per backward pass of ``updates`` train steps of ``tr``."""
    passes, clip = [], ad.clip_grad_norm
    names = {p: k for k, p in tr.named_parameters().items()}

    def keeping(params, max_norm):
        passes.append({names[p]: p.grad.copy() for p in params})
        return clip(params, max_norm)

    with monkeypatch.context() as mp:
        mp.setattr(ad, "clip_grad_norm", keeping)
        for _ in range(updates):
            tr.train_step()
    return passes


@pytest.mark.parametrize("method", ag.METHODS)
@pytest.mark.parametrize("env_name", list(envs.ENV_NAMES))
def test_recorded_first_replay_gives_the_recomputed_gradients(env_name, method, monkeypatch):
    # the drift gate of the recorded replay: acting's features and the batched recompute differ in
    # their last bits, and the first update's gradients through either agree within 1e-10 of each
    # parameter's largest entry
    def trainer():
        return ag.Trainer(envs.make_env(env_name, 3), ag.TrainConfig(method=method, seed=3))

    handed, recomputing = [], trainer()
    recording = trainer()
    replay, replay_again = recording._replay_features, recomputing._replay_features
    recording._replay_features = lambda buf, initial, recorded=None: (handed.append(recorded), replay(buf, initial, recorded))[1]
    recomputing._replay_features = lambda buf, initial, recorded=None: replay_again(buf, initial)
    got = _pass_grads(recording, monkeypatch)[0]
    want = _pass_grads(recomputing, monkeypatch)[0]
    assert handed[0] is not None  # the first replay was the recorded one
    for name, g in want.items():
        assert np.abs(got[name] - g).max() <= 1e-10 * np.abs(g).max(), name


@pytest.mark.parametrize("method", ["maie", "concat"])
def test_reduction_adjoints_add_the_bits_of_the_broadcast_formula(method, monkeypatch):
    # sum and mean hand _accum their unbroadcast adjoint; every gradient of two updates is the one
    # the full-size np.broadcast_to adjoints gave
    def broadcast_sum(x, axis=None):
        x = ad._lift(x)
        shape = x.data.shape
        return ad._node(
            np.sum(x.data, axis=axis), (x,), "sum",
            lambda g: np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape),
        )

    def broadcast_mean(x):
        x = ad._lift(x)
        return ad._node(np.mean(x.data), (x,), "mean", lambda g: np.broadcast_to(g / x.data.size, x.data.shape))

    got = _pass_grads(_make_trainer(method=method, seed=5), monkeypatch, updates=2)
    with monkeypatch.context() as mp:
        for owner, name, op in ((ad, "reduce_sum", broadcast_sum), (ad.Value, "sum", broadcast_sum),
                                (ad, "reduce_mean", broadcast_mean), (ad.Value, "mean", broadcast_mean)):
            mp.setattr(owner, name, op)
        want = _pass_grads(_make_trainer(method=method, seed=5), monkeypatch, updates=2)
    assert len(got) == len(want) == (4 if method == "maie" else 2)
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), name


def test_train_step_reproducible():
    def run():
        tr = _make_trainer(method="maie", seed=7)
        out = [tr.train_step() for _ in range(3)]
        return out, tr.metrics_rows

    m1, rows1 = run()
    m2, rows2 = run()
    for a, b in zip(m1, m2):
        for k in ("loss_actor", "loss_critic", "loss_sim", "loss_td"):
            assert a[k] == b[k]
    assert rows1 == rows2


@pytest.mark.parametrize("method", ag.METHODS)
@pytest.mark.parametrize("env_name", list(envs.ENV_NAMES))
def test_method_env_matrix_smoke(method, env_name):
    cfg = ag.TrainConfig(method=method, seed=1, rollout_length=6, episodes=1)
    env = envs.make_env(env_name, 1)
    tr = ag.Trainer(env, cfg)
    metrics = tr.train_step()
    assert np.isfinite(metrics["loss_actor"])
    assert np.isfinite(metrics["loss_critic"])


def test_run_completes_episodes():
    tr = _make_trainer(method="concat")
    rows = tr.run()
    assert len(rows) >= 2
    assert rows[0]["episode"] == 0
    assert rows[1]["env_steps"] > 0


def test_eval_mode_freezes_stats_and_params():
    tr = _make_trainer(method="maie")
    tr.train_step()
    mu = {m: tr.stats[m].mu.copy() for m in tr.modalities}
    param = tr.head.params["actor1.w"].data.copy()
    rows = tr.run_eval(episodes=2)
    assert len(rows) == 2
    for m in tr.modalities:
        np.testing.assert_array_equal(tr.stats[m].mu, mu[m])
    np.testing.assert_array_equal(tr.head.params["actor1.w"].data, param)
    assert any(phase == "eval" for phase, *_ in tr.lambda_rows)


def test_a_trainer_that_only_acts_holds_no_grad_buffer():
    # acting builds no graph, so no backward pass reaches a parameter and none gets a grad
    tr = _make_trainer(method="maie")
    assert len(tr.run_eval(episodes=2)) == 2
    assert [k for k, p in tr.named_parameters().items() if p.grad is not None] == []
    tr.train_step()  # the first update gives every parameter its grad, zeroed after the step
    assert all(p.grad is not None and not p.grad.any() for p in tr.named_parameters().values())


def test_lambda_weighted_adjoint_through_train_pipeline():
    # instrumented check of d(loss)/d(features) == lambda * d(loss)/d(weighted)
    rng = np.random.default_rng(3)
    t_len, m = 4, 2
    mats = [Value(rng.normal(size=(t_len, 32)), requires_grad=True) for _ in range(m)]
    lams = ag.en.importance(np.stack([mat.data for mat in mats]))
    weighted = [mat * Value(lam) for mat, lam in zip(mats, lams)]
    fused = ad.concat(weighted, axis=1)
    head = ag.PolicyValueHead(input_dim=64, n_actions=3, seed=0)
    values = head.critic_values(fused)
    loss = ag.critic_loss(values, rng.normal(size=t_len))
    ad.backward(loss)
    # after backward, each intermediate's .grad holds its accumulated adjoint
    for mat, w, lam in zip(mats, weighted, lams):
        np.testing.assert_allclose(mat.grad, lam * w.grad, atol=1e-10)


# -- the acting memo -----------------------------------------------------------


def _uncached(tr):
    """Make every extractor of ``tr`` drop the input-drive memo it is handed."""
    for e in tr.extractors.values():
        e.forward = lambda obs, arrays, drives=None, record=None, forward=e.forward: forward(obs, arrays, None, record)
    return tr


def _count_memos(tr) -> dict:
    """Per modality, the memo ``tr`` hands its extractor on each call, in call order."""
    memos = {m: [] for m in tr.modalities}
    for m, e in tr.extractors.items():
        def counting(obs, arrays, drives=None, record=None, forward=e.forward, handed=memos[m]):
            handed.append(drives)
            return forward(obs, arrays, drives, record)

        e.forward = counting
    return memos


def _record_actions(tr) -> list:
    actions, step = [], tr.env.step
    tr.env.step = lambda action: (actions.append(action), step(action))[1]
    return actions


@pytest.mark.parametrize("env_name", list(envs.ENV_NAMES))
def test_acting_memo_changes_no_result(env_name):
    # a training rollout, then an evaluation episode, each beside a twin that never memoises
    cached, plain = _make_trainer(env_name=env_name, seed=2), _uncached(_make_trainer(env_name=env_name, seed=2))
    memos = _count_memos(cached)
    actions = {id(tr): _record_actions(tr) for tr in (cached, plain)}
    bufs = [tr.collect_rollout() for tr in (cached, plain)]
    for m in cached.modalities:
        for a, b in zip(bufs[0].features[m], bufs[1].features[m], strict=True):
            np.testing.assert_array_equal(a, b)
    assert cached.run_eval(1) == plain.run_eval(1)
    assert actions[id(cached)] == actions[id(plain)]
    assert cached.lambda_rows == plain.lambda_rows
    for a, b in zip(cached.embedding_rows, plain.embedding_rows, strict=True):
        assert a[:4] == b[:4]
        np.testing.assert_array_equal(a[4], b[4])

    # a noisy modality gets no memo; each other one gets one memo for the rollout and one for
    # the episode, each at most one entry per step
    steps = cached.cfg.rollout_length
    episode_steps = cached.env.steps
    for m in cached.modalities:
        handed = memos[m]
        assert len(handed) == steps + episode_steps
        if m in envs.NOISY_MODALITIES:
            assert all(d is None for d in handed), m
            continue
        rollout_memo, episode_memo = handed[0], handed[steps]
        assert type(rollout_memo) is dict and type(episode_memo) is dict and rollout_memo is not episode_memo
        assert all(d is rollout_memo for d in handed[:steps]) and all(d is episode_memo for d in handed[steps:])
        assert len(rollout_memo) <= steps and len(episode_memo) <= EPISODE_CAP
    assert envs.NOISY_MODALITIES == {"audio"}
    assert len({o.audio.tobytes() for o in bufs[0].observations}) == steps  # noisy audio never repeats
    assert 0 < len(memos["visual"][steps]) < episode_steps  # the grid does

    # later evaluation episodes, of this call and the next, act under the same span and memos
    assert cached.run_eval(2) == plain.run_eval(2)
    assert cached.lambda_rows == plain.lambda_rows
    for m in set(cached.modalities) - envs.NOISY_MODALITIES:
        assert all(d is memos[m][steps] for d in memos[m][steps:]), m


@pytest.mark.parametrize("method", ["maie", "concat", "fixed_weights"])
@pytest.mark.parametrize("env_name", list(envs.ENV_NAMES))
def test_acting_step_is_the_per_modality_step(env_name, method):
    # a training rollout, then an evaluation episode, each stepping all modalities at once, beside a
    # twin stepping them one by one: every action, λ-trace row, embedding, state and record is the same
    cfg = ag.TrainConfig(method=method, seed=6, fixed_weight=0.7)
    stacked, oracle = (ag.Trainer(envs.make_env(env_name, 6), cfg) for _ in range(2))
    oracle._act_step = types.MethodType(method_oracles.per_modality_act_step, oracle)
    rng = np.random.default_rng(6)
    for m in stacked.modalities:  # statistics away from their start, so the normalization shows
        mu, var = rng.normal(size=32) * 0.1, rng.uniform(0.5, 2.0, size=32)
        for tr in (stacked, oracle):
            tr.stats[m].mu, tr.stats[m].var = mu.copy(), var.copy()
    actions = {id(tr): _record_actions(tr) for tr in (stacked, oracle)}

    bufs = [tr.collect_rollout() for tr in (stacked, oracle)]
    assert bufs[0].actions == bufs[1].actions and bufs[0].episode_starts == bufs[1].episode_starts
    for m in stacked.modalities:
        got, want = bufs[0].recorded[m], bufs[1].recorded[m]
        for a, b in zip([*got.conv, got.gates, got.h, got.c], [*want.conv, want.gates, want.h, want.c], strict=True):
            assert len(a) == len(b) == len(bufs[0].actions)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    for tr in (stacked, oracle):
        assert tr._states.h.shape == tr._states.c.shape == (len(tr.modalities), 32)
    assert stacked._states.h.tobytes() == oracle._states.h.tobytes()
    assert stacked._states.c.tobytes() == oracle._states.c.tobytes()

    assert stacked.run_eval(1) == oracle.run_eval(1)
    assert stacked._states.h.tobytes() == oracle._states.h.tobytes()
    assert stacked._states.c.tobytes() == oracle._states.c.tobytes()
    assert actions[id(stacked)] == actions[id(oracle)]
    assert stacked.lambda_rows == oracle.lambda_rows
    assert len(stacked.embedding_rows) == len(oracle.embedding_rows) > 0
    for a, b in zip(stacked.embedding_rows, oracle.embedding_rows):
        assert a[:4] == b[:4] and a[4].tobytes() == b[4].tobytes()


def test_acting_memo_lives_only_while_parameters_are_fixed(monkeypatch):
    # after updates, and after a conv weight is changed by hand between rollouts, every
    # bootstrap value and feature equals a never-memoising twin's and an uncached forward's
    bufs, boots = {}, {}
    collect, bootstrap = ag.Trainer.collect_rollout, ag.Trainer._bootstrap_value

    def keep_buf(self):
        bufs.setdefault(id(self), []).append(collect(self))
        return bufs[id(self)][-1]

    def keep_bootstrap(self, final_states):
        boots.setdefault(id(self), []).append(bootstrap(self, final_states))
        return boots[id(self)][-1]

    monkeypatch.setattr(ag.Trainer, "collect_rollout", keep_buf)
    monkeypatch.setattr(ag.Trainer, "_bootstrap_value", keep_bootstrap)
    cached, plain = _make_trainer(seed=4), _uncached(_make_trainer(seed=4))
    for _ in range(3):
        for tr in (cached, plain):
            tr.train_step()
    assert boots[id(cached)] and boots[id(cached)] == boots[id(plain)]

    for tr in (cached, plain):
        tr.extractors["visual"].params["conv1.w"].data[0, 0, 1, 1] += 0.5
    obs = cached._obs
    assert obs is not None  # the next rollout continues the episode
    expected = {m: method_oracles.modality_step(cached.extractors[m], obs.modalities()[m], cached._states[m])[0]
                for m in cached.modalities}
    for tr in (cached, plain):
        tr.collect_rollout()
    new, twin = bufs[id(cached)][-1], bufs[id(plain)][-1]
    for m in cached.modalities:
        np.testing.assert_array_equal(new.features[m][0], expected[m])
        for a, b in zip(new.features[m], twin.features[m], strict=True):
            np.testing.assert_array_equal(a, b)
    # a memo kept from the last rollout would have been read: its grids recur in this one
    seen = {o.visual.tobytes() for o in bufs[id(cached)][-2].observations}
    assert any(o.visual.tobytes() in seen for o in new.observations)


# -- the evaluation span ---------------------------------------------------------


def _span_per_episode(tr):
    """Make ``tr`` build a new acting span, memos included, for every evaluation episode."""
    run_eval = tr.run_eval

    def per_episode(episodes):
        rows = []
        for _ in range(episodes):
            tr.drop_eval_span()
            rows += run_eval(1)
        return rows

    tr.run_eval = per_episode
    return tr


def _assert_same_evaluation(held, twin, calls):
    """``run_eval(n)`` for each n of ``calls`` on both trainers: rows, λ trace, embeddings and state bitwise equal."""
    for n in calls:
        assert repr(held.run_eval(n)) == repr(twin.run_eval(n))
    assert repr(held.lambda_rows) == repr(twin.lambda_rows)
    assert len(held.embedding_rows) == len(twin.embedding_rows)
    for a, b in zip(held.embedding_rows, twin.embedding_rows):
        assert a[:4] == b[:4] and a[4].tobytes() == b[4].tobytes()
    assert held._states.h.tobytes() == twin._states.h.tobytes()
    assert held._states.c.tobytes() == twin._states.c.tobytes()


@pytest.mark.parametrize("method", ag.METHODS)
@pytest.mark.parametrize("env_name", list(envs.ENV_NAMES))
def test_evaluation_keeps_one_span_across_episodes_and_calls(env_name, method):
    held, twin = _make_trainer(method, env_name, seed=5), _span_per_episode(_make_trainer(method, env_name, seed=5))
    memos = _count_memos(held)
    _assert_same_evaluation(held, twin, (1, 1, 1, 2))
    visual = memos["visual"]
    assert len(visual) > 5 and type(visual[0]) is dict and all(d is visual[0] for d in visual)


@pytest.mark.parametrize("method", ["maie", "no_align"])
def test_evaluation_span_is_dropped_before_a_parameter_or_statistic_changes(method, tmp_path):
    held, twin = _make_trainer(method, seed=7), _span_per_episode(_make_trainer(method, seed=7))
    _assert_same_evaluation(held, twin, (1,))
    for tr in (held, twin):
        tr.train_step()
    _assert_same_evaluation(held, twin, (1,))

    for tr in (held, twin):  # a lone update step, outside any train_step, moving every parameter
        params = list(tr.named_parameters().values())
        loss = params[0].square().sum()
        for p in params[1:]:
            loss = loss + p.square().sum()
        tr._apply(loss, params)
    _assert_same_evaluation(held, twin, (1,))

    for tr in (held, twin):  # a train_step that aborts after its statistics update, before any Adam step of no_align
        tr.head.critic_values = lambda fused: Value(np.full(fused.data.shape[0], np.nan))
        with pytest.raises(ag.NumericalError):
            tr.train_step()
        del tr.head.critic_values
    _assert_same_evaluation(held, twin, (1,))

    other = _make_trainer(method, seed=8)
    other.train_step()
    path = str(tmp_path / "checkpoint.json")
    cli.save_checkpoint(path, other)
    for tr in (held, twin):
        cli.load_checkpoint(path, tr)
    _assert_same_evaluation(held, twin, (1,))


def test_a_rollout_after_evaluation_records_every_step():
    # the rollout takes a span of its own, though evaluation's memo holds some of its observations
    tr = _make_trainer(seed=9)
    tr.run_eval(1)
    buf = tr.collect_rollout()
    steps = tr.cfg.rollout_length
    for m in tr.modalities:
        assert [len(layer) for layer in buf.recorded[m].conv] == [steps] * 3, m
        assert all(type(out) is np.ndarray for layer in buf.recorded[m].conv for out in layer), m
    memo = tr._eval_span.inputs[tr.modalities.index("visual")][3]
    assert all(convs is None for convs, _ in memo.values())  # an evaluation entry keeps the drive alone
    assert any((o.visual.dtype.str, o.visual.tobytes()) in memo for o in buf.observations)


def test_an_evaluation_memo_stays_below_twice_the_episode_cap():
    # mining_plus shows about 200 distinct grids over 500 untrained episodes
    tr = _make_trainer(env_name="mining_plus", seed=3)
    sizes, forward = {m: [] for m in tr.modalities}, {}
    for m, e in tr.extractors.items():
        def sized(obs, arrays, drives=None, record=None, forward=e.forward, seen=sizes[m]):
            out = forward(obs, arrays, drives, record)
            seen.append(-1 if drives is None else len(drives))
            return out

        e.forward = sized
    starts = []
    for _ in range(40):
        starts.append(len(sizes["visual"]))
        tr.run_eval(1)
    for m, seen in sizes.items():
        if m in envs.NOISY_MODALITIES:
            assert set(seen) == {-1}, m
            continue
        assert max(seen) < 2 * EPISODE_CAP, m
        assert all(seen[i] <= EPISODE_CAP for i in starts), m  # emptied at an episode start, then one entry
    ends = [sizes["visual"][i - 1] for i in starts[1:]]
    assert any(n >= EPISODE_CAP for n in ends)  # the memo passed the cap, and was emptied
