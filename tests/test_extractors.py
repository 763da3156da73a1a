import numpy as np
import pytest

from maie import autodiff as ad
from maie import envs
from maie import extractors as ex

from grad_check import grad_check


VIS_SHAPE = (2, 10, 10)
AUD_SHAPE = (1, 16, 16)
TEXT_SHAPE = (12,)


def _rand_obs(rng, shape):
    return rng.random(shape)


def test_same_seed_gives_identical_parameters():
    a = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=7)
    b = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=7)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)


def test_different_seeds_differ():
    a = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=1)
    b = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=2)
    assert any(not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


def test_conv_stack_parameter_count():
    e = ex.ConvLstmExtractor("visual", (3, 8, 8), seed=0)
    conv_total = sum(
        e.params[k].data.size for k in e.params if k.startswith("conv")
    )
    expected = sum(3 * 3 * c_in * 32 + 32 for c_in in (3, 32, 32))
    assert conv_total == expected


@pytest.mark.parametrize("shape,flat_dim", [
    ((2, 10, 10), 128), ((3, 10, 10), 128), ((1, 16, 16), 128), ((4, 8, 8), 32), ((5, 8, 8), 32), ((12,), 45),
])
def test_flat_dim_of_every_env_geometry(shape, flat_dim):
    # visual and audio inputs of the five envs, and the text token sequence
    e = ex.build_extractor("text" if len(shape) == 1 else "visual", shape, seed=0, vocab_size=19)
    assert e.flat_dim == flat_dim
    assert e.params["lstm.w_ih"].data.shape == (4 * ex.FEATURE_DIM, flat_dim)


def test_output_is_feature_dim():
    rng = np.random.default_rng(0)
    for e, shape in [
        (ex.ConvLstmExtractor("visual", VIS_SHAPE, 0), VIS_SHAPE),
        (ex.ConvLstmExtractor("audio", AUD_SHAPE, 1), AUD_SHAPE),
    ]:
        f, state = e.forward(_rand_obs(rng, shape), e.initial_state())
        assert f.shape == (32,)
        assert state.h.shape == (32,) and state.c.shape == (32,)


def test_text_output_is_feature_dim():
    e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=19, seed=3)
    ids = np.array([1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    f, _ = e.forward(ids, e.initial_state())
    assert f.shape == (32,)


def test_text_length_comes_from_the_modality_shape():
    e = ex.build_extractor("text", (7,), seed=3, vocab_size=19)
    assert e.input_shape == (7,)
    f, _ = e.forward(np.arange(7) % 19, e.initial_state())
    assert f.shape == (32,)
    with pytest.raises(ValueError, match="shape"):
        e.forward(np.zeros(12, dtype=int), e.initial_state())


def test_zero_observation_is_deterministic():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=5)
    obs = np.zeros(VIS_SHAPE)
    f1, _ = e.forward(obs, e.initial_state())
    f2, _ = e.forward(obs, e.initial_state())
    np.testing.assert_array_equal(f1, f2)


def test_different_observations_give_different_features():
    rng = np.random.default_rng(11)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=11)
    st = e.initial_state()
    f1, _ = e.forward(_rand_obs(rng, VIS_SHAPE), st)
    f2, _ = e.forward(_rand_obs(rng, VIS_SHAPE), st)
    assert np.abs(f1 - f2).max() > 1e-9


def test_shape_mismatch_names_modality():
    e = ex.ConvLstmExtractor("audio", AUD_SHAPE, seed=0)
    with pytest.raises(ValueError, match="audio"):
        e.forward(np.zeros((1, 8, 8)), e.initial_state())


def test_text_rejects_out_of_vocab_ids():
    e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=5, seed=0)
    with pytest.raises(ValueError, match="vocabulary"):
        e.forward(np.array([0, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0]), e.initial_state())


def test_forward_sequence_matches_stepwise():
    rng = np.random.default_rng(2)
    for e, shape in [
        (ex.ConvLstmExtractor("visual", VIS_SHAPE, 2), VIS_SHAPE),
        (ex.ConvLstmExtractor("audio", AUD_SHAPE, 3), AUD_SHAPE),
    ]:
        obs = [_rand_obs(rng, shape) for _ in range(6)]
        starts = [True, False, False, True, False, False]

        st = e.initial_state()
        stepped = []
        for o, s in zip(obs, starts):
            if s:
                st = e.initial_state()
            f, st = e.forward(o, st)
            stepped.append(f)

        feats, final = e.forward_sequence(obs, starts, e.initial_state())
        for a, b in zip(stepped, feats):
            np.testing.assert_allclose(a, b.data, atol=1e-12)
        # the final state is the one chaining forward reaches
        np.testing.assert_allclose(final.h, st.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final.c, st.c, rtol=0, atol=1e-12)


def test_text_forward_sequence_matches_stepwise():
    rng = np.random.default_rng(4)
    e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=19, seed=4)
    obs = [rng.integers(0, 19, size=12) for _ in range(5)]
    starts = [True, False, False, False, True]
    st = e.initial_state()
    stepped = []
    for o, s in zip(obs, starts):
        if s:
            st = e.initial_state()
        f, st = e.forward(o, st)
        stepped.append(f)
    feats, final = e.forward_sequence(obs, starts, e.initial_state())
    for a, b in zip(stepped, feats):
        np.testing.assert_allclose(a, b.data, atol=1e-12)
    np.testing.assert_allclose(final.h, st.h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(final.c, st.c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["visual", "text"])
def test_replay_graph_size_is_independent_of_rollout_length(kind):
    # one fused lstm_cell node per replay, however long the rollout; its node holds the features
    # themselves, so a visual replay slices nothing (text slices its embedding table)
    rng = np.random.default_rng(5)
    if kind == "visual":
        e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=5)
        draw = lambda: _rand_obs(rng, VIS_SHAPE)  # noqa: E731
    else:
        e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=19, seed=5)
        draw = lambda: rng.integers(0, 19, size=12)  # noqa: E731
    sizes = []
    for t_len in (8, 32):
        starts = [t % 5 == 0 for t in range(t_len)]
        feats, _ = e.forward_sequence([draw() for _ in range(t_len)], starts, e.initial_state())
        assert feats.shape == (t_len, ex.FEATURE_DIM)
        nodes = ad.Graph.trace(feats.sum()).nodes
        assert sum(n._op == "lstm_cell" for n in nodes) == 1
        assert feats._op == "lstm_cell"
        if kind == "visual":
            assert all(n._op != "slice" for n in nodes)
        sizes.append(len(nodes))
    assert sizes[0] == sizes[1]


def test_forward_builds_no_graph():
    # acting gives plain arrays: the features and the state carry no graph
    rng = np.random.default_rng(7)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=7)
    f, st = e.forward(_rand_obs(rng, VIS_SHAPE), e.initial_state())
    for arr in (f, st.h, st.c):
        assert type(arr) is np.ndarray and arr.shape == (ex.FEATURE_DIM,)


def _env_extractors():
    """(extractor, observation) for every modality of the five envs, from a reset."""
    for name in envs.ENV_NAMES:
        env = envs.make_env(name, 0)
        obs = env.reset().modalities()
        for m, shape in env.modality_shapes.items():
            yield ex.build_extractor(m, shape, seed=0, vocab_size=getattr(env, "vocab_size", None)), obs[m]


def test_array_conv_stack_is_the_op_stack_on_every_env_geometry(monkeypatch):
    # each layer's flat (F, oh*ow) acting buffer holds the bits of the autodiff stack's layer, at batch 1,
    # on all 13 conv geometries, each layer gathered through the op's own cached index of its geometry
    geometries, op_indices = set(), []
    gather_index = ad.gather_index

    def recording(x_shape, kernel, stride, padding):
        geometries.add((x_shape, kernel, stride, padding))
        op_indices.append(gather_index(x_shape, kernel, stride, padding))
        return op_indices[-1]

    monkeypatch.setattr(ad, "gather_index", recording)
    rng = np.random.default_rng(13)
    for e, obs in _env_extractors():
        noisy = rng.integers(0, e.vocab_size, size=obs.shape) if e.name == "text" else obs + rng.normal(size=obs.shape)
        for o in (obs, noisy):
            x = e._conv_input(o)
            layers = e._conv_stack_array(x)
            assert len(layers) == 3
            want = ad.Value(x)
            for got, i in zip(layers, (1, 2, 3)):
                want = ad.conv2d(want, e.params[f"conv{i}.w"], e.params[f"conv{i}.b"], stride=e.STRIDE, padding=e.PADDING)
                assert type(got) is np.ndarray and got.shape == (want.shape[1], want.data[0, 0].size)
                assert np.array_equal(got, want.data.reshape(got.shape)), e.name
            assert np.array_equal(layers[-1], e._conv_stack(ad.Value(x)).data.reshape(layers[-1].shape))
            assert len(e._act_index) == 3 and all(a is b for a, b in zip(e._act_index, op_indices[-3:]))
    assert len(geometries) == 13
    assert all(shape[0] == 1 for shape, _, _, _ in geometries)


def test_forward_creates_no_value_and_calls_no_conv2d(monkeypatch):
    counts = {"values": 0, "conv2d": 0}
    value_init, node, conv2d = ad.Value.__init__, ad._node, ad.conv2d

    def counting_init(self, *args, **kwargs):
        counts["values"] += 1
        value_init(self, *args, **kwargs)

    def counting_node(*args):
        counts["values"] += 1
        return node(*args)

    def counting_conv2d(*args, **kwargs):
        counts["conv2d"] += 1
        return conv2d(*args, **kwargs)

    pairs = list(_env_extractors())
    monkeypatch.setattr(ad.Value, "__init__", counting_init)
    monkeypatch.setattr(ad, "_node", counting_node)
    monkeypatch.setattr(ad, "conv2d", counting_conv2d)
    for e, obs in pairs:
        e.forward(obs, e.initial_state())
    assert counts == {"values": 0, "conv2d": 0}
    for e, obs in pairs:  # the counters see the replay path's Values and convolutions
        e.forward_sequence([obs], [True], e.initial_state())
    assert counts["values"] > 0 and counts["conv2d"] == 3 * len(pairs)


def test_state_carries_within_episode():
    rng = np.random.default_rng(6)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=6)
    obs = _rand_obs(rng, VIS_SHAPE)
    st = e.initial_state()
    f1, st = e.forward(obs, st)
    f2, _ = e.forward(obs, st)
    assert np.abs(f1 - f2).max() > 1e-9  # same obs, different state


def test_detached_state_blocks_gradient():
    rng = np.random.default_rng(8)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=8)
    f, st = e.forward(_rand_obs(rng, VIS_SHAPE), e.initial_state())
    d = st.detached()
    assert not (np.shares_memory(d.h, st.h) or np.shares_memory(d.c, st.c))
    np.testing.assert_array_equal(d.h, st.h)
    np.testing.assert_array_equal(d.c, st.c)


@pytest.mark.parametrize("kind", ["visual", "text"])
def test_gradient_check_through_extractor(kind):
    rng = np.random.default_rng(9)
    if kind == "visual":
        e = ex.ConvLstmExtractor("visual", (1, 5, 5), seed=9)
        obs = [_rand_obs(rng, (1, 5, 5)) for _ in range(2)]
    else:
        e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=7, seed=9)
        obs = [rng.integers(0, 7, size=12) for _ in range(2)]
    starts = [True, False]

    checked = ["conv1.b", "lstm.w_hh", "lstm.b"] + (["embed.table"] if kind == "text" else [])
    inputs = [e.params[name].data.copy() for name in checked]
    originals = {name: e.params[name] for name in checked}

    def g(vals):
        for name, v in zip(checked, vals):
            e.params[name] = v
        try:
            feats, _ = e.forward_sequence(obs, starts, e.initial_state())
            return ad.concat(feats, axis=0).square().sum()
        finally:
            for name in checked:
                e.params[name] = originals[name]

    report = grad_check(g, inputs, rel_tol=1e-4)
    assert report.ok, report.per_input


def test_forget_gate_bias_initialized_to_one():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=21)
    b = e.params["lstm.b"].data
    np.testing.assert_array_equal(b[32:64], np.ones(32))
    np.testing.assert_array_equal(b[:32], np.zeros(32))


def test_memo_hit_returns_the_miss_drive_and_the_same_numbers():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=0)
    obs = np.random.default_rng(0).random(VIS_SHAPE)
    state = ex.RecurrentState(np.full(32, 0.1), np.full(32, -0.2))
    drives = {}
    miss, miss_state = e.forward(obs, state, drives)
    (key, drive), = drives.items()
    assert key == (obs.dtype.str, obs.tobytes())
    hit, hit_state = e.forward(obs.copy(), state, drives)  # a new array with the same bytes
    assert len(drives) == 1 and drives[key] is drive
    plain, plain_state = e.forward(obs, state)
    for a, b, c in ((miss, hit, plain), (miss_state.c, hit_state.c, plain_state.c)):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, c)


def test_memo_hit_records_the_arrays_its_miss_stored():
    # each conv layer's output is kept once per distinct observation; the LSTM steps on every call
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=0)
    obs = np.random.default_rng(1).random(VIS_SHAPE)
    drives, record, state = {}, ex.ActingRecord(), e.initial_state()
    for o in (obs, obs.copy(), obs):
        feat, state = e.forward(o, state, drives, record)
    (convs, _), = drives.values()
    assert len(convs) == 3
    for layer, out in zip(record.conv, convs):
        assert len(layer) == 3 and all(a is out for a in layer)
    assert len({id(g) for g in record.gates}) == 3
    assert record.h[-1] is feat is state.h and record.c[-1] is state.c
    # a span that records nothing (evaluation) keeps the drive alone
    drives = {}
    e.forward(obs, state, drives)
    assert [convs for convs, _ in drives.values()] == [None]


@pytest.mark.parametrize("kind", ["visual", "text"])
def test_recorded_replay_is_acting_bit_for_bit(kind):
    # a replay built from acting's record gives acting's features and final state exactly, and
    # gradients within 1e-10 of the recomputed replay's
    rng = np.random.default_rng(15)
    if kind == "visual":
        e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=15)
        obs = [_rand_obs(rng, VIS_SHAPE) for _ in range(6)]
    else:
        e = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=19, seed=15)
        obs = [rng.integers(0, 19, size=12) for _ in range(6)]
    obs[4] = obs[1]  # a memo hit
    starts = [False, False, True, False, False, False]
    initial = ex.RecurrentState(rng.normal(size=32) * 0.3, rng.normal(size=32) * 0.3)
    record, drives, state = ex.ActingRecord(), {}, initial
    for o, start in zip(obs, starts):
        state = e.initial_state() if start else state
        _, state = e.forward(o, state, drives, record)
    grads = []
    for recorded in (record, None):
        feats, final = e.forward_sequence(obs, starts, initial, recorded)
        if recorded is not None:
            assert feats.data.tobytes() == np.array(record.h).tobytes()
            assert final.h.tobytes() == state.h.tobytes() and final.c.tobytes() == state.c.tobytes()
        ad.backward(feats.square().sum())
        grads.append({k: p.grad.copy() for k, p in e.params.items()})
        ad.zero_grads(e.params.values())
    for k, g in grads[1].items():
        assert np.abs(grads[0][k] - g).max() <= 1e-10 * np.abs(g).max(), k


def test_memo_path_still_checks_every_observation():
    vis = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=0)
    obs = np.random.default_rng(0).random(VIS_SHAPE)
    drives = {}
    vis.forward(obs, vis.initial_state(), drives)
    reshaped = obs.reshape(4, 5, 10)
    assert (reshaped.dtype.str, reshaped.tobytes()) in drives  # a lookup before the check would hit
    with pytest.raises(ValueError, match="shape"):
        vis.forward(reshaped, vis.initial_state(), drives)

    text = ex.TextExtractor("text", TEXT_SHAPE, vocab_size=19, seed=3)
    ids = np.arange(12) % 19
    drives = {}
    text.forward(ids, text.initial_state(), drives)
    for bad_id in (19, -1):
        bad = ids.copy()
        bad[0] = bad_id
        with pytest.raises(ValueError, match="vocabulary"):
            text.forward(bad, text.initial_state(), drives)
    assert list(drives) == [(ids.dtype.str, ids.tobytes())]
