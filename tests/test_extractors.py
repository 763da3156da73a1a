import numpy as np
import pytest

from maie import autodiff as ad
from maie import extractors as ex


VIS_SHAPE = (2, 10, 10)
AUD_SHAPE = (1, 16, 16)


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
    e = ex.TextExtractor("text", vocab_size=19, seed=3)
    ids = np.array([1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    f, _ = e.forward(ids, e.initial_state())
    assert f.shape == (32,)


def test_zero_observation_is_deterministic():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=5)
    obs = np.zeros(VIS_SHAPE)
    f1, _ = e.forward(obs, e.initial_state())
    f2, _ = e.forward(obs, e.initial_state())
    np.testing.assert_array_equal(f1.data, f2.data)


def test_different_observations_give_different_features():
    rng = np.random.default_rng(11)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=11)
    st = e.initial_state()
    f1, _ = e.forward(_rand_obs(rng, VIS_SHAPE), st)
    f2, _ = e.forward(_rand_obs(rng, VIS_SHAPE), st)
    assert np.abs(f1.data - f2.data).max() > 1e-9


def test_shape_mismatch_names_modality():
    e = ex.ConvLstmExtractor("audio", AUD_SHAPE, seed=0)
    with pytest.raises(ValueError, match="audio"):
        e.forward(np.zeros((1, 8, 8)), e.initial_state())


def test_text_rejects_out_of_vocab_ids():
    e = ex.TextExtractor("text", vocab_size=5, seed=0)
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
            stepped.append(f.data)

        feats, _ = e.forward_sequence(obs, starts, e.initial_state())
        for a, b in zip(stepped, feats):
            np.testing.assert_allclose(a, b.data, atol=1e-12)


def test_text_forward_sequence_matches_stepwise():
    rng = np.random.default_rng(4)
    e = ex.TextExtractor("text", vocab_size=19, seed=4)
    obs = [rng.integers(0, 19, size=12) for _ in range(5)]
    starts = [True, False, False, False, True]
    st = e.initial_state()
    stepped = []
    for o, s in zip(obs, starts):
        if s:
            st = e.initial_state()
        f, st = e.forward(o, st)
        stepped.append(f.data)
    feats, _ = e.forward_sequence(obs, starts, e.initial_state())
    for a, b in zip(stepped, feats):
        np.testing.assert_allclose(a, b.data, atol=1e-12)


@pytest.mark.parametrize("kind", ["visual", "text"])
def test_replay_graph_size_is_independent_of_rollout_length(kind):
    # one fused lstm_cell node per replay, however long the rollout
    rng = np.random.default_rng(5)
    if kind == "visual":
        e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=5)
        draw = lambda: _rand_obs(rng, VIS_SHAPE)  # noqa: E731
    else:
        e = ex.TextExtractor("text", vocab_size=19, seed=5)
        draw = lambda: rng.integers(0, 19, size=12)  # noqa: E731
    sizes = []
    for t_len in (8, 32):
        starts = [t % 5 == 0 for t in range(t_len)]
        feats, _ = e.forward_sequence([draw() for _ in range(t_len)], starts, e.initial_state())
        assert feats.shape == (t_len, ex.FEATURE_DIM)
        nodes = ad.Graph.trace(feats.sum()).nodes
        assert sum(n._op == "lstm_cell" for n in nodes) == 1
        sizes.append(len(nodes))
    assert sizes[0] == sizes[1]


def test_forward_builds_no_graph():
    rng = np.random.default_rng(7)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=7)
    f, st = e.forward(_rand_obs(rng, VIS_SHAPE), e.initial_state())
    assert not (f.requires_grad or st.h.requires_grad or st.c.requires_grad)
    assert f._parents == ()


def test_state_carries_within_episode():
    rng = np.random.default_rng(6)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=6)
    obs = _rand_obs(rng, VIS_SHAPE)
    st = e.initial_state()
    f1, st = e.forward(obs, st)
    f2, _ = e.forward(obs, st)
    assert np.abs(f1.data - f2.data).max() > 1e-9  # same obs, different state


def test_detached_state_blocks_gradient():
    rng = np.random.default_rng(8)
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=8)
    f, st = e.forward(_rand_obs(rng, VIS_SHAPE), e.initial_state())
    d = st.detached()
    assert not d.h.requires_grad and not d.c.requires_grad
    np.testing.assert_array_equal(d.h.data, st.h.data)


@pytest.mark.parametrize("kind", ["visual", "text"])
def test_gradient_check_through_extractor(kind):
    rng = np.random.default_rng(9)
    if kind == "visual":
        e = ex.ConvLstmExtractor("visual", (1, 5, 5), seed=9)
        obs = [_rand_obs(rng, (1, 5, 5)) for _ in range(2)]
    else:
        e = ex.TextExtractor("text", vocab_size=7, seed=9)
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

    report = ad.grad_check(g, inputs, rel_tol=1e-4)
    assert report.ok, report.per_input


def test_save_load_round_trip(tmp_path):
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=13)
    path = tmp_path / "params.json"
    ex.save_arrays(path, e.named_parameters())
    loaded = ex.load_arrays(path)

    e2 = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=99)
    ex.load_into(e2.named_parameters(), {f"visual.{k}": loaded[f"visual.{k}"] for k in e2.params})
    rng = np.random.default_rng(0)
    obs = _rand_obs(rng, VIS_SHAPE)
    f1, _ = e.forward(obs, e.initial_state())
    f2, _ = e2.forward(obs, e2.initial_state())
    np.testing.assert_array_equal(f1.data, f2.data)


def test_load_into_rejects_shape_mismatch():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=0)
    with pytest.raises(ValueError, match="shape"):
        ex.load_into({"visual.conv1.w": e.params["conv1.w"]}, {"visual.conv1.w": np.zeros((2, 2))})


def test_forget_gate_bias_initialized_to_one():
    e = ex.ConvLstmExtractor("visual", VIS_SHAPE, seed=21)
    b = e.params["lstm.b"].data
    np.testing.assert_array_equal(b[32:64], np.ones(32))
    np.testing.assert_array_equal(b[:32], np.zeros(32))
