import numpy as np
import pytest

from maie import autodiff as ad

from op_cases import CASES, check_op


def test_add_componentwise():
    out = ad.Value([1.0, 2.0]) + ad.Value([3.0, 4.0])
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_softmax_uniform_on_equal_inputs():
    out = ad.softmax(ad.Value([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_simplex_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(size=(4, 5)) * rng.uniform(0.1, 30)
        s = ad.softmax(ad.Value(x), axis=0).data
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-12)


def test_conv2d_output_shape():
    # floor((8 + 2*1 - 3)/2) + 1 = 4
    x = ad.Value(np.zeros((3, 8, 8)))
    w = ad.Value(np.zeros((32, 3, 3, 3)))
    out = ad.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (32, 4, 4)


def test_conv2d_batched_matches_single():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 2, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=(3,))
    batch = ad.conv2d(ad.Value(x), ad.Value(w), ad.Value(b), stride=2, padding=1).data
    for i in range(4):
        single = ad.conv2d(ad.Value(x[i]), ad.Value(w), ad.Value(b), stride=2, padding=1).data
        np.testing.assert_allclose(batch[i], single, atol=1e-13)


def test_conv2d_channel_mismatch_error():
    with pytest.raises(ad.ShapeError, match="channels"):
        ad.conv2d(ad.Value(np.zeros((3, 8, 8))), ad.Value(np.zeros((4, 2, 3, 3))))


def test_elementwise_shape_mismatch_names_op():
    with pytest.raises(ad.ShapeError, match="add"):
        ad.Value(np.zeros(3)) + ad.Value(np.zeros(4))


def test_unknown_op_kind():
    with pytest.raises(ValueError, match="unknown op kind"):
        ad.forward_op("fft", [ad.Value([1.0])])


def test_forward_op_dispatch():
    out = ad.forward_op("mul", [ad.Value([2.0, 3.0]), ad.Value([4.0, 5.0])])
    np.testing.assert_array_equal(out.data, [8.0, 15.0])
    out = ad.forward_op("softmax_axis", [ad.Value([0.0, 0.0])], axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_backward_sum_of_squares():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_stop_gradient():
    a = ad.Value([1.0, 2.0], requires_grad=True)
    b = ad.Value([3.0, 4.0], requires_grad=True)
    ad.backward((ad.stop_gradient(a) * b).sum())
    np.testing.assert_array_equal(a.grad, [0.0, 0.0])
    np.testing.assert_array_equal(b.grad, a.data)


def test_stop_gradient_forward_identity():
    x = ad.Value(np.array([1.5, -2.25, 0.0]), requires_grad=True)
    out = ad.stop_gradient(x)
    np.testing.assert_array_equal(out.data, x.data)
    assert not out.requires_grad


def test_backward_requires_scalar():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.GraphError, match="scalar"):
        ad.backward(x * x)


def test_double_backward_raises():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    ad.backward(loss)
    with pytest.raises(ad.GraphError, match="backward"):
        ad.backward(loss)


def test_shared_subgraph_double_backward_raises():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    y = x * x
    ad.backward(y.sum())
    with pytest.raises(ad.GraphError):
        ad.backward((y * y).sum())


def test_gradients_accumulate_until_zeroed():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    ad.backward((x * x).sum())
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [4.0, 8.0])
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_no_grad_skips_recording():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        out = (x * x).sum()
    assert not out.requires_grad
    with pytest.raises(ad.GraphError):
        ad.backward(out)


def test_concat_routes_adjoints():
    rng = np.random.default_rng(1)
    a = ad.Value(rng.normal(size=(2, 2)), requires_grad=True)
    b = ad.Value(rng.normal(size=(3, 2)), requires_grad=True)
    weight = rng.normal(size=(5, 2))
    ad.backward((ad.concat([a, b], axis=0) * ad.Value(weight)).sum())
    np.testing.assert_allclose(a.grad, weight[:2])
    np.testing.assert_allclose(b.grad, weight[2:])


def test_concat_adjoint_by_perturbation():
    def f(v):
        return ad.concat([v[0], v[1]], axis=0).square().sum()

    rng = np.random.default_rng(2)
    report = ad.grad_check(f, [rng.normal(size=(3,)), rng.normal(size=(2,))])
    assert report.ok


def test_grad_check_square():
    report = ad.grad_check(lambda v: v[0].square().sum(), [np.array([1.0, -2.0])])
    assert report.max_rel_err < 1e-6


def test_grad_check_softmax_sum_is_flat():
    # softmax outputs sum to 1 identically, so the gradient is ~0 everywhere
    x = np.random.default_rng(5).normal(size=(4,))
    report = ad.grad_check(lambda v: ad.softmax(v[0], axis=0).sum(), [x])
    assert report.max_rel_err < 1e-6


def test_grad_check_flags_nonfinite():
    def f(v):
        return v[0].log().sum()

    with pytest.raises(ArithmeticError, match="input"):
        ad.grad_check(f, [np.array([1.0, -1.0])])


@pytest.mark.parametrize("kind", sorted(CASES))
def test_op_grad_check(kind):
    worst = check_op(kind, n_cases=10, seed=hash(kind) % 2**31)
    assert worst < 1e-4


def test_case_registry_covers_registered_ops():
    assert set(CASES) == set(ad.registered_ops())


def test_lstm_cell_matches_composed_ops():
    rng = np.random.default_rng(7)
    hd = 8
    sx = rng.normal(size=(4 * hd,))
    whh = rng.normal(size=(4 * hd, hd)) * 0.3
    h = rng.normal(size=(hd,)) * 0.5
    c = rng.normal(size=(hd,)) * 0.5

    fused = ad.lstm_cell(ad.Value(sx), ad.Value(whh), ad.Value(h), ad.Value(c))

    z = ad.Value(sx) + ad.matmul(ad.Value(whh), ad.Value(h))
    gi, gf = z[:hd].sigmoid(), z[hd : 2 * hd].sigmoid()
    gg, go = z[2 * hd : 3 * hd].tanh(), z[3 * hd :].sigmoid()
    c_new = gf * ad.Value(c) + gi * gg
    h_new = go * c_new.tanh()

    np.testing.assert_allclose(fused.data[:hd], h_new.data, atol=1e-14)
    np.testing.assert_allclose(fused.data[hd:], c_new.data, atol=1e-14)


def test_lstm_cell_sequence_matches_chained_steps():
    # the (T, 4H) form is T single-step calls with zeroed state at each start,
    # in its outputs and in the gradients of all four inputs
    rng = np.random.default_rng(12)
    hd, t_len = 5, 7
    starts = [False, False, True, False, False, True, False]
    arrays = [
        rng.normal(size=(t_len, 4 * hd)),
        rng.normal(size=(4 * hd, hd)) * 0.4,
        rng.normal(size=(hd,)) * 0.5,
        rng.normal(size=(hd,)) * 0.5,
    ]
    upstream = rng.normal(size=(t_len, 2 * hd))

    fused_in = [ad.Value(a.copy(), requires_grad=True) for a in arrays]
    fused = ad.lstm_cell(*fused_in, starts=starts)
    ad.backward((fused * ad.Value(upstream)).sum())

    chained_in = [ad.Value(a.copy(), requires_grad=True) for a in arrays]
    sx, w_hh, h, c = chained_in
    rows = []
    for t in range(t_len):
        if starts[t]:
            h, c = ad.Value(np.zeros(hd)), ad.Value(np.zeros(hd))
        hc = ad.lstm_cell(sx[t], w_hh, h, c)
        h, c = hc[:hd], hc[hd:]
        rows.append(hc.reshape((1, 2 * hd)))
    chained = ad.concat(rows, axis=0)
    ad.backward((chained * ad.Value(upstream)).sum())

    np.testing.assert_allclose(fused.data, chained.data, rtol=0, atol=1e-12)
    for a, b in zip(fused_in, chained_in):
        assert np.abs(a.grad).max() > 0.0
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)


def test_lstm_step_is_the_op_forward():
    rng = np.random.default_rng(13)
    hd = 6
    sx, whh = rng.normal(size=(4 * hd,)), rng.normal(size=(4 * hd, hd)) * 0.3
    h, c = rng.normal(size=(hd,)), rng.normal(size=(hd,))
    h_new, c_new, _ = ad.lstm_step(sx, whh, h, c)
    hc = ad.lstm_cell(sx, whh, h, c).data
    np.testing.assert_array_equal(hc, np.concatenate([h_new, c_new]))


def test_lstm_cell_rejects_bad_starts():
    hd = 2
    with pytest.raises(ad.ShapeError, match="starts"):
        ad.lstm_cell(np.zeros((3, 4 * hd)), np.zeros((4 * hd, hd)), np.zeros(hd), np.zeros(hd), starts=[True, False])


def test_slice_accumulates_repeated_indices():
    x = ad.Value(np.arange(4.0), requires_grad=True)
    out = x[np.array([1, 1, 2])]
    ad.backward(out.sum())
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


# -- Adam ------------------------------------------------------------------


def test_adam_zero_grad_is_noop():
    p = ad.Value(np.array([1.0, -2.0]), requires_grad=True)
    opt = ad.Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_unit_lr_step():
    # bias-corrected first step with constant grad 1 moves by ~ -lr
    p = ad.Value(np.array([0.0]), requires_grad=True)
    p.grad[:] = 1.0
    opt = ad.Adam([p], lr=0.1, eps=1e-8)
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)


def test_adam_two_steps_hand_evaluated():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = ad.Value(np.array([0.0]), requires_grad=True)
    p.grad[:] = 1.0
    opt = ad.Adam([p], lr=lr, betas=(b1, b2), eps=eps)
    opt.step()
    opt.step()

    # hand evaluation with grad held at 1
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(p.data, [theta], atol=1e-12)
    assert opt.state[id(p)][2] == 2


def test_adam_grads_left_untouched():
    p = ad.Value(np.array([1.0]), requires_grad=True)
    p.grad[:] = 2.5
    ad.Adam([p], lr=0.01).step()
    np.testing.assert_array_equal(p.grad, [2.5])


def test_adam_subset_step_advances_only_touched_params():
    a = ad.Value(np.array([0.0]), requires_grad=True)
    b = ad.Value(np.array([0.0]), requires_grad=True)
    a.grad[:] = 1.0
    b.grad[:] = 1.0
    opt = ad.Adam([a, b], lr=0.1)
    opt.step(params=[a])
    assert opt.state[id(a)][2] == 1
    assert id(b) not in opt.state
    np.testing.assert_array_equal(b.data, [0.0])


def test_clip_grad_norm():
    a = ad.Value(np.array([3.0]), requires_grad=True)
    b = ad.Value(np.array([4.0]), requires_grad=True)
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    norm = ad.clip_grad_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert total == pytest.approx(1.0, rel=1e-6)


def test_grad_shape_matches_data_shape():
    v = ad.Value(np.zeros((3, 4)), requires_grad=True)
    assert v.grad.shape == v.data.shape
    out = v.relu()
    assert out.grad.shape == out.data.shape
