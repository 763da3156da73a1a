import operator
import tracemalloc
import zlib

import numpy as np
import pytest

from maie import autodiff as ad
from maie.extractors import TEXT_EMBED_DIM, ConvLstmExtractor, TextExtractor

from grad_check import grad_check
from method_oracles import adam_reference, conv2d_reference
from op_cases import CASES, check_op, conv2d_output, lstm_steps


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
    x = ad.Value(np.zeros((1, 3, 8, 8)))
    w = ad.Value(np.zeros((32, 3, 3, 3)))
    out = ad.conv2d(x, w, np.zeros(32), stride=(2, 2), padding=(1, 1))
    assert out.shape == (1, 32, 4, 4)


def test_conv2d_channel_mismatch_error():
    with pytest.raises(ad.ShapeError, match="channels"):
        ad.conv2d(ad.Value(np.zeros((1, 3, 8, 8))), ad.Value(np.zeros((4, 2, 3, 3))), np.zeros(4), stride=(1, 1), padding=(0, 0))


def _stack_geometries(c, h, w, filters, kernel, stride, padding):
    """(C, H, W) input of each of an extractor's three conv layers."""
    out = []
    for _ in range(3):
        out.append((c, h, w))
        c = filters
        h = (h + 2 * padding[0] - kernel[0]) // stride[0] + 1
        w = (w + 2 * padding[1] - kernel[1]) // stride[1] + 1
    return out


_CONV_SPECS = {
    kind: dict(filters=cls.FILTERS, kernel=cls.KERNEL, stride=cls.STRIDE, padding=cls.PADDING)
    for kind, cls in (("convlstm", ConvLstmExtractor), ("text", TextExtractor))
}
# every conv layer of the five envs, once each: visual 2x10x10 (hetero_nav),
# 3x10x10 (target_select, av_nav), 4x8x8 (mining) and 5x8x8 (mining_plus);
# audio 1x16x16 through the same stack; text (8, 1, 12), the TextCNN's
# embedding of 12 tokens
CONV_GEOMETRIES = list(dict.fromkeys(
    (geom, kind)
    for shape, kind in [
        ((2, 10, 10), "convlstm"),
        ((3, 10, 10), "convlstm"),
        ((4, 8, 8), "convlstm"),
        ((5, 8, 8), "convlstm"),
        ((1, 16, 16), "convlstm"),
        ((TEXT_EMBED_DIM, 1, 12), "text"),
    ]
    for geom in _stack_geometries(*shape, **_CONV_SPECS[kind])
))


# a layer whose input channels end in a short block: 21 run as 11 and 10 in its backward
PARTIAL_BLOCK = ((21, 10, 10), "convlstm")
CONV_CASES = [(geom, kind, batch) for geom, kind in CONV_GEOMETRIES for batch in (1, 32)] + [(*PARTIAL_BLOCK, 32)]


def test_channel_blocks_cover_the_channels_in_order():
    assert ad._channel_blocks(21, 9) == [(0, 11), (11, 21)]  # PARTIAL_BLOCK's
    assert ad._channel_blocks(32, 9) == [(0, 8), (8, 16), (16, 24), (24, 32)]  # each 72 patch rows
    for c, taps in [(1, 9), (5, 9), (15, 9), (16, 9), (33, 9), (100, 9), (8, 2), (3, 2), (100, 2)]:
        blocks = ad._channel_blocks(c, taps)
        assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]] and blocks[-1][1] == c
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        assert len(blocks) == 1 or sizes[-1] * taps >= ad._MIN_BLOCK_ROWS


@pytest.mark.parametrize("geom,kind,batch", CONV_CASES, ids=[f"{k}-{c}x{h}x{w}-{b}" for (c, h, w), k, b in CONV_CASES])
def test_conv2d_bitwise_equals_padded_reference(geom, kind, batch):
    spec = _CONV_SPECS[kind]
    rng = np.random.default_rng(batch * 1000 + sum(geom))
    x = rng.normal(size=(batch, *geom))
    w = rng.normal(size=(spec["filters"], geom[0], *spec["kernel"]))
    # each filter's bias is minus its least positive pre-activation without one, which is then
    # exactly 0.0: the ReLU's mask must drop it, as relu's adjoint drops a 0.0 input
    unbiased = ad.conv2d(x, w, np.zeros(spec["filters"]), stride=spec["stride"], padding=spec["padding"]).data
    least = np.where(unbiased > 0.0, unbiased, np.inf).min(axis=(0, 2, 3))
    b = np.where(np.isfinite(least), -least, 0.0)
    xv, wv, bv = (ad.Value(a, requires_grad=True) for a in (x, w, b))
    out = ad.conv2d(xv, wv, bv, stride=spec["stride"], padding=spec["padding"])
    g = rng.normal(size=out.shape)
    g.flat[::3] = -0.0
    ad.backward((out * ad.Value(g)).sum())
    ref = conv2d_reference(x, w, b, g, spec["stride"], spec["padding"])
    for got, want in zip((out.data, xv.grad, wv.grad, bv.grad), ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert out.data.flags.c_contiguous


def test_conv2d_kernel_larger_than_padded_input_error():
    w = np.zeros((1, 1, 5, 5))
    with pytest.raises(ad.ShapeError, match="too large"):
        ad.conv2d(np.zeros((1, 1, 2, 2)), w, np.zeros(1), stride=(1, 1), padding=(1, 1))
    # a kernel exactly the padded size gives one output position
    assert ad.conv2d(np.zeros((1, 1, 3, 3)), w, np.zeros(1), stride=(2, 2), padding=(1, 1)).shape == (1, 1, 1, 1)


def test_gather_index_is_read_only_and_cache_bounded():
    idx = ad.gather_index((2, 3, 5, 5), (3, 3), (2, 2), (1, 1))
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 0
    maxsize = ad.gather_index.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 20):
        ad.gather_index((n, 1, 3, 3), (3, 3), (1, 1), (1, 1))
    assert ad.gather_index.cache_info().currsize <= maxsize


BINARY_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


@pytest.mark.parametrize("kind", sorted(BINARY_OPERATORS))
def test_elementwise_shape_mismatch_names_op(kind):
    with pytest.raises(ad.ShapeError, match=rf"^{kind}: shapes \(3,\) and \(4,\) do not broadcast"):
        BINARY_OPERATORS[kind](ad.Value(np.zeros(3)), ad.Value(np.zeros(4)))


@pytest.mark.parametrize("kind,const", [("sub", 2.0), ("div", 1.0), ("mul", 0.5), ("add", 1.0)])
def test_reflected_operator_is_the_op_on_the_lifted_constant(kind, const):
    # const - v, const / v, const * v and const + v against the op on Value(const), bit for bit
    x = np.random.default_rng(4).uniform(0.5, 2.0, size=(3, 2))
    v, w = ad.Value(x, requires_grad=True), ad.Value(x.copy(), requires_grad=True)
    got, want = BINARY_OPERATORS[kind](const, v), getattr(ad, kind)(ad.Value(const), w)
    assert got._op == want._op == kind
    assert np.array_equal(got.data, want.data)
    ad.backward(got.square().sum())
    ad.backward(want.square().sum())
    assert np.array_equal(v.grad, w.grad) and v.grad.any()


def test_ops_take_only_their_one_form():
    # matmul is 2-D @ 2-D, conv2d takes a (N,C,H,W) batch, lstm_cell a (T, 4H) drive matrix
    with pytest.raises(ad.ShapeError, match="2-D"):
        ad.matmul(np.ones((2, 3)), np.ones(3))
    with pytest.raises(ad.ShapeError, match="2-D"):
        ad.matmul(np.ones(3), np.ones((3, 2)))
    with pytest.raises(ad.ShapeError, match="N,C,H,W"):
        ad.conv2d(np.zeros((3, 8, 8)), np.zeros((4, 3, 3, 3)), np.zeros(4), stride=(1, 1), padding=(0, 0))
    with pytest.raises(ad.ShapeError, match="T, 4H"):
        ad.lstm_cell(np.zeros(8), np.zeros((8, 2)), np.zeros(2), np.zeros(2), np.zeros(1, bool))


def test_backward_sum_of_squares():
    x = ad.Value([1.0, 2.0], requires_grad=True)
    ad.backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


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


def test_ops_on_constants_record_nothing():
    c = ad.Value([1.0, 2.0])
    out = (c * c).sum()
    assert not out.requires_grad and out._parents == () and out.grad is None
    with pytest.raises(ad.GraphError, match="nothing was recorded"):
        ad.backward(out)
    x = ad.Value([3.0, 4.0], requires_grad=True)
    mixed = (c * x).sum()
    assert mixed.requires_grad and mixed.grad is None and len(mixed._parents) == 1
    ad.backward(mixed)
    np.testing.assert_array_equal(x.grad, c.data)
    assert mixed.grad.shape == mixed.data.shape


# -- grad buffers on first use ------------------------------------------------


def test_recorded_node_gets_its_grad_when_the_walk_reaches_it():
    x = ad.Value(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = x * x
    loss = y.mean()
    assert y.grad is None and loss.grad is None
    y.zero_grad()  # a node without a grad has nothing to zero
    assert y.grad is None
    seen = []
    (mean_adjoint,) = loss._adjoints
    loss._adjoints = (lambda g: seen.append(y.grad) or mean_adjoint(g),)  # runs just before y's first adjoint lands
    ad.backward(loss)
    assert seen == [None]
    assert y.grad.shape == y.data.shape and loss.grad.shape == loss.data.shape
    np.testing.assert_array_equal(y.grad, np.full((2, 3), 1.0 / 6.0))


def test_a_parameter_gets_its_grad_when_a_backward_pass_first_reaches_it():
    p = ad.Value(np.ones((2, 3)), requires_grad=True)
    q = ad.Value(np.ones(3), requires_grad=True)  # never reached
    assert p.grad is None and q.grad is None
    ad.zero_grads([p, q])  # nothing to zero
    assert p.grad is None
    with pytest.raises(ValueError, match="no grad"):
        ad.clip_grad_norm([p], 1.0)
    opt = ad.Adam(lr=0.1)
    with pytest.raises(ValueError, match="no grad"):
        opt.step([p])

    ad.backward((p * -0.0).sum())  # p's adjoint is -0.0s; its grad has the bits of zeros plus them, 0.0s
    assert q.grad is None
    assert p.grad.tobytes() == (np.zeros((2, 3)) + np.full((2, 3), -0.0)).tobytes()
    buffer = p.grad
    ad.zero_grads([p])
    ad.backward((p * 2.0).sum())
    assert p.grad is buffer  # the buffer stays; later passes zero and add into it
    np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))

    before = p.data.copy()
    with pytest.raises(ValueError, match="no grad"):
        opt.step([p, q])
    with pytest.raises(ValueError, match="no grad"):
        ad.clip_grad_norm([p, q], 1.0)
    assert p.data.tobytes() == before.tobytes() and not opt.state  # a rejected step changes nothing
    np.testing.assert_array_equal(p.grad, np.full((2, 3), 2.0))
    assert ad.clip_grad_norm([p], 1.0) == pytest.approx(np.sqrt(24.0))
    opt.step([p])
    assert opt.state[p][2] == 1


SHARING_CASES = {
    "a + a": lambda a, b: a + a,
    "a + b": lambda a, b: a + b,  # both adjoints are the add node's own grad
    "reshape": lambda a, b: (a.reshape((3, 2)) + b.reshape((3, 2))).reshape((2, 3)),
    "transpose": lambda a, b: ad.transpose(ad.transpose(a, (1, 0)) * 3.0, (1, 0)) + b,
    "concat": lambda a, b: ad.concat([a, b], axis=0)[:2] + ad.concat([a, b], axis=1)[:, 3:],
}


@pytest.mark.parametrize("case", sorted(SHARING_CASES))
def test_no_two_values_share_a_grad_buffer(case):
    # an adjoint may return its output's grad or a view of it; each Value's grad is its own array,
    # so writing one leaves every other grad as it was
    rng = np.random.default_rng(7)
    x, z = (ad.Value(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(2))
    a, b = x * 2.0, z * 3.0  # recorded nodes, whose grads come from the first adjoint that reaches them
    loss = (SHARING_CASES[case](a, b) * ad.Value(rng.normal(size=(2, 3)))).sum()
    ad.backward(loss)
    nodes = ad.Graph.trace(loss).nodes
    assert {x, a} <= set(nodes)
    for i, node in enumerate(nodes):
        before = [n.grad.copy() for n in nodes]
        node.grad += 1.0
        for j, other in enumerate(nodes):
            if j != i:
                assert other.grad.tobytes() == before[j].tobytes(), (case, node._op, other._op)


def test_a_reduction_parents_first_grad_is_the_bits_of_zeros_plus_its_adjoint():
    # the first adjoint reaching a node is written as g + 0.0, broadcast: a -0.0 adjoint gives +0.0,
    # as adding it into a zero buffer did
    weight = np.array([-0.0, 1.5, -2.25, 0.0])
    x = ad.Value(np.arange(12.0).reshape(4, 3), requires_grad=True)
    summed = x * 1.0
    rows = summed.sum(axis=1)
    ad.backward((rows * ad.Value(weight)).sum())
    want_rows = np.zeros(4)
    want_rows += np.ones(4) * weight
    want = np.zeros((4, 3))
    want += np.expand_dims(want_rows, 1)
    assert rows.grad.tobytes() == want_rows.tobytes()
    assert summed.grad.tobytes() == want.tobytes()
    assert not np.signbit(summed.grad[0]).any()

    averaged = x * 1.0
    loss = -averaged.mean()
    ad.backward(loss)
    want = np.zeros((4, 3))
    want += (np.zeros(()) + -1.0) / 12
    assert averaged.grad.tobytes() == want.tobytes()


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
    report = grad_check(f, [rng.normal(size=(3,)), rng.normal(size=(2,))])
    assert report.ok


def test_grad_check_square():
    report = grad_check(lambda v: v[0].square().sum(), [np.array([1.0, -2.0])])
    assert report.max_rel_err < 1e-6


def test_grad_check_softmax_sum_is_flat():
    # softmax outputs sum to 1 identically, so the gradient is ~0 everywhere
    x = np.random.default_rng(5).normal(size=(4,))
    report = grad_check(lambda v: ad.softmax(v[0], axis=0).sum(), [x])
    assert report.max_rel_err < 1e-6


def test_grad_check_flags_nonfinite():
    def f(v):
        return v[0].log().sum()

    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        with pytest.raises(ArithmeticError, match="input"):
            grad_check(f, [np.array([1.0, -1.0])])


@pytest.mark.parametrize("kind", sorted(CASES))
def test_op_grad_check(kind):
    # crc32, not hash(): str hashes are salted per interpreter, so a failing draw could not be replayed
    worst = check_op(kind, n_cases=10, seed=zlib.crc32(kind.encode()))
    assert worst < 1e-4


MULTI_OPERAND_KINDS = ["add", "sub", "mul", "div", "matmul", "conv2d", "concat", "lstm_cell"]


@pytest.mark.parametrize("kind", MULTI_OPERAND_KINDS)
def test_constant_operand_gets_no_grad_and_leaves_the_others_bitwise(kind):
    # each operand in turn made a constant: it keeps grad None, and every other operand's gradient
    # is that of the graph in which all operands are variables, bit for bit
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(4):
        f, inputs = CASES[kind](rng)
        variables = [ad.Value(x, requires_grad=True) for x in inputs]
        ad.backward(f(variables))
        for i in range(len(inputs)):
            vals = [ad.Value(x, requires_grad=j != i) for j, x in enumerate(inputs)]
            ad.backward(f(vals))
            assert vals[i].grad is None
            for j, (got, want) in enumerate(zip(vals, variables)):
                if j != i:
                    assert np.array_equal(got.grad, want.grad), (kind, i, j)


def test_walk_computes_no_adjoint_for_a_constant_parent():
    # the walk alone decides whose adjoint to compute: a constant parent's is never called
    const, var = ad.Value(np.ones(3)), ad.Value(np.arange(3.0), requires_grad=True)

    def never(g):
        raise AssertionError("adjoint of a constant parent was computed")

    out = ad._node(const.data + var.data, (const, var), "add", never, lambda g: 2.0 * g)
    ad.backward(out.sum())
    assert const.grad is None
    np.testing.assert_array_equal(var.grad, [2.0, 2.0, 2.0])
    assert out._adjoints == () and out._spent  # run once, then released


def test_lstm_cell_matches_composed_ops():
    rng = np.random.default_rng(7)
    hd = 8
    sx = rng.normal(size=(4 * hd,))
    whh = rng.normal(size=(4 * hd, hd)) * 0.3
    h = rng.normal(size=(hd,)) * 0.5
    c = rng.normal(size=(hd,)) * 0.5

    rows, (h_last, c_last) = ad.lstm_cell(ad.Value(sx[None]), ad.Value(whh), h, c, np.zeros(1, bool))

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    z = sx + whh @ h
    gi, gf = sigmoid(z[:hd]), sigmoid(z[hd : 2 * hd])
    gg, go = np.tanh(z[2 * hd : 3 * hd]), sigmoid(z[3 * hd :])
    c_new = gf * c + gi * gg
    h_new = go * np.tanh(c_new)

    assert rows.shape == (1, hd)
    np.testing.assert_allclose(rows.data[0], h_new, atol=1e-14)
    np.testing.assert_allclose(h_last, h_new, atol=1e-14)
    np.testing.assert_allclose(c_last, c_new, atol=1e-14)


def test_lstm_cell_sequence_matches_chained_steps():
    # the (T, 4H) form is T single-step calls with zeroed state at each start, in its
    # h rows and final state; a start cuts the gradient, so the gradients of sx and w_hh
    # are those of one call per segment between starts
    rng = np.random.default_rng(12)
    hd, t_len = 5, 7
    starts = [False, False, True, False, False, True, False]
    sx_arr, whh_arr = rng.normal(size=(t_len, 4 * hd)), rng.normal(size=(4 * hd, hd)) * 0.4
    h0, c0 = rng.normal(size=(hd,)) * 0.5, rng.normal(size=(hd,)) * 0.5
    upstream = rng.normal(size=(t_len, hd))

    fused_in = [ad.Value(a.copy(), requires_grad=True) for a in (sx_arr, whh_arr)]
    fused, fused_last = ad.lstm_cell(*fused_in, h0, c0, starts=starts)
    ad.backward((fused * ad.Value(upstream)).sum())

    h, c = h0, c0
    stepped = []
    for t in range(t_len):
        if starts[t]:
            h, c = np.zeros(hd), np.zeros(hd)
        row, (h, c) = ad.lstm_cell(sx_arr[t : t + 1], whh_arr, h, c, np.zeros(1, bool))
        stepped.append(row.data[0])
    np.testing.assert_allclose(fused.data, np.stack(stepped), rtol=0, atol=1e-12)
    for got, want in zip(fused_last, (h, c)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    split_in = [ad.Value(a.copy(), requires_grad=True) for a in (sx_arr, whh_arr)]
    sx, w_hh = split_in
    bounds = [0, 2, 5, t_len]  # the segments between starts
    segments = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        state = (h0, c0) if lo == 0 else (np.zeros(hd), np.zeros(hd))
        segments.append(ad.lstm_cell(sx[lo:hi], w_hh, *state, np.zeros(hi - lo, bool))[0])
    split = ad.concat(segments, axis=0)
    ad.backward((split * ad.Value(upstream)).sum())

    np.testing.assert_allclose(fused.data, split.data, rtol=0, atol=1e-12)
    for a, b in zip(fused_in, split_in):
        assert np.abs(a.grad).max() > 0.0
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)


def test_lstm_step_is_the_op_forward():
    rng = np.random.default_rng(13)
    hd = 6
    sx, whh = rng.normal(size=(4 * hd,)), rng.normal(size=(4 * hd, hd)) * 0.3
    h, c = rng.normal(size=(hd,)), rng.normal(size=(hd,))
    h_new, c_new, _ = ad.lstm_step(sx, whh, h, c)
    rows, (h_last, c_last) = ad.lstm_cell(sx[None], whh, h, c, np.zeros(1, bool))
    np.testing.assert_array_equal(rows.data, h_new[None])
    np.testing.assert_array_equal(h_last, h_new)
    np.testing.assert_array_equal(c_last, c_new)

    # M modalities stepped at once: each row is its own single step, bit for bit, saturated gates included
    m = 4
    sx, whh = rng.normal(size=(m, 4 * hd)), rng.normal(size=(m, 4 * hd, hd)) * 0.3
    h, c = rng.normal(size=(m, hd)), rng.normal(size=(m, hd))
    sx[1] *= 60.0  # every gate of this row at or next to 0 or 1
    sx[2, :hd], sx[2, 3 * hd :] = 50.0, -50.0  # input gate open, output gate shut
    stacked = ad.lstm_step(sx, whh, h, c)
    assert [a.shape for a in stacked] == [(m, hd), (m, hd), (m, 4 * hd)]
    assert np.isin(stacked[2][1], (0.0, 1.0)).any()
    for i in range(m):
        for got, want in zip(stacked, ad.lstm_step(sx[i], whh[i], h[i], c[i])):
            assert got[i].tobytes() == want.tobytes()


def test_lstm_cell_rejects_bad_starts():
    hd = 2
    with pytest.raises(ad.ShapeError, match="starts"):
        ad.lstm_cell(np.zeros((3, 4 * hd)), np.zeros((4 * hd, hd)), np.zeros(hd), np.zeros(hd), starts=[True, False])


def _outputs_and_grads(build, arrays, upstream) -> tuple:
    """The output of ``build`` over fresh variables of ``arrays`` and each variable's gradient under ``upstream``."""
    vals = [ad.Value(a.copy(), requires_grad=True) for a in arrays]
    out = build(vals)
    ad.backward((out * ad.Value(upstream)).sum())
    return out.data, [v.grad for v in vals]


@pytest.mark.parametrize("kernel, stride, padding, x_shape", [
    ((3, 3), (2, 2), (1, 1), (4, 3, 10, 10)),  # the visual and audio stacks' geometry
    ((1, 2), (1, 1), (0, 1), (3, 8, 1, 12)),  # the TextCNN's
])
def test_recorded_conv2d_is_the_computed_node_bit_for_bit(kernel, stride, padding, x_shape):
    # given the output its own computed forward gave, the recorded form outputs the same bits and
    # hands every operand the same adjoint
    rng = np.random.default_rng(41)
    arrays = [rng.normal(size=x_shape), rng.normal(size=(5, x_shape[1], *kernel)), rng.normal(size=(5,))]
    given = conv2d_output(*map(ad.Value, arrays), stride, padding)
    upstream = rng.normal(size=given.shape)

    def build(recorded):
        return lambda v: ad.conv2d(*v, stride=stride, padding=padding, recorded=recorded)

    want, want_grads = _outputs_and_grads(build(None), arrays, upstream)
    got, got_grads = _outputs_and_grads(build(given), arrays, upstream)
    assert got.tobytes() == want.tobytes()
    for a, b in zip(got_grads, want_grads):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ad.ShapeError, match="recorded"):
        ad.conv2d(*arrays, stride=stride, padding=padding, recorded=given[1:])


@pytest.mark.parametrize("form", ["computed", "recorded"])
def test_conv2d_gathers_its_patches_only_in_its_weight_adjoint(form):
    # a node of either form waiting for its backward holds its (N,F,oh,ow) output and no
    # (C*kh*kw, N*oh*ow) patch matrix; that its weight adjoint gathers the one the forward used is
    # test_conv2d_bitwise_equals_padded_reference and test_recorded_conv2d_is_the_computed_node_bit_for_bit
    rng = np.random.default_rng(45)
    x = ad.Value(rng.normal(size=(8, 3, 16, 16)))
    w, b = ad.Value(rng.normal(size=(4, 3, 3, 3)), requires_grad=True), ad.Value(np.zeros(4), requires_grad=True)
    given = ad.conv2d(x, w, b, stride=(2, 2), padding=(1, 1)).data  # also fills the gather_index cache
    patch_bytes = (3 * 3 * 3) * (8 * 8 * 8) * 8  # float64 (C*kh*kw, N*oh*ow), 110,592 bytes
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        node = ad.conv2d(x, w, b, stride=(2, 2), padding=(1, 1), recorded=given if form == "recorded" else None)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    own = given.nbytes if form == "computed" else 0  # the recorded form takes the given array
    assert held < own + patch_bytes // 4 and (form == "computed" or node.data is given), held


@pytest.mark.parametrize("starts", [[False, False, True, False, False], [True, False, False, True, False]])
def test_recorded_lstm_cell_is_the_computed_node_bit_for_bit(starts):
    # given the steps lstm_step took, which are the computed forward's own h rows, the recorded form
    # outputs the same rows and final state and hands sx and w_hh the same adjoints
    rng = np.random.default_rng(43)
    hd, t_len = 6, len(starts)
    sx, w_hh = rng.normal(size=(t_len, 4 * hd)), rng.normal(size=(4 * hd, hd)) * 0.4
    h0, c0 = rng.normal(size=(hd,)) * 0.5, rng.normal(size=(hd,)) * 0.5
    upstream = rng.normal(size=(t_len, hd))
    steps = lstm_steps(sx, w_hh, h0, c0, starts)
    finals = {}

    def build(recorded):
        def cell(v):
            rows, finals[recorded is None] = ad.lstm_cell(*v, h0, c0, starts=starts, recorded=recorded)
            return rows
        return cell

    want, want_grads = _outputs_and_grads(build(None), [sx, w_hh], upstream)
    got, got_grads = _outputs_and_grads(build(steps), [sx, w_hh], upstream)
    assert want.tobytes() == steps[1].tobytes() == got.tobytes()
    for a, b in zip(got_grads, want_grads):
        assert np.abs(b).max() > 0.0 and a.tobytes() == b.tobytes()
    for a, b in zip(finals[False], finals[True]):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(ad.ShapeError, match="recorded"):
        ad.lstm_cell(sx, w_hh, h0, c0, starts=starts, recorded=(steps[0], steps[1][1:], steps[2]))


def test_slice_accumulates_repeated_indices():
    x = ad.Value(np.arange(4.0), requires_grad=True)
    out = x[np.array([1, 1, 2])]
    ad.backward(out.sum())
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])


# -- Adam ------------------------------------------------------------------


def test_adam_zero_grad_is_noop():
    p = ad.Value(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    ad.Adam(lr=0.1).step([p])
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_is_unit_lr_step():
    # bias-corrected first step with constant grad 1 moves by ~ -lr
    p = ad.Value(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    ad.Adam(lr=0.1).step([p])
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)


def test_adam_two_steps_hand_evaluated():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    assert (ad.ADAM_BETAS, ad.ADAM_EPS) == ((b1, b2), eps)
    p = ad.Value(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = ad.Adam(lr=lr)
    opt.step([p])
    opt.step([p])

    # hand evaluation with grad held at 1
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(p.data, [theta], atol=1e-12)
    assert opt.state[p][2] == 2


def test_adam_grads_left_untouched():
    p = ad.Value(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.5])
    ad.Adam(lr=0.01).step([p])
    np.testing.assert_array_equal(p.grad, [2.5])


def test_adam_subset_step_advances_only_touched_params():
    a = ad.Value(np.array([0.0]), requires_grad=True)
    b = ad.Value(np.array([0.0]), requires_grad=True)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    opt = ad.Adam(lr=0.1)
    opt.step([a])
    assert opt.state[a][2] == 1
    assert b not in opt.state
    np.testing.assert_array_equal(b.data, [0.0])


def test_adam_equals_the_step_that_allocates_per_operation():
    # two groups at different step counts, as maie steps the extractors twice per update and the head
    # once; grads with -0.0 and 0.0 entries, each left as it was
    rng = np.random.default_rng(46)
    shapes = {"extractor": [(32, 1, 3, 3), (32,), (128, 32)], "head": [(64, 3), (3,)]}
    groups = {k: [rng.normal(size=s) for s in v] for k, v in shapes.items()}
    runs = []
    for step in (ad.Adam.step, adam_reference):
        opt = ad.Adam(lr=3e-3)
        params = {k: [ad.Value(a.copy(), requires_grad=True) for a in v] for k, v in groups.items()}
        grad_rng = np.random.default_rng(47)
        for _ in range(3):
            for name in ("extractor", "extractor", "head"):
                for p in params[name]:
                    p.grad = grad_rng.normal(size=p.data.shape)
                    p.grad.flat[::4] = -0.0
                    p.grad.flat[1::4] = 0.0
                before = [p.grad.copy() for p in params[name]]
                step(opt, params[name])
                assert all(p.grad.tobytes() == g.tobytes() for p, g in zip(params[name], before))
        runs.append([(p.data, *opt.state[p]) for name in ("extractor", "head") for p in params[name]])
    got, want = runs
    assert [t for *_, t in got] == [t for *_, t in want] == [6, 6, 6, 3, 3]
    for (data, m, v, _), (data_ref, m_ref, v_ref, _) in zip(got, want):
        assert data.tobytes() == data_ref.tobytes() and m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes()


def test_clip_grad_norm():
    a = ad.Value(np.array([3.0]), requires_grad=True)
    b = ad.Value(np.array([4.0]), requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([4.0])
    norm = ad.clip_grad_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
    assert total == pytest.approx(1.0, rel=1e-6)


def test_grad_shape_matches_data_shape():
    v = ad.Value(np.zeros((3, 4)), requires_grad=True)
    out = v.relu()
    ad.backward(out.sum())
    assert v.grad.shape == v.data.shape and out.grad.shape == out.data.shape
