"""Randomized grad-check case generators, one per op kind that training records.

Each generator returns (f, inputs) where f maps a list of Values to a
scalar Value. Inputs are sampled away from kinks (dense's ReLU at 0) and
domain edges (sqrt/log near 0) so central differences are valid. conv2d's
ReLU is left to the draw: no fixed-seed case has a pre-activation within
3e-4 of 0, far outside the finite-difference step, and the squared output
the case sums has a continuous derivative there.
Shared by the unit tests and the acceptance suite.
"""

import numpy as np

from maie import autodiff as ad

from grad_check import grad_check


def _away_from_zero(rng, shape, low=0.1):
    x = rng.uniform(low, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


def _wrap(op):
    """Reduce an op output to a scalar with a curvature so grads are nontrivial."""

    def f(inputs, **kw):
        return op(inputs, **kw).square().sum()

    return f


def case_add(rng):
    if rng.random() < 0.5:
        s = (3, 2)
        return _wrap(lambda v: v[0] + v[1]), [rng.normal(size=s), rng.normal(size=s)]
    # row-broadcast bias, as used by batched affine layers
    return _wrap(lambda v: v[0] + v[1]), [rng.normal(size=(3, 2)), rng.normal(size=(2,))]


def case_sub(rng):
    s = (4,)
    return _wrap(lambda v: v[0] - v[1]), [rng.normal(size=s), rng.normal(size=s)]


def case_mul(rng):
    s = (3, 2)
    return _wrap(lambda v: v[0] * v[1]), [rng.normal(size=s), rng.normal(size=s)]


def case_div(rng):
    s = (4,)
    return _wrap(lambda v: v[0] / v[1]), [rng.normal(size=s), _away_from_zero(rng, s, low=0.5)]


def case_neg(rng):
    return _wrap(lambda v: -v[0]), [rng.normal(size=(5,))]


def case_dense(rng):
    # with the ReLU or without; with it, the draw is repeated until every pre-activation lies 0.1 or more
    # from the kink at 0
    relu = bool(rng.integers(0, 2))
    m, k, n = (int(d) for d in rng.integers(1, 4, size=3))
    while True:
        x, w, b = rng.normal(size=(m, k)), rng.normal(size=(k, n)), rng.normal(size=(n,))
        if not relu or np.abs(x @ w + b).min() >= 0.1:
            return _wrap(lambda v: ad.dense(v[0], v[1], v[2], relu=relu)), [x, w, b]


def conv2d_output(x, w, b, stride, padding) -> np.ndarray:
    """The output the computed ``conv2d`` forward gives these operands' arrays: what a recorded form takes."""
    return ad.conv2d(*(ad.Value(v.data) for v in (x, w, b)), stride=stride, padding=padding).data


def lstm_steps(sx, w_hh, h, c, starts) -> tuple:
    """``(gates, h_out, c_out)`` of ``lstm_step`` run step by step over the drive rows, as acting runs it."""
    zeros = np.zeros_like(h)
    rows = []
    for drive, reset in zip(sx, starts):
        if reset:
            h, c = zeros, zeros
        h, c, gates = ad.lstm_step(drive, w_hh, h, c)
        rows.append((gates, h, c))
    return tuple(np.array(col) for col in zip(*rows))


def case_conv2d(rng):
    # a 3x3 kernel with one stride and padding for both axes, as the visual
    # and audio stacks take; the TextCNN's (1,2) kernel with (0,1) padding on
    # a one-row input; or kernel, stride and padding drawn per axis; and
    # either form, computed or recorded, the latter given the output, ReLU
    # included, the computed form gives the (perturbed) operands
    recorded = bool(rng.integers(0, 2))
    form = rng.integers(0, 3)
    if form == 0:
        s, p = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        kernel, stride, padding, hw = (3, 3), (s, s), (p, p), (5, 5)
    elif form == 1:
        kernel, stride, padding, hw = (1, 2), (1, 1), (0, 1), (1, 5)
    else:
        kernel = tuple(int(k) for k in rng.integers(1, 4, size=2))
        stride = tuple(int(s) for s in rng.integers(1, 3, size=2))
        padding = tuple(int(p) for p in rng.integers(0, 2, size=2))
        hw = (5, 4)
    xs = (int(rng.integers(1, 3)), 2, *hw)

    def f(v):
        out = conv2d_output(*v, stride, padding) if recorded else None
        return ad.conv2d(v[0], v[1], v[2], stride=stride, padding=padding, recorded=out).square().sum()

    return f, [rng.normal(size=xs), rng.normal(size=(3, 2, *kernel)) * 0.5, rng.normal(size=(3,))]


def case_concat(rng):
    axis = int(rng.integers(0, 2))

    def f(v):
        return ad.concat([v[0], v[1], v[2]], axis=axis).square().sum()

    sizes = [(2, 3), (2, 3), (2, 3)]
    return f, [rng.normal(size=s) for s in sizes]


def case_slice(rng):
    if rng.random() < 0.5:
        key = (slice(1, 3), slice(0, 2))
    else:
        key = (slice(None), np.array([0, 2, 0]))  # repeated index must accumulate
    return _wrap(lambda v: v[0][key]), [rng.normal(size=(4, 3))]


def case_reshape(rng):
    return _wrap(lambda v: v[0].reshape((6,))), [rng.normal(size=(2, 3))]


def case_transpose(rng):
    return _wrap(lambda v: ad.transpose(v[0], (1, 2, 0))), [rng.normal(size=(2, 3, 2))]


def case_softmax_axis(rng):
    axis = int(rng.integers(0, 2))

    def f(v):
        return (ad.softmax(v[0], axis=axis) * v[1]).sum()

    return f, [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))]


def case_sum(rng):
    if rng.random() < 0.5:
        return (lambda v: v[0].sum().square()), [rng.normal(size=(3, 2))]
    return _wrap(lambda v: v[0].sum(axis=1)), [rng.normal(size=(3, 2))]


def case_mean(rng):
    return (lambda v: v[0].mean().square()), [rng.normal(size=(4, 2))]


def case_square(rng):
    return (lambda v: v[0].square().sum()), [rng.normal(size=(5,))]


def case_sqrt(rng):
    return _wrap(lambda v: v[0].sqrt()), [rng.uniform(0.2, 2.0, size=(5,))]


def case_log(rng):
    return _wrap(lambda v: v[0].log()), [rng.uniform(0.2, 3.0, size=(5,))]


def case_lstm_cell(rng):
    # the state is a constant to the op and the loss reads the h rows, as in replay; the
    # recorded form is given the steps lstm_step takes over the (perturbed) operands
    recorded = bool(rng.integers(0, 2))
    hd = 4
    if rng.random() < 0.5:
        sx_shape, starts = (1, 4 * hd), np.zeros(1, dtype=bool)
    else:
        # a sequence with a reset mid-way: the steps before it still feed h and c
        t_len = int(rng.integers(3, 6))
        starts = np.zeros(t_len, dtype=bool)
        starts[rng.integers(1, t_len)] = True
        sx_shape = (t_len, 4 * hd)
    h, c = rng.normal(size=(hd,)) * 0.5, rng.normal(size=(hd,)) * 0.5

    def f(v):
        steps = lstm_steps(v[0].data, v[1].data, h, c, starts) if recorded else None
        return ad.lstm_cell(v[0], v[1], h, c, starts=starts, recorded=steps)[0].square().sum()

    return f, [rng.normal(size=sx_shape), rng.normal(size=(4 * hd, hd)) * 0.5]


CASES = {
    "add": case_add,
    "sub": case_sub,
    "mul": case_mul,
    "div": case_div,
    "neg": case_neg,
    "dense": case_dense,
    "conv2d": case_conv2d,
    "concat": case_concat,
    "slice": case_slice,
    "reshape": case_reshape,
    "transpose": case_transpose,
    "softmax_axis": case_softmax_axis,
    "sum": case_sum,
    "mean": case_mean,
    "square": case_square,
    "sqrt": case_sqrt,
    "log": case_log,
    "lstm_cell": case_lstm_cell,
}


def check_op(kind: str, n_cases: int, seed: int = 0, rel_tol: float = 1e-4, step: float = 1e-5) -> float:
    """Run n random grad checks for one op kind; returns worst relative error."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        f, inputs = CASES[kind](rng)
        report = grad_check(f, inputs, step=step, rel_tol=rel_tol)
        worst = max(worst, report.max_rel_err)
        assert report.ok, f"{kind}: max rel err {report.max_rel_err:.3e} >= {rel_tol}"
    return worst
