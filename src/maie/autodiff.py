"""Reverse-mode automatic differentiation on float64 numpy arrays.

Dynamic define-by-run graphs: an op records a backward closure on its
output node exactly when one of its inputs requires a gradient, so ops on
constants build no graph and there is no global recording switch.
``backward(loss)`` walks the graph once in reverse topological order;
walking the same nodes a second time raises (prevents silent double
accumulation). Gradients on leaves accumulate additively until the caller
zeroes them.

The elementwise ops (add, sub, mul, div, neg, relu, square, sqrt, log) are
one table, a ``_elementwise(kind, forward, *adjoints)`` line each, and
``Value``'s operators and methods are bound straight to the op functions.

No mutable global state is shared between runs: the graph lives entirely
in the Value objects, and the one module-level cache, ``gather_index``,
holds read-only index arrays, so independent training runs may execute in
parallel threads or processes. Every maie process runs numpy's OpenBLAS on
one thread (``one_blas_thread``, called on import): on matrices this small a
second thread nearly doubled a training step's CPU time and saved at most a
few percent of its wall time.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

__all__ = [
    "Value",
    "Graph",
    "GraphError",
    "ShapeError",
    "backward",
    "matmul",
    "conv2d",
    "conv_gemm",
    "conv_out_hw",
    "gather_index",
    "concat",
    "softmax",
    "softmax_array",
    "lstm_cell",
    "lstm_step",
    "transpose",
    "Adam",
    "clip_grad_norm",
    "zero_grads",
]


@functools.cache
def _openblas_threads() -> tuple:
    """``(set, get)``, the thread-count functions of the OpenBLAS numpy loaded, or ``()`` without one."""
    try:
        with open("/proc/self/maps") as fh:  # lists the shared libraries of this process (Linux)
            libs = [ctypes.CDLL(p) for p in sorted({ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln})]
    except OSError:
        return ()
    for lib in libs:
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(lib, name % "set"):
                put, get = getattr(lib, name % "set"), getattr(lib, name % "get")
                put.argtypes, put.restype, get.argtypes, get.restype = [ctypes.c_int], None, [], ctypes.c_int
                return put, get
    return ()


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs on, or None where numpy has no OpenBLAS."""
    return _openblas_threads()[1]() if _openblas_threads() else None


def one_blas_thread() -> int | None:
    """Set numpy's OpenBLAS to one thread and return ``blas_threads()``; calling it again changes nothing."""
    if fns := _openblas_threads():
        fns[0](1)
    return blas_threads()


one_blas_thread()  # on import: numpy may be imported before maie, so its environment variables come too late


class ShapeError(ValueError):
    """Input shapes do not conform to the op's shape rule."""


class GraphError(RuntimeError):
    """Graph misuse: double backward, non-scalar loss, missing graph."""


class Value:
    """A float64 array plus the bookkeeping for reverse-mode gradients.

    ``grad`` is allocated (zeros, same shape as ``data``) whenever
    ``requires_grad`` is true and accumulates across backward passes. The
    operators and ``sum``, ``relu``, ``reshape``, ... are the op functions,
    bound after the ops.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._spent = False

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Value(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _lift(x) -> Value:
    """Wrap scalars/arrays as constant Values; pass Values through."""
    if isinstance(x, Value):
        return x
    return Value(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents, backward_fn, op: str) -> Value:
    """Build the output Value, recording the op exactly when one of its parents requires a gradient."""
    record = False
    for p in parents:
        if p.requires_grad:
            record = True
            break
    out = Value.__new__(Value)
    out.data = data
    out._op = op
    out._spent = False
    if record:
        out.requires_grad = True
        out.grad = np.zeros_like(data)
        out._parents = parents
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
    return out


def _accum(p: Value, g: np.ndarray):
    """Add an adjoint contribution to a parent, reducing broadcast axes."""
    shape = p.data.shape
    if g.shape != shape:
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        for i, s in enumerate(shape):
            if s == 1 and g.shape[i] != 1:
                g = g.sum(axis=i, keepdims=True)
        g = g.reshape(shape)
    p.grad += g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _elementwise(kind: str, forward, *adjoints):
    """The op ``kind``: ``forward(*arrays)`` of its operands, and ``adjoint(g, out, *arrays)`` per operand.

    Two operands of different shapes must broadcast (else ShapeError naming
    ``kind``); checking only then keeps the common same-shape call cheap.
    The backward adds each operand's adjoint through ``_accum`` only when
    that operand requires a gradient, so a constant's adjoint (a mask, a
    fixed weight) is never computed.
    """

    def op(*operands) -> Value:
        vals = tuple(map(_lift, operands))
        arrays = [v.data for v in vals]
        if len(arrays) == 2 and arrays[0].shape != arrays[1].shape:
            try:
                np.broadcast_shapes(arrays[0].shape, arrays[1].shape)
            except ValueError:
                raise ShapeError(f"{kind}: shapes {arrays[0].shape} and {arrays[1].shape} do not broadcast") from None
        out = forward(*arrays)

        def back(g):
            for v, adjoint in zip(vals, adjoints):
                if v.requires_grad:
                    _accum(v, adjoint(g, out, *arrays))

        return _node(out, vals, back, kind)

    op.__name__ = op.__qualname__ = kind
    return op


add = _elementwise("add", np.add, lambda g, out, a, b: g, lambda g, out, a, b: g)
sub = _elementwise("sub", np.subtract, lambda g, out, a, b: g, lambda g, out, a, b: -g)
mul = _elementwise("mul", np.multiply, lambda g, out, a, b: g * b, lambda g, out, a, b: g * a)
div = _elementwise("div", np.divide, lambda g, out, a, b: g / b, lambda g, out, a, b: -g * a / (b * b))
neg = _elementwise("neg", np.negative, lambda g, out, a: -g)
relu = _elementwise("relu", lambda x: np.maximum(x, 0.0), lambda g, out, x: g * (x > 0.0))
square = _elementwise("square", lambda x: x * x, lambda g, out, x: g * 2.0 * x)
sqrt = _elementwise("sqrt", np.sqrt, lambda g, out, x: g * 0.5 / out)
log = _elementwise("log", np.log, lambda g, out, x: g / x)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b) -> Value:
    """Matrix product of two 2-D operands: (m,k) @ (k,n)."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: only 2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    out_data = ad @ bd

    def back(g):
        if a.requires_grad:
            a.grad += g @ bd.T
        if b.requires_grad:
            b.grad += ad.T @ g

    return _node(out_data, (a, b), back, "matmul")


def conv_out_hw(h: int, w: int, kernel: tuple, stride: tuple, padding: tuple) -> tuple:
    """Output (height, width) of a convolution: floor((n + 2p - k)/s) + 1 per dim."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    return (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1


@functools.lru_cache(maxsize=64)
def gather_index(x_shape: tuple, kernel: tuple, stride: tuple, padding: tuple) -> np.ndarray:
    """Read-only (C*kh*kw, N*oh*ow) positions in ``x.ravel()`` of each patch entry of an (N,C,H,W) input.

    Rows run over (channel, tap row, tap column), columns over (sample,
    output row, output column). A tap that falls in the zero padding points
    at index N*C*H*W, one past the input: the forward reads a 0.0 there and
    the backward drops what lands there. Cached per geometry.
    """
    (n, c, h, w), (kh, kw), (sh, sw), (ph, pw) = x_shape, kernel, stride, padding
    oh, ow = conv_out_hw(h, w, kernel, stride, padding)
    rows = (np.arange(kh)[:, None] + sh * np.arange(oh) - ph)[None, :, None, None, :, None]
    cols = (np.arange(kw)[:, None] + sw * np.arange(ow) - pw)[None, None, :, None, None, :]
    planes = (np.arange(n) * c + np.arange(c)[:, None])[:, None, None, :, None, None]  # (c, 1, 1, n, 1, 1)
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, (planes * h + rows) * w + cols, n * c * h * w)
    idx = np.ascontiguousarray(idx.reshape(c * kh * kw, n * oh * ow), dtype=np.intp)
    idx.flags.writeable = False
    return idx


def conv_gemm(x: np.ndarray, w2d: np.ndarray, b: np.ndarray, index: np.ndarray) -> tuple:
    """The im2col arithmetic of every convolution: gather, ``w2d @ cols``, then the bias added in place.

    ``x`` is any C-ordered array whose ``ravel()`` the ``gather_index``
    ``index`` addresses, ``w2d`` the (F, C*kh*kw) filters and ``b`` the (F,)
    biases. Returns the (F, N*oh*ow) output, columns over (sample, output
    row, output column), and the (C*kh*kw, N*oh*ow) patch matrix. At batch
    one that output, read C-ordered, is the next layer's (1,F,oh,ow) input.
    """
    cols = np.concatenate((x.ravel(), (0.0,)))[index]
    out = w2d @ cols
    out += b[:, None]
    return out, cols


def conv2d(x, w, b, *, stride: tuple, padding: tuple) -> Value:
    """2-D convolution of a (N,C,H,W) batch with (F,C,kh,kw) filters and (F,) biases.

    Output spatial size per dim: ``conv_out_hw``. Implemented as im2col +
    matmul (Chellapilla et al. 2006) in ``conv_gemm``: the patch matrix is
    one gather through the cached ``gather_index`` of this geometry, looked
    up once per call, and the backward sums the patch gradients back into
    the input with one ``np.bincount`` over the same index, tap by tap in
    the order of its rows.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need (N,C,H,W) input and (F,C,kh,kw) weights, got {x.data.shape}, {w.data.shape}")
    n, c, h, width = x.data.shape
    f, cw, kh, kw = w.data.shape
    if c != cw:
        raise ShapeError(f"conv2d: input channels {c} != weight channels {cw}")
    if b.data.shape != (f,):
        raise ShapeError(f"conv2d: bias shape {b.data.shape} != ({f},)")
    ph, pw = padding
    if kh > h + 2 * ph or kw > width + 2 * pw:  # an output size below 1
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) too large for padded input ({h + 2 * ph},{width + 2 * pw})")
    idx = gather_index(x.data.shape, (kh, kw), stride, padding)
    out_flat, cols = conv_gemm(x.data, w.data.reshape(f, -1), b.data, idx)
    oh, ow = conv_out_hw(h, width, (kh, kw), stride, padding)
    out_data = np.ascontiguousarray(out_flat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3))

    def back(g):
        g_flat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        if w.requires_grad:
            w.grad += (g_flat @ cols.T).reshape(w.data.shape)
        if b.requires_grad:
            b.grad += g_flat.sum(axis=1)
        if x.requires_grad:
            gcols = w.data.reshape(f, -1).T @ g_flat
            gx = np.bincount(idx.ravel(), weights=gcols.ravel(), minlength=x.data.size + 1)
            x.grad += gx[:-1].reshape(n, c, h, width)

    return _node(out_data, (x, w, b), back, "conv2d")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def concat(values, axis: int = 0) -> Value:
    vals = [_lift(v) for v in values]
    if not vals:
        raise ShapeError("concat: empty input list")
    try:
        out_data = np.concatenate([v.data for v in vals], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {e}") from None
    sizes = [v.data.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for v, lo, hi in zip(vals, offsets[:-1], offsets[1:]):
            if v.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                v.grad += g[tuple(idx)]

    return _node(out_data, tuple(vals), back, "concat")


def _is_advanced(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (list, np.ndarray)) for p in parts)


def narrow(x, key) -> Value:
    """Slice / index selection; the adjoint scatters back into the source."""
    x = _lift(x)
    out_data = np.asarray(x.data[key], dtype=np.float64).copy()
    advanced = _is_advanced(key)

    def back(g):
        if advanced:
            np.add.at(x.grad, key, g)  # repeated indices must accumulate
        else:
            x.grad[key] += g

    return _node(out_data, (x,), back, "slice")


def reshape(x, shape) -> Value:
    x = _lift(x)
    out_data = x.data.reshape(shape).copy()

    def back(g):
        x.grad += g.reshape(x.data.shape)

    return _node(out_data, (x,), back, "reshape")


def transpose(x, axes) -> Value:
    x = _lift(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.ascontiguousarray(np.transpose(x.data, axes))

    def back(g):
        x.grad += np.transpose(g, inverse)

    return _node(out_data, (x,), back, "transpose")


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of a plain float array along ``axis``, shifted by the max for stability, in one buffer."""
    e = x - x.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(x, axis: int = -1) -> Value:
    x = _lift(x)
    s = softmax_array(x.data, axis)

    def back(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        x.grad += s * (g - dot)

    return _node(s, (x,), back, "softmax_axis")


def reduce_sum(x, axis=None) -> Value:
    x = _lift(x)
    out_data = np.sum(x.data, axis=axis)

    def back(g):
        if axis is None:
            x.grad += g
        else:
            x.grad += np.expand_dims(g, axis)

    return _node(out_data, (x,), back, "sum")


def reduce_mean(x) -> Value:
    x = _lift(x)
    n = x.data.size
    out_data = np.mean(x.data)

    def back(g):
        x.grad += g / n

    return _node(out_data, (x,), back, "mean")


def lstm_step(sx: np.ndarray, w_hh: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One LSTM step on plain arrays: the gate math of every ``lstm_cell`` step.

    ``sx`` is the input drive W_ih @ x + b of length 4H with gate layout
    [input, forget, cell, output]; ``w_hh`` is (4H, H). Returns (h', c',
    gates), where gates holds the activations [i, f, g, o] of length 4H.
    """
    hd = h.shape[0]
    z = sx + w_hh @ h
    gates = 1.0 / (1.0 + np.exp(-z))
    gates[2 * hd : 3 * hd] = np.tanh(z[2 * hd : 3 * hd])
    c_new = gates[hd : 2 * hd] * c + gates[:hd] * gates[2 * hd : 3 * hd]
    return gates[3 * hd :] * np.tanh(c_new), c_new, gates


def lstm_cell(sx, w_hh, h: np.ndarray, c: np.ndarray, starts) -> tuple:
    """An LSTM unrolled over a sequence of input drives, fused into a single node.

    ``sx`` holds the precomputed drives W_ih @ x_t + b: a (T, 4H) matrix
    with one row per step. ``w_hh`` is (4H, H); ``h`` and ``c`` are the
    plain (H,) state arrays before the first step, constants to the
    backward pass. ``starts[t]`` true resets the state to zero before step
    t (an episode start), so no gradient crosses it. Returns the node of
    the (T, H) hidden rows h_t and the plain ``(h, c)`` after the last
    step.

    The backward runs backprop through time in one loop over the steps; the
    ``w_hh`` gradient is a single (4H, T) @ (T, H) product.
    """
    sx, w_hh = _lift(sx), _lift(w_hh)
    hd = h.shape[0] if h.ndim == 1 else -1
    drives = sx.data
    if drives.ndim != 2 or drives.shape[1] != 4 * hd or w_hh.data.shape != (4 * hd, hd) or c.shape != (hd,):
        raise ShapeError(
            f"lstm_cell: want sx (T, 4H), w_hh (4H,H), h (H,), c (H,); got {sx.data.shape}, {w_hh.data.shape}, {h.shape}, {c.shape}"
        )
    n = drives.shape[0]
    resets = np.asarray(starts, dtype=bool)
    if resets.shape != (n,):
        raise ShapeError(f"lstm_cell: starts shape {resets.shape} != ({n},)")

    zeros = np.zeros(hd)
    h_in, c_in, h_out, c_out = np.empty((4, n, hd))  # the state entering each step, after any reset, and leaving it
    gates = np.empty((n, 4 * hd))
    for t in range(n):
        if resets[t]:
            h, c = zeros, zeros
        h_in[t], c_in[t] = h, c
        h, c, gates[t] = lstm_step(drives[t], w_hh.data, h, c)
        h_out[t], c_out[t] = h, c

    def back(g):
        gi, gf, gg, go = (gates[:, k * hd : (k + 1) * hd] for k in range(4))
        tc = np.tanh(c_out)
        # per-step factors of the input, forget and cell gate pre-activation
        # gradients (times dc), and of the output gate one (times dh)
        f_ifg = np.stack([gg * gi * (1.0 - gi), c_in * gf * (1.0 - gf), gi * (1.0 - gg * gg)], axis=1)
        f_o = tc * go * (1.0 - go)
        f_c = go * (1.0 - tc * tc)
        dz = np.empty((n, 4, hd))
        dh, dc_next = zeros, zeros  # adjoints flowing from step t+1 into the state after step t
        w_t = w_hh.data.T
        for t in range(n - 1, -1, -1):
            gh = g[t] + dh
            dc = dc_next + gh * f_c[t]
            dz[t, :3] = dc * f_ifg[t]
            dz[t, 3] = gh * f_o[t]
            if resets[t]:
                dh, dc_next = zeros, zeros
            else:
                dh, dc_next = w_t @ dz[t].reshape(-1), dc * gf[t]
        dz = dz.reshape(n, 4 * hd)
        if sx.requires_grad:
            sx.grad += dz
        if w_hh.requires_grad:
            w_hh.grad += dz.T @ h_in

    return _node(h_out, (sx, w_hh), back, "lstm_cell"), (h, c)


Value.__add__ = Value.__radd__ = add
Value.__sub__ = sub
Value.__rsub__ = lambda self, other: sub(other, self)
Value.__mul__ = Value.__rmul__ = mul
Value.__truediv__ = div
Value.__rtruediv__ = lambda self, other: div(other, self)
Value.__neg__ = neg
Value.__getitem__ = narrow
Value.sum = reduce_sum
Value.mean = reduce_mean
Value.relu = relu
Value.square = square
Value.sqrt = sqrt
Value.log = log
Value.reshape = reshape


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


class Graph:
    """Topologically ordered record of the ops reachable from one node.

    Running ``run_backward`` over nodes that have already propagated
    their adjoints raises GraphError instead of silently accumulating
    twice.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Value) -> "Graph":
        order: list = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        return cls(order)

    def run_backward(self, root: Value):
        for node in self.nodes:
            if node._backward is not None and node._spent:
                raise GraphError(
                    f"double backward through op {node._op!r}; rebuild the forward pass before backpropagating again"
                )
        root.grad += np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node._backward is not None:
                node._backward(node.grad)
                node._spent = True


def backward(loss: Value):
    """Accumulate d(loss)/d(v) into v.grad for every reachable Value."""
    if loss.data.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not require grad; nothing was recorded")
    Graph.trace(loss).run_backward(loss)


# ---------------------------------------------------------------------------
# optimization helpers
# ---------------------------------------------------------------------------


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980); ``state`` maps each parameter stepped so far to its [m, v, t]."""

    def __init__(self, lr: float):
        self.lr = lr
        self.state: dict = {}

    def step(self, params):
        """One Adam update of ``params`` in place; grads are left untouched for the caller to zero."""
        b1, b2 = ADAM_BETAS
        for p in params:
            if p.grad is None:
                raise ValueError("Adam.step: parameter has no grad buffer")
            st = self.state.get(p)
            if st is None:
                st = [np.zeros_like(p.data), np.zeros_like(p.data), 0]
                self.state[p] = st
            m, v, t = st
            t += 1
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * (p.grad * p.grad)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            st[2] = t


def zero_grads(params):
    for p in params:
        p.zero_grad()


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale grads in place so their global L2 norm is at most ``max_norm`` (> 0); returns the norm before."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm
