"""Reverse-mode automatic differentiation on float64 numpy arrays.

Dynamic define-by-run graphs: every op whose inputs require gradients
records a backward closure on its output node. ``backward(loss)`` walks
the graph once in reverse topological order; walking the same nodes a
second time raises (prevents silent double accumulation). Gradients on
leaves accumulate additively until the caller zeroes them.

No global mutable state is shared between runs: the graph lives entirely
in the Value objects, so independent training runs may execute in
parallel threads or processes.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Value",
    "Graph",
    "GraphError",
    "ShapeError",
    "backward",
    "forward_op",
    "registered_ops",
    "no_grad",
    "matmul",
    "conv2d",
    "concat",
    "softmax",
    "stop_gradient",
    "lstm_cell",
    "lstm_step",
    "transpose",
    "grad_check",
    "GradCheckReport",
    "Adam",
    "adam_step",
    "clip_grad_norm",
    "zero_grads",
]


class ShapeError(ValueError):
    """Input shapes do not conform to the op's shape rule."""


class GraphError(RuntimeError):
    """Graph misuse: double backward, non-scalar loss, missing graph."""


_grad_enabled = contextvars.ContextVar("maie_grad_enabled", default=True)


class no_grad:
    """Context manager that disables graph recording (forward only)."""

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


class Value:
    """A float64 array plus the bookkeeping for reverse-mode gradients.

    ``grad`` is allocated (zeros, same shape as ``data``) whenever
    ``requires_grad`` is true and accumulates across backward passes.
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

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Value":
        """Copy of the data as a fresh constant leaf (blocks gradient flow)."""
        return Value(self.data.copy())

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Value(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- operator sugar; the named functions below do the actual work --

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return narrow(self, key)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self):
        return reduce_mean(self)

    def abs(self):
        return absolute(self)

    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def square(self):
        return square(self)

    def sqrt(self):
        return sqrt(self)

    def log(self):
        return log(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _lift(x) -> Value:
    """Wrap scalars/arrays as constant Values; pass Values through."""
    if isinstance(x, Value):
        return x
    return Value(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents, backward_fn, op: str) -> Value:
    """Build the output Value, recording the op only when a gradient can flow."""
    record = False
    if _grad_enabled.get():
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
    if not p.requires_grad:
        return
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
# op registry
# ---------------------------------------------------------------------------

_OPS: dict = {}


def _register(kind: str):
    def deco(fn):
        _OPS[kind] = fn
        return fn

    return deco


def registered_ops() -> tuple:
    """Names of all registered op kinds."""
    return tuple(sorted(_OPS))


def forward_op(kind: str, inputs, **attrs) -> Value:
    """Apply a registered op by name. Unknown kinds are an error."""
    try:
        fn = _OPS[kind]
    except KeyError:
        raise ValueError(f"unknown op kind {kind!r}; known: {', '.join(registered_ops())}") from None
    return fn(*inputs, **attrs)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _check_elementwise(op: str, a: Value, b: Value):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None


@_register("add")
def add(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    _check_elementwise("add", a, b)
    out_data = a.data + b.data

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _node(out_data, (a, b), back, "add")


@_register("sub")
def sub(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    _check_elementwise("sub", a, b)
    out_data = a.data - b.data

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _node(out_data, (a, b), back, "sub")


@_register("mul")
def mul(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    _check_elementwise("mul", a, b)
    out_data = a.data * b.data

    def back(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(out_data, (a, b), back, "mul")


@_register("div")
def div(a, b) -> Value:
    a, b = _lift(a), _lift(b)
    _check_elementwise("div", a, b)
    out_data = a.data / b.data

    def back(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))

    return _node(out_data, (a, b), back, "div")


@_register("neg")
def neg(a) -> Value:
    a = _lift(a)

    def back(g):
        _accum(a, -g)

    return _node(-a.data, (a,), back, "neg")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


@_register("matmul")
def matmul(a, b) -> Value:
    """Matrix product for 1-D/2-D operands: (m,k)@(k,n), (m,k)@(k,), (k,)@(k,n)."""
    a, b = _lift(a), _lift(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != (bd.shape[0] if bd.ndim >= 1 else None):
        raise ShapeError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")
    out_data = ad @ bd

    def back(g):
        if a.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                _accum(a, g @ bd.T)
            elif ad.ndim == 2 and bd.ndim == 1:
                _accum(a, np.outer(g, bd))
            else:  # (k,) @ (k,n)
                _accum(a, bd @ g)
        if b.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                _accum(b, ad.T @ g)
            elif ad.ndim == 2 and bd.ndim == 1:
                _accum(b, ad.T @ g)
            else:
                _accum(b, np.outer(ad, g))

    return _node(out_data, (a, b), back, "matmul")


def _pair(v, name):
    if isinstance(v, int):
        return (v, v)
    t = tuple(v)
    if len(t) != 2:
        raise ValueError(f"conv2d: {name} must be an int or a pair")
    return t


def _pad_nchw(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    out[:, :, ph : ph + h, pw : pw + w] = x
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int) -> np.ndarray:
    """(N,C,Hp,Wp) -> (C*kh*kw, N*oh*ow) patch matrix."""
    n, c = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, n, oh, ow), (s1, s2, s3, s0, s2 * sh, s3 * sw), writeable=False
    )
    return win.reshape(c * kh * kw, n * oh * ow)


@_register("conv2d")
def conv2d(x, w, b=None, *, stride=1, padding=0) -> Value:
    """2-D convolution of a (C,H,W) image, or a (N,C,H,W) batch, with (F,C,kh,kw) filters.

    Output spatial size per dim: floor((n + 2p - k)/s) + 1. Implemented as
    im2col + matmul; the backward scatters through the same layout.
    """
    x, w = _lift(x), _lift(w)
    if x.data.ndim not in (3, 4) or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need (C,H,W) or (N,C,H,W) input and (F,C,kh,kw) weights, got {x.data.shape}, {w.data.shape}")
    batched = x.data.ndim == 4
    xb = x.data if batched else x.data[None]
    n, c, h, width = xb.shape
    f, cw, kh, kw = w.data.shape
    if c != cw:
        raise ShapeError(f"conv2d: input channels {c} != weight channels {cw}")
    sh, sw = _pair(stride, "stride")
    ph, pw = _pair(padding, "padding")
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (width + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d: kernel ({kh},{kw}) too large for padded input ({h + 2 * ph},{width + 2 * pw})")

    xp = _pad_nchw(xb, ph, pw)
    cols = _im2col(xp, kh, kw, sh, sw, oh, ow)
    w_flat = w.data.reshape(f, -1)
    out_flat = w_flat @ cols
    bias = _lift(b) if b is not None else None
    if bias is not None:
        if bias.data.shape != (f,):
            raise ShapeError(f"conv2d: bias shape {bias.data.shape} != ({f},)")
        out_flat = out_flat + bias.data[:, None]
    out_data = out_flat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    if not batched:
        out_data = out_data[0]
    out_data = np.ascontiguousarray(out_data)

    def back(g):
        gb = g if batched else g[None]
        g_flat = gb.transpose(1, 0, 2, 3).reshape(f, -1)
        if w.requires_grad:
            w.grad += (g_flat @ cols.T).reshape(w.data.shape)
        if bias is not None and bias.requires_grad:
            bias.grad += g_flat.sum(axis=1)
        if x.requires_grad:
            gcols = (w_flat.T @ g_flat).reshape(c, kh, kw, n, oh, ow)
            gxp = np.zeros((n, c, h + 2 * ph, width + 2 * pw))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
            gx = gxp[:, :, ph : ph + h, pw : pw + width]
            x.grad += gx if batched else gx[0]

    parents = (x, w) if bias is None else (x, w, bias)
    return _node(out_data, parents, back, "conv2d")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


@_register("concat")
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


@_register("slice")
def narrow(x, key) -> Value:
    """Slice / index selection; the adjoint scatters back into the source."""
    x = _lift(x)
    out_data = np.asarray(x.data[key], dtype=np.float64).copy()
    advanced = _is_advanced(key)

    def back(g):
        if x.requires_grad:
            if advanced:
                np.add.at(x.grad, key, g)  # repeated indices must accumulate
            else:
                x.grad[key] += g

    return _node(out_data, (x,), back, "slice")


@_register("reshape")
def reshape(x, shape) -> Value:
    x = _lift(x)
    out_data = x.data.reshape(shape).copy()

    def back(g):
        if x.requires_grad:
            x.grad += g.reshape(x.data.shape)

    return _node(out_data, (x,), back, "reshape")


@_register("transpose")
def transpose(x, axes) -> Value:
    x = _lift(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.ascontiguousarray(np.transpose(x.data, axes))

    def back(g):
        if x.requires_grad:
            x.grad += np.transpose(g, inverse)

    return _node(out_data, (x,), back, "transpose")


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------


@_register("softmax_axis")
def softmax(x, axis: int = -1) -> Value:
    x = _lift(x)
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)

    def back(g):
        if x.requires_grad:
            dot = np.sum(g * s, axis=axis, keepdims=True)
            x.grad += s * (g - dot)

    return _node(s, (x,), back, "softmax_axis")


@_register("abs")
def absolute(x) -> Value:
    x = _lift(x)

    def back(g):
        if x.requires_grad:
            x.grad += g * np.sign(x.data)

    return _node(np.abs(x.data), (x,), back, "abs")


@_register("relu")
def relu(x) -> Value:
    x = _lift(x)
    out_data = np.maximum(x.data, 0.0)

    def back(g):
        if x.requires_grad:
            x.grad += g * (x.data > 0.0)

    return _node(out_data, (x,), back, "relu")


@_register("tanh")
def tanh(x) -> Value:
    x = _lift(x)
    t = np.tanh(x.data)

    def back(g):
        if x.requires_grad:
            x.grad += g * (1.0 - t * t)

    return _node(t, (x,), back, "tanh")


@_register("sigmoid")
def sigmoid(x) -> Value:
    x = _lift(x)
    s = 1.0 / (1.0 + np.exp(-x.data))

    def back(g):
        if x.requires_grad:
            x.grad += g * s * (1.0 - s)

    return _node(s, (x,), back, "sigmoid")


@_register("sum")
def reduce_sum(x, axis=None) -> Value:
    x = _lift(x)
    out_data = np.sum(x.data, axis=axis)

    def back(g):
        if x.requires_grad:
            if axis is None:
                x.grad += g
            else:
                x.grad += np.expand_dims(g, axis)

    return _node(out_data, (x,), back, "sum")


@_register("mean")
def reduce_mean(x) -> Value:
    x = _lift(x)
    n = x.data.size
    out_data = np.mean(x.data)

    def back(g):
        if x.requires_grad:
            x.grad += g / n

    return _node(out_data, (x,), back, "mean")


@_register("square")
def square(x) -> Value:
    x = _lift(x)

    def back(g):
        if x.requires_grad:
            x.grad += g * 2.0 * x.data

    return _node(x.data * x.data, (x,), back, "square")


@_register("sqrt")
def sqrt(x) -> Value:
    x = _lift(x)
    r = np.sqrt(x.data)

    def back(g):
        if x.requires_grad:
            x.grad += g * 0.5 / r

    return _node(r, (x,), back, "sqrt")


@_register("log")
def log(x) -> Value:
    x = _lift(x)

    def back(g):
        if x.requires_grad:
            x.grad += g / x.data

    return _node(np.log(x.data), (x,), back, "log")


@_register("stop_gradient")
def stop_gradient(x) -> Value:
    """Exact identity in the forward pass; blocks all adjoint flow."""
    x = _lift(x)
    return Value(x.data.copy())


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


@_register("lstm_cell")
def lstm_cell(sx, w_hh, h, c, starts=None) -> Value:
    """An LSTM unrolled over a sequence of input drives, fused into a single node.

    ``sx`` holds the precomputed drives W_ih @ x_t + b: a (T, 4H) matrix
    with one row per step, or a (4H,) vector for a single step. ``w_hh`` is
    (4H, H); ``h`` and ``c`` are the (H,) state before the first step.
    ``starts[t]`` true resets the state to zero before step t (an episode
    start), so no gradient crosses it. Returns the rows [h_t, c_t]: a
    (T, 2H) matrix, or a (2H,) vector for a single step.

    The backward runs backprop through time in one loop over the steps; the
    ``w_hh`` gradient is a single (4H, T) @ (T, H) product.
    """
    sx, w_hh, h, c = _lift(sx), _lift(w_hh), _lift(h), _lift(c)
    hd = h.data.shape[0] if h.data.ndim == 1 else -1
    single = sx.data.ndim == 1
    drives = sx.data[None] if single else sx.data
    if drives.ndim != 2 or drives.shape[1] != 4 * hd or w_hh.data.shape != (4 * hd, hd) or c.data.shape != (hd,):
        raise ShapeError(
            f"lstm_cell: want sx (4H,) or (T, 4H), w_hh (4H,H), h (H,), c (H,); got {sx.data.shape}, {w_hh.data.shape}, {h.data.shape}, {c.data.shape}"
        )
    n = drives.shape[0]
    resets = np.zeros(n, dtype=bool) if starts is None else np.asarray(starts, dtype=bool)
    if resets.shape != (n,):
        raise ShapeError(f"lstm_cell: starts shape {resets.shape} != ({n},)")

    zeros = np.zeros(hd)
    h_in = np.empty((n, hd))  # state entering each step, after any reset
    c_in = np.empty((n, hd))
    gates = np.empty((n, 4 * hd))
    out = np.empty((n, 2 * hd))
    h_t, c_t = h.data, c.data
    for t in range(n):
        if resets[t]:
            h_t, c_t = zeros, zeros
        h_in[t], c_in[t] = h_t, c_t
        h_t, c_t, gates[t] = lstm_step(drives[t], w_hh.data, h_t, c_t)
        out[t, :hd], out[t, hd:] = h_t, c_t
    out_data = out[0] if single else out

    def back(g):
        g = g[None] if single else g
        gi, gf, gg, go = (gates[:, k * hd : (k + 1) * hd] for k in range(4))
        tc = np.tanh(out[:, hd:])
        # per-step factors of the input, forget and cell gate pre-activation
        # gradients (times dc), and of the output gate one (times dh)
        f_ifg = np.stack([gg * gi * (1.0 - gi), c_in * gf * (1.0 - gf), gi * (1.0 - gg * gg)], axis=1)
        f_o = tc * go * (1.0 - go)
        f_c = go * (1.0 - tc * tc)
        dz = np.empty((n, 4, hd))
        dh, dc_next = zeros, zeros  # adjoints flowing from step t+1 into the state after step t
        w_t = w_hh.data.T
        for t in range(n - 1, -1, -1):
            gh = g[t, :hd] + dh
            dc = g[t, hd:] + dc_next + gh * f_c[t]
            dz[t, :3] = dc * f_ifg[t]
            dz[t, 3] = gh * f_o[t]
            if resets[t]:
                dh, dc_next = zeros, zeros
            else:
                dh, dc_next = w_t @ dz[t].reshape(-1), dc * gf[t]
        dz = dz.reshape(n, 4 * hd)
        if sx.requires_grad:
            sx.grad += dz[0] if single else dz
        if w_hh.requires_grad:
            w_hh.grad += dz.T @ h_in
        if h.requires_grad:
            h.grad += dh
        if c.requires_grad:
            c.grad += dc_next

    return _node(out_data, (sx, w_hh, h, c), back, "lstm_cell")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


class Graph:
    """Topologically ordered record of the ops reachable from one node.

    Replaying ``run_backward`` over nodes that have already propagated
    their adjoints raises GraphError instead of silently accumulating
    twice.
    """

    __slots__ = ("nodes", "_used")

    def __init__(self, nodes: list):
        self.nodes = nodes
        self._used = False

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
        if self._used:
            raise GraphError("backward already ran on this graph; rebuild the forward pass first")
        for node in self.nodes:
            if node._backward is not None and node._spent:
                raise GraphError(
                    f"double backward through op {node._op!r}; rebuild the forward pass before backpropagating again"
                )
        self._used = True
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
# finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Max relative error per checked input, |analytic-numeric|/max(1,|analytic|)."""

    per_input: list = field(default_factory=list)
    max_rel_err: float = 0.0
    rel_tol: float = 1e-4

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.rel_tol


def _eval_scalar(f, inputs, which: int) -> float:
    out = f(inputs)
    val = float(out.data if isinstance(out, Value) else out)
    if not np.isfinite(val):
        raise ArithmeticError(f"grad_check: non-finite value while perturbing input {which}")
    return val


def grad_check(f, inputs, step: float = 1e-5, rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare backward() gradients of a scalar function against central differences.

    ``f`` maps a list of Values to a scalar Value and must be deterministic.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    leaves = [Value(np.asarray(x.data if isinstance(x, Value) else x, dtype=np.float64).copy(), requires_grad=True) for x in inputs]
    loss = f(leaves)
    if not np.isfinite(loss.data).all():
        raise ArithmeticError("grad_check: non-finite value in unperturbed evaluation (input -1)")
    backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    frozen = [Value(leaf.data) for leaf in leaves]
    report = GradCheckReport(rel_tol=rel_tol)
    for i, leaf in enumerate(frozen):
        num = np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        nflat = num.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            hi = _eval_scalar(f, frozen, i)
            flat[j] = orig - step
            lo = _eval_scalar(f, frozen, i)
            flat[j] = orig
            nflat[j] = (hi - lo) / (2.0 * step)
        err = np.abs(analytic[i] - num) / np.maximum(1.0, np.abs(analytic[i]))
        worst = float(err.max()) if err.size else 0.0
        report.per_input.append(worst)
        report.max_rel_err = max(report.max_rel_err, worst)
    return report


# ---------------------------------------------------------------------------
# optimization helpers
# ---------------------------------------------------------------------------


def adam_step(params, lr: float, betas=(0.9, 0.999), eps: float = 1e-8, state: dict = None) -> dict:
    """One Adam update in place; grads are left untouched for the caller to zero.

    ``state`` maps id(param) -> [m, v, t] and is created/extended on first use.
    """
    if state is None:
        state = {}
    b1, b2 = betas
    for p in params:
        if p.grad is None:
            raise ValueError("adam_step: parameter has no grad buffer")
        st = state.get(id(p))
        if st is None:
            st = [np.zeros_like(p.data), np.zeros_like(p.data), 0]
            state[id(p)] = st
        m, v, t = st
        t += 1
        m *= b1
        m += (1.0 - b1) * p.grad
        v *= b2
        v += (1.0 - b2) * (p.grad * p.grad)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        st[2] = t
    return state


class Adam:
    """Adam with per-parameter moment state; supports stepping parameter subsets."""

    def __init__(self, params, lr: float = 1e-4, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.state: dict = {}

    def step(self, params=None):
        adam_step(self.params if params is None else params, self.lr, self.betas, self.eps, self.state)

    def zero_grad(self, params=None):
        zero_grads(self.params if params is None else params)

    def state_arrays(self) -> dict:
        """Moment state keyed by position in the full param list (for checkpoints)."""
        out = {}
        for i, p in enumerate(self.params):
            st = self.state.get(id(p))
            if st is not None:
                out[str(i)] = {"m": st[0], "v": st[1], "t": st[2]}
        return out

    def load_state_arrays(self, payload: dict):
        for key, entry in payload.items():
            p = self.params[int(key)]
            self.state[id(p)] = [
                np.asarray(entry["m"], dtype=np.float64).reshape(p.data.shape),
                np.asarray(entry["v"], dtype=np.float64).reshape(p.data.shape),
                int(entry["t"]),
            ]


def zero_grads(params):
    for p in params:
        p.zero_grad()


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale grads in place so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = total**0.5
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
