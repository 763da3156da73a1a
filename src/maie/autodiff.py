"""Reverse-mode automatic differentiation on float64 numpy arrays.

Dynamic define-by-run graphs: an op records its output node exactly when
one of its inputs requires a gradient, so ops on constants build no graph
and there is no global recording switch. A recorded node holds one adjoint
per operand: ``adjoint(g)`` is that operand's share of the output adjoint
``g``. No op writes a gradient. The one rule lives in the walk:
``backward(loss)`` visits the graph once in reverse topological order and,
for each operand that requires a gradient (and only for it, so a
constant's share is never computed), adds its adjoint into its ``grad``
through ``_accum``; then it drops the node's adjoints, and with them the
arrays they held. Walking the same nodes a second time raises (prevents
silent double accumulation). Gradients on leaves accumulate additively
until the caller zeroes them.

An array is held only while something still reads it. A recorded node gets
its ``grad`` when the first adjoint reaches it in the walk, not when it is
built, so a forward graph waiting for its backward holds no gradient
buffers; a parameter (a leaf made with ``requires_grad=True``) keeps its
zero buffer from construction, since the optimiser helpers read it. A conv
layer is one ``conv2d`` node, its ReLU included, so it holds one output
array, and no node keeps its patch matrix: the weight adjoint gathers it
again when the walk runs it and drops it on return.

The elementwise ops (add, sub, mul, div, neg, relu, square, sqrt, log) are
one table, a ``_elementwise(kind, forward, *adjoints)`` line each, and
``Value``'s operators and methods are bound straight to the op functions.

``conv2d`` and ``lstm_cell``, the two ops whose forward costs the most, also
take a recorded forward (``recorded=``): the arrays an earlier forward over
the same operands produced. The node is then built from them, with the
output and adjoints of the computed form, and computes nothing until the
walk runs its adjoints.

No mutable global state is shared between runs: the graph lives entirely
in the Value objects, and the one module-level cache, ``gather_index``,
holds read-only index arrays, so independent training runs may execute in
parallel threads or processes.

Importing this module sets up the process in two ways, with no flag,
config field or environment variable to change either:

- numpy's OpenBLAS runs on one thread (``one_blas_thread``): on matrices
  this small a second thread nearly doubled a training step's CPU time and
  saved at most a few percent of its wall time.
- glibc's malloc keeps freed buffers in the process (``keep_freed_buffers``).
  By default it serves a block of 128 KiB or more, such as a conv layer's
  patch matrix, from a fresh mmap and returns it on free, so every update
  page-faulted its large temporaries in again. With the mmap threshold at
  32 MiB and the trim threshold at 64 MiB, a warmed update reuses the heap
  it freed. Where libc has no ``mallopt`` this does nothing.
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
    """``(set, get, corename)``, functions of the OpenBLAS numpy loaded, or ``()`` without one.

    ``set`` and ``get`` are its thread-count functions; ``corename`` names the
    kernel set a DYNAMIC_ARCH build picked for this CPU, or is None where the
    library has no such function.
    """
    try:
        with open("/proc/self/maps") as fh:  # lists the shared libraries of this process (Linux)
            libs = [ctypes.CDLL(p) for p in sorted({ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln})]
    except OSError:
        return ()
    for lib in libs:
        for name in ("scipy_openblas_%s64_", "openblas_%s64_", "openblas_%s"):
            if hasattr(lib, name % "set_num_threads"):
                put, get = getattr(lib, name % "set_num_threads"), getattr(lib, name % "get_num_threads")
                put.argtypes, put.restype, get.argtypes, get.restype = [ctypes.c_int], None, [], ctypes.c_int
                core = getattr(lib, name % "get_corename", None)
                if core is not None:
                    core.argtypes, core.restype = [], ctypes.c_char_p
                return put, get, core
    return ()


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs on, or None where numpy has no OpenBLAS."""
    return _openblas_threads()[1]() if _openblas_threads() else None


def blas_core() -> str | None:
    """The name of the OpenBLAS kernel set numpy runs on (``SkylakeX``, ``Haswell``, ...), or None without one.

    Batched and batch-one products of the same numbers can differ in their
    last bits, and how depends on the kernels, so a run's artifacts are
    reproducible bit for bit only under the same kernel set.
    """
    core = _openblas_threads()[2] if _openblas_threads() else None
    return core().decode() if core is not None else None


def one_blas_thread() -> int | None:
    """Set numpy's OpenBLAS to one thread and return ``blas_threads()``; calling it again changes nothing."""
    if fns := _openblas_threads():
        fns[0](1)
    return blas_threads()


one_blas_thread()  # on import: numpy may be imported before maie, so its environment variables come too late

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>


def keep_freed_buffers() -> bool:
    """Raise glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB; False where libc has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (macOS), or no CDLL(None) (Windows)
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


keep_freed_buffers()  # on import, beside the BLAS pin


class ShapeError(ValueError):
    """Input shapes do not conform to the op's shape rule."""


class GraphError(RuntimeError):
    """Graph misuse: double backward, non-scalar loss, missing graph."""


class Value:
    """A float64 array plus the bookkeeping for reverse-mode gradients.

    ``grad`` is None without ``requires_grad``. A leaf made with
    ``requires_grad=True`` (a parameter) gets zeros of ``data``'s shape at
    construction, which ``Adam``, ``clip_grad_norm`` and ``zero_grads``
    read. A recorded node's ``grad`` stays None until the backward walk
    reaches it, and is then an array of ``data``'s shape that no other
    Value shares. Either accumulates across backward passes. The operators
    and ``sum``, ``relu``, ``reshape``, ... are the op functions, bound after
    the ops.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_adjoints", "_op", "_spent")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._adjoints = ()
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


def _node(data: np.ndarray, parents, op: str, *adjoints) -> Value:
    """Build the output Value, recording the op exactly when one of its parents requires a gradient.

    ``adjoints[i](g)`` returns parent i's share of the output adjoint ``g``:
    an array of the parent's shape, or one that ``_accum`` reduces or
    broadcasts to it. The output's ``grad`` is None either way; a recorded
    one gets its buffer from ``_accum``, during the walk.
    """
    record = False
    for p in parents:
        if p.requires_grad:
            record = True
            break
    out = Value.__new__(Value)
    out.data = data
    out._op = op
    out._spent = False
    out.grad = None
    if record:
        out.requires_grad = True
        out._parents = parents
        out._adjoints = adjoints
    else:
        out.requires_grad = False
        out._parents = ()
        out._adjoints = ()
    return out


def _accum(p: Value, g: np.ndarray):
    """Add an adjoint contribution to a parent: the one place a gradient grows.

    ``g`` may be larger than the parent along broadcast axes (an elementwise
    operand that was broadcast), which are summed away, or smaller along
    axes it broadcasts up to (a reduction's adjoint), which the write into
    the parent's grad spreads without a full-size copy of ``g``.

    The first contribution to a node without a grad becomes its grad as a
    fresh array, ``g + 0.0`` broadcast to the node's shape: the bits of
    adding ``g`` into zeros, ``-0.0`` included. ``g`` itself is never kept,
    since an adjoint may return the output's own grad (add, reshape) or a
    view of it (transpose, concat), or hand one array to two operands.
    Later contributions are added in place.
    """
    shape = p.data.shape
    if g.shape != shape:
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        if g.ndim == len(shape):
            for i, s in enumerate(shape):
                if s == 1 and g.shape[i] != 1:
                    g = g.sum(axis=i, keepdims=True)
    if p.grad is None:
        p.grad = np.add(g, 0.0, out=np.empty(shape))
    else:
        p.grad += g


def _once(fn):
    """``fn(g)``, computed on the first call and returned to every later one.

    For work on a node's output adjoint that more than one of its adjoints
    needs: the walk runs a node once, passing each adjoint the same ``g``.
    """
    memo = []

    def shared(g):
        if not memo:
            memo.append(fn(g))
        return memo[0]

    return shared


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _elementwise(kind: str, forward, *adjoints):
    """The op ``kind``: ``forward(*arrays)`` of its operands, and ``adjoint(g, out, *arrays)`` per operand.

    Two operands of different shapes must broadcast (else ShapeError naming
    ``kind``); checking only then keeps the common same-shape call cheap.
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
        return _node(out, vals, kind, *[lambda g, adjoint=adjoint: adjoint(g, out, *arrays) for adjoint in adjoints])

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
    return _node(ad @ bd, (a, b), "matmul", lambda g: g @ bd.T, lambda g: ad.T @ g)


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


def _patches(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The patch matrix of ``x`` at a ``gather_index``: one gather, a 0.0 read at each padding tap."""
    return np.concatenate((x.ravel(), (0.0,)))[index]


def conv_gemm(x: np.ndarray, w2d: np.ndarray, b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The arithmetic of every conv layer: gather, ``w2d @ cols``, the bias, then the ReLU, the last two in place.

    ``x`` is any C-ordered array whose ``ravel()`` the ``gather_index``
    ``index`` addresses, ``w2d`` the (F, C*kh*kw) filters and ``b`` the (F,)
    biases. Returns the (F, N*oh*ow) output, columns over (sample, output
    row, output column); the patch matrix is dropped on return. At batch one
    that output, read C-ordered, is the next layer's (1,F,oh,ow) input.
    """
    out = w2d @ _patches(x, index)
    out += b[:, None]
    np.maximum(out, 0.0, out=out)
    return out


def conv2d(x, w, b, *, stride: tuple, padding: tuple, recorded: np.ndarray | None = None) -> Value:
    """A conv layer: 2-D convolution of a (N,C,H,W) batch with (F,C,kh,kw) filters and (F,) biases, then ReLU.

    The ReLU is part of the op, so a layer is one node holding one output
    array; the name stays ``conv2d``, which the benchmark patches and
    counts. Output spatial size per dim: ``conv_out_hw``. Implemented as
    im2col + matmul (Chellapilla et al. 2006) in ``conv_gemm``: the patch
    matrix is one gather through the cached ``gather_index`` of this
    geometry, looked up once per call. The three adjoints share one
    (F, N*oh*ow) copy of ``g * (out > 0)``, the ReLU's adjoint; the input's
    sums the patch gradients back with one ``np.bincount`` over the same
    index, tap by tap in the order of its rows. No node keeps the patch
    matrix: the weight adjoint gathers it again when the walk runs it and
    drops it on return.

    ``recorded``, when given, is the (N,F,oh,ow) output an earlier forward
    computed from these same operands: the node takes it as its output and
    computes nothing.
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
    oh, ow = conv_out_hw(h, width, (kh, kw), stride, padding)
    if recorded is None:
        out_flat = conv_gemm(x.data, w.data.reshape(f, -1), b.data, idx)
        out_data = np.ascontiguousarray(out_flat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3))
    else:
        if recorded.shape != (n, f, oh, ow):
            raise ShapeError(f"conv2d: recorded output shape {recorded.shape} != {(n, f, oh, ow)}")
        out_data = recorded
    g_flat = _once(lambda g: (g * (out_data > 0.0)).transpose(1, 0, 2, 3).reshape(f, -1))

    def x_adjoint(g):
        gcols = w.data.reshape(f, -1).T @ g_flat(g)
        gx = np.bincount(idx.ravel(), weights=gcols.ravel(), minlength=x.data.size + 1)
        return gx[:-1].reshape(n, c, h, width)

    return _node(
        out_data, (x, w, b), "conv2d",
        x_adjoint,
        lambda g: (g_flat(g) @ _patches(x.data, idx).T).reshape(w.data.shape),
        lambda g: g_flat(g).sum(axis=1),
    )


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
    offsets = np.cumsum([0] + [v.data.shape[axis] for v in vals])
    lead = (slice(None),) * (axis % out_data.ndim)  # the axes before ``axis``
    parts = [lead + (slice(lo, hi),) for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _node(out_data, tuple(vals), "concat", *[lambda g, part=part: g[part] for part in parts])


def _is_advanced(key) -> bool:
    parts = key if isinstance(key, tuple) else (key,)
    return any(isinstance(p, (list, np.ndarray)) for p in parts)


def narrow(x, key) -> Value:
    """Slice / index selection; the adjoint scatters back into a zero array of the source's shape."""
    x = _lift(x)
    out_data = np.asarray(x.data[key], dtype=np.float64).copy()
    advanced = _is_advanced(key)

    def adjoint(g):
        gx = np.zeros_like(x.data)
        if advanced:
            np.add.at(gx, key, g)  # repeated indices must accumulate
        else:
            gx[key] = g
        return gx

    return _node(out_data, (x,), "slice", adjoint)


def reshape(x, shape) -> Value:
    x = _lift(x)
    return _node(x.data.reshape(shape).copy(), (x,), "reshape", lambda g: g.reshape(x.data.shape))


def transpose(x, axes) -> Value:
    x = _lift(x)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.ascontiguousarray(np.transpose(x.data, axes))
    return _node(out_data, (x,), "transpose", lambda g: np.transpose(g, inverse))


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
    return _node(s, (x,), "softmax_axis", lambda g: s * (g - np.sum(g * s, axis=axis, keepdims=True)))


def reduce_sum(x, axis=None) -> Value:
    """Sum over ``axis``, or over all entries; the adjoint is ``g`` with ``axis`` kept, which ``_accum`` broadcasts."""
    x = _lift(x)
    return _node(np.sum(x.data, axis=axis), (x,), "sum", lambda g: g if axis is None else np.expand_dims(g, axis))


def reduce_mean(x) -> Value:
    """Mean of all entries; the adjoint is the scalar ``g / size``, which ``_accum`` broadcasts."""
    x = _lift(x)
    return _node(np.mean(x.data), (x,), "mean", lambda g: g / x.data.size)


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


def lstm_cell(sx, w_hh, h: np.ndarray, c: np.ndarray, starts, recorded: tuple | None = None) -> tuple:
    """An LSTM unrolled over a sequence of input drives, fused into a single node.

    ``sx`` holds the precomputed drives W_ih @ x_t + b: a (T, 4H) matrix
    with one row per step. ``w_hh`` is (4H, H); ``h`` and ``c`` are the
    plain (H,) state arrays before the first step, constants to the
    backward pass. ``starts[t]`` true resets the state to zero before step
    t (an episode start), so no gradient crosses it. Returns the node of
    the (T, H) hidden rows h_t and the plain ``(h, c)`` after the last
    step.

    ``recorded``, when given, is ``(gates, h_out, c_out)``: the (T, 4H)
    gate activations and the (T, H) states leaving each step that
    ``lstm_step`` computed from these same operands, step by step. The node
    is built from them and no step runs; the states entering each step are
    ``h`` and ``c``, the zero reset state, or the previous step's output.

    Backprop through time runs once per walk, in one loop over the steps,
    and gives the pre-activation adjoints ``dz``, which are ``sx``'s adjoint;
    ``w_hh``'s is a single (4H, T) @ (T, H) product of them.
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
    if recorded is None:
        h_in, c_in, h_out, c_out = np.empty((4, n, hd))  # the state entering each step, after any reset, and leaving it
        gates = np.empty((n, 4 * hd))
        for t in range(n):
            if resets[t]:
                h, c = zeros, zeros
            h_in[t], c_in[t] = h, c
            h, c, gates[t] = lstm_step(drives[t], w_hh.data, h, c)
            h_out[t], c_out[t] = h, c
    else:
        gates, h_out, c_out = recorded
        if gates.shape != (n, 4 * hd) or h_out.shape != (n, hd) or c_out.shape != (n, hd):
            raise ShapeError(
                f"lstm_cell: want recorded gates ({n}, {4 * hd}), h and c ({n}, {hd}); "
                f"got {gates.shape}, {h_out.shape}, {c_out.shape}"
            )
        h_in, c_in = np.empty((2, n, hd))
        for state_in, first, state_out in ((h_in, h, h_out), (c_in, c, c_out)):
            state_in[:1], state_in[1:] = first, state_out[:-1]
            state_in[resets] = 0.0
        if n:
            h, c = h_out[-1].copy(), c_out[-1].copy()

    def bptt(g):
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
        return dz.reshape(n, 4 * hd)

    dz = _once(bptt)
    return _node(h_out, (sx, w_hh), "lstm_cell", dz, lambda g: dz(g).T @ h_in), (h, c)


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
        """Add each recorded node's adjoints into its parents that require a gradient, root to leaves."""
        for node in self.nodes:
            if node._spent:
                raise GraphError(
                    f"double backward through op {node._op!r}; rebuild the forward pass before backpropagating again"
                )
        _accum(root, np.ones_like(root.data))
        for node in reversed(self.nodes):
            if node._adjoints:
                for p, adjoint in zip(node._parents, node._adjoints):
                    if p.requires_grad:
                        _accum(p, adjoint(node.grad))
                node._adjoints, node._spent = (), True  # frees what the adjoints held, shared work included


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
