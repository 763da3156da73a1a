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

An array is held only while something still reads it. Every Value, a
parameter (a leaf made with ``requires_grad=True``) included, gets its
``grad`` when the first adjoint reaches it in the walk, not when it is
built, so a forward graph waiting for its backward holds no gradient
buffers, and neither does a model that only acts. A conv layer is one
``conv2d`` node and a dense layer (matmul, bias, optional ReLU) one ``dense``
node, ReLU included, so each holds one output array; their arithmetic on
plain arrays, ``conv_gemm`` and ``affine``, is acting's too. No node keeps a
patch matrix, and a conv backward never forms a whole patch matrix or patch
gradient either: the input and weight adjoints run one block of input
channels at a time (``_channel_blocks``).

A model's parameters live in one ``FlatStore``, and this is the one storage
rule: a registered parameter's ``data``, its ``grad`` and its Adam moments
are views of three buffers aligned with one another (``FlatStore.data``,
``FlatStore.grad`` and ``Adam``'s moment buffers), the last two allocated
at first use. Code that rebinds a registered ``Value.data`` (or its
``grad``) breaks the aliasing; it must write in place, as
``cli.load_checkpoint`` does. ``Adam.step``, ``clip_grad_norm`` and
``zero_grads`` then do each operation once per run of consecutive slots
(``_runs``) rather than once per parameter. A parameter of no store is a
run of one, on its own arrays.

The elementwise ops (add, sub, mul, div, neg, square, sqrt, log) are one
table, a ``_elementwise(kind, forward, *adjoints)`` line each, and
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
    "affine",
    "dense",
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
    "zero_tail",
    "FlatStore",
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

    ``grad`` is None until a backward walk reaches the Value, and is then
    an array of ``data``'s shape that no other Value shares; it accumulates
    across backward passes, and ``zero_grad`` zeroes it in place. This holds
    for a parameter (a leaf made with ``requires_grad=True``) and a recorded
    node alike. A parameter registered in a ``FlatStore`` has its ``data``
    and ``grad`` as views of the store's buffers; write them in place, never
    rebind them. The operators and ``sum``, ``square``, ``reshape``, ... are
    the op functions, bound after the ops.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_adjoints", "_op", "_spent", "_store", "_at")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._adjoints = ()
        self._op = "leaf"
        self._spent = False
        self._store = None  # the FlatStore holding ``data`` from offset ``_at``, or None

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
    out._store = None
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

    The first contribution to a Value without a grad, a parameter or a
    recorded node, becomes its grad as a fresh array, ``g + 0.0`` broadcast
    to the Value's shape: the bits of adding ``g`` into zeros, ``-0.0``
    included. ``g`` itself is never kept, since an adjoint may return the
    output's own grad (add, reshape) or a view of it (transpose, concat), or
    hand one array to two operands.
    Later contributions, in this walk or a later one, are added in place.
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
        p.grad = np.add(g, 0.0, out=np.empty(shape) if p._store is None else p._store.grad_slot(p))
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
square = _elementwise("square", lambda x: x * x, lambda g, out, x: g * 2.0 * x)
sqrt = _elementwise("sqrt", np.sqrt, lambda g, out, x: g * 0.5 / out)
log = _elementwise("log", np.log, lambda g, out, x: g / x)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """The arithmetic of every dense layer: ``x @ w``, then ``+= b``, then, if ``relu``, the ReLU in place."""
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def dense(x, w, b, *, relu: bool) -> Value:
    """A dense layer, one node over ``affine``: (T, K) batch @ (K, N) weights + (N,) biases, then the ReLU if ``relu``.
    Its three adjoints share one ``g * (out > 0)``, the ReLU's adjoint, or take ``g`` itself without the ReLU."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"dense: want 2-D (T, K) @ (K, N) + (N,), got {xd.shape} @ {wd.shape} + {b.data.shape}")
    out = affine(xd, wd, b.data, relu)
    gm = _once(lambda g: g * (out > 0.0)) if relu else (lambda g: g)
    return _node(out, (x, w, b), "dense", lambda g: gm(g) @ wd.T, lambda g: xd.T @ gm(g), lambda g: gm(g).sum(axis=0))


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


def zero_tail(x: np.ndarray) -> np.ndarray:
    """``x``'s values in C order followed by one 0.0: the layout a ``gather_index`` addresses, padding taps included."""
    return np.concatenate((x.ravel(), (0.0,)))


def conv_gemm(x: np.ndarray, w2d: np.ndarray, b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The arithmetic of every conv layer: gather, ``w2d @ cols``, the bias, then the ReLU, all three into one buffer.

    ``x`` is the input in ``zero_tail`` layout, which the ``gather_index``
    ``index`` addresses; ``w2d`` holds the (F, C*kh*kw) filters and ``b``
    the biases as an (F, 1) column or broadcast to (F, N*oh*ow). Returns the
    output in the same layout: a (F*N*oh*ow + 1,) buffer whose first
    F*N*oh*ow entries are the (F, N*oh*ow) output, columns over (sample,
    output row, output column), and whose last is 0.0. At batch one the
    output read C-ordered is the next layer's (1,F,oh,ow) input, so the
    buffer is that layer's ``x`` with no copy. The patch matrix is dropped
    on return.
    """
    f, n = w2d.shape[0], index.shape[1]
    buf = np.empty(f * n + 1)
    buf[-1] = 0.0
    out = buf[:-1].reshape(f, n)
    np.matmul(w2d, x[index], out=out)
    out += b
    np.maximum(out, 0.0, out=out)
    return buf


_MIN_BLOCK_ROWS = 64


def _channel_blocks(c: int, taps: int) -> list:
    """(start, stop) ranges over a conv layer's ``c`` input channels, in order, that its backward runs one at a time.

    As many blocks as leave each at least ``_MIN_BLOCK_ROWS`` patch rows
    (``taps`` per channel), and one where there are fewer; their sizes
    differ by one at most, the larger first.

    On OpenBLAS's SkylakeX kernels the blocked products have the bits of the
    whole ones for every conv layer of the five envs at the default rollout
    length and for the shapes the tests check. A block under 64 rows (under 8
    channels of a 3x3 layer) goes to other kernels, whose sums can differ in
    the last bit. Other shapes can differ too: most layers of 22 to 39 input
    channels, and input adjoints of over 192 patch columns whose number is
    not a multiple of 8.
    """
    n = max(1, c // -(-_MIN_BLOCK_ROWS // taps))
    q, r = divmod(c, n)
    bounds = [i * q + min(i, r) for i in range(n + 1)]
    return list(zip(bounds, bounds[1:]))


def conv2d(x, w, b, *, stride: tuple, padding: tuple, recorded: np.ndarray | None = None) -> Value:
    """A conv layer: 2-D convolution of a (N,C,H,W) batch with (F,C,kh,kw) filters and (F,) biases, then ReLU.

    The ReLU is part of the op, so a layer is one node holding one output
    array; the name stays ``conv2d``, which the benchmark patches and
    counts. Output spatial size per dim: ``conv_out_hw``. Implemented as
    im2col + matmul (Chellapilla et al. 2006) in ``conv_gemm``: the patch
    matrix is one gather through the cached ``gather_index`` of this
    geometry, looked up once per call. The three adjoints share one
    (F, N*oh*ow) copy of ``g * (out > 0)``, the ReLU's adjoint. The input's
    and the weights' run one block of input channels (``_channel_blocks``)
    at a time, so neither holds more than a block's patch rows. The input's
    forms the block's patch gradient, ``w2d[:, rows].T @`` that copy, and adds
    it with ``np.add.at`` through the block's index rows into one zeroed
    buffer in ``zero_tail`` layout. A pixel's contributions all come from
    its own channel's rows, so they arrive in the order of one sum over the
    whole index, tap by tap in the order of its rows. The weights' gathers
    the block's patch rows and writes the block's columns of the weight
    gradient. No node keeps a patch matrix.

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
        out_flat = conv_gemm(zero_tail(x.data), w.data.reshape(f, -1), b.data[:, None], idx)[:-1]
        out_data = np.ascontiguousarray(out_flat.reshape(f, n, oh, ow).transpose(1, 0, 2, 3))
    else:
        if recorded.shape != (n, f, oh, ow):
            raise ShapeError(f"conv2d: recorded output shape {recorded.shape} != {(n, f, oh, ow)}")
        out_data = recorded
    g_flat = _once(lambda g: (g * (out_data > 0.0)).transpose(1, 0, 2, 3).reshape(f, -1))
    rows = [slice(lo * kh * kw, hi * kh * kw) for lo, hi in _channel_blocks(c, kh * kw)]

    def x_adjoint(g):
        w2d, gf = w.data.reshape(f, -1), g_flat(g)
        gx = np.zeros(x.data.size + 1)
        for r in rows:
            np.add.at(gx, idx[r].ravel(), (w2d[:, r].T @ gf).ravel())  # 1-D operands take numpy's fast loop
        return gx[:-1].reshape(n, c, h, width)

    def w_adjoint(g):
        xt, gf = zero_tail(x.data), g_flat(g)
        gw = np.empty((f, c * kh * kw))
        for r in rows:
            gw[:, r] = gf @ xt[idx[r]].T
        return gw.reshape(w.data.shape)

    return _node(out_data, (x, w, b), "conv2d", x_adjoint, w_adjoint, lambda g: g_flat(g).sum(axis=1))


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
    """One LSTM step on plain arrays: the gate math of every ``lstm_cell`` step and of acting.

    ``sx`` is the input drive W_ih @ x + b, (..., 4H) with gate layout
    [input, forget, cell, output]; ``w_hh`` is (..., 4H, H) and ``h`` and
    ``c`` are (..., H). One modality steps with (4H,), (4H, H) and (H,)
    operands; M modalities step at once with (M, ·) stacks, each row against
    its own weights. The recurrent product is ``np.matmul(w_hh, h[..., None])``,
    which gives each row the bits of its own ``w_hh @ h``. Returns (h', c',
    gates), where gates holds the activations [i, f, g, o] along the last axis.
    """
    hd = h.shape[-1]
    z = sx + np.matmul(w_hh, h[..., None])[..., 0]
    gates = 1.0 / (1.0 + np.exp(-z))
    gates[..., 2 * hd : 3 * hd] = np.tanh(z[..., 2 * hd : 3 * hd])
    c_new = gates[..., hd : 2 * hd] * c + gates[..., :hd] * gates[..., 2 * hd : 3 * hd]
    return gates[..., 3 * hd :] * np.tanh(c_new), c_new, gates


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
    is built from them and no step runs; without it, the steps run and fill
    the same three arrays. Either way the state entering each step is ``h``
    and ``c``, the zero reset state, or the previous step's output, and the
    state after the last step is a copy of the last rows.

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
        gates, (h_out, c_out) = np.empty((n, 4 * hd)), np.empty((2, n, hd))
        hs, cs = h, c
        for t in range(n):
            if resets[t]:
                hs, cs = zeros, zeros
            hs, cs, gates[t] = lstm_step(drives[t], w_hh.data, hs, cs)
            h_out[t], c_out[t] = hs, cs
    else:
        gates, h_out, c_out = recorded
        if gates.shape != (n, 4 * hd) or h_out.shape != (n, hd) or c_out.shape != (n, hd):
            raise ShapeError(
                f"lstm_cell: want recorded gates ({n}, {4 * hd}), h and c ({n}, {hd}); "
                f"got {gates.shape}, {h_out.shape}, {c_out.shape}"
            )
    h_in, c_in = np.empty((2, n, hd))  # the state entering each step, after any reset
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


SLOT_ALIGN = 8  # values (64 bytes, a cache line) each slot of a FlatStore's buffers starts on


def _aligned_zeros(n: int) -> np.ndarray:
    """``n`` zeros whose first value starts on a ``SLOT_ALIGN`` boundary.

    OpenBLAS reads a matrix that starts on one faster: a (128, 512) product
    with a vector took about 7.4 µs on a 64-byte boundary and 10 µs off it
    (SkylakeX kernels).
    """
    raw = np.zeros(n + SLOT_ALIGN - 1)
    skip = -(raw.ctypes.data // raw.itemsize) % SLOT_ALIGN
    return raw[skip : skip + n]


def _slot_end(p: Value) -> int:
    """Where the slot after ``p``'s starts: the end of its values, rounded up to ``SLOT_ALIGN``."""
    return -(-(p._at + p.data.size) // SLOT_ALIGN) * SLOT_ALIGN


class FlatStore:
    """Parameters moved onto one contiguous float64 buffer, in the order given, each one's values kept.

    Each parameter's ``data`` becomes a view of its slot of ``data``, which
    starts at its ``_at``, on a ``SLOT_ALIGN`` boundary; the few values
    between two slots are zeros, and stay zeros under every update. ``grad``
    is None until a backward walk first reaches one of the parameters;
    ``grad_slot`` then allocates it, zeroed and aligned with ``data``, and
    each parameter's ``grad``, made when the walk reaches it (``_accum``),
    is a view of its slot. ``Adam`` keeps the moments in two buffers aligned
    with it. Give it parameters that no backward pass has reached yet.
    """

    __slots__ = ("data", "grad")

    def __init__(self, params):
        params = list(params)
        at = 0
        for p in params:
            p._store, p._at = self, at
            at = _slot_end(p)
        self.data = _aligned_zeros(at)
        self.grad = None
        for p in params:
            view = self.data[p._at : p._at + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            p.data = view

    def grad_slot(self, p: Value) -> np.ndarray:
        """``p``'s slot of the grad buffer, shaped as its ``data``; the buffer is allocated on first use."""
        if self.grad is None:
            self.grad = _aligned_zeros(self.data.size)
        return self.grad[p._at : p._at + p.data.size].reshape(p.data.shape)


RUN_CHUNK = 32_768  # values of a run that Adam's operations take at a time, so its arrays stay in cache


def _runs(params: list, same=None) -> list:
    """``params`` split, in order, into runs: lists of consecutive parameters of one ``FlatStore``, each one's slot
    the next after the one before it, and, given ``same``, of one ``same(p)``. A parameter of no store is a run of
    its own."""
    runs, last = [], None
    for p in params:
        if (last is not None and p._store is not None and p._store is last._store
                and p._at == _slot_end(last) and (same is None or same(p) == same(last))):
            runs[-1].append(p)
        else:
            runs.append([p])
        last = p
    return runs


def _spans(run: list, own, whole) -> list:
    """The arrays a run's update works on, as tuples in order.

    A run of one parameter ``p`` gives ``own(p)``, its arrays as they are.
    A longer run gives the run's slices of ``whole(store)``, flat buffers
    aligned with its store's ``data``, ``RUN_CHUNK`` values at a time; the
    zeros between its slots come along, and an update leaves them zeros.
    """
    if len(run) == 1:
        return [own(run[0])]
    lo, hi, buffers = run[0]._at, run[-1]._at + run[-1].data.size, whole(run[0]._store)
    return [tuple(b[i : min(i + RUN_CHUNK, hi)] for b in buffers) for i in range(lo, hi, RUN_CHUNK)]


def _grad_spans(params) -> list:
    """The grads of ``params`` that exist, as one array per ``_spans`` tuple of their runs."""
    runs = _runs([p for p in params if p.grad is not None])
    return [g for run in runs for (g,) in _spans(run, lambda p: (p.grad,), lambda store: (store.grad,))]


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980); ``state`` maps each parameter stepped so far to its [m, v, t].

    ``step`` takes only parameters that a backward pass has reached, since
    a Value gets its grad then (see ``Value``); it raises ValueError, and
    steps none, if one has no grad. The moments of a parameter of a
    ``FlatStore`` are views of two buffers aligned with the store, as its
    ``data`` and ``grad`` are of the store's (the module's storage rule), so
    the parameter's ``data`` must be written in place, never rebound. The
    buffers are allocated, zeroed, when the first of its parameters gets an
    entry; a slot holds zeros while its parameter has none, and ``restore``,
    the one other writer of ``state``, keeps it so. ``step`` updates each run of
    parameters (``_runs``: consecutive slots of one store at one step count)
    with each operation once over the run, ``RUN_CHUNK`` values at a time,
    through two scratch arrays written with ``out=``; a parameter of no
    store is a run of one, updated whole. The operations and their order are
    the formulas', and so are the bits.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.state: dict = {}
        self._moments: dict = {}  # FlatStore -> its (2, size) buffer of m and v

    def _slots(self, p: Value) -> tuple:
        """``p``'s m and v, shaped as its data: its slots of its store's moment buffer, allocated on first use, or
        fresh zeros."""
        if p._store is None:
            return np.zeros_like(p.data), np.zeros_like(p.data)
        buf = self._moments.get(p._store)
        if buf is None:
            buf = self._moments[p._store] = _aligned_zeros(2 * p._store.data.size).reshape(2, -1)
        return tuple(row[p._at : p._at + p.data.size].reshape(p.data.shape) for row in buf)

    def step(self, params) -> int:
        """One Adam update of ``params`` in place; grads are left untouched for the caller to zero.

        Returns the number of runs it updated.
        """
        params = list(params)
        if any(p.grad is None for p in params):  # checked first, so a rejected step changes nothing
            raise ValueError("Adam.step: a parameter has no grad; no backward pass has reached it")
        state = self.state
        for p in params:
            if p not in state:
                state[p] = [*self._slots(p), 0]
        runs = _runs(params, lambda p: state[p][2])
        for run in runs:
            t = state[run[0]][2] + 1
            for arrays in _spans(run, lambda p: (p.data, p.grad, *state[p][:2]),
                                 lambda store: (store.data, store.grad, *self._moments[store])):
                self._update(*arrays, t)
            for p in run:
                state[p][2] = t
        return len(runs)

    def _update(self, data, grad, m, v, t: int):
        """The formulas' operations, in their order, on arrays of one shape at step count ``t``."""
        b1, b2 = ADAM_BETAS
        step, denom = np.empty_like(data), np.empty_like(data)  # arrays for a 0-d parameter too
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=step)
        v *= b2
        np.multiply(grad, grad, out=denom)
        v += np.multiply(denom, 1.0 - b2, out=denom)
        np.divide(m, 1.0 - b1**t, out=step)  # the bias-corrected moments
        np.divide(v, 1.0 - b2**t, out=denom)
        step *= self.lr
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        data -= np.divide(step, denom, out=step)

    def restore(self, state: dict):
        """Replace ``state`` whole by ``state``, parameter -> (m, v, t).

        Each moment is copied into its parameter's slots, and the slots of
        the entries dropped are zeroed.
        """
        for m, v, _ in self.state.values():
            m[...] = 0.0
            v[...] = 0.0
        self.state = {}
        for p, (m, v, t) in state.items():
            m_slot, v_slot = self._slots(p)
            m_slot[...], v_slot[...] = m, v
            self.state[p] = [m_slot, v_slot, t]


def zero_grads(params):
    """Zero the grads of ``params`` in place, a missing one staying None.

    The zeros go into ``_spans`` of their runs, so a registered parameter's
    grad stays the view of its slot that it is.
    """
    for g in _grad_spans(params):
        g.fill(0.0)


def clip_grad_norm(params, max_norm: float) -> float:
    """Scale grads in place so their global L2 norm is at most ``max_norm`` (> 0); returns the norm before.

    Like ``Adam.step``, it takes only parameters that a backward pass has
    reached, and raises ValueError, scaling none, if one has no grad. The
    squares are summed parameter by parameter, in order, each by
    ``np.add.reduce``, the reduction ``np.sum`` calls, without its wrapper;
    the scaling runs over ``_spans`` of their runs, which for a registered
    parameter are views of its store's grad buffer, as its ``grad`` is.
    """
    params = list(params)
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ValueError("clip_grad_norm: a parameter has no grad; no backward pass has reached it")
        total += float(np.add.reduce(p.grad * p.grad, axis=None))
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in _grad_spans(params):
            g *= scale
    return norm
