"""Per-modality feature extractors: conv stacks feeding a 32-unit LSTM cell.

Visual and audio observations go through three stride-2 convolutions with
32 filters each; text token sequences go through an embedding table and a
three-layer TextCNN (3 filters, kernel 2 along the sequence). Every
extractor ends in the same LSTM cell, and the LSTM output is the
modality's feature vector, so all modalities share FEATURE_DIM = 32.

``forward`` consumes one timestep while acting, entirely on plain arrays: each
conv layer, ReLU included, is one ``autodiff.conv_gemm``, the arithmetic
``autodiff.conv2d`` also runs, on flat (F, oh*ow) buffers through the three
batch-one gather indices each extractor takes from the geometry once, at
construction; then the input projection and the LSTM step
(``autodiff.lstm_step``). Given a memo dict, ``forward`` computes the LSTM
input drive (conv stack plus input projection), and while recording the
conv outputs too, once per distinct observation and reads them back when
the same bytes recur, as grids and text often do within an episode; the
hit is the very arrays the miss computed, so every output is bitwise the
same. The trainer hands a
memo only to a modality whose observations can repeat. Given an
``ActingRecord``, ``forward`` also appends the step's conv outputs, gates
and new state to it.

``forward_sequence`` replays a whole rollout for the backward passes: one
batched ``autodiff.conv2d`` stack over time, one input projection for all
steps, and the whole LSTM unroll in a single ``autodiff.lstm_cell`` node,
episode resets included; that node is the (T, 32) feature matrix, and the
state after its last step comes back beside it as plain arrays. Given the
rollout's ``ActingRecord`` and unchanged parameters, it builds the same
nodes from acting's arrays (no conv2d node computes anything until its
adjoints run in the backward, and the LSTM runs no step), so its features
are acting's, bit for bit. It takes the conv outputs out of the record as
it stacks them, so the stack is their one copy. Without one it
recomputes the forward, and its features match acting's within 1e-12:
batched and batch-one products of the same numbers differ in their last
bits.

Both kinds are built by one constructor and run their convolutions through
the same base-class code, driven by each class's FILTERS, KERNEL, STRIDE
and PADDING. A subclass declares only how one observation becomes conv
input (``_conv_input``) and how a rollout does (``_conv_batch``); the conv
input channels and the LSTM's input size are read off a zero observation
run through ``_conv_input`` and the ``autodiff.conv2d`` stack, which also
checks the conv geometry once at construction.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Value

FEATURE_DIM = 32
TEXT_EMBED_DIM = 8


class RecurrentState:
    """Per-modality LSTM hidden and cell vectors, reset at episode starts.

    Both are plain (32,) arrays: the state is a constant to every backward
    pass, so backprop is truncated at rollout edges.
    """

    __slots__ = ("h", "c")

    def __init__(self, h: np.ndarray, c: np.ndarray):
        self.h = h
        self.c = c

    def detached(self) -> "RecurrentState":
        """Copy that shares no memory with this state."""
        return RecurrentState(self.h.copy(), self.c.copy())


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Weights drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)), the one initialiser of every layer."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _lstm_params(rng, input_dim: int) -> dict:
    bias = np.zeros(4 * FEATURE_DIM)
    bias[FEATURE_DIM : 2 * FEATURE_DIM] = 1.0  # forget-gate bias stabilizes early training
    return {
        "lstm.w_ih": Value(uniform_init(rng, (4 * FEATURE_DIM, input_dim), input_dim), requires_grad=True),
        "lstm.w_hh": Value(uniform_init(rng, (4 * FEATURE_DIM, FEATURE_DIM), FEATURE_DIM), requires_grad=True),
        "lstm.b": Value(bias, requires_grad=True),
    }


class ActingRecord:
    """What one modality's acting forward computed over a rollout, step by step.

    ``conv[i]`` holds conv layer i's ReLU'd flat (F, oh*ow) output of each
    step, ``gates`` each LSTM step's (4H,) gate activations, and ``h`` and
    ``c`` the state leaving each step; the ``h`` rows are the modality's
    features. A memo hit appends the very conv arrays its miss computed. The
    first replay, run before any parameter changes, builds its nodes from
    these arrays (``_ExtractorBase.forward_sequence``) and takes the conv
    outputs out as it stacks them, leaving each ``conv[i]`` empty; ``gates``,
    ``h`` and ``c`` stay.
    """

    __slots__ = ("conv", "gates", "h", "c")

    def __init__(self):
        self.conv = ([], [], [])
        self.gates, self.h, self.c = [], [], []


class _ExtractorBase:
    """Three conv layers, each followed by ReLU, then the LSTM over their flattened output.

    Subclasses set the layers' ``FILTERS``, ``KERNEL``, ``STRIDE`` and
    ``PADDING``, and how an observation becomes the (1, C, H, W) conv input
    (``_conv_input``, for acting) and a rollout the (T, C, H, W) one
    (``_conv_batch``, for replay).
    """

    def __init__(self, name: str, input_shape: tuple, seed: int):
        """Draw the input parameters, the conv layers, then the LSTM, in that order, from ``seed``.

        The conv input channels and the LSTM input size ``flat_dim`` are read
        off a zero observation run through ``_conv_input`` and the
        ``autodiff.conv2d`` stack, which also checks the conv geometry once.
        """
        self.name = name
        self.input_shape = tuple(input_shape)
        rng = np.random.default_rng(seed)
        self.params = self._input_params(rng)
        probe = self._conv_input(np.zeros(self.input_shape))
        in_ch = probe.shape[1]
        for i in range(3):
            fan = in_ch * self.KERNEL[0] * self.KERNEL[1]
            self.params[f"conv{i + 1}.w"] = Value(uniform_init(rng, (self.FILTERS, in_ch, *self.KERNEL), fan), requires_grad=True)
            self.params[f"conv{i + 1}.b"] = Value(uniform_init(rng, (self.FILTERS,), fan), requires_grad=True)
            in_ch = self.FILTERS
        self.flat_dim = self._conv_stack(Value(probe)).data.size
        self.params.update(_lstm_params(rng, self.flat_dim))
        # acting's batch-one gather index of each conv layer, fixed by the geometry alone
        self._act_index = []
        (h, w), in_ch = probe.shape[2:], probe.shape[1]
        for _ in range(3):
            self._act_index.append(ad.gather_index((1, in_ch, h, w), self.KERNEL, self.STRIDE, self.PADDING))
            (h, w), in_ch = ad.conv_out_hw(h, w, self.KERNEL, self.STRIDE, self.PADDING), self.FILTERS

    def _input_params(self, rng: np.random.Generator) -> dict:
        """Parameters drawn before the conv layers; none unless the input needs a table."""
        return {}

    def _conv_stack(self, x: Value, recorded: ActingRecord | None = None) -> Value:
        """The three conv layers over a (N, C, H, W) batch; given ``recorded``, from its conv outputs, which it takes out."""
        for i in range(3):
            w, b = self.params[f"conv{i + 1}.w"], self.params[f"conv{i + 1}.b"]
            out = None
            if recorded is not None:
                oh, ow = ad.conv_out_hw(*x.shape[2:], self.KERNEL, self.STRIDE, self.PADDING)
                out = np.array(recorded.conv[i]).reshape(x.shape[0], self.FILTERS, oh, ow)
                recorded.conv[i].clear()
            x = ad.conv2d(x, w, b, stride=self.STRIDE, padding=self.PADDING, recorded=out)
        return x

    def _conv_stack_array(self, x: np.ndarray) -> list:
        """Each layer's ``_conv_stack(Value(x))`` output of one (1, C, H, W) input on plain arrays, for acting.

        Each layer is one ``autodiff.conv_gemm`` through the index cached at
        construction; each output is the flat (F, oh*ow) buffer, which holds
        the same numbers in the same order.
        """
        outs = []
        for i, index in enumerate(self._act_index, start=1):
            w = self.params[f"conv{i}.w"].data
            x = ad.conv_gemm(x, w.reshape(w.shape[0], -1), self.params[f"conv{i}.b"].data, index)
            outs.append(x)
        return outs

    def initial_state(self) -> RecurrentState:
        return RecurrentState(np.zeros(FEATURE_DIM), np.zeros(FEATURE_DIM))

    def _check_obs(self, obs: np.ndarray):
        if tuple(obs.shape) != self.input_shape:
            raise ValueError(f"{self.name}: observation shape {obs.shape} != expected {self.input_shape}")

    def forward(self, obs: np.ndarray, state: RecurrentState, drives: dict | None = None, record: ActingRecord | None = None):
        """One timestep, graph-free: returns (the (32,) feature array, new state).

        ``drives``, when given, memoises the LSTM input drive (conv stack
        plus input projection) by the observation's ``(dtype.str, bytes)``:
        a hit reads the drive a miss stored. The caller keeps the dict only
        while no parameter can change. ``record``, when given, gets this
        step's conv outputs, gates and new state appended; a span that
        records hands a record on every call, so its memo also keeps each
        miss's conv outputs for the hits to append. A span that does not
        (evaluation) keeps the drive alone, since holding the conv outputs
        slowed its steps. The observation is checked and the LSTM steps on
        every call.
        """
        self._check_obs(obs)
        p = self.params
        key = hit = None
        if drives is not None:
            key = (obs.dtype.str, obs.tobytes())
            hit = drives.get(key)
        if hit is None:
            convs = self._conv_stack_array(self._conv_input(obs))
            sx = p["lstm.w_ih"].data @ convs[-1].reshape(self.flat_dim)
            sx += p["lstm.b"].data
            if key is not None:
                drives[key] = (convs if record is not None else None), sx
        else:
            convs, sx = hit
        h, c, gates = ad.lstm_step(sx, p["lstm.w_hh"].data, state.h, state.c)
        if record is not None:
            for layer, out in zip(record.conv, convs):
                layer.append(out)
            record.gates.append(gates)
            record.h.append(h)
            record.c.append(c)
        return h, RecurrentState(h, c)

    def forward_sequence(self, observations, episode_starts, state: RecurrentState, recorded: ActingRecord | None = None):
        """Replay a rollout: batched conv over time, then one fused LSTM unroll.

        ``episode_starts[t]`` true resets the recurrent state before step t.
        Returns the (T, 32) feature matrix and the final state, which is a
        constant: gradients stop at the rollout's end.

        ``recorded``, when given, is the ``ActingRecord`` that ``forward``
        filled while stepping through these observations from ``state``,
        under the current parameters. The replay then builds the same nodes
        from acting's arrays, taking the conv outputs out of ``recorded``:
        no conv2d node computes its output and the lstm_cell node runs no
        step. Its features are acting's, bit for bit. Without it the whole
        forward is recomputed in batch form.
        """
        for obs in observations:
            self._check_obs(obs)
        p = self.params
        z = self._conv_stack(self._conv_batch(observations), recorded).reshape((len(observations), self.flat_dim))
        sx = ad.matmul(z, ad.transpose(p["lstm.w_ih"], (1, 0))) + p["lstm.b"]  # (T, 4H)
        steps = None if recorded is None else (np.array(recorded.gates), np.array(recorded.h), np.array(recorded.c))
        feats, (h, c) = ad.lstm_cell(sx, p["lstm.w_hh"], state.h, state.c, starts=episode_starts, recorded=steps)
        return feats, RecurrentState(h, c)


class ConvLstmExtractor(_ExtractorBase):
    """Visual/audio extractor: three 32-filter stride-2 convs, then the LSTM."""

    FILTERS = 32
    KERNEL = (3, 3)
    STRIDE = (2, 2)
    PADDING = (1, 1)

    def _conv_input(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64)[None]

    def _conv_batch(self, observations) -> np.ndarray:
        return np.stack([np.asarray(o, dtype=np.float64) for o in observations])


class TextExtractor(_ExtractorBase):
    """Token-sequence extractor: embedding table, TextCNN, then the LSTM."""

    FILTERS = 3
    KERNEL = (1, 2)
    STRIDE = (1, 1)
    PADDING = (0, 1)

    def __init__(self, name: str, input_shape: tuple, vocab_size: int, seed: int):
        self.vocab_size = vocab_size
        super().__init__(name, input_shape, seed)

    def _input_params(self, rng: np.random.Generator) -> dict:
        return {"embed.table": Value(uniform_init(rng, (TEXT_EMBED_DIM, self.vocab_size), TEXT_EMBED_DIM), requires_grad=True)}

    def _check_obs(self, obs: np.ndarray):
        obs = np.asarray(obs)
        super()._check_obs(obs)
        if obs.max(initial=0) >= self.vocab_size or obs.min(initial=0) < 0:
            raise ValueError(f"{self.name}: token id outside vocabulary of size {self.vocab_size}")

    def _conv_input(self, obs: np.ndarray) -> np.ndarray:
        emb = self.params["embed.table"].data[:, np.asarray(obs, dtype=np.intp)]  # (E, L)
        return emb.reshape(1, TEXT_EMBED_DIM, 1, -1)

    def _conv_batch(self, observations) -> Value:
        n = len(observations)
        ids = np.stack([np.asarray(o, dtype=np.intp) for o in observations]).reshape(-1)
        emb = self.params["embed.table"][(slice(None), ids)]  # (E, n*L)
        x = ad.transpose(emb.reshape((TEXT_EMBED_DIM, n, -1)), (1, 0, 2))
        return x.reshape((n, TEXT_EMBED_DIM, 1, -1))


def build_extractor(modality: str, input_shape, seed: int, vocab_size: int | None = None):
    """Construct the extractor matching a modality's observation kind."""
    if modality == "text":
        if vocab_size is None:
            raise ValueError("text extractor needs vocab_size")
        return TextExtractor(modality, input_shape, vocab_size, seed)
    return ConvLstmExtractor(modality, input_shape, seed)

