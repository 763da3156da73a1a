"""Per-modality feature extractors: conv stacks feeding a 32-unit LSTM cell.

Visual and audio observations go through three stride-2 convolutions with
32 filters each; text token sequences go through an embedding table and a
three-layer TextCNN (3 filters, kernel 2 along the sequence). Every
extractor ends in the same LSTM cell, and the LSTM output is the
modality's feature vector, so all modalities share FEATURE_DIM = 32.

Two forward paths produce the same numbers within 1e-12. ``forward``
consumes one timestep while acting: it runs the convolutions through
``autodiff.conv2d`` without recording a graph, and the input projection and
LSTM step (``autodiff.lstm_step``) on plain arrays. ``forward_sequence``
replays a whole rollout for the backward passes: one batched conv stack
over time, one input projection for all steps, and the whole LSTM unroll in
a single ``autodiff.lstm_cell`` node, episode resets included.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from . import autodiff as ad
from .autodiff import Value

FEATURE_DIM = 32
TEXT_EMBED_DIM = 8
TEXT_SEQ_LEN = 12


class RecurrentState:
    """Per-modality LSTM hidden and cell vectors, reset at episode starts."""

    __slots__ = ("h", "c")

    def __init__(self, h: Value, c: Value):
        self.h = h
        self.c = c

    @classmethod
    def zeros(cls) -> "RecurrentState":
        return cls(Value(np.zeros(FEATURE_DIM)), Value(np.zeros(FEATURE_DIM)))

    def detached(self) -> "RecurrentState":
        """Copy with gradient flow cut (truncated backprop at rollout edges)."""
        return RecurrentState(Value(self.h.data.copy()), Value(self.c.data.copy()))


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _lstm_params(rng, input_dim: int) -> dict:
    bias = np.zeros(4 * FEATURE_DIM)
    bias[FEATURE_DIM : 2 * FEATURE_DIM] = 1.0  # forget-gate bias stabilizes early training
    return {
        "lstm.w_ih": Value(_uniform(rng, (4 * FEATURE_DIM, input_dim), input_dim), requires_grad=True),
        "lstm.w_hh": Value(_uniform(rng, (4 * FEATURE_DIM, FEATURE_DIM), FEATURE_DIM), requires_grad=True),
        "lstm.b": Value(bias, requires_grad=True),
    }


class _ExtractorBase:
    name: str
    input_shape: tuple

    def parameters(self) -> list:
        return list(self.params.values())

    def named_parameters(self) -> dict:
        return {f"{self.name}.{k}": v for k, v in self.params.items()}

    def initial_state(self) -> RecurrentState:
        return RecurrentState.zeros()

    def _check_obs(self, obs: np.ndarray):
        if tuple(obs.shape) != tuple(self.input_shape):
            raise ValueError(f"{self.name}: observation shape {obs.shape} != expected {self.input_shape}")

    def forward(self, obs: np.ndarray, state: RecurrentState):
        """One timestep, graph-free: returns (feature vector of length 32, new state)."""
        self._check_obs(obs)
        p = self.params
        with ad.no_grad():
            z = self._embed_single(obs)
        sx = p["lstm.w_ih"].data @ z + p["lstm.b"].data
        h, c, _ = ad.lstm_step(sx, p["lstm.w_hh"].data, state.h.data, state.c.data)
        return Value(h), RecurrentState(Value(h), Value(c))

    def forward_sequence(self, observations, episode_starts, state: RecurrentState):
        """Replay a rollout: batched conv over time, then one fused LSTM unroll.

        ``episode_starts[t]`` true resets the recurrent state before step t.
        Returns the (T, 32) feature matrix and the final state, which is a
        constant: gradients stop at the rollout's end.
        """
        for obs in observations:
            self._check_obs(obs)
        p = self.params
        z = self._embed_batch(observations)  # (T, K)
        sx = ad.matmul(z, ad.transpose(p["lstm.w_ih"], (1, 0))) + p["lstm.b"]  # (T, 4H)
        hc = ad.lstm_cell(sx, p["lstm.w_hh"], state.h, state.c, starts=episode_starts)
        last = hc.data[-1]
        final = RecurrentState(Value(last[:FEATURE_DIM].copy()), Value(last[FEATURE_DIM:].copy()))
        return hc[:, :FEATURE_DIM], final


class ConvLstmExtractor(_ExtractorBase):
    """Visual/audio extractor: three 32-filter stride-2 convs, then the LSTM."""

    KERNEL = 3
    STRIDE = 2
    PADDING = 1
    FILTERS = 32

    def __init__(self, name: str, input_shape: tuple, seed: int):
        self.name = name
        self.input_shape = tuple(input_shape)
        c, h, w = self.input_shape
        rng = np.random.default_rng(seed)
        self.params = {}
        in_ch = c
        for i in range(3):
            fan = in_ch * self.KERNEL * self.KERNEL
            self.params[f"conv{i + 1}.w"] = Value(
                _uniform(rng, (self.FILTERS, in_ch, self.KERNEL, self.KERNEL), fan), requires_grad=True
            )
            self.params[f"conv{i + 1}.b"] = Value(_uniform(rng, (self.FILTERS,), fan), requires_grad=True)
            in_ch = self.FILTERS
        for _ in range(3):
            h = (h + 2 * self.PADDING - self.KERNEL) // self.STRIDE + 1
            w = (w + 2 * self.PADDING - self.KERNEL) // self.STRIDE + 1
        self.flat_dim = self.FILTERS * h * w
        self.params.update(_lstm_params(rng, self.flat_dim))

    def _conv_stack(self, x: Value) -> Value:
        for i in range(3):
            x = ad.conv2d(
                x, self.params[f"conv{i + 1}.w"], self.params[f"conv{i + 1}.b"], stride=self.STRIDE, padding=self.PADDING
            ).relu()
        return x

    def _embed_single(self, obs: np.ndarray) -> np.ndarray:
        return self._conv_stack(Value(obs)).data.reshape(self.flat_dim)

    def _embed_batch(self, observations) -> Value:
        x = Value(np.stack([np.asarray(o, dtype=np.float64) for o in observations]))
        return self._conv_stack(x).reshape((len(observations), self.flat_dim))


class TextExtractor(_ExtractorBase):
    """Token-sequence extractor: embedding table, TextCNN, then the LSTM."""

    FILTERS = 3
    KERNEL = (1, 2)
    PADDING = (0, 1)

    def __init__(self, name: str, vocab_size: int, seed: int, seq_len: int = TEXT_SEQ_LEN):
        self.name = name
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        self.input_shape = (seq_len,)
        rng = np.random.default_rng(seed)
        self.params = {"embed.table": Value(_uniform(rng, (TEXT_EMBED_DIM, vocab_size), TEXT_EMBED_DIM), requires_grad=True)}
        in_ch = TEXT_EMBED_DIM
        width = seq_len
        for i in range(3):
            fan = in_ch * self.KERNEL[0] * self.KERNEL[1]
            self.params[f"conv{i + 1}.w"] = Value(
                _uniform(rng, (self.FILTERS, in_ch, *self.KERNEL), fan), requires_grad=True
            )
            self.params[f"conv{i + 1}.b"] = Value(_uniform(rng, (self.FILTERS,), fan), requires_grad=True)
            in_ch = self.FILTERS
            width = width + 2 * self.PADDING[1] - self.KERNEL[1] + 1
        self.flat_dim = self.FILTERS * width
        self.params.update(_lstm_params(rng, self.flat_dim))

    def _check_obs(self, obs: np.ndarray):
        obs = np.asarray(obs)
        if obs.shape != (self.seq_len,):
            raise ValueError(f"{self.name}: token sequence shape {obs.shape} != ({self.seq_len},)")
        if obs.max(initial=0) >= self.vocab_size or obs.min(initial=0) < 0:
            raise ValueError(f"{self.name}: token id outside vocabulary of size {self.vocab_size}")

    def _conv_stack(self, x: Value) -> Value:
        for i in range(3):
            x = ad.conv2d(
                x, self.params[f"conv{i + 1}.w"], self.params[f"conv{i + 1}.b"], stride=1, padding=self.PADDING
            ).relu()
        return x

    def _embed_single(self, obs: np.ndarray) -> np.ndarray:
        ids = np.asarray(obs, dtype=np.intp)
        emb = self.params["embed.table"].data[:, ids]  # (E, L)
        return self._conv_stack(Value(emb.reshape(TEXT_EMBED_DIM, 1, self.seq_len))).data.reshape(self.flat_dim)

    def _embed_batch(self, observations) -> Value:
        n = len(observations)
        ids = np.stack([np.asarray(o, dtype=np.intp) for o in observations]).reshape(-1)
        emb = self.params["embed.table"][(slice(None), ids)]  # (E, n*L)
        x = ad.transpose(emb.reshape((TEXT_EMBED_DIM, n, self.seq_len)), (1, 0, 2))
        x = x.reshape((n, TEXT_EMBED_DIM, 1, self.seq_len))
        return self._conv_stack(x).reshape((n, self.flat_dim))


def build_extractor(modality: str, input_shape, seed: int, vocab_size: int | None = None):
    """Construct the extractor matching a modality's observation kind."""
    if modality == "text":
        if vocab_size is None:
            raise ValueError("text extractor needs vocab_size")
        return TextExtractor(modality, vocab_size, seed)
    return ConvLstmExtractor(modality, input_shape, seed)


# -- parameter serialization (JSON: name -> shape + row-major values) -------


def array_payload(arr: np.ndarray) -> dict:
    arr = np.asarray(arr)
    return {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}


def payload_array(payload: dict) -> np.ndarray:
    return np.asarray(payload["data"], dtype=np.float64).reshape(payload["shape"])


def save_arrays(path: str, arrays: dict):
    """Atomically write named arrays as JSON."""
    payload = {name: array_payload(a.data if isinstance(a, Value) else a) for name, a in arrays.items()}
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_arrays(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return {name: payload_array(entry) for name, entry in payload.items()}


def load_into(named_params: dict, arrays: dict):
    """Copy saved arrays into existing parameter Values, in place."""
    for name, param in named_params.items():
        if name not in arrays:
            raise KeyError(f"checkpoint missing parameter {name}")
        arr = arrays[name]
        if arr.shape != param.data.shape:
            raise ValueError(f"parameter {name}: shape {arr.shape} != {param.data.shape}")
        param.data[...] = arr
