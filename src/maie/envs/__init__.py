"""Multimodal gridworld benchmark environments."""

from .base import AUDIO_SIZE, NOISY_MODALITIES, AudioRenderer, GridEnv, MultimodalObservation
from .mining import VOCAB, MiningEnv, encode_text
from .navigation import AvNavEnv, HeteroNavEnv, TargetSelectEnv

_CONSTRUCTORS = {
    "hetero_nav": HeteroNavEnv,
    "target_select": TargetSelectEnv,
    "av_nav": AvNavEnv,
    "mining": lambda seed: MiningEnv(seed, plus=False),
    "mining_plus": lambda seed: MiningEnv(seed, plus=True),
}
ENV_NAMES = tuple(_CONSTRUCTORS)


def make_env(name: str, seed: int) -> GridEnv:
    """Build a benchmark environment by name."""
    if name not in _CONSTRUCTORS:
        raise ValueError(f"unknown environment {name!r}; choose from {ENV_NAMES}")
    return _CONSTRUCTORS[name](seed)


__all__ = [
    "AUDIO_SIZE",
    "NOISY_MODALITIES",
    "AudioRenderer",
    "GridEnv",
    "MultimodalObservation",
    "MiningEnv",
    "HeteroNavEnv",
    "TargetSelectEnv",
    "AvNavEnv",
    "VOCAB",
    "encode_text",
    "make_env",
    "ENV_NAMES",
]
