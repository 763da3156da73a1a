"""Multimodal gridworld benchmark environments."""

from .base import AUDIO_SIZE, AudioRenderer, GridEnv, MultimodalObservation
from .mining import VOCAB, MiningEnv, encode_text
from .navigation import AvNavEnv, HeteroNavEnv, TargetSelectEnv

ENV_NAMES = ("hetero_nav", "target_select", "av_nav", "mining", "mining_plus")


def make_env(name: str, seed: int) -> GridEnv:
    """Build a benchmark environment by name."""
    if name == "hetero_nav":
        return HeteroNavEnv(seed)
    if name == "target_select":
        return TargetSelectEnv(seed)
    if name == "av_nav":
        return AvNavEnv(seed)
    if name == "mining":
        return MiningEnv(seed, plus=False)
    if name == "mining_plus":
        return MiningEnv(seed, plus=True)
    raise ValueError(f"unknown environment {name!r}; choose from {ENV_NAMES}")


__all__ = [
    "AUDIO_SIZE",
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
