"""Importance enhancement: running-stats normalization and softmax modality weights.

Each modality keeps a running mean/variance, refreshed once per rollout
from the rollout's features (population variance, then a soft update with
decay xi). Features are normalized against those stats by the scale
1/sqrt(var + eps), which the caller computes once per span of unchanged
stats (``ModalityStats.scale``), and a per-dimension softmax over
|normalized| across modalities yields the importance coefficients lambda.
xi and eps are ``agent.TrainConfig`` fields (``xi``, ``stats_eps``) passed
to each call, so the stats hold only their two running arrays. The fused
state concatenates lambda-weighted raw features; lambda, mu, and sigma are
constants to the backward pass, so the adjoint reaching a modality is
exactly lambda times the adjoint of its weighted slice, and the
normalization and importance run on plain arrays (``normalize``,
``importance``), once per step on the stack of all modalities. The
baselines fuse the same way with constant lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value


@dataclass
class ModalityStats:
    """Running mean and variance of one modality's features."""

    mu: np.ndarray
    var: np.ndarray

    def update(self, batch: np.ndarray, xi: float) -> "ModalityStats":
        """Blend batch statistics into the running values with decay xi (training only)."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[0] < 1:
            raise ValueError("stats update needs a nonempty (k, L) batch")
        mu_b = batch.mean(axis=0)
        var_b = ((batch - mu_b) ** 2).mean(axis=0)  # population variance
        self.mu = xi * mu_b + (1.0 - xi) * self.mu
        self.var = xi * var_b + (1.0 - xi) * self.var
        return self

    def scale(self, eps: float) -> np.ndarray:
        return 1.0 / np.sqrt(self.var + eps)

    def normalize_array(self, f: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Plain-numpy normalization of (L,) or (T, L) features by ``scale``, the ``self.scale(eps)`` computed once."""
        return normalize(f, self.mu, scale)


def normalize(f: np.ndarray, mu: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``(f - mu) * scale`` on plain arrays: one modality's features against its stats, or a stack of modalities' against theirs."""
    return (f - mu) * scale


def importance(normalized: np.ndarray) -> np.ndarray:
    """Per-dimension softmax of |normalized| across modalities.

    Takes the (M, ...) float64 stack of the modalities' normalized features,
    each (L,) or (T, L), and returns the (M, ...) stack of coefficients:
    constants to any backward pass (the RL gradient treats lambda as a fixed
    multiplier).
    """
    if len(normalized) == 0:
        raise ValueError("importance needs at least one modality")
    return ad.softmax_array(np.abs(normalized), axis=0)


def fuse(raw: list, lambdas: list) -> Value:
    """Concatenate lambda-weighted features into the fused state.

    The adjoint arriving at raw modality m is lambda^m (elementwise) times
    the adjoint of its slice of the fused vector.
    """
    if len(raw) != len(lambdas):
        raise ValueError("fuse: one lambda per modality required")
    weighted = [f * Value(np.asarray(lam)) for f, lam in zip(raw, lambdas)]
    axis = raw[0].data.ndim - 1
    return ad.concat(weighted, axis=axis)
