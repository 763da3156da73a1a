"""State-representation losses: cross-modal similarity and temporal discrimination.

The similarity term pulls the per-modality features of the same timestep
together under a distance psi (sum over ordered modality pairs, both
directions). The temporal term is the negated sum of distances between
consecutive features of the same modality, keeping each modality
discriminative over time while alignment pressure smooths it. The
combined loss is c_sim * (per-timestep similarity, averaged over the
rollout) + c_td * temporal term; its gradient reaches only the extractor
parameters because nothing downstream of the features participates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Value

log = logging.getLogger(__name__)

COSINE_EPS = 1e-8

DISTANCE_KINDS = ("cosine", "squared_euclidean")


@dataclass
class AlignmentConfig:
    c_sim: float = 0.1
    c_td: float = 0.01
    distance_kind: str = "cosine"

    def __post_init__(self):
        if self.c_sim < 0 or self.c_td < 0:
            raise ValueError("scaling constants must be nonnegative")
        if self.distance_kind not in DISTANCE_KINDS:
            raise ValueError(f"distance_kind must be one of {DISTANCE_KINDS}")


def distance(f_a: Value, f_b: Value, kind: str = "cosine") -> Value:
    """Symmetric nonnegative distance between two equal-length feature vectors.

    cosine: 1 - <a,b>/(|a||b| + eps), bounded in [0, 2].
    squared_euclidean: |a-b|^2 / L.
    """
    if f_a.data.shape != f_b.data.shape:
        raise ValueError(f"distance: feature lengths differ, {f_a.data.shape} vs {f_b.data.shape}")
    if kind == "cosine":
        dot = (f_a * f_b).sum()
        na = f_a.square().sum().sqrt()
        nb = f_b.square().sum().sqrt()
        return 1.0 - dot / (na * nb + COSINE_EPS)
    if kind == "squared_euclidean":
        return (f_a - f_b).square().sum() / float(f_a.data.shape[-1])
    raise ValueError(f"unknown distance kind {kind!r}")


def _rowwise_distance(a: Value, b: Value, kind: str) -> Value:
    """Distance between corresponding rows of two (T, L) feature matrices."""
    if kind == "cosine":
        dot = (a * b).sum(axis=1)
        na = a.square().sum(axis=1).sqrt()
        nb = b.square().sum(axis=1).sqrt()
        return 1.0 - dot / (na * nb + COSINE_EPS)
    return (a - b).square().sum(axis=1) / float(a.data.shape[1])


def similarity_loss(features: list, kind: str = "cosine") -> Value:
    """Sum of psi over all ordered modality pairs at one timestep."""
    m = len(features)
    if m < 2:
        log.debug("similarity loss degenerate: %d modality", m)
        return Value(0.0)
    total = None
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = distance(features[i], features[j], kind)
            total = d if total is None else total + d
    return total


def temporal_discrimination_loss(sequences: list, kind: str = "cosine", episode_starts=None) -> Value:
    """Negated sum of consecutive-step distances per modality.

    Pairs that straddle an episode boundary (episode_starts[t+1] true) are
    skipped: features from different episodes carry no temporal relation.
    """
    if not sequences or len(sequences[0]) < 2:
        log.debug("temporal discrimination degenerate: T < 2")
        return Value(0.0)
    t_len = len(sequences[0])
    total = None
    for seq in sequences:
        for t in range(t_len - 1):
            if episode_starts is not None and episode_starts[t + 1]:
                continue
            d = distance(seq[t], seq[t + 1], kind)
            total = d if total is None else total + d
    if total is None:
        return Value(0.0)
    return -total


@dataclass
class SrlLossParts:
    total: Value
    sim: float
    td: float


def srl_loss(mats: list, cfg: AlignmentConfig, episode_starts=None) -> SrlLossParts:
    """Combined representation loss over a rollout, computed batched.

    ``mats`` holds one (T, L) feature matrix per modality, row t being the
    features of step t. The similarity term is averaged over timesteps so
    c_sim has the same meaning at any rollout length. Exploits psi's
    symmetry: each unordered modality pair is evaluated once and counted
    twice.
    """
    m = len(mats)
    t_len = mats[0].data.shape[0] if m else 0

    sim_total = None
    if m >= 2:
        for i in range(m):
            for j in range(i + 1, m):
                d = _rowwise_distance(mats[i], mats[j], cfg.distance_kind).sum()
                sim_total = d if sim_total is None else sim_total + d
        sim_total = 2.0 * sim_total / float(t_len)
    else:
        log.debug("similarity loss degenerate: %d modality", m)
        sim_total = Value(0.0)

    td_total = None
    if t_len >= 2:
        if episode_starts is None:
            mask = np.ones(t_len - 1)
        else:
            mask = np.array([0.0 if episode_starts[t + 1] else 1.0 for t in range(t_len - 1)])
        for mat in mats:
            d = _rowwise_distance(mat[: t_len - 1], mat[1:], cfg.distance_kind)
            masked = (d * Value(mask)).sum()
            td_total = masked if td_total is None else td_total + masked
        td_total = -td_total
    else:
        log.debug("temporal discrimination degenerate: T < 2")
        td_total = Value(0.0)

    total = cfg.c_sim * sim_total + cfg.c_td * td_total
    return SrlLossParts(total=total, sim=float(sim_total.data), td=float(td_total.data))
