"""State-representation losses: cross-modal similarity and temporal discrimination.

The similarity term pulls the per-modality features of the same timestep
together under a distance psi (sum over ordered modality pairs, both
directions). The temporal term is the negated sum of distances between
consecutive features of the same modality, keeping each modality
discriminative over time while alignment pressure smooths it. The
combined loss is c_sim * (per-timestep similarity, averaged over the
rollout) + c_td * temporal term; its gradient reaches only the extractor
parameters because nothing downstream of the features participates.

``srl_loss`` computes both terms at once over (T, L) feature matrices, with
``distance`` evaluated row by row. c_sim, c_td and the distance kind are
``agent.TrainConfig`` fields, declared and checked there and passed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Value

COSINE_EPS = 1e-8

DISTANCE_KINDS = ("cosine", "squared_euclidean")


def distance(f_a: Value, f_b: Value, kind: str) -> Value:
    """Symmetric nonnegative distance between feature vectors, over the last axis.

    Two (L,) vectors give a scalar; two (T, L) matrices give the (T,)
    distances between corresponding rows.
    cosine: 1 - <a,b>/(|a||b| + eps), bounded in [0, 2].
    squared_euclidean: |a-b|^2 / L.
    """
    if f_a.data.shape != f_b.data.shape:
        raise ValueError(f"distance: feature lengths differ, {f_a.data.shape} vs {f_b.data.shape}")
    if kind == "cosine":
        dot = (f_a * f_b).sum(axis=-1)
        na = f_a.square().sum(axis=-1).sqrt()
        nb = f_b.square().sum(axis=-1).sqrt()
        return 1.0 - dot / (na * nb + COSINE_EPS)
    if kind == "squared_euclidean":
        return (f_a - f_b).square().sum(axis=-1) / float(f_a.data.shape[-1])
    raise ValueError(f"unknown distance kind {kind!r}")


@dataclass
class SrlLossParts:
    total: Value
    sim: float
    td: float


def srl_loss(mats: list, c_sim: float, c_td: float, distance_kind: str, episode_starts) -> SrlLossParts:
    """Combined representation loss over a rollout, computed batched.

    ``mats`` holds one (T, L) feature matrix per modality, row t being the
    features of step t. The similarity term is averaged over timesteps so
    c_sim has the same meaning at any rollout length. Exploits psi's
    symmetry: each unordered modality pair is evaluated once and counted
    twice. Consecutive pairs that straddle an episode start
    (``episode_starts[t+1]`` true) are left out of the temporal term:
    features from different episodes carry no temporal relation.
    """
    m = len(mats)
    t_len = mats[0].data.shape[0] if m else 0
    if m < 2 or t_len < 2:
        raise ValueError(f"srl_loss needs at least two modalities and two steps, got {m} and {t_len}")

    sim_total = None
    for i in range(m):
        for j in range(i + 1, m):
            d = distance(mats[i], mats[j], distance_kind).sum()
            sim_total = d if sim_total is None else sim_total + d
    sim_total = 2.0 * sim_total / float(t_len)

    mask = np.array([0.0 if episode_starts[t + 1] else 1.0 for t in range(t_len - 1)])
    td_total = None
    for mat in mats:
        d = distance(mat[: t_len - 1], mat[1:], distance_kind)
        masked = (d * Value(mask)).sum()
        td_total = masked if td_total is None else td_total + masked
    td_total = -td_total

    total = c_sim * sim_total + c_td * td_total
    return SrlLossParts(total=total, sim=float(sim_total.data), td=float(td_total.data))
