"""Step-by-step reference forms of the method's losses and normalization.

Training computes the representation loss in one batched pass
(``alignment.srl_loss`` over (T, L) matrices) and normalizes features on
plain arrays (``ModalityStats.normalize_array``). The functions here spell
the same formulas out one timestep and one modality pair at a time, in graph
form, so the tests can compare the batched code against them and
gradient-check them.
"""

import numpy as np

from maie.alignment import distance
from maie.autodiff import Value
from maie.enhancement import ModalityStats


def similarity_loss(features: list, kind: str = "cosine") -> Value:
    """Sum of psi over all ordered modality pairs at one timestep."""
    m = len(features)
    if m < 2:
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


def normalize(f: Value, stats: ModalityStats, eps: float) -> Value:
    """(f - mu)/sqrt(var + eps) with mu, sigma held constant in the graph.

    Accepts a single (L,) feature or a (T, L) stack of them.
    """
    mu, sc = stats.mu, stats.scale(eps)
    if f.data.ndim == 2:
        t = f.data.shape[0]
        mu = np.broadcast_to(mu, (t, mu.shape[0]))
        sc = np.broadcast_to(sc, (t, sc.shape[0]))
    return (f - Value(mu)) * Value(sc)
