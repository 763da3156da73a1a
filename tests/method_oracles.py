"""Step-by-step reference forms of the method's losses and normalization.

Training computes the representation loss in one batched pass
(``alignment.srl_loss`` over (T, L) matrices) and normalizes features on
plain arrays (``ModalityStats.normalize_array``). The functions here spell
the same formulas out one timestep and one modality pair at a time, in graph
form, so the tests can compare the batched code against them and
gradient-check them.

``conv2d_reference`` does the same for ``autodiff.conv2d``: it pads the input
into a copy, reads the patch matrix through a strided view and scatters the
input gradient back with one strided ``+=`` per kernel tap.

``checkpoint_text`` is ``cli.save_checkpoint``'s file built the direct way:
the whole payload in memory, then one ``json.dumps``.
"""

import base64
import json

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


def conv2d_reference(x, w, b, g, stride: tuple, padding: tuple):
    """Output and (x, w, b) gradients of a (N,C,H,W) by (F,C,kh,kw) convolution.

    ``g`` is the gradient arriving at the (N,F,oh,ow) output. The arithmetic
    is that of ``autodiff.conv2d``, laid out through a padded copy instead of
    a gather index.
    """
    n, c, h, width = x.shape
    f, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (width + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, width + 2 * pw))
    xp[:, :, ph : ph + h, pw : pw + width] = x
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, n, oh, ow), (s1, s2, s3, s0, s2 * sh, s3 * sw), writeable=False
    )
    cols = win.reshape(c * kh * kw, n * oh * ow)
    w_flat = w.reshape(f, -1)
    out = np.ascontiguousarray(((w_flat @ cols) + b[:, None]).reshape(f, n, oh, ow).transpose(1, 0, 2, 3))
    g_flat = g.transpose(1, 0, 2, 3).reshape(f, -1)
    gw = (g_flat @ cols.T).reshape(w.shape)
    gb = g_flat.sum(axis=1)
    gcols = (w_flat.T @ g_flat).reshape(c, kh, kw, n, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
    return out, gxp[:, :, ph : ph + h, pw : pw + width], gw, gb


def checkpoint_text(trainer) -> str:
    """The ``maie-checkpoint-v2`` text of ``trainer``: one dict of the whole payload, dumped at once."""
    cfg, params = trainer.cfg, trainer.named_parameters()

    def moment(arr):
        return base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii")

    payload = {
        "format": "maie-checkpoint-v2",
        "params": {k: {"shape": list(v.data.shape), "data": v.data.reshape(-1).tolist()} for k, v in params.items()},
        "stats": {m: {"mu": st.mu.tolist(), "var": st.var.tolist(), "xi": cfg.xi, "eps": cfg.stats_eps}
                  for m, st in trainer.stats.items()},
        "adam": {str(i): {"shape": list(trainer.opt.state[p][0].shape), "t": trainer.opt.state[p][2],
                          "m": moment(trainer.opt.state[p][0]), "v": moment(trainer.opt.state[p][1])}
                 for i, p in enumerate(params.values()) if p in trainer.opt.state},
    }
    return json.dumps(payload, separators=(",", ":"))
