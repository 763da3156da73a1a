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

``dense_reference`` is ``autodiff.dense`` as the unfused ops computed it: a
matrix product, a bias add and a ReLU, each with its own adjoint.

``adam_reference`` is ``autodiff.Adam.step`` written the direct way, a new
array for each operation of the formulas.

``clip_reference`` is ``autodiff.clip_grad_norm`` one parameter at a time:
each one's squares summed by ``np.sum``, each one's grad scaled alone.

``checkpoint_text`` is ``cli.save_checkpoint``'s file built the direct way:
the whole payload in memory, then one ``json.dumps``.

``modality_step`` is one timestep of one modality alone: the extractor's
LSTM input drive (``_ExtractorBase.forward``), then its own LSTM step spelled
out, the arithmetic ``agent.Trainer._features`` runs for all modalities at
once; ``zero_state`` is the state an episode starts from.
``per_modality_act_step`` is ``agent.Trainer._act_step`` one modality at a
time, as acting ran before it stacked the modalities: each modality's
``modality_step``, then its own normalization, λ, weighted slice of the
fused state and λ-trace mean.
"""

import base64
import json

import numpy as np

from maie import agent as ag
from maie import enhancement as en
from maie.alignment import distance
from maie.autodiff import ADAM_BETAS, ADAM_EPS, Value
from maie.enhancement import ModalityStats
from maie.extractors import FEATURE_DIM, RecurrentState


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
    """Output and (x, w, b) gradients of a conv layer: a (N,C,H,W) by (F,C,kh,kw) convolution, then ReLU.

    ``g`` is the gradient arriving at the (N,F,oh,ow) output; the adjoints
    are those of ``g * (out > 0)``, as the ReLU's adjoint masks ``g``. The
    arithmetic is that of ``autodiff.conv2d``, laid out through a padded
    copy instead of a gather index.
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
    out = np.ascontiguousarray(np.maximum((w_flat @ cols) + b[:, None], 0.0).reshape(f, n, oh, ow).transpose(1, 0, 2, 3))
    g_flat = (g * (out > 0.0)).transpose(1, 0, 2, 3).reshape(f, -1)
    gw = (g_flat @ cols.T).reshape(w.shape)
    gb = g_flat.sum(axis=1)
    gcols = (w_flat.T @ g_flat).reshape(c, kh, kw, n, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += gcols[:, i, j].transpose(1, 0, 2, 3)
    return out, gxp[:, :, ph : ph + h, pw : pw + width], gw, gb


def dense_reference(x, w, b, g, relu: bool):
    """Output and (x, w, b) gradients of a dense layer: ``x @ w``, then ``+ b``, then, if ``relu``, the ReLU.

    ``g`` is the gradient arriving at the (T, N) output. The ReLU's adjoint
    zeroes ``g`` where its input, the pre-activation, is not above 0; the
    bias add passes that masked ``g`` on to the product, and to the bias
    summed over the batch; the product's adjoints are two matrix products.
    """
    pre = x @ w + b
    out, gp = (np.maximum(pre, 0.0), g * (pre > 0.0)) if relu else (pre, g)
    return out, gp @ w.T, x.T @ gp, gp.sum(axis=0)


def adam_reference(opt, params):
    """``opt.step(params)``: the same Adam update of each parameter, with a new array for each operation."""
    b1, b2 = ADAM_BETAS
    for p in params:
        st = opt.state.setdefault(p, [np.zeros_like(p.data), np.zeros_like(p.data), 0])
        m, v, t = st
        t += 1
        m *= b1
        m += (1.0 - b1) * p.grad
        v *= b2
        v += (1.0 - b2) * (p.grad * p.grad)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        st[2] = t


def clip_reference(params, max_norm: float) -> float:
    """``autodiff.clip_grad_norm(params, max_norm)``, one parameter at a time."""
    total = 0.0
    for p in params:
        if p.grad is None:
            raise ValueError("clip_reference: a parameter has no grad")
        total += float(np.sum(p.grad * p.grad))
    norm = total**0.5
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm


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


def _lstm_step(sx, w_hh, h, c):
    """One modality's LSTM step: ``(h', c', gates)``, gate layout [input, forget, cell, output]."""
    hd = h.shape[0]
    z = sx + w_hh @ h
    gates = 1.0 / (1.0 + np.exp(-z))
    gates[2 * hd : 3 * hd] = np.tanh(z[2 * hd : 3 * hd])
    c_new = gates[hd : 2 * hd] * c + gates[:hd] * gates[2 * hd : 3 * hd]
    return gates[3 * hd :] * np.tanh(c_new), c_new, gates


def zero_state() -> RecurrentState:
    """One modality's zero (32,) ``h`` and ``c``, the state every episode starts from."""
    return RecurrentState(np.zeros(FEATURE_DIM), np.zeros(FEATURE_DIM))


def modality_step(ex, obs, state: RecurrentState, drives=None, record=None):
    """One timestep of extractor ``ex`` alone from ``state``: returns (the (32,) feature array, new state).

    ``drives`` and ``record`` are ``ex.forward``'s; the record also gets the
    step's gates and new state.
    """
    sx = ex.forward(obs, ex.acting_arrays(), drives, record)
    h, c, gates = _lstm_step(sx, ex.params["lstm.w_hh"].data, state.h, state.c)
    if record is not None:
        record.append_state(gates, h, c)
    return h, RecurrentState(h, c)


def per_modality_act_step(tr, phase: str, span, buf=None):
    """``tr._act_step(phase, span, buf)`` computed modality by modality; bind it to ``tr`` to replace the stacked step.

    Each extractor computes its drive with no memo, and each modality steps
    its own LSTM row of ``tr._states``, takes its own λ and its weighted
    slice of the fused state, and its own λ-trace mean. The state is
    stacked again after the step, so the trainer's updates read it as
    usual.
    """
    new_episode = tr._obs is None
    if new_episode:
        tr._begin_episode()
    obs = tr._obs.modalities()
    feats, lams, h_rows, c_rows = {}, {}, [], []
    for m in tr.modalities:
        feats[m], state = modality_step(tr.extractors[m], obs[m], tr._states[m], None,
                                        None if buf is None else buf.recorded[m])
        h_rows.append(state.h)
        c_rows.append(state.c)
    tr._states = RecurrentState(np.array(h_rows), np.array(c_rows), tuple(tr.modalities))
    n = len(tr.modalities)
    if tr.use_ie:
        normalized = [(feats[m] - tr.stats[m].mu) * tr.stats[m].scale(tr.cfg.stats_eps) for m in tr.modalities]
        lams = dict(zip(tr.modalities, en.importance(np.stack(normalized))))
    elif tr.cfg.method == "fixed_weights":
        rest = (1.0 - tr.cfg.fixed_weight) / (n - 1) if n > 1 else 1.0
        lams = {m: np.full(feats[m].shape, tr.cfg.fixed_weight if i == 0 else rest) for i, m in enumerate(tr.modalities)}
    else:
        lams = {m: np.ones(feats[m].shape) for m in tr.modalities}
    x = np.concatenate([lams[m] * feats[m] for m in tr.modalities])
    p = tr.head.params
    for i in (1, 2, 3):
        x = x @ p[f"actor{i}.w"].data + p[f"actor{i}.b"].data
        if i < 3:
            x = np.maximum(x, 0.0)
    action = ag.sample_action(x, tr.action_rng)

    step = tr.env.steps
    lam_means = tuple(float(lams[m].sum() / lams[m].size) for m in tr.modalities)
    tr.lambda_rows.append((phase, tr.episode, step, tr.env.last_audio_class, lam_means))
    if step % ag.EMBEDDING_EVERY == 0:
        for m in tr.modalities:
            tr.embedding_rows.append((phase, tr.episode, step, m, feats[m].copy()))
    next_obs, reward, done = tr.env.step(action)
    if buf is not None:
        buf.observations.append(tr._obs)
        buf.episode_starts.append(new_episode)
        buf.actions.append(action)
        buf.rewards.append(reward)
        buf.dones.append(done)
        tr.env_steps += 1
    tr._ep_return += reward
    if done:
        return tr._finish_episode(phase)
    tr._obs = next_obs
    return None
