"""Heavier machinery for the acceptance suite: the pipeline gradient check
(criterion 1) and the alignment and temporal-term effects (criteria 4 and 5).
"""

import numpy as np

from maie import alignment as al
from maie import autodiff as ad
from maie import enhancement as en
from maie import extractors as ex
from maie.agent import PolicyValueHead, TrainConfig, actor_loss, critic_loss, compute_returns, log_probs_and_entropy
from maie.autodiff import Value

from grad_check import grad_check


# -- criterion 1: end-to-end pipeline gradient check -------------------------


def pipeline_grad_check() -> float:
    """FD-check the full extractor -> enhancement -> actor-critic loss graph.

    Lambda, return targets, and advantages are frozen at their unperturbed
    values (they are constants to the backward pass by design). Gradients
    are checked for a subset of parameters: the conv biases, an LSTM bias,
    and the output layers of both heads.
    """
    rng = np.random.default_rng(3)
    e1 = ex.ConvLstmExtractor("visual", (1, 5, 5), seed=31)
    e2 = ex.ConvLstmExtractor("audio", (1, 6, 6), seed=32)
    head = PolicyValueHead(input_dim=64, n_actions=3, seed=33)
    stats = [en.ModalityStats(mu=np.zeros(32), var=np.ones(32)) for _ in range(2)]
    eps = TrainConfig().stats_eps
    obs1 = [rng.random((1, 5, 5)) for _ in range(2)]
    obs2 = [rng.random((1, 6, 6)) for _ in range(2)]
    starts = [True, False]
    actions = [0, 2]
    rewards = [0.3, -0.2]

    def forward_losses(lam_frozen=None, targets=None):
        f1, _ = e1.forward_sequence(obs1, starts, e1.initial_state())
        f2, _ = e2.forward_sequence(obs2, starts, e2.initial_state())
        mats = [f1, f2]  # (T, 32) feature matrices
        if lam_frozen is None:
            lam_frozen = en.importance([s.normalize_array(m.data, s.scale(eps)) for s, m in zip(stats, mats)])
        fused = ad.concat([m * Value(l) for m, l in zip(mats, lam_frozen)], axis=1)
        logits = head.actor_logits(fused)
        values = head.critic_values(fused)
        if targets is None:
            boot = float(values.data[-1])
            returns = compute_returns(rewards, [False, False], 0.9, boot)
            targets = (returns, returns - values.data)
        returns, adv = targets
        logp, ent = log_probs_and_entropy(logits, actions)
        loss = actor_loss(logp, adv, ent, 0.01) + 0.5 * critic_loss(values, returns)
        return loss, lam_frozen, targets

    _, lam_frozen, targets = forward_losses()

    checked = [
        (e1.params, "conv1.b"),
        (e2.params, "conv2.b"),
        (e1.params, "lstm.b"),
        (head.params, "actor3.w"),
        (head.params, "actor3.b"),
        (head.params, "critic3.w"),
        (head.params, "critic3.b"),
    ]
    originals = [(holder, name, holder[name]) for holder, name in checked]

    def f(vals):
        for (holder, name, _), v in zip(originals, vals):
            holder[name] = v
        try:
            loss, _, _ = forward_losses(lam_frozen, targets)
            return loss
        finally:
            for holder, name, orig in originals:
                holder[name] = orig

    inputs = [orig.data.copy() for _, _, orig in originals]
    report = grad_check(f, inputs, rel_tol=1e-4)
    assert report.ok, report.per_input
    return report.max_rel_err


# -- criteria 4/5: representation-learning effects ---------------------------


def alignment_effect(seed: int, max_steps: int = 500):
    """Optimize the similarity loss alone on paired synthetic observations."""
    rng = np.random.default_rng(seed)
    t_len = 6
    e1 = ex.ConvLstmExtractor("visual", (2, 10, 10), seed=seed)
    e2 = ex.ConvLstmExtractor("audio", (1, 16, 16), seed=seed + 100)
    obs1 = [rng.random((2, 10, 10)) for _ in range(t_len)]
    obs2 = [rng.random((1, 16, 16)) for _ in range(t_len)]
    starts = [True] + [False] * (t_len - 1)
    params = [*e1.params.values(), *e2.params.values()]
    opt = ad.Adam(lr=1e-3)

    def mean_cross_distance():
        f1, _ = e1.forward_sequence(obs1, starts, e1.initial_state())
        f2, _ = e2.forward_sequence(obs2, starts, e2.initial_state())
        return float(np.mean([al.distance(a, b, "cosine").data.item() for a, b in zip(f1, f2)]))

    d0 = mean_cross_distance()
    for step in range(1, max_steps + 1):
        f1, _ = e1.forward_sequence(obs1, starts, e1.initial_state())
        f2, _ = e2.forward_sequence(obs2, starts, e2.initial_state())
        loss = al.srl_loss([f1, f2], 1.0, 0.0, "cosine", starts).total
        ad.backward(loss)
        opt.step(params)
        ad.zero_grads(params)
        if step % 50 == 0 and mean_cross_distance() <= 0.4 * d0:
            break
    return d0, mean_cross_distance(), step


def temporal_effect(seed: int, c_td: float, steps: int = 400) -> float:
    """Joint SRL optimization with one modality frozen in time.

    Returns the varying modality's mean consecutive-step cosine distance.
    """
    rng = np.random.default_rng(seed)
    t_len = 6
    e_const = ex.ConvLstmExtractor("visual", (2, 10, 10), seed=seed)
    e_vary = ex.ConvLstmExtractor("audio", (1, 16, 16), seed=seed + 100)
    const_obs = [rng.random((2, 10, 10))] * t_len
    vary_obs = [rng.random((1, 16, 16)) for _ in range(t_len)]
    starts = [True] + [False] * (t_len - 1)
    params = [*e_const.params.values(), *e_vary.params.values()]
    opt = ad.Adam(lr=1e-3)
    for _ in range(steps):
        f1, _ = e_const.forward_sequence(const_obs, starts, e_const.initial_state())
        f2, _ = e_vary.forward_sequence(vary_obs, starts, e_vary.initial_state())
        loss = al.srl_loss([f1, f2], 0.1, c_td, "cosine", starts).total
        ad.backward(loss)
        opt.step(params)
        ad.zero_grads(params)
    f2, _ = e_vary.forward_sequence(vary_obs, starts, e_vary.initial_state())
    return float(np.mean([al.distance(f2[t], f2[t + 1], "cosine").data.item() for t in range(t_len - 1)]))
