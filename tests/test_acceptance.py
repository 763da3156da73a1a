"""Acceptance suite: one test per checked criterion, each printing a pass line.

The criteria checked here are 1 (finite-difference gradients of every op,
of the composite losses and of the whole extractor-to-loss pipeline), 2
(importance weights on the simplex, and the adjoint of each modality equal
to lambda times that of its weighted slice), 3 (running-statistics
convergence), 4 (alignment lowers the cross-modal distance), 5 (the
temporal term prevents collapse) and 10 (bitwise determinism of a run).
None of them trains an agent to convergence; the module takes well under a
minute on two cores. Criteria 6-9, the learning-speed and ablation-ordering
claims, have no test yet.
"""

import itertools
import time

import numpy as np
import pytest

from maie import alignment as al
from maie import autodiff as ad
from maie import enhancement as en
from maie import envs
from maie import extractors as ex
from maie.agent import PolicyValueHead, TrainConfig, Trainer, actor_loss, critic_loss, log_probs_and_entropy
from maie.autodiff import Value

from grad_check import grad_check
from method_oracles import normalize, similarity_loss, temporal_discrimination_loss
from op_cases import CASES, check_op
import accept_helpers as helpers


def _report(n: int, message: str):
    print(f"\n[PASS] criterion {n}: {message}", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------


def test_c01_gradient_fidelity():
    t0 = time.perf_counter()
    worst_overall = 0.0

    # every op kind training records, >= 100 randomized cases each
    for i, kind in enumerate(sorted(CASES)):
        worst = check_op(kind, n_cases=100, seed=1000 + i, rel_tol=1e-4, step=1e-5)
        worst_overall = max(worst_overall, worst)

    rng = np.random.default_rng(7)

    # critic loss (half mean squared error) w.r.t. value inputs
    targets = rng.normal(size=5)
    rep = grad_check(lambda v: critic_loss(v[0], targets), [rng.normal(size=5)], rel_tol=1e-4)
    assert rep.ok, rep.per_input
    worst_overall = max(worst_overall, rep.max_rel_err)

    # actor loss w.r.t. logits, advantages held constant
    adv = rng.normal(size=4)
    actions = [0, 2, 1, 0]

    def f_actor(v):
        logp, ent = log_probs_and_entropy(v[0], actions)
        return actor_loss(logp, adv, ent, entropy_coef=0.01)

    rep = grad_check(f_actor, [rng.normal(size=(4, 3))], rel_tol=1e-4)
    assert rep.ok, rep.per_input
    worst_overall = max(worst_overall, rep.max_rel_err)

    # similarity, temporal, and combined representation losses
    t_len, m, dim = 3, 2, 6
    flats = [rng.normal(size=(t_len, dim)) for _ in range(m)]

    def f_sim(v):
        return similarity_loss([v[0][0], v[1][0]], "cosine")

    def f_td(v):
        seqs = [[v[i][t] for t in range(t_len)] for i in range(m)]
        return temporal_discrimination_loss(seqs, "cosine")

    def f_srl(v):
        return al.srl_loss(list(v), 0.7, 0.2, "cosine", [False] * t_len).total

    for f in (f_sim, f_td, f_srl):
        rep = grad_check(f, flats, rel_tol=1e-4)
        assert rep.ok, rep.per_input
        worst_overall = max(worst_overall, rep.max_rel_err)

    # normalized-fuse path: lambda is stop-gradient by design, so it is
    # frozen at its unperturbed value and enters the graph as a constant
    stats = [en.ModalityStats(mu=rng.normal(size=dim), var=rng.uniform(0.5, 2.0, size=dim)) for _ in range(m)]
    feats0 = [rng.normal(size=dim) for _ in range(m)]
    eps = TrainConfig().stats_eps
    lam_frozen = en.importance(np.stack([s.normalize_array(f, s.scale(eps)) for s, f in zip(stats, feats0)]))

    def f_fuse(v):
        fused = en.fuse(list(v), lam_frozen)
        norm = [normalize(x, s, eps) for x, s in zip(v, stats)]
        return fused.square().sum() + ad.concat(norm, axis=0).square().sum()

    rep = grad_check(f_fuse, feats0, rel_tol=1e-4)
    assert rep.ok, rep.per_input
    worst_overall = max(worst_overall, rep.max_rel_err)

    # end-to-end: extractors -> enhancement -> actor-critic loss, 2-step rollout
    worst_overall = max(worst_overall, helpers.pipeline_grad_check())

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient fidelity suite took {elapsed:.1f}s"
    _report(1, f"all ops + composite losses, max rel err {worst_overall:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: importance simplex + gradient proportionality
# ---------------------------------------------------------------------------


def test_c02_simplex_and_proportionality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dim = 32
    worst_sum = 0.0
    worst_prop = 0.0
    for _ in range(10_000):
        m = int(rng.integers(2, 4))
        feats = [Value(rng.normal(size=dim) * rng.uniform(0.2, 5.0), requires_grad=True) for _ in range(m)]
        lam = en.importance(np.stack([f.data for f in feats]))
        total = np.sum(lam, axis=0)
        worst_sum = max(worst_sum, float(np.abs(total - 1.0).max()))

        weighted = [f * Value(l) for f, l in zip(feats, lam)]
        fused = ad.concat(weighted, axis=0)
        g = rng.normal(size=m * dim)
        ad.backward((fused * Value(g)).sum())
        for i, (f, w) in enumerate(zip(feats, weighted)):
            err = np.abs(f.grad - lam[i] * w.grad).max()
            worst_prop = max(worst_prop, float(err))
    assert worst_sum < 1e-9
    assert worst_prop < 1e-10
    _report(2, f"10k bundles: max |sum(lambda)-1| {worst_sum:.1e}, max adjoint error {worst_prop:.1e} "
               f"in {time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: running statistics convergence
# ---------------------------------------------------------------------------


def test_c03_stats_convergence():
    rng = np.random.default_rng(21)
    mu_star, var_star = 2.0, 1.5**2
    dim = 4
    stats = en.ModalityStats(mu=np.zeros(dim), var=np.ones(dim))
    for _ in range(500):
        stats.update(rng.normal(2.0, 1.5, size=(32, dim)), xi=0.05)
    mu_err = float(np.abs(stats.mu - mu_star).max() / mu_star)
    var_err = float(np.abs(stats.var - var_star).max() / var_star)
    assert mu_err < 0.05, mu_err
    assert var_err < 0.05, var_err
    _report(3, f"after 500 batches of 32 at xi=0.05: mean err {mu_err:.3f}, variance err {var_err:.3f} (< 5%)")


# ---------------------------------------------------------------------------
# criterion 4: alignment effect
# ---------------------------------------------------------------------------


def test_c04_alignment_reduces_cross_modal_distance():
    d0, d1, steps = helpers.alignment_effect(seed=1)
    assert d1 <= 0.5 * d0, (d0, d1)
    _report(4, f"mean cross-modal cosine distance {d0:.3f} -> {d1:.3f} after {steps} steps (>= 50% drop)")


# ---------------------------------------------------------------------------
# criterion 5: temporal discrimination effect
# ---------------------------------------------------------------------------


def test_c05_temporal_discrimination_prevents_collapse():
    results = []
    for seed in (1, 2, 3):
        with_td = helpers.temporal_effect(seed, c_td=0.01)
        without = helpers.temporal_effect(seed, c_td=0.0)
        assert with_td >= 0.1, f"seed {seed}: with_td={with_td}"
        assert without < 0.1, f"seed {seed}: collapse expected, got {without}"
        assert without < with_td
        results.append((with_td, without))
    msg = ", ".join(f"{w:.2f} vs {wo:.4f}" for w, wo in results)
    _report(5, f"consecutive-step distance with vs without the temporal term (3 seeds): {msg}")


# ---------------------------------------------------------------------------
# criterion 10: bitwise determinism
# ---------------------------------------------------------------------------


def test_c10_determinism(tmp_path):
    from maie import cli

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = cli.RunConfig(env="mining", method="maie", seed=123, episodes=3,
                            rollout_length=8, out=str(out))
        assert cli.run(cfg) == 0
        outs.append(out)
    a = (outs[0] / "metrics.csv").read_bytes()
    b = (outs[1] / "metrics.csv").read_bytes()
    assert a == b
    assert (outs[0] / "lambda_trace.csv").read_bytes() == (outs[1] / "lambda_trace.csv").read_bytes()
    _report(10, "identical config twice -> byte-identical metrics.csv (and lambda_trace.csv)")
