import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maie import autodiff as ad
from maie import enhancement as en
from maie.agent import TrainConfig
from maie.autodiff import Value

from grad_check import grad_check
from method_oracles import normalize

CFG = TrainConfig()  # the trainer's xi and stats_eps


def _fresh(dim):
    """The stats a trainer starts from: zero mean, unit variance."""
    return en.ModalityStats(mu=np.zeros(dim), var=np.ones(dim))


def test_normalize_centering():
    stats = en.ModalityStats(mu=np.array([1.0, -2.0]), var=np.ones(2))
    out = normalize(Value(np.array([1.0, -2.0])), stats, 0.0)
    np.testing.assert_allclose(out.data, [0.0, 0.0])


def test_normalize_hand_example():
    # (3 - 1) / sqrt(4 + 0) = 1
    stats = en.ModalityStats(mu=np.array([1.0]), var=np.array([4.0]))
    out = normalize(Value(np.array([3.0])), stats, 0.0)
    np.testing.assert_allclose(out.data, [1.0])


def test_normalize_zero_variance_guarded():
    stats = en.ModalityStats(mu=np.zeros(3), var=np.zeros(3))
    out = normalize(Value(np.array([1.0, -1.0, 0.5])), stats, 1e-5)
    assert np.isfinite(out.data).all()


def test_normalize_matrix_matches_per_row():
    rng = np.random.default_rng(0)
    stats = en.ModalityStats(mu=rng.normal(size=4), var=rng.uniform(0.5, 2, size=4))
    rows = rng.normal(size=(3, 4))
    batched = normalize(Value(rows), stats, CFG.stats_eps).data
    for i in range(3):
        np.testing.assert_allclose(batched[i], normalize(Value(rows[i]), stats, CFG.stats_eps).data, atol=1e-14)


def test_update_stats_batch_statistics():
    stats = _fresh(1)
    stats.update(np.array([[1.0], [3.0]]), xi=1.0)
    np.testing.assert_allclose(stats.mu, [2.0])
    np.testing.assert_allclose(stats.var, [1.0])  # population variance, divisor |B|


def test_update_stats_soft_blend():
    stats = en.ModalityStats(mu=np.zeros(1), var=np.ones(1))
    stats.update(np.array([[2.0], [2.0]]), xi=0.1)
    np.testing.assert_allclose(stats.mu, [0.2])
    np.testing.assert_allclose(stats.var, [0.9])  # batch var 0 blended with 1


def test_update_stats_empty_batch_errors():
    stats = _fresh(2)
    with pytest.raises(ValueError, match="nonempty"):
        stats.update(np.zeros((0, 2)), CFG.xi)


def test_importance_symmetric_inputs():
    lam = en.importance(np.zeros((2, 4)))
    np.testing.assert_allclose(lam[0], 0.5)
    np.testing.assert_allclose(lam[1], 0.5)


def test_importance_scalar_example():
    lam = en.importance(np.array([[1.0], [0.0]]))
    e = np.e
    assert lam[0][0] == pytest.approx(e / (e + 1.0))  # ~0.7311
    assert lam[1][0] == pytest.approx(1.0 / (e + 1.0))


def test_importance_single_modality_is_one():
    lam = en.importance(np.array([[3.0, -2.0]]))
    np.testing.assert_allclose(lam[0], 1.0)


def test_importance_length_mismatch():
    with pytest.raises(ValueError, match="same shape"):  # the modalities' features do not stack
        en.importance(np.stack([np.zeros(3), np.zeros(4)]))


def test_importance_sign_invariant():
    lam_pos = en.importance(np.array([[1.5], [0.5]]))
    lam_neg = en.importance(np.array([[-1.5], [-0.5]]))
    np.testing.assert_allclose(lam_pos[0], lam_neg[0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_importance_simplex_invariant(seed, m):
    rng = np.random.default_rng(seed)
    fhats = np.stack([rng.normal(size=6) * rng.uniform(0.1, 10) for _ in range(m)])
    lam = en.importance(fhats)
    total = np.sum(lam, axis=0)
    np.testing.assert_allclose(total, 1.0, atol=1e-9)
    assert all((l > 0).all() for l in lam)


def test_importance_monotonicity():
    rng = np.random.default_rng(7)
    base = [rng.normal(size=5), rng.normal(size=5)]
    lam0 = en.importance(np.stack(base))
    bigger = [base[0].copy(), base[1].copy()]
    bigger[0][2] = abs(bigger[0][2]) * 2 + 1.0
    lam1 = en.importance(np.stack(bigger))
    assert lam1[0][2] > lam0[0][2]


def test_fuse_unit_lambda_is_plain_concat():
    a, b = Value(np.array([1.0, 2.0])), Value(np.array([3.0, 4.0]))
    fused = en.fuse([a, b], [np.ones(2), np.ones(2)])
    np.testing.assert_array_equal(fused.data, [1.0, 2.0, 3.0, 4.0])


def test_fuse_halving_lambda():
    fused = en.fuse([Value(np.array([2.0, 4.0]))], [np.full(2, 0.5)])
    np.testing.assert_array_equal(fused.data, [1.0, 2.0])


def test_fuse_adjoint_is_lambda_times_upstream():
    rng = np.random.default_rng(8)
    raw = [Value(rng.normal(size=4), requires_grad=True) for _ in range(3)]
    lam = en.importance(np.stack([normalize(f, _fresh(4), CFG.stats_eps).data for f in raw]))
    fused = en.fuse(raw, lam)
    g = rng.normal(size=12)
    ad.backward((fused * Value(g)).sum())
    for i, f in enumerate(raw):
        np.testing.assert_allclose(f.grad, lam[i] * g[4 * i : 4 * (i + 1)], atol=1e-10)


def test_fuse_gradient_against_finite_differences():
    rng = np.random.default_rng(9)
    lam = en.importance(rng.normal(size=(2, 4)))

    def f(vals):
        return en.fuse(list(vals), lam).square().sum()

    report = grad_check(f, [rng.normal(size=4), rng.normal(size=4)])
    assert report.ok


def test_fixed_weight_fuse_examples():
    # the fixed-weights baseline fuses with constant lambda
    a, b = Value(np.array([1.0])), Value(np.array([1.0]))
    np.testing.assert_array_equal(en.fuse([a, b], [np.full(1, 1.0), np.full(1, 1.0)]).data, [1.0, 1.0])
    np.testing.assert_array_equal(en.fuse([a, b], [np.full(1, 0.9), np.full(1, 0.1)]).data, [0.9, 0.1])


def test_fixed_weight_zero_blocks_gradient():
    a = Value(np.array([1.0, 2.0]), requires_grad=True)
    b = Value(np.array([3.0, 4.0]), requires_grad=True)
    ad.backward(en.fuse([a, b], [np.zeros(2), np.ones(2)]).sum())
    np.testing.assert_array_equal(a.grad, [0.0, 0.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_fixed_weight_range_validation():
    with pytest.raises(ValueError, match="0, 1"):
        TrainConfig(fixed_weight=1.5)


def test_enhance_bundle_consistency():
    # the full normalize -> importance -> fuse path for one step
    rng = np.random.default_rng(10)
    feats = [Value(rng.normal(size=4)) for _ in range(2)]
    stats = [_fresh(4) for _ in range(2)]
    lam = en.importance(np.stack([normalize(f, s, CFG.stats_eps).data for f, s in zip(feats, stats)]))
    fused = en.fuse(feats, lam)
    weighted = [l * f.data for f, l in zip(feats, lam)]
    for i, w in enumerate(weighted):
        np.testing.assert_array_equal(fused.data[4 * i : 4 * (i + 1)], w)  # exact elementwise product
    np.testing.assert_array_equal(fused.data, np.concatenate(weighted))


def test_stats_convergence_quick():
    rng = np.random.default_rng(11)
    mu_star, sigma_star = 2.0, 1.5
    stats = _fresh(4)
    for _ in range(300):
        stats.update(rng.normal(mu_star, sigma_star, size=(64, 4)), xi=0.1)
    assert np.abs(stats.mu - mu_star).max() / mu_star < 0.1
    assert np.abs(stats.var - sigma_star**2).max() / sigma_star**2 < 0.15


def test_frozen_stats_give_identical_outputs():
    rng = np.random.default_rng(12)
    stats = en.ModalityStats(mu=rng.normal(size=4), var=rng.uniform(0.5, 2, size=4))
    f = rng.normal(size=4)
    a = normalize(Value(f), stats, CFG.stats_eps).data
    b = normalize(Value(f), stats, CFG.stats_eps).data
    np.testing.assert_array_equal(a, b)
