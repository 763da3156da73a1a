import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maie import alignment as al
from maie import autodiff as ad
from maie.autodiff import Value

from grad_check import grad_check
from method_oracles import similarity_loss, temporal_discrimination_loss


def V(x):
    return Value(np.asarray(x, dtype=np.float64))


def _mats(seqs):
    """Per-modality lists of per-step features -> the (T, L) matrices srl_loss takes."""
    return [V(np.stack([f.data for f in seq])) for seq in seqs]


def test_cosine_self_distance_is_zero():
    v = V([1.0, 2.0, -3.0])
    d = al.distance(v, v, "cosine")
    assert abs(d.data.item()) < 1e-7


def test_cosine_antipodal_distance_is_two():
    v = V([0.5, -1.5, 2.0])
    d = al.distance(v, V(-v.data), "cosine")
    assert d.data.item() == pytest.approx(2.0, abs=1e-7)


def test_squared_euclidean_example():
    d = al.distance(V([1.0, 0.0]), V([0.0, 1.0]), "squared_euclidean")
    assert d.data.item() == pytest.approx(1.0)


def test_distance_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        al.distance(V([1.0, 2.0]), V([1.0, 2.0, 3.0]), "cosine")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["cosine", "squared_euclidean"]), st.integers(0, 5))
def test_distance_symmetry(seed, kind, t_len):
    # t_len 0 draws two (8,) vectors, otherwise two (t_len, 8) matrices
    rng = np.random.default_rng(seed)
    shape = (t_len, 8) if t_len else (8,)
    a, b = V(rng.normal(size=shape)), V(rng.normal(size=shape))
    d_ab = al.distance(a, b, kind).data
    assert np.shape(d_ab) == shape[:-1]
    assert np.abs(d_ab - al.distance(b, a, kind).data).max() < 1e-12
    for t in range(t_len):  # each row of a matrix distance is the vector distance of that row
        assert abs(d_ab[t] - al.distance(V(a.data[t]), V(b.data[t]), kind).data.item()) < 1e-12


def test_similarity_zero_for_identical_modalities():
    f = V([1.0, 2.0, 3.0])
    for kind in al.DISTANCE_KINDS:
        assert similarity_loss([f, V(f.data.copy()), V(f.data.copy())], kind).data.item() == pytest.approx(0.0, abs=1e-7)


def test_similarity_two_modalities_is_twice_distance():
    rng = np.random.default_rng(0)
    a, b = V(rng.normal(size=6)), V(rng.normal(size=6))
    loss = similarity_loss([a, b], "cosine")
    assert loss.data.item() == pytest.approx(2.0 * al.distance(a, b, "cosine").data.item(), rel=1e-12)


def test_similarity_three_orthogonal_unit_vectors():
    e = np.eye(3)
    loss = similarity_loss([V(e[0]), V(e[1]), V(e[2])], "cosine")
    assert loss.data.item() == pytest.approx(6.0, abs=1e-6)


def test_similarity_single_modality_degenerates_to_zero():
    assert similarity_loss([V([1.0, 2.0])]).data.item() == 0.0


def test_temporal_constant_sequence_is_zero():
    f = V([1.0, -1.0, 2.0])
    seq = [[f, V(f.data.copy()), V(f.data.copy())]]
    assert temporal_discrimination_loss(seq, "cosine").data.item() == pytest.approx(0.0, abs=1e-7)


def test_temporal_single_orthogonal_pair():
    seq = [[V([1.0, 0.0]), V([0.0, 1.0])]]
    assert temporal_discrimination_loss(seq, "cosine").data.item() == pytest.approx(-1.0, abs=1e-7)


def test_temporal_two_modalities_four_unit_terms():
    # two modalities, T=3, every consecutive pair orthogonal: 4 terms of -1
    m1 = [V([1.0, 0.0]), V([0.0, 1.0]), V([1.0, 0.0])]
    m2 = [V([0.0, 2.0]), V([2.0, 0.0]), V([0.0, 2.0])]
    loss = temporal_discrimination_loss([m1, m2], "cosine")
    assert loss.data.item() == pytest.approx(-4.0, abs=1e-6)


def test_temporal_short_sequence_degenerates_to_zero():
    assert temporal_discrimination_loss([[V([1.0, 0.0])]]).data.item() == 0.0


def test_srl_zero_coefficients():
    rng = np.random.default_rng(1)
    seqs = [[V(rng.normal(size=4)) for _ in range(3)] for _ in range(2)]
    assert al.srl_loss(_mats(seqs), 0.0, 0.0, "cosine", [False] * 3).total.data.item() == 0.0


def test_srl_combines_linearly():
    rng = np.random.default_rng(2)
    seqs = [[V(rng.normal(size=5)) for _ in range(4)] for _ in range(2)]
    parts = al.srl_loss(_mats(seqs), 1.0, 1.0, "cosine", [False] * 4)
    sim = np.mean([similarity_loss([s[t] for s in seqs], "cosine").data.item() for t in range(4)])
    td = temporal_discrimination_loss(seqs, "cosine").data.item()
    assert parts.total.data.item() == pytest.approx(sim + td, rel=1e-10)
    assert parts.sim == pytest.approx(sim, rel=1e-10)
    assert parts.td == pytest.approx(td, rel=1e-10)


def test_srl_batched_matches_loops_with_episode_mask():
    rng = np.random.default_rng(3)
    t_len = 6
    starts = [True, False, False, True, False, False]
    seqs = [[V(rng.normal(size=8)) for _ in range(t_len)] for _ in range(3)]
    parts = al.srl_loss(_mats(seqs), 0.3, 0.2, "cosine", episode_starts=starts)
    sim = np.mean([similarity_loss([s[t] for s in seqs], "cosine").data.item() for t in range(t_len)])
    td = temporal_discrimination_loss(seqs, "cosine", episode_starts=starts).data.item()
    assert parts.total.data.item() == pytest.approx(0.3 * sim + 0.2 * td, rel=1e-9)


@pytest.mark.parametrize("kind", ["cosine", "squared_euclidean"])
def test_srl_gradient_check(kind):
    rng = np.random.default_rng(4)
    t_len, m, dim = 3, 2, 4
    flat = [rng.normal(size=(t_len, dim)) for _ in range(m)]

    def f(vals):
        return al.srl_loss(list(vals), 0.5, 0.3, kind, [False] * t_len).total

    report = grad_check(f, flat, rel_tol=1e-4)
    assert report.ok, report.per_input


def test_gradient_descent_on_similarity_decreases_distance():
    rng = np.random.default_rng(5)
    feats = [Value(rng.normal(size=8), requires_grad=True) for _ in range(2)]
    prev = similarity_loss([Value(f.data) for f in feats], "cosine").data.item()
    for _ in range(50):
        loss = similarity_loss(feats, "cosine")
        ad.backward(loss)
        for f in feats:
            f.data -= 0.05 * f.grad
            f.zero_grad()
        cur = similarity_loss([Value(f.data) for f in feats], "cosine").data.item()
        assert cur < prev + 1e-12
        prev = cur


def test_gradient_descent_on_temporal_increases_distance():
    rng = np.random.default_rng(6)
    seq = [Value(rng.normal(size=8) * 0.5, requires_grad=True) for _ in range(3)]
    prev = temporal_discrimination_loss([[Value(f.data) for f in seq]], "cosine").data.item()
    for _ in range(60):
        if -prev / 2 > 1.9:  # per-term distances near the cosine bound
            break
        loss = temporal_discrimination_loss([seq], "cosine")
        ad.backward(loss)
        for f in seq:
            f.data -= 0.05 * f.grad
            f.zero_grad()
        cur = temporal_discrimination_loss([[Value(f.data) for f in seq]], "cosine").data.item()
        assert cur < prev + 1e-12  # loss down means distances up
        prev = cur
