import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrsketch import oracle
from corrsketch.stream import DenseMatrix


def test_identical_rows_correlate_exactly():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((3, 32))
    values[1] = values[0]
    c = oracle.correlation(DenseMatrix(values))
    assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_negated_row_correlates_minus_one():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((2, 32))
    values[1] = -3.0 * values[0] + 7.0
    c = oracle.correlation(DenseMatrix(values))
    assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_hand_matrix():
    # frozen from an independent plain-python computation of the
    # mean/covariance/normalization chain on this exact matrix
    m = DenseMatrix([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0], [1.0, 0.0, 2.0, 1.0]])
    c = oracle.correlation(m).values
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c[0, 2] == pytest.approx(0.3162277660168379, abs=1e-12)
    assert c[1, 2] == pytest.approx(0.3162277660168379, abs=1e-12)
    assert np.allclose(c, c.T) and np.allclose(np.diag(c), 1.0)


def test_degenerate_row_flagged():
    values = np.random.default_rng(5).standard_normal((3, 16))
    values[2] = 4.2
    c = oracle.correlation(DenseMatrix(values))
    assert c.degenerate[2]
    assert c.values[2, 0] == 0.0 and c.values[2, 2] == 1.0


def test_large_set_extremes():
    rng = np.random.default_rng(6)
    c = oracle.correlation(DenseMatrix(rng.standard_normal((5, 64))))
    assert oracle.large_set(c, 1.0 + 1e-9) == set()
    assert len(oracle.large_set(c, 0.0)) == 5 * 4


def test_large_set_on_planted_instance():
    spec = oracle.PlantedSpec(32, 512, [(1, 7, 0.9), (20, 4, -0.9)], seed=2)
    m, _ = oracle.plant_dataset(spec)
    c = oracle.correlation(m)
    assert oracle.large_set(c, 0.8) == {(1, 7), (7, 1), (20, 4), (4, 20)}


def test_residual_norm_trivial_cases():
    eye = oracle.CorrelationMatrix(np.eye(6))
    assert oracle.residual_norm(eye, 0) == 0.0
    assert oracle.residual_norm(eye, 4) == 0.0
    single = np.eye(4)
    single[0, 2] = single[2, 0] = 0.9
    c = oracle.CorrelationMatrix(single)
    assert oracle.residual_norm(c, 2) == 0.0
    assert oracle.residual_norm(c, 1) == pytest.approx(0.9)
    assert oracle.residual_norm(c, 0) == pytest.approx(np.sqrt(2) * 0.9)


def _residual_norm_by_comprehension(c, k):
    """residual_norm as first written: the k largest nonzero entries picked in a Python loop."""
    a = c.values.copy()
    np.fill_diagonal(a, 0.0)
    flat = np.abs(a).ravel()
    order = np.lexsort((np.arange(flat.size), -flat))
    a.ravel()[[idx for idx in order if flat[idx] > 0][:k]] = 0.0
    return float(np.sqrt(np.sum(a * a)))


def test_residual_norm_selection_matches_the_comprehension(rng):
    # ties in magnitude (both signs), zeros, and k up to past the nonzero
    # count, then every k from 1 to past the entry count
    for _ in range(20):
        values = rng.choice([0.0, 0.0, 0.25, -0.25, 0.5, -0.5, 0.9], size=(7, 7))
        c = oracle.CorrelationMatrix(values)
        nonzero = int(np.count_nonzero(values) - np.count_nonzero(np.diag(values)))
        for k in (1, 2, 5, nonzero - 1, nonzero, nonzero + 3, 60, *range(1, 7 * 7 + 3)):
            if k > 0:
                assert oracle.residual_norm(c, k) == _residual_norm_by_comprehension(c, k)


def test_residual_norm_matches_brute_force(rng):
    values = rng.standard_normal((8, 8))
    c = oracle.correlation(DenseMatrix(values))
    for k in (0, 1, 3, 8, 60):
        # independent route: sort the off-diagonal entries and sum the tail
        offdiag = sorted(
            (abs(c.values[i, j]) for i in range(8) for j in range(8) if i != j),
            reverse=True,
        )
        expect = np.sqrt(sum(v * v for v in offdiag[k:]))
        assert oracle.residual_norm(c, k) == pytest.approx(expect, rel=1e-12)


def test_plant_dataset_background_is_quiet():
    spec = oracle.PlantedSpec(128, 1024, [], seed=9)
    m, truth = oracle.plant_dataset(spec)
    assert truth == []
    c = oracle.correlation(m).values.copy()
    np.fill_diagonal(c, 0.0)
    assert np.abs(c).max() < 0.3


def test_plant_dataset_hits_target():
    spec = oracle.PlantedSpec(16, 256, [(0, 9, 0.9)], seed=10)
    m, truth = oracle.plant_dataset(spec)
    (i, j, realized) = truth[0]
    assert (i, j) == (0, 9)
    assert 0.88 <= realized <= 0.92
    c = oracle.correlation(m)
    assert c.values[0, 9] == pytest.approx(realized, abs=1e-9)


def test_plant_dataset_deterministic():
    spec = oracle.PlantedSpec(8, 64, [(0, 3, 0.5)], seed=77)
    a, _ = oracle.plant_dataset(spec)
    b, _ = oracle.plant_dataset(spec)
    assert np.array_equal(a.values, b.values)


def test_planted_spec_validation():
    with pytest.raises(ValueError):
        oracle.PlantedSpec(8, 64, [(1, 1, 0.5)])
    with pytest.raises(ValueError):
        oracle.PlantedSpec(8, 64, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        oracle.PlantedSpec(8, 64, [(0, 1, 0.5), (1, 2, 0.5)])  # shares row 1
    with pytest.raises(ValueError):
        oracle.PlantedSpec(8, 64, [(0, 9, 0.5)])


@pytest.mark.parametrize("flags", ["kept", "lost"])
def test_correlation_refuses_an_overflowing_covariance(monkeypatch, flags):
    # row 0's squares (about 1e400) pass float64's range; "lost" stands for a
    # threaded BLAS whose worker threads raise no overflow in this thread
    if flags == "lost":
        monkeypatch.setattr(oracle, "_refuse_overflow", lambda what: np.errstate(all="ignore"))
    m = DenseMatrix([[1e200, 2e200, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 0.0, 3.0]])
    with pytest.raises(ValueError, match="^a sample covariance overflows float64$"):
        oracle.correlation(m)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.1, 4.0),
    st.floats(-5.0, 5.0),
)
def test_correlation_affine_invariance(seed, scale, shift):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4, 32))
    base = oracle.correlation(DenseMatrix(values)).values
    scaled = values.copy()
    scaled[1] = scale * scaled[1] + shift
    up = oracle.correlation(DenseMatrix(scaled)).values
    assert np.allclose(up, base, atol=1e-10)
    flipped = values.copy()
    flipped[1] = -scale * flipped[1] + shift
    down = oracle.correlation(DenseMatrix(flipped)).values
    expect = base.copy()
    expect[1, :] *= -1
    expect[:, 1] *= -1
    np.fill_diagonal(expect, 1.0)
    assert np.allclose(down, expect, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_residual_norm_monotone_and_large_set_nested(seed):
    rng = np.random.default_rng(seed)
    c = oracle.correlation(DenseMatrix(rng.standard_normal((6, 24))))
    norms = [oracle.residual_norm(c, k) for k in range(0, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    assert oracle.large_set(c, 0.7) <= oracle.large_set(c, 0.3)
