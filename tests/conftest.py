import numpy as np
import pytest

from corrsketch.ams import RowSketchStore, SketchTransform
from corrsketch.cartesian import CartesianTransform

# whole files of end-to-end runs; `pytest -m "not slow"` leaves them out
SLOW_FILES = {"test_acceptance.py", "test_perfbench_selftest.py"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name in SLOW_FILES:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def build_store(values, *, epsilon=0.05, delta=0.1, seed=5) -> RowSketchStore:
    values = np.asarray(values, dtype=np.float64)
    transform = SketchTransform.from_accuracy(values.shape[1], epsilon, delta, seed)
    return RowSketchStore.from_matrix(transform, values)


def integer_matrix(rng, n, p, lo=-8, hi=8):
    """Small-integer test matrices: sums are exact, so update order is moot."""
    return rng.integers(lo, hi + 1, size=(n, p)).astype(np.float64)


def cart_exact(t: CartesianTransform, a: np.ndarray) -> np.ndarray:
    """Exact pi x pi sketch of a dense n x n matrix, the oracle for bucket tests; O(n^2)."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (t.n, t.n):
        raise ValueError(f"expected {t.n}x{t.n} matrix, got {a.shape}")
    signed = a * t.s1[: t.n, None] * t.s2[None, : t.n]
    rows = np.zeros((t.pi, t.n))
    np.add.at(rows, t.p1[: t.n], signed)
    out = np.zeros((t.pi, t.pi))
    np.add.at(out.T, t.p2[: t.n], rows.T)
    return out
