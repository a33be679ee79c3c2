import numpy as np
import pytest

from corrsketch.ams import RowSketchStore, SketchTransform

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
