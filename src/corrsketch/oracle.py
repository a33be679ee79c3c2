"""Exact reference estimators and planted test instances.

Everything here is ground truth for the sketching pipeline: sample
correlation computed densely, the set of above-threshold pairs, the
residual Frobenius norm after dropping the k largest entries, and a
generator that plants pairs with prescribed sample correlations inside
independent noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stream import DenseMatrix

DEGENERATE_VAR = 1e-24


class CorrelationMatrix:
    """Symmetric unit-diagonal matrix of sample correlations."""

    def __init__(self, values: np.ndarray, degenerate=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.n = self.values.shape[0]
        self.degenerate = (
            np.zeros(self.n, dtype=bool) if degenerate is None else degenerate
        )


def correlation(m: DenseMatrix) -> CorrelationMatrix:
    """Sample correlation: covariance normalized by the standard deviations.

    Rows with zero sample variance are flagged degenerate; their
    off-diagonal correlations are set to 0 and the diagonal kept at 1.
    """
    x = m.values
    n, p = x.shape
    centered = x - x.mean(axis=1, keepdims=True)
    cov = (centered @ centered.T) / (p - 1)
    var = np.diag(cov).copy()
    degenerate = var <= DEGENERATE_VAR
    scale = np.where(degenerate, 1.0, 1.0 / np.sqrt(np.where(degenerate, 1.0, var)))
    corr = cov * np.outer(scale, scale)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationMatrix(corr, degenerate)


def large_set(c: CorrelationMatrix, phi: float) -> set[tuple[int, int]]:
    """All ordered off-diagonal index pairs with |C_ij| >= phi."""
    mask = np.abs(c.values) >= phi
    np.fill_diagonal(mask, False)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def residual_norm(c: CorrelationMatrix, k: int) -> float:
    """Frobenius norm after zeroing the diagonal and the k largest entries.

    Entries are counted ordered, so a symmetric pair consumes two of the
    k. Ties break by (row, column) lexicographic order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = c.values.copy()
    np.fill_diagonal(a, 0.0)
    if k > 0:
        flat = np.abs(a).ravel()
        # stable sort on (-|value|, row, col): lexsort on descending magnitude
        order = np.lexsort((np.arange(flat.size), -flat))
        drop = [idx for idx in order if flat[idx] > 0][:k]
        a.ravel()[drop] = 0.0
    return float(np.sqrt(np.sum(a * a)))


@dataclass
class PlantedSpec:
    """Recipe for a noise matrix with planted correlated pairs.

    Planted pairs must be disjoint in both coordinates so each realized
    correlation can be set independently.
    """

    n: int
    p: int
    planted: list[tuple[int, int, float]] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        used = set()
        for i, j, rho in self.planted:
            if i == j:
                raise ValueError("planted pair must be off-diagonal")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"planted pair ({i}, {j}) out of range")
            if abs(rho) >= 1:
                raise ValueError("planted correlation must satisfy |rho| < 1")
            if i in used or j in used:
                raise ValueError("planted pairs must be coordinate-disjoint")
            used.update((i, j))


class GenerationError(RuntimeError):
    pass


def plant_dataset(spec: PlantedSpec) -> tuple[DenseMatrix, list[tuple[int, int, float]]]:
    """Generate the matrix and return it with the realized correlations.

    Row j of a planted (i, j, rho) is built from the centered, normalized
    row i plus an orthogonalized fresh noise direction, which makes the
    realized sample correlation land on rho up to rounding. A degenerate
    noise draw (norm too small to orthogonalize) is retried a few times.
    """
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.p))
    truth = []
    for i, j, rho in spec.planted:
        base = x[i] - x[i].mean()
        base_norm = np.linalg.norm(base)
        if base_norm <= 0:
            raise GenerationError(f"row {i} is constant; cannot plant against it")
        u = base / base_norm
        for attempt in range(16):
            g = rng.standard_normal(spec.p)
            g -= g.mean()
            g -= (g @ u) * u
            g_norm = np.linalg.norm(g)
            if g_norm > 1e-9:
                break
        else:
            raise GenerationError(f"could not draw noise orthogonal to row {i}")
        v = g / g_norm
        x[j] = rho * u + np.sqrt(1.0 - rho * rho) * v
        realized = float(
            np.corrcoef(np.stack([x[i], x[j]]))[0, 1]
        )
        if abs(realized - rho) > 0.02:
            raise GenerationError(
                f"planted pair ({i}, {j}) realized {realized:.4f}, wanted {rho:.4f}"
            )
        truth.append((i, j, realized))
    return DenseMatrix(x), truth
