"""Balanced signed grouping of matrix rows and columns.

A Cartesian sketch compresses an n x n matrix to pi x pi buckets: rows
are assigned to pi equal-size groups by one random balanced partition,
columns by an independent one, and each entry lands in its (row group,
column group) bucket multiplied by two random signs. Expectations vanish
and every bucket's variance is ||A||_F^2 / pi^2, which is what the
recovery thresholding relies on.

When pi does not divide n, the index space is padded with phantom
indices; phantoms carry no data (zero rows, zero mask bits) so they never
contribute to bucket values.
"""

from __future__ import annotations

import numpy as np

from .ams import _field_points, _poly_values, seed_stream
from .ecc import Codebook


class CartesianTransform:
    """Two balanced partitions plus two sign functions over [n_padded]."""

    def __init__(self, n: int, pi: int, seed: int):
        if pi < 1:
            raise ValueError("pi must be positive")
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.pi = int(pi)
        self.seed = int(seed)
        self.n_padded = pi * ((n + pi - 1) // pi)
        if pi > self.n_padded:
            raise ValueError(f"pi={pi} exceeds padded index space {self.n_padded}")
        self.block = self.n_padded // pi
        draws = seed_stream(self.seed)
        rng1 = np.random.default_rng(next(draws))
        rng2 = np.random.default_rng(next(draws))
        # a uniform shuffle cut into equal blocks is a uniform balanced partition
        perm1 = rng1.permutation(self.n_padded)
        perm2 = rng2.permutation(self.n_padded)
        self.p1 = np.empty(self.n_padded, dtype=np.int64)
        self.p2 = np.empty(self.n_padded, dtype=np.int64)
        self.p1[perm1] = np.arange(self.n_padded) // self.block
        self.p2[perm2] = np.arange(self.n_padded) // self.block
        x = _field_points(self.n_padded)
        coeffs1 = [next(draws) % ((1 << 31) - 1) for _ in range(4)]
        coeffs2 = [next(draws) % ((1 << 31) - 1) for _ in range(4)]
        self.s1 = 1.0 - 2.0 * (_poly_values(coeffs1, x) & np.uint64(1)).astype(np.float64)
        self.s2 = 1.0 - 2.0 * (_poly_values(coeffs2, x) & np.uint64(1)).astype(np.float64)
        # index order sorted by group, for reshape-based group sums
        self.order1 = np.argsort(self.p1, kind="stable")
        self.order2 = np.argsort(self.p2, kind="stable")


def cart_exact(t: CartesianTransform, a: np.ndarray) -> np.ndarray:
    """Exact pi x pi sketch of a dense n x n matrix. Test oracle; O(n^2)."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (t.n, t.n):
        raise ValueError(f"expected {t.n}x{t.n} matrix, got {a.shape}")
    signed = a * t.s1[: t.n, None] * t.s2[None, : t.n]
    rows = np.zeros((t.pi, t.n))
    np.add.at(rows, t.p1[: t.n], signed)
    out = np.zeros((t.pi, t.pi))
    np.add.at(out.T, t.p2[: t.n], rows.T)
    return out


def masked_diag_stack(t: CartesianTransform, cb: Codebook) -> np.ndarray:
    """Exact sketches of the diagonal 0/1 masks, one per codeword bit: (codeword_len, pi, pi)."""
    bits = cb.bit_matrix()[: t.n].astype(np.float64)  # (n, codeword_len)
    signed = bits * (t.s1[: t.n] * t.s2[: t.n])[:, None]
    out = np.zeros((cb.codeword_len, t.pi, t.pi))
    np.add.at(out, (slice(None), t.p1[: t.n], t.p2[: t.n]), signed.T)
    return out
