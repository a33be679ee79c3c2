"""Fast AMS row sketches.

A sketch transform maps length-p vectors to d x b arrays: per sketch row,
each input coordinate lands in one of b buckets with a random sign. Inner
products between sketches estimate inner products between the original
vectors (median over the d rows), with error eps*|x|*|y| where b = 4/eps^2
and d = 8*ln(1/delta), per the usual median-of-means constants.

The RowSketchStore keeps one sketch per row of the observation matrix plus
the row totals. Both are linear in the stream, so turnstile updates (O(d)
time each) may arrive in any order, split or cancelled. At query time the
store standardizes in place so that inner products estimate correlations.
The all-ones sketch that standardization subtracts is a fixed function of
the transform, so the store's constructor builds it whole. The rows sit in
memory in snapshot order, so save and load move each section in one call.

The (d, p) bucket and sign tables are built when a store is constructed
(for its all-ones sketch) and cached on the transform. A query reads only
the row sketches, so loading a snapshot and querying it never builds them.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import struct
import numpy as np

from .stream import StreamUpdate

# Mersenne prime field for the seeded polynomial hash family. Degree-3
# polynomials give 4-wise independence, more than the pairwise the
# estimator needs, and evaluate vectorized in uint64 without overflow.
_MERSENNE = np.uint64((1 << 31) - 1)
_MASK64 = (1 << 64) - 1

NORM_TOLERANCE = 1e-12  # squared-norm floor (times p) below which a row is degenerate

SNAPSHOT_MAGIC = b"CSKSNAP1"
SNAPSHOT_VERSION = 1
_FLAG_STANDARDIZED = 1
_FLAG_EXACT = 4
# magic, version, n, p, width, depth, seed, flags, ones_built; ones_built
# (columns folded into the all-ones sketch) is always p
_HEADER = struct.Struct("<8sI5QBQ")


class SketchStateError(RuntimeError):
    """Operation applied to a store in the wrong lifecycle state."""


class SnapshotFormatError(ValueError):
    """Snapshot bytes do not match the versioned layout."""


def _splitmix64(state: int):
    """One step of SplitMix64; returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31))


def seed_stream(seed: int):
    """Deterministic stream of 64-bit values derived from one seed."""
    state = seed & _MASK64
    while True:
        state, out = _splitmix64(state)
        yield out


def _field_points(count: int) -> np.ndarray:
    """The points 0..count-1 reduced into GF(2^31 - 1), as _poly_values takes them."""
    return np.arange(count, dtype=np.uint64) % _MERSENNE


def _poly_values(coeffs, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a degree-3 polynomial over GF(2^31 - 1) at reduced points.

    Horner's rule in place in ``out`` (a uint64 array shaped like ``xs``,
    allocated when omitted). Every intermediate stays below 2^62, so the
    uint64 arithmetic never wraps.
    """
    acc = np.empty(xs.shape, dtype=np.uint64) if out is None else out
    acc.fill(coeffs[3])
    for c in (coeffs[2], coeffs[1], coeffs[0]):
        np.multiply(acc, xs, out=acc)
        np.add(acc, np.uint64(c), out=acc)
        np.remainder(acc, _MERSENNE, out=acc)
    return acc


def accuracy_width(epsilon: float) -> int:
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return int(math.ceil(4.0 / (epsilon * epsilon)))


def accuracy_depth(delta: float) -> int:
    """Smallest odd integer >= 8*ln(1/delta)."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    d = max(1, int(math.ceil(8.0 * math.log(1.0 / delta))))
    return d if d % 2 == 1 else d + 1


class SketchTransform:
    """Seeded random linear map from length-p vectors to d x b arrays.

    ``width`` is the bucket count per sketch row, ``depth`` the number of
    independent rows (odd, so the median is an element). The same seed
    always yields the same bucket and sign functions.
    """

    def __init__(self, p: int, width: int, depth: int, seed: int, *, exact: bool = False):
        if p < 1:
            raise ValueError("p must be positive")
        if width < 1:
            raise ValueError("width must be positive")
        if depth < 1 or depth % 2 == 0:
            raise ValueError("depth must be a positive odd integer")
        self.p = int(p)
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed) & _MASK64
        self.exact = bool(exact)
        self._rows_idx = np.arange(depth)

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The (depth, p) bucket and sign tables, built on first use.

        Only a store's constructor and its updates read them; a query works
        on the row sketches alone, so loading a snapshot never builds them.
        """
        depth, p = self.depth, self.p
        if self.exact:
            return np.tile(np.arange(p, dtype=np.int64), (depth, 1)), np.ones((depth, p))
        draws = seed_stream(self.seed)
        buckets = np.empty((depth, p), dtype=np.int64)
        signs = np.empty((depth, p), dtype=np.float64)
        xs = _field_points(p)
        acc = np.empty(p, dtype=np.uint64)
        for t in range(depth):
            hc = [next(draws) % int(_MERSENNE) for _ in range(4)]
            gc = [next(draws) % int(_MERSENNE) for _ in range(4)]
            np.remainder(_poly_values(hc, xs, acc), np.uint64(self.width), out=acc)
            buckets[t] = acc
            np.bitwise_and(_poly_values(gc, xs, acc), np.uint64(1), out=acc)
            np.multiply(acc, -2.0, out=signs[t])
            signs[t] += 1.0
        return buckets, signs

    @property
    def bucket_of(self) -> np.ndarray:
        return self._tables[0]

    @property
    def sign_of(self) -> np.ndarray:
        return self._tables[1]

    @classmethod
    def from_accuracy(cls, p: int, epsilon: float, delta: float, seed: int) -> "SketchTransform":
        return cls(p, accuracy_width(epsilon), accuracy_depth(delta), seed)

    @classmethod
    def identity(cls, p: int) -> "SketchTransform":
        """Exact transform: b = p, one row, identity buckets, all signs +1.

        Sketches are the vectors themselves, so inner products are exact
        (epsilon = delta = 0). Used for noise-free pipeline runs.
        """
        return cls(p, p, 1, 0, exact=True)

    @property
    def epsilon(self) -> float:
        return 0.0 if self.exact else 2.0 / math.sqrt(self.width)

    @property
    def delta(self) -> float:
        return 0.0 if self.exact else math.exp(-self.depth / 8.0)

    def __eq__(self, other):
        return (
            isinstance(other, SketchTransform)
            and (self.p, self.width, self.depth, self.seed, self.exact)
            == (other.p, other.width, other.depth, other.seed, other.exact)
        )

    def sketch_vector(self, v) -> np.ndarray:
        """Sketch a dense length-p vector (the sum of its basis updates).

        bincount scans its input in index order, so this accumulates per
        bucket in exactly the same order as column-by-column updates.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.p,):
            raise ValueError(f"expected vector of length {self.p}, got shape {v.shape}")
        out = np.empty((self.depth, self.width))
        for t in range(self.depth):
            out[t] = np.bincount(
                self.bucket_of[t], weights=v * self.sign_of[t], minlength=self.width
            )
        return out


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Median over sketch rows of the per-row dot product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"sketch shapes differ: {a.shape} vs {b.shape}")
    return float(np.median(np.einsum("tb,tb->t", a, b)))


class RowSketchStore:
    """Per-row AMS sketches r^(i), totals t^(i), and the all-ones sketch.

    Layout note: ``rows`` is indexed (depth, n, width), so ``rows[t]`` is
    the n x width matrix of sketch row t that the query multiplies. Its
    memory is row-major (n, depth, width), the order a snapshot stores it,
    so ``row_sketch(i)`` is one contiguous d x b block and save and load
    move all rows in one call.
    """

    def __init__(self, transform: SketchTransform, n: int):
        if n < 1:
            raise ValueError("store needs at least one row")
        self.transform = transform
        self.n = int(n)
        self.p = transform.p
        self.rows = np.zeros((n, transform.depth, transform.width)).transpose(1, 0, 2)
        self.totals = np.zeros(n)
        # one bincount per sketch row; sums of +-1 are exact in any order
        self.ones_sketch = np.stack(
            [
                np.bincount(buckets, weights=signs, minlength=transform.width)
                for buckets, signs in zip(transform.bucket_of, transform.sign_of)
            ]
        )
        self.standardized = False
        self.degenerate = np.zeros(n, dtype=bool)

    @classmethod
    def from_matrix(cls, transform: SketchTransform, values) -> "RowSketchStore":
        """Sketch every row of a dense matrix (test and bench convenience)."""
        values = np.asarray(values, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"non-finite value {values[i, j]} at cell ({i}, {j})")
        store = cls(transform, values.shape[0])
        for i in range(store.n):
            store.rows[:, i, :] = transform.sketch_vector(values[i])
        store.totals[:] = values.sum(axis=1)
        return store

    def apply(self, u: StreamUpdate):
        """Algorithm-style turnstile update: O(depth) work."""
        if self.standardized:
            raise SketchStateError("store already standardized; no further updates")
        if not (0 <= u.i < self.n and 0 <= u.j < self.p):
            raise IndexError(f"update ({u.i}, {u.j}) out of range for {self.n}x{self.p}")
        if not math.isfinite(u.alpha):
            raise ValueError(f"non-finite value {u.alpha} at cell ({u.i}, {u.j})")
        t = self.transform
        self.rows[t._rows_idx, u.i, t.bucket_of[:, u.j]] += u.alpha * t.sign_of[:, u.j]
        self.totals[u.i] += u.alpha

    def finalize_ones(self):
        """No-op: the constructor already built the whole all-ones sketch."""

    def row_sketch(self, i: int) -> np.ndarray:
        return self.rows[:, i, :]

    def inner(self, i: int, j: int) -> float:
        return inner_product(self.rows[:, i, :], self.rows[:, j, :])

    def standardize(self):
        """Shift every sketch to zero row-mean and rescale to unit norm.

        The shift uses the exact total; the scale divides by the sketch's
        own norm estimate, the median over sketch rows of its squared norm.
        Rows whose squared norm falls below 1e-12 * p are flagged
        degenerate and zeroed so they drop out of recovery. Destructive;
        see standardized_copy.
        """
        if self.standardized:
            raise SketchStateError("store already standardized")
        means = self.totals / self.p
        for t in range(self.transform.depth):
            self.rows[t] -= np.outer(means, self.ones_sketch[t])
        norm_sq = np.median(np.einsum("tib,tib->ti", self.rows, self.rows), axis=0)
        self.degenerate = norm_sq <= NORM_TOLERANCE * self.p
        safe = np.where(self.degenerate, 1.0, norm_sq)
        scale = np.where(self.degenerate, 0.0, 1.0 / np.sqrt(safe))
        self.rows *= scale[None, :, None]
        self.standardized = True

    def standardized_copy(self) -> "RowSketchStore":
        """A standardized copy in the same memory order; this store is unchanged."""
        out = copy.copy(self)
        out.rows = self.rows.copy(order="K")
        out.totals = self.totals.copy()
        out.standardize()
        return out

    # -- snapshot io ---------------------------------------------------

    def save(self, path):
        flags = 0
        if self.standardized:
            flags |= _FLAG_STANDARDIZED
        if self.transform.exact:
            flags |= _FLAG_EXACT
        t = self.transform
        header = _HEADER.pack(
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            self.n,
            self.p,
            t.width,
            t.depth,
            t.seed,
            flags,
            self.p,
        )
        # keep the files buffered: buffered write and readinto loop past the
        # 2 GiB at which one raw call may stop
        with open(path, "wb") as fh:
            fh.write(header)
            for section in (self.rows.transpose(1, 0, 2), self.totals, self.ones_sketch):
                fh.write(np.ascontiguousarray(section, dtype="<f8"))

    @classmethod
    def load(cls, path) -> "RowSketchStore":
        """Read a snapshot; refuse a malformed header, size or non-finite value.

        The header and the file size are checked before anything is
        allocated, so a corrupt header cannot ask for a huge array. Each
        section is then read in one call straight into place.
        """
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise SnapshotFormatError("snapshot truncated before header")
            magic, version, n, p, width, depth, seed, flags, ones_built = _HEADER.unpack(head)
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"bad magic {magic!r}")
            if version != SNAPSHOT_VERSION:
                raise SnapshotFormatError(f"unsupported snapshot version {version}")
            if flags & ~(_FLAG_STANDARDIZED | _FLAG_EXACT):
                raise SnapshotFormatError(f"unknown snapshot flags {flags:#x}")
            exact = bool(flags & _FLAG_EXACT)
            if exact and (width, depth) != (p, 1):
                raise SnapshotFormatError("exact-transform snapshot with mismatched shape")
            expect = _HEADER.size + 8 * (n * depth * width + n + depth * width)
            size = os.fstat(fh.fileno()).st_size
            if size != expect:
                raise SnapshotFormatError(f"snapshot is {size} bytes, expected {expect}")
            if n < 1:
                raise SnapshotFormatError("snapshot has no rows")
            if ones_built != p:
                raise SnapshotFormatError(f"ones_built={ones_built} differs from p={p}")
            try:
                transform = (
                    SketchTransform.identity(p) if exact else SketchTransform(p, width, depth, seed)
                )
            except ValueError as err:
                raise SnapshotFormatError(f"bad sketch shape in header: {err}") from None
            store = cls.__new__(cls)
            store.transform = transform
            store.n = n
            store.p = p
            rows = _read_finite(fh, np.empty((n, depth, width), dtype="<f8"), "rows")
            store.rows = rows.transpose(1, 0, 2)
            store.totals = _read_finite(fh, np.empty(n, dtype="<f8"), "totals")
            store.ones_sketch = _read_finite(
                fh, np.empty((depth, width), dtype="<f8"), "ones_sketch"
            )
        store.standardized = bool(flags & _FLAG_STANDARDIZED)
        # a standardized snapshot zeroed its degenerate rows
        store.degenerate = (
            ~rows.any(axis=(1, 2)) if store.standardized else np.zeros(n, dtype=bool)
        )
        return store


def _read_finite(fh, out: np.ndarray, what: str) -> np.ndarray:
    """Fill ``out`` from the file; refuse a short read or a NaN/inf value."""
    if fh.readinto(out) != out.nbytes:
        raise SnapshotFormatError(f"snapshot truncated in {what}")
    # min and max propagate NaN and reach any infinity, with no temporary array
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        if what == "rows":  # name the first row that holds a bad value
            what = f"row {np.argwhere(~np.isfinite(out))[0, 0]}"
        raise SnapshotFormatError(f"non-finite value in {what}")
    return out
