"""Fast AMS row sketches.

A sketch transform maps length-p vectors to d x b arrays: per sketch row,
each input coordinate lands in one of b buckets with a random sign. Inner
products between sketches estimate inner products between the original
vectors (median over the d rows), with error eps*|x|*|y| where b = 4/eps^2
and d = 8*ln(1/delta), per the usual median-of-means constants.

A sketch is exactly 0 outside the occupied buckets (SketchTransform.occupied),
the ones some column in [0, p) hashes to, so a stored sketch holds only
those: K = sum_t k_t cells, sketch row t's k_t cells in bucket order
(SketchTransform.offsets). When p >= width every bucket counts, K = d * b
and a bucket's cell is t * b + bucket; otherwise the p columns are hashed
once per transform to find them.

The RowSketchStore keeps one sketch per row of the observation matrix plus
the row totals. Both are linear in the stream, so turnstile updates may
arrive in any order, split or cancelled. At query time the store is
standardized so that inner products estimate correlations: it centers
the stored cells once, in place, to c_i = r_i - mu_i o, mu_i = t_i / p,
and records a scale a_i per row, so a standardized row a_i c_i is its
stored cells times one scale. One routine (_centered_blocks) takes out
every mean, for standardize and save, and centers only the row blocks
that hold a moved total. The all-ones sketch o is a fixed function of the
transform, so the store's constructor builds it whole. A snapshot holds
only the linear state, standardized or not: the centered rows c_i (still
linear in the stream), the totals and o. The rows sit in memory in
snapshot order; a loaded store maps them from the file (copy-on-write)
instead of reading them, so they are centered, and their norms found, at
load: standardize redoes both only for the rows updates landed on since.
``centered_row``, which the scan multiplies, is a view of the stored
cells. Save writes a temporary file that takes the target's name.

Bucket and sign functions are seeded polynomials, evaluated on demand for
a chunk of columns at a time (SketchTransform.hash_columns); a (d, p)
table is held only by the occupied-bucket search, and only when p < width.
Each value takes one reduction modulo 2^31 - 1, by floor division rather
than np.remainder (see _reduce). The constructor folds the all-ones
sketch over contiguous column ranges on a thread pool, one worker per
usable core, each hashing cache-sized steps through one reused work
array; its cells are sums of +-1, exact in any order, so the bits do not
depend on the core count. Every other write goes through
_add_cells, which hashes each distinct column of a batch once, finds its
cells, and adds the batch with np.add.at in the order given, so every
cell sums its increments as one update at a time would, bit for bit:
``apply`` buffers checked updates and adds each full buffer in stream
order, and ``from_matrix`` adds its matrix in rps order, so a store built
from a matrix is the rps ingest of that matrix, rows and totals alike.
Building a store, or loading a snapshot, with p < width hashes the p
columns once; nothing else in a query hashes.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .stream import StreamUpdate, _refuse_overflow

# Mersenne prime field for the seeded polynomial hash family. Degree-3
# polynomials give 4-wise independence, more than the pairwise the
# estimator needs, and evaluate vectorized in uint64 without overflow.
_MERSENNE = np.uint64((1 << 31) - 1)
_MASK64 = (1 << 64) - 1

# cells per vectorized step: the constructor and _add_cells hash, and
# _add_cells adds, at most _CHUNK cells per step, so their temporaries
# stay in cache; apply buffers _CHUNK updates and from_matrix adds
# _CHUNK cells per block
_CHUNK = 1 << 15

NORM_TOLERANCE = 1e-12  # squared-norm floor (times p) below which a row is degenerate

SNAPSHOT_MAGIC = b"CSKSNAP1"
SNAPSHOT_VERSION = 3
# earlier formats, refused by name: re-ingesting writes the current one
_OLD_FORMATS = {1: "every bucket stored", 2: "uncentered rows"}
_FLAG_EXACT = 4
# magic, version, n, p, width, depth, seed, flags, ones_built; ones_built
# (columns folded into the all-ones sketch) is always p. Padded to 64 bytes,
# so the mapped rows are 8-byte aligned.
_HEADER = struct.Struct("<8sI5QBQ3x")
# load finds the occupied buckets of a header (hashing the p columns when
# p < width) only when depth * min(p, width) is at most this many times the
# cells per row the file holds; a real transform occupies about p/2 or more
# buckets per sketch row, and every bucket when p >= width
_MAX_COLUMNS_PER_CELL = 64


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


def _reduce(acc: np.ndarray, modulus, scratch: np.ndarray | None = None) -> np.ndarray:
    """``acc mod modulus`` in place, for uint64 ``acc`` and a positive scalar modulus.

    Computed as acc - (acc // modulus) * modulus: NumPy divides uint64 by a
    scalar through libdivide, several times faster than np.remainder's
    hardware divide, and the residues are the same. ``scratch`` (same shape
    as ``acc``) holds the quotients when given.
    """
    modulus = np.uint64(modulus)
    q = np.floor_divide(acc, modulus, out=scratch)
    np.multiply(q, modulus, out=q)
    return np.subtract(acc, q, out=acc)


def _field_points(count: int) -> np.ndarray:
    """The points 0..count-1 reduced into GF(2^31 - 1), as _poly_values takes them."""
    return _reduce(np.arange(count, dtype=np.uint64), _MERSENNE)


def _poly_values(coeffs, xs: np.ndarray, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Evaluate degree-3 polynomials over GF(2^31 - 1) at reduced points.

    ``coeffs[k]`` is the degree-k coefficient: a scalar, or an array that
    broadcasts against ``xs`` to evaluate many polynomials at once. The
    result lands in ``out`` (a uint64 array of the broadcast shape,
    allocated when omitted); ``scratch`` (same shape) holds the terms and
    quotients when given.

    x^2 and x^3 are reduced once per point and shared by every polynomial;
    then c3*x^3 + c2*x^2 + c1*x + c0 is summed in uint64 and reduced once.
    Coefficients and reduced powers are below M = 2^31 - 1, so each product
    is below M^2 < 2^62 and the sum below 3 * 2^62 + 2^31 < 2^64: it never
    wraps.
    """
    c0, c1, c2, c3 = (np.asarray(coeffs[k], dtype=np.uint64) for k in range(4))
    x2 = _reduce(xs * xs, _MERSENNE)
    x3 = _reduce(x2 * xs, _MERSENNE)
    acc = np.multiply(c3, x3, out=out)
    term = np.empty_like(acc) if scratch is None else scratch
    acc += np.multiply(c2, x2, out=term)
    acc += np.multiply(c1, xs, out=term)
    acc += c0
    return _reduce(acc, _MERSENNE, term)


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

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:
        """Per sketch row, four bucket (h) then four sign (g) coefficients
        drawn from the seed stream, stored (degree, h|g, row, 1) so that one
        _poly_values call evaluates all 2 * depth polynomials over a column
        chunk. Drawn on first use: loading a snapshot draws them only to
        find ``occupied`` when p < width, and a query never does.
        """
        draws = seed_stream(self.seed)
        coeffs = [next(draws) % int(_MERSENNE) for _ in range(8 * self.depth)]
        return np.array(coeffs, dtype=np.uint64).reshape(self.depth, 2, 4).T[..., None]

    def hash_columns(self, cols, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Bucket and sign of each column in ``cols`` under every sketch row.

        Returns (depth, k) arrays: int64 buckets in [0, width) and float64
        signs of +-1. Both are views of ``out``, a 1-D uint64 work array of
        at least 4 * depth * k elements, when it is given (a caller hashing
        step after step reuses its pages instead of faulting in fresh ones),
        and of a fresh one otherwise.
        """
        cols = np.asarray(cols, dtype=np.int64)
        size = 4 * self.depth * cols.size
        work = np.empty(size, dtype=np.uint64) if out is None else out[:size]
        values, scratch = np.split(work.reshape(4, self.depth, cols.size), 2)
        signs = scratch[0].view(np.float64)
        if self.exact:
            values[0] = cols
            signs.fill(1.0)
            return values[0].view(np.int64), signs
        _poly_values(self._coeffs, _reduce(cols.astype(np.uint64), _MERSENNE), values, scratch)
        np.bitwise_and(values[1], np.uint64(1), out=values[1])
        np.multiply(values[1], -2.0, out=signs)
        signs += 1.0
        return _reduce(values[0], self.width, scratch[1]).view(np.int64), signs

    @functools.cached_property
    def occupied(self) -> tuple[np.ndarray, ...]:
        """Per sketch row, the sorted buckets that some column in [0, p) hashes to.

        Every sketch is exactly 0 in the other buckets, so a store holds
        only these. When p >= width every bucket counts and nothing is
        hashed; otherwise the p columns are hashed once, in cache-sized
        steps, into a (depth, p) table no larger than one stored row.
        """
        if self.p >= self.width:
            return (np.arange(self.width),) * self.depth
        buckets = np.empty((self.depth, self.p), dtype=np.int64)
        step = max(1, _CHUNK // self.depth)
        work = np.empty(4 * self.depth * min(step, self.p), dtype=np.uint64)
        for start in range(0, self.p, step):
            cols = np.arange(start, min(start + step, self.p))
            buckets[:, cols] = self.hash_columns(cols, work)[0]
        buckets.sort(axis=1)
        return tuple(row[np.diff(row, prepend=-1) > 0] for row in buckets)

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """Where each sketch row's cells start in a stored row, then its length K: (depth + 1,)."""
        return np.cumsum([0] + [cols.size for cols in self.occupied])

    @property
    def cells(self) -> int:
        """K, the cells a stored row holds: d * b when p >= width, found without hashing."""
        return int(self.offsets[-1])

    def locate(self, buckets: np.ndarray) -> np.ndarray:
        """The cell in a stored row of each of the (depth, m) ``buckets``, in place.

        When p >= width that is t * width + bucket; otherwise a binary
        search in sketch row t's occupied buckets first ranks it.
        """
        if self.p < self.width:
            for t, cols in enumerate(self.occupied):
                buckets[t] = cols.searchsorted(buckets[t])
        buckets += self.offsets[:-1, None]
        return buckets

    def expand(self, cells: np.ndarray) -> np.ndarray:
        """Stored cells (..., K) as sketches (..., depth, width), 0 outside the occupied buckets.

        A view of ``cells`` when p >= width, a fresh array otherwise.
        """
        shape = cells.shape[:-1] + (self.depth, self.width)
        if self.p >= self.width:
            return cells.reshape(shape)
        out = np.zeros(shape)
        for t, cols in enumerate(self.occupied):
            out[..., t, cols] = cells[..., self.offsets[t] : self.offsets[t + 1]]
        return out

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
        """Sketch a dense length-p vector (the sum of its basis updates)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.p,):
            raise ValueError(f"expected vector of length {self.p}, got shape {v.shape}")
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"non-finite value {v[bad[0]]} at column {bad[0]}")
        out = np.zeros((1, self.cells))
        for start in range(0, self.p, _CHUNK):  # _add_cells holds tables for all its columns
            cols = np.arange(start, min(start + _CHUNK, self.p))
            _add_cells(self, out, np.zeros_like(cols), cols, v[cols])
        return self.expand(out[0])


def _add_cells(t: SketchTransform, out: np.ndarray, rows, cols, alpha):
    """Add ``alpha[k] * S e_cols[k]`` into ``out[rows[k]]`` for every cell k, in order.

    ``out`` is a C-contiguous (rows, K) array of stored cells. Each distinct
    column is hashed once, in cache-sized steps through one work array, and
    its buckets located among the cells; every update gathers its column's
    cells and signs. np.add.at applies repeated indices one after another
    in index order, so each sketch cell takes its increments in the order
    given, exactly as one update at a time would. A sum that overflows
    raises ValueError, part way through.
    """
    depth, size = t.depth, t.cells
    distinct, at = np.unique(cols, return_inverse=True)
    cells = np.empty((depth, distinct.size), dtype=np.int64)
    signs = np.empty((depth, distinct.size))
    step = max(1, _CHUNK // depth)
    work = np.empty(4 * depth * min(step, distinct.size), dtype=np.uint64)
    for start in range(0, distinct.size, step):
        part = slice(start, start + step)
        cells[:, part], signs[:, part] = t.hash_columns(distinct[part], work)
        t.locate(cells[:, part])
    flat = out.reshape(-1)
    with _refuse_overflow("a sketch cell sum"):
        for start in range(0, len(rows), step):
            part = slice(start, start + step)
            index = rows[part] * size + cells[:, at[part]]
            np.add.at(flat, index.ravel(), (signs[:, at[part]] * alpha[part]).ravel())


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        return os.cpu_count() or 1


def _ones_sketch(t: SketchTransform) -> np.ndarray:
    """The sketch of the all-ones vector, o = S 1, as its K stored cells.

    Contiguous column ranges are folded on a thread pool, one worker per
    usable core but never more than there are column steps; NumPy releases
    the interpreter lock inside the hashing arithmetic. Each worker hashes
    its range in cache-sized steps through one work array and bincounts
    every step. The cells are sums of +-1, exact in any order, so the
    partial sums add to the same bits whatever the worker count.
    """
    depth, cells = t.depth, t.cells  # found before any worker starts
    step = max(1, _CHUNK // depth)
    starts = range(0, t.p, step)
    workers = min(_usable_cores(), len(starts))

    def fold(k):
        ones = np.zeros(cells)
        work = np.empty(4 * depth * min(step, t.p), dtype=np.uint64)
        for start in starts[k * len(starts) // workers : (k + 1) * len(starts) // workers]:
            cols = np.arange(start, min(start + step, t.p))
            buckets, signs = t.hash_columns(cols, work)
            ones += np.bincount(t.locate(buckets).ravel(), signs.ravel(), cells)
        return ones

    if workers == 1:
        return fold(0)
    with ThreadPoolExecutor(workers) as pool:
        return sum(pool.map(fold, range(workers)))


def _middle(values: np.ndarray) -> np.ndarray:
    """Median along the last axis of an odd number of values: the middle order statistic.

    np.partition finds the element np.median would average with itself,
    without the numpy.ma import np.median pays on its first call.
    """
    mid = values.shape[-1] // 2
    return np.partition(values, mid)[..., mid]


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Median over sketch rows (odd in number) of the per-row dot product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"sketch shapes differ: {a.shape} vs {b.shape}")
    if len(a) % 2 == 0:
        raise ValueError(f"sketches need an odd number of rows, got {len(a)}")
    return float(_middle(np.einsum("tb,tb->t", a, b)))


class RowSketchStore:
    """Per-row AMS sketches r^(i), totals t^(i), and the all-ones sketch.

    Layout note: the store holds an (n, K) array, row i's K stored cells
    (the occupied buckets of every sketch row, ``transform.offsets``), in
    the order a snapshot stores them, so the rows section maps straight
    onto the file, row i is one contiguous block, and sketch row t of
    every row is an (n, k_t) slice. ``rows`` expands the cells into the
    (depth, n, width) array a test compares against, 0 outside the
    occupied buckets; no query reads it.

    ``apply`` checks each update and buffers it; the buffer is added in
    stream order when it holds _CHUNK updates and whenever ``rows`` or
    ``totals`` is read, so every reader sees all updates applied so far.

    ``_base`` is the mean already taken out of each row's cells: 0 for a
    new store, so its cells are the sums r_i, and t_i / p at load for a
    loaded one, whose cells are c_i = r_i - base_i o plus any later
    updates. Unstandardized ``rows`` are these cells as stored.

    Standardizing takes (mu_i - base_i) o out of the cells of every row
    whose total has moved, in place, so that every row's cells are c_i and
    ``_base`` is ``mu`` (the mean t_i / p); then it sets ``scale`` (a) per
    row. ``centered_row`` is a view of the stored cells, with no copy.
    ``row_sketch``, ``sketch_row``, ``inner`` and ``rows`` serve, through
    one reader, those cells times a_i, one multiply.
    """

    def __init__(self, transform: SketchTransform, n: int):
        if n < 1:
            raise ValueError("store needs at least one row")
        cells = np.zeros((n, transform.cells))
        self._assign(transform, cells, np.zeros(n), _ones_sketch(transform), np.zeros(n))

    def _assign(self, transform, cells, totals, ones, base, norms=None):
        """Set every field from the store's parts, unstandardized; nothing is buffered.

        ``norms`` is ``_centered_norms`` of these rows, when known, for this store alone.
        """
        n = len(totals)
        self.transform = transform
        self.n = n
        self.p = transform.p
        self._cells = cells
        self._totals = totals
        self._pending = ([], [], [])  # row, column and value of each buffered update
        self._norms = norms  # per row and sketch row; NaN once an update lands on the row
        self._ones = ones  # o's K stored cells
        self._base = base  # per row, the mean already taken out of its cells
        self.standardized = False  # set by standardize: rows are served as a_i (r_i - mu_i o)
        self.mu = self.scale = None
        self.degenerate = np.zeros(n, dtype=bool)

    @property
    def rows(self) -> np.ndarray:
        """All rows, (depth, n, width), as queries read them (a test surface).

        Unstandardized rows are the stored cells (centered, for a loaded
        store), a view of them when p >= width; otherwise this materializes
        a fresh array. The query reads one
        sketch row at a time through ``sketch_row``.
        """
        self._flush()
        cells = self._cells
        if self.standardized:
            cells = self._read(slice(0, self.n), None, np.empty(cells.shape))
        return self.transform.expand(cells).transpose(1, 0, 2)

    @property
    def ones_sketch(self) -> np.ndarray:
        """The all-ones sketch o as a (depth, width) array."""
        return self.transform.expand(self._ones)

    @property
    def nbytes(self) -> int:
        """Bytes of the linear state the store holds: its cells, totals and o."""
        return self._cells.nbytes + self._totals.nbytes + self._ones.nbytes

    @property
    def totals(self) -> np.ndarray:
        self._flush()
        return self._totals

    @classmethod
    def from_matrix(cls, transform: SketchTransform, values) -> "RowSketchStore":
        """Sketch every row of a dense matrix as its rps ingest: rows and totals, bit for bit.

        A sum that overflows float64 raises ValueError, and no store is returned.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != transform.p:
            raise ValueError(
                f"expected a matrix of shape (n, {transform.p}), got shape {values.shape}"
            )
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"non-finite value {values[i, j]} at cell ({i}, {j})")
        store = cls(transform, values.shape[0])
        flat = values.reshape(-1)
        for start in range(0, flat.size, _CHUNK):
            rows, cols = np.divmod(np.arange(start, min(start + _CHUNK, flat.size)), transform.p)
            store._add(rows, cols, flat[start : start + _CHUNK])
        return store

    def apply(self, u: StreamUpdate):
        """Algorithm-style turnstile update: checked now, added in stream order later.

        A buffer is added when it fills and before any read or save; a sum
        that overflows float64 then raises ValueError, part way through the
        buffer, and the store must be discarded.
        """
        if self.standardized:
            raise SketchStateError("store already standardized; no further updates")
        alpha, i, j = u
        if type(i) is not int or type(j) is not int:  # exact ints skip the index protocol
            try:
                i, j = operator.index(i), operator.index(j)
            except TypeError:
                raise IndexError(f"update ({u.i}, {u.j}) has a non-integer index") from None
        if not (0 <= i < self.n and 0 <= j < self.p):
            raise IndexError(f"update ({i}, {j}) out of range for {self.n}x{self.p}")
        value = float(alpha)
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {alpha} at cell ({i}, {j})")
        rows, cols, values = self._pending
        rows.append(i)
        cols.append(j)
        values.append(value)
        if len(rows) >= _CHUNK:
            self._flush()

    def _flush(self):
        """Add the buffered updates to the sketches and totals, in stream order."""
        if self._pending[0]:
            self._add(*(np.array(column) for column in self._pending))
            self._pending = ([], [], [])

    def _add(self, rows, cols, alpha):
        """Add cells (row, column, value) to the sketches and totals, in the order given."""
        if not self._cells.flags.writeable:  # shared with a standardized copy
            self._cells = np.array(self._cells)
        if self._norms is not None:  # the rows updated now need their norms again
            self._norms[rows] = np.nan
        _add_cells(self.transform, self._cells, rows, cols, alpha)
        with _refuse_overflow("a row total"):
            np.add.at(self._totals, rows, alpha)

    def finalize_ones(self):
        """No-op: the constructor already built the whole all-ones sketch."""

    def _centered(self, rows: slice, t: int | None) -> np.ndarray:
        """Sketch row t's stored cells (all K if t is None) of ``rows``: a view, unscaled.

        ``rows`` is a slice with its start and stop given. Once the store is
        standardized the cells are centered. A row or sketch row out of
        range raises IndexError.
        """
        if not 0 <= rows.start < rows.stop <= self.n:
            bad = rows.start if rows.start < 0 else rows.stop - 1
            raise IndexError(f"row {bad} out of range for a store of {self.n} rows")
        depth = self.transform.depth
        if t is not None and not 0 <= t < depth:
            raise IndexError(f"sketch row {t} out of range for depth {depth}")
        self._flush()
        cells = slice(None) if t is None else slice(*self.transform.offsets[t : t + 2])
        return self._cells[rows, cells]

    def _read(self, rows: slice, t: int | None, out: np.ndarray) -> np.ndarray:
        """The one reader: ``_centered`` times each row's scale in ``out``; unstandardized, a copy."""
        scale = self.scale[rows, None] if self.standardized else 1.0
        return np.multiply(self._centered(rows, t), scale, out=out)

    def _row_cells(self, i: int) -> np.ndarray:
        """Row i's K cells as queries read them, in a fresh array."""
        return self._read(slice(i, i + 1), None, np.empty((1, self._ones.size)))[0]

    def row_sketch(self, i: int) -> np.ndarray:
        """Row i's d x b sketch as queries read it, in a fresh array."""
        return self.transform.expand(self._row_cells(i))

    def sketch_row(self, t: int, out: np.ndarray) -> np.ndarray:
        """Sketch row t of every row as queries read it: its k_t cells, copied into ``out`` (n, k_t)."""
        return self._read(slice(0, self.n), t, out)

    def centered_row(self, t: int) -> np.ndarray:
        """``sketch_row`` before scaling: a view of the stored cells, (n, k_t)."""
        return self._centered(slice(0, self.n), t)

    def inner(self, i: int, j: int) -> float:
        """Median over sketch rows of the served rows' dot products."""
        a, b, ends = self._row_cells(i), self._row_cells(j), self.transform.offsets
        # when p >= width the cells of sketch row t are its buckets, summed as inner_product does
        dots = [np.einsum("ib,ib->i", a[None, s:e], b[None, s:e])[0] for s, e in zip(ends, ends[1:])]
        return float(_middle(np.array(dots)))

    def standardize(self):
        """Center the stored cells once, in place, and record each row's scale.

        The mean mu_i = t_i / p uses the exact total. A row whose total has
        moved loses (mu_i - base_i) o, through ``_centered_blocks``; only
        blocks that hold such a row are formed and written, none for an
        unmoved loaded store. A centered cell that overflows float64 raises
        ValueError, each row's cells and ``_base`` still agreeing. The scale
        a_i is one over the square root of the median over sketch rows of
        ||c_i||^2, taken for every row of a new store, and for a loaded one
        (whose norms ``load`` found) only for rows updated since. Rows whose
        squared norm falls below 1e-12 * p are flagged degenerate and get
        scale 0, so they drop out of recovery. A squared norm that overflows
        float64 in any sketch row, not only the median, raises ValueError
        naming its row (the scan's unscaled Grams would hold it). After
        either error the store stays unstandardized.
        """
        if self.standardized:
            raise SketchStateError("store already standardized")
        mu, shift = self.totals / self.p, self._unremoved_mean()
        if shift is not None:
            with _refuse_overflow("a centered sketch cell"):
                for i, block in _centered_blocks(self._cells, shift, self._ones):
                    rows = slice(i, i + len(block))
                    if shift[rows].any():  # else block is a view of these cells
                        self._cells[rows] = block
                        self._base[rows] = mu[rows]
        if self._norms is None:
            self._norms = _centered_norms(self._cells, self.transform.offsets)
        stale = np.isnan(self._norms[:, 0])
        if stale.any():
            self._norms[stale] = _centered_norms(self._cells[stale], self.transform.offsets)
        bad = np.flatnonzero(~np.isfinite(self._norms).all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]}'s squared sketch norm overflows float64")
        norm_sq = _middle(self._norms)
        self.mu = mu
        self.degenerate = norm_sq <= NORM_TOLERANCE * self.p
        safe = np.where(self.degenerate, 1.0, norm_sq)
        self.scale = np.where(self.degenerate, 0.0, 1.0 / np.sqrt(safe))
        self.standardized = True

    def _unremoved_mean(self) -> np.ndarray | None:
        """mu - base per row, the mean the stored cells still hold; None if no row's total moved."""
        shift = self.totals / self.p - self._base
        return shift if shift.any() else None

    def standardized_copy(self) -> "RowSketchStore":
        """A standardized store over the same rows; this store is unchanged.

        Centered cells (a loaded store whose totals have not moved) are
        shared: this store's view of them turns read-only, and its next
        update copies them first. Otherwise the copy centers its own array.
        """
        if self.standardized:
            raise SketchStateError("store already standardized")
        self._flush()
        if self._unremoved_mean() is None:
            self._cells = self._cells.view()
            self._cells.flags.writeable = False
            cells = self._cells
        else:
            cells = np.array(self._cells)
        out = type(self).__new__(type(self))
        norms = None if self._norms is None else self._norms.copy()
        out._assign(self.transform, cells, self._totals.copy(), self._ones, self._base.copy(), norms)
        out.standardize()
        return out

    # -- snapshot io ---------------------------------------------------

    def save(self, path):
        """Write the linear state (centered rows, totals, o), standardized or not.

        Each row goes out centered, c_i = r_i - mu_i o with mu_i = t_i / p,
        block by block through ``_centered_blocks``; a centered cell that
        overflows float64 raises ValueError and writes nothing. For a
        loaded store that means c_i - (mu_i - base_i) o: a block with no
        moved total goes out as stored, so a load then save rewrites the
        same bytes. The bytes go to a temporary file beside ``path`` that
        then takes its name, so a store mapped from ``path`` (this one
        included) keeps reading the old file, a reader never sees a partial
        snapshot, and a failed write leaves ``path`` as it was.
        """
        t = self.transform
        header = _HEADER.pack(
            SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            self.n,
            self.p,
            t.width,
            t.depth,
            t.seed,
            _FLAG_EXACT if t.exact else 0,
            self.p,
        )
        shift = self.totals / self.p - self._base
        path = os.path.realpath(path)  # through a symlink to its target, as open() writes
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            # keep the file buffered: a buffered write loops past the 2 GiB
            # at which one raw call may stop
            with open(tmp, "xb") as fh, _refuse_overflow("a centered sketch cell"):
                fh.write(header)
                for _, block in _centered_blocks(self._cells, shift, self._ones):
                    fh.write(block.astype("<f8", copy=False))
                for section in (self._totals, self._ones):
                    fh.write(np.ascontiguousarray(section, dtype="<f8"))
            # unlink, then rename: ext4 forces the new file's data out (about
            # 1 s per GB) when a rename replaces an existing file
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            os.rename(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "RowSketchStore":
        """Open a snapshot; refuse a malformed header, size or non-finite value.

        The file holds n rows of K cells, the n totals and o's K cells, so
        its size gives K. The header and the file size are checked before
        anything is mapped or allocated, so a corrupt header cannot ask for
        a huge array; when p < width the p columns are hashed to find the
        occupied buckets, and only once the file shows they can fit, so a
        corrupt header cannot ask for much hashing either. The totals and
        the all-ones sketch are read into memory; the rows section is mapped
        copy-on-write, not read, so updates to a loaded store stay private
        and never reach the file. The rows are centered already (``_base``
        is t_i / p), so one pass over the map, an einsum per sketch row, checks
        every stored cell for NaN and infinity and finds the norms
        ``standardize`` takes its scales from. Formats v1 and v2 are refused
        by name.
        """
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise SnapshotFormatError("snapshot truncated before header")
            magic, version, n, p, width, depth, seed, flags, ones_built = _HEADER.unpack(head)
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotFormatError(f"bad magic {magic!r}")
            if version in _OLD_FORMATS:
                raise SnapshotFormatError(f"snapshot format v{version} ({_OLD_FORMATS[version]}) "
                                          "is no longer read: re-ingest the stream")
            if version != SNAPSHOT_VERSION:
                raise SnapshotFormatError(f"unsupported snapshot version {version}")
            if flags & ~_FLAG_EXACT:
                raise SnapshotFormatError(f"unknown snapshot flags {flags:#x}")
            exact = bool(flags & _FLAG_EXACT)
            if exact and (width, depth) != (p, 1):
                raise SnapshotFormatError("exact-transform snapshot with mismatched shape")
            if n < 1:
                raise SnapshotFormatError("snapshot has no rows")
            if ones_built != p:
                raise SnapshotFormatError(f"ones_built={ones_built} differs from p={p}")
            size = os.fstat(fh.fileno()).st_size
            values, odd = divmod(size - _HEADER.size, 8)
            cells, rest = divmod(values - n, n + 1)  # n rows and o hold K cells each
            if odd or rest or cells < 1:
                raise SnapshotFormatError(
                    f"snapshot is {size} bytes: no whole number of cells per row for n={n}"
                )
            if depth * min(p, width) > _MAX_COLUMNS_PER_CELL * cells:
                raise SnapshotFormatError(f"p={p} columns in {depth} sketch rows of {width} "
                                          f"buckets cannot occupy {cells} cells per row")
            try:
                transform = (
                    SketchTransform.identity(p) if exact else SketchTransform(p, width, depth, seed)
                )
            except ValueError as err:
                raise SnapshotFormatError(f"bad sketch shape in header: {err}") from None
            if transform.cells != cells:  # hashes the p columns when p < width
                expect = _HEADER.size + 8 * (n + 1) * transform.cells + 8 * n
                raise SnapshotFormatError(f"snapshot is {size} bytes, expected {expect}")
            fh.seek(_HEADER.size + 8 * n * cells)
            totals = _read_finite(fh, np.empty(n, dtype="<f8"), "totals")
            ones = _read_finite(fh, np.empty(cells, dtype="<f8"), "ones_sketch")
            rows = np.memmap(fh, dtype="<f8", mode="c", offset=_HEADER.size, shape=(n, cells))
        # the one pass over the rows checks them and finds what standardize needs
        norms = _centered_norms(rows, transform.offsets, check=True)
        store = cls.__new__(cls)
        store._assign(transform, rows, totals, ones, totals / p, norms)
        return store


def _require_finite(values: np.ndarray, what: str):
    """Refuse a NaN or infinite value in ``values``, naming ``what``."""
    # min and max propagate NaN and reach any infinity, with no temporary array
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise SnapshotFormatError(f"non-finite value in {what}")


def _centered_blocks(cells, shift: np.ndarray, ones: np.ndarray):
    """Yield (first row, c_i - shift_i o over a block of rows) for every block of ``cells``.

    The only code that takes out a mean, and so the one place that picks
    its row blocks: the product o * shift_i, then the difference, are the
    roundings of ``save`` and ``standardize``. Blocks hold about 4 * _CHUNK
    cells. A block with no moved row (every shift_i 0) is a plain view of
    the cells; any other is centered in one buffer that each yield
    overwrites.
    """
    n, size = cells.shape
    step = max(1, 4 * _CHUNK // size)  # rows per block
    buf = np.empty((min(step, n), size))
    for i in range(0, n, step):
        block, moved = cells[i : i + step], shift[i : i + step, None]
        if moved.any():
            part = np.multiply(ones, moved, out=buf[: len(block)])
            block = np.subtract(block, part, out=part)
        yield i, block


def _centered_norms(cells, offsets: np.ndarray, check: bool = False) -> np.ndarray:
    """||c_{t,i}||^2 for every row i and sketch row t of centered cells, (n, depth).

    One pass over the (n, K) stored cells, an einsum per sketch row;
    ``offsets`` is the transform's. With ``check``, a row whose squares
    are not all finite is checked value by value, and one holding NaN or
    infinity is refused, naming it; a row whose squares merely overflowed
    passes.
    """
    part = np.asarray(cells)
    out = np.empty((len(part), len(offsets) - 1))
    for t, (start, end) in enumerate(zip(offsets[:-1], offsets[1:])):
        out[:, t] = np.einsum("ib,ib->i", part[:, start:end], part[:, start:end])
    if check:
        for i in np.flatnonzero(~np.isfinite(out).all(axis=1)):
            _require_finite(cells[i], f"row {i}")
    return out


def _read_finite(fh, out: np.ndarray, what: str) -> np.ndarray:
    """Fill ``out`` from the file; refuse a short read or a NaN/inf value."""
    if fh.readinto(out) != out.nbytes:
        raise SnapshotFormatError(f"snapshot truncated in {what}")
    _require_finite(out, what)
    return out
