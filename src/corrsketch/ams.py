"""Fast AMS row sketches.

A sketch transform maps length-p vectors to d x b arrays: per sketch row,
each input coordinate lands in one of b buckets with a random sign. Inner
products between sketches estimate inner products between the original
vectors (median over the d rows), with error eps*|x|*|y| where b = 4/eps^2
and d = 8*ln(1/delta), per the usual median-of-means constants.

The RowSketchStore keeps one sketch per row of the observation matrix plus
the row totals. Both are linear in the stream, so turnstile updates may
arrive in any order, split or cancelled. At query time the store is
standardized so that inner products estimate correlations: it records a
shift and a scale per row and never rewrites a row; each standardized row
a_i (r_i - mu_i o) is formed where it is read. The all-ones sketch o that
the shift subtracts is a fixed function of the transform, so the store's
constructor builds it whole. A snapshot holds only the linear state, raw
rows included, standardized or not. The rows sit in memory in snapshot
order; a loaded store maps them from the file (copy-on-write) instead of
reading them, and save writes a temporary file that takes the target's name.

Bucket and sign functions are seeded polynomials, evaluated on demand for
a chunk of columns at a time (SketchTransform.hash_columns); no (d, p)
table is ever held. Each value takes one reduction modulo 2^31 - 1, by
floor division rather than np.remainder (see _reduce). The constructor
folds the all-ones sketch over contiguous column ranges on a thread pool,
one worker per usable core, each hashing cache-sized steps through one
reused work array; its cells are sums of +-1, exact in any order, so the
bits do not depend on the core count. Every other write goes through
_add_cells, which hashes each distinct column of a batch once and adds
the batch with np.add.at in the order given, so every cell sums its
increments as one update at a time would, bit for bit: ``apply`` buffers
checked updates and adds each full buffer in stream order, and
``from_matrix`` adds its matrix in rps order, so a store built from a
matrix is the rps ingest of that matrix, rows and totals alike.
A query reads only the row sketches and never hashes.
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

from .stream import StreamUpdate

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
SNAPSHOT_VERSION = 1
_FLAG_STANDARDIZED = 1  # standardized (served) rows: load refuses it
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
        chunk. Drawn on first use, so loading and querying a snapshot never
        draw them.
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
        out = np.zeros((1, self.depth, self.width))
        for start in range(0, self.p, _CHUNK):  # _add_cells holds tables for all its columns
            cols = np.arange(start, min(start + _CHUNK, self.p))
            _add_cells(self, out, np.zeros_like(cols), cols, v[cols])
        return out[0]


@contextlib.contextmanager
def _refuse_overflow(what: str):
    """Turn a float64 overflow in the block into a ValueError naming ``what``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{what} overflows float64") from None


def _add_cells(t: SketchTransform, out: np.ndarray, rows, cols, alpha):
    """Add ``alpha[k] * S e_cols[k]`` into ``out[rows[k]]`` for every cell k, in order.

    ``out`` is a C-contiguous (rows, depth, width) array. Each distinct
    column is hashed once, in cache-sized steps through one work array;
    every cell gathers its column's buckets and signs. np.add.at applies
    repeated indices one after another in index order, so each sketch cell
    takes its increments in the order given, exactly as one update at a
    time would. A sum that overflows raises ValueError, part way through.
    """
    depth, width = t.depth, t.width
    distinct, at = np.unique(cols, return_inverse=True)
    buckets = np.empty((depth, distinct.size), dtype=np.int64)
    signs = np.empty((depth, distinct.size))
    step = max(1, _CHUNK // depth)
    work = np.empty(4 * depth * min(step, distinct.size), dtype=np.uint64)
    for start in range(0, distinct.size, step):
        part = slice(start, start + step)
        buckets[:, part], signs[:, part] = t.hash_columns(distinct[part], work)
    cells = out.reshape(-1)
    with _refuse_overflow("a sketch cell sum"):
        for start in range(0, len(rows), step):
            part = slice(start, start + step)
            index = (rows[part] * depth + np.arange(depth)[:, None]) * width + buckets[:, at[part]]
            np.add.at(cells, index.ravel(), (signs[:, at[part]] * alpha[part]).ravel())


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is Linux-only
        return os.cpu_count() or 1


def _ones_sketch(t: SketchTransform) -> np.ndarray:
    """The sketch of the all-ones vector, o = S 1, as a (depth, width) array.

    Contiguous column ranges are folded on a thread pool, one worker per
    usable core but never more than there are column steps; NumPy releases
    the interpreter lock inside the hashing arithmetic. Each worker hashes
    its range in cache-sized steps through one work array and bincounts
    every step. The cells are sums of +-1, exact in any order, so the
    partial sums add to the same bits whatever the worker count.
    """
    depth, width = t.depth, t.width
    offsets = np.arange(depth)[:, None] * width
    step = max(1, _CHUNK // depth)
    starts = range(0, t.p, step)
    workers = min(_usable_cores(), len(starts))

    def fold(k):
        ones = np.zeros(depth * width)
        work = np.empty(4 * depth * min(step, t.p), dtype=np.uint64)
        for start in starts[k * len(starts) // workers : (k + 1) * len(starts) // workers]:
            cols = np.arange(start, min(start + step, t.p))
            buckets, signs = t.hash_columns(cols, work)
            buckets += offsets
            ones += np.bincount(buckets.ravel(), signs.ravel(), depth * width)
        return ones

    if workers == 1:
        return fold(0).reshape(depth, width)
    with ThreadPoolExecutor(workers) as pool:
        return sum(pool.map(fold, range(workers))).reshape(depth, width)


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

    Layout note: ``rows`` is indexed (depth, n, width), so ``rows[t]`` is
    the n x width matrix of sketch row t that the query multiplies. Its
    memory is row-major (n, depth, width), the order a snapshot stores it,
    so ``row_sketch(i)`` reads one contiguous d x b block and the rows
    section maps straight onto the file.

    ``apply`` checks each update and buffers it; the buffer is added in
    stream order when it holds _CHUNK updates and whenever ``rows`` or
    ``totals`` is read, so every reader sees all updates applied so far.

    Standardizing sets ``mu`` (shift) and ``scale`` (a) per row and leaves
    the stored rows as they are, as ``save`` writes them; ``row_sketch``,
    ``sketch_row`` and ``inner`` serve the rows a_i (r_i - mu_i o).
    """

    def __init__(self, transform: SketchTransform, n: int):
        if n < 1:
            raise ValueError("store needs at least one row")
        sketches = np.zeros((n, transform.depth, transform.width))
        self._assign(transform, sketches, np.zeros(n), _ones_sketch(transform))

    def _assign(self, transform, sketches, totals, ones_sketch, norms=None):
        """Set every field from the store's parts, unstandardized; nothing is buffered.

        ``norms`` is ``_centered_norms`` of these rows, when known.
        """
        n = len(totals)
        self.transform = transform
        self.n = n
        self.p = transform.p
        self._sketches = sketches
        self._totals = totals
        self._pending = ([], [], [])  # row, column and value of each buffered update
        self._norms = norms  # dropped when an update lands
        self.ones_sketch = ones_sketch
        self.standardized = False  # set by standardize: rows are served as a_i (r_i - mu_i o)
        self.mu = self.scale = None
        self.degenerate = np.zeros(n, dtype=bool)

    @property
    def rows(self) -> np.ndarray:
        """All rows, (depth, n, width), as queries read them.

        Once standardized this materializes a fresh array (a test surface);
        the query reads one sketch row at a time through ``sketch_row``.
        """
        self._flush()
        if not self.standardized:
            return self._sketches.transpose(1, 0, 2)
        return np.stack([self.row_sketch(i) for i in range(self.n)]).transpose(1, 0, 2)

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
        if not self._sketches.flags.writeable:  # shared with a standardized copy
            self._sketches = np.array(self._sketches)
        self._norms = None
        _add_cells(self.transform, self._sketches, rows, cols, alpha)
        with _refuse_overflow("a row total"):
            np.add.at(self._totals, rows, alpha)

    def finalize_ones(self):
        """No-op: the constructor already built the whole all-ones sketch."""

    def _served(self, raw, at, ones, out) -> np.ndarray:
        """``raw`` stored rows as queries read them, copied into ``out``.

        ``at`` indexes ``mu`` and ``scale`` to broadcast against ``raw``;
        every block gets the same roundings, so every reader the same bits.
        """
        out[...] = raw  # first out of the map, misaligned at byte 61: aligned arithmetic is faster
        if self.standardized:
            out -= self.mu[at] * ones
            out *= self.scale[at]
        return out

    def row_sketch(self, i: int) -> np.ndarray:
        """Row i's d x b sketch as queries read it, in a fresh array."""
        self._flush()
        out = np.empty(self.ones_sketch.shape)
        return self._served(self._sketches[i], i, self.ones_sketch, out)

    def sketch_row(self, t: int, out: np.ndarray) -> np.ndarray:
        """Sketch row t of every row as queries read it, (n, width), copied into ``out``."""
        self._flush()
        step = max(1, _CHUNK // out.shape[1])  # rows per cache-sized step
        for i in range(0, self.n, step):
            rows = slice(i, i + step)
            self._served(self._sketches[rows, t], (rows, None), self.ones_sketch[t], out[rows])
        return out

    def inner(self, i: int, j: int) -> float:
        return inner_product(self.row_sketch(i), self.row_sketch(j))

    def standardize(self):
        """Record the shift and scale that standardize every row; no row is written.

        The shift mu_i = t_i / p uses the exact total; the scale a_i is one
        over the sketch's own norm estimate, the square root of the median
        over sketch rows of ||r_i - mu_i o||^2 (found by ``load`` when
        no update has landed since). Rows whose squared norm falls below
        1e-12 * p are flagged degenerate and get scale 0, so they drop out
        of recovery.
        """
        if self.standardized:
            raise SketchStateError("store already standardized")
        mu = self.totals / self.p
        if self._norms is None:
            self._norms = _centered_norms(self._sketches, mu, self.ones_sketch)
        norm_sq = _middle(self._norms)
        self.mu = mu
        self.degenerate = norm_sq <= NORM_TOLERANCE * self.p
        safe = np.where(self.degenerate, 1.0, norm_sq)
        self.scale = np.where(self.degenerate, 0.0, 1.0 / np.sqrt(safe))
        self.standardized = True

    def standardized_copy(self) -> "RowSketchStore":
        """A standardized store over the same rows; this store is unchanged.

        The rows are shared, not copied: this store's view of them turns
        read-only, and its next update copies them first.
        """
        if self.standardized:
            raise SketchStateError("store already standardized")
        self._flush()
        self._sketches = self._sketches.view()
        self._sketches.flags.writeable = False
        out = type(self).__new__(type(self))
        out._assign(
            self.transform, self._sketches, self._totals.copy(), self.ones_sketch, self._norms
        )
        out.standardize()
        return out

    # -- snapshot io ---------------------------------------------------

    def save(self, path):
        """Write the linear state (stored rows, totals, o), standardized or not.

        The bytes go to a temporary file beside ``path`` that then takes
        its name, so a store mapped from ``path`` (this one included) keeps
        reading the old file, a reader never sees a partial snapshot, and
        a failed write leaves ``path`` as it was.
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
        self._flush()
        path = os.path.realpath(path)  # through a symlink to its target, as open() writes
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        try:
            # keep the file buffered: a buffered write loops past the 2 GiB
            # at which one raw call may stop
            with open(tmp, "xb") as fh:
                fh.write(header)
                for section in (self._sketches, self._totals, self.ones_sketch):
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

        The header and the file size are checked before anything is mapped
        or allocated, so a corrupt header cannot ask for a huge array. The
        totals and the all-ones sketch are read into memory; the rows
        section is mapped copy-on-write, not read, so updates to a loaded
        store stay private and never reach the file. One pass over the map
        checks every row block for NaN and infinity and finds the norms
        ``standardize`` takes its scales from. Flag 1 (served rows) is refused.
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
            if flags & _FLAG_STANDARDIZED:
                raise SnapshotFormatError("snapshot flag 1 (standardized rows) is no longer "
                                          "read: re-save from the unstandardized store")
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
            fh.seek(_HEADER.size + 8 * n * depth * width)
            totals = _read_finite(fh, np.empty(n, dtype="<f8"), "totals")
            ones = _read_finite(fh, np.empty((depth, width), dtype="<f8"), "ones_sketch")
            rows = np.memmap(
                fh, dtype="<f8", mode="c", offset=_HEADER.size, shape=(n, depth, width)
            )
        # the one pass over the rows checks them and finds what standardize needs
        norms = _centered_norms(rows, totals / p, ones, check=True)
        store = cls.__new__(cls)
        store._assign(transform, rows, totals, ones, norms)
        return store


def _require_finite(values: np.ndarray, what: str):
    """Refuse a NaN or infinite value in ``values``, naming ``what``."""
    # min and max propagate NaN and reach any infinity, with no temporary array
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise SnapshotFormatError(f"non-finite value in {what}")


def _centered_norms(rows, mu: np.ndarray, ones: np.ndarray, check: bool = False) -> np.ndarray:
    """||r_{t,i} - mu_i o_t||^2 for every row i and sketch row t, (n, depth).

    One pass over the (n, depth, width) rows in cache-sized steps. With
    ``check``, a row whose squares are not all finite is checked value by
    value, and one holding NaN or infinity is refused, naming it; a row
    whose squares merely overflowed passes.
    """
    depth, width = ones.shape
    step = max(1, _CHUNK // width)  # sketch rows per step
    d = np.empty((step, width))
    out = np.empty((len(rows), depth))
    for i, raw in enumerate(rows):
        for t in range(0, depth, step):
            part = d[: min(step, depth - t)]  # r_i - mu_i o over these sketch rows
            np.multiply(ones[t : t + step], mu[i], out=part)
            np.subtract(raw[t : t + step], part, out=part)
            out[i, t : t + step] = np.einsum("tb,tb->t", part, part)
        if check and not np.isfinite(out[i]).all():
            _require_finite(raw, f"row {i}")
    return out


def _read_finite(fh, out: np.ndarray, what: str) -> np.ndarray:
    """Fill ``out`` from the file; refuse a short read or a NaN/inf value."""
    if fh.readinto(out) != out.nbytes:
        raise SnapshotFormatError(f"snapshot truncated in {what}")
    _require_finite(out, what)
    return out
