"""Stream update models and the dense reference matrix.

An n x p observation matrix arrives as a stream of updates under one of
three models:

  rps  row-wise permutation: one value per line, entries arrive row by row
  cps  column-wise permutation: one value per line, column by column
  ts   turnstile: "alpha i j" lines, arbitrary increments in any order

The reader takes a block of lines at a time and parses it all or
nothing: one grammar splits every line, converts each column of fields
with Python's own float and int, and checks counts, finiteness and index
ranges for the whole block. Only a block that fails is re-read a line at
a time, through the same grammar, so the reader yields every record
before the first bad line, then raises that line's own error (the one
parse_update gives), tagged with the line number.

The dense matrix here is a reference structure for the exact oracle and
for tests; the sketching path never materializes it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

MODELS = ("ts", "rps", "cps")


class StreamFormatError(ValueError):
    """Malformed stream input; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class StreamUpdate(NamedTuple):
    """One update: add ``alpha`` to cell (i, j). Immutable; a tuple, so cheap to build."""

    alpha: float
    i: int
    j: int


# stream lines read and parsed at a time: a block's per-line field lists and
# records stay below the 700 net allocations (gc.get_threshold()[0]) that
# start a garbage collection, so parsing a stream starts almost none
_BLOCK = 256


@dataclass(frozen=True)
class StreamModel:
    variant: str
    n: int
    p: int

    def __post_init__(self):
        if self.variant not in MODELS:
            raise ValueError(f"unknown stream model {self.variant!r}")
        if self.n < 2 or self.p < 2:
            raise ValueError("stream model requires n >= 2 and p >= 2")

    @property
    def length(self):
        """Implied stream length for the permutation models (m = n*p)."""
        if self.variant == "ts":
            raise ValueError("turnstile streams have no fixed length")
        return self.n * self.p


class DenseMatrix:
    """Row-major n x p matrix of finite 64-bit reals."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("dense matrix must be 2-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValueError("dense matrix entries must be finite")
        self.values = values

    @classmethod
    def zeros(cls, n: int, p: int) -> "DenseMatrix":
        return cls(np.zeros((n, p)))

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and np.array_equal(
            self.values, other.values
        )


def parse_update(line: str, model: StreamModel, position: int) -> StreamUpdate:
    """Parse one update record.

    ``position`` is the 0-based ordinal of the record within the stream
    (comments and blank lines do not count); it determines (i, j) for the
    permutation models. The line is read by the block grammar as a block
    of one.
    """
    return _records([line], model, position)[0]


def _records(lines, model: StreamModel, position: int) -> list[StreamUpdate]:
    """The block grammar: the records of ``lines``, ``lines[k]`` at ordinal ``position + k``.

    Each check runs over a whole column of fields, in the order one line is
    checked: field count, then the indices (ts) or the stream length (rps,
    cps), then the value and its finiteness, then the index range. The
    first check that fails raises StreamFormatError, quoting the block's
    first line or value: on a block of one line, that line's own error.
    """
    fields = list(map(str.split, lines))
    if model.variant == "ts":
        if list(map(len, fields)).count(3) != len(lines):
            raise StreamFormatError(f"turnstile record needs 'alpha i j', got {lines[0]!r}")
        values, rows, cols = list(zip(*fields)) or [()] * 3
        try:
            rows, cols = list(map(int, rows)), list(map(int, cols))
        except ValueError:
            raise StreamFormatError(f"bad indices in {lines[0]!r}") from None
    else:
        if list(map(len, fields)).count(1) != len(lines):
            raise StreamFormatError(f"{model.variant} record needs a single value, got {lines[0]!r}")
        if position + len(lines) > model.length:
            raise StreamFormatError(f"{model.variant} stream longer than n*p = {model.length}")
        (values,) = list(zip(*fields)) or [()]
        # rps: position q = i*p + j; cps: position q = j*n + i
        size = model.p if model.variant == "rps" else model.n
        ordinals = range(position, position + len(lines))
        major, minor = [q // size for q in ordinals], [q % size for q in ordinals]
        rows, cols = (major, minor) if model.variant == "rps" else (minor, major)
    try:
        alphas = list(map(float, values))
    except ValueError:
        raise StreamFormatError(f"bad value {values[0]!r}") from None
    if not all(map(math.isfinite, alphas)):
        raise StreamFormatError(f"non-finite value {values[0]!r}")
    n, p = model.n, model.p
    if rows and not (0 <= min(rows) and max(rows) < n and 0 <= min(cols) and max(cols) < p):
        raise StreamFormatError(f"index ({rows[0]}, {cols[0]}) out of range for {n}x{p}")
    # tuple.__new__ builds each StreamUpdate in C; the generated __new__ is Python
    return list(map(tuple.__new__, itertools.repeat(StreamUpdate), zip(alphas, rows, cols)))


def _parse_block(lines, model: StreamModel, position: int) -> tuple[list[StreamUpdate], str | None]:
    """Parse record lines, ``lines[k]`` being the record at ordinal ``position + k``.

    Returns the updates before the first bad line, and that line's error
    message (None when every line parses). The block is parsed all at
    once; only a block that fails is re-read a line at a time, through
    the same grammar, to find its first bad line.
    """
    try:
        return _records(lines, model, position), None
    except StreamFormatError:
        records = []
        for k, line in enumerate(lines):
            try:
                records += _records([line], model, position + k)
            except StreamFormatError as error:
                return records, str(error)


@contextlib.contextmanager
def _refuse_overflow(what: str):
    """Turn a float64 overflow in the block into a ValueError naming ``what``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{what} overflows float64") from None


def apply_update(m: DenseMatrix, u: StreamUpdate) -> DenseMatrix:
    """Increment entry (i, j) by alpha, in place."""
    if not (0 <= u.i < m.n and 0 <= u.j < m.p):
        raise IndexError(f"update ({u.i}, {u.j}) out of range for {m.n}x{m.p}")
    m.values[u.i, u.j] += u.alpha
    return m


def iter_stream(lines: Iterable[str]) -> tuple[StreamModel, Iterator[StreamUpdate]]:
    """Parse a stream file: header line, then one record per update.

    Lines that are blank or start with '#' are skipped. Returns the model
    and a lazy iterator over updates (errors surface during iteration,
    tagged with line numbers).
    """
    lines = iter(lines)
    line_no = 0
    for raw in lines:
        line_no += 1
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise StreamFormatError("empty stream file (missing header)")
    fields = line.split()
    if len(fields) != 3 or fields[0] not in MODELS:
        raise StreamFormatError(f"bad header {line!r}", line_no)
    try:
        model = StreamModel(fields[0], int(fields[1]), int(fields[2]))
    except ValueError as e:
        raise StreamFormatError(str(e), line_no) from None

    def updates():
        first, position = line_no + 1, 0  # first: the line number of the block's first line
        while block := list(map(str.strip, itertools.islice(lines, _BLOCK))):
            records = range(len(block))  # index in the block of each record line
            if "" in block or "#" in "".join(block):  # a blank or comment line to skip
                records = [k for k, line in enumerate(block) if line and not line.startswith("#")]
                block = [block[k] for k in records]
            parsed, error = _parse_block(block, model, position)
            yield from parsed
            if error is not None:
                raise StreamFormatError(error, first + records[len(parsed)])
            first += _BLOCK
            position += len(parsed)
        if model.variant != "ts" and position != model.length:
            raise StreamFormatError(
                f"{model.variant} stream has {position} records, expected {model.length}"
            )

    return model, updates()


def replay(model: StreamModel, updates: Iterable[StreamUpdate]) -> DenseMatrix:
    """Accumulate a full update stream into a dense matrix; refuse a sum that overflows."""
    m = DenseMatrix.zeros(model.n, model.p)
    with _refuse_overflow("a matrix cell sum"):
        for u in updates:
            apply_update(m, u)
    return m


def matrix_to_updates(m: DenseMatrix, variant: str) -> list[StreamUpdate]:
    """Serialize a dense matrix as an update stream in the given model order."""
    if variant == "rps":
        return [
            StreamUpdate(float(m.values[i, j]), i, j)
            for i in range(m.n)
            for j in range(m.p)
        ]
    if variant == "cps":
        return [
            StreamUpdate(float(m.values[i, j]), i, j)
            for j in range(m.p)
            for i in range(m.n)
        ]
    if variant == "ts":
        return [
            StreamUpdate(float(m.values[i, j]), i, j)
            for i in range(m.n)
            for j in range(m.p)
            if m.values[i, j] != 0.0
        ]
    raise ValueError(f"unknown stream model {variant!r}")


def write_stream(fh: TextIO, model: StreamModel, updates: Iterable[StreamUpdate]):
    """Write the line-oriented stream format. Floats use repr round-tripping."""
    fh.write(f"{model.variant} {model.n} {model.p}\n")
    if model.variant == "ts":
        for u in updates:
            fh.write(f"{u.alpha!r} {u.i} {u.j}\n")
    else:
        for u in updates:
            fh.write(f"{u.alpha!r}\n")


def write_stream_file(path, model: StreamModel, updates: Iterable[StreamUpdate]):
    with open(path, "w", encoding="utf-8") as fh:
        write_stream(fh, model, updates)
