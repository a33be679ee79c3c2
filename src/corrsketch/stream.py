"""Stream update models and the dense reference matrix.

An n x p observation matrix arrives as a stream of updates under one of
three models:

  rps  row-wise permutation: one value per line, entries arrive row by row
  cps  column-wise permutation: one value per line, column by column
  ts   turnstile: "alpha i j" lines, arbitrary increments in any order

The dense matrix here is a reference structure for the exact oracle and
for tests; the sketching path never materializes it.
"""

from __future__ import annotations

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
    permutation models.
    """
    fields = line.split()
    if model.variant == "ts":
        if len(fields) != 3:
            raise StreamFormatError(
                f"turnstile record needs 'alpha i j', got {line!r}"
            )
        alpha_s, i_s, j_s = fields
        try:
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise StreamFormatError(f"bad indices in {line!r}") from None
    else:
        if len(fields) != 1:
            raise StreamFormatError(
                f"{model.variant} record needs a single value, got {line!r}"
            )
        alpha_s = fields[0]
        if position >= model.length:
            raise StreamFormatError(
                f"{model.variant} stream longer than n*p = {model.length}"
            )
        if model.variant == "rps":
            i, j = divmod(position, model.p)
        else:  # cps: position q = j*n + i
            j, i = divmod(position, model.n)
    try:
        alpha = float(alpha_s)
    except ValueError:
        raise StreamFormatError(f"bad value {alpha_s!r}") from None
    if not math.isfinite(alpha):
        raise StreamFormatError(f"non-finite value {alpha_s!r}")
    if not (0 <= i < model.n and 0 <= j < model.p):
        raise StreamFormatError(f"index ({i}, {j}) out of range for {model.n}x{model.p}")
    return StreamUpdate(alpha, i, j)


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
    it = enumerate(lines, start=1)
    for line_no, raw in it:
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
        position = 0
        for line_no, raw in it:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                yield parse_update(line, model, position)
            except StreamFormatError as e:
                raise StreamFormatError(str(e), line_no) from None
            position += 1
        if model.variant != "ts" and position != model.length:
            raise StreamFormatError(
                f"{model.variant} stream has {position} records, expected {model.length}"
            )

    return model, updates()


def read_stream(path) -> tuple[StreamModel, list[StreamUpdate]]:
    with open(path, "r", encoding="utf-8") as fh:
        model, updates = iter_stream(fh)
        return model, list(updates)


def replay(model: StreamModel, updates: Iterable[StreamUpdate]) -> DenseMatrix:
    """Accumulate a full update stream into a dense matrix."""
    m = DenseMatrix.zeros(model.n, model.p)
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
