"""Size-grid benchmark: ingest and query costs versus n.

Groups scale as n^theta * (k + R/phi) while the sketch accuracy stays
fixed, so sketch bytes grow linearly in n and query time subquadratically.
The runner times the real update path (one turnstile update at a time)
and the full voting query, then fits log-log growth exponents.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ecc, oracle, recovery
from .ams import RowSketchStore, SketchTransform
from .stream import StreamUpdate


@dataclass
class BenchGrid:
    n_values: list[int] = field(default_factory=lambda: [256, 512, 1024])
    p: int = 256
    phi: float = 0.8
    k: int = 2
    residual_bound: float = 0.5
    theta: float = 2.0 / 3.0
    epsilon: float = 0.05
    delta: float = 0.2
    reps: int = 4
    seed: int = 1


@dataclass
class BenchRow:
    n: int
    p: int
    groups: int
    sketch_bytes: int
    ingest_s: float
    query_s: float


@dataclass
class BenchResult:
    rows: list[BenchRow]
    query_exponent: float
    bytes_exponent: float

    def csv_lines(self):
        yield "n,p,pi,sketch_bytes,ingest_s,query_s"
        for r in self.rows:
            yield f"{r.n},{r.p},{r.groups},{r.sketch_bytes},{r.ingest_s:.6f},{r.query_s:.6f}"


def _fit_exponent(ns, ys) -> float:
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def run_point(grid: BenchGrid, n: int) -> BenchRow:
    spec = oracle.PlantedSpec(
        n, grid.p, [(0, n // 2, 0.9)], seed=grid.seed + n
    )
    m, _ = oracle.plant_dataset(spec)
    transform = SketchTransform.from_accuracy(grid.p, grid.epsilon, grid.delta, grid.seed)
    store = RowSketchStore(transform, n)
    values = m.values
    t0 = time.perf_counter()
    for i in range(n):
        row = values[i]
        for j in range(grid.p):
            store.apply(StreamUpdate(row[j], i, j))
    ingest_s = time.perf_counter() - t0
    sketch_bytes = store.rows.nbytes + store.totals.nbytes + store.ones_sketch.nbytes
    store.standardize()
    cb = ecc.for_index_space(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = recovery.select_parameters(
            n,
            grid.phi,
            grid.k,
            grid.residual_bound,
            grid.theta,
            cb,
            "practical",
            reps=grid.reps,
            epsilon=transform.epsilon,
            delta=transform.delta,
        )
    t0 = time.perf_counter()
    recovery.recover(store, params, cb, seed=grid.seed + 7 * n)
    query_s = time.perf_counter() - t0
    return BenchRow(n, grid.p, params.groups, sketch_bytes, ingest_s, query_s)


def run_bench(grid: BenchGrid) -> BenchResult:
    rows = []
    for n in grid.n_values:
        try:
            rows.append(run_point(grid, n))
        except MemoryError:
            break  # partial results are still useful
    ns = [r.n for r in rows]
    if len(rows) >= 2:
        query_exp = _fit_exponent(ns, [max(r.query_s, 1e-9) for r in rows])
        bytes_exp = _fit_exponent(ns, [r.sketch_bytes for r in rows])
    else:
        query_exp = bytes_exp = math.nan
    return BenchResult(rows, query_exp, bytes_exp)


# grid key -> (BenchGrid field, value parser)
_GRID_KEYS = {
    "n": ("n_values", lambda v: [int(x) for x in v.split(",")]),
    "p": ("p", int),
    "phi": ("phi", float),
    "k": ("k", int),
    "R": ("residual_bound", float),
    "r": ("residual_bound", float),
    "theta": ("theta", float),
    "epsilon": ("epsilon", float),
    "delta": ("delta", float),
    "gamma": ("reps", int),
    "seed": ("seed", int),
}


def parse_grid(spec: str) -> BenchGrid:
    """Parse 'n=256,512,1024;p=256;phi=0.8;...' into a BenchGrid."""
    grid = BenchGrid()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"grid entries must be key=value, got {part!r}")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}")
        name, parse = _GRID_KEYS[key]
        setattr(grid, name, parse(value))
    return grid
