"""Workload definitions, seeded input generators and the ingest path.

Each workload fixes a sketch accuracy and a query shape. Its inputs are
generated from the workload seed alone and handed to the package only as
files: a stream file (what ``corrsketch ingest`` reads) and the snapshot
that ingest writes (what ``corrsketch query`` reads). Ground truth is
computed here, from the generator's own data, never by the package.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from corrsketch import ecc, oracle
from corrsketch.ams import RowSketchStore, SketchTransform, seed_stream
from corrsketch.recovery import recover, select_parameters
from corrsketch.stream import StreamModel, iter_stream, matrix_to_updates, write_stream_file


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    ``kind`` is "dense" (an rps stream of a planted dense matrix, ingested
    once during set-up; each operation is one query) or "sparse" (a
    shuffled turnstile stream; each operation ingests it and then runs one
    query). ``nnz`` is the mean support size of a sparse row.
    """

    name: str
    kind: str
    n: int
    p: int
    epsilon: float
    delta: float
    phi: float
    k: int
    R: float
    pi: int
    gamma: int
    planted: int
    nnz: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # acceptance-01 shape: pi = n, so every group is a singleton
        Workload("gram128", "dense", n=128, p=1024, epsilon=0.02, delta=0.01,
                 phi=0.8, k=8, R=0.0, pi=128, gamma=16, planted=4),
        # top of the theta=2/3 grid: noisy buckets, decode-heavy
        Workload("grouped1024", "dense", n=1024, p=256, epsilon=0.05, delta=0.2,
                 phi=0.8, k=2, R=0.5, pi=267, gamma=4, planted=1),
        # write-heavy: large p, sparse rows, light query
        Workload("wide-stream", "sparse", n=64, p=1 << 20, epsilon=0.05, delta=0.2,
                 phi=0.8, k=8, R=0.0, pi=16, gamma=5, planted=4, nnz=1500),
    )
}

# Planted correlations are drawn from this magnitude range, sign random.
RHO_RANGE = (0.9, 0.95)


@dataclass(frozen=True)
class Seeds:
    """Every random choice of one run, derived from the workload seed."""

    data: int
    sketch: int
    query: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        draws = seed_stream(seed)
        return cls(next(draws), next(draws), next(draws))

    def query_seed(self, op: int) -> int:
        draws = seed_stream(self.query + op)
        return next(draws)


def canonical(pairs) -> set[tuple[int, int]]:
    return {(min(i, j), max(i, j)) for i, j in pairs}


def _planted_pairs(rng: np.random.Generator, w: Workload):
    rows = rng.permutation(w.n)[: 2 * w.planted]
    rhos = rng.uniform(*RHO_RANGE, size=w.planted) * rng.choice([-1.0, 1.0], size=w.planted)
    return [(int(rows[2 * q]), int(rows[2 * q + 1]), float(rhos[q])) for q in range(w.planted)]


def _exact_large_set(corr: np.ndarray, phi: float) -> set[tuple[int, int]]:
    mask = np.abs(corr) >= phi
    np.fill_diagonal(mask, False)
    return canonical(zip(*np.nonzero(mask)))


def generate_dense(w: Workload, seed: int, path: str):
    """Planted dense matrix written as an rps stream; returns the exact correlations."""
    rng = np.random.default_rng(seed)
    spec = oracle.PlantedSpec(w.n, w.p, _planted_pairs(rng, w), seed=int(rng.integers(2**63)))
    m, truth = oracle.plant_dataset(spec)
    write_stream_file(path, StreamModel("rps", w.n, w.p), matrix_to_updates(m, "rps"))
    return canonical((i, j) for i, j, _ in truth), oracle.correlation(m).values, w.n * w.p


def _sparse_updates(w: Workload, rng: np.random.Generator):
    """Turnstile increments (row, col, alpha) of a sparse planted matrix.

    Background rows get independent random supports. The second row of a
    planted pair copies the first row's values (sign by rho) and adds noise
    on a disjoint support whose norm sets the cosine to |rho|. A quarter of
    the cells arrive as two increments, some increments are inserted and
    later cancelled, and arrival order is shuffled across rows.
    """
    planted = _planted_pairs(rng, w)
    partner = {i: (j, rho) for i, j, rho in planted}
    followers = {j for _, j, _ in planted}
    rows, cols, vals = [], [], []
    for i in range(w.n):
        if i in followers:
            continue
        size = int(rng.integers(w.nnz // 2, 3 * w.nnz // 2))
        support = rng.choice(w.p, size=size, replace=False)
        v = rng.standard_normal(size)
        rows.append(np.full(size, i))
        cols.append(support)
        vals.append(v)
        if i in partner:
            j, rho = partner[i]
            noise_cols = rng.choice(w.p, size=size, replace=False)
            noise = rng.standard_normal(size)
            noise *= np.linalg.norm(v) * math.sqrt(1.0 / rho**2 - 1.0) / np.linalg.norm(noise)
            rows.append(np.full(2 * size, j))
            cols.append(np.concatenate([support, noise_cols]))
            vals.append(np.concatenate([math.copysign(1.0, rho) * v, noise]))
    r, c, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    # split a quarter of the cells into two increments that sum to the value
    split = rng.random(v.size) < 0.25
    part = rng.standard_normal(int(split.sum()))
    first = v.copy()
    first[split] -= part
    r = np.concatenate([r, r[split]])
    c = np.concatenate([c, c[split]])
    v = np.concatenate([first, part])
    # insert-then-cancel increments on random cells
    cancel = v.size // 20
    cr = rng.integers(w.n, size=cancel)
    cc = rng.integers(w.p, size=cancel)
    cv = rng.standard_normal(cancel)
    r = np.concatenate([r, cr, cr])
    c = np.concatenate([c, cc, cc])
    v = np.concatenate([v, cv, -cv])
    order = rng.permutation(v.size)
    return r[order], c[order], v[order], {(min(i, j), max(i, j)) for i, j, _ in planted}


def sparse_correlation(n: int, p: int, r, c, v) -> np.ndarray:
    """Exact sample correlations of a sparse n x p matrix given as increments.

    Increments are summed per cell in arrival order, then the Gram matrix
    is built from the cells that share a column, so nothing of size n x p
    is ever materialized.
    """
    key = r.astype(np.int64) * p + c
    cells, inverse = np.unique(key, return_inverse=True)
    x = np.zeros(cells.size)
    np.add.at(x, inverse, v)
    row, col = cells // p, cells % p  # cells are sorted by (row, col)
    order = np.argsort(col, kind="stable")
    row, col, x = row[order], col[order], x[order]
    gram = np.zeros((n, n))
    np.add.at(gram, (row, row), x * x)
    off = 1
    while True:
        same = col[:-off] == col[off:]
        if not same.any():
            break
        a, b = row[:-off][same], row[off:][same]
        prod = x[:-off][same] * x[off:][same]
        np.add.at(gram, (a, b), prod)
        np.add.at(gram, (b, a), prod)
        off += 1
    totals = np.zeros(n)
    np.add.at(totals, row, x)
    cov = gram - np.outer(totals, totals) / p
    scale = 1.0 / np.sqrt(np.diag(cov))
    return cov * np.outer(scale, scale)


def generate_sparse(w: Workload, seed: int, path: str):
    """Shuffled turnstile stream; returns the planted set and exact correlations."""
    rng = np.random.default_rng(seed)
    r, c, v, planted = _sparse_updates(w, rng)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"ts {w.n} {w.p}\n")
        fh.writelines(f"{a!r} {i} {j}\n" for a, i, j in zip(v.tolist(), r.tolist(), c.tolist()))
    return planted, sparse_correlation(w.n, w.p, r, c, v), int(v.size)


def generate(w: Workload, seed: int, path: str):
    """Write the workload's stream file and check the planted set against exact truth.

    Returns (planted pairs, exact correlation matrix, update count).
    """
    gen = generate_dense if w.kind == "dense" else generate_sparse
    planted, corr, updates = gen(w, seed, path)
    exact = _exact_large_set(corr, w.phi)
    if exact != planted:
        raise RuntimeError(
            f"{w.name}: exact large set {sorted(exact)} differs from planted {sorted(planted)}"
        )
    return planted, corr, updates


def gate(result, truth, corr: np.ndarray, phi: float) -> list[str]:
    """Problems with one query's answer; empty when it is exactly right.

    The answer must be the planted set, and every returned pair must reach
    phi in the exact correlations computed from the generator's data.
    """
    problems = []
    if truth - result:
        problems.append(f"missed {sorted(truth - result)}")
    if result - truth:
        problems.append(f"returned unplanted {sorted(result - truth)}")
    low = sorted((i, j) for i, j in result if abs(corr[i, j]) < phi)
    if low:
        problems.append(f"exact |corr| below phi={phi} for {low}")
    return problems


# -- the package's ingest and query paths, as the CLI drives them ---------


def ingest(w: Workload, stream_path: str, snapshot_path: str, sketch_seed: int, tracer=None):
    """``corrsketch ingest``: stream file -> snapshot on disk.

    With a tracer, each stage is recorded as a span; ``ams.transform``
    covers building the hash tables and the store (whose constructor folds
    in the all-ones sketch).
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    with span("ingest"):
        with open(stream_path, "r", encoding="utf-8") as fh:
            model, updates = iter_stream(fh)
            with span("ams.transform"):
                transform = SketchTransform.from_accuracy(model.p, w.epsilon, w.delta, sketch_seed)
                store = RowSketchStore(transform, model.n)
            if tracer is None:
                for u in updates:
                    store.apply(u)
            else:
                _traced_apply(tracer, store, updates)
        with span("ams.finalize"):
            store.finalize_ones()
        with span("ams.save"):
            store.save(snapshot_path)


def _traced_apply(tracer, store, updates):
    """Apply every update, charging time to parsing and to the sketch update."""
    clock = time.perf_counter
    parse_s = apply_s = 0.0
    count = 0
    while True:
        t0 = clock()
        u = next(updates, None)
        t1 = clock()
        parse_s += t1 - t0
        if u is None:
            break
        store.apply(u)
        apply_s += clock() - t1
        count += 1
    tracer.add("stream.parse", parse_s, count)
    tracer.add("ams.apply", apply_s, count)


def query_params(w: Workload, store: RowSketchStore, cb):
    """``corrsketch query --mode practical --pi --gamma`` parameter selection."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # guarantee-constraint warnings, as on the CLI's stderr
        return select_parameters(
            store.n, w.phi, w.k, w.R, 0.0, cb, "practical",
            groups=w.pi, reps=w.gamma,
            epsilon=store.transform.epsilon, delta=store.transform.delta,
        )


def query(w: Workload, snapshot_path: str, seed: int) -> set[tuple[int, int]]:
    """``corrsketch query --verify``: snapshot path -> verified pair set."""
    store = RowSketchStore.load(snapshot_path)
    qstore = store if store.standardized else store.standardized_copy()
    cb = ecc.for_index_space(store.n)
    params = query_params(w, store, cb)
    return recover(qstore, params, cb, seed, verify=True, threads=1)
