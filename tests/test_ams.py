import hashlib
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store, integer_matrix
from corrsketch import ams, cli
from corrsketch.ams import (
    RowSketchStore,
    SketchStateError,
    SketchTransform,
    SnapshotFormatError,
    _poly_values,
    _reduce,
    accuracy_depth,
    accuracy_width,
    inner_product,
    seed_stream,
)
from corrsketch.stream import (
    DenseMatrix,
    StreamModel,
    StreamUpdate,
    matrix_to_updates,
    replay,
    write_stream_file,
)


def test_accuracy_constants():
    assert accuracy_width(0.02) == 10_000
    assert accuracy_width(0.1) == 400
    assert accuracy_depth(0.01) == 37  # smallest odd >= 8 ln 100
    assert accuracy_depth(0.05) == 25
    with pytest.raises(ValueError):
        accuracy_width(0.0)


def test_transform_determinism_and_shape():
    a = SketchTransform(64, 32, 5, seed=9)
    b = SketchTransform(64, 32, 5, seed=9)
    cols = np.arange(64)
    (ab, asg), (bb, bsg) = a.hash_columns(cols), b.hash_columns(cols)
    assert ab.shape == asg.shape == (5, 64)
    assert np.array_equal(ab, bb)
    assert np.array_equal(asg, bsg)
    assert a == b
    assert set(np.unique(asg)) <= {-1.0, 1.0}
    assert ab.min() >= 0 and ab.max() < 32
    # any subset of columns, in any order, hashes as the whole range does
    picked = np.array([63, 0, 17, 17, 5])
    sub_b, sub_s = a.hash_columns(picked)
    assert np.array_equal(sub_b, ab[:, picked]) and np.array_equal(sub_s, asg[:, picked])
    with pytest.raises(ValueError):
        SketchTransform(64, 32, 4, seed=9)  # even depth


_M = (1 << 31) - 1


def _direct_poly(coeffs, x):
    """Reference: one fresh evaluation per polynomial, reducing x each time."""
    acc = np.full(x.shape, coeffs[3], dtype=np.uint64)
    xs = x.astype(np.uint64) % np.uint64(_M)
    for c in (coeffs[2], coeffs[1], coeffs[0]):
        acc = (acc * xs + np.uint64(c)) % np.uint64(_M)
    return acc


@pytest.mark.parametrize("p,width,depth", [(1000, 37, 5), (777, 101, 3), (97, 13, 7)])
@pytest.mark.parametrize("seed", [0, 9, 2**63 + 11])
def test_tables_match_direct_poly_evaluation(p, width, depth, seed):
    t = SketchTransform(p, width, depth, seed)
    x = np.arange(p, dtype=np.uint64)
    buckets, signs = t.hash_columns(np.arange(p))
    draws = seed_stream(seed)
    for row in range(depth):
        hc = [next(draws) % _M for _ in range(4)]
        gc = [next(draws) % _M for _ in range(4)]
        expect_b = (_direct_poly(hc, x) % np.uint64(width)).astype(np.int64)
        expect_s = 1.0 - 2.0 * (_direct_poly(gc, x) & np.uint64(1)).astype(np.float64)
        assert np.array_equal(buckets[row], expect_b)
        assert np.array_equal(signs[row], expect_s)


def test_poly_values_matches_integer_arithmetic():
    coeffs = [_M - 1, 12345, _M - 2, 987654321]
    points = [0, 1, 2, _M - 1, _M, _M + 5, 2**40 + 3, 2**63 - 1]
    xs = np.array(points, dtype=np.uint64) % np.uint64(_M)
    got = _poly_values(coeffs, xs, np.empty(len(points), dtype=np.uint64))
    expect = [sum(c * x**k for k, c in enumerate(coeffs)) % _M for x in points]
    assert got.tolist() == expect
    # every coefficient M - 1 at x = M - 1: the unreduced four-term sum is largest
    top = [_M - 1] * 4
    got = _poly_values(top, xs)
    assert got.tolist() == [sum(c * x**k for k, c in enumerate(top)) % _M for x in points]
    # (2, depth, 1) coefficient arrays broadcast against the points, as hash_columns passes them
    depth = 3
    draws = seed_stream(5)
    table = np.array([next(draws) % _M for _ in range(4 * 2 * depth)], dtype=np.uint64)
    table = table.reshape(4, 2, depth, 1)
    table[:, 1, 0] = _M - 1
    got = _poly_values(table, xs)
    assert got.shape == (2, depth, len(points))
    for h in range(2):
        for row in range(depth):
            cs = [int(c) for c in table[:, h, row, 0]]
            expect = [sum(c * x**k for k, c in enumerate(cs)) % _M for x in points]
            assert got[h, row].tolist() == expect


@pytest.mark.parametrize("modulus", [_M, 1600, 10**4, 37])
def test_reduce_matches_remainder(modulus):
    values = [0, _M - 1, _M, 2**62, 2**63, 2**64 - 1]
    acc = np.array(values, dtype=np.uint64)
    expect = np.remainder(acc, np.uint64(modulus))
    assert _reduce(acc, modulus) is acc  # in place
    assert acc.tolist() == expect.tolist() == [v % modulus for v in values]


def test_basis_update_touches_one_bucket_per_row():
    t = SketchTransform(16, 8, 7, seed=1)
    store = RowSketchStore(t, 2)
    store.apply(StreamUpdate(1.0, 0, 0))
    r0 = store.row_sketch(0)
    assert np.count_nonzero(r0) == 7
    assert set(np.unique(r0[r0 != 0])) <= {-1.0, 1.0}
    assert store.totals[0] == 1.0


def test_updates_cancel():
    t = SketchTransform(16, 8, 7, seed=1)
    store = RowSketchStore(t, 2)
    store.apply(StreamUpdate(2.0, 0, 5))
    store.apply(StreamUpdate(-2.0, 0, 5))
    assert not np.any(store.row_sketch(0))
    assert store.totals[0] == 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_apply_refuses_non_finite_value(bad):
    # a NaN update would poison its row without flagging it degenerate
    store = RowSketchStore(SketchTransform(16, 8, 7, seed=1), 4)
    with pytest.raises(ValueError, match=r"non-finite value .* at cell \(2, 5\)"):
        store.apply(StreamUpdate(bad, 2, 5))
    assert not np.any(store.rows) and not np.any(store.totals)


@pytest.mark.parametrize("i,j", [(2.0, 5), (1.5, 5), (2, 5.0), (2, "5")])
def test_apply_refuses_non_integer_index(i, j):
    # a buffered update is checked when it arrives: nothing is truncated into the buffer
    store = RowSketchStore(SketchTransform(16, 8, 7, seed=1), 4)
    with pytest.raises(IndexError, match="non-integer index"):
        store.apply(StreamUpdate(1.0, i, j))
    assert not np.any(store.rows) and not np.any(store.totals)
    store.apply(StreamUpdate(1.0, np.int64(2), 5))  # integer types other than int are fine
    assert store.totals.tolist() == [0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_matrix_refuses_non_finite_value(bad):
    values = np.ones((4, 16))
    values[2, 5] = bad
    with pytest.raises(ValueError, match=r"non-finite value .* at cell \(2, 5\)"):
        RowSketchStore.from_matrix(SketchTransform(16, 8, 7, seed=1), values)


def test_from_matrix_refuses_overflowing_row_total():
    # the identity sketch never sums two columns, so only the total overflows
    values = np.array([[1.0, 2.0, 3.0, 4.0], [1e308, 1e308, 0.0, 0.0]])
    with pytest.raises(ValueError, match="^a row total overflows float64$"):
        RowSketchStore.from_matrix(SketchTransform.identity(4), values)


def test_save_refuses_an_overflowing_centered_cell(tmp_path):
    # the identity sketch's cells are the values and o is all ones; the row
    # mean 1.7e308 / 3 puts the middle cell's r - mu o past float64's range,
    # so the snapshot, which holds centered cells, is not written
    values = np.array([[1.7e308, -1.7e308, 1.7e308]])
    store = RowSketchStore.from_matrix(SketchTransform.identity(3), values)
    with pytest.raises(ValueError, match="^a centered sketch cell overflows float64$"):
        store.save(tmp_path / "s.snap")
    assert list(tmp_path.iterdir()) == []


def test_sketch_cell_overflow_is_refused():
    # one bucket: two values signed to agree sum past float64's range
    t = SketchTransform(2, 1, 1, seed=3)
    v = 1e308 * np.array([t.sketch_vector(e)[0, 0] for e in np.eye(2)])
    for build in (lambda: t.sketch_vector(v), lambda: RowSketchStore.from_matrix(t, v[None])):
        with pytest.raises(ValueError, match="^a sketch cell sum overflows float64$"):
            build()


def test_from_matrix_refuses_wrong_shape(tmp_path):
    t = SketchTransform(8, 4, 3, seed=1)
    for shape in [(2, 12), (2, 5), (8,)]:
        with pytest.raises(ValueError, match=rf"\(n, 8\), got shape {re.escape(str(shape))}"):
            RowSketchStore.from_matrix(t, np.ones(shape))
    # the right width gives fixed bytes (format v3)
    RowSketchStore.from_matrix(t, np.arange(16.0).reshape(2, 8) - 5).save(tmp_path / "m.snap")
    digest = hashlib.sha256((tmp_path / "m.snap").read_bytes()).hexdigest()
    assert digest == "89444959e2c957ea1b4e67f4ec21febe31c019dcc121704778cca866109e2a49"


def test_rps_replay_matches_dense_sketch_bit_exact(rng):
    values = rng.standard_normal((8, 16))
    t = SketchTransform(16, 8, 5, seed=3)
    store = RowSketchStore(t, 8)
    for u in matrix_to_updates(DenseMatrix(values), "rps"):
        store.apply(u)
    for i in range(8):
        assert np.array_equal(store.row_sketch(i), t.sketch_vector(values[i]))
    # from_matrix is the rps ingest of its matrix: rows and totals, bit for bit
    built = RowSketchStore.from_matrix(t, values)
    assert built.rows.tobytes() == store.rows.tobytes()
    assert built.totals.tobytes() == store.totals.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sketch_vector_refuses_non_finite_value(bad):
    v = np.ones(16)
    v[3] = bad
    with pytest.raises(ValueError, match=r"non-finite value .* at column 3"):
        SketchTransform(16, 8, 5, seed=1).sketch_vector(v)


def test_sketch_vector_zero_and_basis():
    t = SketchTransform(16, 8, 5, seed=3)
    assert not np.any(t.sketch_vector(np.zeros(16)))
    e3 = np.zeros(16)
    e3[3] = 1.0
    store = RowSketchStore(t, 1)
    store.apply(StreamUpdate(1.0, 0, 3))
    assert np.array_equal(t.sketch_vector(e3), store.row_sketch(0))
    with pytest.raises(ValueError):
        t.sketch_vector(np.zeros(15))


def test_ones_sketch_fold_equivalence():
    t = SketchTransform(64, 16, 5, seed=8)
    store = RowSketchStore(t, 1)
    assert np.array_equal(store.ones_sketch, t.sketch_vector(np.ones(64)))
    before = store.ones_sketch.copy()
    for j in range(5):  # updates never touch the all-ones sketch
        store.apply(StreamUpdate(0.5, 0, j))
    store.finalize_ones()  # a no-op: the constructor built it whole
    assert np.array_equal(store.ones_sketch, before)


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
@pytest.mark.parametrize("p", [2, 5, 64, 101])
def test_ones_sketch_same_bits_on_any_core_count(monkeypatch, cores, p):
    # 3-column steps at depth 5 (16 at depth 1): p = 2 is one step, fewer columns
    # than workers; 5 is two steps; 101 is 34 steps, no multiple of a worker count
    pools = []

    class Pool(ams.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(ams, "_CHUNK", 16)
    monkeypatch.setattr(ams, "_usable_cores", lambda: cores)
    monkeypatch.setattr(ams, "ThreadPoolExecutor", Pool)
    for t in (SketchTransform(p, 16, 5, seed=8), SketchTransform.identity(p)):
        pools.clear()
        ones = RowSketchStore(t, 1).ones_sketch
        assert ones.tobytes() == t.sketch_vector(np.ones(p)).tobytes()
        workers = min(cores, -(-p // (16 // t.depth)))  # never more workers than steps
        assert pools == ([workers] if workers > 1 else [])


def test_usable_cores_without_affinity(monkeypatch):
    # os.sched_getaffinity is Linux-only; elsewhere the pool sizes itself by os.cpu_count()
    monkeypatch.delattr(ams.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ams.os, "cpu_count", lambda: 3)
    assert ams._usable_cores() == 3
    monkeypatch.setattr(ams.os, "cpu_count", lambda: None)  # undeterminable
    assert ams._usable_cores() == 1


def test_inner_product_examples():
    t = SketchTransform(16, 8, 5, seed=3)
    zero = np.zeros((t.depth, t.width))
    e0 = np.zeros(16)
    e0[0] = 1.0
    s = t.sketch_vector(e0)
    assert inner_product(zero, s) == 0.0
    assert inner_product(s, s) == 1.0  # a basis vector collides with itself everywhere
    with pytest.raises(ValueError):
        inner_product(s, np.zeros((3, 3)))


def test_inner_product_monte_carlo(rng):
    # lighter sibling of the acceptance check: 200 unit-vector pairs
    p, trials = 512, 200
    t = SketchTransform(p, 400, 7, seed=123)
    hits = 0
    for _ in range(trials):
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        est = inner_product(t.sketch_vector(x), t.sketch_vector(y))
        hits += abs(est - float(x @ y)) <= 0.1
    assert hits / trials >= 0.9


def test_standardize_identical_rows(rng):
    values = rng.standard_normal((4, 256))
    values[2] = values[0]
    store = build_store(values, epsilon=0.05, delta=0.05)
    store.standardize()
    eps = store.transform.epsilon
    assert abs(store.inner(0, 2) - 1.0) <= 4 * eps
    assert store.standardized


def test_standardize_flags_degenerate_rows(rng):
    values = rng.standard_normal((3, 64))
    values[1] = 2.5  # constant row: zero variance
    store = build_store(values)
    store.standardize()
    assert store.degenerate[1] and not store.degenerate[0]
    assert not np.any(store.row_sketch(1))
    assert store.inner(1, 0) == 0.0


def test_standardize_refuses_an_overflowing_squared_norm():
    # row 0 sums fine, but its squared norm (5e400) is past float64's range
    values = np.array([[1e200, 2e200, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0], [1.0, 0.0, 0.0, 3.0]])
    store = RowSketchStore.from_matrix(SketchTransform.identity(4), values)
    with pytest.raises(ValueError, match="^row 0's squared sketch norm overflows float64$"):
        store.standardize()
    assert not store.standardized and store.scale is None


def test_standardize_refuses_a_squared_norm_that_overflows_in_one_sketch_row():
    # row 0's columns 0 and 1 share a bucket and a sign in sketch row 1 only:
    # its squared norm overflows there and not in the other two, so the
    # median is finite, yet the scan's unscaled Gram of sketch row 1 would
    # hold an infinity; the row is refused all the same
    values = np.zeros((3, 8))
    values[0, :2] = 7.7e153
    values[1], values[2] = np.arange(8.0), np.arange(8.0)[::-1] ** 2
    store = RowSketchStore.from_matrix(SketchTransform(8, 4, 3, seed=7), values)
    centered = store.rows[:, 0] - store.totals[0] / 8 * store.ones_sketch
    with np.errstate(over="ignore"):
        norms = (centered * centered).sum(axis=1)
    assert np.isinf(norms).tolist() == [False, True, False]
    with pytest.raises(ValueError, match="^row 0's squared sketch norm overflows float64$"):
        store.standardize()
    assert not store.standardized and store.scale is None


def test_no_updates_after_standardize(rng):
    store = build_store(rng.standard_normal((2, 32)))
    store.standardize()
    with pytest.raises(SketchStateError):
        store.apply(StreamUpdate(1.0, 0, 0))
    with pytest.raises(SketchStateError):
        store.standardize()


def test_standardized_copy_preserves_original(rng):
    store = build_store(rng.standard_normal((3, 64)))
    snap = store.rows.copy()
    std = store.standardized_copy()
    assert std.standardized and not store.standardized
    assert np.array_equal(store.rows, snap)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_store_linearity_under_permutation_and_split(seed, shuffler):
    # pre-standardization state is identical for any ordering of integer updates
    rng = np.random.default_rng(seed)
    values = integer_matrix(rng, 4, 8)
    t = SketchTransform(8, 4, 3, seed=seed)
    updates = matrix_to_updates(DenseMatrix(values), "ts")
    a = RowSketchStore(t, 4)
    for u in updates:
        a.apply(u)
    shuffled = list(updates)
    shuffler.shuffle(shuffled)
    half = len(shuffled) // 2
    b = RowSketchStore(t, 4)
    for u in shuffled[:half]:
        b.apply(u)
    for u in shuffled[half:]:
        b.apply(u)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.totals, b.totals)
    assert np.array_equal(a.ones_sketch, b.ones_sketch)


def _turnstile_parts(rng, values):
    """Every nonzero cell split into 1-3 integer parts, some cancelling pairs, shuffled."""
    updates = []
    for i, j in zip(*np.nonzero(values)):
        cuts = np.sort(rng.integers(-20, 21, size=rng.integers(0, 3)))
        parts = np.diff(np.concatenate([[0.0], cuts, [values[i, j]]]))
        updates += [StreamUpdate(float(a), int(i), int(j)) for a in parts]
        if rng.random() < 0.3:
            c = float(rng.integers(1, 9))
            updates += [StreamUpdate(c, int(i), int(j)), StreamUpdate(-c, int(i), int(j))]
    return [updates[k] for k in rng.permutation(len(updates))]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_result_independent_of_flush_points(tmp_path_factory, seed, data):
    # the buffer size and reads of rows or totals between updates decide only when
    # buffered updates are added, never the snapshot bytes
    rng = np.random.default_rng(seed)
    n, p = 4, 23
    values = integer_matrix(rng, n, p)
    t = SketchTransform(p, 8, 3, seed=seed)
    stream = _turnstile_parts(rng, values)
    thirds = [StreamUpdate(u.alpha / 3, u.i, u.j) for u in stream]  # order now matters
    reads = data.draw(st.dictionaries(st.integers(0, len(stream)), st.sampled_from(["rows", "totals"])))
    cut = data.draw(st.integers(0, len(stream)))
    folder = tmp_path_factory.mktemp("flush")

    def snapshot(store, name):
        store.save(folder / name)
        return (folder / name).read_bytes()

    def ingest(updates, copy_at=None):
        store, copy = RowSketchStore(t, n), None
        for k in range(len(updates) + 1):
            if k in reads:
                getattr(store, reads[k])
            if k == copy_at:
                copy = store.standardized_copy()
                copy_rows = copy.rows.copy()
            if k < len(updates):
                store.apply(updates[k])
        if copy is not None:  # the copy took no later update from the source's buffer
            assert np.array_equal(copy.rows, copy_rows)
        return snapshot(store, "s.snap"), copy

    results = {}
    for chunk in (1, 3, ams._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ams, "_CHUNK", chunk)
            whole, copy = ingest(stream, copy_at=cut)
            dense = snapshot(RowSketchStore.from_matrix(t, values), "d.snap")
            partial = replay(StreamModel("ts", n, p), stream[:cut]).values
            expect = RowSketchStore.from_matrix(t, partial).standardized_copy()
            results[chunk] = (whole, dense, ingest(thirds)[0])
        assert snapshot(copy, "c.snap") == snapshot(expect, "e.snap")
    reference = results[1]
    assert reference[0] == reference[1]  # integer sums: stream order is moot
    for chunk, got in results.items():
        assert got == reference, chunk


def test_store_construction_hashes_in_chunks():
    # the all-ones fold holds a few column chunks, never a (depth, p) table (208 MiB here)
    t = SketchTransform(1 << 20, 1600, 13, seed=3)
    tracemalloc.start()
    try:
        store = RowSketchStore(t, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert np.all(np.abs(store.ones_sketch).sum(axis=1) <= 1 << 20)


def _centered_rows(store: RowSketchStore) -> np.ndarray:
    """Reference: a new store's rows less mu_i o, (depth, n, width), as its snapshot holds them."""
    means = store.totals / store.p
    return store.rows - means[:, None] * store.ones_sketch[:, None, :]


def test_snapshot_roundtrip_bit_exact(tmp_path, rng):
    values = rng.standard_normal((5, 48))
    store = build_store(values)
    path = tmp_path / "plain.snap"
    store.save(path)
    back = RowSketchStore.load(path)
    assert back.transform == store.transform
    assert np.array_equal(back.rows, _centered_rows(store))
    assert np.array_equal(back.totals, store.totals)
    assert np.array_equal(back.ones_sketch, store.ones_sketch)
    assert not back.standardized

    # a standardized store saves its linear state: it loads unstandardized, and
    # standardizing it again serves every bit the original serves
    store.standardize()
    spath = tmp_path / "std.snap"
    store.save(spath)
    assert spath.read_bytes() == path.read_bytes()
    sback = RowSketchStore.load(spath)
    assert not sback.standardized
    sback.standardize()
    for i in range(store.n):
        assert sback.row_sketch(i).tobytes() == store.row_sketch(i).tobytes(), i
    for name in ("mu", "scale", "degenerate"):
        assert getattr(sback, name).tobytes() == getattr(store, name).tobytes(), name


def test_snapshot_roundtrip_identity_transform(tmp_path, rng):
    values = rng.standard_normal((3, 16))
    t = SketchTransform.identity(16)
    store = RowSketchStore.from_matrix(t, values)
    path = tmp_path / "exact.snap"
    store.save(path)
    back = RowSketchStore.load(path)
    assert back.transform.exact and back.transform == t
    buckets, signs = back.transform.hash_columns(np.arange(16))
    assert buckets.tolist() == [list(range(16))] and np.all(signs == 1.0)
    assert np.array_equal(back.rows, _centered_rows(store))


# SHA-256 of v3 snapshot files; any change here is a snapshot format change
_GOLDEN_SHA256 = {
    "ingest": "5fcdcda07c4af6bd19b81662310b152db8f75e56b269f0dc0dd442f1950c418f",
    "standardized": "28dbbbbe2cdbad44ab3177a5a7869891e338b6bcd169beab131acf837558e3d9",
    "identity": "d81f9661474a70f111f085b042fb414090d69617d0889e98d1ca185eda0359ec",
    "narrow": "f7b8f032597337122bfc283178d722a70d93361582a2a25bf4620abb0a58faa2",
}


def test_snapshot_bytes_golden(tmp_path):
    # CLI ingests at p >= width and at p < width (width 100 > p = 40, so only
    # the occupied buckets are stored), a standardized store with one
    # degenerate row (it saves the bytes it saved before standardize) and an
    # identity-transform snapshot: fixed bytes, and load then save reproduces each
    values = (np.arange(6 * 40).reshape(6, 40) * 7919 % 23 - 11).astype(np.float64)
    stream = tmp_path / "g.stream"
    write_stream_file(
        stream, StreamModel("rps", 6, 40), matrix_to_updates(DenseMatrix(values), "rps")
    )
    for name, epsilon in (("ingest", "0.5"), ("narrow", "0.2")):
        code = cli.main(["ingest", "--model", "rps", "--input", str(stream),
                         "--out", str(tmp_path / f"{name}.snap"),
                         "--epsilon", epsilon, "--delta", "0.2", "--seed", "7"])
        assert code == 0
    flat = values.copy()
    flat[2] = 3.0
    std = RowSketchStore.from_matrix(SketchTransform(40, 16, 5, seed=11), flat)
    std.save(tmp_path / "raw.snap")
    std.standardize()
    assert std.degenerate.tolist() == [False, False, True, False, False, False]
    std.save(tmp_path / "standardized.snap")
    assert (tmp_path / "standardized.snap").read_bytes() == (tmp_path / "raw.snap").read_bytes()
    RowSketchStore.from_matrix(SketchTransform.identity(40), values).save(
        tmp_path / "identity.snap"
    )
    for name, digest in _GOLDEN_SHA256.items():
        raw = (tmp_path / f"{name}.snap").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name
        again = tmp_path / f"{name}.again"
        RowSketchStore.load(tmp_path / f"{name}.snap").save(again)
        assert again.read_bytes() == raw, name


def test_rows_memory_in_snapshot_order(tmp_path):
    # rows index as (depth, n, width) but sit in memory as the file's (n, depth, width)
    t = SketchTransform(32, 16, 5, seed=4)
    store = RowSketchStore.from_matrix(t, np.eye(3, 32))
    path = tmp_path / "s.snap"
    store.save(path)
    for s in (RowSketchStore(t, 3), store, RowSketchStore.load(path), store.standardized_copy()):
        assert s.rows.shape == (5, 3, 16)
        assert s.rows.transpose(1, 0, 2).flags.c_contiguous


def _standardized_in_place(store: RowSketchStore, removed=0.0) -> np.ndarray:
    """Reference: the rewrite a standardize once ran on the stored rows, (n, depth, width).

    ``removed`` is the per-row mean already taken out of the stored cells:
    0 for a new store, the totals at load over p for a loaded one.
    """
    stored = np.array(store.rows.transpose(1, 0, 2))  # a copy in snapshot order
    rows = stored.transpose(1, 0, 2)  # indexed (depth, n, width), as the store's rows
    means = store.totals / store.p - removed
    for t in range(store.transform.depth):
        rows[t] -= np.outer(means, store.ones_sketch[t])
    norm_sq = np.median(np.einsum("tib,tib->ti", rows, rows), axis=0)
    degenerate = norm_sq <= ams.NORM_TOLERANCE * store.p
    safe = np.where(degenerate, 1.0, norm_sq)
    rows *= np.where(degenerate, 0.0, 1.0 / np.sqrt(safe))[None, :, None]
    return stored


def _mapped_store(tmp_path, rng, n=7, p=48, offset=0.0, name="s.snap"):
    """A snapshot's path, the store loaded from it, and the new store that saved it."""
    values = rng.standard_normal((n, p)) + offset
    values[2] = 1.5  # constant row: degenerate
    values[4] = 0.0  # empty row: degenerate
    store = RowSketchStore.from_matrix(SketchTransform(p, 16, 5, seed=9), values)
    path = tmp_path / name
    store.save(path)
    return path, RowSketchStore.load(path), store


def test_loaded_rows_map_the_file(tmp_path, rng):
    # the rows are a private map: updates, and a standardized copy, leave the file alone
    path, store, _ = _mapped_store(tmp_path, rng)
    raw = path.read_bytes()
    assert isinstance(store.rows.base, np.memmap)
    before = np.array(store.rows)
    removed = store.totals / store.p  # the means save took out of the cells
    copy = store.standardized_copy()
    served = np.array(copy.rows)
    store.apply(StreamUpdate(3.0, 0, 5))
    assert not np.array_equal(store.rows, before)
    assert np.array_equal(copy.rows, served)
    store.save(tmp_path / "updated.snap")
    assert path.read_bytes() == raw
    reference = _standardized_in_place(store, removed)  # the norms found at load are stale now
    assert store._unremoved_mean() is not None
    store.standardize()
    # the moved row was centered in place: every row's cells are c_i now
    assert store._unremoved_mean() is None and store._base.tobytes() == store.mu.tobytes()
    for i in range(store.n):
        assert np.array_equal(store.row_sketch(i), reference[i]), i
    tile = np.empty((store.n, store.transform.width))
    for t in range(store.transform.depth):
        assert np.array_equal(store.sketch_row(t, tile), reference[:, t])


def test_shifted_reads_span_several_blocks(tmp_path, rng, monkeypatch):
    # at _CHUNK 48 standardize centers the cells 2 rows per block of whole
    # rows (80 cells). A never-saved store and a loaded one after updates
    # serve the rewrite of their own cells bit for bit, through every reader
    monkeypatch.setattr(ams, "_CHUNK", 48)
    _, loaded, new = _mapped_store(tmp_path, rng, n=40)
    removed = loaded.totals / loaded.p  # the means save took out of the cells
    for i in range(0, 40, 3):
        loaded.apply(StreamUpdate(0.5 + i, i, i % 48))
    for name, store, base in (("new", new, 0.0), ("loaded, then applied", loaded, removed)):
        reference = _standardized_in_place(store, base)
        assert store._unremoved_mean() is not None, name
        store.standardize()
        assert store._unremoved_mean() is None, name
        for i in range(store.n):
            assert np.array_equal(store.row_sketch(i), reference[i]), (name, i)
            for j in range(i + 1, store.n, 7):
                assert store.inner(i, j) == inner_product(reference[i], reference[j]), (name, i, j)
        assert np.array_equal(store.rows, reference.transpose(1, 0, 2)), name
        tile = np.empty((store.n, store.transform.width))
        for t in range(store.transform.depth):
            assert np.array_equal(store.sketch_row(t, tile), reference[:, t]), (name, t)


def test_reads_refuse_an_index_out_of_range(rng):
    # a negative index must not wrap around to the last rows, where verify
    # could accept the estimate it read; one past the end is refused by name
    from corrsketch.recovery import verify_candidates

    store = build_store(rng.standard_normal((5, 48)))
    store.standardize()
    for i, j, bad in ((-1, 0, -1), (0, 5, 5)):
        message = f"row {bad} out of range for a store of 5 rows"
        with pytest.raises(IndexError, match=message):
            verify_candidates(store, [(i, j)], 0.9)
        with pytest.raises(IndexError, match=message):
            store.inner(i, j)
        with pytest.raises(IndexError, match=message):
            store.row_sketch(bad)
    depth = store.transform.depth
    for t in (-1, depth):
        with pytest.raises(IndexError, match=f"sketch row {t} out of range for depth {depth}"):
            store.sketch_row(t, np.empty((5, store.transform.width)))


@pytest.mark.parametrize("chunk", [ams._CHUNK, 48])  # 48 cells: 2 rows per save block
def test_standardize_leaves_stored_rows_unchanged(tmp_path, rng, monkeypatch, chunk):
    monkeypatch.setattr(ams, "_CHUNK", chunk)
    path, store, source = _mapped_store(tmp_path, rng)
    mapped = store.rows
    before = np.array(mapped)
    reference = _standardized_in_place(source)
    store.standardize()
    assert np.array_equal(mapped, before)
    assert store.degenerate.tolist() == [False, False, True, False, True, False, False]
    assert np.array_equal(store.mu, store.totals / store.p)
    for i in range(store.n):
        assert np.array_equal(store.row_sketch(i), reference[i]), i
    assert np.array_equal(store.rows, reference.transpose(1, 0, 2))
    tile = np.empty((store.n, store.transform.width))
    for t in range(store.transform.depth):
        assert np.array_equal(store.sketch_row(t, tile), reference[:, t])


def test_centered_row_is_a_view_of_the_stored_cells(tmp_path, rng):
    # standardize centers the cells once, so every standardized store serves
    # centered_row as a view of its own cells, and sketch_row is that view
    # times the scales: built from a matrix, loaded, loaded then updated, and
    # the standardized copy of each
    path, loaded, built = _mapped_store(tmp_path, rng)
    updated = RowSketchStore.load(path)
    updated.apply(StreamUpdate(2.0, 3, 7))
    stores = {"built": built, "loaded": loaded, "updated": updated}
    stores.update({f"{name} copy": store.standardized_copy() for name, store in stores.items()})
    for name, store in stores.items():
        if not store.standardized:
            store.standardize()
        assert store._unremoved_mean() is None, name
        for t, k in enumerate(np.diff(store.transform.offsets)):
            cells = store.centered_row(t)
            assert cells.shape == (store.n, k) and np.shares_memory(cells, store._cells), (name, t)
            served = store.sketch_row(t, np.empty((store.n, k)))
            assert served.tobytes() == (cells * store.scale[:, None]).tobytes(), (name, t)


def test_standardized_copy_writes_nothing_its_source_holds(tmp_path, rng):
    # a store with means left to take out: the copy centers its own cells and
    # base, and the source keeps its rows, its base and its writable cells.
    # Centered cells (a loaded store whose totals have not moved) are shared,
    # read-only in the source until its next update copies them; the norms
    # found at load are not, since an update marks the source's stale
    path, loaded, built = _mapped_store(tmp_path, rng)
    for source in (built, RowSketchStore.load(path)):
        if source is not built:
            source.apply(StreamUpdate(2.0, 3, 7))
        rows, base = np.array(source.rows), source._base.copy()
        copy = source.standardized_copy()
        assert not np.shares_memory(copy._cells, source._cells)
        assert not np.shares_memory(copy._base, source._base)
        assert source._cells.flags.writeable
        assert source.rows.tobytes() == rows.tobytes() and source._base.tobytes() == base.tobytes()
    copy = loaded.standardized_copy()
    assert np.shares_memory(copy._cells, loaded._cells) and not loaded._cells.flags.writeable
    assert not np.shares_memory(copy._norms, loaded._norms)
    served = np.array(copy.rows)
    loaded.apply(StreamUpdate(2.0, 3, 7))
    loaded.standardize()
    assert not np.shares_memory(copy._cells, loaded._cells)
    assert copy.rows.tobytes() == served.tobytes()


def test_standardize_overflow_leaves_rows_and_base_consistent(monkeypatch):
    # identity sketch, one row per block: row 0 is centered, row 1's centered
    # middle cell overflows, and row 2 is left as it was; each row's cells are
    # still its values less base_i o, so a later save or standardize agrees
    monkeypatch.setattr(ams, "_CHUNK", 1)
    values = np.array([[1.0, 2.0, 3.0], [1.7e308, -1.7e308, 1.7e308], [4.0, 0.0, 2.0]])
    store = RowSketchStore.from_matrix(SketchTransform.identity(3), values)
    with pytest.raises(ValueError, match="^a centered sketch cell overflows float64$"):
        store.standardize()
    assert not store.standardized and store.scale is None
    assert store._base.tolist() == [2.0, 0.0, 0.0]
    assert store.rows[0].tolist() == [[-1.0, 0.0, 1.0], values[1].tolist(), values[2].tolist()]
    with pytest.raises(ValueError, match="^a centered sketch cell overflows float64$"):
        store.standardized_copy()
    assert store._base.tolist() == [2.0, 0.0, 0.0]


def _private_dirty(path) -> int:
    """Bytes of this process's private dirty pages in its mappings of ``path``."""
    target, total, inside = os.path.realpath(path), 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):
                inside = len(fields) >= 6 and fields[5] == target
            elif inside and fields[0] == "Private_Dirty:":
                total += int(fields[1]) * 1024
    return total


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs Linux /proc/self/smaps")
def test_standardize_after_one_update_dirties_one_block(tmp_path, rng):
    # a loaded store maps its rows copy-on-write: an update dirties the pages
    # of the row it lands on, and standardize then writes only the block of
    # rows that holds it, not the file. 256 rows of 5,120 cells: 25 rows per
    # block of about 1 MB, in a 10.5 MB file
    t = SketchTransform(1024, 1024, 5, seed=3)
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(t, rng.standard_normal((256, 1024)) + 1.0).save(path)
    with open(path, "rb") as fh:  # pages of a file not yet written back count as dirty too
        os.fsync(fh.fileno())
    store = RowSketchStore.load(path)
    store.apply(StreamUpdate(2.0, 100, 7))
    store.totals  # adds the update: its row's pages turn dirty here
    before = _private_dirty(path)
    assert before > 0
    store.standardize()
    grown = _private_dirty(path) - before
    rows = max(1, 4 * ams._CHUNK // t.cells)
    assert 0 < grown <= 8 * rows * t.cells + 2 * 4096, grown
    assert grown < path.stat().st_size / 4


def test_only_blocks_with_a_moved_row_are_centered(rng, monkeypatch):
    # 16 cells a row at _CHUNK 8: blocks of 2 rows. Only row 5's total moved,
    # so only the block at row 4 is centered, in the buffer; every other
    # block is the stored cells themselves
    monkeypatch.setattr(ams, "_CHUNK", 8)
    cells, ones, shift = rng.standard_normal((7, 16)), rng.standard_normal(16), np.zeros(7)
    shift[5] = 0.25
    starts = []
    for i, block in ams._centered_blocks(cells, shift, ones):
        starts.append(i)
        rows = slice(i, i + len(block))
        assert np.shares_memory(block, cells) == (i != 4), i
        assert block.tobytes() == (cells[rows] - ones * shift[rows, None]).tobytes(), i
    assert starts == [0, 2, 4, 6]


def test_standardize_after_one_update_takes_one_rows_norms(tmp_path, rng, monkeypatch):
    # a loaded store found every row's norms at load; after one update,
    # standardize centers only the block holding that row (2 rows per block
    # at _CHUNK 48) and takes only its norms again. The scales, means and
    # degenerate flags are those of the same store saved and loaded, which
    # takes every row's norms at load
    monkeypatch.setattr(ams, "_CHUNK", 48)
    path, store, _ = _mapped_store(tmp_path, rng)
    store.apply(StreamUpdate(2.0, 3, 7))
    store.save(tmp_path / "again.snap")
    back = RowSketchStore.load(tmp_path / "again.snap")
    formed, normed = [], []
    blocks, norms = ams._centered_blocks, ams._centered_norms

    def spy_blocks(cells, *args):
        for i, block in blocks(cells, *args):
            if not np.shares_memory(block, cells):
                formed.append(i)
            yield i, block

    def spy_norms(cells, *args, **kwargs):
        normed.append(len(cells))
        return norms(cells, *args, **kwargs)

    monkeypatch.setattr(ams, "_centered_blocks", spy_blocks)
    monkeypatch.setattr(ams, "_centered_norms", spy_norms)
    store.standardize()
    assert formed == [2] and normed == [1]
    back.standardize()
    assert normed == [1]  # back's norms were all found at load
    for field in ("scale", "mu", "degenerate"):
        assert getattr(store, field).tobytes() == getattr(back, field).tobytes(), field

def _dense_sketches(t: SketchTransform, n: int, updates, out=None) -> np.ndarray:
    """Reference: every bucket of n sketches, added one update at a time, (n, depth, width).

    The updates are added to ``out`` in place when it is given, to zeros otherwise.
    """
    buckets, signs = t.hash_columns(np.arange(t.p))
    out = np.zeros((n, t.depth, t.width)) if out is None else out
    for alpha, i, j in updates:
        out[i, np.arange(t.depth), buckets[:, j]] += signs[:, j] * alpha
    return out


@pytest.mark.parametrize("p", [40, 64, 100])  # p < width = 64, p = width, p > width
def test_served_rows_are_zero_outside_the_occupied_buckets(tmp_path, rng, p):
    # a store holds only transform.occupied: the buckets some column hashes to,
    # and every bucket once p >= width. Every sketch is 0 elsewhere, so the
    # expanded rows equal all buckets of the sketches added one update at a
    # time, bit for bit (centered at save, for a loaded store), and
    # sketch_row serves each sketch row's cells
    n, width, depth = 6, 64, 5
    t = SketchTransform(p, width, depth, seed=31)
    reach = np.zeros((depth, width), dtype=bool)  # buckets a unit vector's sketch touches
    for j in range(p):
        reach |= t.sketch_vector(np.eye(1, p, j)[0]) != 0
    if p < width:
        assert [np.flatnonzero(row).tolist() for row in reach] == [
            cols.tolist() for cols in t.occupied
        ]
    else:
        assert all(np.array_equal(cols, np.arange(width)) for cols in t.occupied)
    assert t.cells == sum(cols.size for cols in t.occupied)
    values = rng.standard_normal((n, p)) + 2.0
    rps = matrix_to_updates(DenseMatrix(values), "rps")  # from_matrix's order
    dense = _dense_sketches(t, n, rps)
    stores = {"from_matrix": (RowSketchStore.from_matrix(t, values), dense)}
    for model in ("ts", "rps", "cps"):
        stores[model] = (RowSketchStore(t, n), dense)
        for u in matrix_to_updates(DenseMatrix(values), model):
            stores[model][0].apply(u)
    stores["from_matrix"][0].save(tmp_path / "s.snap")
    later = matrix_to_updates(DenseMatrix(rng.standard_normal((n, p))), "ts")
    loaded = RowSketchStore.load(tmp_path / "s.snap")
    for u in later:
        loaded.apply(u)
    ones = _dense_sketches(t, 1, [StreamUpdate(1.0, 0, j) for j in range(p)])[0]
    centered = dense - (stores["rps"][0].totals / p)[:, None, None] * ones
    stores["loaded, then applied"] = (loaded, _dense_sketches(t, n, later, centered))
    for name, (store, dense) in stores.items():
        assert store.rows.transpose(1, 0, 2).tobytes() == dense.tobytes(), name
        assert store.ones_sketch.tobytes() == ones.tobytes(), name
        store.standardize()
        served = store.rows
        for k, cols in enumerate(t.occupied):
            outside = np.ones(width, dtype=bool)
            outside[cols] = False
            assert not dense[:, k, outside].any() and not ones[k, outside].any(), name
            assert not served[k][:, outside].any(), name
            inside = store.sketch_row(k, np.empty((n, cols.size)))
            assert np.array_equal(inside, served[k][:, cols]), name


def test_store_holds_only_the_occupied_cells():
    # p = 256 columns reach about 248 of 4,096 buckets per sketch row: the
    # store and its ingest hold the occupied cells, not a dense (n, d, b) array
    t = SketchTransform(256, 4096, 5, seed=6)
    cells = sum(cols.size for cols in t.occupied)
    assert cells < t.depth * t.width / 10
    values = np.random.default_rng(7).standard_normal((2048, 256))
    tracemalloc.start()
    try:
        store = RowSketchStore.from_matrix(t, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.25 * 8 * store.n * cells
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"
    assert store.nbytes == 8 * (store.n * cells + store.n + cells)  # what a snapshot stores


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_median_gram_matches_standardized_rows(tmp_path, rng, offset):
    # rows far from zero mean: a Gram of the stored rows corrected for the shift
    # afterwards would cancel catastrophically (it read -23 for a 0.91 entry at 1e8).
    # Each sketch row's Gram over the served rows is within 1e-12 of the
    # reference rewrite's, and the scan decides as the reference median does
    from corrsketch.recovery import _scan_hits

    path, store, source = _mapped_store(tmp_path, rng, n=12, p=64, offset=offset)
    reference = _standardized_in_place(source).transpose(1, 0, 2)
    expect = np.stack([rt @ rt.T for rt in reference])
    median = np.median(expect, axis=0)
    store.standardize()
    again = tmp_path / "std.snap"
    store.save(again)
    back = RowSketchStore.load(again)
    back.standardize()
    for served in (store, back):
        for t, k in enumerate(np.diff(served.transform.offsets)):
            rt = served.sketch_row(t, np.empty((served.n, k)))
            assert np.abs(rt @ rt.T - expect[t]).max() <= 1e-12
        for phi in (0.3, 0.8, 1.0):
            decided = np.abs(median) >= phi / 2
            assert decided.any() and not decided.all()
            assert np.abs(np.abs(median) - phi / 2).min() > 1e-9  # no entry within the tolerance
            assert np.array_equal(_scan_hits((served,), phi), decided)


def test_standardized_store_round_trips_its_linear_state(tmp_path, rng):
    # a standardized store saves its centered rows; the reloaded store serves
    # the same bits, rows far from zero mean (offset 1e8) included, takes
    # updates, and flag 1 (which only the v1 format wrote) is refused as unknown
    from corrsketch.recovery import _scan_hits

    for offset in (0.0, 1e8):
        path, _, store = _mapped_store(tmp_path, rng, offset=offset, name=f"{offset}.snap")
        store.standardize()
        again = tmp_path / "std.snap"
        store.save(again)
        assert again.read_bytes() == path.read_bytes()
        back = RowSketchStore.load(again)
        assert not back.standardized
        back.standardize()
        assert np.array_equal(back.degenerate, store.degenerate)
        for name in ("mu", "scale"):
            assert getattr(back, name).tobytes() == getattr(store, name).tobytes(), name
        for i in range(store.n):
            # served bit for bit, signed zeros of the degenerate rows included
            assert back.row_sketch(i).tobytes() == store.row_sketch(i).tobytes(), (offset, i)
        assert back.rows.tobytes() == store.rows.tobytes()
        for phi in (0.3, 0.8):
            assert _scan_hits((back,), phi).tobytes() == _scan_hits((store,), phi).tobytes()
    updated = RowSketchStore.load(again)
    before = np.array(updated.rows)
    updated.apply(StreamUpdate(3.0, 0, 5))
    assert updated.totals[0] == store.totals[0] + 3.0
    basis = updated.transform.sketch_vector(np.eye(1, store.p, 5)[0])
    assert np.array_equal(updated.rows[:, 0], before[:, 0] + 3.0 * basis)
    assert np.array_equal(updated.rows[:, 1:], before[:, 1:])
    raw = bytearray(again.read_bytes())
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    parts[7] |= 1
    struct.pack_into(_HEADER_FORMAT, raw, 0, *parts)
    flag1 = tmp_path / "flag1.snap"
    flag1.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="unknown snapshot flags 0x1"):
        RowSketchStore.load(flag1)


@pytest.mark.parametrize("offset", [0.0, 1e8])
def test_updates_after_load_match_the_new_store(tmp_path, rng, offset):
    # a loaded store's cells were centered at save, so updates land on
    # c_i = r_i - mu_i o, standardize takes (mu_i' - mu_i) o out of them and
    # its rows are served as a_i (c_i - (mu_i' - mu_i) o): equal to the new
    # store's a_i (r_i - mu_i' o) to rounding, not bit for bit. Each served
    # value is off by a few ulps of the largest stored value (about 1e9 at
    # offset 1e8) times the row's scale. A re-save centers the cells as
    # standardize does, so the reloaded store has no mean left to take out
    # and serves the updated store's bits
    path, loaded, store = _mapped_store(tmp_path, rng, offset=offset)
    later = [StreamUpdate(float(a), int(i), int(j)) for a, i, j in zip(
        rng.standard_normal(40) * (1 + offset), rng.integers(0, 7, 40), rng.integers(0, 48, 40)
    )]
    for s in (loaded, store):
        for u in later:
            s.apply(u)
    assert loaded.totals.tobytes() == store.totals.tobytes()
    largest = np.abs(store.rows).max()
    loaded.save(tmp_path / "again.snap")
    back = RowSketchStore.load(tmp_path / "again.snap")
    assert loaded._unremoved_mean() is not None and back._unremoved_mean() is None
    for s in (loaded, store, back):
        s.standardize()
    assert np.array_equal(loaded.degenerate, store.degenerate)
    tolerance = 16 * np.finfo(float).eps * largest * store.scale.max()
    np.testing.assert_allclose(loaded.rows, store.rows, rtol=0, atol=tolerance)
    np.testing.assert_allclose(loaded.scale, store.scale, rtol=16 * np.finfo(float).eps)
    assert back._cells.tobytes() == loaded._cells.tobytes()
    assert back.scale.tobytes() == loaded.scale.tobytes()
    assert back.rows.tobytes() == loaded.rows.tobytes()


def test_save_over_the_mapped_file(tmp_path, rng, monkeypatch):
    # save writes a new file and renames it into place: the store that maps the
    # old one, and any other reader of it, keeps the old bytes
    path, store, source = _mapped_store(tmp_path, rng)
    raw = path.read_bytes()
    store.save(path)
    assert path.read_bytes() == raw
    with monkeypatch.context() as mp:  # a write that fails half way leaves the file as it was
        # it fails once every block of rows is written, before the totals; the
        # new store, never standardized, still has its means to take out, so
        # its rows go in 4 blocks
        blocks, written = ams._centered_blocks, []

        def failing(*args):
            for block in blocks(*args):
                written.append(block[0])
                yield block
            raise ZeroDivisionError

        mp.setattr(ams, "_CHUNK", 48)  # 2 rows per block
        mp.setattr(ams, "_centered_blocks", failing)
        with pytest.raises(ZeroDivisionError):
            source.save(path)
    assert written == [0, 2, 4, 6]
    assert path.read_bytes() == raw
    assert [f.name for f in tmp_path.iterdir()] == ["s.snap"]
    old = RowSketchStore.load(path)
    before = np.array(old.rows)
    RowSketchStore.from_matrix(old.transform, rng.standard_normal((7, 48))).save(path)
    assert path.read_bytes() != raw
    assert np.array_equal(old.rows, before)
    link = tmp_path / "link.snap"  # a save through a symlink replaces its target
    link.symlink_to("old.snap")
    old.save(link)
    assert link.is_symlink() and (tmp_path / "old.snap").read_bytes() == raw
    assert sorted(f.name for f in tmp_path.iterdir()) == ["link.snap", "old.snap", "s.snap"]


@pytest.mark.parametrize("trailing", [0, 3])
def test_load_refuses_unknown_flags(tmp_path, trailing):
    # flag bit 2 is unknown: refused whether or not n trailing values follow
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(SketchTransform(32, 16, 5, seed=4), np.eye(3, 32)).save(path)
    raw = bytearray(path.read_bytes())
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    parts[7] |= 2
    struct.pack_into(_HEADER_FORMAT, raw, 0, *parts)
    path.write_bytes(bytes(raw) + bytes(8 * trailing))
    with pytest.raises(SnapshotFormatError, match="unknown snapshot flags 0x2"):
        RowSketchStore.load(path)


def test_snapshot_rejects_malformed(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(SnapshotFormatError):
        RowSketchStore.load(path)
    good = build_store(np.zeros((2, 8)) + np.eye(2, 8))
    gpath = tmp_path / "good.snap"
    good.save(gpath)
    raw = gpath.read_bytes()
    (tmp_path / "trunc.snap").write_bytes(raw[:-16])
    with pytest.raises(SnapshotFormatError):
        RowSketchStore.load(tmp_path / "trunc.snap")


# the header since v2: 61 bytes of fields, padded to 64 so the rows are 8-byte aligned
_HEADER_FORMAT = "<8sI5QBQ3x"


@pytest.mark.parametrize(
    "section,index,bad,name",
    [
        ("rows", 3 * 5 * 16 + 7, np.nan, "row 3"),  # (n, K) cells, K = depth * width as p > width
        ("totals", 2, np.inf, "totals"),
        ("ones", 4, -np.inf, "ones_sketch"),
    ],
)
def test_load_refuses_non_finite_payload(tmp_path, section, index, bad, name):
    t = SketchTransform(32, 16, 5, seed=4)
    store = RowSketchStore.from_matrix(t, np.arange(6 * 32.0).reshape(6, 32))
    path = tmp_path / "nan.snap"
    store.save(path)
    start = {"rows": 0, "totals": 6 * 5 * 16, "ones": 6 * 5 * 16 + 6}[section]
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, struct.calcsize(_HEADER_FORMAT) + 8 * (start + index), bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match=f"non-finite value in {name}"):
        RowSketchStore.load(path)


@pytest.mark.parametrize("ones_built", [31, 0])
def test_load_refuses_incomplete_ones_sketch(tmp_path, ones_built):
    # the header's ones_built field must equal p: a store has no partly built all-ones sketch
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(SketchTransform(32, 16, 5, seed=4), np.eye(3, 32)).save(path)
    raw = bytearray(path.read_bytes())
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    assert parts[3] == parts[8] == 32  # p, ones_built
    parts[8] = ones_built
    struct.pack_into(_HEADER_FORMAT, raw, 0, *parts)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="ones_built"):
        RowSketchStore.load(path)


def test_load_refuses_a_v1_snapshot(tmp_path):
    # v1 stored every bucket behind a 61-byte header, v2 the uncentered rows
    # behind the padded one; each is refused by name
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(SketchTransform(32, 16, 5, seed=4), np.eye(3, 32)).save(path)
    raw = path.read_bytes()
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    # p > width: every bucket is a cell, so the payload has the size v1 and v2 wrote
    for version, header in ((1, "<8sI5QBQ"), (2, _HEADER_FORMAT)):
        parts[1] = version
        path.write_bytes(struct.pack(header, *parts) + raw[struct.calcsize(_HEADER_FORMAT):])
        with pytest.raises(SnapshotFormatError, match=f"format v{version} .*re-ingest the stream"):
            RowSketchStore.load(path)


@pytest.mark.parametrize("extra", [-1, 1])
def test_load_refuses_a_size_that_disagrees_with_the_occupied_cells(tmp_path, extra):
    # p = 40 < width = 100: the file's size gives K, which must be the sum of
    # k_t; one cell more or fewer per row and in o is refused
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(SketchTransform(40, 100, 5, seed=4), np.eye(3, 40)).save(path)
    raw = path.read_bytes()
    size = len(raw) + 8 * (3 + 1) * extra
    path.write_bytes(raw[:size] if extra < 0 else raw + bytes(size - len(raw)))
    with pytest.raises(SnapshotFormatError, match=f"is {size} bytes, expected {len(raw)}$"):
        RowSketchStore.load(path)


def test_load_bounds_the_hashing_by_the_file(tmp_path, monkeypatch):
    # a header claiming width = 2^41 buckets over a file of 80 cells per row is
    # refused before any column is hashed (p = 2^40 < width) and before the
    # occupied buckets are listed (p = 2^42 >= width: every bucket)
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(SketchTransform(32, 16, 5, seed=4), np.eye(3, 32)).save(path)
    hashed = []
    hash_columns = SketchTransform.hash_columns

    def counted(self, cols, out=None):
        hashed.append(len(cols))
        return hash_columns(self, cols, out)

    monkeypatch.setattr(SketchTransform, "hash_columns", counted)
    raw = bytearray(path.read_bytes())
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    for p in (2**40, 2**42):
        parts[3] = parts[8] = p  # p and ones_built
        parts[4] = 2**41  # width
        struct.pack_into(_HEADER_FORMAT, raw, 0, *parts)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="cannot occupy 80 cells per row"):
            RowSketchStore.load(path)
    assert hashed == []


# header field -> (position in the struct, modulus of its integer type)
_HEADER_FIELDS = {"version": (1, 2**32), "n": (2, 2**64), "p": (3, 2**64), "width": (4, 2**64),
                  "depth": (5, 2**64), "seed": (6, 2**64), "flags": (7, 2**8),
                  "ones_built": (8, 2**64)}


@settings(max_examples=200, deadline=None)
@given(
    fields=st.dictionaries(
        st.sampled_from(sorted(_HEADER_FIELDS)),
        st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=3,
    ),
    resize=st.integers(-200, 200),
    fill=st.binary(min_size=200, max_size=200),
)
def test_load_corrupt_header_refused_or_valid(tmp_path_factory, fields, resize, fill):
    # any header fields and payload length: a valid store or SnapshotFormatError,
    # never a MemoryError or a huge allocation from an unchecked header
    store = RowSketchStore.from_matrix(SketchTransform(8, 4, 3, seed=1), np.eye(3, 8))
    path = tmp_path_factory.mktemp("fuzz") / "s.snap"
    store.save(path)
    raw = path.read_bytes()
    size = struct.calcsize(_HEADER_FORMAT)
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    for name, value in fields.items():
        pos, modulus = _HEADER_FIELDS[name]
        parts[pos] = value % modulus
    raw = struct.pack(_HEADER_FORMAT, *parts) + raw[size:]
    path.write_bytes(raw[: len(raw) + resize] if resize < 0 else raw + fill[:resize])
    try:
        back = RowSketchStore.load(path)
    except SnapshotFormatError:
        return
    assert back.rows.shape == (back.transform.depth, back.n, back.transform.width)


def test_identity_transform_is_exact(rng):
    t = SketchTransform.identity(32)
    assert t.epsilon == 0.0 and t.delta == 0.0
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    est = inner_product(t.sketch_vector(x), t.sketch_vector(y))
    assert est == pytest.approx(float(x @ y), rel=1e-12)


def test_norm_estimate_zero_mean_unit_rows(rng):
    # identity-like regime (b = p): a zero-mean unit-norm row keeps its
    # sketch norm estimate within [1 - 2 eps, 1 + 2 eps]
    p = 128
    t = SketchTransform(p, p, 9, seed=31)
    eps = t.epsilon
    for _ in range(50):
        x = rng.standard_normal(p)
        x -= x.mean()
        x /= np.linalg.norm(x)
        s = t.sketch_vector(x)
        assert 1 - 2 * eps <= inner_product(s, s) <= 1 + 2 * eps


def test_norm_estimate_concentrates(rng):
    # |sketch . sketch - 1| <= eps for most random unit vectors
    p = 256
    t = SketchTransform.from_accuracy(p, epsilon=0.2, delta=0.05, seed=77)
    hits = 0
    trials = 200
    for _ in range(trials):
        x = rng.standard_normal(p)
        x /= np.linalg.norm(x)
        s = t.sketch_vector(x)
        hits += abs(inner_product(s, s) - 1.0) <= 0.2
    assert hits / trials >= 0.95


def test_refusals_name_their_cause(tmp_path):
    # each raise below names what it refuses; none of them had a test
    t = SketchTransform(32, 16, 5, seed=4)
    with pytest.raises(ValueError, match="^p must be positive$"):
        SketchTransform(0, 16, 5, seed=4)
    with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\)$"):
        accuracy_depth(1.5)
    with pytest.raises(ValueError, match="^store needs at least one row$"):
        RowSketchStore(t, 0)
    store = RowSketchStore(t, 3)
    for i, j in ((3, 0), (0, 32), (-1, 0)):
        with pytest.raises(IndexError, match=rf"^update \({i}, {j}\) out of range for 3x32$"):
            store.apply(StreamUpdate(1.0, i, j))
    store.apply(StreamUpdate(1.0, 0, 0))
    store.standardize()
    with pytest.raises(SketchStateError, match="^store already standardized$"):
        store.standardized_copy()
    even = np.ones((2, 4))
    with pytest.raises(ValueError, match="^sketches need an odd number of rows, got 2$"):
        inner_product(even, even)
    path = tmp_path / "s.snap"
    RowSketchStore.from_matrix(t, np.eye(3, 32)).save(path)
    raw = bytearray(path.read_bytes())
    magic = tmp_path / "magic.snap"
    magic.write_bytes(b"CSKSNAP0" + raw[8:])
    with pytest.raises(SnapshotFormatError, match=r"^bad magic b'CSKSNAP0'$"):
        RowSketchStore.load(magic)
    parts = list(struct.unpack_from(_HEADER_FORMAT, raw))
    parts[7] = 4  # the exact flag on a 5 x 16 sketch, not (p, 1)
    struct.pack_into(_HEADER_FORMAT, raw, 0, *parts)
    exact = tmp_path / "exact.snap"
    exact.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="^exact-transform snapshot with mismatched shape$"):
        RowSketchStore.load(exact)
