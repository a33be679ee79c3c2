import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store, integer_matrix
from corrsketch.ams import (
    RowSketchStore,
    SketchStateError,
    SketchTransform,
    SnapshotFormatError,
    _poly_values,
    accuracy_depth,
    accuracy_width,
    inner_product,
    seed_stream,
)
from corrsketch.stream import DenseMatrix, StreamUpdate, matrix_to_updates


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
    assert np.array_equal(a.bucket_of, b.bucket_of)
    assert np.array_equal(a.sign_of, b.sign_of)
    assert a == b
    assert set(np.unique(a.sign_of)) <= {-1.0, 1.0}
    assert a.bucket_of.min() >= 0 and a.bucket_of.max() < 32
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
    draws = seed_stream(seed)
    for row in range(depth):
        hc = [next(draws) % _M for _ in range(4)]
        gc = [next(draws) % _M for _ in range(4)]
        expect_b = (_direct_poly(hc, x) % np.uint64(width)).astype(np.int64)
        expect_s = 1.0 - 2.0 * (_direct_poly(gc, x) & np.uint64(1)).astype(np.float64)
        assert np.array_equal(t.bucket_of[row], expect_b)
        assert np.array_equal(t.sign_of[row], expect_s)


def test_poly_values_matches_integer_arithmetic():
    coeffs = [_M - 1, 12345, _M - 2, 987654321]
    points = [0, 1, 2, _M - 1, _M, _M + 5, 2**40 + 3, 2**63 - 1]
    xs = np.array(points, dtype=np.uint64) % np.uint64(_M)
    got = _poly_values(coeffs, xs, np.empty(len(points), dtype=np.uint64))
    expect = [sum(c * x**k for k, c in enumerate(coeffs)) % _M for x in points]
    assert got.tolist() == expect


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_matrix_refuses_non_finite_value(bad):
    values = np.ones((4, 16))
    values[2, 5] = bad
    with pytest.raises(ValueError, match=r"non-finite value .* at cell \(2, 5\)"):
        RowSketchStore.from_matrix(SketchTransform(16, 8, 7, seed=1), values)


def test_rps_replay_matches_dense_sketch_bit_exact(rng):
    values = rng.standard_normal((8, 16))
    t = SketchTransform(16, 8, 5, seed=3)
    store = RowSketchStore(t, 8)
    for u in matrix_to_updates(DenseMatrix(values), "rps"):
        store.apply(u)
    for i in range(8):
        assert np.array_equal(store.row_sketch(i), t.sketch_vector(values[i]))


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
    eager = RowSketchStore(t, 1)
    assert np.array_equal(eager.ones_sketch, t.sketch_vector(np.ones(64)))

    lazy = RowSketchStore(t, 1, eager_ones=False)
    assert lazy.ones_built == 0
    for j in range(5):  # interleaved: a few updates fold a few basis vectors
        lazy.apply(StreamUpdate(0.5, 0, j))
    assert lazy.ones_built == 5
    lazy.finalize_ones()
    assert lazy.ones_built == 64
    assert np.array_equal(lazy.ones_sketch, eager.ones_sketch)
    before = lazy.ones_sketch.copy()
    lazy.finalize_ones()  # idempotent
    assert np.array_equal(lazy.ones_sketch, before)


def test_inner_product_examples():
    t = SketchTransform(16, 8, 5, seed=3)
    zero = t.zero_sketch()
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


def test_no_updates_after_standardize(rng):
    store = build_store(rng.standard_normal((2, 32)))
    store.standardize()
    with pytest.raises(SketchStateError):
        store.apply(StreamUpdate(1.0, 0, 0))
    with pytest.raises(SketchStateError):
        store.standardize()


def test_standardize_requires_complete_ones(rng):
    t = SketchTransform(32, 16, 5, seed=2)
    store = RowSketchStore(t, 2, eager_ones=False)
    store.apply(StreamUpdate(1.0, 0, 3))
    with pytest.raises(SketchStateError):
        store.standardize()
    store.finalize_ones()
    store.standardize()


def test_exact_rescaling_matches_true_norm(rng):
    values = rng.standard_normal((6, 128))
    store = build_store(values, track_squares=True)
    store.standardize(exact=True)
    # against the dense standardization
    centered = values - values.mean(axis=1, keepdims=True)
    unit = centered / np.linalg.norm(centered, axis=1, keepdims=True)
    truth = unit @ unit.T
    eps = store.transform.epsilon
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(store.inner(i, j) - truth[i, j]) <= 4 * eps


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


def test_snapshot_roundtrip_bit_exact(tmp_path, rng):
    values = rng.standard_normal((5, 48))
    store = build_store(values, track_squares=True)
    path = tmp_path / "plain.snap"
    store.save(path)
    back = RowSketchStore.load(path)
    assert back.transform == store.transform
    assert np.array_equal(back.rows, store.rows)
    assert np.array_equal(back.totals, store.totals)
    assert np.array_equal(back.square_totals, store.square_totals)
    assert np.array_equal(back.ones_sketch, store.ones_sketch)
    assert back.ones_built == store.ones_built and not back.standardized

    store.standardize()
    spath = tmp_path / "std.snap"
    store.save(spath)
    sback = RowSketchStore.load(spath)
    assert sback.standardized
    assert np.array_equal(sback.rows, store.rows)
    assert np.array_equal(sback.degenerate, store.degenerate)


def test_snapshot_roundtrip_identity_transform(tmp_path, rng):
    values = rng.standard_normal((3, 16))
    t = SketchTransform.identity(16)
    store = RowSketchStore.from_matrix(t, values)
    path = tmp_path / "exact.snap"
    store.save(path)
    back = RowSketchStore.load(path)
    assert back.transform.exact and back.transform == t
    assert "_tables" not in vars(back.transform)  # built on first update only
    assert np.array_equal(back.rows, store.rows)


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


_HEADER_FORMAT = "<8sI5QBQ"


@pytest.mark.parametrize(
    "section,index,bad,name",
    [
        ("rows", 3 * 5 * 16 + 7, np.nan, "row 3"),  # row-major (n, depth, width) blocks
        ("totals", 2, np.inf, "totals"),
        ("ones", 4, -np.inf, "ones_sketch"),
        ("squares", 0, np.nan, "square_totals"),
    ],
)
def test_load_refuses_non_finite_payload(tmp_path, section, index, bad, name):
    t = SketchTransform(32, 16, 5, seed=4)
    store = RowSketchStore.from_matrix(t, np.arange(6 * 32.0).reshape(6, 32), track_squares=True)
    path = tmp_path / "nan.snap"
    store.save(path)
    start = {"rows": 0, "totals": 6 * 5 * 16, "ones": 6 * 5 * 16 + 6,
             "squares": 6 * 5 * 16 + 6 + 5 * 16}[section]
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, struct.calcsize(_HEADER_FORMAT) + 8 * (start + index), bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match=f"non-finite value in {name}"):
        RowSketchStore.load(path)


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
