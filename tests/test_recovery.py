import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_store, integer_matrix
from corrsketch import ecc, oracle, recovery
from corrsketch.ams import RowSketchStore, SketchStateError, SketchTransform, seed_stream
from corrsketch.cartesian import CartesianTransform, cart_exact
from corrsketch.recovery import (
    FeasibilityError,
    ParameterError,
    _gram_pairs,
    _recovery_step_counted,
    _singleton_buckets,
    approximate,
    approximate_per_row,
    min_group_count,
    recover,
    recover_diff,
    recovery_step,
    select_parameters,
    verify_candidates,
)

LAMBDA_N1024 = ecc.for_index_space(1024).error_fraction


def practical(n, phi, cb, groups, reps, transform=None, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_parameters(
            n,
            phi,
            kw.pop("k", 1),
            kw.pop("residual_bound", 0.0),
            0.0,
            cb,
            "practical",
            groups=groups,
            reps=reps,
            epsilon=None if transform is None else transform.epsilon,
            delta=None if transform is None else transform.delta,
        )


# -- parameter selection ---------------------------------------------------


def test_pi_bound_binding_on_k():
    # 18k dominates when the residual promise is empty
    assert min_group_count(1024, 0.5, 4, 0.0, 0.15, 0.0) == 72


def test_pi_bound_binding_on_residual():
    # max{18*4, ceil(18*2 / (0.5*sqrt(0.15)))} = max{72, 186}
    assert min_group_count(1024, 0.5, 4, 2.0, 0.15, 0.0) == 186


def test_pi_bound_degenerate_promise():
    assert min_group_count(64, 0.9, 0, 0.0, 0.15, 0.0) == 1


def test_select_parameters_practical_defaults():
    cb = ecc.for_index_space(64)
    params = practical(64, 0.8, cb, groups=None, reps=None, k=0, residual_bound=0.0)
    assert params.groups == 1 and params.reps == 16 and params.mode == "practical"


def test_select_parameters_practical_warns_on_violations():
    cb = ecc.for_index_space(1024)
    # the bound is min_group_count's integer pi floor: ceil(179.3) = 180
    with pytest.warns(UserWarning, match=r"pi below .* = 180$"):
        select_parameters(
            1024, 0.5, 4, 2.0, 0.0, cb, "practical", groups=64, reps=4, epsilon=0.1, delta=0.1
        )


def test_select_parameters_practical_quiet_when_satisfied():
    cb = ecc.for_index_space(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = select_parameters(
            64, 0.8, 2, 0.0, 0.0, cb, "practical", groups=40, reps=8, epsilon=0.0, delta=0.0
        )
    assert params.groups == 40


def test_select_parameters_strict_small_scale():
    # tiny n keeps the strict epsilon width under the feasibility cap
    cb = ecc.for_index_space(16)
    params = select_parameters(16, 0.9, 1, 0.0, 0.0, cb, "strict")
    lam = cb.error_fraction
    assert params.groups == 18
    assert params.epsilon == pytest.approx(min(0.5, 0.9 * 18 * np.sqrt(lam) / (828 * 16)))
    assert params.delta == pytest.approx(lam / (54 * (2 + 12 * 16 / 18)))
    assert params.reps == int(np.ceil(10 * np.log2(16)))


def test_select_parameters_strict_infeasible_names_constraint():
    cb = ecc.for_index_space(1024)
    with pytest.raises(FeasibilityError, match="epsilon"):
        select_parameters(1024, 0.5, 4, 2.0, 0.0, cb, "strict")


def test_select_parameters_strict_rejects_overrides_and_empty_promise():
    cb = ecc.for_index_space(64)
    with pytest.raises(ParameterError, match="overrides"):
        select_parameters(64, 0.8, 1, 0.0, 0.0, cb, "strict", groups=8)
    with pytest.raises(ParameterError, match="promise"):
        select_parameters(64, 0.8, 0, 0.0, 0.0, cb, "strict")


def test_select_parameters_validation():
    cb = ecc.for_index_space(64)
    with pytest.raises(ParameterError):
        select_parameters(64, 0.0, 1, 0.0, 0.0, cb)
    with pytest.raises(ParameterError):
        select_parameters(64, 0.5, -1, 0.0, 0.0, cb)
    with pytest.raises(ParameterError):
        select_parameters(64, 0.5, 1, 0.0, 2.0, cb)
    with pytest.raises(ParameterError):
        select_parameters(64, 0.5, 1, 0.0, 0.0, cb, "fancy")


@pytest.mark.parametrize("field", ["groups", "reps"])
@pytest.mark.parametrize("value", [0, -3])
def test_select_parameters_refuses_counts_below_one(field, value):
    # no clamp: zero groups or zero repetitions would vote on nothing
    cb = ecc.for_index_space(64)
    with pytest.raises(ParameterError, match=f"{field}.*got {value}"):
        select_parameters(64, 0.5, 1, 0.0, 0.0, cb, "practical", **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("mode,groups", [("practical", 8), ("practical", None), ("strict", None)])
def test_select_parameters_refuses_non_finite_residual_bound(value, mode, groups):
    # NaN passes "R < 0", and inf overflows the pi bound or, with pi given, goes unchecked
    cb = ecc.for_index_space(64)
    with pytest.raises(ParameterError, match=f"R must be finite and >= 0, got {value}"):
        select_parameters(64, 0.5, 1, value, 0.0, cb, mode, groups=groups)


# -- approximate -------------------------------------------------------------


def test_approximate_requires_standardized(rng):
    store = build_store(rng.standard_normal((8, 32)))
    cb = ecc.for_index_space(8)
    cart = CartesianTransform(8, 4, seed=1)
    with pytest.raises(SketchStateError):
        approximate(store, cart, cb)


def test_approximate_refuses_a_grouping_short_of_the_store(rng):
    store = build_store(rng.standard_normal((8, 32)))
    store.standardize()
    cb = ecc.for_index_space(8)
    cart = CartesianTransform(6, 3, seed=1)
    for form in (approximate, approximate_per_row):
        with pytest.raises(ValueError, match="grouping covers 6 indices, store has 8"):
            form(store, cart, cb)


def test_approximate_all_degenerate_rows_give_zero_buckets():
    values = np.ones((8, 32)) * np.arange(1, 9)[:, None]  # constant rows
    store = build_store(values)
    store.standardize()
    assert np.all(store.degenerate)
    cb = ecc.for_index_space(8)
    cart = CartesianTransform(8, 4, seed=2)
    buckets = approximate(store, cart, cb)
    assert buckets.shape == (2, cb.codeword_len, 4, 4) and not np.any(buckets)


def test_approximate_singleton_groups_collapse(rng):
    # pi = n with one sketch row: every bucket is one signed sketch product
    n, p = 8, 64
    values = rng.standard_normal((n, p))
    t = SketchTransform.identity(p)
    store = RowSketchStore.from_matrix(t, values)
    store.standardize()
    cb = ecc.for_index_space(n)
    cart = CartesianTransform(n, n, seed=3)
    buckets = approximate(store, cart, cb)
    unit = store.rows[0]  # exact standardized rows
    for l in (0, 5, cb.blocklen - 1):
        for i in range(n):
            for j in range(n):
                expect = (
                    cb.mask_bit(l, i) * cart.s1[i] * cart.s2[j] * float(unit[i] @ unit[j])
                )
                got = buckets[0, l, cart.p1[i], cart.p2[j]]
                assert got == pytest.approx(expect, abs=1e-12)


def test_approximate_per_row_bilinearity_oracle(rng):
    # every sketch row's group product must equal the brute-force double sum
    n, p, pi = 16, 64, 4
    values = rng.standard_normal((n, p))
    store = build_store(values, epsilon=0.7, delta=0.5)  # b=9, d=7: tiny on purpose
    store.standardize()
    cb = ecc.for_index_space(n)
    cart = CartesianTransform(n, pi, seed=5)
    rows_l, rows_r = approximate_per_row(store, cart, cb)
    depth = store.transform.depth
    for l in (0, 7, cb.blocklen - 1):
        for t in range(depth):
            rt = store.rows[t]
            dots = rt @ rt.T
            expect_l = np.zeros((pi, pi))
            expect_r = np.zeros((pi, pi))
            for i in range(n):
                for j in range(n):
                    term = cart.s1[i] * cart.s2[j] * dots[i, j]
                    expect_l[cart.p1[i], cart.p2[j]] += cb.mask_bit(l, i) * term
                    expect_r[cart.p1[i], cart.p2[j]] += cb.mask_bit(l, j) * term
            assert np.allclose(rows_l[l, t], expect_l, rtol=1e-9, atol=1e-11)
            assert np.allclose(rows_r[l, t], expect_r, rtol=1e-9, atol=1e-11)


def test_approximate_median_of_per_row(rng):
    n, p = 8, 32
    store = build_store(rng.standard_normal((n, p)), epsilon=0.5, delta=0.3)
    store.standardize()
    cb = ecc.for_index_space(n)
    for pi in (4, n, 11):  # grouped, singleton, singleton with phantom indices
        cart = CartesianTransform(n, pi, seed=9)
        buckets = approximate(store, cart, cb)
        rows_l, rows_r = approximate_per_row(store, cart, cb)
        for got, rows in ((buckets[0], rows_l), (buckets[1], rows_r)):
            if cart.block > 1:  # one contraction forms both, so the median is exact
                assert np.array_equal(got, np.median(rows, axis=1))
            else:  # singleton buckets come from the median Gram
                assert np.allclose(got, np.median(rows, axis=1), atol=1e-12)


def test_approximate_custom_multiply_kernel(rng):
    calls = []

    def kernel(a, b):
        calls.append((a.shape, b.shape))
        return a @ b

    store = build_store(rng.standard_normal((8, 32)))
    store.standardize()
    cb = ecc.for_index_space(8)
    for pi in (4, 8):  # grouped and singleton-group code paths
        calls.clear()
        cart = CartesianTransform(8, pi, seed=11)
        buckets = approximate(store, cart, cb, multiply=kernel)
        assert calls, "every product must go through the injected kernel"
        base = approximate(store, cart, cb)
        assert np.array_equal(buckets, base)


# -- recovery_step -----------------------------------------------------------


def _exact_buckets(c, cart, cb):
    bits = cb.bit_matrix()[: cart.n].astype(float)
    row_masked = [cart_exact(cart, bits[:, l][:, None] * c) for l in range(cb.blocklen)]
    col_masked = [cart_exact(cart, c * bits[:, l][None, :]) for l in range(cb.blocklen)]
    return np.stack([row_masked, col_masked])


def test_recovery_step_empty_when_no_large_entries():
    n, pi = 16, 4
    cb = ecc.for_index_space(n)
    cart = CartesianTransform(n, pi, seed=13)
    buckets = _exact_buckets(np.eye(n), cart, cb)
    assert recovery_step(buckets, cart, cb, phi=0.8) == []


def test_recovery_step_recovers_isolated_pair_exactly():
    # pure-identity C plus one symmetric 0.9 entry, no sketch noise at all
    n, pi = 16, 8
    c = np.eye(n)
    c[0, 5] = c[5, 0] = 0.9
    cb = ecc.for_index_space(n)
    for seed in range(5):
        cart = CartesianTransform(n, pi, seed=seed)
        pairs = recovery_step(_exact_buckets(c, cart, cb), cart, cb, phi=0.8)
        assert (0, 5) in pairs and (5, 0) in pairs
        assert set(pairs) == {(0, 5), (5, 0)}


def test_recovery_step_multi_large_bucket_no_wrong_claims():
    # force two large entries into every bucket with pi=1: any output for
    # that bucket is acceptable, but nothing may crash
    n = 8
    c = np.eye(n)
    c[0, 5] = c[5, 0] = 0.95
    c[1, 6] = c[6, 1] = 0.9
    cb = ecc.for_index_space(n)
    cart = CartesianTransform(n, 1, seed=17)
    pairs = recovery_step(_exact_buckets(c, cart, cb), cart, cb, phi=0.8)
    assert all(0 <= i < n and 0 <= j < n and i != j for i, j in pairs)


def test_recovery_step_shape_check():
    cb = ecc.for_index_space(8)
    cart = CartesianTransform(8, 2, seed=19)
    good = (2, cb.codeword_len, 2, 2)
    for shape in ((3, 2, 2), (2, 3, 2, 2), (1,) + good[1:], good[:3] + (3,)):
        with pytest.raises(ValueError, match="bucket array shape"):
            recovery_step(np.zeros(shape), cart, cb, phi=0.5)
    assert recovery_step(np.zeros(good), cart, cb, phi=0.5) == []


def test_noise_free_pipeline_recovers_exactly(rng):
    # identity sketches + exactly orthogonal background rows: C is the
    # identity plus isolated planted entries, and singleton groups make
    # every large entry isolated, so recovery must be exact
    n, p = 16, 64
    raw = rng.standard_normal((n, p))
    raw -= raw.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(raw.T)  # orthonormal centered rows
    values = q.T[:n]
    values -= values.mean(axis=1, keepdims=True)  # re-center after qr
    rho = 0.9
    values[5] = rho * values[2] + np.sqrt(1 - rho * rho) * values[5]
    store = RowSketchStore.from_matrix(SketchTransform.identity(p), values)
    store.standardize()
    cb = ecc.for_index_space(n)
    for seed in range(5):
        cart = CartesianTransform(n, n, seed=seed)
        pairs = recovery_step(approximate(store, cart, cb), cart, cb, phi=0.8)
        assert set(pairs) == {(2, 5), (5, 2)}


# -- recover -----------------------------------------------------------------


def _planted_store(n=64, p=1024, pairs=((3, 17, 0.9),), seed=21, epsilon=0.05, delta=0.1):
    spec = oracle.PlantedSpec(n, p, list(pairs), seed=seed)
    m, truth = oracle.plant_dataset(spec)
    transform = SketchTransform.from_accuracy(p, epsilon, delta, seed + 1)
    store = RowSketchStore.from_matrix(transform, m.values)
    store.standardize()
    return store, truth


def test_recover_single_repetition_equals_one_step():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=1, transform=store.transform)
    got = recover(store, params, cb, seed=77)
    cart = CartesianTransform(store.n, 32, next(seed_stream(77)))
    pairs = recovery_step(approximate(store, cart, cb), cart, cb, 0.8)
    expect = {(min(i, j), max(i, j)) for i, j in pairs}
    assert got == expect


def test_recover_finds_planted_pair():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=8, transform=store.transform)
    assert recover(store, params, cb, seed=101, verify=True) == {(3, 17)}


def test_recover_anticorrelated_pair():
    store, _ = _planted_store(pairs=((40, 9, -0.95),), seed=33)
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=8, transform=store.transform)
    assert recover(store, params, cb, seed=55, verify=True) == {(9, 40)}


def _diag_key(diags):
    """Diagnostics without the wall-clock field."""
    return [(d.index, d.decode_failures, d.candidates) for d in diags]


def test_recover_deterministic_and_thread_invariant():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    for groups in (32, 64):  # grouped, and singleton groups (median Gram)
        params = practical(store.n, 0.8, cb, groups=groups, reps=6, transform=store.transform)
        runs = []
        for threads in (1, 1, 2):
            diags, counts = [], {}
            pairs = recover(store, params, cb, seed=5, threads=threads, diagnostics=diags,
                            counts=counts)
            runs.append((pairs, counts, _diag_key(diags)))
        assert runs[0] == runs[1] == runs[2]
        assert [i for i, _, _ in runs[0][2]] == list(range(6))


def test_recover_majority_monotone_under_nested_seeds():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    for reps in (4, 8, 16):
        params = practical(store.n, 0.8, cb, groups=32, reps=reps, transform=store.transform)
        assert (3, 17) in recover(store, params, cb, seed=42)


def test_recover_diagnostics_and_counts():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=4, transform=store.transform)
    diags = []
    counts = {}
    recover(store, params, cb, seed=3, diagnostics=diags, counts=counts)
    assert [d.index for d in diags] == [0, 1, 2, 3]
    assert all(d.elapsed_ms >= 0 for d in diags)
    assert counts[(3, 17)] + counts.get((17, 3), 0) >= 4
    line = str(diags[0])
    assert "decode_failures=" in line and "elapsed_ms=" in line


def test_recover_time_linear_in_reps():
    # doubling the repetition count should not much more than double the
    # query time; 4- and 8-rep runs alternate, so a burst of load falls on
    # both sides, and medians of five smooth scheduler noise
    import time

    store, _ = _planted_store(n=64, p=512, epsilon=0.04, delta=0.2)
    cb = ecc.for_index_space(store.n)

    def timed(reps):
        params = practical(store.n, 0.8, cb, groups=32, reps=reps, transform=store.transform)
        t0 = time.perf_counter()
        recover(store, params, cb, seed=8)
        return time.perf_counter() - t0

    timed(4)  # warm-up
    runs = {4: [], 8: []}
    for _ in range(5):
        for reps in (4, 8):
            runs[reps].append(timed(reps))
    ratio = float(np.median(runs[8]) / np.median(runs[4]))
    assert ratio <= 2.3, f"doubling reps scaled time by {ratio:.2f}"


def test_recover_requires_standardized(rng):
    store = build_store(rng.standard_normal((8, 32)))
    cb = ecc.for_index_space(8)
    params = practical(8, 0.8, cb, groups=4, reps=2)
    with pytest.raises(SketchStateError):
        recover(store, params, cb, seed=1)


# -- verify_candidates -------------------------------------------------------


def test_verify_candidates_accepts_planted_rejects_noise():
    store, truth = _planted_store(epsilon=0.02, delta=0.05)
    annotated = verify_candidates(store, [(3, 17), (5, 40), (7, 7)], phi=0.8)
    by_pair = {(i, j): (est, acc) for i, j, est, acc in annotated}
    est, acc = by_pair[(3, 17)]
    assert acc and abs(est - truth[0][2]) <= 0.08
    assert not by_pair[(5, 40)][1]  # background pair fails the threshold
    assert not by_pair[(7, 7)][1]  # diagonal rejected outright


def test_verify_candidates_warns_when_vacuous():
    # width 16 gives eps = 0.5, so phi - 4 eps < 0 and every candidate passes
    store = RowSketchStore.from_matrix(
        SketchTransform(32, 16, 5, seed=2), np.random.default_rng(1).standard_normal((6, 32))
    )
    store.standardize()
    with pytest.warns(UserWarning, match=r"phi=0\.8 and eps=0\.5"):
        annotated = verify_candidates(store, [(0, 1), (2, 5)], phi=0.8)
    assert all(ok for _, _, _, ok in annotated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_candidates(store, [(0, 1)], phi=2.1)


def test_query_never_builds_hash_tables(tmp_path, monkeypatch):
    # load, standardize, recover and verification read only the row sketches:
    # with hashing made to fail, every query step still runs and agrees
    m, _ = oracle.plant_dataset(oracle.PlantedSpec(64, 1024, [(3, 17, 0.9)], seed=21))
    built = RowSketchStore.from_matrix(SketchTransform.from_accuracy(1024, 0.05, 0.1, 22), m.values)
    path = tmp_path / "s.snap"
    built.save(path)
    reference = built.standardized_copy()

    def refuse(self, cols):
        raise AssertionError("a query step hashed columns")

    monkeypatch.setattr(SketchTransform, "hash_columns", refuse)
    loaded = RowSketchStore.load(path)
    store = loaded.standardized_copy()
    other = RowSketchStore.load(path)
    other.standardize()
    assert np.array_equal(store.rows, reference.rows)
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=2, transform=store.transform)
    assert recover(store, params, cb, seed=5, verify=True, threads=2) == {(3, 17)}
    assert verify_candidates(store, [(3, 17)], 0.8)[0][3]
    recover_diff(store, other, params, cb, seed=5)


def test_query_never_reads_materialized_rows(tmp_path, monkeypatch):
    # the query reads the mapped rows one sketch row or one row at a time; the
    # materializing rows property is a test surface only
    m, _ = oracle.plant_dataset(oracle.PlantedSpec(48, 512, [(3, 17, 0.9)], seed=23))
    path = tmp_path / "s.snap"
    transform = SketchTransform.from_accuracy(512, 0.1, 0.1, 24)
    RowSketchStore.from_matrix(transform, m.values).save(path)
    store = RowSketchStore.load(path)
    store.standardize()
    again = tmp_path / "std.snap"
    store.save(again)
    reloaded = RowSketchStore.load(again)
    reloaded.standardize()

    def refuse(self):
        raise AssertionError("a query step materialized rows")

    monkeypatch.setattr(RowSketchStore, "rows", property(refuse))
    cb = ecc.for_index_space(48)
    for query_store in (store, reloaded):
        for groups in (48, 12):  # singleton and grouped
            params = practical(48, 0.8, cb, groups=groups, reps=3)
            assert recover(query_store, params, cb, seed=5, verify=True) == {(3, 17)}
        checked = verify_candidates(query_store, [(3, 17), (1, 2)], 0.8)
        assert [(i, j, ok) for i, j, _, ok in checked] == [(1, 2, False), (3, 17, True)]


def test_grouped_query_holds_no_copy_of_the_rows():
    # each grouped repetition reads the standardized rows one sketch row at a
    # time, so recover and recover_diff peak well below one copy of the rows
    rng = np.random.default_rng(41)
    transform = SketchTransform.from_accuracy(256, 0.02, 0.2, 42)
    assert (transform.depth, transform.width) == (13, 10**4)
    stores = [RowSketchStore.from_matrix(transform, rng.standard_normal((64, 256)))
              for _ in range(2)]
    for store in stores:
        store.standardize()
    rows_bytes = 64 * transform.depth * transform.width * 8  # 63.5 MiB
    cb = ecc.for_index_space(64)
    params = practical(64, 0.8, cb, groups=8, reps=2, transform=transform)
    for query in (lambda: recover(stores[0], params, cb, seed=5),
                  lambda: recover_diff(*stores, params, cb, seed=5)):
        tracemalloc.start()
        try:
            query()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows_bytes / 2, peak / rows_bytes


def test_grouped_products_are_held_once():
    # each sketch row's products go straight into group order, so one
    # approximate call holds one copy of them beside small per-row and
    # per-bit buffers, not a second, gathered copy
    rng = np.random.default_rng(43)
    transform = SketchTransform.from_accuracy(64, 0.2, 0.2, 44)
    assert (transform.depth, transform.width) == (13, 100)
    store = RowSketchStore.from_matrix(transform, rng.standard_normal((512, 64)))
    store.standardize()
    cart = CartesianTransform(512, 64, 45)
    products_bytes = 2 * transform.depth * cart.n_padded * cart.pi * 8  # 6.5 MiB
    cb = ecc.for_index_space(512)
    tracemalloc.start()
    try:
        approximate(store, cart, cb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * products_bytes, peak / products_bytes


# -- singleton groups: one median Gram per query ------------------------------


def _public_votes(n, params, cb, seed, buckets_of, **step_kw):
    """Reference loop over the public pieces: votes and majority pairs."""
    draws = seed_stream(seed)
    votes = Counter()
    for _ in range(params.reps):
        cart = CartesianTransform(n, params.groups, next(draws))
        votes.update(recovery_step(buckets_of(cart), cart, cb, params.phi, **step_kw))
    quota = math.ceil(params.reps / 2.0)
    return votes, {(min(i, j), max(i, j)) for (i, j), c in votes.items() if c >= quota}


@pytest.mark.parametrize("extra", [0, 3])  # pi = n, and pi > n with phantom indices
def test_singleton_recover_matches_public_loop(extra):
    store, _ = _planted_store(n=32, p=512)
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32 + extra, reps=5, transform=store.transform)
    votes, expect = _public_votes(
        store.n, params, cb, 29, lambda cart: approximate(store, cart, cb)
    )
    assert (3, 17) in expect
    for threads in (1, 2):
        counts = {}
        assert recover(store, params, cb, seed=29, threads=threads, counts=counts) == expect
        assert counts == dict(votes)


@pytest.mark.parametrize("extra", [0, 3])
def test_singleton_recover_diff_matches_public_loop(extra):
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(before.n)
    params = practical(before.n, 0.7, cb, groups=32 + extra, reps=5, transform=before.transform)

    for first, second in ((after, before), (before, after)):
        def diff(cart):
            return approximate(first, cart, cb) - approximate(second, cart, cb)

        _, expect = _public_votes(before.n, params, cb, 31, diff, subtract_baseline=False)
        assert pair in expect
        for threads in (1, 2):
            assert recover_diff(first, second, params, cb, seed=31, threads=threads) == expect


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gram_pairs_equal_decoded_buckets_under_any_grouping(data):
    # thresholding the Gram once per entry and side gives the decoded
    # reference's ordered pairs, with no failure, under two independent
    # singleton groupings, for any Gram (not only symmetric ones) and with
    # or without the diagonal baseline
    n = data.draw(st.integers(2, 12))
    pi = n + data.draw(st.integers(0, 4))  # pi = n, and pi > n with phantom indices
    phi = data.draw(st.sampled_from([0.05, 0.3, 0.8, 1.0]))
    half = phi / 2.0
    edges = [0.0, half, -half, np.nextafter(half, 0.0), np.nextafter(-half, 0.0),
             1.0, 1.0 + half, 1.0 - half, np.nextafter(1.0 - half, 1.0)]
    entry = st.sampled_from(edges) | st.floats(-1.5, 1.5)
    gram = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if data.draw(st.booleans()):
        gram = np.triu(gram) + np.triu(gram, 1).T
    gram[0, data.draw(st.integers(1, n - 1))] = phi  # a heavy entry on index 0
    cb = ecc.for_index_space(n + data.draw(st.integers(0, 40)))
    expect = Counter(_gram_pairs(gram, cb, phi))
    for _ in range(2):
        cart = CartesianTransform(n, pi, data.draw(st.integers(0, 2**32 - 1)))
        buckets = _singleton_buckets(gram, cart, cb)
        for subtract in (True, False):
            pairs, failures = _recovery_step_counted(
                buckets, cart, cb, phi, subtract_baseline=subtract
            )
            assert (Counter(pairs), failures) == (expect, 0)


@pytest.mark.parametrize("extra", [0, 3])
def test_singleton_query_does_not_depend_on_the_seed(extra):
    # singleton groups scan the median Gram exactly: every grouping, so every
    # seed and every repetition, gives the same pairs (a low phi puts dozens
    # of entries near the threshold)
    store, _ = _planted_store(n=32, p=512)
    before, after, _ = _diff_stores()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.15, cb, groups=32 + extra, reps=5, transform=store.transform)
    runs = []
    for seed in (29, 30):
        counts = {}
        runs.append((
            recover(store, params, cb, seed=seed, counts=counts),
            recover_diff(after, before, params, cb, seed=seed),
        ))
        assert counts and set(counts.values()) == {params.reps}
    assert runs[0] == runs[1]


def test_singleton_query_never_decodes(monkeypatch):
    # pi >= n thresholds the median Gram directly; pi < n still decodes words
    store, _ = _planted_store(n=32, p=512)
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(store.n)

    def refuse(self, words):
        raise AssertionError("decoded a word")

    monkeypatch.setattr(ecc.Codebook, "decode_words", refuse)
    singleton = practical(store.n, 0.7, cb, groups=32, reps=5, transform=store.transform)
    assert (3, 17) in recover(store, singleton, cb, seed=29)
    assert pair in recover_diff(after, before, singleton, cb, seed=31)
    grouped = practical(store.n, 0.7, cb, groups=16, reps=1, transform=store.transform)
    with pytest.raises(AssertionError, match="decoded a word"):
        recover(store, grouped, cb, seed=29)
    with pytest.raises(AssertionError, match="decoded a word"):
        recover_diff(after, before, grouped, cb, seed=31)


def test_singleton_query_builds_no_grouping(monkeypatch):
    # pi >= n votes the median Gram's pairs: no repetition draws a grouping
    store, _ = _planted_store(n=32, p=512)
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(store.n)

    def refuse(*args):
        raise AssertionError("built a grouping")

    monkeypatch.setattr(recovery, "CartesianTransform", refuse)
    params = practical(store.n, 0.7, cb, groups=35, reps=5, transform=store.transform)
    assert (3, 17) in recover(store, params, cb, seed=29, threads=2)
    assert pair in recover_diff(after, before, params, cb, seed=31)


def test_query_refusals_precede_the_median_gram(monkeypatch):
    # threads, standardization and codebook size are checked before any product
    store, _ = _planted_store(n=32, p=512)
    raw = build_store(np.random.default_rng(1).standard_normal((32, 64)))
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.7, cb, groups=32, reps=2, transform=store.transform)

    def refuse(*args):
        raise AssertionError("formed a median Gram")

    monkeypatch.setattr(recovery, "_median_gram", refuse)
    cases = [
        (ParameterError, "threads must be at least 1, got 0", store, cb, 0),
        (SketchStateError, "standardized", raw, cb, 1),
        (ValueError, "codebook addresses 16 indices, store has 32", store,
         ecc.for_index_space(16), 1),
    ]
    for error, match, s, book, threads in cases:
        with pytest.raises(error, match=match):
            recover(s, params, book, seed=3, threads=threads)
        with pytest.raises(error, match=match):
            recover_diff(s, s, params, book, seed=3, threads=threads)


@pytest.mark.parametrize("groups", [64, 16])  # singleton and grouped paths
def test_recover_refuses_small_codebook(groups):
    store, _ = _planted_store()
    small = ecc.for_index_space(16)
    params = practical(store.n, 0.8, small, groups=groups, reps=2, transform=store.transform)
    with pytest.raises(ValueError, match="codebook addresses 16 indices, store has 64"):
        recover(store, params, small, seed=3)
    with pytest.raises(ValueError, match="codebook addresses 16 indices, store has 64"):
        recover_diff(store, store, params, small, seed=3)


# -- recover_diff -------------------------------------------------------------


def _diff_stores(seed=71, n=32, p=512, rho=0.9):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, p))
    transform = SketchTransform.from_accuracy(p, 0.04, 0.1, seed + 1)
    before = RowSketchStore.from_matrix(transform, base)
    after_values = base.copy()
    i, j = 4, 19
    u = base[i] - base[i].mean()
    u /= np.linalg.norm(u)
    g = rng.standard_normal(p)
    g -= g.mean()
    g -= (g @ u) * u
    after_values[j] = rho * u + np.sqrt(1 - rho * rho) * (g / np.linalg.norm(g))
    after = RowSketchStore.from_matrix(transform, after_values)
    before.standardize()
    after.standardize()
    return before, after, (i, j)


@pytest.mark.parametrize("threads", [0, -3])
def test_recover_refuses_threads_below_one(threads):
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.7, cb, groups=16, reps=2, transform=store.transform)
    with pytest.raises(ParameterError, match=f"threads must be at least 1, got {threads}"):
        recover(store, params, cb, seed=9, threads=threads)
    with pytest.raises(ParameterError, match=f"threads must be at least 1, got {threads}"):
        recover_diff(store, store, params, cb, seed=9, threads=threads)


def test_recover_diff_identical_stores_empty():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.7, cb, groups=16, reps=4, transform=store.transform)
    assert recover_diff(store, store, params, cb, seed=9) == set()


def test_recover_diff_finds_changed_pair():
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(before.n)
    params = practical(before.n, 0.7, cb, groups=16, reps=8, transform=before.transform)
    assert recover_diff(after, before, params, cb, seed=13) == {pair}


def test_recover_diff_reordered_stream_is_empty(rng):
    values = integer_matrix(rng, 16, 32)
    t = SketchTransform.from_accuracy(32, 0.2, 0.2, 7)
    from corrsketch.stream import DenseMatrix, matrix_to_updates

    a = RowSketchStore(t, 16)
    updates = matrix_to_updates(DenseMatrix(values), "ts")
    for u in updates:
        a.apply(u)
    b = RowSketchStore(t, 16)
    for u in reversed(updates):
        b.apply(u)
    a.standardize()
    b.standardize()
    cb = ecc.for_index_space(16)
    params = practical(16, 0.5, cb, groups=8, reps=4, transform=t)
    assert recover_diff(a, b, params, cb, seed=19) == set()


@pytest.mark.parametrize("groups", [16, 32])  # pi < n, and singleton groups
def test_recover_diff_thread_invariant(groups):
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(before.n)
    params = practical(before.n, 0.7, cb, groups=groups, reps=5, transform=before.transform)
    runs = []
    for threads in (1, 2):
        diags = []
        pairs = recover_diff(after, before, params, cb, seed=13, threads=threads, diagnostics=diags)
        runs.append((pairs, _diag_key(diags)))
    assert runs[0] == runs[1]
    assert pair in runs[0][0]
    assert [i for i, _, _ in runs[0][1]] == list(range(5))


def test_recover_diff_rejects_mismatched_transforms(rng):
    values = rng.standard_normal((8, 32))
    a = build_store(values, seed=1)
    b = build_store(values, seed=2)
    a.standardize()
    b.standardize()
    cb = ecc.for_index_space(8)
    params = practical(8, 0.5, cb, groups=4, reps=2)
    with pytest.raises(ValueError, match="transforms"):
        recover_diff(a, b, params, cb, seed=1)
