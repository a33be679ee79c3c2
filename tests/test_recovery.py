import functools
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_store, integer_matrix
from corrsketch import ecc, oracle, recovery
from corrsketch.ams import RowSketchStore, SketchStateError, SketchTransform, seed_stream
from corrsketch.cartesian import CartesianTransform, cart_exact
from corrsketch.stream import StreamUpdate
from corrsketch.recovery import (
    FeasibilityError,
    ParameterError,
    _recovery_step_counted,
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


def _path(n, pi, gamma, transform):
    """The path, "scan" or "grouped", a query on ``transform``'s stores takes."""
    return recovery.query_path(n, pi, gamma, transform.depth, transform.cells)


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
            # one contraction forms both at every pi, so the median is exact
            assert np.array_equal(got, np.median(rows, axis=1))


def test_approximate_custom_multiply_kernel(rng):
    calls = []

    def kernel(a, b):
        calls.append((a.shape, b.shape))
        return a @ b

    store = build_store(rng.standard_normal((8, 32)))
    store.standardize()
    cb = ecc.for_index_space(8)
    for pi in (4, 8):  # grouped and singleton groups share one builder
        calls.clear()
        cart = CartesianTransform(8, pi, seed=11)
        buckets = approximate(store, cart, cb, multiply=kernel)
        # two products, one per side, per sketch row t: rows (n_pad, k_t) by
        # groups (k_t, pi), over the k_t occupied buckets, fewer than b as p < b
        sizes = [cols.size for cols in store.transform.occupied]
        assert max(sizes) <= 32 < store.transform.width
        assert calls == [((8, k), (k, pi)) for k in sizes for _ in range(2)]
        base = approximate(store, cart, cb)
        assert np.array_equal(buckets, base)


def _all_columns_buckets(store, cart, cb):
    """``approximate``'s buckets formed from every column of ``store.rows``."""
    depth, width = store.transform.depth, store.transform.width
    rows = np.zeros((depth, cart.n_padded, width))
    rows[:, : store.n] = store.rows
    sides = ((cart.order1, cart.s2, cart.order2), (cart.order2, cart.s1, cart.order1))
    cross = np.empty((2, cart.n_padded, depth, cart.pi))
    for k, (own, s, order) in enumerate(sides):
        for t, rt in enumerate(rows):
            group = (rt[order] * s[order, None]).reshape(cart.pi, cart.block, width).sum(axis=1)
            cross[k, :, t] = (rt @ group.T)[own]
    masks = recovery._masks(cart, cb, store.n)
    out = np.stack([np.median(recovery._contract(w, c), axis=1) for w, c in zip(masks, cross)])
    out[1] = out[1].swapaxes(1, 2)
    return out


@pytest.mark.parametrize("p", [24, 64, 96])  # p < width = 64, p = width, p > width
def test_occupied_buckets_give_the_all_columns_products(rng, p):
    # a served row is 0 outside the occupied buckets, so reading those alone
    # changes only the summation order, and nothing when every bucket counts
    n, width = 12, 64
    store = RowSketchStore.from_matrix(
        SketchTransform(p, width, 5, seed=41), rng.standard_normal((n, p)) + 0.5
    )
    store.standardize()
    sizes = [cols.size for cols in store.transform.occupied]
    assert max(sizes) <= p < width if p < width else sizes == [width] * 5

    def same(got, expect):
        if p >= width:
            return np.array_equal(got, expect)
        return np.abs(got - expect).max() <= 1e-12

    cb = ecc.for_index_space(n)
    for pi in (3, 5, n):  # grouped, grouped with phantom indices, singleton
        cart = CartesianTransform(n, pi, seed=43)
        assert same(approximate(store, cart, cb), _all_columns_buckets(store, cart, cb)), pi


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_recover_does_not_depend_on_the_multiply_kernel(data):
    # a seeded recover gives the same pairs and ordered counts with an
    # einsum kernel as with np.matmul, on either path; the kernel sees
    # k_t-column operands, and a scan counts the first need = depth//2 + 1
    # sketch rows or more, in order
    path = data.draw(st.sampled_from(["scan", "grouped"]), label="path")
    width = data.draw(st.sampled_from([16, 32, 64]), label="width")
    wide = data.draw(st.booleans(), label="p >= width")
    p = data.draw(st.integers(width, 2 * width) if wide else st.integers(2, width - 1), label="p")
    n = data.draw(st.integers(6, 20), label="n")
    depth = data.draw(st.sampled_from([1, 3, 5]), label="depth")
    pi = data.draw(st.integers(2, n + 2), label="pi")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    transform = SketchTransform(p, width, depth, seed)
    assume(_path(n, pi, 3, transform) == path)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, p))
    i, j = rng.choice(n, 2, replace=False)
    values[j] = values[i] + 0.2 * rng.standard_normal(p)
    store = RowSketchStore.from_matrix(transform, values)
    store.standardize()
    cb = ecc.for_index_space(n)
    params = practical(n, 0.8, cb, groups=pi, reps=3)
    widths = []

    def einsum_kernel(a, b):
        widths.append((a.shape[1], b.shape[0]))
        return np.einsum("ik,kj->ij", a, b)

    runs = []
    for kernel in (np.matmul, einsum_kernel):
        counts = {}
        with pytest.MonkeyPatch.context() as mp:
            for name in ("approximate", "_scan_hits"):
                mp.setattr(recovery, name, functools.partial(getattr(recovery, name), multiply=kernel))
            runs.append((recover(store, params, cb, seed=seed, counts=counts), counts))
    assert runs[0] == runs[1]
    sizes = [cols.size for cols in store.transform.occupied]
    if path == "scan":  # one r_t r_t^T per sketch row counted, query and store
        assert depth // 2 + 1 <= len(widths) <= depth
        assert widths == [(k, k) for k in sizes[: len(widths)]]
    else:  # two products, one per side, per sketch row and repetition
        assert widths == [(k, k) for _ in range(params.reps) for k in sizes for _ in range(2)]
    assert max(sizes) <= p < width if p < width else sizes == [width] * depth


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


def test_recovery_step_drops_indices_outside_the_store():
    # a codebook may address more indices than the store holds; a side that
    # decodes to one of those extra indices emits nothing
    n, phi = 8, 0.5
    cb = ecc.for_index_space(n + 8)
    cart = CartesianTransform(n, 2, seed=19)
    bits = cb.bit_matrix().astype(float)
    for row, expect in ((2, [(2, 1)]), (n + 1, [])):
        buckets = np.zeros((2, cb.codeword_len, 2, 2))
        buckets[0, :, 0, 1] = phi * bits[row]
        buckets[1, :, 0, 1] = phi * bits[1]
        assert recovery_step(buckets, cart, cb, phi, subtract_baseline=False) == expect


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
    params = practical(store.n, 0.8, cb, groups=8, reps=1, transform=store.transform)
    assert _path(store.n, 8, 1, store.transform) == "grouped"
    got = recover(store, params, cb, seed=77)
    cart = CartesianTransform(store.n, 8, next(seed_stream(77)))
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


def _scan_diag_key(survivors):
    """A scan's one diagnostic: index 0, no failure, both orderings of each survivor."""
    return [(0, 0, 2 * len(survivors))]


def test_recover_deterministic_and_thread_invariant():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    # grouped, a grouped shape the rule scans, and singleton groups
    for groups, reps, path in ((5, 3, "grouped"), (32, 6, "scan"), (64, 6, "scan")):
        params = practical(store.n, 0.8, cb, groups=groups, reps=reps, transform=store.transform)
        assert _path(store.n, groups, reps, store.transform) == path
        runs = []
        for threads in (1, 1, 2):
            diags, counts = [], {}
            pairs = recover(store, params, cb, seed=5, threads=threads, diagnostics=diags,
                            counts=counts)
            runs.append((pairs, counts, _diag_key(diags)))
            assert all(d.elapsed_ms > 0 for d in diags)
        assert runs[0] == runs[1] == runs[2]
        pairs, _, diags = runs[0]
        if path == "grouped":
            assert [i for i, _, _ in diags] == list(range(reps))
        else:  # one scan, no repetition
            assert diags == _scan_diag_key(pairs)


def test_threads_finding_the_occupied_buckets_at_once_agree():
    # threads that build stores over one new transform reach its occupied
    # buckets before any has cached them; each finds the same buckets, so
    # every store holds the same cells and forms the same buckets
    values = np.random.default_rng(47).standard_normal((16, 24))
    cb = ecc.for_index_space(16)
    cart = CartesianTransform(16, 4, seed=3)

    def buckets(transform):
        store = RowSketchStore.from_matrix(transform, values)
        store.standardize()
        return approximate(store, cart, cb)

    expect = buckets(SketchTransform(24, 100, 5, seed=3))
    fresh = SketchTransform(24, 100, 5, seed=3)  # its occupied buckets are not found yet
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(buckets, fresh) for _ in range(16)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, expect) for got in results)


def test_recover_majority_monotone_under_nested_seeds():
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    for reps in (4, 8, 16):
        params = practical(store.n, 0.8, cb, groups=32, reps=reps, transform=store.transform)
        assert (3, 17) in recover(store, params, cb, seed=42)


def test_recover_diagnostics_and_counts():
    # a grouped query reports each repetition and counts its votes; a scan
    # reports itself once and counts each ordering of a pair once per repetition
    store, _ = _planted_store()
    cb = ecc.for_index_space(store.n)
    assert _path(store.n, 5, 3, store.transform) == "grouped"  # n_pad = 65 > 4 gamma pi = 60
    params = practical(store.n, 0.8, cb, groups=5, reps=3, transform=store.transform)
    diags, counts = [], {}
    recover(store, params, cb, seed=3, diagnostics=diags, counts=counts)
    assert [d.index for d in diags] == [0, 1, 2]
    assert all(d.elapsed_ms > 0 for d in diags)
    assert counts[(3, 17)] + counts.get((17, 3), 0) >= 3
    line = str(diags[0])
    assert "decode_failures=" in line and "elapsed_ms=" in line
    assert _path(store.n, 32, 4, store.transform) == "scan"
    params = practical(store.n, 0.8, cb, groups=32, reps=4, transform=store.transform)
    diags, counts = [], {}
    assert recover(store, params, cb, seed=3, diagnostics=diags, counts=counts) == {(3, 17)}
    assert _diag_key(diags) == [(0, 0, 2)] and diags[0].elapsed_ms > 0
    assert counts == {(3, 17): 4, (17, 3): 4}


def test_recover_time_linear_in_reps():
    # doubling the repetition count should not much more than double the
    # query time. CPU time, not wall time, so time the process spends
    # descheduled does not count; 4- and 8-rep runs alternate, so a burst of
    # load falls on both sides, and medians of eleven smooth what is left
    import time

    store, _ = _planted_store(n=128, p=512, epsilon=0.04, delta=0.2)
    cb = ecc.for_index_space(store.n)
    assert _path(128, 3, 8, store.transform) == "grouped"  # n_pad = 129 > 4 gamma pi = 96

    def timed(reps):
        params = practical(store.n, 0.8, cb, groups=3, reps=reps, transform=store.transform)
        t0 = time.process_time()
        recover(store, params, cb, seed=8)
        return time.process_time() - t0

    timed(4)  # warm-up
    runs = {4: [], 8: []}
    for _ in range(11):
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


@pytest.mark.parametrize("epsilon", [0.05, 0.1])  # width 1,600 > p = 1,024, and 400 < p
def test_query_hashes_the_columns_once_per_transform(tmp_path, monkeypatch, epsilon):
    # load finds each transform's occupied buckets by hashing its p columns
    # once, and hashes nothing when p >= width, where all buckets count;
    # standardize and every query step (recover on two threads, verify,
    # recover_diff) hash nothing
    m, _ = oracle.plant_dataset(oracle.PlantedSpec(64, 1024, [(3, 17, 0.9)], seed=21))
    transform = SketchTransform.from_accuracy(1024, epsilon, 0.1, 22)
    built = RowSketchStore.from_matrix(transform, m.values)
    path = tmp_path / "s.snap"
    built.save(path)
    reference = built.standardized_copy()
    hashed = Counter()
    hash_columns = SketchTransform.hash_columns

    def counted(self, cols, out=None):
        hashed[id(self)] += len(cols)
        return hash_columns(self, cols, out)

    monkeypatch.setattr(SketchTransform, "hash_columns", counted)
    loaded = RowSketchStore.load(path)
    store = loaded.standardized_copy()
    other = RowSketchStore.load(path)
    other.standardize()
    once = 1024 if 1024 < transform.width else 0
    assert {key: hashed[key] for key in (id(store.transform), id(other.transform))} == {
        id(store.transform): once, id(other.transform): once
    }
    assert sum(hashed.values()) == 2 * once
    hashed.clear()
    assert np.array_equal(store.rows, reference.rows)
    cb = ecc.for_index_space(store.n)
    params = practical(store.n, 0.8, cb, groups=32, reps=2, transform=store.transform)
    assert recover(store, params, cb, seed=5, verify=True, threads=2) == {(3, 17)}
    assert verify_candidates(store, [(3, 17)], 0.8)[0][3]
    recover_diff(store, other, params, cb, seed=5, threads=2)
    assert not hashed


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
    shapes = {(48, 3): "scan", (5, 2): "grouped", (8, 1): "grouped"}
    assert {shape: _path(48, *shape, transform) for shape in shapes} == shapes
    for query_store in (store, reloaded):
        # singleton, grouped with phantom indices, grouped
        for groups, reps in shapes:
            params = practical(48, 0.8, cb, groups=groups, reps=reps)
            assert recover(query_store, params, cb, seed=5, verify=True) == {(3, 17)}
        checked = verify_candidates(query_store, [(3, 17), (1, 2)], 0.8)
        assert [(i, j, ok) for i, j, _, ok in checked] == [(1, 2, False), (3, 17, True)]


def test_grouped_query_holds_no_copy_of_the_rows():
    # each grouped repetition reads the standardized rows one sketch row at
    # a time, so recover and recover_diff peak well below one copy of the rows
    rng = np.random.default_rng(41)
    transform = SketchTransform.from_accuracy(256, 0.02, 0.2, 42)
    assert (transform.depth, transform.width) == (13, 10**4)
    stores = [RowSketchStore.from_matrix(transform, rng.standard_normal((64, 256)))
              for _ in range(2)]
    for store in stores:
        store.standardize()
    rows_bytes = 64 * transform.depth * transform.width * 8  # 63.5 MiB
    cb = ecc.for_index_space(64)
    for groups, reps in ((4, 2), (8, 1)):  # n = 64 > 4 gamma pi = 32
        params = practical(64, 0.8, cb, groups=groups, reps=reps, transform=transform)
        assert _path(64, groups, reps, transform) == "grouped"
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


# -- singleton groups: one scan per query --------------------------------------


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
def test_scan_pairs_equal_decoded_singleton_buckets(data):
    # the scan's ordered pairs, counted once per repetition, are exactly
    # what decoding every bucket of a repetition gives, with no failure,
    # under two independent singleton groupings, with or without the
    # diagonal baseline, for a symmetric Gram
    n = data.draw(st.integers(2, 12))
    pi = n + data.draw(st.integers(0, 4))  # pi = n, and pi > n with phantom indices
    phi = data.draw(st.sampled_from([0.05, 0.3, 0.8, 1.0]))
    half = phi / 2.0
    edges = [0.0, half, -half, np.nextafter(half, 0.0), np.nextafter(-half, 0.0),
             1.0, 1.0 + half, 1.0 - half, np.nextafter(1.0 - half, 1.0)]
    entry = st.sampled_from(edges) | st.floats(-1.5, 1.5)
    gram = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    gram = np.triu(gram) + np.triu(gram, 1).T
    heavy = data.draw(st.integers(1, n - 1))
    gram[0, heavy] = gram[heavy, 0] = phi  # a heavy entry on index 0
    cb = ecc.for_index_space(n + data.draw(st.integers(0, 40)))
    store = build_store(np.random.default_rng(n).standard_normal((n, 8)))
    store.standardize()
    params = practical(n, phi, cb, groups=pi, reps=data.draw(st.integers(1, 4)))
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_scan_hits", lambda stores, phi: np.abs(gram) >= phi / 2.0)
        survivors = recover(store, params, cb, seed=data.draw(st.integers(0, 2**32 - 1)),
                            counts=counts)
    for _ in range(2):
        cart = CartesianTransform(n, pi, data.draw(st.integers(0, 2**32 - 1)))
        buckets = _exact_buckets(gram, cart, cb)
        for subtract in (True, False):
            pairs, failures = _recovery_step_counted(
                buckets, cart, cb, phi, subtract_baseline=subtract
            )
            assert failures == 0 and len(pairs) == len(set(pairs))
            assert counts == {pair: params.reps for pair in pairs}
            assert survivors == {(min(i, j), max(i, j)) for i, j in pairs}


def test_scan_reads_the_upper_triangle():
    # the scan reads each pair (i, j) at G[i, j], i < j: with an injected
    # asymmetric Gram, an entry above the diagonal decides its pair alone,
    # and one below it is never read. Unit scales make the injected product
    # the Gram the scan thresholds
    n, reps = 6, 3
    gram = np.zeros((n, n))
    gram[1, 4] = 0.9  # above the diagonal only
    gram[5, 2] = 0.9  # below it only
    gram[0, 3] = gram[3, 0] = -0.9
    store = RowSketchStore.from_matrix(
        SketchTransform(16, 8, 1, seed=4), np.random.default_rng(4).standard_normal((n, 16))
    )
    store.standardize()
    store.scale = np.ones(n)
    cb = ecc.for_index_space(n)
    params = practical(n, 0.8, cb, groups=n, reps=reps)
    scan = functools.partial(recovery._scan_hits, multiply=lambda a, b: gram.copy())
    diags, counts = [], {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "_scan_hits", scan)
        survivors = recover(store, params, cb, seed=1, diagnostics=diags, counts=counts)
    assert survivors == {(0, 3), (1, 4)}
    assert counts == {(0, 3): reps, (3, 0): reps, (1, 4): reps, (4, 1): reps}
    assert _diag_key(diags) == [(0, 0, 4)]


@pytest.mark.parametrize("extra", [0, 3])
def test_singleton_query_does_not_depend_on_the_seed(extra):
    # singleton groups scan once and draw no grouping, so every seed gives
    # the same pairs, each counted once per repetition (a low phi puts dozens
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
    # a scan counts Gram hits directly; a grouped query still decodes words
    store, _ = _planted_store(n=32, p=512)
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(store.n)

    def refuse(self, words):
        raise AssertionError("decoded a word")

    monkeypatch.setattr(ecc.Codebook, "decode_words", refuse)
    singleton = practical(store.n, 0.7, cb, groups=32, reps=5, transform=store.transform)
    assert (3, 17) in recover(store, singleton, cb, seed=29)
    assert pair in recover_diff(after, before, singleton, cb, seed=31)
    grouped = practical(store.n, 0.7, cb, groups=4, reps=1, transform=store.transform)
    assert _path(store.n, 4, 1, store.transform) == "grouped"  # n = 32 > 4 gamma pi = 16
    with pytest.raises(AssertionError, match="decoded a word"):
        recover(store, grouped, cb, seed=29)
    with pytest.raises(AssertionError, match="decoded a word"):
        recover_diff(after, before, grouped, cb, seed=31)


def test_singleton_query_builds_no_grouping(monkeypatch):
    # pi >= n scans once: no repetition draws a grouping
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
    # threads, standardization and codebook size are checked before any
    # product: the scan's Grams and a grouped repetition's products
    store, _ = _planted_store(n=32, p=512)
    raw = build_store(np.random.default_rng(1).standard_normal((32, 64)))
    cb = ecc.for_index_space(store.n)
    singleton = practical(store.n, 0.7, cb, groups=32, reps=2, transform=store.transform)
    grouped = practical(store.n, 0.7, cb, groups=3, reps=2, transform=store.transform)
    assert _path(store.n, 3, 2, store.transform) == "grouped"

    def refuse(what):
        def refused(*args):
            raise AssertionError(f"formed {what}")
        return refused

    monkeypatch.setattr(recovery, "_scan_hits", refuse("a Gram"))
    monkeypatch.setattr(recovery, "_group_products", refuse("products"))
    cases = [
        (ParameterError, "threads must be at least 1, got 0", store, cb, 0),
        (SketchStateError, "standardized", raw, cb, 1),
        (ValueError, "codebook addresses 16 indices, store has 32", store,
         ecc.for_index_space(16), 1),
    ]
    for params in (singleton, grouped):
        for error, match, s, book, threads in cases:
            with pytest.raises(error, match=match):
                recover(s, params, book, seed=3, threads=threads)
            with pytest.raises(error, match=match):
                recover_diff(s, s, params, book, seed=3, threads=threads)
    with pytest.raises(AssertionError, match="formed a Gram"):  # the scan is taken
        recover(store, singleton, cb, seed=3)
    with pytest.raises(AssertionError, match="formed products"):
        recover(store, grouped, cb, seed=3)


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recover_diff_verify_keeps_exactly_the_changed_pairs(seed):
    # noisy grouped buckets give the bare vote pairs whose correlation did not
    # change; verify accepts a pair when its direct estimates change by at
    # least phi - 8 eps, which here is exactly the changed pair, either way round
    before, after, pair = _diff_stores(n=64, p=256)
    cb = ecc.for_index_space(before.n)
    params = practical(before.n, 0.7, cb, groups=6, reps=2, transform=before.transform)
    assert _path(64, 6, 2, before.transform) == "grouped"  # n_pad = 66 > 4 gamma pi = 48
    for first, second in ((after, before), (before, after)):
        bare = recover_diff(first, second, params, cb, seed=seed)
        assert pair in bare and len(bare) > 1
        for threads in (1, 2):
            verified = recover_diff(first, second, params, cb, seed=seed, verify=True,
                                    threads=threads)
            assert verified == {pair}
        checked = verify_candidates(first, bare, 0.7, second)
        assert [(i, j) for i, j, _, ok in checked if ok] == [pair]
        for i, j, est, _ in checked:
            assert est == first.inner(i, j) - second.inner(i, j)


def test_recover_diff_verify_warns_when_vacuous():
    # eps = 0.04: at phi 0.3 one store's threshold is 0.14, a change's -0.02
    before, after, pair = _diff_stores()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify_candidates(after, [pair], 0.3)
    with pytest.warns(UserWarning, match=r"phi - 8\*eps <= 0"):
        checked = verify_candidates(after, [(0, 1), pair], 0.3, before)
    assert all(ok for _, _, _, ok in checked)


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


@pytest.mark.parametrize(  # grouped, a grouped shape the rule scans, and singleton groups
    "groups,reps,path", [(3, 2, "grouped"), (16, 5, "scan"), (32, 5, "scan")], ids=["3", "16", "32"]
)
def test_recover_diff_thread_invariant(groups, reps, path):
    before, after, pair = _diff_stores()
    cb = ecc.for_index_space(before.n)
    params = practical(before.n, 0.7, cb, groups=groups, reps=reps, transform=before.transform)
    assert _path(before.n, groups, reps, before.transform) == path
    runs = []
    for threads in (1, 2):
        diags = []
        pairs = recover_diff(after, before, params, cb, seed=13, threads=threads, diagnostics=diags)
        runs.append((pairs, _diag_key(diags)))
        assert all(d.elapsed_ms > 0 for d in diags)
    assert runs[0] == runs[1]
    pairs, diags = runs[0]
    assert pair in pairs
    if path == "grouped":
        assert [i for i, _, _ in diags] == list(range(reps))
    else:  # one scan, no repetition
        assert diags == _scan_diag_key(pairs)


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


# -- the counting scan and the rule that picks it ------------------------------


def test_route_rule():
    # a scan when pi >= n, or when n_pad <= 4 gamma pi and 2 depth n_pad <= K,
    # at equality too
    def scans(*shape):
        return recovery.query_path(*shape) == "scan"

    assert scans(64, 4, 4, 1, 128)
    assert not scans(65, 4, 4, 1, 128)  # n_pad 68 > 64
    assert not scans(64, 4, 3, 1, 128)  # 64 > 48
    assert not scans(64, 4, 4, 1, 127)  # 2 n_pad > K
    assert scans(61, 4, 4, 2, 256)  # phantoms count: n_pad 64
    assert not scans(61, 4, 4, 2, 255)
    assert scans(64, 64, 1, 37, 1) and scans(61, 64, 1, 37, 1)  # singleton groups, any K
    assert not scans(64, 63, 1, 37, 1)
    wide = SketchTransform.from_accuracy(1 << 20, 0.05, 0.2, 3)  # p >= width: K = d b
    assert (wide.depth, wide.cells) == (13, 13 * 1600)
    readme = SketchTransform.from_accuracy(1024, 0.02, 0.01, 11)  # the README demo's sketch
    assert readme.depth == 37
    # the scan: wide-stream, acceptance 09, the README query with --pi 16 --gamma 4
    assert _path(64, 16, 5, wide) == "scan"
    assert _path(64, 32, 8, SketchTransform.from_accuracy(1024, 0.04, 0.2, 9500)) == "scan"
    assert _path(128, 16, 4, readme) == "scan"
    # grouped: grouped1024, the theta = 2/3 grid, the n = 4,096 wide store,
    # and the README query with --pi 8 --gamma 3 or --pi 16 --gamma 1
    dense = SketchTransform.from_accuracy(256, 0.05, 0.2, 71)
    assert _path(1024, 267, 4, dense) == "grouped"
    for n in (256, 512, 1024, 2048, 4096):
        lam = ecc.for_index_space(n).error_fraction
        pi = min_group_count(n, 0.8, 2, 0.5, lam, 2.0 / 3.0)
        assert _path(n, pi, 4, dense) == "grouped", n
    assert _path(4096, 64, 4, wide) == "grouped"
    assert _path(128, 8, 3, readme) == _path(128, 16, 1, readme) == "grouped"


def _correlated_stores(n, p, width, seed):
    """Two standardized stores over one transform; pairs (2, 9) and (4, 11) change between them."""
    rng = np.random.default_rng(seed)
    transform = SketchTransform(p, width, 5, seed)
    values = rng.standard_normal((n, p))
    values[9] = values[2] + 0.3 * rng.standard_normal(p)
    changed = values.copy()
    changed[9] = rng.standard_normal(p)
    changed[11] = changed[4] + 0.3 * rng.standard_normal(p)
    stores = [RowSketchStore.from_matrix(transform, v) for v in (values, changed)]
    for store in stores:
        store.standardize()
    return stores


def _gram_stack(store):
    """r_t r_t^T of every sketch row t over its stored cells, (depth, n, n)."""
    sizes = np.diff(store.transform.offsets)
    rows = [store.sketch_row(t, np.empty((store.n, k))) for t, k in enumerate(sizes)]
    return np.stack([rt @ rt.T for rt in rows])


@pytest.mark.parametrize(
    "n,p,width,pi",
    [
        (30, 400, 128, 4),  # p >= width, pi does not divide n
        (30, 96, 256, 8),  # p < width, pi does not divide n
        (32, 400, 128, 8),  # p >= width, no phantoms
        (30, 96, 256, 30),  # p < width, singleton groups
        (30, 400, 128, 33),  # p >= width, singleton groups with phantom indices
    ],
)
def test_scan_decisions_equal_the_median_test(n, p, width, pi):
    # the scan's counts decide exactly as |median over sketch rows| >= phi/2
    # does, of the Grams or, for a difference, of their per-row differences;
    # recover and recover_diff keep those decisions' pairs i < j, counted once
    # per repetition each way, and report one scan, on one thread or two
    first, second = _correlated_stores(n, p, width, seed=n + p + width + pi)
    cb = ecc.for_index_space(n)
    params = practical(n, 0.7, cb, groups=pi, reps=3)
    assert _path(n, pi, params.reps, first.transform) == "scan"
    stacks = [_gram_stack(store) for store in (first, second)]
    for stores, stack in (((first,), stacks[0]), ((second, first), stacks[1] - stacks[0])):
        expect = np.abs(np.median(stack, axis=0)) >= 0.35
        assert np.array_equal(recovery._scan_hits(stores, 0.7), expect)
        assert np.array_equal(expect, expect.T)
        survivors = set(zip(*np.nonzero(np.triu(expect, 1))))
        assert survivors  # the changed or correlated pairs
        for threads in (1, 2):
            diags, counts = [], {}
            if len(stores) == 1:
                got = recover(first, params, cb, seed=5, threads=threads, diagnostics=diags,
                              counts=counts)
                assert counts == {
                    pair: params.reps for i, j in survivors for pair in ((i, j), (j, i))
                }
            else:
                got = recover_diff(*stores, params, cb, seed=5, threads=threads, diagnostics=diags)
            assert got == survivors
            assert _diag_key(diags) == _scan_diag_key(survivors)
            assert diags[0].elapsed_ms > 0


@pytest.mark.parametrize(
    "n,p,width,pi",
    [
        (30, 400, 128, 2),  # p >= width, n_pad > 4 gamma pi
        (30, 40, 64, 4),  # p < width, pi does not divide n, 2 depth n_pad > K
        (30, 96, 32, 7),  # p >= width, pi does not divide n, 2 depth n_pad > K
    ],
)
def test_grouped_query_matches_public_loop(n, p, width, pi):
    # survivors and ordered counts of recover, and survivors of recover_diff,
    # equal the public loop's over approximate and recovery_step, on one
    # thread or two
    first, second = _correlated_stores(n, p, width, seed=n + p + width + pi)
    cb = ecc.for_index_space(n)
    params = practical(n, 0.7, cb, groups=pi, reps=3)
    assert _path(n, pi, params.reps, first.transform) == "grouped"
    votes, expect = _public_votes(n, params, cb, 5, lambda cart: approximate(first, cart, cb))
    _, diff_expect = _public_votes(
        n, params, cb, 5,
        lambda cart: approximate(second, cart, cb) - approximate(first, cart, cb),
        subtract_baseline=False,
    )
    assert votes and diff_expect  # both queries emit pairs
    for threads in (1, 2):
        counts = {}
        assert recover(first, params, cb, seed=5, threads=threads, counts=counts) == expect
        assert counts == dict(votes)
        assert recover_diff(second, first, params, cb, seed=5, threads=threads) == diff_expect


def _rows_counted(stack, phi):
    """How many of the (depth, n, n) ``stack``'s sketch rows the scan counts.

    It stops after the first t >= need = depth//2 + 1 rows at which every
    entry has need hits at +phi/2 or at -phi/2, or has too few to reach
    need in the rows left.
    """
    depth = len(stack)
    need = depth // 2 + 1
    high = np.cumsum(stack >= phi / 2, axis=0)
    low = np.cumsum(stack <= -phi / 2, axis=0)
    for t in range(need, depth + 1):
        best = np.maximum(high[t - 1], low[t - 1])
        if not ((best < need) & (best + depth - t >= need)).any():
            return t
    raise AssertionError("the last row decides every entry")


@pytest.mark.parametrize("depth", [1, 3, 5, 7, 257])
def test_scan_counts_ties_at_half_phi(depth):
    # Grams whose entries sit exactly at +-phi/2, or one ulp inside it, in
    # some sketch rows: an entry at +-phi/2 is a hit, and the counts decide
    # as the median does, for one store and for a difference; a count
    # reaches depth, past a byte's range at depth 257. The scan forms the
    # Grams of the sketch rows it counts, and no more. Unit scales make each
    # injected product the Gram the scan thresholds, bit for bit
    rng = np.random.default_rng(depth)
    n, phi = 9, 0.5
    transform = SketchTransform(16, 8, depth, seed=depth)
    stores = [RowSketchStore.from_matrix(transform, rng.standard_normal((n, 16))) for _ in "ab"]
    for store in stores:
        store.standardize()
        store.scale = np.ones(n)
    inside = np.nextafter(0.25, 0.0)
    edges = np.array([0.25, -0.25, inside, -inside, 0.0, 0.5, -0.5, 1.0])
    for count in (1, 2):
        grams = rng.choice(edges, size=(depth, count, n, n))
        made = iter(grams.reshape(-1, n, n))
        hits = recovery._scan_hits(tuple(stores[:count]), phi, lambda a, b: next(made).copy())
        stack = grams[:, 0] - (grams[:, 1] if count == 2 else 0.0)
        expect = np.abs(np.median(stack, axis=0)) >= phi / 2
        assert np.array_equal(hits, expect)
        if depth < 9:  # over 257 draws every median falls between the thresholds
            assert expect.any() and not expect.all()
        rows = _rows_counted(stack, phi)
        assert len(list(made)) == (depth - rows) * count  # one Gram per counted row and store
    at_half = np.full((depth, n, n), 0.0)
    at_half[: depth // 2 + 1, 0, 1] = 0.25  # a bare majority exactly at phi/2
    at_half[: depth // 2 + 1, 1, 0] = -0.25
    at_half[: depth // 2 + 1, 2, 3] = inside  # one ulp short
    at_half[: depth // 2, 3, 2] = 0.25  # one row short of a majority
    at_half[:, 4, 5] = -1.0  # every row
    made = iter(at_half)
    hits = recovery._scan_hits(stores[:1], phi, lambda a, b: next(made).copy())
    assert hits[0, 1] and hits[1, 0] and not hits[2, 3] and not hits[3, 2] and hits[4, 5]
    assert next(made, None) is None  # (3, 2) could make need up to the last row
    made = iter(np.zeros((depth, n, n)))  # no hit anywhere: decided after need rows
    assert not recovery._scan_hits(stores[:1], phi, lambda a, b: next(made).copy()).any()
    assert len(list(made)) == depth - (depth // 2 + 1)


def _near_half_store(transform, n, phi, members, seed):
    """A standardized store whose ``members`` rows share a factor: correlations near phi/2."""
    rng = np.random.default_rng(seed)
    a = math.sqrt(phi / 2)
    values = rng.standard_normal((n, transform.p))
    values[members] = a * rng.standard_normal(transform.p) + math.sqrt(1 - a * a) * values[members]
    store = RowSketchStore.from_matrix(transform, values)
    store.standardize()
    return store


@pytest.mark.parametrize("phi", [0.3, 0.5, 0.8])
def test_early_exit_decides_as_the_full_count(phi):
    # the reference counts the hits of all d Grams: the scan, which stops
    # once every entry is decided, decides every entry alike, and forms the
    # Grams of the rows the reference needs to decide them, no more. Rows
    # 0-7 share a factor, so their Gram entries scatter around phi/2 and
    # the scan counts on past the first need rows; with no row sharing it
    # (the background store) it may stop at need
    n = 40
    transform = SketchTransform(600, 512, 13, seed=5)
    background = _near_half_store(transform, n, phi, slice(0, 0), seed=2)
    counted = set()
    for store in (_near_half_store(transform, n, phi, slice(0, 8), seed=1), background):
        for stores in ((store,), (store, background)):
            stack = _gram_stack(stores[0]) - (_gram_stack(stores[1]) if len(stores) == 2 else 0)
            assert np.abs(np.abs(stack) - phi / 2).min() > 1e-12  # no entry on a rounding edge
            high, low = (stack >= phi / 2).sum(axis=0), (stack <= -phi / 2).sum(axis=0)
            need = transform.depth // 2 + 1
            expect = (high >= need) | (low >= need)
            if store is not background:
                pairs = expect[:8, :8][np.triu_indices(8, 1)]
                assert pairs.any() and not pairs.all()  # medians on either side of phi/2
            products = []

            def multiply(a, b):
                products.append(a.shape)
                return a @ b

            assert np.array_equal(recovery._scan_hits(stores, phi, multiply), expect)
            rows = _rows_counted(stack, phi)
            assert len(products) == rows * len(stores)
            counted.add(rows)
    assert min(counted) < transform.depth  # some scans stop early
    assert max(counted) > transform.depth // 2 + 1  # some count past need


def test_undecided_reads_every_row_block():
    # the stop test reads 64 rows at a time: it finds an entry whose larger
    # count lies in [reach, need) in any block, the last, partial one
    # included, whether high or low holds that count, and finds none when
    # every entry has need hits or fewer than reach
    n, reach, need = 150, 3, 7
    rng = np.random.default_rng(61)
    # half the entries have need hits on one side, the others fewer than reach on both
    decided = rng.integers(0, reach, (2, n, n)).astype(np.uint8)
    passed = rng.random((n, n)) < 0.5
    decided[0][passed] = need
    decided[1][passed] = rng.integers(0, need + 1, passed.sum())
    decided = np.where(rng.random((n, n)) < 0.5, decided, decided[::-1])
    assert not recovery._undecided(*decided, reach, need)
    for i in (0, 63, 64, 127, 128, 149):
        for side in (0, 1):
            for count in (reach, need - 1):
                counts = decided.copy()
                counts[:, i, (7 * i) % n] = 0
                counts[side, i, (7 * i) % n] = count
                assert recovery._undecided(*counts, reach, need), (i, side, count)


def test_scan_holds_no_gram_stack():
    # the scan counts hits one Gram at a time, so a query at n = 256 peaks
    # below the 8 d n^2 bytes of the (d, n, n) stack that a median reads
    rng = np.random.default_rng(51)
    n = 256
    transform = SketchTransform(1024, 600, 13, seed=52)
    stores = [RowSketchStore.from_matrix(transform, rng.standard_normal((n, 1024)))
              for _ in range(2)]
    for store in stores:
        store.standardize()
    cb = ecc.for_index_space(n)
    stack_bytes = 8 * transform.depth * n * n  # 6.5 MiB
    for groups in (n, 64):  # singleton groups, and a grouped shape the rule scans
        params = practical(n, 0.8, cb, groups=groups, reps=3, transform=transform)
        assert _path(n, groups, 3, transform) == "scan"
        for query in (lambda: recover(stores[0], params, cb, seed=5),
                      lambda: recover_diff(*stores, params, cb, seed=5)):
            tracemalloc.start()
            try:
                query()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < stack_bytes, peak / stack_bytes


def test_scan_holds_one_gram_per_store():
    # a one-store scan reuses one Gram buffer across sketch rows: at n = 256
    # it peaks under 16 n^2 bytes, the Gram (8 n^2), the two hit counts
    # (2 n^2), the hit mask (n^2), the row buffer (8 n k_t = 2 n^2 at
    # k_t = 64) and NumPy's fixed-size ufunc buffers; a second live Gram
    # would pass the bound
    rng = np.random.default_rng(53)
    n = 256
    transform = SketchTransform(1024, 64, 13, seed=54)
    store = RowSketchStore.from_matrix(transform, rng.standard_normal((n, 1024)))
    store.standardize()
    tracemalloc.start()
    try:
        recovery._scan_hits((store,), 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n, peak / (n * n)


def _served_stores(tmp_path, kind, phi):
    """Two standardized stores, n = 40: built from a matrix, loaded, or updated after load.

    Rows 0-7 of the first share a factor, so their Gram entries scatter
    around phi/2. Standardize centers a built or updated store's cells in
    place; a loaded store's were centered at save.
    """
    transform = SketchTransform(600, 512, 13, seed=5)
    stores = []
    for seed, members in ((1, slice(0, 8)), (2, slice(0, 0))):
        store = _near_half_store(transform, 40, phi, members, seed)
        if kind != "built":
            store.save(tmp_path / f"{seed}.snap")
            store = RowSketchStore.load(tmp_path / f"{seed}.snap")
            if kind == "updated":
                store.apply(StreamUpdate(2.5, 3, 7))
                store.apply(StreamUpdate(-1.0, 30, 599))
            store.standardize()
        stores.append(store)
    return stores


@pytest.mark.parametrize("kind", ["built", "loaded", "updated"])
def test_scan_multiplies_the_centered_cells(tmp_path, kind):
    # the scan hands multiply each sketch row's centered cells, unscaled: the
    # stored cells themselves, copied nowhere, whether standardize centered
    # them (built from a matrix, or updated after load) or save did (loaded).
    # Scaled, they are the served rows
    stores = _served_stores(tmp_path, kind, 0.5)
    for count in (1, 2):
        handed = []

        def multiply(a, b):
            assert np.shares_memory(a, b) and np.array_equal(b, a.T)
            handed.append((a, a.copy()))
            return a @ b

        recovery._scan_hits(tuple(stores[:count]), 0.5, multiply)
        assert len(handed) >= count * (stores[0].transform.depth // 2 + 1)
        for k, (a, cells) in enumerate(handed):
            store, t = stores[k % count], k // count
            assert np.shares_memory(a, store._cells), (kind, k)
            served = store.sketch_row(t, np.empty(a.shape))
            assert np.array_equal(cells * store.scale[:, None], served)


@pytest.mark.parametrize("kind", ["loaded", "updated"])
@pytest.mark.parametrize("phi", [0.3, 0.8])
def test_scan_decides_as_the_served_rows_grams(tmp_path, kind, phi):
    # the scan scales each unscaled Gram, a_i a_j c_i.c_j, where a reference
    # multiplies the served rows, (a_i c_i).(a_j c_j): the roundings differ,
    # so with no entry within 1e-12 of +-phi/2 the decisions are the same,
    # for one store and a difference (test_early_exit_decides_as_the_full_count
    # checks stores built from a matrix)
    stores = _served_stores(tmp_path, kind, phi)
    need = stores[0].transform.depth // 2 + 1
    for count in (1, 2):
        stack = _gram_stack(stores[0]) - (_gram_stack(stores[1]) if count == 2 else 0.0)
        assert np.abs(np.abs(stack) - phi / 2).min() > 1e-12
        expect = ((stack >= phi / 2).sum(axis=0) >= need) | ((stack <= -phi / 2).sum(axis=0) >= need)
        assert expect.any() and not expect.all()
        assert np.array_equal(recovery._scan_hits(tuple(stores[:count]), phi), expect)


@pytest.mark.parametrize("kind", ["built", "loaded"])
def test_scaled_gram_is_within_a_rounding_bound_of_the_served_rows_gram(tmp_path, kind):
    # the scan thresholds G_t = fl(fl(c c^T) a_i) a_j; the served rows' Gram
    # rounds a_i c_i first. Each is within gamma_{k+2} a_i a_j sum_b |c_ib c_jb|
    # of the exact a_i a_j c_i.c_j, in any summation order (k = k_t,
    # gamma_m = m u / (1 - m u), u = 2^-53), so they differ per entry by at
    # most 2 gamma_{k+2} ||a_i c_i|| ||a_j c_j||: only an entry that close
    # to +-phi/2 can be decided otherwise
    stores = _served_stores(tmp_path, kind, 0.5)
    made = []

    def multiply(a, b):
        made.append(a @ b)  # scaled in place by the scan: the Gram it thresholds
        return made[-1]

    recovery._scan_hits(stores[:1], 0.5, multiply)
    u, store, differ = 2.0**-53, stores[0], 0
    for t, (gram, k) in enumerate(zip(made, np.diff(store.transform.offsets))):
        rt = store.sketch_row(t, np.empty((store.n, k)))
        norms = np.sqrt(np.einsum("ib,ib->i", rt, rt))
        gamma = (k + 2) * u / (1 - (k + 2) * u)
        gap = np.abs(gram - rt @ rt.T)
        assert (gap <= 2 * gamma * np.outer(norms, norms)).all(), t
        differ += np.count_nonzero(gap)
    assert differ  # the roundings are not the same


def test_recovery_refusals_name_their_cause(rng):
    store = build_store(rng.standard_normal((4, 32)))
    with pytest.raises(SketchStateError, match="^verification requires a standardized store$"):
        verify_candidates(store, [(0, 1)], 0.5)
    store.standardize()
    other = RowSketchStore.from_matrix(store.transform, rng.standard_normal((5, 32)))
    other.standardize()
    cb = ecc.for_index_space(5)
    params = recovery.QueryParams(0.5, 4, 0.0, 0.0, 1, "practical")
    with pytest.raises(ValueError, match="^snapshot stores have different row counts$"):
        recover_diff(store, other, params, cb, seed=1)
