"""Acceptance suite.

One test per criterion. Each prints a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and asserts at the
stated tolerance. Seeds are fixed so every check is reproducible.
"""

import time
import warnings

import numpy as np

from corrsketch import ecc, oracle
from corrsketch.ams import RowSketchStore, SketchTransform, inner_product
from corrsketch.cartesian import CartesianTransform
from corrsketch.bench import BenchGrid, run_bench
from corrsketch.recovery import (
    approximate,
    approximate_per_row,
    recover,
    recover_diff,
    recovery_step,
    select_parameters,
)
from corrsketch.stream import DenseMatrix, matrix_to_updates


def _report(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _practical(n, phi, cb, *, groups, reps, transform, k=1, residual_bound=0.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return select_parameters(
            n, phi, k, residual_bound, 0.0, cb, "practical",
            groups=groups, reps=reps,
            epsilon=transform.epsilon, delta=transform.delta,
        )


PLANT_4 = [(3, 40, 0.9), (10, 77, 0.95), (55, 100, -0.9), (68, 120, 0.92)]


def test_acceptance_01_end_to_end_recovery():
    """Planted pairs at |rho| >= 0.9 recovered with perfect precision."""
    n, p, phi, seeds = 128, 1024, 0.8, 50
    planted_pairs = {(i, j) for i, j, _ in PLANT_4}
    cb = ecc.for_index_space(n)
    recall_runs = 0
    precision_runs = 0
    slowest = 0.0
    for s in range(seeds):
        m, _ = oracle.plant_dataset(oracle.PlantedSpec(n, p, PLANT_4, seed=1000 + s))
        transform = SketchTransform.from_accuracy(p, 0.02, 0.01, seed=2000 + s)
        assert transform.width == 10_000 and transform.depth == 37
        store = RowSketchStore.from_matrix(transform, m.values)
        store.standardize()
        params = _practical(n, phi, cb, groups=128, reps=16, transform=transform, k=8)
        t0 = time.perf_counter()
        result = recover(store, params, cb, seed=3000 + s, verify=True)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 120.0, f"seed {s}: run took {elapsed:.1f}s"
        recall_runs += planted_pairs <= result
        precision_runs += result <= planted_pairs
        del store
    ok = recall_runs >= 45 and precision_runs == seeds
    _report(
        1,
        "end-to-end recovery",
        ok,
        f"recall 100% on {recall_runs}/50 runs (need >=45), "
        f"precision 100% on {precision_runs}/50 (need 50), slowest run {slowest:.1f}s",
    )


def test_acceptance_02_per_repetition_bound():
    """A fixed planted pair appears in >= 60% of single recovery steps."""
    n, p, phi, reps = 64, 16384, 0.8, 200
    pair = (3, 17)
    m, _ = oracle.plant_dataset(oracle.PlantedSpec(n, p, [(3, 17, 0.9)], seed=7))
    c = oracle.correlation(m)
    k = len(oracle.large_set(c, phi))
    assert k == 2  # the planted pair, both orderings
    residual = oracle.residual_norm(c, k)
    cb = ecc.for_index_space(n)
    lam = cb.error_fraction
    # exact sketches: epsilon = delta = 0, so the accuracy constraints hold
    # outright and the group count is the only binding constraint
    groups = max(
        18 * k, int(np.ceil(18.0 * residual / (phi * np.sqrt(lam))))
    )
    assert groups <= n
    transform = SketchTransform.identity(p)
    store = RowSketchStore.from_matrix(transform, m.values)
    store.standardize()
    hits = 0
    for r in range(reps):
        cart = CartesianTransform(n, groups, seed=40_000 + r)
        pairs = recovery_step(approximate(store, cart, cb), cart, cb, phi)
        hits += pair in pairs
    rate = hits / reps
    _report(
        2,
        "per-repetition recovery bound",
        rate >= 0.60,
        f"pair {pair} recovered in {hits}/{reps} repetitions "
        f"(rate {rate:.3f}, need >=0.600, groups={groups}, residual={residual:.3f})",
    )


def test_acceptance_03_ams_guarantees():
    """Inner-product and squared-norm sketch errors within 0.1, 95% of trials."""
    p, width, depth, trials = 512, 400, 7, 1000
    rng = np.random.default_rng(99)
    transform = SketchTransform(p, width, depth, seed=17)
    inner_hits = 0
    norm_hits = 0
    for _ in range(trials):
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        sx = transform.sketch_vector(x)
        sy = transform.sketch_vector(y)
        inner_hits += abs(inner_product(sx, sy) - float(x @ y)) <= 0.1
        norm_hits += abs(inner_product(sx, sx) - 1.0) <= 0.1
    ok = inner_hits >= 0.95 * trials and norm_hits >= 0.95 * trials
    _report(
        3,
        "sketch accuracy guarantees",
        ok,
        f"inner-product {inner_hits}/{trials}, squared-norm {norm_hits}/{trials} "
        f"within 0.1 (need >=950)",
    )


def test_acceptance_04_standardization_error():
    """Standardized sketches estimate correlations within 4 eps."""
    n, p, eps, delta, trials = 16, 256, 0.05, 0.05, 200
    rng = np.random.default_rng(123)
    hits = 0
    total = 0
    for trial in range(trials):
        values = rng.standard_normal((n, p))
        truth = oracle.correlation(DenseMatrix(values)).values
        transform = SketchTransform.from_accuracy(p, eps, delta, seed=5000 + trial)
        store = RowSketchStore.from_matrix(transform, values)
        store.standardize()
        for i in range(n):
            for j in range(i + 1, n):
                total += 1
                hits += abs(store.inner(i, j) - truth[i, j]) <= 4 * eps
    need = (1.0 - 3.0 * delta) * total
    _report(
        4,
        "standardization error bound",
        hits >= need,
        f"{hits}/{total} (pair, trial) combos within 4*eps={4*eps}, "
        f"need >= {need:.0f} (1-3*delta)",
    )


def test_acceptance_05_cartesian_variance():
    """Bucket values are zero-mean with variance <= ||A||_F^2 / pi^2."""
    n, pi, trials = 32, 8, 2000
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n))
    np.fill_diagonal(a, 0.0)
    from conftest import cart_exact

    samples = np.stack(
        [cart_exact(CartesianTransform(n, pi, seed=s), a) for s in range(trials)]
    )
    bound = 1.25 * (a * a).sum() / pi**2
    variances = samples.var(axis=0, ddof=1)
    means = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(trials)
    var_ok = bool(variances.max() <= bound)
    mean_ok = bool(np.all(np.abs(means) <= 3.0 * stderr))
    _report(
        5,
        "grouped-sketch variance bound",
        var_ok and mean_ok,
        f"max bucket variance {variances.max():.3f} <= {bound:.3f}: {var_ok}; "
        f"all means within 3 stderr: {mean_ok}",
    )


def test_acceptance_06_ecc_radius():
    """Decoding at the full correction radius never fails or misleads."""
    n = 1 << 16
    cb = ecc.for_index_space(n)
    radius = int(cb.error_fraction * cb.codeword_len)
    assert radius == cb.n_correctable
    rng = np.random.default_rng(31)
    indices = rng.choice(n, size=256, replace=False)
    correct = 0
    total = 0
    for i in indices:
        base = cb.encode(int(i))
        words = np.tile(base, (200, 1))
        for r in range(200):
            flips = rng.choice(cb.codeword_len, size=radius, replace=False)
            words[r, flips] ^= 1
        decoded = cb.decode_words(words)
        total += 200
        correct += int(np.sum(decoded == i))
    _report(
        6,
        "error-correction radius",
        correct == total,
        f"{correct}/{total} decodes correct at exactly {radius} flips "
        f"(blocklen {cb.codeword_len})",
    )


def test_acceptance_07_bilinearity_oracle():
    """Per-sketch-row group products match the brute-force double sum."""
    n, p, pi, width, depth = 32, 64, 8, 16, 3
    rng = np.random.default_rng(47)
    values = rng.standard_normal((n, p))
    transform = SketchTransform(p, width, depth, seed=53)
    store = RowSketchStore.from_matrix(transform, values)
    store.standardize()
    cb = ecc.for_index_space(n)
    cart = CartesianTransform(n, pi, seed=59)
    rows_l, rows_r = approximate_per_row(store, cart, cb)
    worst = 0.0
    for t in range(depth):
        rt = store.rows[t]
        dots = rt @ rt.T
        for l in range(cb.codeword_len):
            expect_l = np.zeros((pi, pi))
            expect_r = np.zeros((pi, pi))
            for i in range(n):
                si = cart.s1[i]
                bi = cb.mask_bit(l, i)
                for j in range(n):
                    term = cart.s2[j] * dots[i, j]
                    expect_l[cart.p1[i], cart.p2[j]] += bi * si * term
                    expect_r[cart.p1[i], cart.p2[j]] += (
                        cb.mask_bit(l, j) * si * term
                    )
            scale = max(np.abs(expect_l).max(), np.abs(expect_r).max(), 1e-30)
            worst = max(
                worst,
                np.abs(rows_l[l, t] - expect_l).max() / scale,
                np.abs(rows_r[l, t] - expect_r).max() / scale,
            )
    _report(
        7,
        "group-product bilinearity oracle",
        worst <= 1e-9,
        f"worst relative deviation {worst:.2e} (tolerance 1e-9) over "
        f"{depth}x{cb.codeword_len}x{pi * pi} products",
    )


def test_acceptance_08_turnstile_linearity(tmp_path):
    """TS (shuffled), RPS, and CPS streams give bit-identical snapshots."""
    rng = np.random.default_rng(61)
    values = rng.integers(-8, 9, size=(16, 32)).astype(np.float64)
    m = DenseMatrix(values)
    transform_seed = 67
    payloads = []
    for variant in ("ts", "rps", "cps"):
        updates = matrix_to_updates(m, variant)
        if variant == "ts":
            rng.shuffle(updates)
        transform = SketchTransform.from_accuracy(32, 0.1, 0.1, transform_seed)
        store = RowSketchStore(transform, 16)
        for u in updates:
            store.apply(u)
        store.finalize_ones()
        path = tmp_path / f"{variant}.snap"
        store.save(path)
        payloads.append(path.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    _report(
        8,
        "stream-model linearity",
        ok,
        f"3 snapshots of {len(payloads[0])} bytes, bit-identical: {ok}",
    )


def test_acceptance_09_sketch_differencing():
    """A single planted correlation change is recovered from snapshot diffs."""
    n, p, seeds = 64, 1024, 50
    phi, rho = 0.7, 0.9
    pair = (11, 42)
    cb = ecc.for_index_space(n)
    exact_runs = 0
    for s in range(seeds):
        rng = np.random.default_rng(9000 + s)
        base = rng.standard_normal((n, p))
        after_values = base.copy()
        u = base[pair[0]] - base[pair[0]].mean()
        u /= np.linalg.norm(u)
        g = rng.standard_normal(p)
        g -= g.mean()
        g -= (g @ u) * u
        after_values[pair[1]] = rho * u + np.sqrt(1 - rho * rho) * (g / np.linalg.norm(g))
        transform = SketchTransform.from_accuracy(p, 0.04, 0.2, seed=9500 + s)
        before = RowSketchStore.from_matrix(transform, base)
        after = RowSketchStore.from_matrix(transform, after_values)
        before.standardize()
        after.standardize()
        params = _practical(n, phi, cb, groups=32, reps=8, transform=transform, k=2)
        result = recover_diff(after, before, params, cb, seed=9800 + s)
        exact_runs += result == {pair}
    _report(
        9,
        "sketch differencing",
        exact_runs >= 45,
        f"diff recovered exactly {{{pair}}} in {exact_runs}/{seeds} seeds (need >=45)",
    )


def test_acceptance_10_scaling_smoke():
    """Query time grows subquadratically along the theta=2/3 grid."""
    grid = BenchGrid(
        n_values=[256, 512, 1024],
        p=256,
        phi=0.8,
        k=2,
        residual_bound=0.5,
        theta=2.0 / 3.0,
        epsilon=0.05,
        delta=0.2,
        reps=4,
        seed=71,
    )
    result = run_bench(grid)
    assert len(result.rows) == 3
    detail = "; ".join(
        f"n={r.n}: pi={r.groups}, {r.sketch_bytes} B, query {r.query_s:.2f}s"
        for r in result.rows
    )
    ok = result.query_exponent < 1.95 and result.bytes_exponent < 1.8
    _report(
        10,
        "scaling smoke",
        ok,
        f"query exponent {result.query_exponent:.2f} (<1.95), "
        f"bytes exponent {result.bytes_exponent:.2f} (<1.8); {detail}",
    )
