"""Query pipeline: recover all pairs with |correlation| >= phi.

One repetition works on a standardized row-sketch store:

  1. draw a random balanced grouping of rows into pi groups (twice,
     independently, with random signs),
  2. form signed group sketches, once plain and once masked by each bit
     of the rows' index codewords, and estimate every group-pair inner
     product (``approximate``). Both bucket sides share one
     (2, codeword_len, pi, pi) array: [0] row-masked, [1] column-masked,
  3. per group pair and side, threshold |bucket - baseline| against
     phi/2 to read off one bit per codeword position, decode all 2 pi^2
     bit strings in one call, and emit the decoded index pairs
     (``recovery_step``).

``_vote`` serves ``recover`` and ``recover_diff``. ``query_path`` picks
once per query between two ways to answer:

  * the scan, for singleton groups (pi >= n) and for grouped shapes with
    n_pad <= 4 gamma pi and 2 depth n_pad <= K, where the Grams cost no
    more than the repetitions' products. It is the search through all
    pairs that grouping avoids, done once: a pair (i, j), i < j, survives
    when |median over sketch rows of G_t[i, j]| >= phi/2, with
    G_t = diag(a) c_t c_t^T diag(a), the Gram of the served rows a_i c_i
    (or G_A,t - G_B,t for a difference). Depth is odd, so that holds when
    at least need = depth//2 + 1 of the G_t reach phi/2, or reach -phi/2:
    ``_scan_hits`` counts those hits one Gram at a time, and stops once
    every pair has need hits or can no longer reach need.
    It draws no grouping, decodes no word and runs no repetition: with
    singleton groups each pair has its own bucket, and every repetition
    would read off these same pairs;
  * else grouping: repetitions with fresh groupings vote, and pairs kept
    by at least half the repetitions survive. Per repetition and sketch
    row, two (n x k_t) @ (k_t x pi) products go straight into group
    order (``_group_products``), and one contraction (``_contract``) per
    codeword bit forms the masked buckets from them (``approximate``). A
    difference subtracts the second store's buckets and skips the
    baseline.

Both read sketch row t's k_t <= min(p, b) stored cells, one slice of
every row, so no query holds a copy of the rows. Grouping reads the
served rows (``RowSketchStore.sketch_row``) into a reused buffer. The
scan multiplies the centered cells themselves (``centered_row``, a view,
of the map for a loaded store), then scales each Gram by the row and
column scales; it holds one Gram buffer per store and no row buffer.
``approximate`` builds every pi from the rows, singleton groups included.
The multiply is injectable. Survivors can be re-checked against the
direct pairwise estimates (``verify_candidates``), or, for a difference,
against the change in them.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ams import RowSketchStore, SketchStateError, accuracy_width, seed_stream
from .cartesian import CartesianTransform, masked_diag_stack
from .ecc import Codebook

MAX_SKETCH_WIDTH = 10**8
MAX_BUCKETS = 10**8


class ParameterError(ValueError):
    pass


class FeasibilityError(ParameterError):
    """Strict-mode constraints cannot be met at this scale."""


def require_count(name: str, value: int | None):
    """Refuse a group, repetition or thread count below 1 (None means unset)."""
    if value is not None and value < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")


def require_phi(phi: float):
    """Refuse a NaN or nonpositive phi; above 1 a report is merely empty."""
    if not phi > 0:
        raise ParameterError(f"phi must be in (0, 1], got {phi}")


@dataclass
class QueryParams:
    """Resolved query-time parameters.

    ``groups`` is the grouping count per partition, ``reps`` the number of
    voting repetitions. ``epsilon``/``delta`` describe the row sketches
    (0 means exact) and are used for constraint warnings.
    """

    phi: float
    groups: int
    epsilon: float
    delta: float
    reps: int
    mode: str


def min_group_count(
    n: int, phi: float, k: int, residual_bound: float, error_fraction: float, theta: float = 0.0
) -> int:
    """Smallest admissible group count for guaranteed per-repetition recovery.

    max(18k, 18R/(phi*sqrt(lambda))) keeps any fixed large pair isolated
    and the residual noise below the decision threshold; the theta term
    scales groups with n for the space/time trade-off.
    """
    bound = max(1, 18 * k)
    if residual_bound > 0:
        bound = max(
            bound, math.ceil(18.0 * residual_bound / (phi * math.sqrt(error_fraction)))
        )
    bound = max(bound, math.ceil(n**theta * (k + residual_bound / phi)))
    return bound


def _guarantee_bounds(n, phi, groups, lam):
    """Largest (epsilon, delta) the guarantee allows at pi = ``groups``.

    They are min(1/2, phi*pi*sqrt(lambda)/(828n)) and lambda/(54(2+12n/pi)).
    """
    eps = min(0.5, phi * groups * math.sqrt(lam) / (828.0 * n))
    return eps, lam / (54.0 * (2.0 + 12.0 * n / groups))


def _constraint_violations(n, phi, k, residual_bound, groups, epsilon, delta, lam):
    out = []
    max_eps, max_delta = _guarantee_bounds(n, phi, groups, lam)
    if delta > max_delta:
        out.append("delta exceeds lambda/(54(2+12n/pi))")
    if epsilon > max_eps:
        out.append("epsilon exceeds min(1/2, phi*pi*sqrt(lambda)/(828n))")
    need = min_group_count(n, phi, k, residual_bound, lam)
    if groups < need:
        out.append(f"pi below max(18k, 18R/(phi*sqrt(lambda))) = {need}")
    return out


def check_settings(
    k: int,
    residual_bound: float,
    theta: float,
    mode: str,
    *,
    groups: int | None = None,
    reps: int | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
):
    """Refuse query settings that are wrong whatever phi and the store are.

    ``select_parameters`` runs these checks; a caller can run them before
    it loads a snapshot or takes a shortcut that skips parameter selection.
    """
    if k < 0:
        raise ParameterError("k must be nonnegative")
    if not 0 <= residual_bound < math.inf:
        raise ParameterError(f"residual bound R must be finite and >= 0, got {residual_bound}")
    if not 0 <= theta <= 1:
        raise ParameterError(f"theta must be in [0, 1], got {theta}")
    if mode == "strict":
        if any(v is not None for v in (groups, reps, epsilon, delta)):
            raise ParameterError("strict mode computes its parameters; overrides not allowed")
        if k < 1 and residual_bound == 0:
            raise ParameterError("strict mode needs a nonempty promise (k >= 1 or R > 0)")
    elif mode != "practical":
        raise ParameterError(f"unknown mode {mode!r}")
    require_count("groups (pi)", groups)
    require_count("reps (gamma)", reps)


def select_parameters(
    n: int,
    phi: float,
    k: int,
    residual_bound: float,
    theta: float,
    codebook: Codebook,
    mode: str = "practical",
    *,
    groups: int | None = None,
    reps: int | None = None,
    epsilon: float | None = None,
    delta: float | None = None,
) -> QueryParams:
    """Resolve query parameters.

    Strict mode derives everything from the guarantee constraints (and
    refuses overrides); practical mode takes what the caller gives,
    defaults ``groups`` to the guarantee bound and ``reps`` to 16, and
    warns when a guarantee constraint is violated.
    """
    if not 0 < phi <= 1:
        raise ParameterError(f"phi must be in (0, 1], got {phi}")
    check_settings(k, residual_bound, theta, mode, groups=groups, reps=reps,
                   epsilon=epsilon, delta=delta)
    lam = codebook.error_fraction

    if mode == "strict":
        pi = min_group_count(n, phi, k, residual_bound, lam, theta)
        if pi * pi > MAX_BUCKETS:
            raise FeasibilityError(
                f"binding constraint pi >= {pi}: pi^2 = {pi*pi} buckets exceeds {MAX_BUCKETS}"
            )
        eps, dlt = _guarantee_bounds(n, phi, pi, lam)
        width = accuracy_width(eps)
        if width > MAX_SKETCH_WIDTH:
            raise FeasibilityError(
                f"binding constraint epsilon <= phi*pi*sqrt(lambda)/(828n) = {eps:.3g}: "
                f"needs sketch width {width} > {MAX_SKETCH_WIDTH}"
            )
        gamma = math.ceil(10.0 * math.log2(n))
        return QueryParams(phi, pi, eps, dlt, gamma, "strict")

    pi = groups if groups is not None else min_group_count(n, phi, k, residual_bound, lam, theta)
    gamma = reps if reps is not None else 16
    eps = 0.0 if epsilon is None else epsilon
    dlt = 0.0 if delta is None else delta
    for msg in _constraint_violations(n, phi, k, residual_bound, pi, eps, dlt, lam):
        warnings.warn(f"guarantee constraint violated: {msg}", stacklevel=2)
    return QueryParams(phi, pi, eps, dlt, gamma, "practical")


@dataclass
class RepetitionDiagnostics:
    index: int
    decode_failures: int
    candidates: int
    elapsed_ms: float

    def __str__(self):
        return (
            f"rep={self.index} decode_failures={self.decode_failures} "
            f"candidates={self.candidates} elapsed_ms={self.elapsed_ms:.1f}"
        )


def _require_codebook(cb: Codebook, n: int):
    if cb.n < n:
        raise ValueError(f"codebook addresses {cb.n} indices, store has {n}")


def _masks(cart: CartesianTransform, cb: Codebook, n: int) -> np.ndarray:
    """Both sides' signed codeword bits in group order, (2, pi, block, codeword_len).

    [0, h, r, l] is bit l of the codeword of the r-th index in row-group
    h, times s1; [1] likewise for column groups and s2. Phantom indices
    carry zero bits.
    """
    _require_codebook(cb, n)
    bits = np.zeros((cart.n_padded, cb.codeword_len))
    bits[:n] = cb.bit_matrix()[:n]
    sides = ((cart.s1, cart.order1), (cart.s2, cart.order2))
    masks = np.stack([(bits * s[:, None])[order] for s, order in sides])
    return masks.reshape(2, cart.pi, cart.block, cb.codeword_len)


def _row_buffers(store: RowSketchStore, *rows):
    """Per sketch row t: t and a (r, k_t) view per r in ``rows``, k_t its stored cells.

    Each view reads one buffer, allocated once at the largest k_t.
    """
    sizes = np.diff(store.transform.offsets).tolist()
    flats = [np.empty(r * max(sizes)) for r in rows]
    for t, k in enumerate(sizes):
        yield t, [flat[: r * k].reshape(r, k) for flat, r in zip(flats, rows)]


def _group_products(store: RowSketchStore, cart: CartesianTransform, multiply=None):
    """The row-vs-group inner products of a standardized store, (2, n_padded, depth, pi).

    cross[0, h*block + r, t, g] = <r_t^(i), right-group g of sketch row t>
    for the r-th index i of row-group h; cross[1] reads each column
    group's indices against the left groups. Each sketch row's stored
    cells are read and grouped in reused buffers, and its products,
    through ``multiply`` (numpy kernel by default), go straight into group
    order.
    """
    multiply = np.matmul if multiply is None else multiply
    depth, n_pad = store.transform.depth, cart.n_padded
    # index-major, the layout the per-bit einsum reads fastest: depth-major is about 3x slower
    cross = np.empty((2, n_pad, depth, cart.pi))
    # each side lists its indices in its own group order, against the other's groups
    sides = ((cart.order1, cart.s2, cart.order2), (cart.order2, cart.s1, cart.order1))
    # per sketch row: its rows, one grouping's signed rows in group order, and the group sums
    for t, (rt, signed, group) in _row_buffers(store, n_pad, n_pad, cart.pi):
        store.sketch_row(t, rt[: store.n])
        rt[store.n :] = 0.0  # phantom rows
        for k, (own, s, order) in enumerate(sides):
            # order permutes the padded rows, so "clip" never clips; "raise" always buffers
            np.multiply(rt.take(order, axis=0, out=signed, mode="clip"), s[order, None], out=signed)
            signed.reshape(cart.pi, cart.block, rt.shape[1]).sum(axis=1, out=group)
            np.take(multiply(rt, group.T), own, axis=0, out=cross[k, :, t], mode="clip")
    return cross


def query_path(n: int, pi: int, gamma: int, depth: int, cells: int) -> str:
    """Which way a query answers: ``"scan"`` or ``"grouped"``.

    Singleton groups (pi >= n) scan. So does a grouped shape with
    n_pad <= 4 gamma pi, where the scan's n^2 K / 2 multiply-adds (each
    r_t r_t^T is a symmetric update, K being ``cells``) cost no more than
    the repetitions' 2 gamma n K pi, and 2 depth n_pad <= K. The second
    condition models no cost of either path; it keeps shapes with large n
    and few cells per row, such as the theta = 2/3 grid, grouped until the
    rule is fitted to measured costs.
    """
    n_pad = pi * -(-n // pi)
    scans = pi >= n or (n_pad <= 4 * gamma * pi and 2 * depth * n_pad <= cells)
    return "scan" if scans else "grouped"


def _scan_hits(stores: tuple, phi: float, multiply=None) -> np.ndarray:
    """Whether |median over sketch rows of G_t[i, j]| >= phi/2, (n, n) bool.

    G_t = diag(a) c_t c_t^T diag(a), one sketch row at a time: c_t c_t^T
    is formed through ``multiply`` from each store's centered cells
    (``centered_row``, a view of the stored cells with no copy), then
    scaled in place by the row scales a_i and column scales a_j; a
    difference subtracts the second store's G_t. The default kernel writes
    into one Gram buffer per store, reused across sketch rows; an injected
    one returns its own array. Depth d is odd, so the median reaches phi/2
    exactly when at least need = d//2 + 1 of the G_t do, and reaches
    -phi/2 likewise: counting hits needs no (d, n, n) stack. From the
    need-th Gram on, the count stops once no entry is undecided, that is,
    every entry has need hits or can no longer reach need in the sketch
    rows left: the decisions are those of all d Grams.
    """
    n, depth, half = stores[0].n, stores[0].transform.depth, phi / 2.0
    need = depth // 2 + 1
    high, low = (np.zeros((n, n), np.min_scalar_type(depth)) for _ in range(2))
    hit = np.empty((n, n), bool)
    bufs = [np.empty((n, n)) if multiply is None else None for _ in stores]

    def scaled_gram(store, t, buf):
        c = store.centered_row(t)
        gram = np.matmul(c, c.T, out=buf) if multiply is None else multiply(c, c.T)
        gram *= store.scale[:, None]
        gram *= store.scale
        return gram

    for t in range(depth):
        gram = scaled_gram(stores[0], t, bufs[0])
        for other, buf in zip(stores[1:], bufs[1:]):
            gram -= scaled_gram(other, t, buf)
        high += np.greater_equal(gram, half, out=hit)
        low += np.less_equal(gram, -half, out=hit)
        # need less the rows left: the fewest hits that can still make need
        if need - 1 <= t < depth - 1 and not _undecided(high, low, need - (depth - 1 - t), need):
            break
    return np.greater_equal(np.maximum(high, low, out=high), need, out=hit)


def _undecided(high: np.ndarray, low: np.ndarray, reach: int, need: int) -> bool:
    """Whether some entry's larger count, max(high, low), lies in [reach, need).

    Tests 64 rows at a time, so its temporaries stay small and it ends at
    the first block that holds such an entry.
    """
    for start in range(0, len(high), 64):
        best = np.maximum(high[start : start + 64], low[start : start + 64])
        if np.logical_and(best >= reach, best < need).any():
            return True
    return False


def _contract(w: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Masked group sums of one side, (bits, depth, pi, pi).

    ``w`` is the side's (pi, block, bits) masks and ``cross`` its
    (n_padded, depth, pi) products, from ``_masks`` and ``_group_products``.
    The column side contracts to [l, t, g, h], so callers swap its last
    two axes.
    Each entry sums over its block in index order, so a bit's values do
    not depend on which other bits are contracted with it.
    """
    return np.einsum("hil,hitg->lthg", w, cross.reshape(w.shape[:2] + cross.shape[1:]))


def _require_grouping(store: RowSketchStore, cart: CartesianTransform):
    if not store.standardized:
        raise SketchStateError("approximate requires a standardized store")
    if cart.n < store.n:
        raise ValueError(f"grouping covers {cart.n} indices, store has {store.n}")


def approximate(
    store: RowSketchStore, cart: CartesianTransform, cb: Codebook, *, multiply=None
) -> np.ndarray:
    """Estimate the masked grouped sketches, (2, codeword_len, pi, pi).

    Per codeword bit l and group pair (h, g), the row-masked estimate
    [0, l, h, g] is the median over sketch rows of

        sum_{p1(i)=h} bit_l(i) s1(i) <r_t^(i), right_t[g]>

    and [1, l, h, g] is the column-masked one, masking by bit_l(j).
    The products come from ``_group_products`` through ``multiply``.
    """
    _require_grouping(store, cart)
    masks, cross = _masks(cart, cb, store.n), _group_products(store, cart, multiply)
    mid = cross.shape[2] // 2  # odd depth
    out = np.empty((2, cb.codeword_len, cart.pi, cart.pi))
    for med, w, side in zip((out[0], out[1].swapaxes(1, 2)), masks, cross):
        for l in range(cb.codeword_len):  # one bit at a time bounds the buffer
            buf = _contract(w[:, :, l : l + 1], side)[0]
            buf.partition(mid, axis=0)
            med[l] = buf[mid]
    return out


def approximate_per_row(
    store: RowSketchStore, cart: CartesianTransform, cb: Codebook
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-median group products, (codeword_len, depth, pi, pi) per side.

    Test surface: exposes each sketch row's contribution before the
    median so the bilinearity identity can be checked against brute
    force. Materializes the full stack; small inputs only.
    """
    _require_grouping(store, cart)
    masks, cross = _masks(cart, cb, store.n), _group_products(store, cart)
    rows, cols = (_contract(w, side) for w, side in zip(masks, cross))
    return rows, cols.swapaxes(2, 3)


def _recovery_step_counted(
    buckets: np.ndarray,
    cart: CartesianTransform,
    cb: Codebook,
    phi: float,
    *,
    subtract_baseline: bool = True,
) -> tuple[list[tuple[int, int]], int]:
    nbits, pi = cb.codeword_len, cart.pi
    if buckets.shape != (2, nbits, pi, pi):
        raise ValueError("bucket array shape does not match grouping/codebook")
    base = masked_diag_stack(cart, cb) if subtract_baseline else 0.0
    bits = np.abs(buckets - base) >= phi / 2.0
    words = bits.view(np.uint8).reshape(2, nbits, pi * pi).swapaxes(1, 2).reshape(-1, nbits)
    dec = cb.decode_words(words)
    dec_i, dec_j = dec.reshape(2, pi * pi)
    ok = (dec_i >= 0) & (dec_j >= 0) & (dec_i < cart.n) & (dec_j < cart.n) & (dec_i != dec_j)
    return list(zip(dec_i[ok].tolist(), dec_j[ok].tolist())), int(np.sum(dec < 0))


def recovery_step(
    buckets: np.ndarray,
    cart: CartesianTransform,
    cb: Codebook,
    phi: float,
    *,
    subtract_baseline: bool = True,
) -> list[tuple[int, int]]:
    """Threshold each bucket side against the mask baseline and decode.

    Emits (i, j) for every group pair where both bit strings decode to
    distinct indices; decode failures and diagonal hits emit nothing.
    """
    return _recovery_step_counted(buckets, cart, cb, phi, subtract_baseline=subtract_baseline)[0]


def _vote(
    stores: tuple, cb: Codebook, params: QueryParams, seed: int, threads: int,
    diagnostics: list | None, counts: dict | None = None, verify: bool = False,
) -> set[tuple[int, int]]:
    """Answer a query on the first store, minus the second when one is given.

    A difference carries no unit diagonal, so it takes no baseline. A scan
    (``query_path``) answers once, with no repetition: the pairs i < j
    whose hits (``_scan_hits``) reach the median test survive, each
    ordering is counted ``params.reps`` times, as every singleton
    repetition would vote it, and one diagnostic (index 0) reports
    2 x survivors candidates and the scan's time. Otherwise repetition k
    groups by the k-th seed-stream value and builds each store's buckets
    (``approximate``); ordered pairs are counted separately, and majority
    survivors are canonicalized to i < j. Threads change only the
    schedule: results are merged in repetition order. With ``verify``,
    survivors are re-checked by ``verify_candidates``.
    """
    if not all(s.standardized for s in stores):
        raise SketchStateError("recovery requires standardized stores")
    n = stores[0].n
    _require_codebook(cb, n)
    require_count("threads", threads)
    transform = stores[0].transform
    if query_path(n, params.groups, params.reps, transform.depth, transform.cells) == "scan":
        t0 = time.perf_counter()
        rows, cols = np.nonzero(np.triu(_scan_hits(stores, params.phi), 1))
        pairs = list(zip(rows.tolist(), cols.tolist()))
        elapsed = (time.perf_counter() - t0) * 1000.0
        reports = [RepetitionDiagnostics(0, 0, 2 * len(pairs), elapsed)]
        votes = {pair: params.reps for i, j in pairs for pair in ((i, j), (j, i))}
        survivors = set(pairs)
    else:
        def run_rep(idx: int, rep_seed: int):
            t0 = time.perf_counter()
            cart = CartesianTransform(n, params.groups, rep_seed)
            buckets = approximate(stores[0], cart, cb)
            for other in stores[1:]:
                buckets -= approximate(other, cart, cb)
            pairs, failures = _recovery_step_counted(
                buckets, cart, cb, params.phi, subtract_baseline=len(stores) == 1
            )
            elapsed = (time.perf_counter() - t0) * 1000.0
            return pairs, RepetitionDiagnostics(idx, failures, len(pairs), elapsed)

        jobs = (range(params.reps), seed_stream(seed))
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(run_rep, *jobs))
        else:
            results = list(map(run_rep, *jobs))
        votes = Counter(pair for pairs, _ in results for pair in pairs)
        reports = [diag for _, diag in results]
        quota = math.ceil(params.reps / 2.0)
        survivors = {(min(i, j), max(i, j)) for (i, j), c in votes.items() if c >= quota}
    if diagnostics is not None:
        diagnostics.extend(reports)
    if counts is not None:
        counts.update(votes)
    if verify:
        checked = verify_candidates(stores[0], survivors, params.phi, *stores[1:])
        survivors = {(i, j) for i, j, _, accepted in checked if accepted}
    return survivors


def recover(
    store: RowSketchStore,
    params: QueryParams,
    cb: Codebook,
    seed: int,
    *,
    verify: bool = False,
    threads: int = 1,
    diagnostics: list | None = None,
    counts: dict | None = None,
) -> set[tuple[int, int]]:
    """Full query: one scan, or a vote over ``params.reps`` repetitions.

    Each grouped repetition draws a fresh grouping from the seed sequence;
    the sketch transform and codebook stay fixed. Survivors are
    (optionally) re-checked against the direct pairwise sketch estimate.
    ``counts``, when given, is filled with the ordered per-pair vote
    counts (``params.reps`` for each ordering of a scan's pair).
    """
    return _vote((store,), cb, params, seed, threads, diagnostics, counts, verify)


def verify_candidates(
    store: RowSketchStore, pairs, phi: float, other: RowSketchStore | None = None
) -> list[tuple[int, int, float, bool]]:
    """Direct estimate for each candidate; accept when |est| >= phi - 4 eps.

    With ``other``, the estimate is the change ``store.inner - other.inner``,
    and each of its two terms is within 4 eps, so the margin is 8 eps.
    Warns when the threshold is <= 0: it then accepts every candidate.
    """
    stores = (store,) if other is None else (store, other)
    if not all(s.standardized for s in stores):
        raise SketchStateError("verification requires a standardized store")
    eps = store.transform.epsilon
    margin = 4 * len(stores)
    threshold = phi - margin * eps
    if threshold <= 0:
        warnings.warn(
            f"verification is vacuous: phi={phi:g} and eps={eps:g} give phi - {margin}*eps <= 0, "
            "so every candidate passes",
            stacklevel=2,
        )
    out = []
    for i, j in sorted(pairs):
        if i == j:  # a correlation with itself is 1, and a change of it 0
            out.append((i, j, float(other is None), False))
            continue
        est = store.inner(i, j) - (0.0 if other is None else other.inner(i, j))
        out.append((i, j, est, bool(abs(est) >= threshold)))
    return out


def recover_diff(
    store_a: RowSketchStore,
    store_b: RowSketchStore,
    params: QueryParams,
    cb: Codebook,
    seed: int,
    *,
    verify: bool = False,
    threads: int = 1,
    diagnostics: list | None = None,
) -> set[tuple[int, int]]:
    """Recover pairs whose correlation changed by >= phi between snapshots.

    A scan (``query_path``) counts once, per sketch row t, the hits of
    the difference G_A,t - G_B,t of the two Grams, which both stores'
    shared transform makes an estimate of the change. Otherwise each
    repetition builds both stores' buckets under one shared grouping and
    recovers from their difference. The unit diagonals cancel in the
    difference, so no baseline is subtracted. Survivors are (optionally)
    re-checked against the change in the direct pairwise estimates,
    accepted when it is >= phi - 8 eps.
    """
    if store_a.transform != store_b.transform:
        raise ValueError("snapshot stores use different sketch transforms")
    if store_a.n != store_b.n:
        raise ValueError("snapshot stores have different row counts")
    return _vote((store_a, store_b), cb, params, seed, threads, diagnostics, verify=verify)
