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

One voting loop (``_vote``) serves ``recover`` and ``recover_diff``:
repetitions with fresh groupings vote, and pairs kept by at least half
the repetitions survive. A difference subtracts the second store's
buckets and skips the baseline. With singleton groups (pi >= n), every
index pair has its own bucket, so a repetition is an exact scan of the
elementwise median over sketch rows of the Gram matrices r_t r_t^T (or
of the difference of two such medians) and every repetition emits the
same pairs, read off that median once per query without grouping or
decoding buckets (``_gram_pairs``). Otherwise one builder
(``_group_products``) reads the standardized rows one sketch row at a time
into a reused buffer, as the Gram scan does, so no query holds a copy of
the rows; per sketch row, two (n x b) @ (b x pi) matrix products, one per
side, give every row-vs-group inner product and go straight into group
order. One contraction (``_contract``) per codeword bit forms the masked
buckets from them (singleton buckets from depth-1 products built from the
median Gram). The multiply is injectable.
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


def _group_products(store: RowSketchStore, cart: CartesianTransform, cb: Codebook, multiply=None):
    """``_masks`` and the row-vs-group inner products of a standardized store.

    cross[0, h*block + r, t, g] = <r_t^(i), right-group g of sketch row t>
    for the r-th index i of row-group h; cross[1] reads each column
    group's indices against the left groups. Each sketch row is read and
    grouped in reused buffers, and its products, through ``multiply``
    (numpy kernel by default), go straight into group order.
    """
    masks = _masks(cart, cb, store.n)
    multiply = np.matmul if multiply is None else multiply
    depth, width = store.transform.depth, store.transform.width
    # index-major, the layout the per-bit einsum reads fastest: depth-major is about 3x slower
    cross = np.empty((2, cart.n_padded, depth, cart.pi))
    rt = np.zeros((cart.n_padded, width))  # phantom rows stay zero
    signed = np.empty_like(rt)  # one grouping's signed rows, in group order
    group = np.empty((cart.pi, width))
    # each side lists its indices in its own group order, against the other's groups
    sides = ((cart.order1, cart.s2, cart.order2), (cart.order2, cart.s1, cart.order1))
    for t in range(depth):
        store.sketch_row(t, rt[: store.n])
        for k, (own, s, order) in enumerate(sides):
            # order permutes the padded rows, so "clip" never clips; "raise" always buffers
            np.multiply(rt.take(order, axis=0, out=signed, mode="clip"), s[order, None], out=signed)
            signed.reshape(cart.pi, cart.block, width).sum(axis=1, out=group)
            np.take(multiply(rt, group.T), own, axis=0, out=cross[k, :, t], mode="clip")
    return masks, cross


def _median_gram(store: RowSketchStore, multiply=None) -> np.ndarray:
    """Elementwise median over sketch rows of r_t r_t^T, (n, n).

    The standardized rows of one sketch row at a time go through one
    reused buffer, so the rows are never held whole. Products go through
    ``multiply`` (numpy kernel by default). Depth is odd, so the median is
    the middle order statistic.
    """
    multiply = np.matmul if multiply is None else multiply
    rt = np.empty((store.n, store.transform.width))
    depth = store.transform.depth
    grams = np.stack([multiply(store.sketch_row(t, rt), rt.T) for t in range(depth)])
    mid = len(grams) // 2
    grams.partition(mid, axis=0)
    return grams[mid].copy()  # a view would keep the whole stack alive


def _contract(w: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Masked group sums of one side, (bits, depth, pi, pi).

    ``w`` is the side's (pi, block, bits) masks and ``cross`` its
    (n_padded, depth, pi) products from ``_group_products``. The column
    side contracts to [l, t, g, h], so callers swap its last two axes.
    Each entry sums over its block in index order, so a bit's values do
    not depend on which other bits are contracted with it.
    """
    return np.einsum("hil,hitg->lthg", w, cross.reshape(w.shape[:2] + cross.shape[1:]))


def _singleton_buckets(med: np.ndarray, cart: CartesianTransform, cb: Codebook):
    """Masked buckets for singleton groups (block == 1), from the median Gram.

    Right-group g is s2(j) r^(j) for j = order2[g], so the depth-1 cross
    product [i, g] is s2(j) med[i, j], and the left side likewise. The
    buckets equal the median of the per-row products exactly, because
    the weights are in {0, +1, -1}.
    """
    n = len(med)
    gram = np.pad(med, (0, cart.n_padded - n))  # phantom indices carry zeros
    o1, o2 = cart.order1, cart.order2
    cross = (gram[np.ix_(o1, o2)] * cart.s2[o2], gram[np.ix_(o2, o1)] * cart.s1[o1])
    rows, cols = (_contract(w, c[:, None])[:, 0] for w, c in zip(_masks(cart, cb, n), cross))
    return np.stack([rows, cols.swapaxes(1, 2)])


def _gram_pairs(gram: np.ndarray, cb: Codebook, phi: float) -> list[tuple[int, int]]:
    """Every singleton-group repetition's decoded pairs, read off the Gram.

    Under any singleton grouping each index pair (i, j) has one bucket,
    with masked values exactly +-bit_l(i) G[i, j] and +-bit_l(j) G[j, i].
    Its row side decodes to i when |G[i, j]| >= phi/2, else to what the
    all-zero word decodes to, and its column side reads G[j, i] alike;
    ``_decoded_pairs`` says which buckets emit, and phantom buckets emit
    nothing. The baseline changes nothing: both sides of a diagonal
    bucket read the same entry. The all-zero word is a codeword, so it
    decodes to the index whose codeword it is, if any: the codebook's
    table answers without decoding.
    """
    idx = np.arange(len(gram))
    zero = np.flatnonzero(~cb.bit_matrix().any(axis=1))
    silent = zero[0] if len(zero) else -1
    big = np.abs(gram) >= phi / 2.0
    dec_i, dec_j = np.where(big, idx[:, None], silent), np.where(big.T, idx, silent)
    return _decoded_pairs(dec_i, dec_j, len(gram))


def _decoded_pairs(dec_i: np.ndarray, dec_j: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The pairs decoded bucket sides emit, in bucket order.

    A bucket emits (i, j) when its row side decodes to i and its column
    side to j (a failed decode is -1), both lie in [n], and they differ.
    """
    ok = (dec_i >= 0) & (dec_j >= 0) & (dec_i < n) & (dec_j < n) & (dec_i != dec_j)
    return list(zip(dec_i[ok].tolist(), dec_j[ok].tolist()))


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
    """
    _require_grouping(store, cart)
    if cart.block == 1:
        return _singleton_buckets(_median_gram(store, multiply), cart, cb)
    masks, cross = _group_products(store, cart, cb, multiply)
    mid = store.transform.depth // 2  # odd depth: the median is the middle order statistic
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
    rows, cols = (_contract(w, side) for w, side in zip(*_group_products(store, cart, cb)))
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
    return _decoded_pairs(*dec.reshape(2, pi * pi), cart.n), int(np.sum(dec < 0))


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
    diagnostics: list | None, counts: dict | None = None,
) -> set[tuple[int, int]]:
    """Vote over ``params.reps`` repetitions; keep pairs with a majority.

    Recovers from the first store, minus the second when one is given
    (a difference carries no unit diagonal, so no baseline). Repetition
    k groups by the k-th seed-stream value; singleton groups emit the
    median Gram's pairs in every repetition without grouping. Ordered
    pairs are counted separately and majority survivors are
    canonicalized to i < j. Threads change only the schedule: results
    are merged in repetition order.
    """
    if not all(s.standardized for s in stores):
        raise SketchStateError("recovery requires standardized stores")
    n = stores[0].n
    _require_codebook(cb, n)
    require_count("threads", threads)
    draws = seed_stream(seed)
    rep_seeds = [next(draws) for _ in range(params.reps)]
    if params.groups >= n:
        gram = _median_gram(stores[0])
        for other in stores[1:]:
            gram -= _median_gram(other)
        scan = _gram_pairs(gram, cb, params.phi)
        step = lambda _: (scan, 0)
    else:
        def step(rep_seed: int):
            cart = CartesianTransform(n, params.groups, rep_seed)
            buckets = approximate(stores[0], cart, cb)
            for other in stores[1:]:
                buckets -= approximate(other, cart, cb)
            return _recovery_step_counted(
                buckets, cart, cb, params.phi, subtract_baseline=len(stores) == 1
            )

    def run_rep(idx: int):
        t0 = time.perf_counter()
        pairs, failures = step(rep_seeds[idx])
        elapsed = (time.perf_counter() - t0) * 1000.0
        return pairs, RepetitionDiagnostics(idx, failures, len(pairs), elapsed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_rep, range(params.reps)))
    else:
        results = map(run_rep, range(params.reps))
    votes: Counter = Counter()
    for pairs, diag in results:
        votes.update(pairs)
        if diagnostics is not None:
            diagnostics.append(diag)
    if counts is not None:
        counts.update(votes)
    quota = math.ceil(params.reps / 2.0)
    return {(min(i, j), max(i, j)) for (i, j), c in votes.items() if c >= quota}


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
    """Full query: vote over ``params.reps`` independent repetitions.

    Each repetition draws a fresh grouping from the seed sequence; the
    sketch transform and codebook stay fixed. Majority survivors are
    (optionally) re-checked against the direct pairwise sketch estimate.
    ``counts``, when given, is filled with the ordered per-pair vote
    counts.
    """
    result = _vote((store,), cb, params, seed, threads, diagnostics, counts)
    if verify:
        result = {
            (i, j) for i, j, _, accepted in verify_candidates(store, result, params.phi) if accepted
        }
    return result


def verify_candidates(
    store: RowSketchStore, pairs, phi: float
) -> list[tuple[int, int, float, bool]]:
    """Direct estimate for each candidate; accept when |est| >= phi - 4 eps.

    Warns when phi - 4 eps <= 0: that threshold accepts every candidate.
    """
    if not store.standardized:
        raise SketchStateError("verification requires a standardized store")
    eps = store.transform.epsilon
    threshold = phi - 4.0 * eps
    if threshold <= 0:
        warnings.warn(
            f"verification is vacuous: phi={phi:g} and eps={eps:g} give phi - 4*eps <= 0, "
            "so every candidate passes",
            stacklevel=2,
        )
    out = []
    for i, j in sorted(pairs):
        if i == j:
            out.append((i, j, 1.0, False))
            continue
        est = store.inner(i, j)
        out.append((i, j, est, bool(abs(est) >= threshold)))
    return out


def recover_diff(
    store_a: RowSketchStore,
    store_b: RowSketchStore,
    params: QueryParams,
    cb: Codebook,
    seed: int,
    *,
    threads: int = 1,
    diagnostics: list | None = None,
) -> set[tuple[int, int]]:
    """Recover pairs whose correlation changed by >= phi between snapshots.

    Runs the grouped approximation on both stores under a shared grouping
    per repetition and recovers from the bucket differences (with
    singleton groups, from the difference of the two median Grams). The
    unit diagonals cancel in the difference, so no baseline is subtracted.
    """
    if store_a.transform != store_b.transform:
        raise ValueError("snapshot stores use different sketch transforms")
    if store_a.n != store_b.n:
        raise ValueError("snapshot stores have different row counts")
    return _vote((store_a, store_b), cb, params, seed, threads, diagnostics)
