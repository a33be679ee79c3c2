"""Query pipeline: recover all pairs with |correlation| >= phi.

One repetition works on a standardized row-sketch store:

  1. draw a random balanced grouping of rows into pi groups (twice,
     independently, with random signs),
  2. form signed group sketches, once plain and once masked by each bit
     of the rows' index codewords, and estimate every group-pair inner
     product (``approximate``),
  3. per group pair, threshold |bucket - baseline| against phi/2 to read
     off one bit per codeword position, decode the two bit strings, and
     emit the decoded index pair (``recovery_step``).

Repetitions with fresh groupings vote; pairs kept by at least half the
repetitions survive. The heavy lifting in step 2 is batched. With
singleton groups (pi >= n), the elementwise median over sketch rows of
the Gram matrices r_t r_t^T is computed once per query and each
repetition only indexes it. Otherwise, per sketch row, one (n x b) @
(b x 2 pi) matrix product yields every row-vs-group inner product, and
the per-bit masked group sums reduce to contractions of that product.
The multiply is injectable so a different kernel can be swapped in.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ams import RowSketchStore, SketchStateError, seed_stream
from .cartesian import CartesianTransform, masked_diag_stack
from .ecc import Codebook

MAX_SKETCH_WIDTH = 10**8
MAX_BUCKETS = 10**8


class ParameterError(ValueError):
    pass


class FeasibilityError(ParameterError):
    """Strict-mode constraints cannot be met at this scale."""


@dataclass
class QueryParams:
    """Resolved query-time parameters.

    ``groups`` is the grouping count per partition, ``reps`` the number of
    voting repetitions. ``epsilon``/``delta`` describe the row sketches
    (0 means exact) and are used for constraint warnings.
    """

    phi: float
    k: int
    residual_bound: float
    groups: int
    epsilon: float
    delta: float
    reps: int
    theta: float
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


def _constraint_violations(n, phi, k, residual_bound, groups, epsilon, delta, lam):
    out = []
    if delta > lam / (54.0 * (2.0 + 12.0 * n / groups)):
        out.append("delta exceeds lambda/(54(2+12n/pi))")
    if epsilon > min(0.5, phi * groups * math.sqrt(lam) / (828.0 * n)):
        out.append("epsilon exceeds min(1/2, phi*pi*sqrt(lambda)/(828n))")
    need = max(18 * k, 18.0 * residual_bound / (phi * math.sqrt(lam)))
    if groups < need:
        out.append(f"pi below max(18k, 18R/(phi*sqrt(lambda))) = {need:.1f}")
    return out


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
    if k < 0:
        raise ParameterError("k must be nonnegative")
    if residual_bound < 0:
        raise ParameterError("residual bound must be nonnegative")
    if not 0 <= theta <= 1:
        raise ParameterError(f"theta must be in [0, 1], got {theta}")
    lam = codebook.error_fraction

    if mode == "strict":
        if any(v is not None for v in (groups, reps, epsilon, delta)):
            raise ParameterError("strict mode computes its parameters; overrides not allowed")
        if k < 1 and residual_bound == 0:
            raise ParameterError("strict mode needs a nonempty promise (k >= 1 or R > 0)")
        pi = min_group_count(n, phi, k, residual_bound, lam, theta)
        if pi * pi > MAX_BUCKETS:
            raise FeasibilityError(
                f"binding constraint pi >= {pi}: pi^2 = {pi*pi} buckets exceeds {MAX_BUCKETS}"
            )
        eps = min(0.5, phi * pi * math.sqrt(lam) / (828.0 * n))
        width = math.ceil(4.0 / (eps * eps))
        if width > MAX_SKETCH_WIDTH:
            raise FeasibilityError(
                f"binding constraint epsilon <= phi*pi*sqrt(lambda)/(828n) = {eps:.3g}: "
                f"needs sketch width {width} > {MAX_SKETCH_WIDTH}"
            )
        dlt = lam / (54.0 * (2.0 + 12.0 * n / pi))
        gamma = math.ceil(10.0 * math.log2(n))
        return QueryParams(phi, k, residual_bound, pi, eps, dlt, gamma, theta, "strict")

    if mode != "practical":
        raise ParameterError(f"unknown mode {mode!r}")
    for name, value in (("groups (pi)", groups), ("reps (gamma)", reps)):
        if value is not None and value < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")
    pi = groups if groups is not None else min_group_count(n, phi, k, residual_bound, lam, theta)
    gamma = reps if reps is not None else 16
    eps = 0.0 if epsilon is None else epsilon
    dlt = 0.0 if delta is None else delta
    for msg in _constraint_violations(n, phi, k, residual_bound, pi, eps, dlt, lam):
        warnings.warn(f"guarantee constraint violated: {msg}", stacklevel=2)
    return QueryParams(phi, k, residual_bound, pi, eps, dlt, gamma, theta, "practical")


@dataclass
class MaskedBucketSet:
    """Bucket matrices per codeword bit: row-masked and column-masked.

    ``row_masked[l]`` estimates the grouped sketch of the correlation
    matrix with rows masked by bit l of their index codeword;
    ``col_masked[l]`` masks columns. Both are (codeword_len, pi, pi).
    """

    row_masked: np.ndarray
    col_masked: np.ndarray


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


def _signed_masks(cart: CartesianTransform, cb: Codebook, n: int):
    """Per-index codeword bits times signs, padded and group-sorted.

    Returns (W1, W2) of shape (pi, block, codeword_len): W1[h, r, l] is
    bit l of the codeword of the r-th index in row-group h, times s1.
    """
    if cb.n < n:
        raise ValueError(f"codebook addresses {cb.n} indices, store has {n}")
    bits = np.zeros((cart.n_padded, cb.codeword_len))
    bits[:n] = cb.bit_matrix()[:n]
    w1 = (bits * cart.s1[:, None])[cart.order1].reshape(
        cart.pi, cart.block, cb.codeword_len
    )
    w2 = (bits * cart.s2[:, None])[cart.order2].reshape(
        cart.pi, cart.block, cb.codeword_len
    )
    return w1, w2


def _cross_products(store: RowSketchStore, cart: CartesianTransform, multiply=None):
    """Row-vs-group inner products, per sketch row.

    Returns (cross_right, cross_left), each (depth, n_padded, pi):
    cross_right[t][i, g] = <r_t^(i), right-group g of sketch row t> and
    cross_left[t][j, h] = <r_t^(j), left-group h>. Matrix products go
    through ``multiply`` (numpy kernel by default).
    """
    if multiply is None:
        multiply = np.matmul
    depth = store.transform.depth
    width = store.transform.width
    n, n_pad, pi = store.n, cart.n_padded, cart.pi
    cross_right = np.empty((depth, n_pad, pi))
    cross_left = np.empty((depth, n_pad, pi))
    buf = np.zeros((n_pad, width)) if n_pad != n else None
    s1o = cart.s1[cart.order1, None]
    s2o = cart.s2[cart.order2, None]
    for t in range(depth):
        rt = store.rows[t]
        if buf is not None:
            buf[:n] = rt
            rt = buf
        left = (rt[cart.order1] * s1o).reshape(pi, cart.block, width).sum(axis=1)
        right = (rt[cart.order2] * s2o).reshape(pi, cart.block, width).sum(axis=1)
        cross_right[t] = multiply(rt, right.T)
        cross_left[t] = multiply(rt, left.T)
    return cross_right, cross_left


def _median_gram(store: RowSketchStore, multiply=None) -> np.ndarray:
    """Elementwise median over sketch rows of r_t r_t^T, (n, n).

    Products go through ``multiply`` (numpy kernel by default). Depth is
    odd, so the median is the middle order statistic.
    """
    multiply = np.matmul if multiply is None else multiply
    grams = np.stack([multiply(rt, rt.T) for rt in store.rows])
    mid = len(grams) // 2
    grams.partition(mid, axis=0)
    return grams[mid].copy()  # a view would keep the whole stack alive


def _singleton_buckets(med: np.ndarray, cart: CartesianTransform, cb: Codebook):
    """Masked buckets for singleton groups (block == 1), by indexing.

    Bucket (h, g) holds the one index pair i = order1[h], j = order2[g]:
    row_masked[l][h, g] = bit_l(i) s1(i) s2(j) med[i, j] and col_masked
    uses bit_l(j) and med[j, i]. These equal the median of the per-row
    products exactly, because the weights are in {0, +1, -1}.
    """
    n = len(med)
    gram = np.zeros((cart.n_padded, cart.n_padded))
    gram[:n, :n] = med
    w1, w2 = _signed_masks(cart, cb, n)
    right = gram[np.ix_(cart.order1, cart.order2)] * cart.s2[cart.order2]
    left = gram[np.ix_(cart.order2, cart.order1)].T * cart.s1[cart.order1, None]
    return MaskedBucketSet(w1[:, 0, :].T[:, :, None] * right, w2[:, 0, :].T[:, None, :] * left)


def approximate(
    store: RowSketchStore,
    cart: CartesianTransform,
    cb: Codebook,
    *,
    multiply=None,
) -> MaskedBucketSet:
    """Estimate the masked grouped sketches from the row sketches.

    Per codeword bit l and group pair (h, g), the row-masked estimate is
    the median over sketch rows of

        sum_{p1(i)=h} bit_l(i) s1(i) <r_t^(i), right_t[g]>

    and symmetrically for the column-masked side.
    """
    if not store.standardized:
        raise SketchStateError("approximate requires a standardized store")
    if cart.n < store.n:
        raise ValueError(f"grouping covers {cart.n} indices, store has {store.n}")
    if cart.block == 1:
        return _singleton_buckets(_median_gram(store, multiply), cart, cb)
    cross_right, cross_left = _cross_products(store, cart, multiply)
    w1, w2 = _signed_masks(cart, cb, store.n)
    depth, pi = store.transform.depth, cart.pi
    nbits = cb.codeword_len
    cr_blocks = cross_right[:, cart.order1, :].reshape(depth, pi, cart.block, pi)
    cl_blocks = cross_left[:, cart.order2, :].reshape(depth, pi, cart.block, pi)
    row_masked = np.empty((nbits, pi, pi))
    col_masked = np.empty((nbits, pi, pi))
    mid = depth // 2  # odd depth: the median is the middle order statistic
    buf = np.empty((depth, pi, pi))
    for l in range(nbits):
        np.einsum("hi,thig->thg", w1[:, :, l], cr_blocks, out=buf)
        buf.partition(mid, axis=0)
        row_masked[l] = buf[mid]
        np.einsum("gj,tgjh->thg", w2[:, :, l], cl_blocks, out=buf)
        buf.partition(mid, axis=0)
        col_masked[l] = buf[mid]
    return MaskedBucketSet(row_masked, col_masked)


def approximate_per_row(
    store: RowSketchStore, cart: CartesianTransform, cb: Codebook
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-median group products, (codeword_len, depth, pi, pi) per side.

    Test surface: exposes each sketch row's contribution before the
    median so the bilinearity identity can be checked against brute
    force. Materializes the full stack; small inputs only.
    """
    if not store.standardized:
        raise SketchStateError("approximate requires a standardized store")
    cross_right, cross_left = _cross_products(store, cart)
    w1, w2 = _signed_masks(cart, cb, store.n)
    depth, pi = store.transform.depth, cart.pi
    cr_blocks = cross_right[:, cart.order1, :].reshape(depth, pi, cart.block, pi)
    cl_blocks = cross_left[:, cart.order2, :].reshape(depth, pi, cart.block, pi)
    rows_l = np.einsum("hil,thig->lthg", w1, cr_blocks)
    rows_r = np.einsum("gjl,tgjh->lthg", w2, cl_blocks)
    return rows_l, rows_r


def _recovery_step_counted(
    buckets: MaskedBucketSet,
    cart: CartesianTransform,
    cb: Codebook,
    phi: float,
    *,
    subtract_baseline: bool = True,
) -> tuple[list[tuple[int, int]], int]:
    nbits, pi, _ = buckets.row_masked.shape
    if nbits != cb.codeword_len or pi != cart.pi:
        raise ValueError("bucket set shape does not match grouping/codebook")
    if subtract_baseline:
        base = masked_diag_stack(cart, cb)
        bits_i = np.abs(buckets.row_masked - base) >= phi / 2.0
        bits_j = np.abs(buckets.col_masked - base) >= phi / 2.0
    else:
        bits_i = np.abs(buckets.row_masked) >= phi / 2.0
        bits_j = np.abs(buckets.col_masked) >= phi / 2.0
    words_i = bits_i.reshape(nbits, pi * pi).T.astype(np.uint8)
    words_j = bits_j.reshape(nbits, pi * pi).T.astype(np.uint8)
    dec_i = cb.decode_words(words_i)
    dec_j = cb.decode_words(words_j)
    failures = int(np.sum(dec_i < 0) + np.sum(dec_j < 0))
    ok = (dec_i >= 0) & (dec_j >= 0) & (dec_i != dec_j)
    ok &= (dec_i < cart.n) & (dec_j < cart.n)
    pairs = [(int(i), int(j)) for i, j in zip(dec_i[ok], dec_j[ok])]
    return pairs, failures


def recovery_step(
    buckets: MaskedBucketSet,
    cart: CartesianTransform,
    cb: Codebook,
    phi: float,
    *,
    subtract_baseline: bool = True,
) -> list[tuple[int, int]]:
    """Threshold each bucket against the mask baseline and decode.

    Emits (i, j) for every group pair where both bit strings decode to
    distinct indices; decode failures and diagonal hits emit nothing.
    """
    pairs, _ = _recovery_step_counted(
        buckets, cart, cb, phi, subtract_baseline=subtract_baseline
    )
    return pairs


def _vote(
    n: int, buckets_of, params: QueryParams, cb: Codebook, seed: int, threads: int,
    diagnostics: list | None, counts: dict | None = None, *, subtract_baseline: bool = True,
) -> set[tuple[int, int]]:
    """Vote over ``params.reps`` repetitions; keep pairs with a majority.

    Repetition k draws its grouping from the k-th seed-stream value,
    takes the masked buckets from ``buckets_of(cart)``, thresholds and
    decodes them. Ordered pairs are counted separately and majority
    survivors are canonicalized to i < j. Threads change only the
    schedule: results are merged in repetition order.
    """
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    draws = seed_stream(seed)
    rep_seeds = [next(draws) for _ in range(params.reps)]

    def run_rep(idx: int):
        t0 = time.perf_counter()
        cart = CartesianTransform(n, params.groups, rep_seeds[idx])
        pairs, failures = _recovery_step_counted(
            buckets_of(cart), cart, cb, params.phi, subtract_baseline=subtract_baseline
        )
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
    if not store.standardized:
        raise SketchStateError("recover requires a standardized store")
    if params.groups >= store.n:
        buckets_of = functools.partial(_singleton_buckets, _median_gram(store), cb=cb)
    else:
        buckets_of = functools.partial(approximate, store, cb=cb)
    result = _vote(store.n, buckets_of, params, cb, seed, threads, diagnostics, counts)
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
    per repetition and recovers from the bucket differences. The unit
    diagonals cancel in the difference, so no baseline is subtracted.
    """
    if store_a.transform != store_b.transform:
        raise ValueError("snapshot stores use different sketch transforms")
    if store_a.n != store_b.n:
        raise ValueError("snapshot stores have different row counts")
    if not (store_a.standardized and store_b.standardized):
        raise SketchStateError("recover_diff requires standardized stores")
    if params.groups >= store_a.n:
        gram = _median_gram(store_a) - _median_gram(store_b)
        buckets_of = functools.partial(_singleton_buckets, gram, cb=cb)
    else:
        def buckets_of(cart):
            a, b = approximate(store_a, cart, cb), approximate(store_b, cart, cb)
            return MaskedBucketSet(a.row_masked - b.row_masked, a.col_masked - b.col_masked)
    return _vote(
        store_a.n, buckets_of, params, cb, seed, threads, diagnostics, subtract_baseline=False
    )
