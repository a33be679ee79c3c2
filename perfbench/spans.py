"""Spans recorded from outside the package, and the traced query.

The traced query rebuilds ``recover``'s repetition loop from its public
pieces (``seed_stream``, ``CartesianTransform``, ``approximate``,
``recovery_step``, the majority vote, ``verify_candidates``) so that each
stage can be timed on its own. Two functions that ``recovery_step`` calls
internally, ``Codebook.decode_words`` and ``recovery.masked_diag_stack``,
are wrapped with timers for the duration of one traced query only.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np

from corrsketch import ecc, recovery
from corrsketch.ams import RowSketchStore, seed_stream
from corrsketch.cartesian import CartesianTransform

from workloads import Workload, query_params

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory spans of one operation: name, parent, start and end.

    ``add`` records an aggregated span for a hot loop (its total time and
    record count under the current parent), where one span per record
    would cost more than the work it measures.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "count": 1}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float, count: int):
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": 0.0, "end": seconds, "count": count})

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus its children's. Spans of one
        tracer never overlap their siblings (a single thread records them),
        so this equals the part of the span that no child covers.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = {}
        for s in self.spans:
            d = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s["end"] - s["start"]
            d["calls"] += s["count"]
            d["total_s"] += dur
            d["self_s"] += dur - child[s["id"]]
        return out


def _unique_rows(words: np.ndarray) -> int:
    packed = np.ascontiguousarray(np.packbits(words, axis=1))
    return int(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))).size)


@contextmanager
def layer_timers(tracer: Tracer):
    """Wrap the decoder and the baseline with timers; restore them on exit."""
    decode = ecc.Codebook.decode_words
    baseline = recovery.masked_diag_stack

    def timed_decode(self, words):
        with tracer.span("ecc.decode"):
            out = decode(self, words)
        with tracer.span("trace.bookkeeping"):  # kept out of the caller's self time
            tracer.counters["ecc.words"] += len(words)
            tracer.counters["ecc.unique_words"] += _unique_rows(np.asarray(words, dtype=np.uint8))
            tracer.counters["ecc.decode_failures"] += int(np.sum(out < 0))
        return out

    def timed_baseline(cart, cb):
        with tracer.span("cartesian.baseline"):
            return baseline(cart, cb)

    ecc.Codebook.decode_words = timed_decode
    recovery.masked_diag_stack = timed_baseline
    try:
        yield
    finally:
        ecc.Codebook.decode_words = decode
        recovery.masked_diag_stack = baseline


def traced_query(w: Workload, snapshot_path: str, seed: int, tracer: Tracer):
    """The same query as ``workloads.query``, stage by stage. Returns the pair set."""
    with tracer.span("query"):
        tracemalloc.start()
        try:
            with tracer.span("ams.load"):
                store = RowSketchStore.load(snapshot_path)
            tracer.counters["ams.load_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with tracer.span("ams.standardize"):
            qstore = store if store.standardized else store.standardized_copy()
        with tracer.span("ecc.codebook"):
            cb = ecc.for_index_space(store.n)
        params = query_params(w, store, cb)
        with layer_timers(tracer):
            result = _traced_recover(qstore, params, cb, seed, tracer)
    return result


def _traced_recover(store, params, cb, seed, tracer: Tracer):
    def timed_matmul(a, b):
        with tracer.span("recovery.matmul"):
            out = np.matmul(a, b)
        tracer.counters["recovery.matmul_flop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        return out

    draws = seed_stream(seed)
    rep_seeds = [next(draws) for _ in range(params.reps)]
    votes: Counter = Counter()
    for rep_seed in rep_seeds:
        with tracer.span("cartesian.transform"):
            cart = CartesianTransform(store.n, params.groups, rep_seed)
        tracemalloc.start()
        try:
            with tracer.span("recovery.approximate"):
                buckets = recovery.approximate(store, cart, cb, multiply=timed_matmul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tracer.counters["recovery.approximate_peak_bytes"] = max(
            tracer.counters["recovery.approximate_peak_bytes"], peak
        )
        with tracer.span("recovery.step"):
            pairs = recovery.recovery_step(buckets, cart, cb, params.phi)
        tracer.counters["recovery.candidates"] += len(pairs)
        votes.update(pairs)
    quota = math.ceil(params.reps / 2.0)
    survivors = {(min(i, j), max(i, j)) for (i, j), c in votes.items() if c >= quota}
    tracer.counters["recovery.survivors"] += len(survivors)
    with tracer.span("recovery.verify"):
        checked = recovery.verify_candidates(store, survivors, params.phi)
    accepted = {(i, j) for i, j, _, ok in checked if ok}
    tracer.counters["recovery.verify_accepts"] += len(accepted)
    tracer.counters["recovery.verify_rejects"] += len(checked) - len(accepted)
    return accepted


def query_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced query, in seconds, MB and counts."""
    s = tracer.summary()
    c = tracer.counters

    def tot(name):
        return s.get(name, {}).get("total_s", 0.0)

    def own(name):
        return s.get(name, {}).get("self_s", 0.0)

    words = c["ecc.words"]
    return {
        "ams.load_s": tot("ams.load"),
        "ams.load_peak_mb": c["ams.load_peak_bytes"] / MB,
        "ams.standardize_s": tot("ams.standardize"),
        "ecc.codebook_s": tot("ecc.codebook"),
        "ecc.decode_s": tot("ecc.decode"),
        "ecc.words": words,
        "ecc.unique_words": c["ecc.unique_words"],
        "ecc.unique_ratio": c["ecc.unique_words"] / words if words else 0.0,
        "ecc.decode_failures": c["ecc.decode_failures"],
        "cartesian.transform_s": tot("cartesian.transform"),
        "cartesian.baseline_s": tot("cartesian.baseline"),
        "recovery.approximate_s": tot("recovery.approximate"),
        "recovery.matmul_s": tot("recovery.matmul"),
        "recovery.matmul_gflop": c["recovery.matmul_flop"] / 1e9,
        "recovery.contract_s": own("recovery.approximate"),
        "recovery.approximate_peak_mb": c["recovery.approximate_peak_bytes"] / MB,
        "recovery.step_s": tot("recovery.step"),
        "recovery.threshold_s": own("recovery.step"),
        "recovery.candidates": c["recovery.candidates"],
        "recovery.survivors": c["recovery.survivors"],
        "recovery.verify_s": tot("recovery.verify"),
        "recovery.verify_accepts": c["recovery.verify_accepts"],
        "recovery.verify_rejects": c["recovery.verify_rejects"],
    }


def ingest_layers(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced ingest."""
    s = tracer.summary()

    def tot(name):
        return s.get(name, {}).get("total_s", 0.0)

    return {
        "stream.parse_s": tot("stream.parse"),
        "stream.records": s.get("stream.parse", {}).get("calls", 0),
        "ams.transform_s": tot("ams.transform"),
        "ams.apply_s": tot("ams.apply"),
        "ams.updates": s.get("ams.apply", {}).get("calls", 0),
        "ams.finalize_s": tot("ams.finalize"),
        "ams.save_s": tot("ams.save"),
    }
