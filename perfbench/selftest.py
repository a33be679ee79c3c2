"""Fast self-test of the benchmark at tiny shapes (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that the correctness gate trips on a wrong answer, and that the
traced query returns exactly what ``recover`` returns for the same seed.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

TINY = {
    "block1": dict(kind="dense", n=16, p=64, epsilon=0.05, delta=0.2, phi=0.8, k=2, R=0.0,
                   pi=16, gamma=4, planted=1),
    "block4": dict(kind="dense", n=32, p=64, epsilon=0.05, delta=0.2, phi=0.8, k=2, R=0.5,
                   pi=8, gamma=4, planted=1),
    "sparse": dict(kind="sparse", n=16, p=4096, epsilon=0.05, delta=0.2, phi=0.8, k=4, R=0.0,
                   pi=4, gamma=5, planted=2, nnz=100),
}


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    run._limit_blas_threads()
    run._import_package()
    import numpy as np
    import workloads
    from spans import Tracer, traced_query

    units = run.load_metric_specs()
    run.SETUP_MIN_S = 0.0  # tiny set-ups need no minimum time to steady their median
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {w["name"] for w in json.load(fh)["workloads"]}
    check(listed <= set(workloads.WORKLOADS) == {"gram128", "grouped1024", "wide-stream"},
          "workload names")
    base = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        for name, shape in TINY.items():
            w = workloads.Workload(name, **shape)
            for trace in (0, 1):
                workdir = os.path.join(base, f"{name}-{trace}")
                os.makedirs(workdir)
                report = run.run_workload(w, 5, 0.0, bool(trace), workdir, log=lambda _m: None)
                metrics = report["metrics"]
                check(set(metrics) == set(units[trace]) and all(units[trace].values()),
                      f"{name} trace={trace}: every metric emitted with a unit")
                check(report["correct"] and report["failed"] == 0,
                      f"{name} trace={trace}: answer matches the planted set")

            # the traced replica against recover, on several query seeds
            seeds = workloads.Seeds.derive(5)
            snapshot = os.path.join(workdir, "snapshot.bin")
            workloads.ingest(w, os.path.join(workdir, "stream.txt"), snapshot, seeds.sketch)
            for op in range(3):
                qseed = seeds.query_seed(op)
                plain = workloads.query(w, snapshot, qseed)
                traced = traced_query(w, snapshot, qseed, Tracer())
                check(traced == plain, f"{name} seed {op}: traced pairs equal recover's")

        # the gate trips on a wrong expected set, directly and inside a run
        w = workloads.Workload("block1", **TINY["block1"])
        corr = [[1.0, 0.9, 0.1], [0.9, 1.0, 0.0], [0.1, 0.0, 1.0]]
        check(workloads.gate({(0, 1)}, {(0, 1)}, np.array(corr), 0.8) == [],
              "gate passes the right answer")
        check(workloads.gate({(0, 1)}, {(0, 2)}, np.array(corr), 0.8) != [],
              "gate trips on a wrong expected set")
        real_set_up = run.set_up

        def wrong_truth(*args):
            setup_s, truth, ingests = real_set_up(*args)
            wrong = next((0, j) for j in range(1, w.n) if (0, j) not in truth["planted"])
            return setup_s, {**truth, "planted": [wrong]}, ingests

        run.set_up = wrong_truth
        try:
            workdir = os.path.join(base, "gate")
            os.makedirs(workdir)
            report = run.run_workload(w, 5, 0.0, False, workdir, log=lambda _m: None)
        finally:
            run.set_up = real_set_up
        check(not report["correct"] and report["failed"] == report["attempted"],
              "a wrong answer fails the run")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
