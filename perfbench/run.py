"""corrsketch benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload gram128 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up (data generation, stream and snapshot files, page-cache
warm-up) runs several times and ``setup_s`` is its median. Operations
then run in a closed loop, one at a time, until ``--seconds`` have passed;
each ingest and query runs in a fresh process, and every operation's pair
set is checked against the planted truth. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` each query also runs a second time, traced
stage by stage, and the line carries the per-layer metrics. Metric names
and units come from BENCHMARK.json. Exit status is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 4  # set-up runs at least this many times (even: the median averages the middle two) ...
SETUP_MIN_S = 5.0  # ... and until this much time has passed, so short set-ups get a steadier median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads():
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = _nproc()
    for var in BLAS_VARS:
        want = os.environ.get(var, "")
        os.environ[var] = str(min(int(want), nproc) if want.isdigit() and int(want) > 0 else nproc)


def _import_package():
    """Import corrsketch from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "corrsketch", "__init__.py")):
        sys.exit(f"error: no corrsketch package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import corrsketch

    if not os.path.abspath(corrsketch.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: corrsketch imported from {corrsketch.__file__}, not {SRC}")


def _commit() -> str:
    """HEAD commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "query_threads": 1,
        "nproc": _nproc(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# -- work done in fresh processes -----------------------------------------
#
# Each ingest and each query runs in a new interpreter, as one
# ``corrsketch ingest`` or ``corrsketch query`` invocation would: every
# sample starts from the same cold process state, and each process's peak
# RSS belongs to that one operation.


def in_fresh_process(fn, *args):
    """Run ``fn(*args)`` in a new interpreter (perfbench/worker.py), wait, return its result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=pickle.dumps((fn.__name__, args)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{fn.__name__} exited with {proc.returncode}:\n"
                           + proc.stderr.decode(errors="replace")[-4000:])
    return pickle.loads(proc.stdout)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def generate_op(w, seed: int, stream: str) -> dict:
    from workloads import Seeds, generate

    t0 = time.perf_counter()
    planted, corr, updates = generate(w, Seeds.derive(seed).data, stream)
    seconds = time.perf_counter() - t0
    return {"planted": sorted(planted), "corr": corr, "updates": updates, "seconds": seconds}


def ingest_op(w, stream: str, snapshot: str, sketch_seed: int, trace: bool) -> dict:
    from spans import Tracer, ingest_layers
    from workloads import ingest

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    ingest(w, stream, snapshot, sketch_seed, tracer)
    out = {"seconds": time.perf_counter() - t0, "rss_mb": _peak_rss_mb()}
    if trace:
        out.update(layers=ingest_layers(tracer), spans=tracer.summary())
    return out


def query_op(w, snapshot: str, seed: int, trace: bool) -> dict:
    from spans import Tracer, query_layers, traced_query
    from workloads import canonical, query

    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    pairs = traced_query(w, snapshot, seed, tracer) if trace else query(w, snapshot, seed)
    out = {"pairs": canonical(pairs), "seconds": time.perf_counter() - t0, "rss_mb": _peak_rss_mb()}
    if trace:
        out.update(layers=query_layers(tracer), spans=tracer.summary())
    return out


# -- one run ----------------------------------------------------------------


def set_up(w, seed: int, workdir: str, trace: bool):
    """Generate the inputs (and, for dense workloads, the snapshot) repeatedly.

    Each repetition ends by reading the operations' input file once, so
    that the page cache is warm before measuring. A repetition's set-up
    time is the time spent generating, ingesting and reading, without the
    start-up of the processes that do it. Returns the median set-up time,
    the generator's truth and the set-up ingests.
    """
    from workloads import Seeds

    sketch_seed = Seeds.derive(seed).sketch
    stream = os.path.join(workdir, "stream.txt")
    snapshot = os.path.join(workdir, "snapshot.bin")
    times, truths, ingests = [], [], []
    start = time.perf_counter()
    while len(times) < SETUP_REPS or time.perf_counter() - start < SETUP_MIN_S:
        truths.append(in_fresh_process(generate_op, w, seed, stream))
        spent = truths[-1]["seconds"]
        if w.kind == "dense":
            ingests.append(in_fresh_process(ingest_op, w, stream, snapshot, sketch_seed, trace))
            spent += ingests[-1]["seconds"]
        t0 = time.perf_counter()
        with open(snapshot if w.kind == "dense" else stream, "rb") as fh:
            while fh.read(1 << 23):
                pass
        times.append(spent + time.perf_counter() - t0)
    first = truths[0]
    if any(t["planted"] != first["planted"] or not (t["corr"] == first["corr"]).all() for t in truths):
        raise RuntimeError("set-up is not deterministic for a fixed seed")
    return statistics.median(times), first, ingests


def _median_layers(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]} if samples else {}


def run_workload(w, seed: int, seconds: float, trace: bool, workdir: str, log=print) -> dict:
    """Set up, measure for ``seconds``, check every answer; returns the report."""
    from workloads import Seeds, gate

    seeds = Seeds.derive(seed)
    setup_s, truth_data, ingests = set_up(w, seed, workdir, trace)
    truth, corr = set(truth_data["planted"]), truth_data["corr"]
    stream = os.path.join(workdir, "stream.txt")
    snapshot = os.path.join(workdir, "snapshot.bin")

    query_s, traced_s, rss = [], [], []
    layer_samples, last_traced = [], {}
    attempted = failed = raised = hits = returned = 0
    deadline = time.perf_counter() + seconds
    while True:
        qseed = seeds.query_seed(attempted)
        attempted += 1
        try:
            if w.kind == "sparse":
                ingests.append(in_fresh_process(ingest_op, w, stream, snapshot, seeds.sketch, trace))
                rss.append(ingests[-1]["rss_mb"])
            plain = in_fresh_process(query_op, w, snapshot, qseed, False)
            query_s.append(plain["seconds"])
            rss.append(plain["rss_mb"])
            result = plain["pairs"]
            problems = gate(result, truth, corr, w.phi)
            if trace:
                traced = last_traced = in_fresh_process(query_op, w, snapshot, qseed, True)
                traced_s.append(traced["seconds"])
                layer_samples.append(traced["layers"])
                if traced["pairs"] != result:
                    problems.append(f"traced pairs {sorted(traced['pairs'])} != recover's {sorted(result)}")
        except Exception:  # an operation that raises is counted, reported and the loop goes on
            raised += 1
            failed += 1
            log("# op %d raised:\n# %s" % (attempted - 1, traceback.format_exc().replace("\n", "\n# ")))
        else:
            hits += len(result & truth)
            returned += len(result)
            if problems:
                failed += 1
                log(f"# op {attempted - 1} failed the gate: " + "; ".join(problems))
        if time.perf_counter() >= deadline:
            break

    report = {
        "workload": w.name,
        "planted": {f"{i},{j}": float(corr[i, j]) for i, j in sorted(truth)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        rate = [truth_data["updates"] / i["seconds"] for i in ingests]
        report["metrics"] = {
            # 0.0 only when every operation raised, which already fails the run
            "query_s": statistics.median(query_s) if query_s else 0.0,
            "ingest_updates_per_s": statistics.median(rate) if rate else 0.0,
            "recall": hits / (len(truth) * (attempted - raised)) if attempted > raised else 0.0,
            "precision": hits / returned if returned else 0.0,
            "success_rate": (attempted - raised) / attempted,
            "peak_rss_mb": max(rss) if rss else 0.0,
            "snapshot_mb": os.path.getsize(snapshot) / (1024.0 * 1024.0),
            "setup_s": setup_s,
        }
        report["samples"] = {"query_s": query_s, "ingest_updates_per_s": rate}
    else:
        ingest_layers = [i["layers"] for i in ingests if "layers" in i]
        layers = {**_median_layers(ingest_layers), **_median_layers(layer_samples)}
        if query_s and traced_s:
            layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(query_s) - 1.0
        report["metrics"] = layers
        report["samples"] = {"query_s": query_s, "traced_query_s": traced_s}
        report["spans"] = {}  # span summary of the last traced ingest and query
        for op in (ingests[-1] if ingests else {}, last_traced):
            report["spans"].update(op.get("spans", {}))
    return report


def _finish(report: dict, units: dict) -> int:
    """Print the human-readable report and the result line; return the exit code."""
    metrics = report["metrics"]
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"# metric set mismatch: missing {missing}, unexpected {extra}")
        report["correct"] = False
    samples = report["samples"]
    for name in units:
        if name in metrics:
            count = f"  (median of {len(samples[name])})" if name in samples else ""
            print(f"# {report['workload']:<12} {name:<30} {metrics[name]:>16.6g} {units[name]}{count}")
    for name, span in report.get("spans", {}).items():
        print(f"# span {name:<24} calls {span['calls']:>8}  total {span['total_s']:10.6f} s"
              f"  self {span['self_s']:10.6f} s")
    print("# samples " + json.dumps(samples))
    print("# planted " + json.dumps(report["planted"]))
    result = {
        "correct": bool(report["correct"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(f"# {name}: exit {proc.returncode}", flush=True)
        status = status or proc.returncode or (0 if lines else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    _import_package()
    from workloads import WORKLOADS

    # a terminated run still removes its files and waits for its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    units = load_metric_specs()[args.trace]
    print("# env " + json.dumps(environment()), flush=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    return _finish(report, units)


if __name__ == "__main__":
    sys.exit(main())
