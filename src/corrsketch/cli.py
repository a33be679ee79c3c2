"""Command-line surface.

    corrsketch gen     synthesize a planted stream + ground-truth sidecar
    corrsketch ingest  stream file -> sketch snapshot
    corrsketch query   snapshot -> recovered pairs (|corr| >= phi)
    corrsketch oracle  exact answers by densifying a (small) stream
    corrsketch bench   ingest+query timings over a size grid

Reports go to stdout in a diffable one-line-per-pair format; diagnostics
and generated seeds go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ecc, oracle, recovery
from .ams import RowSketchStore, SketchTransform, SnapshotFormatError
from .bench import parse_grid, run_bench
from .oracle import PlantedSpec, correlation, large_set, plant_dataset, residual_norm
from .stream import (
    StreamFormatError,
    StreamModel,
    iter_stream,
    matrix_to_updates,
    replay,
    write_stream_file,
)

ORACLE_CELL_GUARD = 10**8


def _resolve_seed(seed):
    """Explicit seed, or a fresh one that the caller must echo to output."""
    if seed is not None:
        return int(seed), False
    return int.from_bytes(os.urandom(8), "little"), True


def cmd_ingest(args) -> int:
    seed, generated = _resolve_seed(args.seed)
    with open(args.input, "r", encoding="utf-8") as fh:
        model, updates = iter_stream(fh)
        if args.model != model.variant:
            raise StreamFormatError(
                f"--model {args.model} but stream header says {model.variant}"
            )
        transform = SketchTransform.from_accuracy(model.p, args.epsilon, args.delta, seed)
        store = RowSketchStore(transform, model.n)
        for u in updates:
            store.apply(u)
    store.save(args.out)
    size = os.path.getsize(args.out)
    if generated:
        print(f"seed={seed}", file=sys.stderr)
    print(
        f"n={model.n} p={model.p} b={transform.width} d={transform.depth} "
        f"seed={seed} bytes={size}"
    )
    return 0


def cmd_query(args) -> int:
    seed, generated = _resolve_seed(args.seed)
    # refuse bad settings before paying for the snapshot load, and whatever phi is;
    # strict mode refuses a given --pi or --gamma by name
    overrides = dict(groups=args.pi, reps=args.gamma)
    recovery.check_settings(args.k, args.R, args.theta, args.mode, **overrides)
    recovery.require_count("threads", args.threads)
    recovery.require_phi(args.phi)
    store = RowSketchStore.load(args.snapshot)
    header = {"seed": seed, "phi": args.phi}
    rows = []
    # no correlation can exceed 1; above it the report is trivially empty
    if args.phi <= 1.0:
        store.standardize()
        cb = ecc.for_index_space(store.n)
        if args.mode == "practical":
            overrides.update(epsilon=store.transform.epsilon, delta=store.transform.delta)
        params = recovery.select_parameters(
            store.n, args.phi, args.k, args.R, args.theta, cb, args.mode, **overrides
        )
        if args.mode == "strict" and (
            store.transform.epsilon > params.epsilon or store.transform.delta > params.delta
        ):
            print(
                f"warning: snapshot sketch (epsilon={store.transform.epsilon:.3g}, "
                f"delta={store.transform.delta:.3g}) is coarser than strict requires "
                f"(epsilon={params.epsilon:.3g}, delta={params.delta:.3g})",
                file=sys.stderr,
            )
        diagnostics: list = []
        counts: dict = {}
        result = recovery.recover(
            store, params, cb, seed, threads=args.threads, diagnostics=diagnostics, counts=counts
        )
        for i, j, est, accepted in recovery.verify_candidates(store, result, args.phi):
            if accepted or not args.verify:
                rows.append((i, j, est, max(counts.get((i, j), 0), counts.get((j, i), 0))))
        rows.sort(key=lambda r: (-abs(r[2]), r[0], r[1]))
        for diag in diagnostics:
            print(diag, file=sys.stderr)
        if generated:
            print(f"seed={seed}", file=sys.stderr)
        header.update(pi=params.groups, gamma=params.reps, mode=params.mode)
    header["pairs"] = len(rows)
    if args.json:
        print(json.dumps({"type": "run", **header}))
    else:
        print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    for i, j, est, count in rows:
        if args.json:
            print(json.dumps({"type": "pair", "i": i, "j": j, "estimate": est, "count": count}))
        else:
            print(f"{i} {j} {est:.6f} {count}")
    return 0


def cmd_oracle(args) -> int:
    recovery.require_phi(args.phi)
    if args.k < 0:  # residual_norm refuses it too, but only after the pairs are printed
        raise recovery.ParameterError("k must be nonnegative")
    with open(args.input, "r", encoding="utf-8") as fh:
        model, updates = iter_stream(fh)  # the guard reads the header alone
        if model.n * model.p > ORACLE_CELL_GUARD:
            print(
                f"error: {model.n}x{model.p} matrix exceeds the oracle size guard "
                f"({ORACLE_CELL_GUARD} cells)",
                file=sys.stderr,
            )
            return 2
        m = replay(model, updates)
    c = correlation(m)
    pairs = {(min(i, j), max(i, j)) for i, j in large_set(c, args.phi)}
    ranked = sorted(pairs, key=lambda ij: (-abs(c.values[ij[0], ij[1]]), ij))
    for i, j in ranked:
        print(f"{i} {j} {c.values[i, j]:.6f}")
    print(f"residual_norm {residual_norm(c, args.k):.6f}")
    if args.dump_c:
        for row in c.values:
            print(" ".join(f"{v:.6f}" for v in row))
    return 0


def _parse_plant(text: str) -> tuple[int, int, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"--plant wants 'i,j,rho', got {text!r}")
    return int(parts[0]), int(parts[1]), float(parts[2])


def cmd_gen(args) -> int:
    seed, generated = _resolve_seed(args.seed)
    spec = PlantedSpec(args.n, args.p, list(args.plant or []), seed=seed)
    m, truth = plant_dataset(spec)
    model = StreamModel("rps", args.n, args.p)
    write_stream_file(args.out, model, matrix_to_updates(m, "rps"))
    truth_path = args.out + ".truth"
    with open(truth_path, "w", encoding="utf-8") as fh:
        fh.write(f"# planted ground truth n={args.n} p={args.p} seed={seed}\n")
        for i, j, realized in truth:
            fh.write(f"{i} {j} {realized!r}\n")
    if generated:
        print(f"seed={seed}", file=sys.stderr)
    print(f"wrote {args.out} and {truth_path} ({len(truth)} planted pairs, seed={seed})")
    return 0


def cmd_bench(args) -> int:
    grid = parse_grid(args.grid)
    result = run_bench(grid)
    lines = list(result.csv_lines())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"query_time_exponent {result.query_exponent:.3f}")
    print(f"sketch_bytes_exponent {result.bytes_exponent:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corrsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="stream file -> sketch snapshot")
    p.add_argument("--model", choices=("ts", "rps", "cps"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="recover pairs with |corr| >= phi from a snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--pi", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--mode", choices=("strict", "practical"), default="practical")
    p.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("oracle", help="exact large pairs and residual norm")
    p.add_argument("--input", required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dump-c", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a planted stream fixture")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--plant", type=_parse_plant, action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="ingest+query timing over a size grid")
    p.add_argument("--grid", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        StreamFormatError,
        SnapshotFormatError,
        recovery.ParameterError,
        oracle.GenerationError,
        ValueError,
        OSError,
        MemoryError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
