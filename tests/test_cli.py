import json
import re
import time
import warnings

import numpy as np
import pytest

from corrsketch import ams, bench, cli, oracle, recovery
from corrsketch.ams import RowSketchStore
from corrsketch.bench import BenchGrid, parse_grid, run_point
from corrsketch.stream import DenseMatrix, StreamModel, matrix_to_updates, write_stream_file


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def planted_stream(tmp_path):
    path = tmp_path / "planted.stream"
    spec = oracle.PlantedSpec(24, 512, [(2, 9, 0.9)], seed=6)
    m, truth = oracle.plant_dataset(spec)
    write_stream_file(path, StreamModel("rps", 24, 512), matrix_to_updates(m, "rps"))
    return path, truth


def test_ingest_snapshot_roundtrip(tmp_path, capsys, rng):
    values = rng.standard_normal((8, 8))
    stream = tmp_path / "m.stream"
    write_stream_file(stream, StreamModel("rps", 8, 8), matrix_to_updates(DenseMatrix(values), "rps"))
    snap = tmp_path / "m.snap"
    code, out, _ = run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.2", "--delta", "0.2", "--seed", "5",
    )
    assert code == 0
    assert "n=8 p=8" in out and "bytes=" in out
    store = RowSketchStore.load(snap)
    again = tmp_path / "again.snap"
    store.save(again)
    assert snap.read_bytes() == again.read_bytes()


def test_ingest_ts_and_rps_agree(tmp_path, capsys, rng):
    from conftest import integer_matrix

    values = integer_matrix(rng, 6, 8)
    m = DenseMatrix(values)
    a, b = tmp_path / "a.stream", tmp_path / "b.stream"
    write_stream_file(a, StreamModel("rps", 6, 8), matrix_to_updates(m, "rps"))
    shuffled = matrix_to_updates(m, "ts")
    np.random.default_rng(0).shuffle(shuffled)
    write_stream_file(b, StreamModel("ts", 6, 8), shuffled)
    snap_a, snap_b = tmp_path / "a.snap", tmp_path / "b.snap"
    for model, stream, snap in (("rps", a, snap_a), ("ts", b, snap_b)):
        code, _, _ = run_cli(
            capsys, "ingest", "--model", model, "--input", str(stream), "--out", str(snap),
            "--epsilon", "0.3", "--delta", "0.3", "--seed", "11",
        )
        assert code == 0
    assert snap_a.read_bytes() == snap_b.read_bytes()


def test_ingest_empty_ts_stream(tmp_path, capsys):
    stream = tmp_path / "empty.stream"
    stream.write_text("ts 4 4\n")
    snap = tmp_path / "empty.snap"
    code, out, _ = run_cli(
        capsys, "ingest", "--model", "ts", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 0
    store = RowSketchStore.load(snap)
    assert not np.any(store.rows) and not np.any(store.totals)


def test_ingest_model_mismatch_and_parse_error(tmp_path, capsys):
    stream = tmp_path / "m.stream"
    stream.write_text("ts 4 4\n1.0 0 0\n")
    code, _, err = run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out",
        str(tmp_path / "x.snap"), "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 2 and "header says ts" in err
    bad = tmp_path / "bad.stream"
    bad.write_text("ts 4 4\n1.0 9 9\n")
    code, _, err = run_cli(
        capsys, "ingest", "--model", "ts", "--input", str(bad), "--out",
        str(tmp_path / "y.snap"), "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 2 and "line 2" in err


def test_ingest_checks_model_before_building_store(tmp_path, capsys, monkeypatch):
    # a mismatched --model is refused before the transform tables or the store are built
    def refuse(*args, **kwargs):
        raise AssertionError("store built before the model check")

    monkeypatch.setattr(RowSketchStore, "__init__", refuse)
    stream = tmp_path / "m.stream"
    stream.write_text("ts 4 4\n1.0 0 0\n")
    code, _, err = run_cli(
        capsys, "ingest", "--model", "cps", "--input", str(stream), "--out",
        str(tmp_path / "x.snap"), "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 2 and "--model cps but stream header says ts" in err
    assert not (tmp_path / "x.snap").exists()


def test_ingest_across_flush_boundary(tmp_path, capsys, monkeypatch, rng):
    # a 4-update buffer flushes several times in a 30-record stream: the bytes equal
    # an ingest that flushes once, and a bad record after a flush is still
    # refused by line number with no snapshot written
    values = rng.integers(-8, 9, size=(4, 8)).tolist()
    lines = [f"{values[i][j] / 3!r} {i} {j}" for i in range(4) for j in range(8)]
    good, bad = tmp_path / "good.stream", tmp_path / "bad.stream"
    good.write_text("ts 4 8\n" + "\n".join(lines[::-1]) + "\n")
    bad.write_text("ts 4 8\n" + "\n".join(lines[:10] + ["1.0 9 9"] + lines[10:]) + "\n")
    args = ("--model", "ts", "--epsilon", "0.5", "--delta", "0.5", "--seed", "1")
    code, _, _ = run_cli(capsys, "ingest", "--input", str(good), "--out", str(tmp_path / "a.snap"), *args)
    assert code == 0
    monkeypatch.setattr(ams, "_CHUNK", 4)
    code, _, _ = run_cli(capsys, "ingest", "--input", str(good), "--out", str(tmp_path / "b.snap"), *args)
    assert code == 0
    assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()
    code, _, err = run_cli(capsys, "ingest", "--input", str(bad), "--out", str(tmp_path / "c.snap"), *args)
    assert code == 2 and "line 12: index (9, 9) out of range" in err
    assert not (tmp_path / "c.snap").exists()


def test_gen_ingest_query_oracle_pipeline(tmp_path, capsys):
    stream = tmp_path / "gen.stream"
    code, out, _ = run_cli(
        capsys, "gen", "--n", "24", "--p", "512", "--plant", "2,9,0.9",
        "--seed", "15", "--out", str(stream),
    )
    assert code == 0 and "1 planted pairs" in out
    truth_lines = (tmp_path / "gen.stream.truth").read_text().splitlines()
    assert truth_lines[1].startswith("2 9 ")

    snap = tmp_path / "gen.snap"
    code, _, _ = run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.05", "--delta", "0.1", "--seed", "3",
    )
    assert code == 0

    code, out, _ = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "0.7", "--k", "2", "--R", "1.0",
        "--pi", "12", "--gamma", "6", "--seed", "21",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 1
    i, j, est, count = rows[0].split()
    assert (i, j) == ("2", "9")
    assert abs(float(est) - 0.9) < 0.1
    assert 3 <= int(count) <= 6

    code, out, _ = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.7", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("2 9 0.9")
    assert lines[-1].startswith("residual_norm ")


def test_ingest_refuses_overflowing_sum(tmp_path, capsys):
    # row 0's sums reach 2e308, past float64's range: refused before a snapshot is written
    stream = tmp_path / "over.stream"
    stream.write_text("ts 2 4\n1e308 0 0\n1e308 0 1\n")
    snap = tmp_path / "over.snap"
    code, out, err = run_cli(
        capsys, "ingest", "--model", "ts", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "overflows float64" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["over.stream"]


# row 0's values fit, but its squares pass float64's range
BIG_ROW_STREAM = "ts 3 4\n1e200 0 0\n2e200 0 1\n1 1 1\n2 1 2\n3 2 3\n1 2 0\n"


def test_query_refuses_a_row_whose_squared_norm_overflows(tmp_path, capsys):
    stream, snap = tmp_path / "big.stream", tmp_path / "big.snap"
    stream.write_text(BIG_ROW_STREAM)
    code, _, _ = run_cli(
        capsys, "ingest", "--model", "ts", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.5", "--delta", "0.5", "--seed", "1",
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "0.5", "--k", "1", "--R", "0",
        "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert "error: row 0's squared sketch norm overflows float64" in err


@pytest.mark.parametrize("text, what", [
    ("ts 3 4\n1e308 0 0\n1e308 0 0\n", "a matrix cell sum"),
    (BIG_ROW_STREAM, "a sample covariance"),
], ids=["cell-sum", "covariance"])
def test_oracle_refuses_overflow(tmp_path, capsys, text, what):
    stream = tmp_path / "over.stream"
    stream.write_text(text)
    code, out, err = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.5", "--k", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {what} overflows float64\n"


def test_query_reproducible_and_json(tmp_path, capsys, planted_stream):
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.05", "--delta", "0.1", "--seed", "8",
    )
    args = (
        "query", "--snapshot", str(snap), "--phi", "0.7", "--k", "2", "--R", "1.0",
        "--pi", "12", "--gamma", "6", "--seed", "33", "--json",
    )
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # bit-reproducible report
    records = [json.loads(l) for l in out1.splitlines()]
    assert records[0]["type"] == "run" and records[0]["seed"] == 33
    pairs = [r for r in records if r["type"] == "pair"]
    assert pairs and pairs[0]["i"] == 2 and pairs[0]["j"] == 9
    assert "rep=0" in err1  # per-repetition diagnostics on stderr


@pytest.mark.parametrize(
    "pi,gamma,path", [(24, 3, "scan"), (12, 3, "scan"), (4, 1, "grouped"), (2, 2, "grouped")]
)
def test_query_header_names_the_path(tmp_path, capsys, planted_stream, pi, gamma, path):
    # the header line and the JSON run record name the path recovery.query_path picks
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.05", "--delta", "0.1", "--seed", "8",
    )
    t = RowSketchStore.load(snap).transform
    assert recovery.query_path(24, pi, gamma, t.depth, t.cells) == path
    args = (
        "query", "--snapshot", str(snap), "--phi", "0.7", "--k", "2", "--R", "1.0",
        "--pi", str(pi), "--gamma", str(gamma), "--seed", "33",
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith(f"# seed=33 phi=0.7 pi={pi} gamma={gamma} mode=practical path={path} ")
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {
        "type": "run", "seed": 33, "phi": 0.7, "pi": pi, "gamma": gamma, "mode": "practical",
        "path": path, "pairs": int(header.rsplit("pairs=", 1)[1]),
    }


def test_query_verified_pairs_only(tmp_path, capsys, planted_stream):
    # every reported pair must pass the query's own verification filter
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.05", "--delta", "0.1", "--seed", "8",
    )
    code, out, _ = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "0.75", "--k", "2", "--R", "1.0",
        "--pi", "12", "--gamma", "8", "--seed", "90",
    )
    assert code == 0
    store = RowSketchStore.load(snap).standardized_copy()
    threshold = 0.75 - 4 * store.transform.epsilon
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        i, j, est, _ = line.split()
        assert abs(store.inner(int(i), int(j))) >= threshold


def test_query_above_one_threshold_is_empty(tmp_path, capsys, planted_stream):
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.1", "--delta", "0.2", "--seed", "8",
    )
    for phi in ("1.01", "inf"):
        code, out, _ = run_cli(
            capsys, "query", "--snapshot", str(snap), "--phi", phi, "--k", "2", "--R", "1.0",
            "--pi", "8", "--gamma", "4", "--seed", "1",
        )
        assert code == 0
        assert [l for l in out.splitlines() if not l.startswith("#")] == []


def test_query_verifies_once(tmp_path, capsys, planted_stream):
    # eps = 0.5 makes verification vacuous at phi = 0.8: the warning names it
    # once per query, and --verify then keeps every survivor
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.5", "--delta", "0.3", "--seed", "2",
    )
    outs = []
    for flag in ("--verify", "--no-verify"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                capsys, "query", "--snapshot", str(snap), "--phi", "0.8", "--k", "1",
                "--R", "0", "--pi", "24", "--gamma", "3", "--seed", "3", flag,
            )
        assert code == 0
        assert sum("verification is vacuous" in str(w.message) for w in caught) == 1
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1].startswith("2 9 ")


def test_query_malformed_snapshot(tmp_path, capsys):
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"garbage")
    code, _, err = run_cli(
        capsys, "query", "--snapshot", str(bad), "--phi", "0.5", "--k", "1", "--R", "0.0",
        "--seed", "1",
    )
    assert code == 2 and "error" in err


def test_query_strict_mode_infeasible(tmp_path, capsys, planted_stream):
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.1", "--delta", "0.2", "--seed", "8",
    )
    code, _, err = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "0.2", "--k", "64", "--R", "50.0",
        "--mode", "strict", "--seed", "1",
    )
    assert code == 2 and "binding constraint" in err


def test_query_strict_mode_refuses_overrides(tmp_path, capsys, planted_stream):
    # strict mode computes pi and gamma, so a given one is refused rather than dropped
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.1", "--delta", "0.2", "--seed", "8",
    )
    base = ("query", "--snapshot", str(snap), "--phi", "0.9", "--k", "1", "--R", "0",
            "--mode", "strict", "--seed", "1")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and "mode=strict" in out
    for flags in (("--pi", "5"), ("--gamma", "3"), ("--pi", "5", "--gamma", "3")):
        code, out, err = run_cli(capsys, *base, *flags)
        assert code == 2 and out == ""
        assert "strict mode computes its parameters; overrides not allowed" in err


@pytest.mark.parametrize(
    "flags,message",
    [(("--mode", "strict", "--pi", "5", "--gamma", "3"),
      "strict mode computes its parameters; overrides not allowed"),
     (("--R", "nan"), "residual bound R must be finite and >= 0, got nan"),
     (("--k", "-1"), "k must be nonnegative"),
     (("--theta", "2"), "theta must be in [0, 1], got 2.0")],
)
def test_query_above_one_still_checks_settings(tmp_path, capsys, planted_stream, flags, message):
    # phi > 1 makes the report empty, but the other settings are checked all the same
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.2", "--delta", "0.2", "--seed", "8",
    )
    code, out, err = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "1.5", "--k", "1", "--R", "0",
        "--seed", "1", *flags,
    )
    assert code == 2 and out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize(
    "flags,message",
    [(("--phi", "nan"), "phi must be in (0, 1], got nan"),
     (("--R", "inf"), "residual bound R must be finite and >= 0, got inf"),
     (("--R", "nan"), "residual bound R must be finite and >= 0, got nan"),
     (("--R", "nan", "--pi", "8"), "residual bound R must be finite and >= 0, got nan")],
)
def test_query_refuses_non_finite_phi_and_r(tmp_path, capsys, planted_stream, flags, message):
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.2", "--delta", "0.2", "--seed", "8",
    )
    code, out, err = run_cli(
        capsys, "query", "--snapshot", str(snap), "--phi", "0.7", "--k", "1", "--R", "0",
        "--seed", "1", *flags,
    )
    assert code == 2 and out == ""
    assert f"error: {message}" in err


def test_oracle_identical_rows_and_k0(tmp_path, capsys, rng):
    values = rng.standard_normal((4, 32))
    values[3] = values[1]
    stream = tmp_path / "ident.stream"
    write_stream_file(stream, StreamModel("rps", 4, 32), matrix_to_updates(DenseMatrix(values), "rps"))
    code, out, _ = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.99", "--k", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1 3 1.0")
    # k=0 keeps all off-diagonal mass in the residual
    c = oracle.correlation(DenseMatrix(values))
    expect = oracle.residual_norm(c, 0)
    assert float(lines[-1].split()[1]) == pytest.approx(expect, abs=1e-6)


def test_oracle_dump_c(tmp_path, capsys, rng):
    values = rng.standard_normal((4, 16))
    stream = tmp_path / "d.stream"
    write_stream_file(stream, StreamModel("rps", 4, 16), matrix_to_updates(DenseMatrix(values), "rps"))
    code, out, _ = run_cli(
        capsys, "oracle", "--input", str(stream), "--phi", "0.99", "--k", "0", "--dump-c"
    )
    assert code == 0
    lines = out.splitlines()
    dump = lines[lines.index(next(l for l in lines if l.startswith("residual_norm"))) + 1 :]
    assert len(dump) == 4 and all(len(row.split()) == 4 for row in dump)
    assert float(dump[0].split()[0]) == pytest.approx(1.0)


def test_query_threads_flag_reproducible(tmp_path, capsys, planted_stream):
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.05", "--delta", "0.1", "--seed", "8",
    )
    base = ("query", "--snapshot", str(snap), "--phi", "0.7", "--k", "2", "--R", "1.0",
            "--seed", "33")
    for pi, gamma, path in (("12", "6", "scan"), ("2", "2", "grouped")):
        _, out1, _ = run_cli(capsys, *base, "--pi", pi, "--gamma", gamma, "--threads", "1")
        _, out2, _ = run_cli(capsys, *base, "--pi", pi, "--gamma", gamma, "--threads", "2")
        assert out1 == out2
        assert f" path={path} " in out1.splitlines()[0]


@pytest.mark.parametrize(
    "flag,value,message",
    [("--threads", "0", "threads"), ("--threads", "-3", "threads"),
     ("--pi", "0", "groups (pi)"), ("--gamma", "0", "reps (gamma)")],
)
def test_query_refuses_settings_below_one(
    tmp_path, capsys, monkeypatch, planted_stream, flag, value, message
):
    code, out, err = _query_without_load(
        tmp_path, capsys, monkeypatch, planted_stream, "--phi", "0.7", flag, value
    )
    assert code == 2 and out == ""
    assert f"error: {message} must be at least 1, got {value}" in err


@pytest.mark.parametrize("phi", ["0", "-0.5", "nan"])
def test_query_refuses_bad_phi_before_load(tmp_path, capsys, monkeypatch, planted_stream, phi):
    code, out, err = _query_without_load(tmp_path, capsys, monkeypatch, planted_stream, "--phi", phi)
    assert code == 2 and out == ""
    assert f"error: phi must be in (0, 1], got {float(phi)}" in err


def _query_without_load(tmp_path, capsys, monkeypatch, planted_stream, *flags):
    """Query a real snapshot with RowSketchStore.load made to fail."""
    stream, _ = planted_stream
    snap = tmp_path / "p.snap"
    run_cli(
        capsys, "ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
        "--epsilon", "0.2", "--delta", "0.2", "--seed", "8",
    )

    def refuse(path):
        raise AssertionError("snapshot loaded before the settings were checked")

    monkeypatch.setattr(RowSketchStore, "load", refuse)
    return run_cli(
        capsys, "query", "--snapshot", str(snap), "--k", "2", "--R", "0", "--seed", "3", *flags
    )


@pytest.mark.parametrize("phi", ["nan", "0", "-1"])
def test_oracle_refuses_bad_phi(capsys, planted_stream, phi):
    stream, _ = planted_stream
    code, out, err = run_cli(capsys, "oracle", "--input", str(stream), "--phi", phi, "--k", "2")
    assert code == 2 and out == ""
    assert f"error: phi must be in (0, 1], got {float(phi)}" in err


def test_oracle_refuses_negative_k_before_reading(capsys, monkeypatch, planted_stream):
    stream, _ = planted_stream

    def refuse(fh):
        raise AssertionError("stream read before k was checked")

    monkeypatch.setattr(cli, "iter_stream", refuse)
    code, out, err = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.5", "--k", "-1")
    assert code == 2 and out == ""
    assert "error: k must be nonnegative" in err


def test_oracle_above_one_lists_no_pair(capsys, planted_stream):
    stream, _ = planted_stream
    code, out, _ = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "1.5", "--k", "2")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == ["residual_norm"]


def test_oracle_size_guard(tmp_path, capsys):
    stream = tmp_path / "huge.stream"
    stream.write_text("ts 20000 20000\n")
    code, _, err = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.5", "--k", "0")
    assert code == 2 and "size guard" in err


def test_oracle_size_guard_reads_only_the_header(tmp_path, capsys):
    # the guard is checked on the header's model, before any record is read
    stream = tmp_path / "huge.stream"
    stream.write_text("ts 20000 20000\nbroken\n")
    code, out, err = run_cli(capsys, "oracle", "--input", str(stream), "--phi", "0.5", "--k", "0")
    assert code == 2 and out == "" and "size guard" in err and "line 2" not in err


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.stream", tmp_path / "b.stream"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--n", "16", "--p", "64", "--plant", "0,5,0.8",
            "--seed", "44", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.stream.truth").read_text() == (tmp_path / "b.stream.truth").read_text()


def test_bench_smoke(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--grid",
        "n=16,32;p=32;phi=0.8;k=1;R=0.0;epsilon=0.5;delta=0.5;gamma=2;seed=2",
        "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,p,pi,sketch_bytes,ingest_s,query_s"
    assert len(lines) == 3
    assert "query_time_exponent" in out and "sketch_bytes_exponent" in out


def test_bench_ingest_clock_covers_the_last_flush(monkeypatch):
    # 16 x 32 updates fit one apply buffer, so the only flush, which does all of
    # the sketch work, must fall inside the ingest clock: slow it down and see
    delay = 0.3
    flush = RowSketchStore._flush

    def slow_flush(self):
        if self._pending[0]:
            time.sleep(delay)
        flush(self)

    monkeypatch.setattr(RowSketchStore, "_flush", slow_flush)
    grid = parse_grid("p=32;phi=0.8;k=1;R=0.0;epsilon=0.5;delta=0.5;gamma=2;seed=2")
    row = run_point(grid, 16)
    assert row.ingest_s >= delay


def test_bench_refuses_instead_of_truncating(tmp_path, capsys, monkeypatch):
    # running out of memory at the second n must fail the command, not write
    # a one-row CSV with nan exponents and exit 0
    run = bench.run_point

    def fail_at_second_n(grid, n):
        if n == grid.n_values[1]:
            raise MemoryError("cannot allocate the sketch store")
        return run(grid, n)

    monkeypatch.setattr(bench, "run_point", fail_at_second_n)
    out_csv = tmp_path / "bench.csv"
    code, out, err = run_cli(
        capsys, "bench", "--grid",
        "n=16,32;p=32;phi=0.8;k=1;R=0.0;epsilon=0.5;delta=0.5;gamma=2;seed=2",
        "--out", str(out_csv),
    )
    assert code == 2
    assert err == "error: cannot allocate the sketch store\n"
    assert out == "" and not out_csv.exists()


def test_parse_grid_sets_every_key():
    grid = parse_grid(
        " n=8,16 ;p=32;phi=0.7;k=3;R=0.25;theta=0.5;epsilon=0.2;delta=0.3;gamma=5;seed=9;"
    )
    assert grid == BenchGrid(
        n_values=[8, 16], p=32, phi=0.7, k=3, residual_bound=0.25, theta=0.5,
        epsilon=0.2, delta=0.3, reps=5, seed=9,
    )
    assert parse_grid("r=0.125").residual_bound == 0.125
    assert parse_grid("") == BenchGrid()
    with pytest.raises(ValueError, match="unknown grid key 'q'"):
        parse_grid("p=8;q=1")
    with pytest.raises(ValueError, match="key=value"):
        parse_grid("p=8;n")


@pytest.mark.filterwarnings("ignore:guarantee constraint violated", "ignore:verification is vacuous")
def test_commands_without_a_seed_echo_the_seed_they_drew(tmp_path, capsys):
    # gen, ingest and query without --seed print seed=<v> on stderr; run again
    # with --seed <v>, each prints the same stdout and writes the same bytes
    def drawn(err):
        seeds = re.findall(r"^seed=(\d+)$", err, re.M)
        assert len(seeds) == 1, err
        return seeds[0]

    stream, snap = tmp_path / "s.stream", tmp_path / "s.snap"
    commands = {
        "gen": (("gen", "--n", "16", "--p", "64", "--plant", "2,9,0.9", "--out", str(stream)),
                (stream, tmp_path / "s.stream.truth")),
        "ingest": (("ingest", "--model", "rps", "--input", str(stream), "--out", str(snap),
                    "--epsilon", "0.2", "--delta", "0.2"), (snap,)),
        # pi 4 < n groups, so the query seed draws the groupings
        "query": (("query", "--snapshot", str(snap), "--phi", "0.7", "--k", "2", "--R", "1.0",
                   "--pi", "4", "--gamma", "3"), ()),
    }
    for name, (argv, files) in commands.items():
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (name, err)
        seed = drawn(err)
        written = [f.read_bytes() for f in files]
        code, again, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == 0 and "seed=" not in err, (name, err)
        assert again == out, name
        assert [f.read_bytes() for f in files] == written, name


def test_a_failing_run_still_names_its_drawn_seed(tmp_path, capsys):
    # the seed is echoed as it is drawn, before the stream is read: an ingest
    # that overflows exits 2 and writes no snapshot, but its seed is on stderr
    stream = tmp_path / "over.stream"
    stream.write_text("ts 2 4\n1e308 0 0\n1e308 0 1\n")
    code, out, err = run_cli(
        capsys, "ingest", "--model", "ts", "--input", str(stream),
        "--out", str(tmp_path / "over.snap"), "--epsilon", "0.5", "--delta", "0.5",
    )
    assert code == 2 and out == ""
    assert re.match(r"seed=\d+\nerror: .*overflows float64\n$", err), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["over.stream"]

def test_gen_refuses_a_plant_without_rho(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gen", "--n", "8", "--p", "16", "--plant", "1,2", "--out", str(tmp_path / "g")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --plant: --plant wants 'i,j,rho', got '1,2'" in err
    assert list(tmp_path.iterdir()) == []
