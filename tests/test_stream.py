import io
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsketch import stream as stream_module
from corrsketch.stream import (
    MODELS,
    DenseMatrix,
    StreamFormatError,
    StreamModel,
    StreamUpdate,
    apply_update,
    iter_stream,
    matrix_to_updates,
    parse_update,
    replay,
    write_stream,
)


def test_parse_ts_line():
    model = StreamModel("ts", 8, 8)
    assert parse_update("2.5 3 7", model, 0) == StreamUpdate(2.5, 3, 7)


def test_parse_rps_position_indexing():
    # position q fills entry (q div p, q mod p)
    model = StreamModel("rps", 3, 4)
    assert parse_update("1.0", model, 6) == StreamUpdate(1.0, 1, 2)


def test_parse_cps_position_indexing():
    # position q fills entry (q mod n, q div n)
    model = StreamModel("cps", 4, 3)
    assert parse_update("1.0", model, 6) == StreamUpdate(1.0, 2, 1)


def test_stream_update_contract():
    u = StreamUpdate(2.5, 3, 7)
    assert u == StreamUpdate(2.5, 3, 7) and u != StreamUpdate(2.5, 3, 8)
    assert hash(u) == hash(StreamUpdate(2.5, 3, 7))
    assert len({u, StreamUpdate(2.5, 3, 7), StreamUpdate(-2.5, 3, 7)}) == 2
    assert repr(u) == "StreamUpdate(alpha=2.5, i=3, j=7)"
    assert (u.alpha, u.i, u.j) == (2.5, 3, 7)
    with pytest.raises(AttributeError):
        u.alpha = 1.0
    again = pickle.loads(pickle.dumps(u))
    assert again == u and type(again) is StreamUpdate
    assert u == (2.5, 3, 7)  # a tuple: equal to the plain (alpha, i, j) tuple too


def test_parsers_yield_stream_updates():
    assert type(parse_update("2.5 3 7", StreamModel("ts", 8, 8), 0)) is StreamUpdate
    for text in ("ts 2 2\n1.5 0 1\n-0.5 1 0\n", "rps 2 2\n1\n2\n3\n4\n"):
        _, updates = iter_stream(io.StringIO(text))
        updates = list(updates)
        assert updates and all(type(u) is StreamUpdate for u in updates)


def test_parse_rejects_malformed_lines():
    model = StreamModel("ts", 4, 4)
    with pytest.raises(StreamFormatError):
        parse_update("1.0 2", model, 0)
    with pytest.raises(StreamFormatError):
        parse_update("x 1 2", model, 0)
    with pytest.raises(StreamFormatError):
        parse_update("nan 1 2", model, 0)
    with pytest.raises(StreamFormatError):
        parse_update("1.0 9 0", model, 0)  # row out of range
    with pytest.raises(StreamFormatError):
        parse_update("1.0 2.0", StreamModel("rps", 4, 4), 0)


def test_model_validation():
    with pytest.raises(ValueError):
        StreamModel("rps", 1, 4)
    with pytest.raises(ValueError):
        StreamModel("bogus", 4, 4)
    assert StreamModel("rps", 3, 5).length == 15


def test_apply_update_basics():
    m = DenseMatrix.zeros(2, 2)
    apply_update(m, StreamUpdate(1.0, 0, 0))
    assert m.values[0, 0] == 1.0 and m.values.sum() == 1.0
    apply_update(m, StreamUpdate(2.0, 0, 0))
    apply_update(m, StreamUpdate(-2.0, 0, 0))
    assert m.values[0, 0] == 1.0
    with pytest.raises(IndexError):
        apply_update(m, StreamUpdate(1.0, 2, 0))


def test_rps_roundtrip_known_matrix():
    values = np.arange(9, dtype=float).reshape(3, 3) + 0.5
    m = DenseMatrix(values)
    model = StreamModel("rps", 3, 3)
    again = replay(model, matrix_to_updates(m, "rps"))
    assert np.array_equal(again.values, values)


matrices = st.integers(2, 5).flatmap(
    lambda n: st.integers(2, 5).flatmap(
        lambda p: st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=n * p,
            max_size=n * p,
        ).map(lambda vals: np.array(vals).reshape(n, p))
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from(["rps", "cps"]))
def test_permutation_stream_roundtrip_bit_exact(values, variant):
    m = DenseMatrix(values)
    model = StreamModel(variant, m.n, m.p)
    text = io.StringIO()
    write_stream(text, model, matrix_to_updates(m, variant))
    text.seek(0)
    parsed_model, updates = iter_stream(text)
    assert parsed_model == model
    again = replay(parsed_model, updates)
    assert np.array_equal(again.values, values)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(-50, 50), st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=30,
        ).map(lambda ups: (n, ups))
    ),
    st.randoms(use_true_random=False),
)
def test_turnstile_permutation_invariance(case, shuffler):
    # integer increments: addition is exact, so any replay order agrees
    n, raw = case
    model = StreamModel("ts", n, n)
    updates = [StreamUpdate(float(a), i, j) for a, i, j in raw]
    shuffled = list(updates)
    shuffler.shuffle(shuffled)
    assert replay(model, updates) == replay(model, shuffled)


def test_replay_refuses_an_overflowing_cell_sum():
    updates = [StreamUpdate(1e308, 0, 0), StreamUpdate(1e308, 0, 0)]
    with pytest.raises(ValueError, match="^a matrix cell sum overflows float64$"):
        replay(StreamModel("ts", 3, 4), updates)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_rps_and_cps_agree(values):
    m = DenseMatrix(values)
    rps = replay(StreamModel("rps", m.n, m.p), matrix_to_updates(m, "rps"))
    cps = replay(StreamModel("cps", m.n, m.p), matrix_to_updates(m, "cps"))
    assert rps == cps


def test_stream_file_comments_and_blanks():
    text = io.StringIO("# fixture\n\nts 2 2\n1.5 0 1\n# mid comment\n\n-0.5 1 0\n")
    model, updates = iter_stream(text)
    m = replay(model, updates)
    assert m.values[0, 1] == 1.5 and m.values[1, 0] == -0.5


def test_stream_file_errors_carry_line_numbers():
    text = io.StringIO("ts 2 2\n1.0 0 0\nbroken\n")
    model, updates = iter_stream(text)
    with pytest.raises(StreamFormatError, match="line 3"):
        list(updates)
    with pytest.raises(StreamFormatError, match="header"):
        iter_stream(io.StringIO("nope 2 2\n"))
    # rps streams must contain exactly n*p records
    short = io.StringIO("rps 2 2\n1.0\n")
    model, updates = iter_stream(short)
    with pytest.raises(StreamFormatError, match="expected 4"):
        list(updates)


# -- the block reader against a per-line reference ---------------------------


def _reference_parse(line, model, position):
    """One record parsed on its own, as the per-line reader did before blocks."""
    fields = line.split()
    if model.variant == "ts":
        if len(fields) != 3:
            raise StreamFormatError(f"turnstile record needs 'alpha i j', got {line!r}")
        alpha_s, i_s, j_s = fields
        try:
            i, j = int(i_s), int(j_s)
        except ValueError:
            raise StreamFormatError(f"bad indices in {line!r}") from None
    else:
        if len(fields) != 1:
            raise StreamFormatError(f"{model.variant} record needs a single value, got {line!r}")
        alpha_s = fields[0]
        if position >= model.length:
            raise StreamFormatError(f"{model.variant} stream longer than n*p = {model.length}")
        if model.variant == "rps":
            i, j = divmod(position, model.p)
        else:
            j, i = divmod(position, model.n)
    try:
        alpha = float(alpha_s)
    except ValueError:
        raise StreamFormatError(f"bad value {alpha_s!r}") from None
    if not math.isfinite(alpha):
        raise StreamFormatError(f"non-finite value {alpha_s!r}")
    if not (0 <= i < model.n and 0 <= j < model.p):
        raise StreamFormatError(f"index ({i}, {j}) out of range for {model.n}x{model.p}")
    return StreamUpdate(alpha, i, j)


def _reference_records(model, lines, first_line_no):
    """Per-line loop over the record lines, numbered from ``first_line_no``."""
    position = 0
    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            yield _reference_parse(line, model, position)
        except StreamFormatError as e:
            raise StreamFormatError(str(e), line_no) from None
        position += 1
    if model.variant != "ts" and position != model.length:
        raise StreamFormatError(
            f"{model.variant} stream has {position} records, expected {model.length}"
        )


def _drain(updates):
    """Every record yielded, each with its field types, then the error raised (or None)."""
    got = []
    try:
        for u in updates:
            got.append((type(u), repr(u), tuple(map(type, u))))
    except StreamFormatError as e:
        return got, (type(e), str(e), e.line_no)
    return got, None


_ALPHAS = ["1.5", "-2", "0", "-0.0", "1e3", "1_0", "+.5", "2.5e-3", "0.10000000000000000555"]
_BAD_LINES = {  # one line of each kind parse_update refuses
    "ts": ["1.0 2", "1.0 1 0 3", "1.0 x 1", "1.0 1 1.0", "1.0 1 0x1", "x 1 1", "1.0.0 0 0",
           "nan 1 1", "-inf 0 0", "1e999 0 0", "1.0 3 0", "1.0 0 -1", "1.0 1_0 0"],
    "rps": ["1.0 2.0", "x", "0x1", "nan", "inf", "-1e999"],
    "cps": ["1.0 2.0", "x", "0x1", "nan", "inf", "-1e999"],
}


@st.composite
def streams(draw):
    """A small stream: records, blank and '#' lines, and at most one malformed line."""
    variant = draw(st.sampled_from(MODELS))
    model = StreamModel(variant, 3, 2)
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    if variant == "ts":
        index = st.sampled_from(["0", "1", "01", "+1", "0_1"])
        record = st.builds(lambda a, i, j, s: f"{a}{s}{i}{s}{j}", st.sampled_from(_ALPHAS), index,
                           st.sampled_from(["0", "1"]), space)
        count = st.integers(0, 9)
    else:
        record = st.sampled_from(_ALPHAS)
        count = st.integers(model.length - 1, model.length + 1)  # short, exact and too long
    lines = [draw(record) for _ in range(draw(count))]
    for _ in range(draw(st.integers(0, 4))):
        filler = draw(st.sampled_from(["", "   ", "# note", "  #x 1 2", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), filler)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES[variant])))
    return model, [draw(space) + line + draw(st.sampled_from(["", " "])) for line in lines]


_FULL = ["1.5 0 1", "-2 1 0", "0 2 1"]  # one full 3-line block of ts records


@settings(max_examples=300, deadline=None)
@given(streams())
@example((StreamModel("ts", 3, 2), [*_FULL, "x 1 1", *_FULL[1:]]))  # bad first line of a full block
@example((StreamModel("ts", 3, 2), [*_FULL, *_FULL[:2], "1.0 3 0"]))  # bad last line of a full block
@example((StreamModel("ts", 3, 2), [*_FULL, "# a", "", "  # b", *_FULL]))  # a block of comments only
@example((StreamModel("rps", 3, 2), ["1", "2", "3", "#", "# c", "\t", "4", "5", "6"]))  # and rps
def test_block_reader_matches_per_line_reference(case):
    # 3-line blocks put blank, '#' and bad lines before, on and after a block boundary
    model, lines = case
    header = f"{model.variant} {model.n} {model.p}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_module, "_BLOCK", 3)
        text = "\n".join(["# head", header, *lines]) + "\n"
        parsed_model, updates = iter_stream(io.StringIO(text))
        got = _drain(updates)
    assert parsed_model == model
    assert got == _drain(_reference_records(model, lines, 3))
    # parse_update is a block of one: same record or same error for every line
    for line in lines:
        for position in (0, model.n * model.p):
            try:
                expect = _reference_parse(line, model, position)
            except StreamFormatError as e:
                with pytest.raises(StreamFormatError) as err:
                    parse_update(line, model, position)
                assert (str(err.value), err.value.line_no) == (str(e), None)
            else:
                assert repr(parse_update(line, model, position)) == repr(expect)


@pytest.mark.parametrize("variant", ["ts", "rps"])
def test_clean_stream_parses_each_block_once(variant):
    # clean input takes one grammar call per block, whatever its comments;
    # only a block that fails is re-read, a line at a time
    calls = []

    def counted(lines, model, position):
        calls.append(len(lines))
        return grammar(lines, model, position)

    grammar = stream_module._records
    values = np.arange(1.0, 17.0).reshape(4, 4)
    lines = [f"{u.alpha!r} {u.i} {u.j}" if variant == "ts" else repr(u.alpha)
             for u in matrix_to_updates(DenseMatrix(values), variant)]
    lines.insert(2, "# a comment")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_module, "_BLOCK", 5)
        mp.setattr(stream_module, "_records", counted)
        model, updates = iter_stream(["# head", f"{variant} 4 4", *lines])
        assert np.array_equal(replay(model, updates).values, values)
        assert calls == [4, 5, 5, 2]  # 17 lines: the first block holds the comment
        calls.clear()
        lines[8] = "nan 1 1" if variant == "ts" else "nan"
        _, updates = iter_stream([f"{variant} 4 4", *lines])
        with pytest.raises(StreamFormatError, match="line 10: non-finite"):
            list(updates)
        assert calls == [4, 5, 1, 1, 1, 1]  # the failed block again, to its bad line


def test_stream_refusals_name_their_cause():
    with pytest.raises(ValueError, match="^turnstile streams have no fixed length$"):
        StreamModel("ts", 3, 5).length
    with pytest.raises(ValueError, match="^dense matrix must be 2-dimensional$"):
        DenseMatrix(np.ones(4))
    with pytest.raises(ValueError, match="^dense matrix entries must be finite$"):
        DenseMatrix(np.array([[1.0, np.inf]]))
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(StreamFormatError, match=r"^empty stream file \(missing header\)$"):
            iter_stream(io.StringIO(text))
    with pytest.raises(StreamFormatError, match="^line 1: stream model requires n >= 2 and p >= 2$"):
        iter_stream(io.StringIO("ts 1 2\n"))
    with pytest.raises(ValueError, match="^unknown stream model 'xx'$"):
        matrix_to_updates(DenseMatrix(np.eye(2)), "xx")


def _reference_updates(m: DenseMatrix, variant: str) -> list:
    """The reference order: one comprehension per model, cell by cell."""
    if variant == "rps":
        return [StreamUpdate(float(m.values[i, j]), i, j) for i in range(m.n) for j in range(m.p)]
    if variant == "cps":
        return [StreamUpdate(float(m.values[i, j]), i, j) for j in range(m.p) for i in range(m.n)]
    return [
        StreamUpdate(float(m.values[i, j]), i, j)
        for i in range(m.n)
        for j in range(m.p)
        if m.values[i, j] != 0.0
    ]


@pytest.mark.parametrize("variant", MODELS)
def test_matrix_to_updates_keeps_each_models_order(variant):
    # same cells in the same order, with the same value bits (-0.0 kept in
    # rps and cps, dropped with the zeros in ts) and Python float, int, int
    signed_zeros = np.array([[0.0, -0.0, 1.5, 0.0], [2.0, 0.0, -3.25, -0.0], [0.0, 7.0, 0.0, 1e-300]])
    sparse = np.random.default_rng(8).standard_normal((5, 9))
    sparse[np.random.default_rng(9).random((5, 9)) < 0.5] = 0.0
    for values in (signed_zeros, np.zeros((3, 4)), sparse):
        m = DenseMatrix(values)
        got, expect = matrix_to_updates(m, variant), _reference_updates(m, variant)
        assert type(got) is list
        assert [(repr(u.alpha), u.i, u.j) for u in got] == [
            (repr(u.alpha), u.i, u.j) for u in expect
        ]
        assert all(type(u) is StreamUpdate for u in got)
        assert {tuple(map(type, u)) for u in got} <= {(float, int, int)}
    assert matrix_to_updates(DenseMatrix(np.zeros((3, 4))), "ts") == []
