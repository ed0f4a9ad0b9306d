import io
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppaccess import DataError, IdleTrace, generate, read_trace, write_trace
from oppaccess import traceio
from oppaccess.cli import main
from oppaccess.traceio import _parse_lines, _parse_plain


def test_round_trip_with_labels_and_boundaries(tmp_path, three_state_model):
    trace = generate(three_state_model, 500, seed=12)
    labelled = IdleTrace(trace.durations, trace.states, (0, 200))
    path = tmp_path / "t.trace"
    write_trace(labelled, path, extra_header=["# note: synthetic"])
    back = read_trace(path)
    assert np.allclose(back.durations, labelled.durations, rtol=1e-11)
    assert np.array_equal(back.states, labelled.states)
    assert back.boundaries == (0, 200)
    text = path.read_text()
    assert text.startswith("# oppaccess-trace v1\n")
    assert "# segment: cycle=200" in text
    assert _parse_plain([text.encode()]) is not None


def test_round_trip_without_labels(tmp_path):
    trace = IdleTrace(np.array([0.1, 0.25, 0.003]))
    path = tmp_path / "bare.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.states is None
    assert np.allclose(back.durations, trace.durations)
    assert _parse_plain([path.read_text().encode()]) is not None


@pytest.mark.parametrize("line", ["note", "# a\n0.5,1", "# segment: cycle=1", "# a\n",
                                  "# a\x0c0.5,1", "", None])
def test_write_refuses_header_lines_that_do_not_read_back(tmp_path, line):
    # a line without `#` is unreadable, a line break injects a cycle and a
    # segment marker a boundary
    path = tmp_path / "t.trace"
    with pytest.raises(ValueError, match="header"):
        write_trace(IdleTrace(np.array([0.1, 0.2, 0.3])), path, extra_header=["# ok", line])
    assert not path.exists()


def test_read_errors_name_the_line(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("0.1,1\nnot-a-number\n")
    with pytest.raises(DataError, match="2"):
        read_trace(bad)
    neg = tmp_path / "neg.trace"
    neg.write_text("0.1\n-0.5\n")
    with pytest.raises(DataError, match="positive"):
        read_trace(neg)
    mixed = tmp_path / "mixed.trace"
    mixed.write_text("0.1,1\n0.2\n")
    with pytest.raises(DataError, match="mixes"):
        read_trace(mixed)
    zero_state = tmp_path / "state0.trace"
    zero_state.write_text("0.1,0\n")
    with pytest.raises(DataError, match="1-based"):
        read_trace(zero_state)
    segment = tmp_path / "segment.trace"
    segment.write_text("0.1\n# segment: cycle=abc\n0.2\n")
    with pytest.raises(DataError, match=":2: bad segment marker"):
        read_trace(segment)
    for text, message in (("0.1\n1.5,2.0\n", ":2: bad state index '2.0'"),
                          ("1.5,2.0\n", ":1: bad state index '2.0'"),
                          ("1.5,2.7\n", ":1: bad state index '2.7'"),
                          ("1.5,1e0\n", ":1: bad state index '1e0'"),
                          ("1.5 # note\n", ":1: bad duration '1.5 # note'"),
                          ("1.5,\n", ":1: bad state index ''"),
                          ("1.5,1,2\n", ":1: expected `duration"),
                          ("0.1\nnan\n", ":2: durations must be positive, got nan"),
                          ("inf\n", ":1: durations must be positive, got inf"),
                          ("1e400\n", ":1: durations must be positive, got inf"),
                          ("0\n", ":1: durations must be positive, got 0.0"),
                          ("0.1,1\n1.5,0\n", ":2: state indices are 1-based, got 0"),
                          ("0.1,99999999999999999999\n",
                           ":1: bad state index '99999999999999999999'"),
                          ("0.1\n0.2\n# segment: cycle=1\n# segment: cycle=1\n0.3\n",
                           "boundaries must be sorted")):
        bad.write_text(text)
        with pytest.raises(DataError, match=re.escape(message)):
            read_trace(bad)


def test_read_missing_and_empty_files(tmp_path):
    with pytest.raises(DataError):
        read_trace(tmp_path / "nope.trace")
    empty = tmp_path / "empty.trace"
    empty.write_text("# oppaccess-trace v1\n")
    with pytest.raises(DataError, match="no cycles"):
        read_trace(empty)


def _outcome(parse):
    """A parse's trace as plain values, None if the parse refused the text,
    or its DataError message; fails if the parse lets any warning escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = parse()
        except DataError as exc:
            return str(exc)
        finally:
            assert not caught, [str(w.message) for w in caught]
    if trace is None:
        return None
    states = None if trace.states is None else trace.states.tolist()
    return trace.durations.tolist(), states, trace.boundaries


PARSER_INPUTS = [
    "1.5,2.0\n", "1.5,1_0\n", "1_000\n", "1.5 # note\n", "1.5,\n", "1.5,1,2\n",
    "nan\n", "inf\n", "1e400\n", "0\n", "-1\n", "1.5,0\n", "1.5,+2\n", " 1.5 , 2 \n",
    "# oppaccess-trace v1\r\n0.5,1\r\n# segment: cycle=1\r\n0.25,2\r\n",
    "0.5\x0c0.25\n", "0.5\n\n   \n\t\n0.25\n", "\n0.5\n",
    "# oppaccess-trace v1\n", "",
    "0.5,1\n0.25\n", "0.5\n0.25,1\n", "0.5\n# segment: cycle=abc\n0.25\n",
    "0.1\n0.2\n0.3\n# segment: cycle=2\n# segment: cycle=1\n",
    "0.1\n0.2\n# segment: cycle=5\n", "# segment: cycle=0\n0.1\n",
    "  # indented comment\n0.1\n", "# a # b\n0.1\n", "# \u00e9\n0.1\n",
    "0.1\n0.2", "0.1,1\n# segment: cycle=1\n0.2,3", "1.5\x1f,2\n", "# note\x0c0.5\n0.25\n",
    "1.5,2.7\n", "1.5,1e0\n", "# a\n \n# b\n0.1\n", "# a\n\n# b\n0.1\n",
    "# a\n0.1\n# b\n ", "# a\n0.1\n# b\n\n", "0.1\n\n0.2\n",
]


@pytest.mark.parametrize("text", PARSER_INPUTS)
def test_fast_reader_agrees_with_line_parser(tmp_path, text):
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode())
    expected = _outcome(lambda: _parse_lines(path.read_text(), path))
    assert _outcome(lambda: read_trace(path)) == expected
    fast = _outcome(lambda: _parse_plain([path.read_text().encode()]))
    assert fast is None or fast == expected


def _streamed(data: bytes):
    """The fast reader's trace of `data`, cut into pieces as `read_trace` cuts a file."""
    return _parse_plain(traceio._pieces(io.BytesIO(data)))


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("text", PARSER_INPUTS)
def test_fast_reader_agrees_with_line_parser_in_small_pieces(tmp_path, text, chunk):
    # pieces this small split comments, markers, labels and lines
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode())
    expected = _outcome(lambda: _parse_lines(path.read_text(), path))
    with mock.patch.object(traceio, "_READ_CHUNK", chunk):
        assert _outcome(lambda: read_trace(path)) == expected
        fast = _outcome(lambda: _streamed(text.encode()))
    assert fast is None or fast == expected


def test_labelled_round_trip_in_pieces_across_segment_markers(tmp_path, three_state_model):
    trace = generate(three_state_model, 300, seed=3)
    labelled = IdleTrace(trace.durations, trace.states, (0, 101, 205))
    path = tmp_path / "t.trace"
    write_trace(labelled, path, extra_header=["# " + "long comment " * 20])
    expected = _outcome(lambda: _parse_lines(path.read_text(), path))
    assert expected[2] == (0, 101, 205)
    with mock.patch.object(traceio, "_READ_CHUNK", 97):
        fast = _outcome(lambda: _streamed(path.read_bytes()))
        assert _outcome(lambda: read_trace(path)) == expected
    assert fast == expected


@pytest.mark.parametrize("data, offset", [(b"0.5\n\xff\n", 4),
                                          (b"# caf\xe9\n0.5\n", 5)])
def test_non_utf8_file_is_a_data_error(tmp_path, capsys, data, offset):
    path = tmp_path / "t.trace"
    path.write_bytes(data)
    with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8: byte {offset} (")):
        read_trace(path)
    assert main(["fit", str(path), "--components", "1"]) == 3
    assert capsys.readouterr().err.splitlines()[0].startswith(
        f"data error: trace file {path} is not UTF-8: byte {offset} (")


@pytest.mark.parametrize("labelled", [True, False])
def test_read_peaks_at_twice_its_result(tmp_path, three_state_model, labelled):
    # numpy reports its buffers to tracemalloc, so the bound holds on any host
    trace = generate(three_state_model, 200_000, seed=1)
    path = tmp_path / "t.trace"
    write_trace(IdleTrace(trace.durations, trace.states if labelled else None), path)
    tracemalloc.start()
    try:
        back = read_trace(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result = back.durations.nbytes + (back.states.nbytes if labelled else 0)
    assert peak <= 2 * result + 500_000, (peak, result)


def test_fast_reader_refuses_when_loadtxt_warns(tmp_path, monkeypatch):
    # numpy releases that parse `2.0` as the integer 2 only warn about it
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(traceio.np, "loadtxt", warning_loadtxt)
    path = tmp_path / "t.trace"
    path.write_text("0.1,1\n0.2,2\n")
    assert _outcome(lambda: _parse_plain([path.read_text().encode()])) is None
    assert _outcome(lambda: read_trace(path)) == ([0.1, 0.2], [0, 1], (0,))


DURATION = st.floats(1e-9, 1e9).map("{:.12g}".format)
MARKER = st.integers(-1, 9).map("# segment: cycle={}".format)
NOISE = st.text(alphabet="0123456789.e+-,_ \t#naif\x0c\x1f", max_size=8)


@st.composite
def trace_texts(draw):
    """A well-formed labelled or unlabelled trace, half the time with one
    line replaced by noise."""
    data = DURATION
    if draw(st.booleans()):
        data = st.tuples(DURATION, st.integers(1, 9)).map("{0[0]},{0[1]}".format)
    lines = draw(st.lists(st.one_of(data, data, MARKER), min_size=1, max_size=8))
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(NOISE)
    return "\n".join(lines)


@given(trace_texts())
def test_fast_reader_never_disagrees_with_line_parser(text):
    fast = _outcome(lambda: _parse_plain([text.encode()]))
    assert fast is None or fast == _outcome(lambda: _parse_lines(text, "t"))


@pytest.mark.parametrize("chunk", [1, 3, 64])
@given(text=trace_texts())
def test_fast_reader_never_disagrees_with_line_parser_in_small_pieces(chunk, text):
    with mock.patch.object(traceio, "_READ_CHUNK", chunk):
        fast = _outcome(lambda: _streamed(text.encode()))
    assert fast is None or fast == _outcome(lambda: _parse_lines(text, "t"))


def _expected_text(trace, header):
    """The file `write_trace` writes, one `"{:.12g}".format` call per cycle."""
    lines = ["# oppaccess-trace v1", *header]
    labels = [None] * trace.n if trace.states is None else (trace.states + 1).tolist()
    for t, (d, label) in enumerate(zip(trace.durations.tolist(), labels)):
        if t and t in trace.boundaries:
            lines.append(f"# segment: cycle={t}")
        lines.append("{:.12g}".format(d) + ("" if label is None else f",{label}"))
    return "\n".join(lines) + "\n"


def _neighbours(x):
    return st.sampled_from([np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)])


# 12-digit mantissas followed by a 5: the doubles nearest to a tie between
# two outputs, around the exponents the vectorised path takes
NEAR_TIES = st.builds("{}5e{}".format, st.integers(10**11, 10**12 - 1),
                      st.integers(-26, 24)).map(float)
DOUBLES = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.builds("{!r}e{}".format, st.floats(1.0, 10.0, exclude_max=True),
              st.integers(-30, 45)).map(float),
    st.integers(-323, 308).map("1e{}".format).map(float).flatmap(_neighbours),
    NEAR_TIES.flatmap(_neighbours),
    st.sampled_from([1e-5, 1e-4, 1e11, 1e12]).flatmap(
        lambda edge: st.floats(edge * (1 - 1e-11), edge * (1 + 1e-11))),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
).filter(lambda x: 0.0 < x < math.inf)


@given(st.lists(st.tuples(DOUBLES, st.integers(1, 2**62)), min_size=1, max_size=40),
       st.booleans())
def test_format_agrees_with_python(rows, labelled):
    durations = np.array([d for d, _ in rows])
    labels = np.array([label for _, label in rows]) if labelled else None
    expected = "".join("{:.12g}".format(d) + (f",{label}" if labelled else "") + "\n"
                       for d, label in rows)
    assert traceio._format(durations, labels) == expected.encode()


@given(st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=30), st.booleans(),
       st.lists(st.integers(1, 29), max_size=4), st.integers(1, 7), st.data())
def test_write_trace_agrees_with_python(tmp_path_factory, durations, labelled, cuts, chunk,
                                        data):
    # labels up to 12 digits, segments and chunk edges in any arrangement
    n = len(durations)
    states = None
    if labelled:
        states = np.array(data.draw(st.lists(st.integers(0, 10**12), min_size=n, max_size=n)))
    trace = IdleTrace(np.array(durations), states,
                      tuple(sorted({0} | {c for c in cuts if c < n})))
    path = tmp_path_factory.mktemp("write") / "t.trace"
    with mock.patch.object(traceio, "_WRITE_CHUNK", chunk):
        write_trace(trace, path, extra_header=["# note"])
    assert path.read_bytes() == _expected_text(trace, ["# note"]).encode()
    back = read_trace(path)
    assert back.boundaries == trace.boundaries
    assert (back.states is None) == (states is None)
