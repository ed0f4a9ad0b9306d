import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppaccess import DataError, IdleTrace, generate, read_trace, write_trace
from oppaccess import traceio
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
    assert _parse_plain(text) is not None


def test_round_trip_without_labels(tmp_path):
    trace = IdleTrace(np.array([0.1, 0.25, 0.003]))
    path = tmp_path / "bare.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.states is None
    assert np.allclose(back.durations, trace.durations)
    assert _parse_plain(path.read_text()) is not None


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
    fast = _outcome(lambda: _parse_plain(path.read_text()))
    assert fast is None or fast == expected


def test_fast_reader_refuses_when_loadtxt_warns(tmp_path, monkeypatch):
    # numpy releases that parse `2.0` as the integer 2 only warn about it
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("parsing an integer via a float is deprecated", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(traceio.np, "loadtxt", warning_loadtxt)
    path = tmp_path / "t.trace"
    path.write_text("0.1,1\n0.2,2\n")
    assert _outcome(lambda: _parse_plain(path.read_text())) is None
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
    fast = _outcome(lambda: _parse_plain(text))
    assert fast is None or fast == _outcome(lambda: _parse_lines(text, "t"))
