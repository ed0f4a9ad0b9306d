import numpy as np
import pytest

from oppaccess import DataError, IdleTrace, generate, read_trace, write_trace


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


def test_round_trip_without_labels(tmp_path):
    trace = IdleTrace(np.array([0.1, 0.25, 0.003]))
    path = tmp_path / "bare.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.states is None
    assert np.allclose(back.durations, trace.durations)


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


def test_read_missing_and_empty_files(tmp_path):
    with pytest.raises(DataError):
        read_trace(tmp_path / "nope.trace")
    empty = tmp_path / "empty.trace"
    empty.write_text("# oppaccess-trace v1\n")
    with pytest.raises(DataError, match="no cycles"):
        read_trace(empty)
