"""Idle-trace text format: one cycle per line, `duration[,state]`.

Lines starting with `#` are comments. Generated files open with the header
`# oppaccess-trace v1`; segment switches of non-stationary schedules are
marked with `# segment: cycle=<index>` lines. The optional state column is
the 1-based traffic-state index (real captures usually lack it; in-memory
labels are 0-based).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .smmpp import IdleTrace

TRACE_HEADER = "# oppaccess-trace v1"
_SEGMENT_PREFIX = "# segment: cycle="

# cycles formatted per write, and characters parsed per np.loadtxt call
_WRITE_CHUNK = 1 << 16
_READ_CHUNK = 1 << 16
# printable ASCII, tab and newline: the only characters the fast reader takes
_PLAIN = bytes(range(32, 127)) + b"\t\n"
_COLUMNS = (("duration", np.float64), ("state", np.int64))


def write_trace(trace: IdleTrace, path, extra_header: list[str] | None = None) -> None:
    """Write a trace; deterministic byte-for-byte for equal inputs.

    Durations are written as `%.12g`; the file is streamed in chunks of
    cycles, so it is never held in memory whole.
    """
    edges = list(trace.boundaries) + [trace.n]
    with open(path, "w") as fh:
        fh.write("\n".join([TRACE_HEADER, *(extra_header or [])]) + "\n")
        for lo, hi in zip(edges, edges[1:]):
            if lo:
                fh.write(f"{_SEGMENT_PREFIX}{lo}\n")
            for start in range(lo, hi, _WRITE_CHUNK):
                stop = min(start + _WRITE_CHUNK, hi)
                durations = trace.durations[start:stop].tolist()
                if trace.states is None:
                    lines = map("{:.12g}".format, durations)
                else:
                    labels = (trace.states[start:stop] + 1).tolist()
                    lines = map("{:.12g},{}".format, durations, labels)
                fh.write("\n".join(lines) + "\n")


def read_trace(path) -> IdleTrace:
    """Parse a trace file; raises DataError naming the offending line.

    Files in the strict grammar `write_trace` produces are parsed in one
    vectorised pass (`_parse_plain`); every other file, and every file that
    pass refuses, goes through the line parser, the only source of errors.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read trace file {path}: {exc}") from exc
    trace = _parse_plain(text)
    return trace if trace is not None else _parse_lines(text, path)


def _parse_plain(text: str) -> IdleTrace | None:
    """The trace in `text`, or None unless every line is a comment (`#` in
    its first column) or a data line `duration[,state]` that np.loadtxt
    reads with the values the line parser would give, and IdleTrace takes
    the result.

    Only printable ASCII, tab and newline are taken: on these np.loadtxt
    and float()/int() agree on what a number is. `state` is read as an
    integer, never as a float. Any warning from np.loadtxt also refuses the
    file: numpy releases that still parse `2.0` as the integer 2 say so only
    by a DeprecationWarning, and a chunk without data (blank lines between
    comments) warns as well.
    """
    if not text.isascii():
        return None
    spans, boundaries = [], [0]
    pos = 0
    while pos < len(text):
        mark = text.find("#", pos)
        if mark == -1:
            spans.append((pos, len(text)))
            break
        if mark and text[mark - 1] != "\n":
            return None
        spans.append((pos, mark))
        end = text.find("\n", mark)
        end = len(text) if end == -1 else end
        comment = text[mark:end]
        if not _plain(comment):
            return None
        if comment.startswith(_SEGMENT_PREFIX):
            try:
                boundaries.append(int(comment[len(_SEGMENT_PREFIX):]))
            except ValueError:
                return None
        pos = end + 1
    parts = []
    for lo, hi in spans:
        while lo < hi:
            cut = text.find("\n", lo + _READ_CHUNK, hi)
            cut = hi if cut == -1 else cut + 1
            chunk = text[lo:cut]
            if not _plain(chunk):
                return None
            if not parts:  # a comma past the first line fails either way
                labelled = "," in chunk
                dtype = np.dtype(list(_COLUMNS if labelled else _COLUMNS[:1]))
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    parts.append(np.loadtxt(chunk.splitlines(), dtype=dtype,
                                            delimiter=",", comments=None, ndmin=1))
            except (ValueError, Warning):
                return None
            lo = cut
    if not parts:
        return None
    durations = np.concatenate([part["duration"] for part in parts])
    states = None
    if labelled:
        states = np.concatenate([part["state"] for part in parts]) - 1
    try:
        return IdleTrace(durations, states,
                         tuple(b for b in boundaries if b < durations.size))
    except ValueError:
        return None


def _plain(ascii_text: str) -> bool:
    """Whether `ascii_text` holds only printable ASCII, tab and newline."""
    return not ascii_text.encode("ascii").translate(None, _PLAIN)


def _parse_lines(text: str, path) -> IdleTrace:
    """Line-by-line parse of a trace file's text; raises DataError naming
    the offending line."""
    durations: list[float] = []
    states: list[int] = []
    boundaries = [0]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith(_SEGMENT_PREFIX):
                try:
                    boundaries.append(int(line[len(_SEGMENT_PREFIX):]))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: bad segment marker {line!r}") from exc
            continue
        parts = line.split(",")
        try:
            duration = float(parts[0])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad duration {parts[0]!r}") from exc
        if duration <= 0 or not np.isfinite(duration):
            raise DataError(f"{path}:{lineno}: durations must be positive, got {duration!r}")
        durations.append(duration)
        if len(parts) == 2:
            try:
                state = int(parts[1])
                np.int64(state)  # fits the label array
            except (ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad state index {parts[1]!r}") from exc
            if state < 1:
                raise DataError(f"{path}:{lineno}: state indices are 1-based, got {state}")
            states.append(state - 1)
        elif len(parts) != 1:
            raise DataError(f"{path}:{lineno}: expected `duration[,state]`")
    if not durations:
        raise DataError(f"trace file {path} holds no cycles")
    if states and len(states) != len(durations):
        raise DataError(f"trace file {path} mixes labelled and unlabelled cycles")
    try:
        return IdleTrace(
            np.asarray(durations),
            np.asarray(states, dtype=np.int64) if states else None,
            tuple(b for b in boundaries if b < len(durations)),
        )
    except ValueError as exc:
        raise DataError(f"trace file {path}: {exc}") from exc
