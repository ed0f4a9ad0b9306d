"""Idle-trace text format: one cycle per line, `duration[,state]`.

Lines starting with `#` are comments. Generated files open with the header
`# oppaccess-trace v1`; segment switches of non-stationary schedules are
marked with `# segment: cycle=<index>` lines. The optional state column is
the 1-based traffic-state index (real captures usually lack it; in-memory
labels are 0-based).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError
from .smmpp import IdleTrace

TRACE_HEADER = "# oppaccess-trace v1"
_SEGMENT_PREFIX = "# segment: cycle="


def write_trace(trace: IdleTrace, path, extra_header: list[str] | None = None) -> None:
    """Write a trace; deterministic byte-for-byte for equal inputs."""
    lines = [TRACE_HEADER]
    lines.extend(extra_header or [])
    boundaries = set(trace.boundaries) - {0}
    for i in range(trace.n):
        if i in boundaries:
            lines.append(f"{_SEGMENT_PREFIX}{i}")
        if trace.states is None:
            lines.append(f"{trace.durations[i]:.12g}")
        else:
            lines.append(f"{trace.durations[i]:.12g},{int(trace.states[i]) + 1}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> IdleTrace:
    """Parse a trace file; raises DataError naming the offending line."""
    durations: list[float] = []
    states: list[int] = []
    boundaries = [0]
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read trace file {path}: {exc}") from exc
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
            except ValueError as exc:
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
