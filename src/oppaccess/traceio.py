"""Idle-trace text format: one cycle per line, `duration[,state]`.

Lines starting with `#` are comments. Generated files open with the header
`# oppaccess-trace v1`; segment switches of non-stationary schedules are
marked with `# segment: cycle=<index>` lines. The optional state column is
the 1-based traffic-state index (real captures usually lack it; in-memory
labels are 0-based).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError
from .smmpp import IdleTrace

TRACE_HEADER = "# oppaccess-trace v1"
_SEGMENT_PREFIX = "# segment: cycle="

# cycles formatted per write, and bytes read per piece of a parsed file
_WRITE_CHUNK = 1 << 14
_READ_CHUNK = 1 << 16
# printable ASCII, tab and newline: the only characters the fast reader takes
_PLAIN = bytes(range(32, 127)) + b"\t\n"
_COLUMNS = (("duration", np.float64), ("state", np.int64))

# `_format`: the exact powers of ten, the widest `%.12g` of a positive
# double ("1.79769313486e+308"), the bytes a layout takes besides mantissa
# digits (padded to whole uint32s), and the four digits and the trailing
# zeros of each integer below 10**4
_POW10 = np.array([float(10**k) for k in range(23)])
_VALUE_WIDTH = 18
_GLYPHS = b".e+-0123456789\0\0"
_DIGITS4 = (np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(
    np.uint8).view(np.uint32).ravel()
_ZEROS4 = sum(np.arange(10**4) % 10**k == 0 for k in range(1, 5))


def write_trace(trace: IdleTrace, path, extra_header: list[str] | None = None) -> None:
    """Write a trace; deterministic byte-for-byte for equal inputs.

    Durations are written as `%.12g` (see `_format`); the file is streamed
    in chunks of cycles, so it is never held in memory whole. Each
    `extra_header` entry is one comment line: it starts with `#`, holds no
    line break and is no segment marker, so the file reads back as written.
    """
    for line in extra_header or []:
        if (not isinstance(line, str) or not line.startswith("#")
                or line.startswith(_SEGMENT_PREFIX) or line.splitlines() != [line]):
            raise ValueError(
                f"extra header lines must be single `#` comment lines that are not "
                f"segment markers, got {line!r}")
    edges = list(trace.boundaries) + [trace.n]
    with open(path, "wb") as fh:
        fh.write(("\n".join([TRACE_HEADER, *(extra_header or [])]) + "\n").encode())
        for lo, hi in zip(edges, edges[1:]):
            if lo:
                fh.write(f"{_SEGMENT_PREFIX}{lo}\n".encode())
            for start in range(lo, hi, _WRITE_CHUNK):
                stop = min(start + _WRITE_CHUNK, hi)
                labels = None if trace.states is None else trace.states[start:stop] + 1
                fh.write(_format(trace.durations[start:stop], labels))


def _format_classes():
    """Tables of the `%.12g` layout for each decimal exponent e in [-11, 33]
    (row e + 11): the source of each byte (0-11 a mantissa digit, from 12 a
    byte of `_GLYPHS`); the bytes kept when the part before the exponent
    keeps k bytes (row 19 (e + 11) + k); that part's length; and how many
    mantissa digits are fraction digits."""
    point, exp, plus, minus, digit0 = (12 + _GLYPHS.index(c) for c in b".e+-0")
    pos = np.arange(_VALUE_WIDTH)
    sources, keeps, body, fraction = [], [], [], []
    for e in range(-11, 34):
        digits = list(range(12))
        suffix = []
        if 0 <= e <= 11:
            layout = digits[:e + 1] + [point] * (e < 11) + digits[e + 1:]
            fraction.append(11 - e)
        elif -4 <= e < 0:
            layout = [digit0, point] + [digit0] * (-e - 1) + digits
            fraction.append(12)
        else:
            layout = [0, point] + digits[1:]
            suffix = [exp, plus if e > 0 else minus, digit0 + abs(e) // 10, digit0 + abs(e) % 10]
            fraction.append(11)
        body.append(len(layout))
        sources.append(layout + suffix + [point] * (_VALUE_WIDTH - len(layout) - len(suffix)))
        in_suffix = (pos >= len(layout)) & (pos < len(layout) + len(suffix))
        keeps.append((pos < np.arange(_VALUE_WIDTH + 1)[:, None]) | in_suffix)
    return (np.array(sources, dtype=np.int32), np.array(keeps).reshape(-1, _VALUE_WIDTH),
            np.array(body), np.array(fraction))


def _format(durations: np.ndarray, labels: np.ndarray | None) -> bytes:
    """The lines `"{:.12g}".format(d)` or, with labels, `"{:.12g},{}".format(d, label)`,
    each ended by a newline, as ASCII bytes.

    With e = floor(log10 d), d is scaled by the exact power 10**(11 - e) in one
    rounding and split into an integer mantissa and a remainder; rounding half
    up on the remainder gives the 12 significant digits `%.12g` rounds to,
    and e picks the notation (fixed for -4 <= e <= 11, else scientific).
    Rows where that can differ from Python's formatting go through it
    instead: the remainder lies within 5e-4 of a tie (the one rounding
    moves the scaled value by at most 6.1e-5, and never across a tie), the
    mantissa falls outside [10**11, 10**12) (log10 was off by one or the
    rounding carried), or |11 - e| > 22 (the power is inexact, or the
    exponent has three digits). The bytes of each row are laid out at fixed
    width with a keep-mask, and one compress joins them.
    """
    n = durations.size
    e = np.floor(np.log10(durations)).astype(np.int64)
    shift = 11 - e
    slow = np.abs(shift) > 22
    np.clip(shift, -22, 22, out=shift)
    scaled = durations * _POW10[np.maximum(shift, 0)]
    scaled /= _POW10[np.maximum(-shift, 0)]
    np.minimum(scaled, 1e13, out=scaled)  # keeps the slow rows within int64
    mantissa = scaled.astype(np.int64)
    remainder = scaled - mantissa
    slow |= mantissa < 10**11
    slow |= np.abs(remainder - 0.5) < 5e-4
    mantissa += remainder > 0.5
    slow |= mantissa >= 10**12
    # the mantissa's digits in three groups of four, then the glyphs, per row
    alphabet = np.empty((n, (12 + len(_GLYPHS)) // 4), dtype=np.uint32)
    high, rest = np.divmod(mantissa, 10**8)
    mid, low = np.divmod(rest, 10**4)
    trailing_zeros = _ZEROS4.take(low) + (low == 0) * (
        _ZEROS4.take(mid) + (mid == 0) * _ZEROS4.take(high, mode="clip"))
    for col, group in enumerate((high, mid, low)):
        alphabet[:, col] = _DIGITS4.take(group, mode="clip")
    alphabet[:, 3:] = np.frombuffer(_GLYPHS, dtype=np.uint32)
    cls = np.clip(e + 11, 0, len(_FORMAT_BODY) - 1)
    fraction = _FORMAT_FRACTION[cls]
    # strip trailing fraction zeros, and the point when no fraction is left
    kept = _FORMAT_BODY[cls] - np.where(trailing_zeros >= fraction,
                                        fraction + (fraction > 0), trailing_zeros)
    width = _VALUE_WIDTH + 1
    if labels is not None:
        label_width = len(str(int(labels.max())))
        powers = 10 ** np.arange(label_width - 1, -1, -1)
        width += 1 + label_width
    out = np.empty((n, width), dtype=np.uint8)
    keep = np.empty((n, width), dtype=bool)
    sources = _FORMAT_SOURCES.take(cls, axis=0)
    sources += np.arange(0, alphabet.nbytes, alphabet.itemsize * alphabet.shape[1],
                         dtype=np.int32)[:, None]
    out[:, :_VALUE_WIDTH] = alphabet.view(np.uint8).ravel().take(sources)
    keep[:, :_VALUE_WIDTH] = _FORMAT_KEEP.take(cls * (_VALUE_WIDTH + 1) + kept, axis=0)
    if labels is not None:
        out[:, _VALUE_WIDTH] = ord(",")
        keep[:, _VALUE_WIDTH] = True
        column = labels[:, None]
        out[:, _VALUE_WIDTH + 1:-1] = column // powers % 10 + ord("0")
        keep[:, _VALUE_WIDTH + 1:-1] = (column >= powers) | (powers == 1)
    out[:, -1] = ord("\n")
    keep[:, -1] = True
    rows = np.flatnonzero(slow)
    if rows.size:
        text = np.array(list(map("{:.12g}".format, durations[rows].tolist())),
                        dtype=f"S{_VALUE_WIDTH}").view(np.uint8).reshape(rows.size, -1)
        out[rows, :_VALUE_WIDTH] = text
        keep[rows, :_VALUE_WIDTH] = text != 0
    return np.compress(keep.ravel(), out.ravel()).tobytes()


_FORMAT_SOURCES, _FORMAT_KEEP, _FORMAT_BODY, _FORMAT_FRACTION = _format_classes()


def read_trace(path) -> IdleTrace:
    """Parse a trace file; raises DataError naming the offending line.

    Files in the strict grammar `write_trace` produces are parsed as a
    stream of line-aligned pieces (`_parse_plain`); every other file, and
    every file that pass refuses, is read again whole and goes through the
    line parser, the only source of errors.
    """
    try:
        with open(path, "rb") as fh:
            trace = _parse_plain(_pieces(fh))
            if trace is not None:
                return trace
            fh.seek(0)
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read trace file {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"trace file {path} is not UTF-8: byte {exc.start} ({exc.reason})") from exc
    return _parse_lines(text, path)


def _pieces(fh):
    """The bytes of `fh` in pieces of about `_READ_CHUNK` bytes, each cut
    after its last line end; a line longer than a piece grows the piece."""
    rest = b""
    while block := fh.read(_READ_CHUNK):
        rest += block
        cut = rest.rfind(b"\n") + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


def _parse_plain(pieces) -> IdleTrace | None:
    """The trace in the byte `pieces` (each starting a line), or None unless
    every line is a comment (`#` in its first column) or a data line
    `duration[,state]` that np.loadtxt reads with the values the line
    parser would give, and IdleTrace takes the result.

    Only printable ASCII, tab and newline are taken: on these np.loadtxt
    and float()/int() agree on what a number is. `state` is read as an
    integer, never as a float. Any warning from np.loadtxt also refuses the
    file: numpy releases that still parse `2.0` as the integer 2 say so only
    by a DeprecationWarning, and a span without data (blank lines between
    comments) warns as well.
    """
    parts, boundaries = [], [0]
    for piece in pieces:
        if piece.translate(None, _PLAIN):
            return None
        text = piece.decode("ascii")
        spans, pos = [], 0
        while (mark := text.find("#", pos)) != -1:
            if mark and text[mark - 1] != "\n":
                return None
            spans.append(text[pos:mark])
            pos = text.find("\n", mark) + 1 or len(text)
            if text.startswith(_SEGMENT_PREFIX, mark):
                try:
                    boundaries.append(int(text[mark + len(_SEGMENT_PREFIX):pos]))
                except ValueError:
                    return None
        spans.append(text[pos:])
        for chunk in filter(None, spans):
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
    if not parts:
        return None
    durations = np.concatenate([part["duration"] for part in parts])
    states = None
    if labelled:
        states = np.concatenate([part["state"] for part in parts])
        states -= 1
    del parts  # IdleTrace's checks then add to the joined arrays alone
    try:
        return IdleTrace(durations, states,
                         tuple(b for b in boundaries if b < durations.size))
    except ValueError:
        return None


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
