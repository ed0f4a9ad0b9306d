"""Discrete-event evaluation of transmission strategies against idle traces.

A cycle is one idle duration ended by a primary arrival. The secondary
user transmits inside its scheduled episodes while the channel stays idle
(perfect zero-delay sensing) and collides exactly when the arrival lands
inside an active episode; at most one collision per cycle. Collision is
continuous-time: an episode (a, b] collides with idle duration X iff
a < X <= b.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelError
from .smmpp import IdleTrace, SmmppModel, _initial_state
from .strategies import FULL, STAT, Strategy

DEFAULT_WINDOW = 100
SE_BATCH = 1000
# cycles per block of the episode passes in `run`: temporaries stay small
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SimResult:
    """Measured outcome of one strategy/trace run.

    Standard errors come from batch means (batches of ~1000 cycles), which
    stays honest when the traffic states make consecutive cycles dependent.
    ``window_collisions`` holds collided counts per full window of
    ``window`` cycles; ``outage_prob`` is the fraction of those windows
    whose collision rate strictly exceeds the stated budget (None when no
    budget was given).
    """

    n_cycles: int
    total_access: float
    capacity: float
    collided_count: int
    collision_prob: float
    capacity_se: float
    collision_se: float
    window: int
    window_collisions: np.ndarray = field(repr=False)
    collided: np.ndarray = field(repr=False)
    access: np.ndarray = field(repr=False)
    first_context: int | None = None
    eta: float | None = None
    outage_prob: float | None = None


def _contexts(trace: IdleTrace, strategy: Strategy, source, rng) -> tuple[np.ndarray | None, int | None]:
    """The labels the context of cycle t is read from, and the drawn first
    context: none in stat mode; in full mode cycle t's own label; in markov
    mode the previous cycle's label, after the first context drawn from
    `source`."""
    if strategy.mode == STAT:
        return None, None
    if trace.states is None:
        raise DataError(
            f"{strategy.mode}-mode strategies need state labels, trace has none")
    if int(trace.states.max()) >= strategy.n_contexts:
        raise DataError(
            f"trace state {int(trace.states.max())} out of range for "
            f"{strategy.n_contexts} strategy contexts")
    if strategy.mode == FULL:
        return trace.states, None
    if not isinstance(source, SmmppModel):
        raise ModelError("markov mode needs the model to draw the initial conditioning state")
    if source.n != strategy.n_contexts:
        raise ModelError(
            f"markov strategy has {strategy.n_contexts} contexts but the source "
            f"model has {source.n} states")
    return trace.states, _initial_state(source, rng)


def _block_contexts(states: np.ndarray, first: int | None, lo: int, hi: int) -> np.ndarray:
    """Context ids of cycles [lo, hi) (see `_contexts`)."""
    if first is None:
        return states[lo:hi]
    if lo:
        return states[lo - 1:hi - 1]
    return np.concatenate(([first], states[:hi - 1]))


def _check_window(window) -> int:
    if (isinstance(window, (bool, np.bool_)) or not isinstance(window, numbers.Real)
            or window % 1 != 0):
        raise ValueError(f"window must be an integer, got {window!r}")
    if window < 1:
        raise ValueError("window must be >= 1")
    return int(window)


def _check_eta(eta) -> None:
    if eta is not None and math.isnan(eta):
        raise ValueError("eta must not be NaN")


def run(trace: IdleTrace, strategy: Strategy, source=None, seed=0,
        window: int = DEFAULT_WINDOW, eta: float | None = None) -> SimResult:
    """Play a strategy over every cycle of a trace.

    ``source`` is only consulted in markov mode (initial conditioning state
    drawn from its stationary law). Episode transmit probabilities below 1
    consume one Bernoulli draw per episode per cycle from the seeded
    stream, so identical (trace, strategy, seed) reproduce exactly. With
    ``eta`` given, a trace shorter than one window has no outage figure and
    is refused (DataError) before anything is simulated, as `outage`
    refuses it.

    Episodes are played depth by depth: pass j gathers every cycle's j-th
    episode by context id, in blocks of `_BLOCK` cycles, and adds its access
    after pass j-1's, so each cycle sums its episodes in schedule order.
    """
    window = _check_window(window)
    _check_eta(eta)
    if eta is not None and trace.n < window:
        raise DataError(f"trace too short for a single window of {window} cycles")
    rng = np.random.default_rng(seed)
    states, first_context = _contexts(trace, strategy, source, rng)
    x = trace.durations
    n = trace.n
    depth = max(map(len, strategy.episodes))
    # padding: no duration exceeds an infinite start
    starts = np.full((depth, strategy.n_contexts), np.inf)
    ends = np.full_like(starts, np.inf)
    gates = [None] * depth
    for c, episodes in enumerate(strategy.episodes):
        for j, ep in enumerate(episodes):
            starts[j, c], ends[j, c] = ep.start, ep.end
            if ep.prob < 1.0:
                # the draw gates only context c's cycles in pass j
                draw = rng.random(n) < ep.prob
                if states is None:
                    gates[j] = draw
                else:
                    if gates[j] is None:
                        gates[j] = np.ones(n, dtype=bool)
                    np.copyto(gates[j], draw,
                              where=_block_contexts(states, first_context, 0, n) == c)
    access = np.zeros(n)
    collided = np.zeros(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        xb, ab, cb = x[lo:hi], access[lo:hi], collided[lo:hi]
        ctx = None if states is None else _block_contexts(states, first_context, lo, hi)
        for j in range(depth):
            if ctx is None:
                s, e = starts[j, 0], ends[j, 0]
            else:
                s, e = starts[j].take(ctx), ends[j].take(ctx)
            # min(x, e) - s where x > s, else 0.0: a cycle's access adds
            # exact zeros for the episodes it never reaches
            part = np.minimum(xb, e, out=None if j else ab)
            part -= s
            np.maximum(part, 0.0, out=part)
            hit = np.greater(xb, s, out=None if j else cb)
            hit &= xb <= e
            if gates[j] is not None:
                part *= gates[j][lo:hi]
                hit &= gates[j][lo:hi]
            if j:
                ab += part
                cb |= hit
    total = float(access.sum())
    count = int(collided.sum())
    window_collisions = _window_sums(collided, window)
    outage_prob = None
    if eta is not None:
        outage_prob = float(np.mean(window_collisions / window > eta))
    return SimResult(
        n_cycles=n,
        total_access=total,
        capacity=total / n,
        collided_count=count,
        collision_prob=count / n,
        capacity_se=_batch_se(access),
        collision_se=_batch_se(collided.astype(float)),
        window=window,
        window_collisions=window_collisions,
        collided=collided,
        access=access,
        first_context=first_context,
        eta=eta,
        outage_prob=outage_prob,
    )


def _window_sums(values: np.ndarray, window: int) -> np.ndarray:
    """Sum of `values` over each full window of `window` cycles."""
    n_windows = values.size // window
    return values[: n_windows * window].reshape(n_windows, window).sum(axis=1)


def _batch_se(values: np.ndarray) -> float:
    n = values.size
    means = _window_sums(values, SE_BATCH) / SE_BATCH
    if means.size >= 2:
        return float(means.std(ddof=1) / math.sqrt(means.size))
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("nan")


def outage(result: SimResult, eta: float, window: int | None = None) -> float:
    """Fraction of full fixed-size windows whose collision rate strictly
    exceeds the budget."""
    w = result.window if window is None else _check_window(window)
    _check_eta(eta)
    counts = _window_sums(result.collided, w)
    if not counts.size:
        raise DataError(f"trace too short for a single window of {w} cycles")
    return float(np.mean(counts / w > eta))


@dataclass(frozen=True)
class CompareRow:
    name: str
    capacity: float
    collision_prob: float
    outage_prob: float
    result: SimResult = field(repr=False)


def compare(strategies: dict[str, Strategy], trace: IdleTrace, eta: float,
            seed=0, source=None, window: int = DEFAULT_WINDOW) -> list[CompareRow]:
    """Run several strategies over the identical trace.

    Randomness is shared only through the trace; each strategy gets its own
    child stream of the given seed for its Bernoulli draws and initial
    context. Rows come back in input order.
    """
    seeds = np.random.SeedSequence(seed).spawn(len(strategies))
    rows = []
    for (name, strategy), child in zip(strategies.items(), seeds):
        res = run(trace, strategy, source=source, seed=child, window=window, eta=eta)
        rows.append(CompareRow(name, res.capacity, res.collision_prob, res.outage_prob, res))
    return rows
