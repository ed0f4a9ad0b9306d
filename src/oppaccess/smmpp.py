"""Semi-Markov-modulated Poisson traffic: ground-truth idle-cycle generator.

The arrival rate switches between a finite set of exponentials, one Markov
transition drawn per cycle (sojourns are integer numbers of idle times).
Packet lengths are collapsed to zero, so a trace is just the sequence of
idle durations with the hidden generating state attached to each cycle.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .distribution import HyperExpDist
from .errors import ModelError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def steady_state(transition: np.ndarray) -> np.ndarray:
    """Stationary weights of a row-stochastic matrix, alpha = alpha P.

    Solves the linear system directly (the chains here are small) and
    rejects matrices whose stationary vector is not unique and strictly
    positive.
    """
    p = np.asarray(transition, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise ModelError("transition matrix must be square")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ModelError("transition probabilities must be nonnegative and finite")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ModelError(f"transition matrix rows must sum to 1 within {ROW_SUM_TOL}")
    n = p.shape[0]
    a = p.T - np.eye(n)
    # a one-dimensional null space is required for uniqueness
    sv = np.linalg.svd(a, compute_uv=False)
    if n > 1 and sv[-2] <= max(STATIONARY_TOL, sv[0] * 1e-12):
        raise ModelError("stationary vector is not unique (chain is reducible)")
    m = np.vstack([a, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    alpha, *_ = np.linalg.lstsq(m, b, rcond=None)
    if np.any(alpha <= STATIONARY_TOL):
        raise ModelError("stationary vector has non-positive entries (transient states)")
    resid = np.max(np.abs(alpha @ p - alpha))
    if resid > max(STATIONARY_TOL, 1e-12):
        raise ModelError(f"stationary solve residual {resid:g} above tolerance")
    return alpha / alpha.sum()


@dataclass(frozen=True, eq=False)
class SmmppModel:
    """Arrival rates plus the semi-Markov transition matrix between them.

    Rates are sorted ascending at construction and the matrix rows/columns
    are permuted to match. The stationary vector is computed once and cached.
    """

    rates: np.ndarray
    transition: np.ndarray
    steady: np.ndarray = field(init=False)

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.rates, dtype=float)).copy()
        p = np.asarray(self.transition, dtype=float).copy()
        if p.shape != (lam.size, lam.size):
            raise ModelError("transition matrix shape must match the number of rates")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ModelError("rates must be positive and finite")
        order = np.argsort(lam, kind="stable")
        lam = lam[order]
        p = p[np.ix_(order, order)]
        alpha = steady_state(p)
        for arr in (lam, p, alpha):
            arr.flags.writeable = False
        object.__setattr__(self, "rates", lam)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "steady", alpha)

    @property
    def n(self) -> int:
        return self.rates.size

    @cached_property
    def _laws(self) -> dict:
        """Context laws by strategy mode, filled on first use by
        `strategies._context_laws`. The laws are immutable, so every
        construction and prediction on this model shares them."""
        return {}

    @classmethod
    def from_mixture(cls, dist: HyperExpDist) -> "SmmppModel":
        """I.i.d.-state model whose every row equals the mixture weights."""
        p = np.tile(dist.weights, (dist.n, 1))
        return cls(dist.rates.copy(), p)

    def marginal_dist(self) -> HyperExpDist:
        """Steady-state idle-duration law: weights alpha, same rates."""
        return HyperExpDist(self.steady.copy(), self.rates.copy())

    def conditional_next_dist(self, prev_state: int) -> HyperExpDist:
        """Law of the next idle time given the previous cycle's state."""
        if not 0 <= prev_state < self.n:
            raise ModelError(f"state index {prev_state} out of range 0..{self.n - 1}")
        return HyperExpDist(self.transition[prev_state].copy(), self.rates.copy())


@dataclass(frozen=True, eq=False)
class IdleTrace:
    """Ordered idle cycles: durations plus optional generating-state labels.

    ``boundaries`` marks the first cycle index of each schedule segment
    (always starts with 0); a stationary trace has a single segment.
    """

    durations: np.ndarray
    states: np.ndarray | None = None
    boundaries: tuple[int, ...] = (0,)

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("durations must be a non-empty 1-d array")
        if not np.all(d > 0) or not np.isfinite(d.max()):
            raise ValueError("durations must be positive and finite")
        d.flags.writeable = False
        object.__setattr__(self, "durations", d)
        if self.states is not None:
            s = np.asarray(self.states, dtype=np.int64)
            if s.shape != d.shape:
                raise ValueError("states must align with durations")
            if np.any(s < 0):
                raise ValueError("state labels must be nonnegative")
            s.flags.writeable = False
            object.__setattr__(self, "states", s)
        bounds = tuple(int(b) for b in self.boundaries)
        if not bounds or bounds[0] != 0 or list(bounds) != sorted(set(bounds)):
            raise ValueError("boundaries must be sorted, unique and start at 0")
        if bounds[-1] >= d.size:
            raise ValueError("boundary beyond end of trace")
        object.__setattr__(self, "boundaries", bounds)

    @property
    def n(self) -> int:
        return self.durations.size


@dataclass(frozen=True)
class NonstationarySchedule:
    """Segments of (cycle count, SmmppModel or HyperExpDist) played in order;
    a count is an integer-valued number, not a bool."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for count, model in segs:
            if (isinstance(count, (bool, np.bool_)) or not isinstance(count, numbers.Real)
                    or count % 1 != 0):
                raise ValueError(f"segment cycle counts must be integers, got {count!r}")
            if count < 1:
                raise ValueError("segment cycle counts must be >= 1")
            if not isinstance(model, (SmmppModel, HyperExpDist)):
                raise ValueError("segment model must be SmmppModel or HyperExpDist")
        object.__setattr__(self, "segments", tuple((int(c), m) for c, m in segs))


# The walk composes per-cycle transition maps within blocks of _BLOCK cycles
# and steps through block heads only; _CHUNK_MAPS bounds the map entries
# (cycles x states, one byte each for up to 256 states) held at once.
# `_fill` works in chunks of the same cycle count, so it holds no temporary
# as long as the trace.
_BLOCK = 1024
_CHUNK_MAPS = 1 << 20


def _walk(cum: np.ndarray, u: np.ndarray, state: int, out: np.ndarray) -> int:
    """Write the state after each transition draw of `u` into `out`, starting
    from `state`, and return the last of them.

    Cycle t's transition is the map f_t(s) = searchsorted(cum[s], u[t]). The
    maps of each block are composed in place, so row j holds, for every
    block, f_j o ... o f_0 over that block's cycles; only the block heads
    are walked one at a time (a prefix scan of function composition,
    Blelloch 1990).
    """
    k = cum.shape[0]
    width = min(_BLOCK, u.size)  # a short chunk is one block of its own size
    blocks = -(-u.size // width)
    drawn = np.zeros(blocks * width, dtype=np.min_scalar_type(k - 1))
    maps = np.empty((width, blocks, k), dtype=drawn.dtype)
    for i in range(k):
        drawn[:u.size] = np.searchsorted(cum[i], u, side="right")
        maps[:, :, i] = drawn.reshape(blocks, width).T
    rows = maps.reshape(width, blocks * k)
    offsets = np.arange(0, blocks * k, k).repeat(k)
    for j in range(1, width):
        rows[j] = rows[j][rows[j - 1] + offsets]
    heads = []
    for last in maps[-1].tolist():
        heads.append(state)
        state = last[state]
    out[:] = maps[:, np.arange(blocks), heads].T.reshape(-1)[:out.size]
    return int(out[-1])


def _initial_state(model: SmmppModel, rng: np.random.Generator) -> int:
    """A state drawn from the stationary vector with one uniform."""
    state = int(np.searchsorted(np.cumsum(model.steady), rng.random(), side="right"))
    return min(state, model.n - 1)


def _fill(model: SmmppModel, rng: np.random.Generator, durations: np.ndarray,
          states: np.ndarray) -> None:
    """Draw one segment of `model` traffic into the equal-length slices
    `durations` and `states`: the transition uniforms, the initial state,
    then the exponentials."""
    cum = np.cumsum(model.transition, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(states.size)
    state = states[0] = _initial_state(model, rng)
    iid = (model.transition == model.transition[0]).all()
    chunk = max(1, _CHUNK_MAPS // (_BLOCK * model.n)) * _BLOCK
    # the draw of the last cycle picks a successor that is never recorded
    for start in range(0, states.size - 1, chunk):
        stop = min(start + chunk, states.size - 1)
        if iid:  # the next state does not depend on the current one
            states[start + 1:stop + 1] = np.searchsorted(cum[0], u[start:stop], side="right")
        else:
            state = _walk(cum, u[start:stop], state, states[start + 1:stop + 1])
    del u
    rng.standard_exponential(out=durations)
    for start in range(0, states.size, chunk):
        durations[start:start + chunk] /= model.rates[states[start:start + chunk]]


def generate(model: SmmppModel | HyperExpDist, n_cycles: int, seed) -> IdleTrace:
    """Draw a labelled stationary trace; pure function of (model, n, seed).

    The one-segment schedule of `generate_nonstationary`: the initial state
    is drawn from the stationary vector, then one transition per cycle
    (self-loops allowed).
    """
    return generate_nonstationary(NonstationarySchedule(((n_cycles, model),)), seed)


def generate_nonstationary(schedule: NonstationarySchedule, seed) -> IdleTrace:
    """Play the segments in order, recording segment boundaries.

    Mixture segments are played as i.i.d.-state models so every cycle still
    carries a generating-state label.
    """
    bounds = np.cumsum([0] + [count for count, _ in schedule.segments]).tolist()
    durations = np.empty(bounds[-1])
    states = np.empty(bounds[-1], dtype=np.int64)
    rng = np.random.default_rng(seed)
    for (_, model), start, stop in zip(schedule.segments, bounds, bounds[1:]):
        if isinstance(model, HyperExpDist):
            model = SmmppModel.from_mixture(model)
        _fill(model, rng, durations[start:stop], states[start:stop])
    return IdleTrace(durations, states, tuple(bounds[:-1]))
