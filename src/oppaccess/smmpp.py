"""Semi-Markov-modulated Poisson traffic: ground-truth idle-cycle generator.

The arrival rate switches between a finite set of exponentials, one Markov
transition drawn per cycle (sojourns are integer numbers of idle times).
Packet lengths are collapsed to zero, so a trace is just the sequence of
idle durations with the hidden generating state attached to each cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import HyperExpDist
from .errors import ModelError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def steady_state(transition: np.ndarray, tol: float = STATIONARY_TOL) -> np.ndarray:
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
    if n > 1 and sv[-2] <= max(tol, sv[0] * 1e-12):
        raise ModelError("stationary vector is not unique (chain is reducible)")
    m = np.vstack([a, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    alpha, *_ = np.linalg.lstsq(m, b, rcond=None)
    if np.any(alpha <= tol):
        raise ModelError("stationary vector has non-positive entries (transient states)")
    resid = np.max(np.abs(alpha @ p - alpha))
    if resid > max(tol, 1e-12):
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
    """Segments of (cycle count, SmmppModel or HyperExpDist) played in order."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((int(c), m) for c, m in self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for count, model in segs:
            if count < 1:
                raise ValueError("segment cycle counts must be >= 1")
            if not isinstance(model, (SmmppModel, HyperExpDist)):
                raise ValueError("segment model must be SmmppModel or HyperExpDist")
        object.__setattr__(self, "segments", segs)


def _generate_arrays(model: SmmppModel, n_cycles: int, rng: np.random.Generator):
    cum = np.cumsum(model.transition, axis=1)
    cum[:, -1] = 1.0
    states = np.empty(n_cycles, dtype=np.int64)
    u = rng.random(n_cycles)
    state = int(np.searchsorted(np.cumsum(model.steady), rng.random(), side="right"))
    state = min(state, model.n - 1)
    for t in range(n_cycles):
        states[t] = state
        state = int(np.searchsorted(cum[state], u[t], side="right"))
    durations = rng.standard_exponential(n_cycles) / model.rates[states]
    return durations, states


def generate(model: SmmppModel, n_cycles: int, seed) -> IdleTrace:
    """Draw a labelled stationary trace; pure function of (model, n, seed).

    The initial state is drawn from the stationary vector, then one
    transition per cycle (self-loops allowed).
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    rng = np.random.default_rng(seed)
    durations, states = _generate_arrays(model, int(n_cycles), rng)
    return IdleTrace(durations, states)


def generate_nonstationary(schedule: NonstationarySchedule, seed) -> IdleTrace:
    """Concatenate per-segment traces, recording segment boundaries.

    Mixture segments are played as i.i.d.-state models so every cycle still
    carries a generating-state label.
    """
    rng = np.random.default_rng(seed)
    durations, states, bounds = [], [], []
    start = 0
    for count, model in schedule.segments:
        if isinstance(model, HyperExpDist):
            model = SmmppModel.from_mixture(model)
        d, s = _generate_arrays(model, count, rng)
        durations.append(d)
        states.append(s)
        bounds.append(start)
        start += count
    return IdleTrace(np.concatenate(durations), np.concatenate(states), tuple(bounds))
