"""Hyper-exponential (finite exponential mixture) idle-time distribution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEIGHT_FLOOR = 1e-12
WEIGHT_SUM_TOL = 1e-12


def _as_time_array(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    return t


@dataclass(frozen=True, eq=False)
class HyperExpDist:
    """Weighted mixture of exponential laws over idle durations.

    Components are canonicalized at construction: rates sorted ascending,
    weights below 1e-12 dropped and the remainder renormalized. Values are
    immutable and safe to share between threads; sampling takes an explicit
    generator so there is no hidden state.

    Attributes
    ----------
    weights : mixture probabilities, sum to 1
    rates : exponential rates in 1/s, ascending
    """

    weights: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        lam = np.atleast_1d(np.asarray(self.rates, dtype=float)).copy()
        if w.shape != lam.shape or w.ndim != 1 or w.size < 1:
            raise ValueError("weights and rates must be 1-d arrays of equal length >= 1")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be nonnegative and finite")
        if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
            raise ValueError("rates must be positive and finite")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w.sum()!r}")
        keep = w > WEIGHT_FLOOR
        if not np.any(keep):
            raise ValueError("all mixture weights are negligible")
        w, lam = w[keep], lam[keep]
        order = np.argsort(lam, kind="stable")
        w, lam = w[order], lam[order]
        w = w / w.sum()
        w.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", lam)

    @property
    def n(self) -> int:
        return self.rates.size

    def _decay(self, t, coef: np.ndarray):
        """sum(coef_i * exp(-lam_i t)) at nonnegative times t.

        A float time skips the array conversion and check; the product,
        exp and dot are the array path's, so both give the same bits.
        """
        if isinstance(t, float):
            if t < 0:
                raise ValueError("time must be nonnegative")
            return float(np.exp(-(t * self.rates)) @ coef)
        out = np.exp(-np.multiply.outer(_as_time_array(t), self.rates)) @ coef
        return out if out.ndim else float(out)

    def pdf(self, t):
        """Density sum(w_i * lam_i * exp(-lam_i t)); strictly positive."""
        return self._decay(t, self.weights * self.rates)

    def cdf(self, t):
        return 1.0 - self.ccdf(t)

    def ccdf(self, t):
        """Survival function sum(w_i * exp(-lam_i t))."""
        return self._decay(t, self.weights)

    def mean(self) -> float:
        return float(np.sum(self.weights / self.rates))

    def sample(self, rng: np.random.Generator, size=None):
        """Draw idle durations: pick a component by weight, then its exponential."""
        values, _ = self.sample_with_labels(rng, size=size)
        return values

    def sample_with_labels(self, rng: np.random.Generator, size=None):
        """Like sample() but also returns the generating component index."""
        squeeze = size is None
        n = 1 if squeeze else int(size)
        comps = rng.choice(self.n, size=n, p=self.weights)
        values = rng.standard_exponential(n) / self.rates[comps]
        if squeeze:
            return float(values[0]), int(comps[0])
        return values, comps

    def __repr__(self) -> str:
        w = ", ".join(f"{x:.6g}" for x in self.weights)
        lam = ", ".join(f"{x:.6g}" for x in self.rates)
        return f"HyperExpDist(weights=[{w}], rates=[{lam}])"


def exponential(rate: float) -> HyperExpDist:
    """Single-component convenience constructor."""
    return HyperExpDist(np.array([1.0]), np.array([float(rate)]))
