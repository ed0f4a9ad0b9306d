"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own closed forms: the
slotted allocator brute-forces the budgeted maximization on a discrete
grid, the high-precision density uses decimal arithmetic, and the trace
generator walks the chain one cycle at a time.
"""

from decimal import Decimal, getcontext

import numpy as np


def slotted_greedy_capacity(model, eta: float, delta: float, horizon: float) -> float:
    """Budgeted slot allocation: split [0, horizon] into width-delta slots
    per conditioning state, spend the collision budget on slots in
    decreasing order of access-per-collision, fractional last slot."""
    alpha = model.steady
    edges = np.arange(0.0, horizon + delta, delta)
    ratio_parts, weight_parts, value_parts = [], [], []
    for i in range(model.n):
        dist = model.conditional_next_dist(i)
        cdf = dist.cdf(edges)
        survival = 1.0 - cdf[:-1]
        slot_mass = np.diff(cdf)
        ratio_parts.append(survival * delta / np.maximum(slot_mass, 1e-300))
        weight_parts.append(alpha[i] * slot_mass)
        value_parts.append(alpha[i] * survival * delta)
    ratio = np.concatenate(ratio_parts)
    weight = np.concatenate(weight_parts)
    value = np.concatenate(value_parts)
    order = np.argsort(-ratio, kind="stable")
    cum = np.cumsum(weight[order])
    k = int(np.searchsorted(cum, eta))
    capacity = float(value[order][:k].sum())
    if k < order.size:
        spent = float(cum[k - 1]) if k else 0.0
        frac = (eta - spent) / float(weight[order][k])
        capacity += frac * float(value[order][k])
    return capacity


def decimal_mixture_pdf(weights, rates, t, digits: int = 50) -> Decimal:
    """Term-by-term mixture density in decimal arithmetic."""
    getcontext().prec = digits
    total = Decimal(0)
    for w, lam in zip(weights, rates):
        w, lam = Decimal(str(w)), Decimal(str(lam))
        total += w * lam * (-lam * Decimal(str(t))).exp()
    return total


def per_cycle_walk(model, n_cycles: int, rng):
    """Durations and states of a semi-Markov trace, one transition per cycle,
    drawing from `rng` in the order `smmpp.generate` does: the transition
    uniforms, the initial state, then the exponentials."""
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
