"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own closed forms: the
slotted allocator brute-forces the budgeted maximization on a discrete
grid, the high-precision density uses decimal arithmetic, the trace
generator walks the chain one cycle at a time, and the cross-state optimal
threshold search solves each previous state's row on its own by bisection,
and the EM fit runs on sample-major (N, K) arrays, one window group after
the other. The two small-eta closed forms live here because only the tests
use them.
"""

import math
from decimal import Decimal, getcontext

import numpy as np

from oppaccess.distribution import HyperExpDist
from oppaccess.errors import DataError, SolverError
from oppaccess.fit import (
    EM_MAX_ITER,
    EM_TOL,
    FitResult,
    WindowedFit,
    _merge_close_rates,
    _validate_samples,
    default_init,
)
from oppaccess.strategies import (
    COLLISION_TOL,
    DEFAULT_EPSILON,
    MARKOV,
    _check_eta,
    _context_laws,
    _episodes_from_taus,
)


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


class ConditionalRow:
    """Log-domain view of one conditional mixture for the cross-state
    threshold search, one row at a time: `scalar_markov_optimal`'s reference
    for the row-batched solver in `strategies`.

    The optimal cross-state allocation equalizes the value-to-cost ratio
    (1-F_i)/f_i across active states. That ratio equals 1/(lam_min + phi)
    where phi is the hazard excess over the globally slowest rate, so the
    search runs on log(phi): the ratio itself can approach its supremum
    closer than one double ulp for well-separated rates, while log(phi)
    stays perfectly resolvable.
    """

    def __init__(self, weights: np.ndarray, rates: np.ndarray, lam_star: float):
        self.log_w = np.log(weights)
        self.r = rates
        self.lam_star = lam_star
        above = rates > lam_star
        self.log_num_w = np.log(weights[above] * (rates[above] - lam_star))
        self.num_r = rates[above]
        self.constant = not np.any(above)  # phi identically 0 (pure lam_star row)
        self.single_atom = weights.size == 1 and above.any()
        # phi at tau=0 and its large-tau limit
        self.log_phi0 = -math.inf if self.constant else self._log_phi(0.0)
        self.log_asym = math.log(rates.min() - lam_star) if rates.min() > lam_star else -math.inf

    def _log_phi(self, tau: float) -> float:
        num = self.log_num_w - self.num_r * tau
        den = self.log_w - self.r * tau
        return _logsumexp(num) - _logsumexp(den)

    def tau_at(self, log_phi_bar: float) -> float:
        """Smallest tau with log phi(tau) <= log_phi_bar; inf if unreachable."""
        if self.constant or log_phi_bar >= self.log_phi0:
            return 0.0
        if log_phi_bar <= self.log_asym:
            return math.inf
        hi = 1.0 / float(self.r.min())
        for _ in range(200):
            if self._log_phi(hi) < log_phi_bar:
                break
            hi *= 2.0
        else:
            return math.inf
        lo = 0.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if self._log_phi(mid) > log_phi_bar:
                lo = mid
            else:
                hi = mid
            if hi - lo <= hi * 1e-15:
                break
        return 0.5 * (lo + hi)

    def ccdf(self, tau: float) -> float:
        if math.isinf(tau):
            return 0.0
        return float(np.exp(_logsumexp(self.log_w - self.r * tau)))


def _logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def scalar_markov_optimal(model, eta: float):
    """`strategies.markov_optimal` with each row's threshold time found on
    its own: doubling, then up to 120 bisection steps per row and per
    outer step."""
    _check_eta(eta)
    lam_star = float(model.rates.min())
    rows = [ConditionalRow(law.weights, law.rates, lam_star)
            for _, law in _context_laws(MARKOV, model)]
    alpha = model.steady

    def total_collision(log_phi_bar: float) -> tuple[float, list[float]]:
        taus = []
        for row in rows:
            if row.single_atom:
                # constant ratio: include the whole state only above its level
                taus.append(0.0 if log_phi_bar > row.log_asym else math.inf)
            else:
                taus.append(row.tau_at(log_phi_bar))
        coll = float(sum(a * row.ccdf(t) for a, row, t in zip(alpha, rows, taus)))
        return coll, taus

    log_hi = max((r.log_phi0 for r in rows if not r.constant), default=0.0)
    log_hi = log_hi + 1.0 if math.isfinite(log_hi) else 1.0
    log_lo = -800.0
    c_lo, taus = total_collision(log_lo)
    while c_lo > eta + COLLISION_TOL and log_lo > -1e7:
        log_lo *= 4.0
        c_lo, taus = total_collision(log_lo)
    if abs(c_lo - eta) <= COLLISION_TOL:
        return _episodes_from_taus(model, taus, "markov_optimal")
    if c_lo > eta:
        for i, row in enumerate(rows):
            taus[i] = math.inf if row.constant else taus[i]
        at_jump = [i for i, row in enumerate(rows) if row.constant]
        return _scalar_finish_with_atoms(model, rows, alpha, taus, eta, at_jump)
    lo, hi = log_lo, log_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        coll, taus = total_collision(mid)
        if abs(coll - eta) <= COLLISION_TOL:
            return _episodes_from_taus(model, taus, "markov_optimal")
        if coll < eta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= max(abs(mid), 1.0) * 1e-14:
            break
    coll, taus = total_collision(lo)
    if eta - coll > COLLISION_TOL:
        at_jump = [i for i, row in enumerate(rows)
                   if row.single_atom and lo < row.log_asym <= hi + 1e-12]
        return _scalar_finish_with_atoms(model, rows, alpha, taus, eta, at_jump)
    return _episodes_from_taus(model, taus, "markov_optimal")


def _scalar_finish_with_atoms(model, rows, alpha, taus, eta, at_jump):
    for i, row in enumerate(rows):
        if not math.isinf(taus[i]) and taus[i] > 0.0 and row.ccdf(taus[i]) == 0.0:
            taus[i] = math.inf
    coll = float(sum(a * row.ccdf(t) for a, row, t in zip(alpha, rows, taus)))
    residual = eta - coll
    if residual < -COLLISION_TOL:
        raise SolverError("collision budget overshot while resolving a threshold tie")
    for i in at_jump:
        if residual <= COLLISION_TOL:
            break
        row = rows[i]
        state_mass = float(alpha[i])
        take = min(residual, state_mass)
        share = take / state_mass
        if share >= 1.0 - 1e-12:
            taus[i] = 0.0
        else:
            rate = float(row.r.min())
            taus[i] = math.log(1.0 / share) / rate
        residual -= take
    if residual > max(COLLISION_TOL, 1e-9):
        raise SolverError(
            f"could not place residual collision mass {residual:g}; "
            "no state sits at the threshold level")
    return _episodes_from_taus(model, taus, "markov_optimal")


def markov_os_balanced_small_eta_capacity(model, eta: float) -> float:
    """Linearized capacity sum(alpha_i * eta / sum_j p_ij lam_j); exact only
    while every cap stays well inside all component time scales."""
    _check_eta(eta)
    row_rates = model.transition @ model.rates
    return float(np.sum(model.steady * eta / row_rates))


def multiple_shot_small_eta_capacity(weights, rates, eta: float,
                                     epsilon: float = DEFAULT_EPSILON) -> float:
    """Small-eta capacity of the multiple-shot schedule under design weights:
    each slow component contributes its shots discounted by the probability
    of surviving the preceding confidence waits."""
    _check_eta(eta)
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    r = np.atleast_1d(np.asarray(rates, dtype=float))
    if w.shape != r.shape:
        raise ValueError("weights and rates must align")
    n = r.size
    wait = np.log(1.0 / epsilon) / r
    total = eta / r[-1]
    for j in range(n - 1):
        total += w[j] * sum(math.exp(-r[j] * wait[i + 1]) * eta / r[i]
                            for i in range(j, n - 1))
    return float(total)


def row_major_em_fit(samples, n_components: int, init: HyperExpDist | None = None) -> FitResult:
    """`fit.em_fit` on (N, K) arrays: each E-step reduces along the length-K
    axis, and the M-step sums accumulate row by row over the samples."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    x = _validate_samples(samples, 10 * n_components)
    if init is None:
        init = default_init(x, n_components)
    elif init.n != n_components:
        raise ValueError("init component count does not match n_components")
    w = init.weights.copy()
    lam = init.rates.copy()

    history = []
    dropped = 0
    converged = False
    ll_prev = None
    it = 0
    for it in range(1, EM_MAX_ITER + 1):
        # E-step in log space: log w_k + log lam_k - lam_k x_i
        logterm = np.log(w) + np.log(lam) - np.multiply.outer(x, lam)
        m = logterm.max(axis=1, keepdims=True)
        expterm = np.exp(logterm - m)
        norm = expterm.sum(axis=1, keepdims=True)
        ll = float(np.sum(m) + np.sum(np.log(norm)))
        history.append(ll)
        resp = expterm / norm
        # M-step
        mass = resp.sum(axis=0)
        alive = mass > x.size * 1e-15
        if not np.all(alive):
            dropped += int(np.sum(~alive))
            resp, mass = resp[:, alive], mass[alive]
            lam = lam[alive]
            if lam.size == 0:
                raise DataError("all mixture components collapsed")
        w = mass / x.size
        lam = mass / (resp * x[:, None]).sum(axis=0)
        if ll_prev is not None and abs(ll - ll_prev) <= EM_TOL * max(1.0, abs(ll_prev)):
            converged = True
            break
        ll_prev = ll

    w, lam, merged = _merge_close_rates(w, lam)
    dist = HyperExpDist(w / w.sum(), lam)
    return FitResult(
        dist=dist,
        log_likelihood=history[-1],
        loglik_history=np.asarray(history),
        n_iter=it,
        converged=converged,
        dropped_components=dropped,
        merged_components=merged,
    )


def per_group_windowed_fit(samples, group_size: int, n_components: int) -> WindowedFit:
    """`fit.windowed_fit` as one `row_major_em_fit` per group, in order."""
    if group_size < 10 * n_components:
        raise DataError(f"group_size must be >= {10 * n_components}")
    x = _validate_samples(samples, group_size)
    n_groups = x.size // group_size
    if n_groups < 1:
        raise DataError("not enough samples for a single group")
    results, failed = [], []
    for g in range(n_groups):
        chunk = x[g * group_size:(g + 1) * group_size]
        try:
            results.append(row_major_em_fit(chunk, n_components))
        except DataError:
            results.append(None)
            failed.append(g)
    return WindowedFit(tuple(results), group_size, n_components, tuple(failed))
