"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the package's own closed forms: the
slotted allocator brute-forces the budgeted maximization on a discrete
grid, the high-precision density uses decimal arithmetic, the trace
generator walks the chain one cycle at a time, and the cross-state optimal
threshold search solves each previous state's row on its own by bisection,
the markov one-shot optimum enumerates the vertices of its budget polytope,
the EM fit runs on sample-major (N, K) arrays, one window group after
the other, its starts are computed one scalar at a time, the simulator
plays one (context, episode) pair at a time, and the front-cap and tail
crossings are bisected on the CDF or survival function, or bisected in
decimal arithmetic. The two small-eta closed forms live here because
only the tests use them.
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
from oppaccess.smmpp import _initial_state
from oppaccess.strategies import (
    COLLISION_TOL,
    DEFAULT_EPSILON,
    FULL,
    MARKOV,
    STAT,
    TAU_BRACKET_FACTOR,
    Episode,
    Strategy,
    _check_eta,
    _context_laws,
    _episodes_from_taus,
    _front_cap,
    predict,
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


RESIDUAL_TOL = 1e-12
SOLVE_MAX_ITER = 250


def solve_root(f, target: float, lo: float, hi: float) -> float:
    """Bisection for monotone f: find x in [lo, hi] with f(x) = target.

    Stops on residual <= RESIDUAL_TOL; keeps halving, at most SOLVE_MAX_ITER
    times, down to float resolution if the residual is still large, and
    reports failure when even that cannot resolve the target (e.g. a target
    smaller than one ulp of f can move).
    """
    if not hi > lo:
        raise SolverError(f"empty bracket [{lo!r}, {hi!r}]")
    flo, fhi = f(lo), f(hi)
    increasing = fhi >= flo
    a, b = (flo, fhi) if increasing else (fhi, flo)
    if not a - RESIDUAL_TOL <= target <= b + RESIDUAL_TOL:
        raise SolverError(
            f"target {target!r} outside f range [{a!r}, {b!r}] on bracket [{lo!r}, {hi!r}]")
    # a target tinier than the residual tolerance must be matched in
    # relative terms, otherwise any near-zero argument would pass
    tol_eff = RESIDUAL_TOL if target == 0 else min(RESIDUAL_TOL, 0.5 * abs(target))
    x_lo, x_hi = lo, hi
    mid = 0.5 * (lo + hi)
    for _ in range(SOLVE_MAX_ITER):
        mid = 0.5 * (x_lo + x_hi)
        fm = f(mid)
        if abs(fm - target) <= tol_eff:
            return mid
        if (fm < target) == increasing:
            x_lo = mid
        else:
            x_hi = mid
        if x_hi - x_lo <= abs(mid) * 1e-17 + 5e-324:
            break
    resid = abs(f(mid) - target)
    if resid > tol_eff and resid > 1e-6 * abs(target):
        raise SolverError(
            f"bisection stalled at residual {resid:g} for target {target!r} "
            f"on bracket [{lo!r}, {hi!r}]")
    return mid


def bisect_crossing(law: HyperExpDist, mass: float, tail: bool) -> float:
    """`strategies._crossing_time` by `solve_root` on scalar `cdf`/`ccdf`
    calls: the crossing oracle, to RESIDUAL_TOL in the curve's value."""
    curve = law.ccdf if tail else law.cdf
    hi = TAU_BRACKET_FACTOR / float(law.rates[0])
    if (curve(hi) > mass) if tail else (curve(hi) < mass):
        raise SolverError(f"crossing for collision mass {mass:g} is effectively infinite")
    return solve_root(curve, mass, 0.0, hi)


def decimal_crossing(weights, rates, mass, tail: bool, digits: int = 50) -> Decimal:
    """Time at which the survival mass left (tail) or the mass already
    spent (front cap) equals `mass`, by bisection in decimal arithmetic
    on the exact binary values of the inputs, to `digits` digits. The
    weights are normalized in decimal: double weights that sum to 1 in
    floating point can miss it by an ulp, more than a tiny mass."""
    getcontext().prec = digits
    w = [Decimal(float(x)) for x in weights]
    w = [x / sum(w) for x in w]
    r = [Decimal(float(x)) for x in rates]
    target = Decimal(float(mass)) if tail else 1 - Decimal(float(mass))

    def ccdf(t):
        return sum(wi * (-ri * t).exp() for wi, ri in zip(w, r))

    lo, hi = Decimal(0), Decimal(1) / min(r)
    while ccdf(hi) > target:
        lo, hi = hi, 2 * hi
    tol = Decimal(10) ** (5 - digits)
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2
        if ccdf(mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


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
        self.single_atom = bool(np.all(rates == rates[0])) and above.any()  # one rate
        # phi's large-tau limit and its value at tau=0, the same for one rate
        self.log_asym = math.log(rates.min() - lam_star) if rates.min() > lam_star else -math.inf
        self.log_phi0 = (-math.inf if self.constant else
                         self.log_asym if self.single_atom else self._log_phi(0.0))

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

    def _log_ccdf(self, tau: float) -> float:
        spent = float(np.exp(self.log_w) @ np.expm1(-self.r * tau))
        return math.log1p(spent) if spent > -0.5 else _logsumexp(self.log_w - self.r * tau)

    def tail_at(self, mass: float, lo: float, hi: float) -> float:
        """Time in [lo, hi] at which `mass` of the idle times survive, by
        doubling an infinite `hi`, then bisecting until the bracket
        collapses."""
        target = math.log(mass)
        if math.isinf(hi):
            hi = max(2.0 * lo, 1.0 / float(self.r.min()))
            while self._log_ccdf(hi) > target:
                lo, hi = hi, 2.0 * hi
        for _ in range(1100):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if self._log_ccdf(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _logsumexp(v: np.ndarray) -> float:
    m = np.max(v)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(v - m))))


def scalar_markov_optimal(model, eta: float):
    """`strategies.markov_optimal` with the threshold bisected until its
    bracket collapses to a few ulp, and each row's threshold time found on
    its own: doubling, then up to 120 bisection steps per row and per
    outer step. A bracket that collapses with eta unresolved is split
    between its ends, each row's new time bisected on its survival."""
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
        if coll < eta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * max(abs(lo), abs(hi), 1.0):
            break
    coll, taus = total_collision(lo)
    coll_hi, taus_hi = total_collision(hi)
    # a bracket closed to a few ulp can end exactly on the jump, where
    # the constant-ratio state is still off
    at_jump = [i for i, row in enumerate(rows)
               if row.single_atom and lo <= row.log_asym <= hi + 1e-12]
    if eta - coll > COLLISION_TOL and at_jump:
        # the constant-ratio states at the jump take the residual first,
        # one after another
        for i in at_jump:
            if eta - coll <= COLLISION_TOL:
                break
            share = min(eta - coll, float(alpha[i])) / float(alpha[i])
            taus[i] = taus_hi[i] = (0.0 if share >= 1.0 - 1e-12
                                    else math.log(1.0 / share) / float(rows[i].r.min()))
            coll = float(sum(a * row.ccdf(t) for a, row, t in zip(alpha, rows, taus)))
        coll_hi = float(sum(a * row.ccdf(t) for a, row, t in zip(alpha, rows, taus_hi)))
    if abs(coll - eta) > 4.0 * math.ulp(eta) and coll_hi != coll:
        # the collision curve moves by more than that over the last ulp of
        # the threshold: every row whose survival differs between the
        # bracket ends sits at the threshold, and each moves the same share
        # of the way between its survivals at the two ends
        share = (eta - coll) / (coll_hi - coll)
        for i, row in enumerate(rows):
            ccdf_lo, ccdf_hi = row.ccdf(taus[i]), row.ccdf(taus_hi[i])
            if ccdf_lo != ccdf_hi:
                mass = ccdf_lo + share * (ccdf_hi - ccdf_lo)
                taus[i] = 0.0 if mass >= 1.0 else row.tail_at(mass, taus_hi[i], taus[i])
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


def one_shot_vertex_optimum(model, eta: float) -> float:
    """Largest predicted capacity of a markov one-shot schedule (one front
    cap from time zero per previous state) that spends eta.

    A front cap's capacity is convex in the mass it spends, since it gains
    capacity at rate 1/hazard and the hazard falls, so the optimum sits at
    a vertex of the budget polytope: whole contexts transmit, at most one
    gets a front cap for the budget left, the rest stay silent. All
    n * 2^(n-1) vertices are enumerated."""
    _check_eta(eta)
    laws = _context_laws(MARKOV, model)
    alpha = np.array([a for a, _ in laws])
    n = len(laws)
    best = -math.inf
    for capped in range(n):
        others = [i for i in range(n) if i != capped]
        for mask in range(2 ** (n - 1)):
            whole = [i for k, i in enumerate(others) if mask >> k & 1]
            share = (eta - float(alpha[whole].sum())) / float(alpha[capped])
            if not 0.0 <= share <= 1.0:
                continue
            ctxs = [(Episode(0.0, math.inf),) if i in whole else () for i in range(n)]
            if share >= 1.0 - 1e-12:
                ctxs[capped] = (Episode(0.0, math.inf),)
            elif share > 0.0:
                ctxs[capped] = (_front_cap(laws[capped][1], share),)
            best = max(best, predict(Strategy(MARKOV, tuple(ctxs), "vertex"), model).capacity)
    return best


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


def scalar_default_init(samples: np.ndarray, n_components: int) -> HyperExpDist:
    """`fit.default_init` one scalar at a time: two scalar quantiles and a
    scalar `np.geomspace`, the starts' formula before it was batched."""
    lo = 1.0 / float(np.quantile(samples, 0.98))
    hi = 1.0 / float(np.quantile(samples, 0.02))
    if n_components == 1:
        rates = np.array([1.0 / samples.mean()])
    elif hi <= lo * (1 + 1e-12):
        rates = lo * (1 + 1e-6) ** np.arange(n_components)
    else:
        rates = np.geomspace(lo, hi, n_components)
    return HyperExpDist(np.full(n_components, 1.0 / n_components), rates)


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


def per_episode_run(trace, strategy, source=None, seed=0):
    """`access`, `collided` and `first_context` of `simulate.run`, one
    (context, episode) pair at a time over masks of the whole trace, with
    the draws in `run`'s order: the first context, then one `rng.random(n)`
    per episode with probability below 1, context by context."""
    rng = np.random.default_rng(seed)
    n = trace.n
    first = None
    if strategy.mode == STAT:
        ctx_ids = np.zeros(n, dtype=np.int64)
    elif strategy.mode == FULL:
        ctx_ids = trace.states.astype(np.int64)
    else:
        first = _initial_state(source, rng)
        ctx_ids = np.empty(n, dtype=np.int64)
        ctx_ids[0] = first
        ctx_ids[1:] = trace.states[:-1]
    x = trace.durations
    access = np.zeros(n)
    collided = np.zeros(n, dtype=bool)
    for c, episodes in enumerate(strategy.episodes):
        in_ctx = ctx_ids == c
        for ep in episodes:
            if ep.prob < 1.0:
                active = in_ctx & (rng.random(n) < ep.prob)
            else:
                active = in_ctx
            started = active & (x > ep.start)
            if math.isinf(ep.end):
                access[started] += x[started] - ep.start
                collided[started] = True
            else:
                access[started] += np.minimum(x[started], ep.end) - ep.start
                collided[started] |= x[started] <= ep.end
    return access, collided, first
