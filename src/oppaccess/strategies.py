"""Construction of secondary transmission strategies and their predicted
capacity / probability-of-collision in closed or semi-closed form.

Every strategy is an explicit per-context list of transmit episodes
(start, end, probability); a context is the conditioning state the
secondary user can observe (one context for purely statistical knowledge,
one per traffic state for markov/full knowledge). Within an episode the
user transmits while the channel stays idle and aborts on the primary
arrival. All constructions are pure functions of their inputs.

Note on ties: when all rates coincide the value-to-cost ratio is constant
and every policy spending the same collision budget has equal capacity;
the tail policy is emitted as the canonical representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import WEIGHT_FLOOR, HyperExpDist, exponential
from .errors import ModelError, SolverError
from .smmpp import SmmppModel

TAU_BRACKET_FACTOR = 50.0
DEFAULT_EPSILON = 1e-3
RESIDUAL_TOL = 1e-12
SOLVE_MAX_ITER = 250
COLLISION_TOL = 1e-11

STAT, MARKOV, FULL = "stat", "markov", "full"
_MODES = (STAT, MARKOV, FULL)


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


@dataclass(frozen=True)
class Episode:
    """One transmit window [start, end) entered with probability prob."""

    start: float
    end: float
    prob: float = 1.0

    def __post_init__(self):
        if not (self.start >= 0 and self.end > self.start):
            raise ValueError(f"episode must have 0 <= start < end, got {self}")
        if not 0 < self.prob <= 1:
            raise ValueError("episode probability must be in (0, 1]")


@dataclass(frozen=True)
class Strategy:
    """Per-context transmit schedule with stop-on-detection semantics."""

    mode: str
    episodes: tuple[tuple[Episode, ...], ...]
    name: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        eps = tuple(tuple(ctx) for ctx in self.episodes)
        if self.mode == STAT and len(eps) != 1:
            raise ValueError("statistical strategies have exactly one context")
        if not eps:
            raise ValueError("strategy needs at least one context")
        for ctx in eps:
            prev_end = 0.0
            for k, ep in enumerate(ctx):
                if k and ep.start < prev_end:
                    raise ValueError(f"episodes overlap or are unsorted in {self.name}")
                prev_end = ep.end
        object.__setattr__(self, "episodes", eps)

    @property
    def n_contexts(self) -> int:
        return len(self.episodes)

    def to_record(self) -> dict:
        return {
            "mode": self.mode,
            "name": self.name,
            "contexts": [
                [{"start": ep.start,
                  "end": None if math.isinf(ep.end) else ep.end,
                  "prob": ep.prob} for ep in ctx]
                for ctx in self.episodes
            ],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Strategy":
        contexts = tuple(
            tuple(Episode(e["start"], math.inf if e["end"] is None else e["end"],
                          e.get("prob", 1.0)) for e in ctx)
            for ctx in rec["contexts"]
        )
        return cls(rec["mode"], contexts, rec["name"])


@dataclass(frozen=True)
class StrategyPrediction:
    """Closed-form capacity (s/cycle) and collision probability, with the
    per-context split for markov/full strategies."""

    capacity: float
    collision: float
    per_state: tuple | None = None


def _check_eta(eta: float):
    if not 0 < eta < 1:
        raise ValueError(f"collision budget must be in (0, 1), got {eta!r}")


def _episode_metrics(weights: np.ndarray, rates: np.ndarray,
                     episodes: tuple[Episode, ...]) -> tuple[float, float]:
    cap = col = 0.0
    for ep in episodes:
        ea = np.exp(-rates * ep.start)
        eb = np.exp(-rates * ep.end) if math.isfinite(ep.end) else np.zeros_like(rates)
        cap += ep.prob * float(np.sum(weights / rates * (ea - eb)))
        col += ep.prob * float(np.sum(weights * (ea - eb)))
    return cap, col


def _context_laws(mode: str, source) -> tuple[tuple[float, HyperExpDist], ...]:
    """(stationary weight, idle-time law) of each context a `mode` strategy
    conditions on: the marginal law for stat, the next-idle law given the
    previous state for markov, the current state's exponential for full.
    A model's laws are built once per mode and kept in its `_laws` cache."""
    if mode == STAT and isinstance(source, HyperExpDist):
        return ((1.0, source),)
    if not isinstance(source, SmmppModel):
        if mode == STAT:
            raise ModelError(f"unsupported source {type(source).__name__}")
        raise ModelError(f"{mode}-mode strategies need an SmmppModel source")
    laws = source._laws.get(mode)
    if laws is None:
        if mode == STAT:
            laws = ((1.0, source.marginal_dist()),)
        else:
            dists = ([source.conditional_next_dist(i) for i in range(source.n)] if mode == MARKOV
                     else [exponential(rate) for rate in source.rates])
            laws = tuple((float(a), law) for a, law in zip(source.steady, dists))
        source._laws[mode] = laws
    return laws


def predict(strategy: Strategy, source) -> StrategyPrediction:
    """Evaluate the capacity and collision integrals of a schedule under the
    given idle-time law, context-weighted by the stationary distribution."""
    contexts = _context_laws(strategy.mode, source)
    if strategy.n_contexts != len(contexts):
        raise ModelError(
            f"strategy has {strategy.n_contexts} contexts but model has {source.n} states")
    per = []
    capacity = collision = 0.0
    for (cw, law), ctx in zip(contexts, strategy.episodes):
        cap, col = _episode_metrics(law.weights, law.rates, ctx)
        per.append((cap, col))
        capacity += cw * cap
        collision += cw * col
    per_state = tuple(per) if strategy.mode != STAT else None
    return StrategyPrediction(capacity, collision, per_state)


def _crossing_time(law: HyperExpDist, mass: float, tail: bool) -> float:
    """Time at which the survival mass left (tail) or the mass already
    spent (front cap) equals `mass`; 'effectively infinite' when the
    crossing lies beyond TAU_BRACKET_FACTOR mean times of the slowest rate."""
    curve = law.ccdf if tail else law.cdf
    hi = TAU_BRACKET_FACTOR / float(law.rates[0])
    if (curve(hi) > mass) if tail else (curve(hi) < mass):
        what = "waiting threshold" if tail else "transmission cap"
        raise SolverError(
            f"{what} for collision mass {mass:g} is effectively infinite (beyond {hi:g} s)")
    return solve_root(curve, mass, 0.0, hi)


def _front_cap(law: HyperExpDist, mass: float) -> Episode:
    """Transmit from time zero until `mass` of the idle times have ended."""
    return Episode(0.0, _crossing_time(law, mass, tail=False))


def _tail(law: HyperExpDist, mass: float) -> Episode:
    """Wait until only `mass` of the idle times survive, then transmit."""
    return Episode(_crossing_time(law, mass, tail=True), math.inf)


def _balanced(mode: str, source, eta: float, episode, name: str) -> Strategy:
    """The same `episode` shape spending eta in every context."""
    _check_eta(eta)
    ctxs = tuple((episode(law, eta),) for _, law in _context_laws(mode, source))
    return Strategy(mode, ctxs, name)


def _prefix_fill(order: np.ndarray, weights: np.ndarray, eta: float, front_cap) -> tuple:
    """Spend eta on contexts in `order`: whole contexts transmit freely while
    their cumulative stationary weight fits the budget, the marginal context
    gets `front_cap(context, share)` for the share of its mass that is left,
    the rest stay silent."""
    _check_eta(eta)
    alpha = weights[order]
    prefix = np.cumsum(alpha)
    # a budget just below 1 can exceed the weights' floating-point sum
    m = min(int(np.searchsorted(prefix, eta, side="left")), len(order) - 1)
    spent = float(prefix[m - 1]) if m > 0 else 0.0
    ctxs: list[tuple[Episode, ...]] = [() for _ in order]
    for k in range(m):
        ctxs[order[k]] = (Episode(0.0, math.inf),)
    residual = (eta - spent) / float(alpha[m])
    if residual >= 1.0 - 1e-12:
        ctxs[order[m]] = (Episode(0.0, math.inf),)
    elif residual > 0.0:
        ctxs[order[m]] = (front_cap(order[m], residual),)
    return tuple(ctxs)


def always_transmit() -> Strategy:
    """Transmit whenever the channel is idle; collision probability 1."""
    return Strategy(STAT, ((Episode(0.0, math.inf),),), "always_transmit")


def stat_one_shot(dist: HyperExpDist, eta: float) -> Strategy:
    """Transmit from the start of each idle time up to the cap that spends
    the whole collision budget."""
    return _balanced(STAT, dist, eta, _front_cap, "stat_one_shot")


def stat_optimal(dist: HyperExpDist, eta: float) -> Strategy:
    """Wait until the survival mass drops to eta, then transmit to the end
    of the idle time. Optimal under purely statistical knowledge because
    the value-to-cost ratio is nondecreasing."""
    return _balanced(STAT, dist, eta, _tail, "stat_optimal")


def markov_os_balanced(model: SmmppModel, eta: float) -> Strategy:
    """Per previous state, transmit from time zero up to the cap putting the
    same collision probability eta on every state."""
    return _balanced(MARKOV, model, eta, _front_cap, "markov_os_balanced")


def markov_os_suboptimal(model: SmmppModel, eta: float) -> Strategy:
    """Concentrate the collision budget on the previous-states worth the
    most: order states by conditional mean idle time descending, let whole
    states transmit freely until the budget runs out, cap the marginal
    state, silence the rest."""
    cond = [law for _, law in _context_laws(MARKOV, model)]
    order = np.argsort(-np.array([law.mean() for law in cond]), kind="stable")
    ctxs = _prefix_fill(order, model.steady, eta, lambda i, share: _front_cap(cond[i], share))
    return Strategy(MARKOV, ctxs, "markov_os_suboptimal")


def markov_opt_balanced(model: SmmppModel, eta: float) -> Strategy:
    """Per previous state, the tail policy spending eta under that state's
    conditional idle-time law."""
    return _balanced(MARKOV, model, eta, _tail, "markov_opt_balanced")


class _ConditionalRows:
    """Log-domain view of every previous state's conditional mixture, for
    the cross-state threshold search.

    The optimal cross-state allocation equalizes the value-to-cost ratio
    (1-F_i)/f_i across active states. That ratio equals 1/(lam_min + phi)
    where phi is the hazard excess over the globally slowest rate, so the
    search runs on log(phi): the ratio itself can approach its supremum
    closer than one double ulp for well-separated rates, while log(phi)
    stays perfectly resolvable.

    Every row's law mixes the model's own rates, so the rows form one
    (n, K) system of log weights over `model.rates`, a missing component
    having weight -inf, and one call evaluates all rows at once.
    """

    def __init__(self, model: SmmppModel):
        r = model.rates
        lam_star = float(r[0])
        w = np.zeros((model.n, r.size))
        for i, (_, law) in enumerate(_context_laws(MARKOV, model)):
            # the components HyperExpDist keeps, in the model's rate order
            w[i, model.transition[i] > WEIGHT_FLOOR] = law.weights
        self.r = r
        self.row_min = r[np.argmax(w > 0, axis=1)]
        with np.errstate(divide="ignore"):
            self.log_w = np.log(w)
            self.log_num_w = np.log(w * (r - lam_star))
            self.log_asym = np.log(self.row_min - lam_star)  # phi's large-tau limit
        self.constant = np.isneginf(self.log_num_w).all(axis=1)  # phi identically 0
        self.single_atom = ((w > 0).sum(axis=1) == 1) & ~self.constant
        self.log_ccdf0 = _lse_and_mean(self.log_w, r)[0]
        # phi at tau=0; a single-atom row's equals its limit
        self.log_phi0 = np.full(model.n, -math.inf)
        live = ~self.constant
        self.log_phi0[live] = _lse_and_mean(self.log_num_w[live], r)[0] - self.log_ccdf0[live]

    def _at(self, rows: np.ndarray, tau: np.ndarray):
        """log phi of each of `rows` at its own tau, its slope
        d log phi / d tau = E_den[r] - E_num[r], and log ccdf (the
        denominator), all from one set of exponentials."""
        decay = tau[:, None] * self.r
        log_num, mean_num = _lse_and_mean(self.log_num_w[rows] - decay, self.r)
        log_den, mean_den = _lse_and_mean(self.log_w[rows] - decay, self.r)
        return log_num - log_den, mean_den - mean_num, log_den

    def taus_at(self, log_phi_bar: float, lower: np.ndarray, upper: np.ndarray):
        """Each row's smallest tau with log phi(tau) <= log_phi_bar (inf if
        unreachable) and its log ccdf there, given that each tau lies in
        [lower, upper]; an infinite upper bound is found by doubling."""
        above = log_phi_bar < self.log_phi0
        never = above & (log_phi_bar <= self.log_asym)
        tau = np.where(never, math.inf, 0.0)
        log_ccdf = np.where(never, -math.inf, self.log_ccdf0)
        rows = np.flatnonzero(above & ~never)
        if rows.size:
            tau[rows], log_ccdf[rows] = self._roots(rows, log_phi_bar, lower[rows], upper[rows])
        return tau, log_ccdf

    def _roots(self, rows, bar, lo, hi):
        """Safeguarded Newton ("rtsafe", Press et al., Numerical Recipes
        9.4) on every row at once, narrowing the brackets `lo`, `hi` in
        place: a Newton step that would leave the row's bracket, or that
        shrinks slower than bisection, is replaced by a bisection step."""
        tau = np.full(rows.size, math.inf)
        log_ccdf = np.full(rows.size, -math.inf)
        todo = np.flatnonzero(np.isinf(hi) & np.isfinite(lo))
        trial = np.maximum(1.0 / self.row_min[rows[todo]], 2.0 * lo[todo])
        for _ in range(200):
            if not todo.size:
                break
            below = self._at(rows[todo], trial)[0] < bar
            hi[todo[below]] = trial[below]
            lo[todo[~below]] = trial[~below]
            todo, trial = todo[~below], 2.0 * trial[~below]
        todo = np.flatnonzero(np.isfinite(hi))  # rows left open stay at inf
        x = 0.5 * (lo[todo] + hi[todo])
        step = hi[todo] - lo[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            for it in range(120):
                g, slope, lc = self._at(rows[todo], x)
                g -= bar
                a = np.where(g > 0, x, lo[todo])
                b = np.where(g > 0, hi[todo], x)
                newton = x - g / slope
                bisect = (~((newton >= a) & (newton <= b))
                          | (np.abs(2.0 * g) > np.abs(step * slope)))
                nxt = np.where(bisect, 0.5 * (a + b), newton)
                step = np.where(bisect, 0.5 * (b - a), nxt - x)
                done = (np.abs(step) <= 4e-16 * x) | (b - a <= 1e-15 * b) | (it == 119)
                tau[todo[done]], log_ccdf[todo[done]] = x[done], lc[done]
                keep = ~done
                if not keep.any():
                    break
                lo[todo], hi[todo] = a, b
                todo, x, step = todo[keep], nxt[keep], step[keep]
        return tau, log_ccdf


def _lse_and_mean(v: np.ndarray, rates: np.ndarray):
    """Row-wise log-sum-exp of `v` and the softmax(v)-weighted mean of
    `rates`; every row holds at least one finite entry."""
    m = v.max(axis=1)
    e = np.exp(v - m[:, None])
    s = e.sum(axis=1)
    return m + np.log(s), (e @ rates) / s


def markov_optimal(model: SmmppModel, eta: float) -> Strategy:
    """Optimal allocation of the collision budget across time and previous
    states: one common value-to-cost threshold, realized per state as a
    tail policy (or full / no transmission when the state's ratio range
    sits entirely above / below the threshold).

    States whose conditional law is a single exponential have a constant
    ratio; when the threshold lands exactly on one of them, that state
    absorbs the residual budget through a partial tail policy, which spends
    the same budget at the same ratio as the randomized-probability form.

    The threshold is bisected; each row's time for it lies between its
    times for the current bracket ends (tau falls as the threshold rises).
    """
    _check_eta(eta)
    rows = _ConditionalRows(model)
    alpha = model.steady

    def total_collision(log_phi_bar: float, lower, upper):
        """Collision spent at the threshold, each row's time and survival."""
        taus, log_ccdf = rows.taus_at(log_phi_bar, lower, upper)
        ccdf = np.exp(log_ccdf)
        return float(sum(alpha * ccdf)), taus, ccdf

    log_hi = max(rows.log_phi0[~rows.constant].tolist(), default=0.0)
    log_hi = log_hi + 1.0 if math.isfinite(log_hi) else 1.0
    taus_hi = np.zeros(model.n)  # every row transmits at once above log_hi
    log_lo = -800.0
    c_lo, taus, ccdf = total_collision(log_lo, taus_hi, np.full(model.n, math.inf))
    while c_lo > eta + COLLISION_TOL and log_lo > -1e7:
        log_lo *= 4.0
        c_lo, taus, ccdf = total_collision(log_lo, taus, np.full(model.n, math.inf))
    if abs(c_lo - eta) <= COLLISION_TOL:
        return _episodes_from_taus(model, taus, "markov_optimal")
    if c_lo > eta:
        # threshold sits at the global ratio supremum: only the pure
        # slowest-rate states can be active, and only partially
        taus[rows.constant], ccdf[rows.constant] = math.inf, 0.0
        return _finish_with_atoms(model, rows, taus, ccdf, eta, np.flatnonzero(rows.constant))
    lo, hi, taus_lo, ccdf_lo = log_lo, log_hi, taus, ccdf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        coll, taus, ccdf = total_collision(mid, taus_hi, taus_lo)
        if abs(coll - eta) <= COLLISION_TOL:
            return _episodes_from_taus(model, taus, "markov_optimal")
        if coll < eta:
            lo, c_lo, taus_lo, ccdf_lo = mid, coll, taus, ccdf
        else:
            hi, taus_hi = mid, taus
        if hi - lo <= max(abs(mid), 1.0) * 1e-14:
            break
    if eta - c_lo > COLLISION_TOL:
        # the collision curve jumps inside (lo, hi]: a constant-ratio state
        # sits exactly at the threshold and absorbs the residual
        at_jump = np.flatnonzero(rows.single_atom & (lo < rows.log_asym)
                                 & (rows.log_asym <= hi + 1e-12))
        return _finish_with_atoms(model, rows, taus_lo, ccdf_lo, eta, at_jump)
    return _episodes_from_taus(model, taus_lo, "markov_optimal")


def _finish_with_atoms(model, rows, taus, ccdf, eta, at_jump):
    """Close the budget gap left by a jump of the collision curve: spread
    the residual over the constant-ratio states at the jump level. Their
    value-to-cost is flat, so any schedule spending the same mass is
    optimal; the tail form is the canonical one."""
    alpha = model.steady
    taus = np.where(ccdf == 0.0, math.inf, taus)  # no mass left to wait for
    residual = eta - float(sum(alpha * ccdf))
    if residual < -COLLISION_TOL:
        raise SolverError("collision budget overshot while resolving a threshold tie")
    for i in at_jump.tolist():
        if residual <= COLLISION_TOL:
            break
        state_mass = float(alpha[i])
        take = min(residual, state_mass)
        share = take / state_mass
        if share >= 1.0 - 1e-12:
            taus[i] = 0.0
        else:
            taus[i] = math.log(1.0 / share) / float(rows.row_min[i])
        residual -= take
    if residual > max(COLLISION_TOL, 1e-9):
        raise SolverError(
            f"could not place residual collision mass {residual:g}; "
            "no state sits at the threshold level")
    return _episodes_from_taus(model, taus, "markov_optimal")


def _episodes_from_taus(model, taus, name) -> Strategy:
    ctxs = []
    for t in np.asarray(taus, dtype=float).tolist():
        if math.isinf(t):
            ctxs.append(())
        else:
            ctxs.append((Episode(t, math.inf),))
    return Strategy(MARKOV, tuple(ctxs), name)


def full_balanced(model: SmmppModel, eta: float) -> Strategy:
    """Knowing the current state, transmit from time zero with the same
    per-state collision probability eta: cap_i = log(1/(1-eta))/lam_i."""
    _check_eta(eta)
    caps = np.log1p(-eta) / -model.rates
    ctxs = tuple((Episode(0.0, float(t)),) for t in caps)
    return Strategy(FULL, ctxs, "full_balanced")


def full_optimal(model: SmmppModel, eta: float) -> Strategy:
    """Knowing the current state, spend the whole budget on the slowest
    states: full transmission on the longest-idle states that fit in the
    budget, a front cap on the marginal state sized to the residual budget,
    silence elsewhere."""

    def front_cap(i, share):
        return Episode(0.0, math.log1p(-share) / -float(model.rates[i]))

    ctxs = _prefix_fill(np.arange(model.n), model.steady, eta, front_cap)
    return Strategy(FULL, ctxs, "full_optimal")


def multiple_shot(rates, eta: float, epsilon: float = DEFAULT_EPSILON) -> Strategy:
    """Rate-only robust schedule: a short shot sized for the fastest rate,
    then for each slower rate a confidence wait (survival below epsilon
    rules the faster rate out) followed by another shot sized for that
    rate. Mixture weights never enter the schedule, so its collision
    bound holds whichever way the weights drift: with ascending rates
    r_1 < ... < r_K, a pure component k collides with probability at most
    eta + sum_{i>k} (r_k / r_i) log(1/(1-eta)) + (k-1) epsilon (its own
    shot spends eta, each faster shot before it at most the share
    r_k / r_i, each slower shot after it at most epsilon), and a mixture
    at most the largest of these. That bound exceeds eta, and so can the
    collision: on weights piled on the slowest rate, or with epsilon far
    above eta.
    """
    _check_eta(eta)
    r = np.atleast_1d(np.asarray(rates, dtype=float))
    if r.size < 1 or np.any(r <= 0):
        raise ValueError("rates must be positive")
    if np.any(np.diff(r) <= 0):
        raise ValueError("rates must be strictly ascending")
    if not 0 < epsilon < 1 - eta:
        raise ValueError(f"epsilon must be in (0, 1 - eta), got {epsilon!r}")
    shot = math.log1p(-eta) / -r          # per-rate transmission caps
    wait = math.log(1.0 / epsilon) / r    # per-rate confidence waits
    episodes = [Episode(0.0, float(shot[-1]))]
    for i in range(r.size - 2, -1, -1):
        start = float(wait[i + 1])
        end = start + float(shot[i])
        prev = episodes[-1]
        if start < prev.end:
            raise ModelError(
                f"multiple-shot episodes overlap between rates {r[i + 1]:g} and "
                f"{r[i]:g}: wait {start:g} starts before previous shot ends at "
                f"{prev.end:g}; increase the rate separation or lower eta/epsilon")
        episodes.append(Episode(start, end))
    return Strategy(STAT, (tuple(episodes),), "multiple_shot")


# The strategy registry: name -> (PTSI mode, constructor), in report order.
# The PTSI mode is the primary traffic-state information a strategy uses.
STRATEGIES = {ctor.__name__: (mode, ctor) for mode, ctor in (
    (STAT, stat_one_shot), (STAT, stat_optimal), (STAT, multiple_shot),
    (MARKOV, markov_os_balanced), (MARKOV, markov_os_suboptimal),
    (MARKOV, markov_opt_balanced), (MARKOV, markov_optimal),
    (FULL, full_balanced), (FULL, full_optimal),
    (STAT, always_transmit),
)}
# `--strategy all`: the paper's nine strategies, without the baseline
PAPER_STRATEGIES = tuple(name for name in STRATEGIES if name != always_transmit.__name__)


def build(name: str, source, eta: float, epsilon: float) -> Strategy:
    """Construct the registered strategy `name` from a design source: a
    HyperExpDist or SmmppModel for stat strategies (designed from the
    marginal law), an SmmppModel for markov and full ones."""
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGIES)}")
    mode, ctor = STRATEGIES[name]
    if ctor is always_transmit:
        return ctor()
    if mode != STAT:
        if not isinstance(source, SmmppModel):
            raise ValueError(f"strategy {name} needs a transition matrix in the model")
        return ctor(source, eta)
    (_, dist), = _context_laws(STAT, source)
    if ctor is multiple_shot:
        return ctor(dist.rates, eta, epsilon)
    return ctor(dist, eta)
