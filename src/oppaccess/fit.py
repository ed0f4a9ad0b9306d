"""Estimation of idle-time mixtures: EM fitting, CCDF tail diagnostics,
and windowed fits for non-stationarity analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import HyperExpDist
from .errors import DataError

EM_TOL = 1e-8
EM_MAX_ITER = 2000
MERGE_RATE_RTOL = 0.05
KNEE_CANDIDATES = 50
SEGMENT_GRID_POINTS = 150
TAIL_EXCLUDE = 1e-3


@dataclass(frozen=True)
class FitResult:
    """Outcome of one EM run.

    ``loglik_history`` records the total log-likelihood after every M-step;
    EM guarantees it never decreases (tests allow 1e-9 slack). When
    components collapse or near-duplicate rates get merged the returned
    mixture has fewer components than requested and the counters say so.
    """

    dist: HyperExpDist
    log_likelihood: float
    loglik_history: np.ndarray
    n_iter: int
    converged: bool
    dropped_components: int = 0
    merged_components: int = 0


def _validate_samples(samples, minimum: int) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < minimum:
        raise DataError(f"need at least {minimum} samples, got {x.size}")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise DataError("samples must be positive and finite")
    return x


def default_init(samples: np.ndarray, n_components: int) -> HyperExpDist:
    """Deterministic starting point: rates log-uniform across the sample
    scale, equal weights.

    The scale runs between the inverse 98th and 2nd percentiles rather than
    the inverse extremes; anchoring on min/max plants a component on the
    single smallest observation, which EM then never lets go of.
    """
    lo = 1.0 / float(np.quantile(samples, 0.98))
    hi = 1.0 / float(np.quantile(samples, 0.02))
    if n_components == 1:
        rates = np.array([1.0 / samples.mean()])
    elif hi <= lo * (1 + 1e-12):
        rates = lo * (1 + 1e-6) ** np.arange(n_components)
    else:
        rates = np.geomspace(lo, hi, n_components)
    return HyperExpDist(np.full(n_components, 1.0 / n_components), rates)


def em_fit(samples, n_components: int, init: HyperExpDist | None = None) -> FitResult:
    """Maximum-likelihood mixture fit via EM.

    E-step responsibilities are computed in log space so widely separated
    rates do not underflow. Components whose responsibility mass vanishes
    are dropped (and counted); after convergence, rates within 5% of each
    other are merged into one weight-pooled component.
    """
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


def _merge_close_rates(w: np.ndarray, lam: np.ndarray):
    """Pool components whose rates agree within MERGE_RATE_RTOL; the merged
    rate is the weight-averaged one. Near-duplicates destabilize the
    threshold strategies downstream."""
    order = np.argsort(lam)
    w, lam = w[order].copy(), lam[order].copy()
    merged = 0
    i = 0
    while i + 1 < lam.size:
        if lam[i + 1] <= lam[i] * (1 + MERGE_RATE_RTOL):
            tot = w[i] + w[i + 1]
            lam[i] = (w[i] * lam[i] + w[i + 1] * lam[i + 1]) / tot
            w[i] = tot
            w = np.delete(w, i + 1)
            lam = np.delete(lam, i + 1)
            merged += 1
        else:
            i += 1
    return w, lam, merged


@dataclass(frozen=True)
class TailDiagnostics:
    """Two-regime CCDF summary: power-law body, exponential tail.

    ``knee`` splits the fit; below it log-CCDF is regressed on log-t, above
    it on t (natural logs, so ``post_knee_slope`` estimates minus the tail
    rate). ``knee_at_left_boundary`` flags data with no power-law regime at
    all, e.g. a single exponential.
    """

    knee: float
    pre_knee_slope: float
    post_knee_slope: float
    pre_knee_r2: float
    post_knee_r2: float
    knee_at_left_boundary: bool
    knee_grid: np.ndarray = field(repr=False, default=None)


def _line_fit(xs: np.ndarray, ys: np.ndarray):
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ssr = float(resid @ resid)
    sst = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return slope, ssr, r2


def tail_diagnostics(samples) -> TailDiagnostics:
    """Locate the CCDF knee and the decay laws on either side of it.

    The empirical CCDF (complementary step function of the sorted samples)
    is evaluated on per-segment grids: log-spaced below a candidate knee,
    linear above it, which keeps the tail regression from being swamped by
    the dense small-duration samples. The knee minimizing the combined
    squared residuals over a log-spaced candidate grid wins. The top
    TAIL_EXCLUDE fraction of samples is excluded to limit single-sample
    leverage.
    """
    x = _validate_samples(samples, 1000)
    x = np.sort(x)
    n = x.size
    t_lo = float(np.quantile(x, TAIL_EXCLUDE))
    t_hi = float(np.quantile(x, 1.0 - TAIL_EXCLUDE))
    if not t_hi > t_lo > 0:
        raise DataError("sample range too degenerate for tail diagnostics")

    def emp_ccdf(ts: np.ndarray) -> np.ndarray:
        return (n - np.searchsorted(x, ts, side="right")) / n

    def split_fit(knee: float):
        left_t = np.geomspace(t_lo, knee, SEGMENT_GRID_POINTS)
        right_t = np.linspace(knee, t_hi, SEGMENT_GRID_POINTS)
        left_y = emp_ccdf(left_t)
        right_y = emp_ccdf(right_t)
        if not ((left_y > 0).all() and (right_y > 0).all()):
            return None
        ls, lssr, lr2 = _line_fit(np.log(left_t), np.log(left_y))
        rs, rssr, rr2 = _line_fit(right_t, np.log(right_y))
        return lssr + rssr, ls, lr2, rs, rr2

    candidates = np.geomspace(t_lo, t_hi, KNEE_CANDIDATES + 2)[1:-1]
    fits = [split_fit(knee) for knee in candidates]
    valid = [k for k, fit in enumerate(fits) if fit is not None]
    if not valid:
        raise DataError("could not evaluate the empirical CCDF on any knee split")
    idx = min(valid, key=lambda k: fits[k][0])  # the first of equal minima
    # no power-law regime at all: one exponential line explains the whole
    # range as well as the best split, so the knee collapses leftward
    global_t = np.linspace(t_lo, t_hi, SEGMENT_GRID_POINTS)
    _, global_ssr, _ = _line_fit(global_t, np.log(np.maximum(emp_ccdf(global_t), 1.0 / n)))
    degenerate = global_ssr <= 1.10 * fits[idx][0] + 1e-12
    if degenerate and fits[0] is not None:
        idx = 0
    _, ls, lr2, rs, rr2 = fits[idx]
    return TailDiagnostics(
        knee=float(candidates[idx]),
        pre_knee_slope=float(ls),
        post_knee_slope=float(rs),
        pre_knee_r2=float(lr2),
        post_knee_r2=float(rr2),
        knee_at_left_boundary=degenerate or idx <= 1,
        knee_grid=candidates,
    )


@dataclass(frozen=True)
class WindowedFit:
    """Per-group EM results over sequential fixed-size sample groups."""

    results: tuple
    group_size: int
    n_components: int
    failed_groups: tuple[int, ...] = ()

    def dispersion(self) -> dict[str, tuple[float, float, float, float, float]]:
        """Min/quartile/max of each fitted parameter across groups (box-plot
        numbers). Groups that lost components are skipped."""
        full = [r for r in self.results
                if r is not None and r.dist.n == self.n_components]
        if not full:
            raise DataError("no group kept the full component count")
        out = {}
        for k in range(self.n_components):
            for name, values in (
                (f"alpha_{k + 1}", np.array([r.dist.weights[k] for r in full])),
                (f"lambda_{k + 1}", np.array([r.dist.rates[k] for r in full])),
            ):
                q = np.percentile(values, [0, 25, 50, 75, 100])
                out[name] = tuple(float(v) for v in q)
        return out


def windowed_fit(samples, group_size: int, n_components: int) -> WindowedFit:
    """Fit each sequential group of ``group_size`` samples separately.

    Returns results in group order; a group whose fit raises is recorded as
    None and listed in ``failed_groups``. Trailing samples that do not fill
    a group are ignored.
    """
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
            results.append(em_fit(chunk, n_components))
        except DataError:
            results.append(None)
            failed.append(g)
    return WindowedFit(tuple(results), group_size, n_components, tuple(failed))
