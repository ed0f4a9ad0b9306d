"""Estimation of idle-time mixtures: EM fitting, CCDF tail diagnostics,
and windowed fits for non-stationarity analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import HyperExpDist
from .errors import DataError

EM_TOL = 1e-8
EM_MAX_ITER = 2000
_EM_BLOCK = 16_384  # samples per E/M block: the block's buffers stay in cache
_EXP_FLOOR = -700.0  # exp below about -708 leaves the fast path; see `_em_step`
_EXP_ZERO = math.exp(_EXP_FLOOR)  # the double np.exp gives; np.exp would load its loop at import
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


def _starts(rows: np.ndarray, n_components: int):
    """Deterministic starting points of G fits at once, one per row of
    ``rows`` (G, n): equal weights and rates log-uniform across the row's
    sample scale, both (K, G).

    The scale runs between the inverse 98th and 2nd percentiles rather than
    the inverse extremes; anchoring on min/max plants a component on the
    single smallest observation, which EM then never lets go of. A flat row
    gets rates a factor 1 + 1e-6 apart and K = 1 the inverse mean. Only rows
    with a spread go through `np.geomspace`: on arrays it switches its
    formula for every row as soon as one row has a zero step.
    """
    q_hi, q_lo = np.quantile(rows, [0.98, 0.02], axis=1)
    lo, hi = 1.0 / q_hi, 1.0 / q_lo
    if n_components == 1:
        rates = 1.0 / rows.mean(axis=1, keepdims=True)
    else:
        rates = lo[:, None] * (1 + 1e-6) ** np.arange(n_components)
        spread = hi > lo * (1 + 1e-12)
        if np.any(spread):
            rates[spread] = np.geomspace(lo[spread], hi[spread], n_components, axis=1)
    return np.full((n_components, rows.shape[0]), 1.0 / n_components), rates.T


def default_init(samples: np.ndarray, n_components: int) -> HyperExpDist:
    """Deterministic starting point of a fit: equal weights, rates
    log-uniform between the inverse 98th and 2nd percentiles (`_starts`
    on one row)."""
    w, lam = _starts(np.asarray(samples, dtype=float).reshape(1, -1), n_components)
    return HyperExpDist(w[:, 0], lam[:, 0])


def _check_components(n_components: int) -> None:
    if n_components < 1:
        raise ValueError("n_components must be >= 1")


def _blocks(n_rows: int, n: int):
    """(row_start, row_stop, col_start, col_stop) of the E/M blocks over
    ``n_rows`` rows of ``n`` samples: column blocks of one row when n is
    larger than _EM_BLOCK, otherwise as many whole rows as fit. A row's
    blocks depend only on n, so each row is cut the same way in any batch."""
    if n > _EM_BLOCK:
        for g in range(n_rows):
            for j in range(0, n, _EM_BLOCK):
                yield g, g + 1, j, min(j + _EM_BLOCK, n)
    else:
        per = _EM_BLOCK // n
        for g in range(0, n_rows, per):
            yield g, min(g + per, n_rows), 0, n


def _em_buffers(n_components: int, n_rows: int, n: int):
    """Block-sized work buffers for `_em_step`: exponentials, normaliser
    and the (1/S, x/S) pair."""
    size = _EM_BLOCK if n > _EM_BLOCK else n * min(n_rows, _EM_BLOCK // n)
    return np.empty(n_components * size), np.empty(size), np.empty(2 * size)


def _em_step(x: np.ndarray, xsum: np.ndarray, w: np.ndarray, lam: np.ndarray, bufs):
    """One EM iteration of G independent K-component fits, block by block.

    ``x`` is (G, n): one row of samples per fit, ``xsum`` (G,) its row
    sums; ``w`` and ``lam`` are (K, G). ``bufs`` comes from `_em_buffers`
    and is overwritten. Each fit works relative to its slowest component
    r: e_k = exp(c_k - d_k x) with c_k = log(w_k lam_k) - log(w_r lam_r)
    and d_k = lam_k - lam_r >= 0, so e_r = 1 and the normaliser
    S = sum_k e_k >= 1 needs no max shift. The log-likelihood is
    n log(w_r lam_r) - lam_r sum(x) + sum(log S). The responsibility
    masses and responsibility-weighted sample sums, both (K, G), come from
    one batched matmul of e against (1/S, x/S); the M-step's weights are
    mass / n and its rates mass / sums. Partial sums are added in block
    order. Returns the log-likelihoods under (w, lam), masses and sums.

    Exponents below _EXP_FLOOR are raised to it, and e^_EXP_FLOOR is taken
    off again: those terms come out as 0, while any term above about
    1e-288 keeps its bits. numpy's exp is many times slower per element
    for results below about e^-708, and a fit with well separated rates
    has many of them.
    """
    n_rows, n = x.shape
    k = lam.shape[0]
    ref = lam.argmin(axis=0), np.arange(n_rows)  # each fit's slowest component
    log_wl = np.log(w) + np.log(lam)
    c = (log_wl - log_wl[ref]).T[:, :, None]
    d = (lam - lam[ref]).T[:, :, None]
    stats = np.zeros((n_rows, k, 2))
    log_s = np.zeros(n_rows)
    e_buf, s_buf, p_buf = bufs
    for g0, g1, j0, j1 in _blocks(n_rows, n):
        xb = x[g0:g1, j0:j1]
        shape = xb.shape
        e = e_buf[:k * xb.size].reshape(shape[0], k, shape[1])
        np.multiply(d[g0:g1], xb[:, None, :], out=e)
        np.subtract(c[g0:g1], e, out=e)
        np.maximum(e, _EXP_FLOOR, out=e)
        np.exp(e, out=e)
        e -= _EXP_ZERO
        s = s_buf[:xb.size].reshape(shape)
        e.sum(axis=1, out=s)
        p = p_buf[:2 * xb.size].reshape(2, *shape)
        np.divide(1.0, s, out=p[0])
        np.multiply(xb, p[0], out=p[1])
        stats[g0:g1] += np.matmul(e, p.transpose(1, 2, 0))
        log_s[g0:g1] += np.log(s, out=s).sum(axis=1)
    ll = n * log_wl[ref] - lam[ref] * xsum + log_s
    return ll, stats[:, :, 0].T, stats[:, :, 1].T


def _fit_result(w, lam, history, n_iter: int, converged: bool, dropped: int) -> FitResult:
    w, lam, merged = _merge_close_rates(w, lam)
    return FitResult(
        dist=HyperExpDist(w / w.sum(), lam),
        log_likelihood=float(history[-1]),
        loglik_history=np.asarray(history),
        n_iter=n_iter,
        converged=converged,
        dropped_components=dropped,
        merged_components=merged,
    )


def _converged(ll, ll_prev):
    return np.abs(ll - ll_prev) <= EM_TOL * np.maximum(1.0, np.abs(ll_prev))


def em_fit(samples, n_components: int, init: HyperExpDist | None = None) -> FitResult:
    """Maximum-likelihood mixture fit via EM.

    Runs `_em_step` on one fit, from `_starts` unless ``init`` is given.
    Components whose responsibility mass vanishes are dropped (and
    counted); after convergence, rates within 5% of each other are merged
    into one weight-pooled component.
    """
    _check_components(n_components)
    x = _validate_samples(samples, 10 * n_components)
    rows = x[None]
    if init is None:
        w, lam = _starts(rows, n_components)
    elif init.n != n_components:
        raise ValueError("init component count does not match n_components")
    else:
        w, lam = init.weights[:, None], init.rates[:, None]
    xsum = rows.sum(axis=1)
    bufs = _em_buffers(n_components, 1, x.size)

    history = []
    dropped = 0
    converged = False
    ll_prev = None
    it = 0
    for it in range(1, EM_MAX_ITER + 1):
        ll, mass, sums = _em_step(rows, xsum, w, lam, bufs)
        ll = float(ll[0])
        if not np.isfinite(ll):
            raise DataError("log-likelihood is not finite: samples outside the fit's "
                            "floating-point range")
        history.append(ll)
        alive = mass[:, 0] > x.size * 1e-15
        if not np.all(alive):
            dropped += int(np.sum(~alive))
            mass, sums = mass[alive], sums[alive]
            if mass.size == 0:
                raise DataError("all mixture components collapsed")
        w, lam = mass / x.size, mass / sums
        if ll_prev is not None and _converged(ll, ll_prev):
            converged = True
            break
        ll_prev = ll
    return _fit_result(w[:, 0], lam[:, 0], history, it, converged, dropped)


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

    All groups run as one batch through `_em_step`, from one batch of
    `_starts`, with block-sized buffers. A group leaves the batch when
    it converges, or at EM_MAX_ITER iterations with ``converged=False``. A
    group in which a component would be dropped, or whose log-likelihood
    is not finite, leaves the batch too and is refit from the start
    through `em_fit`, which counts the drop or raises. Each
    group's result equals, bit for bit, `em_fit` on that group alone.

    Returns results in group order; a group whose fit raises is recorded as
    None and listed in ``failed_groups``. Trailing samples that do not fill
    a group are ignored.
    """
    _check_components(n_components)
    if group_size < 10 * n_components:
        raise DataError(f"group_size must be >= {10 * n_components}")
    x = _validate_samples(samples, group_size)
    n_groups = x.size // group_size
    if n_groups < 1:
        raise DataError("not enough samples for a single group")
    chunks = x[:n_groups * group_size].reshape(n_groups, group_size)
    w, lam = _starts(chunks, n_components)
    xsum = chunks.sum(axis=1)
    bufs = _em_buffers(n_components, n_groups, group_size)
    history = np.empty((64, n_groups))  # (iteration, group), grown by doubling

    results = [None] * n_groups
    refit = []
    active = np.arange(n_groups)
    rows = chunks
    ll_prev = np.full(n_groups, np.nan)  # compares False: no stop at iteration 1
    it = 0
    while active.size:
        it += 1
        ll, mass, sums = _em_step(rows, xsum, w, lam, bufs)
        if it > history.shape[0]:
            history = np.concatenate([history, np.empty_like(history)])
        history[it - 1, active] = ll
        alive = np.all(mass > group_size * 1e-15, axis=0) & np.isfinite(ll)
        converged = _converged(ll, ll_prev)
        done = alive & (converged | (it == EM_MAX_ITER))
        for j in np.flatnonzero(done):
            results[active[j]] = _fit_result(
                mass[:, j] / group_size, mass[:, j] / sums[:, j],
                history[:it, active[j]].copy(), it, bool(converged[j]), 0)
        refit.extend(active[~alive].tolist())
        stay = alive & ~done
        if not np.all(stay):
            active, rows, xsum, ll = active[stay], rows[stay], xsum[stay], ll[stay]
            mass, sums = mass[:, stay], sums[:, stay]
        ll_prev = ll
        w, lam = mass / group_size, mass / sums

    failed = []
    for g in refit:
        try:
            results[g] = em_fit(chunks[g], n_components)
        except DataError:
            failed.append(g)
    return WindowedFit(tuple(results), group_size, n_components, tuple(sorted(failed)))
