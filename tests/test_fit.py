import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles
from _oracles import per_group_windowed_fit, row_major_em_fit, scalar_default_init
from oppaccess import fit as fit_module
from oppaccess import (
    DataError,
    HyperExpDist,
    NonstationarySchedule,
    em_fit,
    exponential,
    generate_nonstationary,
    tail_diagnostics,
    windowed_fit,
)
from oppaccess.fit import default_init


def test_em_single_component_is_the_mle():
    x = exponential(100.0).sample(np.random.default_rng(1), 100_000)
    res = em_fit(x, 1)
    assert res.dist.rates[0] == pytest.approx(1.0 / x.mean(), rel=1e-12)
    assert res.converged


def test_em_recovers_two_rate_mixture(two_rate_mixture):
    x = two_rate_mixture.sample(np.random.default_rng(2), 100_000)
    res = em_fit(x, 2)
    assert np.all(np.abs(res.dist.rates - two_rate_mixture.rates) / two_rate_mixture.rates <= 0.10)
    assert np.all(np.abs(res.dist.weights - two_rate_mixture.weights) <= 0.05)
    assert res.converged


def test_em_loglik_never_decreases(two_rate_mixture):
    x = two_rate_mixture.sample(np.random.default_rng(3), 30_000)
    res = em_fit(x, 2)
    assert np.all(np.diff(res.loglik_history) >= -1e-9)


def test_em_output_rate_sorted_and_init_order_invariant(two_rate_mixture):
    x = two_rate_mixture.sample(np.random.default_rng(4), 50_000)
    init_a = HyperExpDist(np.array([0.5, 0.5]), np.array([100.0, 4000.0]))
    init_b = HyperExpDist(np.array([0.5, 0.5]), np.array([4000.0, 100.0]))
    fa, fb = em_fit(x, 2, init=init_a), em_fit(x, 2, init=init_b)
    assert np.all(np.diff(fa.dist.rates) > 0)
    assert np.allclose(fa.dist.rates, fb.dist.rates)
    assert np.allclose(fa.dist.weights, fb.dist.weights)


def test_em_extra_component_adds_no_real_likelihood(three_rate_mixture):
    x = three_rate_mixture.sample(np.random.default_rng(12), 100_000)
    r3 = em_fit(x, 3)
    r4 = em_fit(x, 4)
    assert abs(r4.log_likelihood - r3.log_likelihood) / x.size < 1e-3
    assert np.all(np.abs(r3.dist.rates - three_rate_mixture.rates) / three_rate_mixture.rates < 0.10)


def test_em_drops_dead_component():
    x = np.random.default_rng(8).standard_exponential(5_000) / 100.0
    init = HyperExpDist(np.array([0.5, 0.5]), np.array([50.0, 1e20]))
    res = em_fit(x, 2, init=init)
    assert res.dropped_components == 1
    assert res.dist.n == 1
    assert res.dist.rates[0] == pytest.approx(100.0, rel=0.1)


def test_em_merges_near_duplicate_rates():
    x = np.random.default_rng(8).standard_exponential(20_000) / 100.0
    res = em_fit(x, 3)
    assert res.merged_components >= 1
    assert res.dist.n < 3


def test_em_input_validation():
    with pytest.raises(DataError):
        em_fit(np.array([0.1, -0.2, 0.5] * 10), 1)
    with pytest.raises(DataError):
        em_fit(np.array([0.1] * 15), 2)  # fewer than 10 per component
    with pytest.raises(ValueError):
        em_fit(np.ones(100), 2, init=exponential(1.0))
    with pytest.raises(ValueError):
        em_fit(np.ones(100), 0)


def test_tail_diagnostics_mixture_knee_and_tail_slope(three_rate_mixture):
    x = three_rate_mixture.sample(np.random.default_rng(5), 200_000)
    diag = tail_diagnostics(x)
    assert 2e-3 <= diag.knee <= 1.5e-1
    assert abs(diag.post_knee_slope - (-5.0)) <= 0.2 * 5.0
    assert not diag.knee_at_left_boundary
    assert diag.post_knee_slope < 0
    assert diag.post_knee_r2 > 0.9


def test_tail_diagnostics_pure_exponential_degenerates():
    x = np.random.default_rng(6).standard_exponential(100_000) / 100.0
    diag = tail_diagnostics(x)
    assert diag.knee_at_left_boundary
    assert diag.post_knee_slope == pytest.approx(-100.0, rel=0.10)
    assert diag.knee > 0


def test_tail_diagnostics_needs_enough_samples():
    with pytest.raises(DataError):
        tail_diagnostics(np.ones(999))


def test_windowed_fit_group_count_and_order(two_rate_mixture):
    x = two_rate_mixture.sample(np.random.default_rng(7), 100_000)
    wf = windowed_fit(x, 1000, 2)
    assert len(wf.results) == 100
    assert wf.failed_groups == ()
    disp = wf.dispersion()
    assert set(disp) == {"alpha_1", "alpha_2", "lambda_1", "lambda_2"}
    lo, q1, med, q3, hi = disp["lambda_1"]
    assert lo <= q1 <= med <= q3 <= hi


def test_windowed_fit_dispersion_shrinks_with_group_size(two_rate_mixture):
    x = two_rate_mixture.sample(np.random.default_rng(21), 200_000)
    d1 = windowed_fit(x, 1000, 2).dispersion()
    d4 = windowed_fit(x, 4000, 2).dispersion()
    for p in ("alpha_1", "lambda_1", "lambda_2"):
        ratio = (d1[p][3] - d1[p][1]) / (d4[p][3] - d4[p][1])
        assert 1.2 <= ratio <= 3.2


def test_windowed_fit_sees_weight_drift():
    seg_a = HyperExpDist(np.array([0.5, 0.5]), np.array([100.0, 6000.0]))
    seg_b = HyperExpDist(np.array([0.9, 0.1]), np.array([100.0, 6000.0]))
    trace = generate_nonstationary(
        NonstationarySchedule(((50_000, seg_a), (50_000, seg_b))), seed=9)
    wf = windowed_fit(trace.durations, 1000, 2)
    first = np.mean([r.dist.weights[0] for r in wf.results[:50] if r.dist.n == 2])
    second = np.mean([r.dist.weights[0] for r in wf.results[50:] if r.dist.n == 2])
    assert first == pytest.approx(0.5, abs=0.05)
    assert second == pytest.approx(0.9, abs=0.05)
    assert second - first > 0.3


def test_windowed_fit_validation():
    with pytest.raises(DataError):
        windowed_fit(np.ones(100), 15, 2)  # group smaller than 10 per component
    with pytest.raises(DataError):
        windowed_fit(np.full(30, 0.5), 40, 2)


@pytest.mark.parametrize("n_components", [0, -1])
def test_windowed_fit_refuses_nonpositive_components(n_components):
    # checked before the group size, which a zero component count would pass
    for group_size in (0, 1000):
        with pytest.raises(ValueError, match="n_components must be >= 1"):
            windowed_fit(np.ones(2000), group_size, n_components)


# ---------------------------------------------------------- batched starts

@pytest.mark.parametrize("n_components", [1, 2, 3, 4])
def test_batched_starts_equal_default_init_row_by_row(n_components):
    rng = np.random.default_rng(31)
    rows = rng.standard_exponential((9, 200)) / rng.choice([5.0, 160.0, 3670.0], (9, 200))
    rows[2] = 0.25  # a constant group: zero spread, geomspace's zero step
    rows[5] = 0.5 + 1e-16 * np.arange(200)  # a few ulp apart: flat, not constant
    rows[7] = np.where(rows[7] > np.median(rows[7]), 2.0, 1.0)
    for batch in (rows, rows[[2, 5]], rows[[0, 1]]):  # mixed, flat only, spread only
        w, lam = fit_module._starts(batch, n_components)
        assert w.shape == lam.shape == (n_components, batch.shape[0])
        for g, row in enumerate(batch):
            for one in (default_init(row, n_components), scalar_default_init(row, n_components)):
                assert np.array_equal(w[:, g], one.weights)
                assert np.array_equal(lam[:, g], one.rates)


# ------------------------------------------- component-major EM vs its oracle

def assert_same_fit(new, old):
    """The blocked fit against the row-major oracle: identical
    counts, parameters and log-likelihoods within 1e-12 relative, and a
    history that never decreases. Log-likelihoods are relative to
    max(1, |ll|), the scale of EM's own stopping test: a sum of log
    densities can cancel to near 0.

    The two sum over the samples in different orders, so every iteration
    may move the parameters by a few ulp. A converged fit contracts those
    moves; one stopped at EM_MAX_ITER can still be drifting along a flat
    ridge of the likelihood, where they add up, so it is held to n_iter *
    1e-15 (about 4.5 ulp per iteration) when that is wider.
    """
    assert (new.n_iter, new.converged, new.dist.n) == (old.n_iter, old.converged, old.dist.n)
    assert new.dropped_components == old.dropped_components
    assert new.merged_components == old.merged_components
    rtol = 1e-12 if old.converged else max(1e-12, old.n_iter * 1e-15)
    np.testing.assert_allclose(new.dist.weights, old.dist.weights, rtol=rtol, atol=0)
    np.testing.assert_allclose(new.dist.rates, old.dist.rates, rtol=rtol, atol=0)
    assert new.log_likelihood == pytest.approx(old.log_likelihood, rel=rtol, abs=rtol)
    np.testing.assert_allclose(new.loglik_history, old.loglik_history, rtol=rtol, atol=rtol)
    # the first E-step: same start, other terms (the kernel works relative
    # to the slowest component); 1.1e-14 at most over the property's examples
    assert abs(new.loglik_history[0] - old.loglik_history[0]) <= (
        1e-13 * max(1.0, abs(old.loglik_history[0])))
    assert np.all(np.diff(new.loglik_history) >= -1e-9)


def assert_same_windowed(new, old):
    assert new.failed_groups == old.failed_groups
    assert len(new.results) == len(old.results)
    for res_new, res_old in zip(new.results, old.results):
        assert (res_new is None) == (res_old is None)
        if res_old is not None:
            assert_same_fit(res_new, res_old)


@st.composite
def spread_mixtures(draw):
    """1-4-component mixtures whose rates span 1-4 decades."""
    k = draw(st.integers(1, 4))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=max(k - 2, 0), max_size=max(k - 2, 0)))
    exponents = draw(st.floats(1.0, 4.0)) * np.array(([0.0, 1.0] + inner)[:k])
    rates = draw(st.floats(0.5, 50.0)) * 10.0 ** exponents
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)), dtype=float)
    return HyperExpDist(weights / weights.sum(), rates)


def _check_against_oracles(mixture, n_components, per_component, n_groups, tail, seed):
    group_size = per_component * n_components
    x = mixture.sample(np.random.default_rng(seed), n_groups * group_size + tail)
    assert_same_fit(em_fit(x, n_components), row_major_em_fit(x, n_components))
    batched = windowed_fit(x, group_size, n_components)
    assert_same_windowed(batched, per_group_windowed_fit(x, group_size, n_components))
    # the batch runs the same kernel as em_fit, one row per group: equal bits
    for g, res in enumerate(batched.results):
        if res is not None:
            alone = em_fit(x[g * group_size:(g + 1) * group_size], n_components)
            assert res.n_iter == alone.n_iter
            assert np.array_equal(res.loglik_history, alone.loglik_history)
            assert np.array_equal(res.dist.weights, alone.dist.weights)
            assert np.array_equal(res.dist.rates, alone.dist.rates)


oracle_cases = given(mixture=spread_mixtures(), n_components=st.integers(1, 4),
                     per_component=st.integers(10, 60), n_groups=st.integers(1, 12),
                     tail=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))


@oracle_cases
def test_component_major_em_agrees_with_row_major_oracle(mixture, n_components, per_component,
                                                         n_groups, tail, seed):
    # every group fits in one block, several groups share one
    _check_against_oracles(mixture, n_components, per_component, n_groups, tail, seed)


@oracle_cases
def test_component_major_em_agrees_with_row_major_oracle_in_small_blocks(
        mixture, n_components, per_component, n_groups, tail, seed):
    # 64-sample blocks: em_fit and groups over 64 samples span several
    # column blocks, smaller groups share one block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fit_module, "_EM_BLOCK", 64)
        _check_against_oracles(mixture, n_components, per_component, n_groups, tail, seed)


def _drifting_samples(n_groups: int, group_size: int, seed: int) -> np.ndarray:
    segments = tuple((group_size, HyperExpDist(np.array([a, 1.0 - a]), np.array([160.0, 3670.0])))
                     for a in np.linspace(0.2, 0.8, n_groups))
    return generate_nonstationary(NonstationarySchedule(segments), seed=seed).durations


def test_batch_exit_merge():
    # single-exponential groups fit with three components merge near-duplicates
    x = np.random.default_rng(8).standard_exponential(6_000) / 100.0
    new, old = windowed_fit(x, 2000, 3), per_group_windowed_fit(x, 2000, 3)
    assert any(res.merged_components for res in new.results)
    assert_same_windowed(new, old)


def test_batch_exit_drop(monkeypatch):
    # the kernel with a 1e20 rate planted, alone and as a group that leaves the batch
    x = np.random.default_rng(8).standard_exponential(5_000) / 100.0
    init = HyperExpDist(np.array([0.5, 0.5]), np.array([50.0, 1e20]))
    assert_same_fit(em_fit(x, 2, init=init), row_major_em_fit(x, 2, init=init))

    starts = fit_module._starts

    def planted(rows, n_components):
        # per row, so a group refit alone gets the start it had in the batch
        w, lam = starts(rows, n_components)
        lam[-1, rows[:, 0] >= np.median(rows, axis=1)] = 1e20
        return w, lam

    # the batch, em_fit's refit and the oracle's default_init all start here
    monkeypatch.setattr(fit_module, "_starts", planted)
    x = _drifting_samples(12, 500, seed=4)
    new, old = windowed_fit(x, 500, 2), per_group_windowed_fit(x, 500, 2)
    dropped = [res.dropped_components for res in new.results]
    assert 0 < dropped.count(1) < len(dropped)
    assert_same_windowed(new, old)


def test_batch_exit_iteration_cap(monkeypatch):
    monkeypatch.setattr(fit_module, "EM_MAX_ITER", 4)
    monkeypatch.setattr(_oracles, "EM_MAX_ITER", 4)
    x = _drifting_samples(8, 1000, seed=5)
    new, old = windowed_fit(x, 1000, 2), per_group_windowed_fit(x, 1000, 2)
    assert all(res.n_iter == 4 and not res.converged for res in new.results)
    assert_same_windowed(new, old)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_exit_failed_refit():
    # the rate sums of a group of 1e308 samples overflow: every rate goes to
    # 0, the next E-step is all NaN and the refit collapses
    x = _drifting_samples(4, 1000, seed=6).copy()
    x[1000:2000] = 1e308
    new, old = windowed_fit(x, 1000, 2), per_group_windowed_fit(x, 1000, 2)
    assert new.failed_groups == (1,)
    assert_same_windowed(new, old)
