import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from oppaccess import HyperExpDist, exponential

from _oracles import decimal_mixture_pdf


def test_pdf_at_origin_single_exponential():
    assert exponential(2.0).pdf(0.0) == pytest.approx(2.0, abs=0)


def test_pdf_at_origin_is_weighted_rate_sum():
    d = HyperExpDist(np.array([0.5, 0.5]), np.array([1.0, 3.0]))
    assert d.pdf(0.0) == pytest.approx(2.0, rel=1e-15)


def test_pdf_matches_high_precision_sum():
    d = HyperExpDist(np.array([0.32, 0.68]), np.array([160.0, 3670.0]))
    # frozen from a 50-digit decimal evaluation (recomputed here as well)
    frozen = 107.20884039400716
    assert float(decimal_mixture_pdf([0.32, 0.68], [160, 3670], 1e-3)) == pytest.approx(frozen, rel=1e-14)
    assert d.pdf(1e-3) == pytest.approx(frozen, rel=1e-12)


def test_pdf_rejects_negative_time():
    with pytest.raises(ValueError):
        exponential(1.0).pdf(-1e-9)
    with pytest.raises(ValueError):
        exponential(1.0).cdf(-0.5)
    with pytest.raises(ValueError):
        exponential(1.0).value_to_cost(-2.0)


def test_cdf_at_origin_is_zero():
    d = HyperExpDist(np.array([0.2, 0.8]), np.array([7.0, 90.0]))
    assert d.cdf(0.0) == 0.0


def test_cdf_single_exponential_closed_form():
    d = exponential(100.0)
    assert d.cdf(math.log(10.0) / 100.0) == pytest.approx(0.9, rel=1e-12)


def test_cdf_matches_quadrature(three_rate_mixture):
    d = three_rate_mixture
    val, err = integrate.quad(d.pdf, 0.0, 0.01, limit=500,
                              epsabs=1e-13, epsrel=1e-13)
    assert d.cdf(0.01) == pytest.approx(val, rel=1e-9, abs=3 * err)


def test_cdf_nondecreasing_and_limits(three_rate_mixture):
    grid = np.geomspace(1e-7, 5.0, 300)
    vals = three_rate_mixture.cdf(grid)
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] > 0.999999


def test_value_to_cost_single_exponential_constant():
    d = exponential(50.0)
    for t in (0.0, 0.01, 1.0, 40.0):
        assert d.value_to_cost(t) == pytest.approx(0.02, rel=1e-12)


def test_value_to_cost_limits(three_rate_mixture):
    d = three_rate_mixture
    assert d.value_to_cost(0.0) == pytest.approx(1.0 / 2035.0, rel=1e-12)
    assert d.value_to_cost(1.0) == pytest.approx(0.2, rel=1e-6)


def test_value_to_cost_nondecreasing_on_dense_grid(three_rate_mixture):
    grid = np.geomspace(1e-8, 3.0, 2000)
    vals = three_rate_mixture.value_to_cost(grid)
    assert np.all(np.diff(vals) >= -1e-16 * vals[:-1])
    # strict growth away from the saturated tail
    body = vals[grid < 0.3]
    assert np.all(np.diff(body) > 0)


def test_ccdf_complements_cdf(three_rate_mixture):
    grid = np.geomspace(1e-6, 1.0, 50)
    assert np.allclose(three_rate_mixture.ccdf(grid), 1.0 - three_rate_mixture.cdf(grid), atol=1e-15)


def test_pdf_is_minus_ccdf_derivative(three_rate_mixture):
    d = three_rate_mixture
    h = 1e-9
    grid = np.geomspace(1e-5, 0.5, 40)
    fd = (d.ccdf(grid - np.minimum(h, grid)) - d.ccdf(grid + h)) / (np.minimum(h, grid) + h)
    assert np.allclose(fd, d.pdf(grid), rtol=1e-6)


def test_mean_single_exponential():
    assert exponential(500.0).mean() == pytest.approx(0.002, rel=1e-15)


def test_mean_closed_forms(two_rate_mixture, three_rate_mixture):
    assert two_rate_mixture.mean() == pytest.approx(0.32 / 160 + 0.68 / 3670, rel=1e-14)
    assert two_rate_mixture.mean() == pytest.approx(2.1852861035e-3, rel=1e-9)
    assert three_rate_mixture.mean() == pytest.approx(0.07005555555555556, rel=1e-12)


def test_sample_mean_single_exponential():
    rng = np.random.default_rng(101)
    x = exponential(100.0).sample(rng, 1_000_000)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 0.01) < 3 * se


def test_sample_empirical_cdf_ks_band():
    d = HyperExpDist(np.array([0.5, 0.5]), np.array([10.0, 1000.0]))
    x = d.sample(np.random.default_rng(202), 1_000_000)
    res = stats.kstest(x, d.cdf)
    assert res.pvalue > 0.01


def test_sample_deterministic_under_seed():
    d = HyperExpDist(np.array([0.3, 0.7]), np.array([10.0, 1000.0]))
    a = d.sample(np.random.default_rng(7), 1000)
    b = d.sample(np.random.default_rng(7), 1000)
    assert np.array_equal(a, b)


def test_sample_labels_follow_weights():
    d = HyperExpDist(np.array([0.3, 0.7]), np.array([10.0, 1000.0]))
    _, comps = d.sample_with_labels(np.random.default_rng(11), 200_000)
    assert np.bincount(comps)[1] / comps.size == pytest.approx(0.7, abs=0.01)


def test_construction_sorts_rates_with_weights():
    d = HyperExpDist(np.array([0.7, 0.3]), np.array([1000.0, 10.0]))
    assert np.array_equal(d.rates, [10.0, 1000.0])
    assert np.array_equal(d.weights, [0.3, 0.7])


def test_construction_drops_negligible_weights():
    d = HyperExpDist(np.array([1e-13, 1.0 - 1e-13]), np.array([5.0, 50.0]))
    assert d.n == 1
    assert d.rates[0] == 50.0
    assert d.weights[0] == 1.0


def test_construction_validation():
    with pytest.raises(ValueError):
        HyperExpDist(np.array([0.5, 0.6]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        HyperExpDist(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        HyperExpDist(np.array([-0.1, 1.1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        HyperExpDist(np.array([np.nan, 1.0]), np.array([1.0, 2.0]))


def test_duplicate_rates_flagged():
    d = HyperExpDist(np.array([0.5, 0.5]), np.array([3.0, 3.0]))
    assert d.has_duplicate_rates
    assert not exponential(3.0).has_duplicate_rates


def test_record_round_trip(two_rate_mixture):
    rec = two_rate_mixture.to_record()
    assert rec["n"] == 2
    back = HyperExpDist.from_record(rec)
    assert np.allclose(back.weights, two_rate_mixture.weights)
    assert np.allclose(back.rates, two_rate_mixture.rates)


@st.composite
def mixtures(draw):
    k = draw(st.integers(1, 5))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    rates = np.array(draw(st.lists(st.floats(1e-3, 1e6), min_size=k, max_size=k)))
    return HyperExpDist(weights / weights.sum(), rates)


TIMES = st.one_of(st.sampled_from([0.0, math.inf, 1e300]), st.floats(0.0, 1e300),
                  st.floats(0.0, 10.0))


@given(dist=mixtures(), t=TIMES)
def test_float_time_matches_array_path_bit_for_bit(dist, t):
    # a float skips the array conversion but computes the same product,
    # exp and dot. A many-time array call sums each row through a BLAS
    # matrix-vector product instead of a dot, which can differ in the last
    # bit, so the reference is a one-time array (0-d and length 1), the
    # path a scalar time took before it had its own.
    for f in (dist.ccdf, dist.cdf, dist.pdf):
        value = f(t)
        assert type(value) is float
        assert value == f(np.array(t)) == f(np.array([t]))[0]
    for f in (dist.ccdf, dist.cdf, dist.pdf):
        assert math.isnan(f(math.nan))
        with pytest.raises(ValueError, match="nonnegative"):
            f(-t if t > 0 else -1e-300)
