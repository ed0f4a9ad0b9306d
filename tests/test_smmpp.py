import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from oppaccess import (
    HyperExpDist,
    ModelError,
    NonstationarySchedule,
    SmmppModel,
    generate,
    generate_nonstationary,
    smmpp,
    steady_state,
)

from _oracles import per_cycle_walk


def test_steady_state_symmetric_three_state(three_state_model):
    assert np.allclose(three_state_model.steady, 1.0 / 3.0, atol=1e-12)


def test_steady_state_single_state():
    assert np.allclose(steady_state(np.array([[1.0]])), [1.0])


def test_steady_state_two_state_hand_solved():
    # alpha = alpha P with P rows (.5,.5) and (.25,.75) solves to (1/3, 2/3)
    alpha = steady_state(np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert np.allclose(alpha, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_steady_state_periodic_chain_is_fine():
    assert np.allclose(steady_state(np.array([[0.0, 1.0], [1.0, 0.0]])), [0.5, 0.5])


def test_steady_state_rejects_reducible():
    two_blocks = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(ModelError):
        steady_state(two_blocks)


def test_steady_state_rejects_transient_states():
    absorbing = np.array([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ModelError):
        steady_state(absorbing)


def test_steady_state_rejects_bad_rows():
    with pytest.raises(ModelError):
        steady_state(np.array([[0.6, 0.6], [0.5, 0.5]]))
    with pytest.raises(ModelError):
        steady_state(np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_model_sorts_rates_and_permutes_matrix():
    m = SmmppModel(np.array([6000.0, 5.0, 100.0]), np.array([
        [0.90, 0.05, 0.05],
        [0.02, 0.90, 0.08],
        [0.03, 0.05, 0.92],
    ]))
    assert np.array_equal(m.rates, [5.0, 100.0, 6000.0])
    # row for rate 5 was index 1 with p(5 -> 6000) = 0.02
    assert m.transition[0, 2] == 0.02
    assert m.transition[1, 2] == 0.03  # rate 100 was index 2, p(100 -> 6000) = 0.03


def test_generate_single_state_poisson_mean():
    m = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    trace = generate(m, 100_000, seed=3)
    se = trace.durations.std() / math.sqrt(trace.n)
    assert abs(trace.durations.mean() - 0.01) < 3 * se
    assert np.all(trace.states == 0)


def test_generate_occupancy_matches_steady_state(three_state_model):
    trace = generate(three_state_model, 1_000_000, seed=11)
    occupancy = np.bincount(trace.states, minlength=3) / trace.n
    assert np.all(np.abs(occupancy - 1.0 / 3.0) <= 0.01 / 3.0)


def test_generate_per_state_durations_are_exponential(three_state_model):
    trace = generate(three_state_model, 300_000, seed=17)
    for i, rate in enumerate(three_state_model.rates):
        grouped = trace.durations[trace.states == i]
        res = stats.kstest(grouped, "expon", args=(0.0, 1.0 / rate))
        assert res.pvalue > 0.01


def test_generate_pooled_durations_match_marginal(three_state_model):
    # consecutive cycles are state-correlated; thin before the i.i.d. KS test
    trace = generate(three_state_model, 1_000_000, seed=11)
    thinned = trace.durations[::50]
    res = stats.kstest(thinned, three_state_model.marginal_dist().cdf)
    assert res.pvalue > 0.01


def test_generate_is_pure_function_of_seed(three_state_model):
    a = generate(three_state_model, 5000, seed=9)
    b = generate(three_state_model, 5000, seed=9)
    c = generate(three_state_model, 5000, seed=10)
    assert np.array_equal(a.durations, b.durations)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.durations, c.durations)


@st.composite
def ring_models(draw):
    """Irreducible 1-6 state models: each state moves to the next one around
    a ring with positive probability; every other entry is zero or a small
    integer weight, so rows are often sparse or deterministic."""
    k = draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                     min_size=k, max_size=k)), dtype=float)
    weights[np.arange(k), (np.arange(k) + 1) % k] += 1.0
    rates = draw(st.lists(st.floats(0.5, 1e4), min_size=k, max_size=k))
    return SmmppModel(np.array(rates), weights / weights.sum(axis=1, keepdims=True))


@st.composite
def iid_state_models(draw):
    """2-6-state models whose transition rows are all equal (mixtures)."""
    k = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)), dtype=float)
    rates = draw(st.lists(st.floats(0.5, 1e4), min_size=k, max_size=k, unique=True))
    return SmmppModel.from_mixture(HyperExpDist(weights / weights.sum(), np.array(rates)))


# (block, map entries per chunk): the shipped sizes, and small ones that put
# many block and chunk edges inside short traces
GEOMETRIES = [(smmpp._BLOCK, smmpp._CHUNK_MAPS), (4, 64), (8, 8)]


@given(model=st.one_of(ring_models(), iid_state_models()),
       n=st.one_of(st.integers(1, 80), st.sampled_from([1023, 1024, 1025, 1026, 2049, 3073])),
       geometry=st.sampled_from(GEOMETRIES),
       seed=st.integers(0, 2**32))
def test_generate_matches_per_cycle_walk(model, n, geometry, seed):
    block, chunk_maps = geometry
    with mock.patch.multiple(smmpp, _BLOCK=block, _CHUNK_MAPS=chunk_maps):
        trace = generate(model, n, seed)
    durations, states = per_cycle_walk(model, n, np.random.default_rng(seed))
    assert np.array_equal(trace.states, states)
    assert np.array_equal(trace.durations, durations)


def test_marginal_dist_single_state():
    m = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    d = m.marginal_dist()
    assert d.n == 1 and d.rates[0] == 100.0


def test_marginal_dist_three_state(three_state_model):
    d = three_state_model.marginal_dist()
    assert np.allclose(d.weights, 1.0 / 3.0, atol=1e-12)
    assert np.array_equal(d.rates, [5.0, 100.0, 6000.0])


def test_marginal_dist_uses_steady_state():
    m = SmmppModel(np.array([10.0, 1000.0]), np.array([[0.5, 0.5], [0.25, 0.75]]))
    assert np.allclose(m.marginal_dist().weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_conditional_next_dist_rows(three_state_model):
    d = three_state_model.conditional_next_dist(0)
    assert np.allclose(d.weights, [0.9, 0.05, 0.05])
    assert np.array_equal(d.rates, [5.0, 100.0, 6000.0])
    single = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    assert single.conditional_next_dist(0).rates[0] == 100.0


def test_conditional_next_dist_slow_chain_row_rate():
    # with nearly no switching the conditional mean rate tracks the own rate
    p = np.full((3, 3), 0.00005)
    np.fill_diagonal(p, 0.9999)
    m = SmmppModel(np.array([5.0, 100.0, 6000.0]), p)
    for i in range(3):
        row_rate = float(m.transition[i] @ m.rates)
        assert abs(row_rate - m.rates[i]) / m.rates[i] <= 0.10


def test_conditional_next_dist_index_errors(three_state_model):
    with pytest.raises(ModelError):
        three_state_model.conditional_next_dist(3)
    with pytest.raises(ModelError):
        three_state_model.conditional_next_dist(-1)


def test_from_mixture_matches_weights(two_rate_mixture):
    m = SmmppModel.from_mixture(two_rate_mixture)
    assert np.allclose(m.steady, two_rate_mixture.weights, atol=1e-12)
    trace = generate(m, 200_000, seed=5)
    occ = np.bincount(trace.states, minlength=2) / trace.n
    assert np.all(np.abs(occ - two_rate_mixture.weights) < 0.01)


def test_generate_nonstationary_single_segment_equals_generate(three_state_model):
    schedule = NonstationarySchedule(((4000, three_state_model),))
    a = generate_nonstationary(schedule, seed=21)
    b = generate(three_state_model, 4000, seed=21)
    assert np.array_equal(a.durations, b.durations)
    assert np.array_equal(a.states, b.states)
    assert a.boundaries == (0,)


def test_generate_nonstationary_boundaries_and_labels():
    seg_a = HyperExpDist(np.array([0.5, 0.5]), np.array([100.0, 6000.0]))
    seg_b = HyperExpDist(np.array([0.9, 0.1]), np.array([100.0, 6000.0]))
    schedule = NonstationarySchedule(((10_000, seg_a), (10_000, seg_b)))
    trace = generate_nonstationary(schedule, seed=33)
    assert trace.boundaries == (0, 10_000)
    assert trace.n == 20_000
    first = np.bincount(trace.states[:10_000], minlength=2) / 10_000
    second = np.bincount(trace.states[10_000:], minlength=2) / 10_000
    assert first[0] == pytest.approx(0.5, abs=0.02)
    assert second[0] == pytest.approx(0.9, abs=0.02)


def test_schedule_validation(three_state_model):
    with pytest.raises(ValueError):
        NonstationarySchedule(())
    with pytest.raises(ValueError):
        NonstationarySchedule(((0, three_state_model),))
    with pytest.raises(ValueError):
        NonstationarySchedule(((5, "nonsense"),))


def test_schedule_refuses_bool_and_non_integral_counts(three_state_model):
    for count in (2.7, True, False, np.True_, np.float64(2.5), math.nan, math.inf, "3", None):
        with pytest.raises(ValueError, match="integers"):
            generate(three_state_model, count, 0)
        with pytest.raises(ValueError, match="integers"):
            NonstationarySchedule(((4, three_state_model), (count, three_state_model)))
    for count in (3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0)):
        trace = generate(three_state_model, count, 0)
        assert trace.n == 3
        assert np.array_equal(trace.durations, generate(three_state_model, 3, 0).durations)


def test_model_validation():
    with pytest.raises(ModelError):
        SmmppModel(np.array([5.0, 100.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(ModelError):
        SmmppModel(np.array([-5.0, 100.0]), np.eye(2))
    with pytest.raises(ModelError, match="finite"):
        SmmppModel(np.array([5.0, 100.0]), np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_trace_validation(three_state_model):
    from oppaccess import IdleTrace

    with pytest.raises(ValueError):
        IdleTrace(np.array([0.1, -0.2]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            IdleTrace(np.array([0.1, bad]))
    with pytest.raises(ValueError):
        IdleTrace(np.array([0.1, 0.2]), np.array([0]))
    with pytest.raises(ValueError):
        IdleTrace(np.array([0.1, 0.2]), boundaries=(1,))
    ok = IdleTrace(np.array([0.1, 0.2]))
    assert ok.states is None and ok.n == 2
