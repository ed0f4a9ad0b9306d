import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oppaccess import (
    DataError,
    Episode,
    HyperExpDist,
    IdleTrace,
    ModelError,
    NonstationarySchedule,
    SmmppModel,
    Strategy,
    always_transmit,
    full_balanced,
    full_optimal,
    generate,
    generate_nonstationary,
    markov_opt_balanced,
    markov_optimal,
    markov_os_balanced,
    markov_os_suboptimal,
    multiple_shot,
    predict,
    run,
    stat_one_shot,
    stat_optimal,
)
from oppaccess import simulate
from oppaccess.simulate import _batch_se

from _oracles import per_episode_run


@pytest.fixture(scope="module")
def medium_trace(three_state_model):
    return generate(three_state_model, 200_000, seed=314)


def within_mc_tolerance(measured, predicted, se, rel=0.01, sigmas=3.0):
    return abs(measured - predicted) <= max(rel * abs(predicted), sigmas * se)


def test_always_transmit_uses_every_idle_second(medium_trace):
    res = run(medium_trace, always_transmit(), seed=0)
    assert res.collision_prob == 1.0
    assert res.total_access == pytest.approx(float(medium_trace.durations.sum()), rel=1e-12)
    assert res.capacity == pytest.approx(medium_trace.durations.mean(), rel=1e-12)


def test_run_matches_predictions_stat(three_rate_mixture, medium_trace):
    for ctor in (stat_one_shot, stat_optimal):
        s = ctor(three_rate_mixture, 0.1)
        res = run(medium_trace, s, seed=5)
        pred = predict(s, three_rate_mixture)
        assert within_mc_tolerance(res.capacity, pred.capacity, res.capacity_se)
        assert within_mc_tolerance(res.collision_prob, pred.collision, res.collision_se)


def test_run_matches_predictions_markov_and_full(three_state_model, medium_trace):
    for ctor in (markov_os_balanced, markov_opt_balanced, markov_optimal,
                 full_balanced, full_optimal):
        s = ctor(three_state_model, 0.1)
        res = run(medium_trace, s, source=three_state_model, seed=6)
        pred = predict(s, three_state_model)
        assert within_mc_tolerance(res.capacity, pred.capacity, res.capacity_se), s.name
        assert within_mc_tolerance(res.collision_prob, pred.collision, res.collision_se), s.name


def test_multiple_shot_collision_stays_under_budget(three_rate_mixture, medium_trace):
    s = multiple_shot(three_rate_mixture.rates, 0.05)
    res = run(medium_trace, s, seed=8)
    assert res.collision_prob <= 0.05 + 3 * res.collision_se


def test_access_never_exceeds_idle_time(three_rate_mixture, medium_trace):
    s = stat_one_shot(three_rate_mixture, 0.2)
    access = simulate._play(medium_trace, s, None, 9)[0]
    assert np.all(access <= medium_trace.durations + 1e-15)
    assert run(medium_trace, s, seed=9).total_access < float(medium_trace.durations.sum())


def test_capacity_monotone_in_eta(three_state_model, three_rate_mixture):
    trace = generate(three_state_model, 100_000, seed=77)
    ctors = {
        "stat_one_shot": lambda e: stat_one_shot(three_rate_mixture, e),
        "stat_optimal": lambda e: stat_optimal(three_rate_mixture, e),
        "multiple_shot": lambda e: multiple_shot(three_rate_mixture.rates, e),
        "markov_os_balanced": lambda e: markov_os_balanced(three_state_model, e),
        "markov_os_suboptimal": lambda e: markov_os_suboptimal(three_state_model, e),
        "markov_opt_balanced": lambda e: markov_opt_balanced(three_state_model, e),
        "markov_optimal": lambda e: markov_optimal(three_state_model, e),
        "full_balanced": lambda e: full_balanced(three_state_model, e),
        "full_optimal": lambda e: full_optimal(three_state_model, e),
    }
    for name, ctor in ctors.items():
        caps = [run(trace, ctor(eta), source=three_state_model, seed=3).capacity
                for eta in (0.01, 0.05, 0.1, 0.2)]
        assert np.all(np.diff(caps) >= -1e-15), name


def test_run_is_deterministic(three_state_model, medium_trace):
    s = markov_optimal(three_state_model, 0.1)
    a = run(medium_trace, s, source=three_state_model, seed=123)
    b = run(medium_trace, s, source=three_state_model, seed=123)
    assert a.capacity == b.capacity
    assert a.collided_count == b.collided_count
    assert np.array_equal(a.window_collisions, b.window_collisions)
    assert a.first_context == b.first_context


def test_markov_mode_needs_labels_and_model(three_state_model, three_rate_mixture):
    bare = IdleTrace(np.full(1000, 0.01))
    s = markov_os_balanced(three_state_model, 0.1)
    with pytest.raises(DataError, match="markov"):
        run(bare, s, source=three_state_model, seed=0)
    labelled = generate(three_state_model, 1000, seed=1)
    with pytest.raises(ModelError):
        run(labelled, s, source=None, seed=0)


def test_markov_source_must_match_contexts(two_state_model, three_state_model):
    # a 3-state source would draw first context 2, which no 2-context
    # strategy has
    trace = generate(two_state_model, 1000, seed=1)
    s = markov_optimal(two_state_model, 0.1)
    with pytest.raises(ModelError, match="2 contexts.*3 states"):
        run(trace, s, source=three_state_model, seed=4)


def test_full_mode_needs_labels(three_state_model):
    bare = IdleTrace(np.full(1000, 0.01))
    s = full_balanced(three_state_model, 0.1)
    with pytest.raises(DataError, match="full"):
        run(bare, s, seed=0)


def test_context_labels_must_fit_strategy():
    trace = IdleTrace(np.full(100, 0.01), np.full(100, 5, dtype=np.int64))
    two_state = SmmppModel(np.array([100.0, 6000.0]), np.array([[0.9, 0.1], [0.1, 0.9]]))
    s = full_balanced(two_state, 0.1)
    with pytest.raises(DataError, match="out of range"):
        run(trace, s, seed=0)


def test_first_context_drawn_for_markov(three_state_model):
    trace = generate(three_state_model, 1000, seed=4)
    s = markov_os_balanced(three_state_model, 0.1)
    res = run(trace, s, source=three_state_model, seed=11)
    assert res.first_context in (0, 1, 2)
    res_stat = run(trace, always_transmit(), seed=11)
    assert res_stat.first_context is None


def test_outage_extremes(three_rate_mixture, medium_trace):
    silent = Strategy("stat", ((),), "silent")
    assert run(medium_trace, silent, seed=0, eta=0.05).outage_prob == 0.0
    assert run(medium_trace, always_transmit(), seed=0, eta=0.99).outage_prob == 1.0


def test_outage_recomputable_at_other_windows(three_rate_mixture, medium_trace):
    # run's window counts and outage against a re-windowing of the oracle's
    # per-cycle collisions
    s = stat_optimal(three_rate_mixture, 0.1)
    collided = per_episode_run(medium_trace, s, seed=2)[1]
    for window in (100, 500, 100.0):
        res = run(medium_trace, s, seed=2, window=window, eta=0.1)
        w = int(window)
        counts = collided[:medium_trace.n // w * w].reshape(-1, w).sum(axis=1)
        assert np.array_equal(res.window_collisions, counts)
        assert res.outage_prob == float(np.mean(counts / w > 0.1))
    with pytest.raises(DataError):
        run(medium_trace, s, seed=2, window=10**9, eta=0.1)
    for window in (2.5, True, np.bool_(True), "3", math.nan):
        with pytest.raises(ValueError, match="window"):
            run(medium_trace, s, seed=2, window=window)
    with pytest.raises(ValueError, match="eta"):
        run(medium_trace, s, seed=2, eta=math.nan)


def test_run_refuses_a_trace_shorter_than_one_window():
    short = IdleTrace(np.full(50, 0.1))
    with pytest.raises(DataError, match="single window of 100 cycles"):
        run(short, always_transmit(), window=100, eta=0.1)
    # without a budget there is no outage figure to refuse
    res = run(short, always_transmit(), window=100)
    assert res.outage_prob is None and res.window_collisions.size == 0
    assert run(short, always_transmit(), window=50, eta=0.1).outage_prob == 1.0


def test_outage_under_weight_drift():
    rates = np.array([100.0, 6000.0])
    design = HyperExpDist(np.array([0.5, 0.5]), rates)
    drifted = HyperExpDist(np.array([0.9, 0.1]), rates)
    trace = generate(SmmppModel.from_mixture(drifted), 100_000, seed=15)
    tuned = run(trace, stat_optimal(design, 0.1), seed=1, window=100, eta=0.1)
    robust = run(trace, multiple_shot(rates, 0.1), seed=2, window=100, eta=0.1)
    assert tuned.outage_prob > robust.outage_prob
    assert tuned.collision_prob > 0.1 + 3 * tuned.collision_se
    assert robust.collision_prob <= 0.1 + 3 * robust.collision_se


def test_fractional_transmit_probability_scales_metrics(three_rate_mixture):
    trace = generate(SmmppModel.from_mixture(three_rate_mixture), 400_000, seed=50)
    tau = 0.01
    certain = Strategy("stat", ((Episode(tau, math.inf),),), "tail")
    coin = Strategy("stat", ((Episode(tau, math.inf, prob=0.5),),), "half-tail")
    pred_certain = predict(certain, three_rate_mixture)
    pred_coin = predict(coin, three_rate_mixture)
    assert pred_coin.collision == pytest.approx(0.5 * pred_certain.collision, rel=1e-12)
    assert pred_coin.capacity == pytest.approx(0.5 * pred_certain.capacity, rel=1e-12)
    res = run(trace, coin, seed=3)
    assert abs(res.collision_prob - pred_coin.collision) <= 3 * res.collision_se
    assert abs(res.capacity - pred_coin.capacity) <= max(3 * res.capacity_se, 0.01 * pred_coin.capacity)


def _compare(strategies: dict, trace, eta, seed, source=None) -> list:
    """(name, SimResult) per strategy in input order over the one trace,
    strategy k on child k of SeedSequence(seed), as `oppaccess compare`
    plays them."""
    seeds = np.random.SeedSequence(seed).spawn(len(strategies))
    return [(name, run(trace, strategy, source=source, seed=child, eta=eta))
            for (name, strategy), child in zip(strategies.items(), seeds)]


def test_compare_runs_identical_trace(three_state_model, three_rate_mixture):
    trace = generate(three_state_model, 50_000, seed=21)
    strategies = {
        "stat_optimal": stat_optimal(three_rate_mixture, 0.05),
        "multiple_shot": multiple_shot(three_rate_mixture.rates, 0.05),
    }
    rows = _compare(strategies, trace, 0.05, 0, three_state_model)
    assert [name for name, _ in rows] == ["stat_optimal", "multiple_shot"]
    # tuned-to-the-model strategy wins on matched stationary traffic
    assert rows[0][1].capacity >= rows[1][1].capacity
    again = _compare(strategies, trace, 0.05, 0, three_state_model)
    assert rows[0][1].capacity == again[0][1].capacity
    assert rows[1][1].collision_prob == again[1][1].collision_prob


def test_compare_on_drifted_traffic_shows_robustness_gap():
    rates = np.array([100.0, 6000.0])
    design = HyperExpDist(np.array([0.5, 0.5]), rates)
    schedule = NonstationarySchedule(tuple(
        (20_000, HyperExpDist(np.array([a, 1.0 - a]), rates)) for a in (0.7, 0.8, 0.9)))
    trace = generate_nonstationary(schedule, seed=33)
    strategies = {
        "stat_optimal": stat_optimal(design, 0.1),
        "multiple_shot": multiple_shot(rates, 0.1),
    }
    rows = dict(_compare(strategies, trace, 0.1, 5))
    assert rows["stat_optimal"].collision_prob > 0.1
    assert rows["multiple_shot"].collision_prob <= 0.1 + 3 * rows["multiple_shot"].collision_se


# a bound is sometimes a duration, so both `x == start` and `x == end` occur
BOUNDS = st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.1, 0.3, 1.0, 2.0])


@st.composite
def episode_lists(draw):
    """0-3 sorted, disjoint episodes, the last possibly endless, some
    entered with probability below 1."""
    count = draw(st.integers(0, 3))
    points = sorted(draw(st.sets(BOUNDS, min_size=2 * count, max_size=2 * count)))
    if count and draw(st.booleans()):
        points[-1] = math.inf
    probs = draw(st.lists(st.sampled_from([1.0, 1.0, 0.5, 0.9]), min_size=count, max_size=count))
    return tuple(Episode(points[2 * i], points[2 * i + 1], p) for i, p in enumerate(probs))


@st.composite
def simulations(draw):
    mode = draw(st.sampled_from(["stat", "markov", "full"]))
    k = 1 if mode == "stat" else draw(st.integers(1, 4))
    strategy = Strategy(mode, tuple(draw(episode_lists()) for _ in range(k)), "random")
    n = draw(st.integers(1, 40))
    durations = draw(st.lists(st.one_of(BOUNDS.filter(bool), st.floats(1e-4, 5.0)),
                              min_size=n, max_size=n))
    states = None if mode == "stat" and draw(st.booleans()) else np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    source = SmmppModel(np.arange(1.0, k + 1), np.full((k, k), 1.0 / k))
    return IdleTrace(np.array(durations), states), strategy, source


@given(simulations(), st.integers(0, 2**32), st.integers(1, 9))
def test_run_agrees_with_per_episode_oracle(sim, seed, block):
    # the depth-pass kernel against one (context, episode) pair at a time;
    # small blocks put block edges inside short traces
    trace, strategy, source = sim
    with mock.patch.object(simulate, "_BLOCK", block):
        got = simulate._play(trace, strategy, source, seed)
        res = run(trace, strategy, source=source, seed=seed, window=1)
    access, collided, first = per_episode_run(trace, strategy, source=source, seed=seed)
    assert got[0].tobytes() == access.tobytes()
    assert np.array_equal(got[1], collided)
    assert got[2] == res.first_context == first
    assert res.total_access == float(access.sum())
    assert np.array_equal(res.window_collisions, collided)
    for got, want in ((res.capacity_se, _batch_se(access)),
                      (res.collision_se, _batch_se(collided.astype(float)))):
        assert got == want or (math.isnan(got) and math.isnan(want))
