import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oppaccess import (
    Episode,
    HyperExpDist,
    ModelError,
    SmmppModel,
    SolverError,
    Strategy,
    always_transmit,
    exponential,
    full_balanced,
    full_optimal,
    markov_opt_balanced,
    markov_optimal,
    markov_os_balanced,
    markov_os_suboptimal,
    multiple_shot,
    predict,
    solve_root,
    stat_one_shot,
    stat_optimal,
)
from oppaccess.strategies import (
    COLLISION_TOL,
    DEFAULT_EPSILON,
    MARKOV,
    PAPER_STRATEGIES,
    _context_laws,
    build,
)

from _oracles import (
    markov_os_balanced_small_eta_capacity,
    multiple_shot_small_eta_capacity,
    scalar_markov_optimal,
    slotted_greedy_capacity,
)

ETAS = (0.01, 0.05, 0.1)


def build_all(model, dist, eta, epsilon=1e-3):
    return {
        "stat_one_shot": stat_one_shot(dist, eta),
        "stat_optimal": stat_optimal(dist, eta),
        "multiple_shot": multiple_shot(dist.rates, eta, epsilon),
        "markov_os_balanced": markov_os_balanced(model, eta),
        "markov_os_suboptimal": markov_os_suboptimal(model, eta),
        "markov_opt_balanced": markov_opt_balanced(model, eta),
        "markov_optimal": markov_optimal(model, eta),
        "full_balanced": full_balanced(model, eta),
        "full_optimal": full_optimal(model, eta),
    }


# ---------------------------------------------------------------- solve_root

def test_solve_root_identity():
    assert solve_root(lambda x: x, 0.5, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_solve_root_exponential_cap():
    tau = solve_root(lambda t: 1.0 - math.exp(-100.0 * t), 0.1, 0.0, 1.0)
    assert tau == pytest.approx(math.log(10.0 / 9.0) / 100.0, abs=1e-12)


def test_solve_root_mixture_residual(three_rate_mixture):
    tau = solve_root(three_rate_mixture.cdf, 0.01, 0.0, 10.0)
    assert abs(three_rate_mixture.cdf(tau) - 0.01) < 1e-12


def test_solve_root_target_outside_bracket():
    with pytest.raises(SolverError):
        solve_root(lambda x: x, 2.0, 0.0, 1.0)


# ------------------------------------------------------------------- predict

def test_always_transmit_prediction(three_rate_mixture):
    pred = predict(always_transmit(), three_rate_mixture)
    assert pred.collision == pytest.approx(1.0, abs=1e-12)
    assert pred.capacity == pytest.approx(three_rate_mixture.mean(), rel=1e-12)


def test_silent_strategy_prediction(three_rate_mixture):
    silent = Strategy("stat", ((),), "silent")
    pred = predict(silent, three_rate_mixture)
    assert pred.capacity == 0.0 and pred.collision == 0.0


def test_tail_episode_collision_is_survival_mass(three_rate_mixture):
    tau = 0.0123
    s = Strategy("stat", ((Episode(tau, math.inf),),), "tail")
    pred = predict(s, three_rate_mixture)
    assert pred.collision == pytest.approx(three_rate_mixture.ccdf(tau), rel=1e-14)


def test_predict_rejects_mode_source_mismatch(three_state_model, three_rate_mixture):
    markov = markov_os_balanced(three_state_model, 0.1)
    with pytest.raises(ModelError):
        predict(markov, three_rate_mixture)
    wrong_n = SmmppModel(np.array([10.0, 1000.0]), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ModelError):
        predict(markov, wrong_n)


def test_stat_strategy_accepts_model_source(three_state_model, three_rate_mixture):
    s = stat_optimal(three_rate_mixture, 0.1)
    a = predict(s, three_rate_mixture)
    b = predict(s, three_state_model)
    assert a.capacity == pytest.approx(b.capacity, rel=1e-12)


# ------------------------------------------------------- stat constructions

def test_stat_one_shot_single_exponential():
    s = stat_one_shot(exponential(100.0), 0.1)
    (ep,), = s.episodes
    assert ep.start == 0.0
    assert ep.end == pytest.approx(math.log(10.0 / 9.0) / 100.0, rel=1e-10)
    pred = predict(s, exponential(100.0))
    assert pred.capacity == pytest.approx(1e-3, rel=1e-10)


def test_stat_one_shot_small_eta_cap_approximation(three_rate_mixture):
    s = stat_one_shot(three_rate_mixture, 0.01)
    tau = s.episodes[0][0].end
    assert tau == pytest.approx(0.01 / 2035.0, rel=0.02)
    assert abs(three_rate_mixture.cdf(tau) - 0.01) < 1e-12


def test_stat_one_shot_eta_validation(three_rate_mixture):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            stat_one_shot(three_rate_mixture, bad)
    # any representable eta below 1 stays solvable inside the bracket
    s = stat_one_shot(three_rate_mixture, 1.0 - 1e-13)
    assert s.episodes[0][0].end < 10.0


def test_stat_optimal_single_exponential_matches_one_shot_capacity():
    d = exponential(100.0)
    opt = stat_optimal(d, 0.1)
    (ep,), = opt.episodes
    assert ep.start == pytest.approx(math.log(10.0) / 100.0, rel=1e-10)
    assert math.isinf(ep.end)
    assert predict(opt, d).capacity == pytest.approx(predict(stat_one_shot(d, 0.1), d).capacity, rel=1e-9)


def test_stat_optimal_beats_one_shot_on_mixture(three_rate_mixture):
    for eta in ETAS:
        gain = (predict(stat_optimal(three_rate_mixture, eta), three_rate_mixture).capacity
                / predict(stat_one_shot(three_rate_mixture, eta), three_rate_mixture).capacity)
        assert gain > 10.0


def test_stat_optimal_collision_by_construction():
    d = HyperExpDist(np.array([0.5, 0.5]), np.array([100.0, 6000.0]))
    pred = predict(stat_optimal(d, 0.1), d)
    assert pred.collision == pytest.approx(0.1, abs=1e-12)


def test_stat_optimal_unreachable_threshold_reported(three_rate_mixture):
    with pytest.raises(SolverError):
        stat_optimal(three_rate_mixture, 1e-200)


# ----------------------------------------------------- markov constructions

def test_markov_os_balanced_degenerate_single_state():
    m = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    s = markov_os_balanced(m, 0.05)
    ref = stat_one_shot(exponential(100.0), 0.05)
    assert s.episodes[0][0].end == pytest.approx(ref.episodes[0][0].end, rel=1e-12)


def test_markov_os_balanced_small_eta_formula(three_state_model):
    # frozen value of the linearized capacity at eta = 0.1
    approx = markov_os_balanced_small_eta_capacity(three_state_model, 0.1)
    assert approx == pytest.approx(1.9928276836879e-4, rel=1e-10)
    # the linearization matches the exact construction only for small eta
    eta = 0.001
    exact = predict(markov_os_balanced(three_state_model, eta), three_state_model).capacity
    assert exact == pytest.approx(markov_os_balanced_small_eta_capacity(three_state_model, eta), rel=0.05)


def test_markov_os_balanced_slow_chain_caps_track_own_rate():
    p = np.full((3, 3), 0.00005)
    np.fill_diagonal(p, 0.9999)
    m = SmmppModel(np.array([5.0, 100.0, 6000.0]), p)
    s = markov_os_balanced(m, 0.01)
    for i, ctx in enumerate(s.episodes):
        assert ctx[0].end == pytest.approx(0.01 / m.rates[i], rel=0.03)


def test_markov_os_suboptimal_caps_the_most_valuable_state(three_state_model):
    # eta below every steady weight: only the longest-idle previous state
    # transmits, with a cap sized to the whole budget
    s = markov_os_suboptimal(three_state_model, 0.1)
    assert [len(ctx) for ctx in s.episodes] == [1, 0, 0]
    pred = predict(s, three_state_model)
    assert pred.collision == pytest.approx(0.1, abs=1e-9)
    assert pred.per_state[0][1] == pytest.approx(0.3, abs=1e-9)


def test_markov_os_suboptimal_beats_balanced(three_state_model):
    for eta in ETAS:
        sub = predict(markov_os_suboptimal(three_state_model, eta), three_state_model)
        bal = predict(markov_os_balanced(three_state_model, eta), three_state_model)
        assert sub.capacity >= bal.capacity


def test_markov_os_suboptimal_large_eta_prefix(three_state_model):
    s = markov_os_suboptimal(three_state_model, 0.95)
    full = [ctx for ctx in s.episodes if ctx and math.isinf(ctx[0].end)]
    capped = [ctx for ctx in s.episodes if ctx and math.isfinite(ctx[0].end)]
    assert len(full) == 2 and len(capped) == 1
    assert predict(s, three_state_model).collision == pytest.approx(0.95, abs=1e-9)


def test_markov_opt_balanced_per_state_collision(three_state_model):
    s = markov_opt_balanced(three_state_model, 0.1)
    pred = predict(s, three_state_model)
    for _, collision in pred.per_state:
        assert collision == pytest.approx(0.1, abs=1e-11)


def test_markov_opt_balanced_single_state_is_stat_optimal():
    m = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    s = markov_opt_balanced(m, 0.1)
    ref = stat_optimal(exponential(100.0), 0.1)
    assert s.episodes[0][0].start == pytest.approx(ref.episodes[0][0].start, rel=1e-12)


def test_markov_opt_balanced_sits_between(three_state_model):
    for eta in ETAS:
        bal = predict(markov_opt_balanced(three_state_model, eta), three_state_model).capacity
        osb = predict(markov_os_balanced(three_state_model, eta), three_state_model).capacity
        opt = predict(markov_optimal(three_state_model, eta), three_state_model).capacity
        assert osb <= bal * (1 + 1e-9)
        assert bal <= opt * (1 + 1e-9)


def test_markov_optimal_single_state_is_stat_optimal():
    m = SmmppModel(np.array([100.0]), np.array([[1.0]]))
    s = markov_optimal(m, 0.1)
    ref = stat_optimal(exponential(100.0), 0.1)
    assert s.episodes[0][0].start == pytest.approx(ref.episodes[0][0].start, rel=1e-9)


def test_markov_optimal_collision_tolerance(three_state_model, two_state_model):
    for model in (three_state_model, two_state_model):
        for eta in (0.01, 0.05, 0.1, 0.2):
            pred = predict(markov_optimal(model, eta), model)
            assert abs(pred.collision - eta) <= 1e-9


def test_markov_optimal_matches_slotted_oracle(two_state_model):
    exact = predict(markov_optimal(two_state_model, 0.1), two_state_model).capacity
    oracle = slotted_greedy_capacity(two_state_model, 0.1, delta=1e-4,
                                     horizon=5.0 / two_state_model.rates.min())
    assert oracle == pytest.approx(exact, rel=0.01)


def test_markov_optimal_three_state_slotted_oracle(three_state_model):
    exact = predict(markov_optimal(three_state_model, 0.1), three_state_model).capacity
    oracle = slotted_greedy_capacity(three_state_model, 0.1, delta=1e-4,
                                     horizon=5.0 / three_state_model.rates.min())
    assert oracle == pytest.approx(exact, rel=0.01)


def test_markov_optimal_threshold_tie_on_deterministic_row():
    # row 0 jumps deterministically to the fast state: its conditional law
    # is a single exponential, a constant value-to-cost atom the threshold
    # must land on for large budgets
    m = SmmppModel(np.array([10.0, 1000.0]), np.array([[0.0, 1.0], [0.3, 0.7]]))
    eta = 0.9
    s = markov_optimal(m, eta)
    pred = predict(s, m)
    assert pred.collision == pytest.approx(eta, abs=1e-9)
    # mixture state transmits fully; the atom state spends only part of its
    # mass, realized as the canonical tail policy
    assert s.episodes[1][0].start == 0.0 and math.isinf(s.episodes[1][0].end)
    assert s.episodes[0][0].start > 0.0 and math.isinf(s.episodes[0][0].end)
    share = (eta - m.steady[1]) / m.steady[0]
    assert pred.per_state[0][1] == pytest.approx(share, abs=1e-9)


def test_markov_optimal_budget_below_constant_row_mass():
    # row 1 always returns to the slowest rate: a constant ratio at the
    # global supremum; small budgets must be spent there alone
    m = SmmppModel(np.array([10.0, 1000.0]), np.array([[0.9, 0.1], [1.0, 0.0]]))
    eta = 0.05
    s = markov_optimal(m, eta)
    pred = predict(s, m)
    assert pred.collision == pytest.approx(eta, abs=1e-9)
    assert s.episodes[0] == ()           # mixture state priced out entirely
    expected_share = eta / m.steady[1]
    assert s.episodes[1][0].start == pytest.approx(math.log(1 / expected_share) / 10.0, rel=1e-9)
    assert math.isinf(s.episodes[1][0].end)
    assert pred.per_state[1][1] == pytest.approx(expected_share, abs=1e-9)


@st.composite
def spread_models(draw):
    """2-5-state models whose rates span 1-4 decades. Each state moves to
    the next one around a ring with positive probability, so the chain is
    irreducible; every other entry is zero or a small integer weight, so
    rows are often sparse or deterministic."""
    k = draw(st.integers(2, 5))
    inner = draw(st.lists(st.floats(0.01, 0.99), min_size=k - 2, max_size=k - 2))
    exponents = draw(st.floats(1.0, 4.0)) * np.array([0.0, 1.0] + inner)
    rates = draw(st.floats(0.5, 50.0)) * 10.0 ** exponents
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                                     min_size=k, max_size=k)), dtype=float)
    weights[np.arange(k), (np.arange(k) + 1) % k] += 1.0
    return SmmppModel(rates, weights / weights.sum(axis=1, keepdims=True))


def _built(construct, model, eta):
    try:
        return construct(model, eta)
    except (SolverError, ModelError) as exc:
        return type(exc)


# the oracle takes up to 0.3 s per 5-state build
@settings(max_examples=40)
@given(model=spread_models(), eta=st.floats(0.001, 0.95))
def test_markov_optimal_agrees_with_scalar_oracle(model, eta):
    # the row-batched Newton search against the one-row-at-a-time bisection
    new = _built(markov_optimal, model, eta)
    old = _built(scalar_markov_optimal, model, eta)
    if isinstance(old, type) or isinstance(new, type):
        assert new is old
        return
    assert [len(ctx) for ctx in new.episodes] == [len(ctx) for ctx in old.episodes]
    for ctx_new, ctx_old in zip(new.episodes, old.episodes):
        for ep_new, ep_old in zip(ctx_new, ctx_old):
            assert (ep_new.start == 0.0) == (ep_old.start == 0.0)
            assert ep_new.start == pytest.approx(ep_old.start, rel=1e-10, abs=0.0)
            assert ep_new.end == ep_old.end == math.inf
    pred_new, pred_old = predict(new, model), predict(old, model)
    assert abs(pred_new.collision - eta) <= COLLISION_TOL
    assert abs(pred_old.collision - eta) <= COLLISION_TOL
    assert pred_new.capacity == pytest.approx(pred_old.capacity, rel=1e-10, abs=0.0)


# the constructors that spend the whole budget: all but multiple_shot
BUDGET_SPENDERS = tuple(name for name in PAPER_STRATEGIES if name != "multiple_shot")


@given(model=spread_models(), eta=st.floats(0.001, 0.95))
def test_budget_spenders_spend_eta_on_random_models(model, eta):
    for name in BUDGET_SPENDERS:
        try:
            s = build(name, model, eta, DEFAULT_EPSILON)
        except (SolverError, ModelError):
            continue
        assert abs(predict(s, model).collision - eta) <= 1e-9, name


@pytest.mark.parametrize("eta", ETAS)
def test_warm_law_cache_builds_the_same_schedules(eta):
    rates = np.array([2.0, 20.0, 200.0, 2000.0, 20000.0])
    p = np.full((5, 5), 0.05) + 0.75 * np.eye(5)
    warm = SmmppModel(rates, p)
    for name in PAPER_STRATEGIES:
        first = build(name, warm, eta, DEFAULT_EPSILON)
        second = build(name, warm, eta, DEFAULT_EPSILON)
        cold_model = SmmppModel(rates, p)
        cold = build(name, cold_model, eta, DEFAULT_EPSILON)
        assert first.to_record() == second.to_record() == cold.to_record(), name
        assert predict(second, warm) == predict(cold, cold_model), name
    # each law set is built once per model, then shared
    assert _context_laws(MARKOV, warm) is _context_laws(MARKOV, warm)


# ------------------------------------------------------- full constructions

def test_full_balanced_caps(three_state_model):
    s = full_balanced(three_state_model, 0.1)
    assert s.episodes[0][0].end == pytest.approx(math.log(1 / 0.9) / 5.0, rel=1e-12)
    pred = predict(s, three_state_model)
    assert pred.capacity == pytest.approx(0.1 * three_state_model.marginal_dist().mean(), rel=1e-12)
    assert pred.capacity == pytest.approx(7.0055555556e-3, rel=1e-9)


def test_full_balanced_jensen_dominates_one_shot(three_state_model, two_state_model):
    for model in (three_state_model, two_state_model):
        dist = model.marginal_dist()
        for eta in (0.01, 0.05, 0.1, 0.2, 0.5):
            fb = predict(full_balanced(model, eta), model).capacity
            sos = predict(stat_one_shot(dist, eta), dist).capacity
            assert fb >= sos * (1 - 1e-12)


def test_full_optimal_small_budget_uses_slowest_state(three_state_model):
    s = full_optimal(three_state_model, 0.1)
    assert [len(ctx) for ctx in s.episodes] == [1, 0, 0]
    pred = predict(s, three_state_model)
    assert pred.capacity == pytest.approx(0.1 / 5.0, rel=1e-12)
    assert pred.collision == pytest.approx(0.1, abs=1e-12)


def test_full_optimal_prefix_boundary(three_state_model):
    s = full_optimal(three_state_model, 1.0 / 3.0)
    assert [len(ctx) for ctx in s.episodes] == [1, 0, 0]
    assert math.isinf(s.episodes[0][0].end)
    assert predict(s, three_state_model).collision == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_full_optimal_marginal_state_gets_residual(three_state_model):
    s = full_optimal(three_state_model, 0.4)
    assert math.isinf(s.episodes[0][0].end)
    eta_residual = (0.4 - 1.0 / 3.0) / (1.0 / 3.0)
    assert s.episodes[1][0].end == pytest.approx(math.log(1 / (1 - eta_residual)) / 100.0, rel=1e-10)
    assert s.episodes[2] == ()
    assert predict(s, three_state_model).collision == pytest.approx(0.4, abs=1e-12)


def test_prefix_fill_budget_above_float_sum_of_weights():
    # the stationary weights of this chain sum to 1 - 2**-52 in floating
    # point, below the largest budget under 1
    m = SmmppModel(np.array([1.0, 10.0, 100.0]),
                   np.array([[0.1, 0.9, 0.0], [0.0, 0.5, 0.5], [0.9, 0.0, 0.1]]))
    eta = 1.0 - 2.0 ** -53
    assert np.cumsum(m.steady)[-1] < eta
    for construct in (full_optimal, markov_os_suboptimal):
        s = construct(m, eta)
        assert all(ctx == (Episode(0.0, math.inf),) for ctx in s.episodes), construct.__name__


def test_full_optimal_dominates_everything(three_state_model, three_rate_mixture):
    for eta in ETAS:
        strategies = build_all(three_state_model, three_rate_mixture, eta)
        fo = predict(strategies["full_optimal"], three_state_model).capacity
        for name, s in strategies.items():
            source = three_rate_mixture if s.mode == "stat" else three_state_model
            assert fo >= predict(s, source).capacity * (1 - 1e-8), name


# --------------------------------------------------------- multiple shot

def test_multiple_shot_frozen_schedule():
    s = multiple_shot(np.array([100.0, 6000.0]), eta=0.05, epsilon=1e-3)
    (first, second), = s.episodes
    assert first.start == 0.0
    assert first.end == pytest.approx(8.548882397925089e-06, rel=1e-12)
    assert second.start == pytest.approx(1.1512925464970227e-03, rel=1e-12)
    assert second.end - second.start == pytest.approx(5.129329438755053e-04, rel=1e-12)


def test_multiple_shot_single_rate_degenerates():
    s = multiple_shot(np.array([100.0]), eta=0.1)
    (ep,), = s.episodes
    assert ep.start == 0.0
    assert ep.end == pytest.approx(math.log(1 / 0.9) / 100.0, rel=1e-12)


def test_multiple_shot_ignores_weights(three_rate_mixture):
    other = HyperExpDist(np.array([0.05, 0.9, 0.05]), three_rate_mixture.rates.copy())
    a = multiple_shot(three_rate_mixture.rates, 0.05)
    b = multiple_shot(other.rates, 0.05)
    assert a == b


def test_multiple_shot_collision_stays_below_eta(three_rate_mixture):
    for eta in (0.01, 0.05, 0.1, 0.2):
        pred = predict(multiple_shot(three_rate_mixture.rates, eta), three_rate_mixture)
        assert pred.collision <= eta + 1e-9


def _multiple_shot_bounds(rates, eta, epsilon):
    """Collision bound of each pure component k (0-based, ascending rates):
    its own shot spends at most eta, each faster shot before it at most
    r_k / r_i of log(1/(1-eta)), each later shot at most epsilon."""
    cap = math.log(1.0 / (1.0 - eta))
    return [eta + sum(r_k / r_i * cap for r_i in rates[k + 1:]) + k * epsilon
            for k, r_k in enumerate(rates)]


@given(exponents=st.lists(st.floats(-1.0, 5.0), min_size=1, max_size=5, unique=True),
       eta=st.floats(0.001, 0.95), epsilon=st.floats(1e-6, 0.5),
       weights=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5))
def test_multiple_shot_collision_bound(exponents, eta, epsilon, weights):
    rates = sorted(10.0 ** np.array(exponents))
    assume(epsilon < 1.0 - eta and len(set(rates)) == len(rates))
    try:
        s = multiple_shot(np.array(rates), eta, epsilon)
    except ModelError:
        assume(False)
    bounds = _multiple_shot_bounds(rates, eta, epsilon)
    for rate, bound in zip(rates, bounds):
        assert predict(s, exponential(rate)).collision <= bound * (1 + 1e-12)
    # a mixture's collision is a weighted mean of its components'
    w = np.array(weights[:len(rates)])
    mixed = predict(s, HyperExpDist(w / w.sum(), np.array(rates))).collision
    assert mixed <= max(bounds) * (1 + 1e-12)


def test_multiple_shot_capacity_formula_two_rates():
    # alpha_1 e^{-lambda_1 wait_2} eta/lambda_1 + eta/lambda_2 for small eta
    weights = np.array([0.5, 0.5])
    rates = np.array([100.0, 6000.0])
    eta, eps = 0.05, 1e-3
    wait2 = math.log(1 / eps) / 6000.0
    byhand = 0.5 * math.exp(-100.0 * wait2) * eta / 100.0 + eta / 6000.0
    assert multiple_shot_small_eta_capacity(weights, rates, eta, eps) == pytest.approx(byhand, rel=1e-12)
    dist = HyperExpDist(weights, rates)
    exact = predict(multiple_shot(rates, eta, eps), dist).capacity
    assert exact == pytest.approx(byhand, rel=0.01)


def test_multiple_shot_parameter_validation():
    with pytest.raises(ValueError):
        multiple_shot(np.array([100.0, 6000.0]), eta=0.1, epsilon=0.95)
    with pytest.raises(ValueError):
        multiple_shot(np.array([100.0, 100.0]), eta=0.1)
    with pytest.raises(ValueError):
        multiple_shot(np.array([6000.0, 100.0]), eta=0.1)


def test_multiple_shot_overlap_names_the_rate_pair():
    with pytest.raises(ModelError, match="5500") as err:
        multiple_shot(np.array([100.0, 5500.0, 6000.0]), eta=0.5, epsilon=1e-3)
    assert "overlap" in str(err.value)


# --------------------------------------------------- cross-cutting checks

def test_design_collision_exactness_all_strategies(three_state_model, three_rate_mixture):
    for eta in ETAS:
        for name, s in build_all(three_state_model, three_rate_mixture, eta).items():
            source = three_rate_mixture if s.mode == "stat" else three_state_model
            collision = predict(s, source).collision
            if name == "multiple_shot":
                assert collision <= eta + 1e-9, name
            else:
                assert collision == pytest.approx(eta, abs=1e-9), name


def test_capacity_orderings(three_state_model, three_rate_mixture):
    slack = 1 + 1e-8
    for eta in (0.01, 0.02, 0.05, 0.1, 0.15, 0.2):
        s = build_all(three_state_model, three_rate_mixture, eta)
        cap = {name: predict(st, three_rate_mixture if st.mode == "stat" else three_state_model).capacity
               for name, st in s.items()}
        assert cap["full_optimal"] * slack >= cap["markov_optimal"] >= cap["markov_opt_balanced"] / slack
        assert cap["full_optimal"] * slack >= cap["stat_optimal"] >= cap["stat_one_shot"] / slack
        assert cap["full_balanced"] * slack >= cap["stat_one_shot"]


def test_strategy_validation():
    with pytest.raises(ValueError):
        Episode(0.5, 0.5)
    with pytest.raises(ValueError):
        Episode(0.0, 1.0, prob=0.0)
    with pytest.raises(ValueError):
        Strategy("stat", ((Episode(0.0, 2.0), Episode(1.0, 3.0)),), "overlap")
    with pytest.raises(ValueError):
        Strategy("stat", ((Episode(0.0, 1.0),), (Episode(0.0, 1.0),)), "two-ctx-stat")
    with pytest.raises(ValueError):
        Strategy("sideways", ((Episode(0.0, 1.0),),), "bad-mode")


def test_strategy_record_round_trip(three_state_model):
    s = markov_os_suboptimal(three_state_model, 0.1)
    back = Strategy.from_record(s.to_record())
    assert back == s
    ms = multiple_shot(np.array([100.0, 6000.0]), 0.05)
    assert Strategy.from_record(ms.to_record()) == ms
