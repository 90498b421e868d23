"""Risk measures: per-trajectory costs, outer functionals, and the direct
probability/robustness measures, checked against hand-computed values on the
reservoir model and against closed forms on random instances."""

import math

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    outcome,
    random_acceptable,
    random_model,
    random_paths,
    random_risks,
    random_strategy,
    random_variant,
)

A = M1_ACCEPTABLE


def hold_bundle(model, x0=2):
    return rk.build_bundle(model, rk.constant_strategy(model, 0), x0)


def keep_strategy(model):
    # u = 1 at state 2, else 0: keeps the state inside {2, 3} forever
    return rk.markov_strategy(model, [[0, 0, 1, 0]] * 3)


# ---------------------------------------------------------------- cvar


def test_cvar_hand_values():
    vals = [0.0, 1.0, 2.0, 3.0]
    w = [0.25] * 4
    assert rk.cvar(vals, w, 0.5) == 2.5
    assert rk.cvar(vals, w, 0.25) == 3.0
    assert rk.cvar(vals, w, 1.0) == 1.5


def test_cvar_splits_atoms():
    # tail mass 0.25 = all of the 0.1 atom at 10 plus 0.15 of the atom at 0
    assert rk.cvar([0.0, 10.0], [0.9, 0.1], 0.25) == pytest.approx(4.0)
    # boundary inside the top atom: the answer is just that value
    assert rk.cvar([5.0, 1.0], [0.5, 0.5], 0.2) == 5.0


def test_cvar_skips_zero_weight():
    assert rk.cvar([100.0, 1.0], [0.0, 1.0], 0.5) == 1.0


def test_cvar_order_invariant():
    rng = np.random.default_rng(5)
    vals = [float(v) for v in rng.normal(0, 4, size=6)]
    raw = rng.integers(1, 5, size=6).astype(float)
    w = list(raw / raw.sum())
    ref = rk.cvar(vals, w, 0.3)
    for _ in range(10):
        order = rng.permutation(6)
        got = rk.cvar([vals[i] for i in order], [w[i] for i in order], 0.3)
        assert got == pytest.approx(ref, abs=1e-12)


def test_cvar_level_range():
    with pytest.raises(rk.InputError, match=r"\(0, 1\]"):
        rk.cvar([1.0], [1.0], 0.0)
    with pytest.raises(rk.InputError, match=r"\(0, 1\]"):
        rk.cvar([1.0], [1.0], 1.5)
    with pytest.raises(rk.InputError, match=r"\(0, 1\]"):
        rk.cvar([1.0], [1.0], -0.25)


def test_cvar_matches_minimization_form():
    # tail mean == min over eta of eta + E[(V - eta)+] / level, with the
    # minimizer attained at one of the atom values
    rng = np.random.default_rng(1234)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        vals = [float(v) for v in rng.normal(0, 10, size=m)]
        raw = rng.integers(1, 6, size=m).astype(float)
        w = [float(x) for x in raw / raw.sum()]
        level = float(rng.uniform(0.05, 1.0))
        direct = rk.cvar(vals, w, level)
        best = min(
            eta + sum(wi * max(v - eta, 0.0) for v, wi in zip(vals, w)) / level
            for eta in vals
        )
        assert direct == pytest.approx(best, abs=1e-12)


def test_cvar_monotone_in_level():
    rng = np.random.default_rng(88)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        vals = [float(v) for v in rng.normal(0, 3, size=m)]
        raw = rng.integers(1, 4, size=m).astype(float)
        w = [float(x) for x in raw / raw.sum()]
        l1, l2 = sorted((float(rng.uniform(0.05, 1.0)),
                         float(rng.uniform(0.05, 1.0))))
        assert rk.cvar(vals, w, l1) >= rk.cvar(vals, w, l2) - 1e-12
        assert min(vals) - 1e-12 <= rk.cvar(vals, w, l1) <= max(vals) + 1e-12


# ------------------------------------------------------- cost functions


def test_costs_on_a_recovering_path(m1):
    tr = rk.Trajectory(0, (0, 1, 2, 3), (1, 1, 1), (0, 0, 0))
    assert rk.evaluate_cost(m1, rk.TimeOutside(A), tr) == 2.0
    assert rk.evaluate_cost(m1, rk.TimeOutside({0, 1, 2, 3}), tr) == 0.0
    # default effort rate is the control's first coordinate, here u itself
    assert rk.evaluate_cost(m1, rk.ControlEffort(), tr) == 3.0
    assert rk.evaluate_cost(m1, rk.ControlEffort(rates=(2.0, 5.0)), tr) == 15.0
    assert rk.evaluate_cost(m1, rk.TerminalMiss(A), tr) == 0.0
    assert rk.evaluate_cost(m1, rk.TerminalMiss({0}), tr) == 1.0
    assert rk.evaluate_cost(m1, rk.RecoveryOffset(A), tr) == 2.0


def test_tabular_cost(m1):
    state = np.array([[10 * s + x for x in range(4)] for s in range(4)])
    control = np.array([[0.0, 1.0]] * 3)
    cost = rk.TabularCost(state, control)
    tr = rk.Trajectory(0, (0, 1, 2, 3), (1, 1, 1), (0, 0, 0))
    assert rk.evaluate_cost(m1, cost, tr) == 69.0
    late = rk.Trajectory(1, (1, 2, 3), (0, 0), (0, 0, 0))
    assert rk.evaluate_cost(m1, cost, late) == 66.0


def test_costs_from_a_later_start(m1):
    tr = rk.Trajectory(1, (1, 2, 3), (0, 0), (0, 0, 0))
    assert rk.evaluate_cost(m1, rk.TimeOutside(A), tr) == 1.0
    assert rk.evaluate_cost(m1, rk.ControlEffort(), tr) == 0.0
    assert rk.evaluate_cost(m1, rk.RecoveryOffset(A), tr) == 1.0


def test_cemetery_steps_charge_the_penalty(m1):
    dead = rk.Trajectory(0, (2, 4, 4, 4), (0, 0, 0), (1, 1, 1))
    # three steps at the cemetery; base contributions only from time 0
    assert rk.evaluate_cost(m1, rk.TimeOutside(A, cemetery_penalty=7.0), dead) == 21.0
    assert (
        rk.evaluate_cost(m1, rk.ControlEffort(rates=(3.0, 1.0), cemetery_penalty=7.0), dead)
        == 24.0
    )
    assert rk.evaluate_cost(m1, rk.TerminalMiss(A, cemetery_penalty=7.0), dead) == 21.0
    assert rk.evaluate_cost(
        m1, rk.RecoveryOffset(A, cemetery_penalty=7.0), dead
    ) == math.inf
    state = np.array([[10 * s + x for x in range(4)] for s in range(4)])
    control = np.array([[0.0, 1.0]] * 3)
    tab = rk.TabularCost(state, control, cemetery_penalty=7.0)
    assert rk.evaluate_cost(m1, tab, dead) == 2.0 + 21.0


def test_default_penalty_dominates(m1):
    dead = rk.Trajectory(0, (2, 4, 4, 4), (0, 0, 0), (1, 1, 1))
    assert rk.evaluate_cost(m1, rk.TimeOutside(A), dead) == 3e18


def test_cost_validation(m1):
    tr = rk.Trajectory(0, (2, 2, 2, 2), (0, 0, 0), (0, 0, 0))
    with pytest.raises(rk.InputError, match="unknown cost"):
        rk.evaluate_cost(m1, "nope", tr)
    with pytest.raises(rk.InputError, match="effort rates"):
        rk.evaluate_cost(m1, rk.ControlEffort(rates=(1.0,)), tr)
    with pytest.raises(rk.InputError, match="invalid state index"):
        rk.evaluate_cost(m1, rk.TimeOutside({7}), tr)
    with pytest.raises(rk.InputError, match="state cost table"):
        rk.evaluate_cost(m1, rk.TabularCost(np.zeros((2, 4)), np.zeros((3, 2))), tr)
    with pytest.raises(rk.InputError, match="control cost table"):
        rk.evaluate_cost(m1, rk.TabularCost(np.zeros((4, 4)), np.zeros((3, 3))), tr)


def test_costs_reject_short_trajectories(m1):
    # every kind reads the states at start..K; the control-reading kinds
    # also need the controls at start..K-1, even at cemetery steps
    short = rk.Trajectory(0, (2, 2, 2), (0, 0, 0), (0, 0, 0))
    for cost in (rk.TimeOutside(A), rk.ControlEffort(), rk.TerminalMiss(A),
                 rk.RecoveryOffset(A), rk.TabularCost(np.zeros((4, 4)),
                                                       np.zeros((3, 2)))):
        with pytest.raises(rk.InputError, match="no state at time 3"):
            rk.evaluate_cost(m1, cost, short)
    dead = rk.Trajectory(0, (2, 4, 4, 4), (0,), (1, 1, 1))
    for cost in (rk.ControlEffort(), rk.TabularCost(np.zeros((4, 4)),
                                                    np.zeros((3, 2)))):
        with pytest.raises(rk.InputError, match="no control at time 1"):
            rk.evaluate_cost(m1, cost, dead)
    assert rk.evaluate_cost(m1, rk.TimeOutside(A, 7.0), dead) == 21.0


# ------------------------------------------------------- direct measures


def test_exceedance_hand_value(m1):
    # holding u = 0 from state 2: only the all-calm scenario stays inside
    assert rk.evaluate_risk(m1, rk.Exceedance(A), hold_bundle(m1)) == 0.875
    keep = rk.build_bundle(m1, keep_strategy(m1), 2)
    assert rk.evaluate_risk(m1, rk.Exceedance(A), keep) == 0.0


def test_worst_case_violation(m1, m1_benign):
    assert rk.evaluate_risk(m1, rk.WorstCaseViolation(A), hold_bundle(m1)) == 1.0
    keep = rk.build_bundle(m1, keep_strategy(m1), 2)
    assert rk.evaluate_risk(m1, rk.WorstCaseViolation(A), keep) == 0.0
    # with the robust subset pinned to w = 0 the holding strategy never exits
    assert (
        rk.evaluate_risk(m1_benign, rk.WorstCaseViolation(A), hold_bundle(m1_benign))
        == 0.0
    )
    only_robust = rk.build_bundle(
        m1_benign, rk.constant_strategy(m1_benign, 0), 2, robust_only=True
    )
    assert rk.evaluate_risk(m1_benign, rk.WorstCaseViolation(A), only_robust) == 0.0


def test_ambiguity_exceedance(m1):
    bundle = hold_bundle(m1)
    calm = ((1.0, 0.0),) * 3
    storm = ((0.0, 1.0),) * 3
    fair = ((0.5, 0.5),) * 3
    assert rk.evaluate_risk(m1, rk.AmbiguityExceedance(A, (calm,)), bundle) == 0.0
    assert rk.evaluate_risk(m1, rk.AmbiguityExceedance(A, (storm,)), bundle) == 1.0
    assert (
        rk.evaluate_risk(m1, rk.AmbiguityExceedance(A, (calm, storm)), bundle) == 1.0
    )
    assert rk.evaluate_risk(m1, rk.AmbiguityExceedance(A, (fair, calm)), bundle) == 0.875


def test_ambiguity_with_model_probs_matches_exceedance():
    rng = np.random.default_rng(31)
    for _ in range(30):
        model = random_model(rng, with_probs=True)
        acc = random_acceptable(rng, model)
        bundle = rk.build_bundle(
            model, random_strategy(rng, model), int(rng.integers(model.n_states))
        )
        belief = tuple(model.uncertainty.probs[t] for t in range(model.horizon))
        amb = rk.evaluate_risk(model, rk.AmbiguityExceedance(acc, (belief,)), bundle)
        exc = rk.evaluate_risk(model, rk.Exceedance(acc), bundle)
        assert amb == pytest.approx(exc, abs=1e-12)


def test_exit_count_functional(m1):
    bundle = hold_bundle(m1)
    assert rk.evaluate_risk(m1, rk.ExitCountFunctional(A, rk.WorstCase()), bundle) == 3.0
    assert (
        rk.evaluate_risk(m1, rk.ExitCountFunctional(A, rk.Expectation()), bundle)
        == 2.125
    )
    assert rk.evaluate_risk(m1, rk.ExitCountFunctional(A, rk.CVaR(0.5)), bundle) == 3.0


def test_exit_count_sees_inadmissible_controls():
    # the only exit before the cemetery is the forbidden control at time 0
    model = rk.make_model(
        horizon=2,
        state_labels=("a",),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: 0,
        constraints_fn=lambda t, x: (0,) if t == 0 else (0, 1),
    )
    bundle = rk.build_bundle(model, rk.constant_strategy(model, 1), 0)
    risk = rk.ExitCountFunctional({0}, rk.WorstCase())
    assert rk.evaluate_risk(model, risk, bundle) == 3.0
    # states-only bookkeeping would miss the control exit
    tr = bundle.trajectories[0]
    assert len(rk.exit_times(model, tr, {0})) == 2
    assert len(rk.exit_times(model, tr, {0}, use_constraints=True)) == 3


# ------------------------------------------------------------- composed


def test_composed_hand_values(m1):
    bundle = hold_bundle(m1)
    outside = rk.TimeOutside(A)
    assert (
        rk.evaluate_risk(m1, rk.Composed(outside, rk.Expectation()), bundle) == 2.125
    )
    assert rk.evaluate_risk(m1, rk.Composed(outside, rk.WorstCase()), bundle) == 3.0
    assert rk.evaluate_risk(m1, rk.Composed(outside, rk.CVaR(0.5)), bundle) == 3.0
    assert rk.evaluate_risk(m1, rk.Composed(outside, rk.CVaR(0.25)), bundle) == 3.0
    assert rk.evaluate_risk(m1, rk.Composed(outside, rk.CVaR(1.0)), bundle) == 2.125
    keep = rk.build_bundle(m1, keep_strategy(m1), 2)
    assert (
        rk.evaluate_risk(m1, rk.Composed(rk.ControlEffort(), rk.WorstCase()), keep)
        == 3.0
    )


def test_worst_case_outer_respects_robust_subset(m1_benign):
    bundle = hold_bundle(m1_benign)
    risk = rk.Composed(rk.TimeOutside(A), rk.WorstCase())
    assert rk.evaluate_risk(m1_benign, risk, bundle) == 0.0


def test_expectation_skips_zero_weight_infinities():
    model = build_m1(probs=(1.0, 0.0))
    bundle = hold_bundle(model)
    risk = rk.Composed(rk.RecoveryOffset(A), rk.Expectation())
    # every positive-weight scenario recovers immediately; the rest are
    # infinite but carry no mass and must not poison the sum
    assert rk.evaluate_risk(model, risk, bundle) == 0.0


def test_probability_weighted_risks_need_full_bundles(m1_benign):
    bundle = rk.build_bundle(
        m1_benign, rk.constant_strategy(m1_benign, 0), 2, robust_only=True
    )
    for risk in (
        rk.Exceedance(A),
        rk.AmbiguityExceedance(A, (((0.5, 0.5),) * 3,)),
        rk.Composed(rk.TimeOutside(A), rk.Expectation()),
        rk.Composed(rk.TimeOutside(A), rk.CVaR(0.5)),
    ):
        with pytest.raises(rk.InputError, match="full-domain bundle"):
            rk.evaluate_risk(m1_benign, risk, bundle)


def test_outer_functional_sandwich():
    # mean <= tail mean <= worst case whenever the robust subset is everything
    rng = np.random.default_rng(77)
    for _ in range(40):
        model = random_model(rng, with_probs=True)
        acc = random_acceptable(rng, model)
        bundle = rk.build_bundle(
            model, random_strategy(rng, model), int(rng.integers(model.n_states))
        )
        cost = rk.TimeOutside(acc, cemetery_penalty=3.0)
        mean = rk.evaluate_risk(model, rk.Composed(cost, rk.Expectation()), bundle)
        worst = rk.evaluate_risk(model, rk.Composed(cost, rk.WorstCase()), bundle)
        level = float(rng.uniform(0.05, 1.0))
        tail = rk.evaluate_risk(model, rk.Composed(cost, rk.CVaR(level)), bundle)
        assert mean <= tail + 1e-9
        assert tail <= worst + 1e-9


def test_risk_validation(m1):
    bundle = hold_bundle(m1)
    with pytest.raises(rk.InputError, match="unknown risk measure"):
        rk.evaluate_risk(m1, "nope", bundle)
    with pytest.raises(rk.InputError, match="unknown outer functional"):
        rk.evaluate_risk(m1, rk.ExitCountFunctional(A, "max"), bundle)
    with pytest.raises(rk.InputError, match=r"\(0, 1\]"):
        rk.evaluate_risk(m1, rk.ExitCountFunctional(A, rk.CVaR(0.0)), bundle)
    with pytest.raises(rk.InputError, match="unknown cost"):
        rk.evaluate_risk(m1, rk.Composed(None, rk.Expectation()), bundle)
    with pytest.raises(rk.InputError, match="at least one belief"):
        rk.evaluate_risk(m1, rk.AmbiguityExceedance(A, ()), bundle)
    with pytest.raises(rk.InputError, match="probability vectors"):
        rk.evaluate_risk(
            m1, rk.AmbiguityExceedance(A, (((0.5, 0.5),) * 2,)), bundle
        )
    with pytest.raises(rk.InputError, match="length"):
        rk.evaluate_risk(
            m1, rk.AmbiguityExceedance(A, (((0.5, 0.25, 0.25),) * 3,)), bundle
        )
    with pytest.raises(rk.InputError, match=r"include -0\.5"):
        rk.evaluate_risk(
            m1, rk.AmbiguityExceedance(A, (((1.5, -0.5),) * 3,)), bundle
        )
    with pytest.raises(rk.InputError, match="sum to"):
        rk.evaluate_risk(
            m1, rk.AmbiguityExceedance(A, (((0.6, 0.6),) * 3,)), bundle
        )
    nan = float("nan")
    with pytest.raises(rk.InputError, match="include nan"):
        rk.evaluate_risk(
            m1, rk.AmbiguityExceedance(A, (((nan, nan),) * 3,)), bundle
        )


# ------------------------------------------------------ risk on path arrays


def test_path_risks_match_bundle_risks():
    # each value bit for bit against _evaluate on the strategy's bundle,
    # and the same error where _evaluate raises one (no probabilities)
    rng = np.random.default_rng(9109)
    seen = {"nan": 0, "inf": 0, "config": 0, "joint": 0, "listed": 0,
            "zero_w": 0, "late_start": 0}
    for i in range(150):
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=3,
            with_probs=True, cemetery_rate=0.25,
        )
        if i % 3:
            model = random_variant(rng, model)
        seen["joint"] += model.scenario_probs is not None
        seen["listed"] += model.robust_scenarios is not None
        start = int(rng.integers(model.horizon + 1))
        seen["late_start"] += start > 0
        x0 = int(rng.integers(model.n_states))
        acc = random_acceptable(rng, model)
        states, controls, full, bundles = random_paths(
            rng, model, x0, start, int(rng.integers(1, 7))
        )
        if model.uncertainty.has_probs or model.scenario_probs is not None:
            seen["zero_w"] += 0.0 in full.weights
        for risk in random_risks(rng, model, acc):
            got = outcome(lambda: rk.risk._evaluate_paths(
                model, risk, states, controls, full, start
            ))
            want = [
                outcome(lambda: rk.risk._evaluate(model, risk, b, full))
                for b in bundles
            ]
            if isinstance(want[0], tuple):
                seen["config"] += 1
                assert got == want[0], (i, risk)
                continue
            assert got.dtype == np.float64 and got.shape == (len(bundles),)
            for value, expect in zip(got.tolist(), want):
                if math.isnan(expect):
                    seen["nan"] += 1
                    assert math.isnan(value), (i, risk)
                else:
                    seen["inf"] += math.isinf(expect)
                    assert np.float64(value).tobytes() == \
                        np.float64(expect).tobytes(), (i, risk, value, expect)
    assert min(seen.values()) >= 5, seen


def test_path_cvar_walks_ties_and_split_atoms():
    # ties keep scenario order, the boundary atom is split, zero weights
    # are skipped, and a row holding NaN goes through cvar itself
    values = np.array([
        [1.0, 3.0, 3.0, 2.0],
        [0.5, 0.5, 0.5, 0.5],
        [math.nan, 1.0, math.inf, 2.0],
        [-1.0, -2.0, 5.0, 5.0],
    ])
    weights = np.array([0.1, 0.3, 0.0, 0.6])
    for level in (1.0, 0.7, 0.3, 0.1, 1e-9):
        got = rk.risk._cvar_rows(values, weights, level)
        for row, value in zip(values, got.tolist()):
            want = rk.cvar(row.tolist(), weights.tolist(), level)
            assert (math.isnan(want) and math.isnan(value)) or \
                np.float64(value).tobytes() == np.float64(want).tobytes()

