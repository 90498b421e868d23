import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest

import resilkit as rk

from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    random_acceptable,
    random_model,
    random_paths,
    random_strategy,
    random_variant,
)

A = M1_ACCEPTABLE


def keep_high(model):
    tables = np.zeros((3, 4), dtype=int)
    tables[:, 2] = 1
    return rk.markov_strategy(model, tables)


def test_recovery_time_hand_cases(m1):
    hold = rk.constant_strategy(m1, 0)
    push = rk.constant_strategy(m1, 1)
    assert rk.recovery_time(m1, rk.simulate_closed_loop(m1, keep_high(m1), 2, (0, 0, 0)), A) == 0
    # 0 ->1 ->2 ->3 under constant push and no drawdown: recovers at 2
    assert rk.recovery_time(m1, rk.simulate_closed_loop(m1, push, 0, (0, 0, 0)), A) == 2
    # never enters the target set
    assert rk.recovery_time(m1, rk.simulate_closed_loop(m1, hold, 0, (0, 0, 0)), A) is math.inf
    # enters then leaves: the suffix condition fails everywhere
    traj = rk.simulate_closed_loop(m1, hold, 2, (1, 0, 0))
    assert traj.states == (2, 1, 1, 1)
    assert rk.recovery_time(m1, traj, A) is math.inf


def test_recovery_time_control_clause():
    # state 1 admits only control 0 at time 1; a synthetic trajectory that
    # plays 1 there cannot count times <= 1 as recovered even though the
    # states all sit in the target set
    model = rk.make_model(
        horizon=3,
        state_labels=("0", "1"),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (0,) if (t, x) == (1, 1) else (0, 1),
    )
    traj = rk.Trajectory(0, (1, 1, 1, 1), (0, 1, 0), (0, 0, 0))
    assert rk.recovery_time(model, traj, {1}) == 2
    ok = rk.Trajectory(0, (1, 1, 1, 1), (0, 0, 0), (0, 0, 0))
    assert rk.recovery_time(model, ok, {1}) == 0
    # the control clause is vacuous at the horizon
    tail = rk.Trajectory(3, (1,), (), (0, 0, 0))
    assert rk.recovery_time(model, tail, {1}) == 3


def test_exit_times(m1):
    hold = rk.constant_strategy(m1, 0)
    traj = rk.simulate_closed_loop(m1, hold, 2, (1, 1, 1))
    assert traj.states == (2, 1, 0, 0)
    assert rk.exit_times(m1, traj, A) == (1, 2, 3)
    assert rk.exit_times(m1, traj, {0, 1, 2, 3}) == ()


def test_exit_times_constraint_flag():
    model = rk.make_model(
        horizon=2,
        state_labels=("0", "1"),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (0,) if x == 1 else (0, 1),
    )
    traj = rk.Trajectory(0, (1, 1, 1), (1, 0), (0, 0))
    assert rk.exit_times(model, traj, {1}) == ()
    assert rk.exit_times(model, traj, {1}, use_constraints=True) == (0,)


def test_short_trajectories_are_input_errors(m1):
    short_states = rk.Trajectory(0, (2, 2, 2), (0, 0, 0), (0, 0, 0))
    short_controls = rk.Trajectory(0, (2, 2, 2, 2), (0, 0), (0, 0, 0))
    with pytest.raises(rk.InputError, match="no state at time 3"):
        rk.exit_times(m1, short_states, A)
    with pytest.raises(rk.InputError, match="no state at time 3"):
        rk.recovery_time(m1, short_states, A)
    with pytest.raises(rk.InputError, match="no control at time 2"):
        rk.recovery_time(m1, short_controls, A)
    with pytest.raises(rk.InputError, match="no control at time 2"):
        rk.exit_times(m1, short_controls, A, use_constraints=True)
    # controls are not read without the constraint flag
    assert rk.exit_times(m1, short_controls, A) == ()


def test_exit_and_recovery_times_check_their_set(m1):
    traj = rk.simulate_closed_loop(m1, rk.constant_strategy(m1, 1), 2,
                                   (0, 0, 0))
    for call, states in (
        (rk.exit_times, {9}),
        (rk.recovery_time, {1.5, 2, 3}),
        (rk.recovery_time, {-1}),
    ):
        bad = next(x for x in states if x not in (2, 3))
        message = f"acceptable set contains invalid state index {bad}"
        with pytest.raises(rk.InputError, match=re.escape(message)):
            call(m1, traj, states)


def test_viability_membership(m1):
    good = rk.build_bundle(m1, keep_high(m1), 2)
    assert rk.regime_membership(m1, rk.Viability(A), good)
    bad = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert not rk.regime_membership(m1, rk.Viability(A), bad)
    # starting outside the set is an immediate failure
    low = rk.build_bundle(m1, keep_high(m1), 1)
    assert not rk.regime_membership(m1, rk.Viability(A), low)


def test_robust_recovery_membership():
    model = build_m1(robust=(0,))
    push = rk.constant_strategy(model, 1)
    robust = rk.build_bundle(model, push, 0, robust_only=True)
    assert rk.regime_membership(model, rk.RobustRecovery(A, 2), robust)
    assert not rk.regime_membership(model, rk.RobustRecovery(A, 1), robust)
    # a full bundle is filtered down to the robust scenarios
    full = rk.build_bundle(model, push, 0)
    assert rk.regime_membership(model, rk.RobustRecovery(A, 2), full)
    assert not rk.regime_membership(model, rk.RobustRecovery(A, 1), full)


def test_stochastic_viability_membership(m1):
    hold = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert rk.regime_membership(m1, rk.StochasticViability(A, 0.125), hold)
    assert not rk.regime_membership(m1, rk.StochasticViability(A, 0.13), hold)
    sure = rk.build_bundle(m1, keep_high(m1), 2)
    assert rk.regime_membership(m1, rk.StochasticViability(A, 1.0), sure)


def test_probabilistic_regimes_reject_robust_bundles():
    model = build_m1(robust=(0,))
    bundle = rk.build_bundle(model, keep_high(model), 2, robust_only=True)
    with pytest.raises(rk.InputError, match="full-domain"):
        rk.regime_membership(model, rk.StochasticViability(A, 0.5), bundle)


def test_probabilistic_regimes_need_probs():
    model = build_m1(probs=None)
    bundle = rk.build_bundle(model, keep_high(model), 2)
    with pytest.raises(rk.ConfigurationError):
        rk.regime_membership(model, rk.StochasticViability(A, 0.5), bundle)


def test_bounded_membership(m1):
    good = rk.build_bundle(m1, keep_high(m1), 2)
    assert rk.regime_membership(m1, rk.Bounded(A), good)
    bad = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert not rk.regime_membership(m1, rk.Bounded(A), bad)


def test_prob_excursion_membership(m1):
    hold = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert rk.regime_membership(m1, rk.ProbExcursion(A, 0.875), hold)
    assert not rk.regime_membership(m1, rk.ProbExcursion(A, 0.874), hold)


def test_at_most_k_exits_membership(m1):
    hold = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert rk.regime_membership(m1, rk.AtMostKExits(A, 3), hold)
    assert not rk.regime_membership(m1, rk.AtMostKExits(A, 2), hold)


def test_at_most_k_exits_skips_zero_weight_scenarios():
    base = build_m1()
    joint = {s: 0.0 for s in rk.enumerate_scenarios(base)}
    joint[(0, 0, 0)] = 1.0
    model = rk.SystemModel(
        base.time, base.states, base.controls, base.uncertainty,
        base.dynamics, base.constraints, scenario_probs=joint,
    )
    hold = rk.build_bundle(model, rk.constant_strategy(model, 0), 2)
    # only the no-drawdown scenario carries weight, and it never exits
    assert rk.regime_membership(model, rk.AtMostKExits(A, 0), hold)
    # without probabilities every scenario counts
    bare = build_m1(probs=None)
    hold = rk.build_bundle(bare, rk.constant_strategy(bare, 0), 2)
    assert not rk.regime_membership(bare, rk.AtMostKExits(A, 0), hold)


def test_stabilize_membership(m1):
    good = rk.build_bundle(m1, keep_high(m1), 2)
    assert rk.regime_membership(m1, rk.Stabilize(3, 1.0, 1), good)
    assert not rk.regime_membership(m1, rk.Stabilize(3, 0.5, 1), good)
    bad = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert not rk.regime_membership(m1, rk.Stabilize(3, 1.0, 1), bad)


def test_stabilize_cemetery_fails():
    model = rk.make_model(
        horizon=1,
        state_labels=("0",),
        control_labels=("0",),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: None,  # everything dies
    )
    bundle = rk.build_bundle(model, rk.constant_strategy(model, 0), 0)
    assert not rk.regime_membership(model, rk.Stabilize(0, 99.0, 1), bundle)


def test_control_event_membership(m1):
    push_once = rk.build_bundle(m1, keep_high(m1), 2)
    assert rk.regime_membership(m1, rk.ControlEvent({1}), push_once)
    hold = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    assert not rk.regime_membership(m1, rk.ControlEvent({1}), hold)
    assert rk.regime_membership(m1, rk.ControlEvent({0, 1}), hold)


def test_risk_containment_membership(m1):
    hold = rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)
    inside = rk.RiskContainment(rk.Exceedance(A), 0.875)
    assert rk.regime_membership(m1, inside, hold)
    tight = rk.RiskContainment(rk.Exceedance(A), 0.8)
    assert not rk.regime_membership(m1, tight, hold)


def test_validate_regime_errors(m1):
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.Viability({9}))
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.StochasticViability(A, 1.5))
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.RobustRecovery(A, 4))
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.AtMostKExits(A, -1))
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.Stabilize(9, 1.0, 1))
    with pytest.raises(rk.InputError):
        rk.validate_regime(m1, rk.ControlEvent({7}))
    with pytest.raises(rk.ConfigurationError):
        rk.validate_regime(build_m1(probs=None), rk.ProbExcursion(A, 0.5))


REGIME_PARAMETER_FAULTS = [
    # deadlines, exit counts, windows, targets and controls take what a
    # state set takes: an int, numpy integer or bool
    (rk.AtMostKExits(A, math.nan), "max_exits nan is not an integer"),
    (rk.AtMostKExits(A, 1.5), "max_exits 1.5 is not an integer"),
    (rk.AtMostKExits(A, 1.0), "max_exits 1.0 is not an integer"),
    (rk.AtMostKExits(A, -1), "max_exits -1 outside 0..inf"),
    (rk.RobustRecovery(A, 2.0), "deadline 2.0 is not an integer"),
    (rk.RobustRecovery(A, np.int64(4)), "deadline np.int64(4) outside 0..3"),
    (rk.Stabilize(0, 1.0, 1.5), "window 1.5 is not an integer"),
    (rk.Stabilize(0, 1.0, -1), "window -1 outside 0..inf"),
    (rk.Stabilize(1.0, 1.0, 1), "target 1.0 is not an integer"),
    (rk.Stabilize(4, 1.0, 1), "target 4 outside 0..3"),
    (rk.Stabilize(np.True_, 1.0, 1), "target np.True_ is not an integer"),
    (rk.Stabilize(0, math.nan, 1), "radius nan outside [0, inf]"),
    (rk.Stabilize(0, -0.5, 1), "radius -0.5 outside [0, inf]"),
    (rk.ControlEvent({1.0}), "control 1.0 is not an integer"),
    (rk.ControlEvent({math.nan}), "control nan is not an integer"),
    (rk.ControlEvent({2}), "control 2 outside 0..1"),
    # betas, levels and radii (the two rows above too) take an int, float
    # or numpy number (not a numpy bool) in their interval, which NaN is
    # never in
    (rk.StochasticViability(A, "x"), "beta 'x' is not a number"),
    (rk.StochasticViability(A, np.True_), "beta np.True_ is not a number"),
    (rk.ProbExcursion(A, None), "beta None is not a number"),
    (rk.RiskContainment(rk.Exceedance(A), "x"), "level 'x' is not a number"),
    (rk.RiskContainment(rk.Exceedance(A), math.nan),
     "level nan outside [-inf, inf]"),
    (rk.RiskContainment(rk.Exceedance(A), None), "level None is not a number"),
    (rk.Stabilize(0, "1", 1), "radius '1' is not a number"),
]


@pytest.mark.parametrize("regime, message", REGIME_PARAMETER_FAULTS)
def test_regime_parameter_faults_are_input_errors(m1, regime, message):
    # one InputError from validate_regime, before the engine or the oracle
    # reads the parameter (a NaN limit, a float index, a NaN radius)
    exact = f"^{re.escape(message)}$"
    for call in (
        partial(rk.validate_regime, m1, regime),
        partial(rk.resilient_states, m1, 0, regime),
        partial(rk.resilient_states, m1, 0, regime, rk.ADAPTED),
        partial(rk.oracle_resilient_states, m1, 0, regime),
        partial(rk.oracle_resilient_states, m1, 0, regime, force_object=True),
        partial(rk.check_resilient, m1, rk.constant_strategy(m1, 0), 0, 0,
                regime),
    ):
        with pytest.raises(rk.InputError, match=exact):
            call()


# a numpy number answers as the float it holds, and an int past the float
# range as the infinity it rounds to
REGIME_NUMBER_TWINS = [
    (rk.StochasticViability(A, np.float64(0.5)),
     rk.StochasticViability(A, 0.5)),
    (rk.ProbExcursion(A, np.int64(0)), rk.ProbExcursion(A, 0.0)),
    (rk.RiskContainment(rk.Exceedance(A), np.int64(0)),
     rk.RiskContainment(rk.Exceedance(A), 0.0)),
    (rk.RiskContainment(rk.Exceedance(A), np.float64(0.5)),
     rk.RiskContainment(rk.Exceedance(A), 0.5)),
    (rk.Stabilize(3, np.int64(0), 1), rk.Stabilize(3, 0.0, 1)),
    (rk.Stabilize(3, np.float64(2.0), 2), rk.Stabilize(3, 2.0, 2)),
    (rk.RiskContainment(rk.Exceedance(A), 10**400),
     rk.RiskContainment(rk.Exceedance(A), math.inf)),
    (rk.RiskContainment(rk.Exceedance(A), -10**400),
     rk.RiskContainment(rk.Exceedance(A), -math.inf)),
    # an infinite risk is contained by a level of 10**400, as by inf
    (rk.RiskContainment(rk.Composed(rk.RecoveryOffset(A), rk.WorstCase()),
                        10**400),
     rk.RiskContainment(rk.Composed(rk.RecoveryOffset(A), rk.WorstCase()),
                        math.inf)),
]


@pytest.mark.parametrize("regime, twin", REGIME_NUMBER_TWINS)
def test_numpy_numbers_answer_as_their_floats(m1, regime, twin):
    got, want = (rk.resilient_states(m1, 0, r) for r in (regime, twin))
    assert (got.members, got.method) == (want.members, want.method)
    for x0 in want.members:
        assert rk.strategies_equal(got.witnesses[x0], want.witnesses[x0])
    # the engine and both oracle paths agree; RiskContainment has no
    # batched path, so its default path is already the object path
    batched = not isinstance(regime, rk.RiskContainment)
    for force_object in (False, True) if batched else (False,):
        judged = rk.oracle_resilient_states(m1, 0, regime,
                                            force_object=force_object)
        assert judged.members == got.members
    hold = rk.constant_strategy(m1, 0)
    for x0 in range(m1.n_states):
        assert rk.check_resilient(m1, hold, x0, 0, regime) == (
            rk.check_resilient(m1, hold, x0, 0, twin)
        )


def test_state_sets_accept_integer_kinds_and_name_the_first_bad_element(m1):
    check = rk.regimes._check_state_set
    for states in ({0, 3}, {np.int64(1), np.uint8(2)}, {True, 3}):
        check(m1, frozenset(states), "region")
        check(m1, frozenset(states), "region")  # once more: remembered
    for states, bad in (
        ([1, 2.0, 9], "2.0"), ([np.True_], "np.True_"), ([3, 4, -1], "4"),
        (["1", 1], "'1'"),
    ):
        with pytest.raises(
            rk.InputError, match=f"^region contains invalid state index {bad}$"
        ):
            check(m1, states, "region")
    # a set that passed on one model is checked again on another
    wide = rk.make_model(
        horizon=1, state_labels=tuple("abcdef"), control_labels=("u",),
        uncertainty_sets=("w",), dynamics_fn=lambda t, x, u, w: x,
    )
    states = frozenset({5})
    check(wide, states, "region")
    with pytest.raises(rk.InputError, match="invalid state index 5"):
        check(m1, states, "region")


def test_viability_equals_zero_recovery_randomized():
    # viability is exactly "recovery time equals the start" on every path
    rng = np.random.default_rng(20240814)
    for _ in range(40):
        model = random_model(rng)
        strategy = random_strategy(rng, model)
        x0 = int(rng.integers(model.n_states))
        acceptable = frozenset(
            int(x) for x in rng.permutation(model.n_states)[
                : int(rng.integers(1, model.n_states + 1))
            ]
        )
        bundle = rk.build_bundle(model, strategy, x0)
        member = rk.regime_membership(model, rk.Viability(acceptable), bundle)
        assert member == all(
            rk.recovery_time(model, tr, acceptable) == 0 for tr in bundle
        )


def test_bounded_equals_no_exit_randomized():
    rng = np.random.default_rng(20240815)
    for _ in range(40):
        model = random_model(rng)
        strategy = random_strategy(rng, model)
        x0 = int(rng.integers(model.n_states))
        acceptable = frozenset(
            int(x) for x in rng.permutation(model.n_states)[
                : int(rng.integers(1, model.n_states + 1))
            ]
        )
        bundle = rk.build_bundle(model, strategy, x0)
        member = rk.regime_membership(model, rk.Bounded(acceptable), bundle)
        assert member == all(
            not rk.exit_times(model, tr, acceptable) for tr in bundle
        )


def test_path_membership_matches_bundle_membership():
    # ProbExcursion and StochasticViability decided on path arrays by their
    # monitor (engine._monitor_paths) against _membership on each
    # strategy's bundle, with beta at each bundle's own probability and its
    # neighbouring floats as well as at random
    rng = np.random.default_rng(5150)
    seen = {"member": 0, "not": 0, "tie": 0, "joint": 0, "zero_w": 0}
    for i in range(160):
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=3,
            with_probs=True, cemetery_rate=0.25,
        )
        if i % 2:
            model = random_variant(rng, model)
        if not model.uncertainty.has_probs and model.scenario_probs is None:
            continue
        seen["joint"] += model.scenario_probs is not None
        start = int(rng.integers(model.horizon + 1))
        x0 = int(rng.integers(model.n_states))
        region = random_acceptable(rng, model)
        states, controls, full, bundles = random_paths(
            rng, model, x0, start, int(rng.integers(1, 7))
        )
        seen["zero_w"] += 0.0 in full.weights
        kind = (rk.ProbExcursion, rk.StochasticViability)[i % 2 == 0]
        # each bundle's probability, as the membership loop sums it
        betas = [float(rng.random()), 0.0, 1.0]
        for b in bundles:
            p = 0.0
            for w, tr in zip(full.weights, b.trajectories):
                if kind is rk.ProbExcursion:
                    hit = bool(rk.exit_times(model, tr, region))
                else:
                    hit = rk.recovery_time(model, tr, region) == start
                if hit:
                    p += w
            betas += [p, math.nextafter(p, -1.0), math.nextafter(p, 2.0)]
        for beta in betas:
            if not 0.0 <= beta <= 1.0:
                continue
            regime = kind(region, beta)
            got = rk.engine._monitor_paths(
                model, regime, rk.engine._monitor(model, regime, start),
                states, controls, full, start,
            )
            for member, b in zip(got.tolist(), bundles):
                want = rk.regimes._membership(model, regime, b, full)
                assert member == want, (i, regime)
                seen["member" if want else "not"] += 1
                seen["tie"] += beta in betas[3::3]
    assert min(seen.values()) >= 5, seen



_EXCEEDANCE = rk.Exceedance(A)

# every route that takes a regime, called with `regime` on m1
REGIME_ROUTES = {
    "validate_regime": lambda m, r: rk.validate_regime(m, r),
    "resilient_states": lambda m, r: rk.resilient_states(m, 0, r),
    "check_resilient": lambda m, r: rk.check_resilient(
        m, rk.constant_strategy(m, 0), 2, 0, r),
    "minimize_risk": lambda m, r: rk.minimize_risk(m, 2, 0, r, _EXCEEDANCE),
    "regime_membership": lambda m, r: rk.regime_membership(
        m, r, rk.build_bundle(m, rk.constant_strategy(m, 0), 2)),
    "oracle_resilient_states": lambda m, r: rk.oracle_resilient_states(
        m, 0, r),
    "oracle_min_risk": lambda m, r: rk.oracle_min_risk(
        m, 2, 0, r, _EXCEEDANCE),
}


@pytest.mark.parametrize("route", REGIME_ROUTES)
@pytest.mark.parametrize("regime", [object(), "x", None],
                         ids=["object", "str", "None"])
def test_every_route_rejects_a_non_regime_at_entry(m1, route, regime):
    # one kind check (validate_regime) before any field is read
    want = "^" + re.escape(f"unknown regime {regime!r}") + "$"
    with pytest.raises(rk.InputError, match=want):
        REGIME_ROUTES[route](m1, regime)


def test_regime_kinds_are_every_regime_record():
    records = {
        cls for cls in vars(rk.regimes).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__module__ == rk.regimes.__name__
    }
    assert len(records) == 9 and set(rk.regimes.REGIME_KINDS) == records
