"""Backward recursions (kernel, stochastic value, layered recovery) and the
resilient-set dispatcher, against frozen values on the reservoir model and
naive recomputations on random instances."""

import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    bundle_member,
    outcome,
    padded_twin,
    random_acceptable,
    random_model,
    random_risks,
    random_strategy,
    random_variant,
)

A = M1_ACCEPTABLE
MODELS = Path(__file__).resolve().parent.parent / "models"


def two_state_gap_model(**kw):
    # state 1 survives only under w = 0; the robust subset is exactly {0},
    # so the robust and full-domain kernels genuinely differ
    return rk.make_model(
        horizon=2,
        state_labels=("0", "1"),
        control_labels=("0",),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: 1 if (x == 1 and w == 0) else 0,
        robust=("0",),
        **kw,
    )


# ----------------------------------------------------------------- kernel


def test_kernel_on_reservoir(m1):
    kernel = rk.robust_viability_kernel(m1, A)
    assert kernel.domain == "robust"
    for t in range(4):
        assert kernel.member_set(t) == {2, 3}
    # least witness control: state 2 must push, state 3 may coast
    for t in range(3):
        assert list(kernel.witness[t]) == [-1, -1, 1, 0]


def test_kernel_domains_differ():
    model = two_state_gap_model()
    robust = rk.robust_viability_kernel(model, {1}, domain="robust")
    full = rk.robust_viability_kernel(model, {1}, domain="full")
    assert robust.member_set(0) == {1}
    assert full.member_set(0) == set()
    assert full.member_set(2) == {1}
    with pytest.raises(rk.InputError, match="unknown uncertainty domain"):
        rk.robust_viability_kernel(model, {1}, domain="typical")


def test_kernel_witness_depends_on_robust_subset(m1, m1_benign):
    # with w pinned to 0 coasting already keeps state 2 inside
    assert rk.robust_viability_kernel(m1, A).witness[0, 2] == 1
    assert rk.robust_viability_kernel(m1_benign, A).witness[0, 2] == 0


def test_kernel_rejects_explicit_robust_lists():
    model = two_state_gap_model(robust_scenarios=((0, 0),))
    with pytest.raises(rk.ConfigurationError, match="explicit robust scenario"):
        rk.robust_viability_kernel(model, {1})
    # the full-domain recursion does not consult the robust structure
    assert rk.robust_viability_kernel(model, {1}, domain="full").member_set(0) == set()


def test_kernel_acceptable_validation(m1):
    with pytest.raises(rk.InputError, match="invalid state"):
        rk.robust_viability_kernel(m1, {9})


def test_kernel_matches_set_fixpoint():
    # recompute membership as literal sets, robust and full domains
    rng = np.random.default_rng(421)
    for _ in range(30):
        model = random_model(rng, with_robust=bool(rng.integers(2)))
        acc = random_acceptable(rng, model)
        for domain in ("robust", "full"):
            if domain == "robust":
                ranges = model.uncertainty.robust
            else:
                ranges = [
                    range(model.uncertainty.size(t)) for t in range(model.horizon)
                ]
            member = {model.horizon: set(acc)}
            for t in range(model.horizon - 1, -1, -1):
                keep = set()
                for x in acc:
                    for u in rk.admissible_controls(model, t, x):
                        nxt = [model.dynamics[t, x, u, w] for w in ranges[t]]
                        if all(
                            y != model.cemetery and y in member[t + 1] for y in nxt
                        ):
                            keep.add(x)
                            break
                member[t] = keep
            kernel = rk.robust_viability_kernel(model, acc, domain=domain)
            for t in range(model.horizon + 1):
                assert kernel.member_set(t) == member[t]
            # a witness control exactly where the state is in the kernel
            for t in range(model.horizon):
                assert np.array_equal(kernel.witness[t] >= 0, kernel.member[t])


# ------------------------------------------------------- stochastic value


def test_value_on_reservoir(m1):
    table = rk.stochastic_viability_value(m1, A)
    for t in range(4):
        assert list(table.value[t]) == [0.0, 0.0, 1.0, 1.0]
    for t in range(3):
        assert list(table.witness[t]) == [-1, -1, 1, 0]
    assert table.resilient_set(0, 1.0) == {2, 3}


def test_value_without_the_push_control():
    # single control: staying put decays by half per remaining step
    model = rk.make_model(
        horizon=3,
        state_labels=("0", "1", "2", "3"),
        control_labels=("0",),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: min(3, max(0, x - w)),
        probs=(0.5, 0.5),
    )
    table = rk.stochastic_viability_value(model, A)
    assert list(table.value[0]) == [0.0, 0.0, 0.125, 0.5]
    assert list(table.value[2]) == [0.0, 0.0, 0.5, 1.0]
    assert table.resilient_set(0, 0.5) == {3}
    assert table.resilient_set(0, 0.125) == {2, 3}
    assert table.resilient_set(0, 0.2) == {3}


def test_value_requires_per_time_probabilities():
    model = build_m1(probs=None)
    with pytest.raises(rk.ConfigurationError, match="probability vectors"):
        rk.stochastic_viability_value(model, A)


def test_value_rejects_joint_distributions():
    scenarios = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    model = rk.make_model(
        horizon=3,
        state_labels=("0", "1", "2", "3"),
        control_labels=("0", "1"),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: min(3, max(0, x + u - w)),
        probs=(0.5, 0.5),
        scenario_probs={s: 1.0 / 8.0 for s in scenarios},
    )
    with pytest.raises(rk.ConfigurationError, match="joint"):
        rk.stochastic_viability_value(model, A)


def test_value_matches_naive_recursion():
    rng = np.random.default_rng(97)
    for _ in range(30):
        model = random_model(rng, with_probs=True)
        acc = random_acceptable(rng, model)
        K, n = model.horizon, model.n_states
        ref = {(K, x): (1.0 if x in acc else 0.0) for x in range(n)}
        for t in range(K - 1, -1, -1):
            probs = model.uncertainty.probs[t]
            for x in range(n):
                if x not in acc:
                    ref[t, x] = 0.0
                    continue
                best = 0.0
                for u in rk.admissible_controls(model, t, x):
                    v = 0.0
                    for w in range(model.uncertainty.size(t)):
                        nxt = model.dynamics[t, x, u, w]
                        if nxt != model.cemetery:
                            v += probs[w] * ref[t + 1, nxt]
                    best = max(best, v)
                ref[t, x] = best
        table = rk.stochastic_viability_value(model, acc)
        for t in range(K + 1):
            for x in range(n):
                assert table.value[t, x] == pytest.approx(ref[t, x], abs=1e-12)
        # witnesses exist exactly on the acceptable states
        for t in range(K):
            for x in range(n):
                if x in acc:
                    assert table.witness[t, x] in rk.admissible_controls(model, t, x)
                else:
                    assert table.witness[t, x] == -1


# ------------------------------------------------------- layered recovery


def test_recovery_on_reservoir(m1, m1_benign):
    full = rk.robust_recovery_table(m1, A, 3)
    assert [v for v in full.r_star] == [math.inf, math.inf, 0.0, 0.0]
    benign = rk.robust_recovery_table(m1_benign, A, 3)
    assert list(benign.r_star) == [2.0, 1.0, 0.0, 0.0]
    assert list(benign.min_layer[1]) == [2.0, 1.0, 0.0, 0.0]
    # close to the horizon the remaining steps run out
    assert list(benign.min_layer[2]) == [math.inf, 1.0, 0.0, 0.0]
    assert list(benign.min_layer[3]) == [math.inf, math.inf, 0.0, 0.0]


def test_recovery_resilient_sets_shrink_with_time(m1_benign):
    table = rk.robust_recovery_table(m1_benign, A, 3)
    assert table.resilient_set(0) == {0, 1, 2, 3}
    assert table.resilient_set(1) == {0, 1, 2, 3}
    assert table.resilient_set(2) == {1, 2, 3}
    assert table.resilient_set(3) == {2, 3}


def test_recovery_deadline_cuts_layers(m1_benign):
    table = rk.robust_recovery_table(m1_benign, A, 1)
    assert list(table.r_star) == [math.inf, 1.0, 0.0, 0.0]
    assert table.resilient_set(0) == {1, 2, 3}
    zero = rk.robust_recovery_table(m1_benign, A, 0)
    assert list(zero.r_star) == [math.inf, math.inf, 0.0, 0.0]
    with pytest.raises(rk.InputError, match="deadline"):
        rk.robust_recovery_table(m1_benign, A, 4)
    with pytest.raises(rk.InputError, match="deadline"):
        rk.robust_recovery_table(m1_benign, A, -1)


def test_recovery_rejects_explicit_robust_lists():
    model = two_state_gap_model(robust_scenarios=((0, 0),))
    with pytest.raises(rk.ConfigurationError, match="explicit robust scenario"):
        rk.robust_recovery_table(model, {1}, 1)


def test_recovery_is_one_sweep_of_horizon_backups(m1_benign, monkeypatch):
    # one min-max backup per time, whatever the deadline
    times = []
    backup = rk.engine._backup

    def counted(model, t, *args, **kwargs):
        times.append(t)
        return backup(model, t, *args, **kwargs)

    monkeypatch.setattr(rk.engine, "_backup", counted)
    K = m1_benign.horizon
    for d in range(K + 1):
        times.clear()
        table = rk.robust_recovery_table(m1_benign, A, d)
        assert times == list(range(K - 1, -1, -1))
        layers = table.layers
        assert layers.shape == (d + 1, K + 1, m1_benign.n_states)
        with pytest.raises(ValueError, match="read-only"):
            layers[0, 0, 0] = not layers[0, 0, 0]


def test_recovery_witness_attains_r_star(m1_benign):
    table = rk.robust_recovery_table(m1_benign, A, 3)
    strat = rk.fill_policy(m1_benign, table.witness, 0)
    for x0 in range(4):
        worst = -math.inf
        for scen in rk.enumerate_scenarios(m1_benign, robust_only=True):
            traj = rk.simulate_closed_loop(m1_benign, strat, x0, scen)
            worst = max(worst, rk.recovery_time(m1_benign, traj, A))
        assert worst == table.r_star[x0]


def test_recovery_witness_attains_r_star_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        model = random_model(rng, with_robust=bool(rng.integers(2)))
        acc = random_acceptable(rng, model)
        table = rk.robust_recovery_table(model, acc, model.horizon)
        strat = rk.fill_policy(model, table.witness, 0)
        for x0 in range(model.n_states):
            if table.r_star[x0] == math.inf:
                continue
            worst = max(
                rk.recovery_time(
                    model, rk.simulate_closed_loop(model, strat, x0, s), acc
                )
                for s in rk.enumerate_scenarios(model, robust_only=True)
            )
            # the replayed strategy recovers no later than the table promises
            assert worst <= table.r_star[x0]


# ------------------------------------------------------------ dispatcher


def test_resilient_states_viability(m1):
    out = rk.resilient_states(m1, 0, rk.Viability(A))
    assert out.method == "kernel"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert bundle_member(m1, strat, x0, 0, rk.Viability(A))


def test_resilient_states_recovery(m1, m1_benign):
    regime = rk.RobustRecovery(A, 3)
    out = rk.resilient_states(m1_benign, 0, regime)
    assert out.method == "recovery"
    assert out.members == {0, 1, 2, 3}
    for x0, strat in out.witnesses.items():
        assert bundle_member(m1_benign, strat, x0, 0, regime)
    assert rk.resilient_states(m1, 0, regime).members == {2, 3}


def test_resilient_states_value(m1):
    regime = rk.StochasticViability(A, 1.0)
    out = rk.resilient_states(m1, 0, regime)
    assert out.method == "value"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert bundle_member(m1, strat, x0, 0, regime)


def test_resilient_states_exhaustive(m1):
    regime = rk.Bounded(A)
    out = rk.resilient_states(m1, 0, regime)
    assert out.method == "exhaustive"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert bundle_member(m1, strat, x0, 0, regime)


def test_resilient_states_members_are_python_ints(m1, m1_benign):
    # every route gives the same member type, so a caller that serializes
    # members or witness keys sees one type; the table methods too
    routes = [
        (m1, rk.Viability(A), "kernel"),
        (m1_benign, rk.RobustRecovery(A, 3), "recovery"),
        (m1, rk.StochasticViability(A, 0.5), "value"),
        (m1, rk.Bounded(A), "exhaustive"),
    ]
    for model, regime, method in routes:
        out = rk.resilient_states(model, 0, regime)
        assert out.method == method and out.members
        assert all(type(x) is int for x in out.members), method
        assert all(type(x) is int for x in out.witnesses), method
    for members in (
        rk.robust_viability_kernel(m1, A).member_set(0),
        rk.stochastic_viability_value(m1, A).resilient_set(0, 0.5),
        rk.robust_recovery_table(m1_benign, A, 3).resilient_set(0),
    ):
        assert members and all(type(x) is int for x in members)


def test_resilient_states_later_start(m1):
    out = rk.resilient_states(m1, 2, rk.Viability(A))
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert strat.start == 2
        assert bundle_member(m1, strat, x0, 2, rk.Viability(A))
    with pytest.raises(rk.InputError, match="start"):
        rk.resilient_states(m1, 5, rk.Viability(A))


def test_resilient_states_strategy_cap(m1):
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.resilient_states(m1, 0, rk.Bounded(A), cap=10)


def test_public_boundaries_keep_their_checks(m1):
    # the scans skip these checks per strategy; the public functions must
    # still make them, in the same order
    s = rk.constant_strategy(m1, 1)
    tables = np.zeros((3, 4), dtype=int)
    tables[1, 3] = 2  # m1 has controls 0 and 1 only
    bad = rk.Strategy(0, tuple(
        rk.Policy(t, rk.MARKOV, tables[t]) for t in range(3)
    ))
    late = rk.constant_strategy(m1, 1, start=1)
    V = rk.Viability(A)
    bundle = rk.build_bundle(m1, s, 2)
    robust = rk.build_bundle(m1, s, 2, robust_only=True)
    SV = rk.StochasticViability(A, 0.5)
    cases = [
        # (call, error, message): regime, then strategy, start and x0, the
        # start's range, and last the scenario cap
        (lambda: rk.check_resilient(m1, s, 9, 0, rk.Viability({7})),
         rk.InputError, "acceptable set contains invalid state index 7"),
        (lambda: rk.check_resilient(m1, s, 9, 0, rk.RobustRecovery(A, 9)),
         rk.InputError, "deadline 9 outside"),
        (lambda: rk.check_resilient(m1, bad, 9, 0, SV, cap=7),
         rk.InputError, "unknown control"),
        (lambda: rk.check_resilient(m1, late, 9, 0, SV, cap=7),
         rk.InputError, "cannot simulate from 0"),
        (lambda: rk.check_resilient(m1, s, 4, 4, SV, cap=7),
         rk.InputError, "x0 must be an ordinary state index, got 4"),
        (lambda: rk.check_resilient(m1, s, 2, 4, SV, cap=7),
         rk.InputError, "strategy start 4 out of range 0..3"),
        (lambda: rk.check_resilient(m1, s, 2, 0, SV, cap=7),
         rk.CapacityError, "8 scenarios exceed cap 7"),
        (lambda: rk.check_resilient(m1, s, 2, 0, rk.RiskContainment(
            rk.Composed(rk.TimeOutside(A), rk.CVaR(0.0)), 1.0)),
         rk.InputError, "CVaR level 0.0"),
        (lambda: rk.regime_membership(m1, rk.Bounded({-1}), bundle),
         rk.InputError, "region contains invalid state index -1"),
        (lambda: rk.regime_membership(m1, rk.ProbExcursion(A, 0.5), robust),
         rk.InputError, "probabilistic membership needs a full-domain"),
        (lambda: rk.evaluate_risk(
            m1, rk.Composed(rk.TimeOutside({5}), rk.Expectation()), bundle),
         rk.InputError, "acceptable set contains invalid state index 5"),
        (lambda: rk.evaluate_risk(
            m1, rk.Composed(rk.TimeOutside(A), rk.CVaR(1.5)), bundle),
         rk.InputError, "CVaR level 1.5"),
        (lambda: rk.evaluate_risk(m1, rk.Exceedance(A), robust),
         rk.InputError, "probability-weighted risk needs a full-domain"),
        (lambda: rk.evaluate_cost(
            m1, rk.ControlEffort((1.0,)), bundle.trajectories[0]),
         rk.InputError, "1 effort rates for 2 controls"),
        (lambda: rk.evaluate_cost(m1, rk.TabularCost(
            np.zeros((3, 4)), np.zeros((3, 2))), bundle.trajectories[0]),
         rk.InputError, "state cost table has shape"),
        (lambda: rk.build_bundle(m1, bad, 9, cap=7),
         rk.InputError, "unknown control"),
        (lambda: rk.build_bundle(m1, s, 9, cap=7),
         rk.InputError, "x0 must be an ordinary state index, got 9"),
        (lambda: rk.build_bundle(m1, s, 2, cap=7),
         rk.CapacityError, "8 scenarios exceed cap 7"),
        (lambda: rk.build_bundle(m1, s, -1),
         rk.InputError, "x0 must be an ordinary state index, got -1"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            call()
    # the monitor walk reads no scenario list, so the cap does not bind it
    assert rk.check_resilient(m1, s, 2, 0, V, cap=7)


def test_scans_check_start_and_x0_once(m1):
    effort = rk.Composed(rk.ControlEffort(), rk.Expectation())
    B = rk.Bounded(A)
    cases = [
        (lambda: rk.minimize_risk(m1, 2, -1, B, effort),
         "strategy start -1 out of range 0..3"),
        (lambda: rk.minimize_risk(m1, 2, 4, B, effort),
         "strategy start 4 out of range 0..3"),
        (lambda: rk.oracle_min_risk(m1, 2, 5, B, effort),
         "strategy start 5 out of range 0..3"),
        (lambda: rk.oracle_min_risk(m1, 4, 2, B, effort),
         "x0 must be an ordinary state index, got 4"),
    ]
    # the DP certificate checks start itself, in and outside the kernel
    V = rk.Viability(A)
    for x0 in (0, 2):
        for start in (-1, 4):
            cases.append((
                lambda x0=x0, start=start: rk.minimize_risk(
                    m1, x0, start, V, effort
                ),
                f"strategy start {start} out of range 0..3",
            ))
    # every public query checks its start, x0 and state set at entry, before
    # it counts a class, enumerates or checks a cap; on `wide` the Markov
    # class from start -1 (2**20 strategies) exceeds the default cap
    wide = rk.make_model(
        horizon=4, state_labels=("0", "1", "2", "3"),
        control_labels=("0", "1"), uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: min(3, max(0, x + u - w)),
        probs=(0.5, 0.5),
    )
    for model in (m1, wide):
        K = model.horizon
        s = rk.constant_strategy(model, 1)
        late = [
            partial(rk.build_bundle, model, s, 2, K + 1),
            partial(rk.simulate_closed_loop, model, s, 2, (0,) * K, K + 1),
            partial(rk.constant_strategy, model, 1, K + 1),
        ]
        for start in (-1, K + 1):
            for call in [
                partial(rk.resilient_states, model, start, B),
                partial(rk.oracle_resilient_states, model, start, B),
                partial(rk.oracle_value, model, A, start),
                partial(rk.oracle_recovery_offsets, model, A, start),
                partial(rk.count_strategies, model, rk.MARKOV, start),
                partial(rk.enumerate_strategies, model, rk.MARKOV, start),
                partial(rk.strategy_from_rank, model, 0, rk.MARKOV, start),
            ] + (late if start > K else []):
                cases.append(
                    (call, f"strategy start {start} out of range 0..{K}")
                )
    for query in (rk.minimize_risk, rk.oracle_min_risk):
        cases.append((partial(query, wide, 2, -1, B, effort),
                      "strategy start -1 out of range 0..4"))
    for x0 in (-1, 4):  # x0 is named before start
        cases.append((partial(rk.oracle_min_risk, m1, x0, -1, B, effort),
                      f"x0 must be an ordinary state index, got {x0}"))
    for states in ({-1}, {4}, {1.5}):
        for query in (rk.oracle_value, rk.oracle_recovery_offsets):
            cases.append((
                partial(query, m1, states),
                f"acceptable set contains invalid state index {min(states)}",
            ))
    for call, message in cases:
        with pytest.raises(rk.InputError, match=re.escape(message)):
            call()
    # the scenario cap binds only a scan that enumerates the scenarios
    capped = rk.resilient_states(m1, 2, B, scenario_cap=3)
    uncapped = rk.resilient_states(m1, 2, B)
    assert capped.members == uncapped.members == {2, 3}
    for x0 in capped.members:
        assert rk.strategies_equal(
            capped.witnesses[x0], uncapped.witnesses[x0]
        )
    with pytest.raises(rk.CapacityError, match="8 scenarios exceed cap 3"):
        rk.resilient_states(m1, 2, rk.ProbExcursion(A, 0.5), scenario_cap=3)
    # expected costs without probabilities fail at the first resilient
    # strategy, and only then
    plain = build_m1(probs=None)
    assert rk.minimize_risk(plain, 0, 2, B, effort).value == math.inf
    with pytest.raises(rk.ConfigurationError, match="per-time probability"):
        rk.minimize_risk(plain, 2, 2, B, effort)


def _nine_regimes(rng, model):
    """One regime of each of the nine kinds, on random sets and limits."""
    K, n = model.horizon, model.n_states
    acc, region = random_acceptable(rng, model), random_acceptable(rng, model)
    beta = float(rng.choice((0.0, 0.25, 0.5, 1.0)))
    risks = random_risks(rng, model, acc)
    return [
        rk.Viability(acc),
        rk.RobustRecovery(acc, int(rng.integers(K + 1))),
        rk.StochasticViability(acc, beta),
        rk.Bounded(region),
        rk.ProbExcursion(region, beta),
        rk.AtMostKExits(region, int(rng.integers(K + 1))),
        rk.Stabilize(int(rng.integers(n)), float(rng.choice((0.0, 1.0, 2.5))),
                     int(rng.integers(K + 2))),
        rk.ControlEvent(frozenset({int(rng.integers(model.n_controls))})),
        rk.RiskContainment(risks[int(rng.integers(len(risks)))],
                           float(rng.choice((0.0, 0.5, 1.0)))),
    ]


def test_check_resilient_matches_the_object_path():
    # check_resilient decides one policy-array row as a scan block is
    # decided; membership on the strategy's bundle is the judge, answers
    # and errors alike, for Markov, adapted and mixed strategies, adapted
    # ones checked after their own start, on random_variant models
    rng = np.random.default_rng(2202)
    seen = {"member": 0, "not": 0, "error": 0, "variant": 0, "mixed": 0,
            "adapted_later": 0, "walk": 0}
    kinds = set()
    for i in range(240):
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=2, max_horizon=3,
            with_probs=rng.random() < 0.7, with_robust=True,
            cemetery_rate=0.2,
        )
        if i % 2:
            model = random_variant(rng, model)
            seen["variant"] += 1
        K = model.horizon
        base = int(rng.integers(K))
        start = int(rng.integers(base, K + 1))
        kind = (rk.MARKOV, rk.ADAPTED, "mixed")[(i // 2) % 3]
        if kind == "mixed":
            markov = random_strategy(rng, model, rk.MARKOV, base).policies
            adapted = random_strategy(rng, model, rk.ADAPTED, base).policies
            strat = rk.Strategy(base, tuple(
                pair[int(rng.integers(2))] for pair in zip(markov, adapted)
            ))
        else:
            strat = random_strategy(rng, model, kind, base)
        mixed = strat.kind == rk.ADAPTED and any(
            p.kind == rk.MARKOV for p in strat.policies
        )
        for regime in _nine_regimes(rng, model):
            x0 = int(rng.integers(model.n_states))
            want = outcome(lambda: bundle_member(model, strat, x0, start, regime))
            got = outcome(
                lambda: rk.check_resilient(model, strat, x0, start, regime)
            )
            assert got == want, (i, regime, kind, base, start, x0)
            kinds.add(type(regime))
            if isinstance(want, tuple):
                seen["error"] += 1
                continue
            seen["member" if want else "not"] += 1
            seen["mixed"] += mixed
            monitor = rk.engine._monitor(model, regime, start)
            width = rk.strategy._policy_array(model, strat).shape[2]
            seen["walk"] += rk.engine._walks(monitor, width)
            seen["adapted_later"] += width > 1 and base < start
    assert len(kinds) == 9 and min(seen.values()) >= 20, seen


def test_scenario_cap_binds_only_what_is_enumerated():
    # 2**21 scenarios exceed DEFAULT_SCENARIO_CAP; the monitor walk reads
    # none of them, a probabilistic regime and the pricing of a member do
    K = 21
    model = rk.make_model(
        horizon=K, state_labels=("0", "1"), control_labels=("0",),
        uncertainty_sets=("0", "1"), dynamics_fn=lambda t, x, u, w: x,
        probs=(0.5, 0.5),
    )
    assert rk.count_scenarios(model) > rk.DEFAULT_SCENARIO_CAP
    stay = rk.constant_strategy(model, 0)
    late = rk.constant_strategy(model, 0, start=3)
    worst_case = (
        rk.Bounded({1}), rk.AtMostKExits({1}, 0), rk.Stabilize(1, 0.0, 2),
    )
    for regime in (rk.Viability({1}), *worst_case):
        assert rk.check_resilient(model, stay, 1, 0, regime)
        assert rk.check_resilient(model, late, 1, 5, regime)
        assert not rk.check_resilient(model, stay, 0, 0, regime)
    too_many = "2097152 scenarios exceed cap"
    with pytest.raises(rk.CapacityError, match=too_many):
        rk.check_resilient(model, stay, 1, 0, rk.StochasticViability({1}, 0.5))
    risk = rk.Composed(rk.TimeOutside({1}), rk.WorstCase())
    for regime in worst_case:
        assert rk.resilient_states(model, 0, regime).members == {1}
        out = rk.minimize_risk(model, 0, 0, regime, risk)
        assert (out.resilient, out.value, out.examined) == (False, math.inf, 0)
        with pytest.raises(rk.CapacityError, match=too_many):
            rk.minimize_risk(model, 1, 0, regime, risk)


def test_engine_and_optimize_hold_no_object_path():
    # the production routes decide on policy arrays; bundles, bundle
    # membership and bundle pricing stay the public API and the oracle's
    for module in (rk.engine, rk.optimize):
        for name in ("build_bundle", "regime_membership", "_bundle",
                     "_membership", "_evaluate"):
            assert name not in vars(module), (module.__name__, name)


def test_exhaustive_agrees_with_kernel_on_bounded():
    # without constraints and cemetery moves, staying in B forever is the
    # same question as viability on B, which the kernel answers exactly
    rng = np.random.default_rng(3003)
    checked = 0
    while checked < 12:
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=2, max_horizon=2
        )
        region = random_acceptable(rng, model)
        out = rk.resilient_states(model, 0, rk.Bounded(region))
        kernel = rk.robust_viability_kernel(model, region, domain="full")
        # Bounded quantifies over all scenarios and ignores constraints for
        # exits, but inadmissible picks land in the cemetery anyway
        assert out.members == kernel.member_set(0)
        checked += 1


def test_pruned_exhaustive_resilient_states_match_the_oracle():
    # each x0 scans one strategy per class agreeing on the policy slots
    # reachable from it; the object-path oracle scans the whole class
    rng = np.random.default_rng(6502)
    twins = members = shared = 0
    for i in range(60):
        kind = (rk.MARKOV, rk.ADAPTED)[i % 2]
        markov = kind == rk.MARKOV
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=3 if markov else 2,
            max_horizon=3 if markov else 2,
            with_probs=True, with_robust=True, cemetery_rate=0.2,
        )
        region = random_acceptable(rng, model)
        regime = (
            rk.Bounded(region),
            rk.AtMostKExits(region, 1),
            rk.ProbExcursion(region, 0.5),
            rk.Stabilize(int(rng.integers(model.n_states)), 1.0, 1),
            rk.ControlEvent(frozenset({model.n_controls - 1})),
        )[(i // 2) % 5]
        start = int(rng.integers(model.horizon + 1))
        want = rk.oracle_resilient_states(
            model, start, regime, kind, force_object=True
        )
        members += len(want.members)
        twin = padded_twin(rng, model)
        twins += twin is not None
        for m in (model, twin) if twin is not None else (model,):
            got = rk.resilient_states(m, start, regime, kind)
            assert got.method == "exhaustive"
            assert got.members == want.members
            for x0 in want.members:
                assert rk.strategies_equal(got.witnesses[x0], want.witnesses[x0])
            # equal witnesses are one object, as in a single rank-order scan
            ids = {}
            for x0 in sorted(got.members):
                strat = got.witnesses[x0]
                for other in ids.values():
                    if rk.strategies_equal(strat, other):
                        assert strat is other
                ids[id(strat)] = strat
            shared += len(got.members) - len(ids)
    assert twins >= 18 and members >= 60 and shared >= 30


def _with_probs(rng, model, zeros):
    """The model with per-time probabilities that are ratios of small
    integers, some of them zero when `zeros` holds."""
    probs = []
    for t in range(model.horizon):
        size = model.uncertainty.size(t)
        weights = rng.integers(0 if zeros else 1, 4, size=size)
        if not weights.any():
            weights[int(rng.integers(weights.size))] = 1
        probs.append(tuple(weights / weights.sum()))
    u = model.uncertainty
    return rk.SystemModel(
        model.time, model.states, model.controls,
        rk.UncertaintyStructure(u.sets, tuple(probs), u.robust),
        model.dynamics, model.constraints,
    )


def _forward_regime(rng, model, which):
    """One regime of each kind with a monitor; deadlines, exit limits and
    windows run past the horizon (membership itself is unchecked)."""
    region = random_acceptable(rng, model)
    K = model.horizon
    if which == 0:
        return rk.Viability(region)
    if which == 1:
        return rk.Bounded(region)
    if which == 2:
        return rk.AtMostKExits(region, int(rng.integers(0, K + 2)))
    if which == 3:
        return rk.RobustRecovery(region, int(rng.integers(0, K + 2)))
    if which == 4:
        radius = float(rng.choice((0.0, 0.5, 1.0, 1.5, 2.5)))
        return rk.Stabilize(
            int(rng.integers(model.n_states)), radius,
            int(rng.integers(0, K + 2)),
        )
    nu = model.n_controls
    return rk.ControlEvent(
        frozenset(int(u) for u in np.flatnonzero(rng.random(nu) < 0.4))
    )


def _with_plane_coords(rng, model):
    """The model with its states at random points of a 3 x 3 grid, so that
    Stabilize's distances are Euclidean norms of 2-vectors."""
    labels = model.states.labels
    coords = rng.integers(0, 3, size=(len(labels), 2))
    return rk.SystemModel(
        model.time, rk.StateSpace(labels, coords), model.controls,
        model.uncertainty, model.dynamics, model.constraints,
    )


def test_reachable_members_match_bundle_membership():
    # every representative of every x0 against regimes._membership on its
    # bundle over the scan's scenario set
    rng = np.random.default_rng(4004)
    engine = rk.engine
    seen = {"member": 0, "not": 0, "late_start": 0, "past_k": 0,
            "zero_w": 0, "robust": 0, "single_u": 0, "offset": 0,
            "window_0": 0, "window_mid": 0, "window_past_k": 0,
            "radius_0": 0, "plane": 0, "with_u0": 0, "without_u0": 0,
            "stabilize_at_k": 0, "event_at_k": 0}
    for i in range(360):
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=4,
            with_robust=i % 3 == 0, cemetery_rate=0.2,
        )
        if i % 5:
            model = _with_probs(rng, model, zeros=(i // 5) % 2 == 1)
        if i % 6 == 4 and i % 12 < 6:
            model = _with_plane_coords(rng, model)
            seen["plane"] += 1
        regime = _forward_regime(rng, model, i % 6)
        K = model.horizon
        start = int(rng.integers(K + 1))
        monitor = engine._monitor(model, regime, start)
        assert monitor is not None
        scenarios = engine._scan_scenarios(model, regime)
        if isinstance(regime, rk.RobustRecovery):
            seen["late_start"] += regime.deadline < start
            seen["past_k"] += regime.deadline > K
            seen["robust"] += model.uncertainty.robust != tuple(
                tuple(range(model.uncertainty.size(t))) for t in range(K)
            )
        if isinstance(regime, rk.AtMostKExits) and model.uncertainty.has_probs:
            seen["zero_w"] += any(0.0 in p for p in model.uncertainty.probs)
        if isinstance(regime, rk.Stabilize):
            window = regime.window
            seen["window_0"] += window == 0
            seen["window_mid"] += 0 < window <= K
            seen["window_past_k"] += window > K
            seen["radius_0"] += regime.radius == 0.0
            seen["stabilize_at_k"] += start == K
        if isinstance(regime, rk.ControlEvent):
            seen["with_u0" if 0 in regime.controls else "without_u0"] += 1
            seen["event_at_k"] += start == K
        seen["single_u"] += model.n_controls == 1
        for x0 in range(model.n_states):
            layout = rk.strategy.rank_layout(model, x0, rk.MARKOV, start)
            # a window of at most 96 representatives, anywhere in the layout
            lo = int(rng.integers(max(1, layout.size - 95)))
            hi = min(layout.size, lo + 96)
            seen["offset"] += lo > 0
            policies = layout.policies(lo, hi)
            assert policies.dtype == np.int32
            assert policies.shape[1:] == (K, model.n_states + 1, 1)
            policies = policies[..., 0]
            member = engine._reachable_members(
                model, monitor, x0, start, policies
            )
            for j in range(lo, hi):
                strat = rk.strategy_from_rank(
                    model, layout.rank(j), rk.MARKOV, start
                )
                assert np.array_equal(
                    policies[j - lo], rk.markov_policy_array(model, strat)
                )
                bundle = rk.strategy._bundle(
                    model, strat, x0, start, scenarios
                )
                want = rk.regimes._membership(model, regime, bundle, scenarios)
                assert member[j - lo] == want, (i, regime, start, x0, j)
                seen["member" if want else "not"] += 1
    assert min(seen.values()) >= 5, seen


def test_monitor_updates_are_monotone_in_memory():
    # a larger memory is never better: for every t, u and x', m <= m'
    # gives update[t, m, u, x'] <= update[t, m', u, x'], and the sink is
    # the largest memory and absorbing
    rng = np.random.default_rng(4040)
    # exit counts up to 254 still fit the table's dtype past the sink
    long_run = rk.make_model(
        horizon=260, state_labels=("0",), control_labels=("0",),
        uncertainty_sets=("0",), dynamics_fn=lambda t, x, u, w: 0,
    )
    cases = [(long_run, rk.AtMostKExits(frozenset(), 254), 0)]
    for i in range(240):
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=4,
            with_robust=i % 3 == 0, cemetery_rate=0.2,
        )
        if i % 2:
            model = _with_probs(rng, model, zeros=True)
        regime = _forward_regime(rng, model, i % 6)
        cases.append((model, regime, int(rng.integers(model.horizon + 1))))
    kinds = set()
    for model, regime, start in cases:
        monitor = rk.engine._monitor(model, regime, start)
        K, n, nu = model.horizon, model.n_states, model.n_controls
        sink = len(monitor.update[0]) - 1
        assert monitor.update.shape == (K, sink + 1, nu, n + 1)
        steps = np.diff(monitor.update.astype(np.int64), axis=1)
        assert (steps >= 0).all(), regime
        assert (monitor.update[:, sink] == sink).all()
        assert monitor.update.min() >= 0 and monitor.update.max() <= sink
        assert ((0 <= monitor.init) & (monitor.init <= sink)).all()
        assert len(monitor.domain) == K
        kinds.add(type(regime))
    assert len(kinds) == 6


def test_underflowing_weights_leave_the_monitor_without_a_domain():
    # each time's least probability is 1e-200, so the scenario (0, 0) has
    # weight 0.0 and AtMostKExits skips it; a per-time support test would
    # count its two exits, so the scan runs the monitor along the paths
    model = rk.make_model(
        horizon=2, state_labels=("in", "out"), control_labels=("0",),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: 1 if w == 0 else 0,
        probs=(1e-200, 1.0),
    )
    regime = rk.AtMostKExits(frozenset({0}), 1)
    risk = rk.Composed(rk.TimeOutside(frozenset({0})), rk.WorstCase())
    assert rk.engine._monitor(model, regime, 0).domain is None
    out = rk.minimize_risk(model, 0, 0, regime, risk)
    assert (out.resilient, out.value, out.examined) == (True, 2.0, 1)
    assert rk.resilient_states(model, 0, regime).members == {0}
    value, strat, examined = rk.oracle_min_risk(model, 0, 0, regime, risk)
    assert (value, examined) == (2.0, 1)
    assert rk.strategies_equal(out.strategy, strat)


def test_every_path_regime_but_risk_containment_has_a_monitor():
    # the probability thresholds weigh the path property their worst-case
    # forms require of every path, so they run the same monitor; its
    # domain is None, since the walk reads no weights and never decides them
    rng = np.random.default_rng(2525)
    for i in range(40):
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=3,
            with_probs=True, with_robust=True, cemetery_rate=0.2,
        )
        if i % 2:
            model = random_variant(rng, model)
        start = int(rng.integers(model.horizon + 1))
        for regime in _nine_regimes(rng, model):
            monitor = rk.engine._monitor(model, regime, start)
            if isinstance(regime, rk.RiskContainment):
                assert monitor is None
                continue
            assert monitor is not None, regime
            if isinstance(regime, rk.StochasticViability):
                twin = rk.Viability(regime.acceptable)
            elif isinstance(regime, rk.ProbExcursion):
                twin = rk.Bounded(regime.region)
            else:
                continue
            assert monitor.domain is None
            assert not rk.engine._walks(monitor, 1)
            worst = rk.engine._monitor(model, twin, start)
            assert np.array_equal(monitor.init, worst.init)
            assert np.array_equal(monitor.update, worst.update)


def test_state_sets_of_bools_mean_their_indices(m1):
    # validate_regime accepts bool state indices; a set of bools is the
    # same set of ints to every mask, where a list of bools would index
    # as a boolean mask
    bools, ints = frozenset({False, True}), frozenset({0, 1})
    risk = rk.Composed(rk.TimeOutside(bools), rk.Expectation())
    for kind in (rk.Viability, rk.Bounded, lambda s: rk.AtMostKExits(s, 1),
                 lambda s: rk.ProbExcursion(s, 0.5),
                 lambda s: rk.StochasticViability(s, 0.5)):
        want = rk.resilient_states(m1, 0, kind(ints)).members
        assert rk.resilient_states(m1, 0, kind(bools)).members == want
        for x0 in range(m1.n_states):
            assert (rk.minimize_risk(m1, x0, 0, kind(bools), risk).value
                    == rk.minimize_risk(m1, x0, 0, kind(ints), risk).value)
    assert rk.robust_viability_kernel(m1, {True}).member_set(0) == \
        rk.robust_viability_kernel(m1, {1}).member_set(0)


def test_no_production_scan_builds_a_bundle(m1, monkeypatch):
    # membership and risk both come from block arrays, for both strategy
    # classes and every regime, on per-time products and on m3_grid's
    # joint distribution with its explicit robust list: a monitor walk over
    # reachable (state, memory) pairs or simulated paths, then risk on the
    # members' simulated paths
    built = []
    bundle = rk.strategy._bundle

    def counting(*args):
        built.append(args)
        return bundle(*args)

    for module in (rk.strategy, rk.engine, rk.optimize):
        if hasattr(module, "_bundle"):
            monkeypatch.setattr(module, "_bundle", counting)
    with open(MODELS / "m3_grid.model", encoding="utf-8") as fh:
        grid = rk.parse_model(fh.read()).model
    assert grid.scenario_probs is not None
    assert grid.robust_scenarios is not None
    resilient = {}
    # adapted classes from start 1 on m1 (2 prefixes at t = 2) and from 0
    # on m3_grid stay under the cap
    for model, adapted_start in ((m1, 1), (grid, 0)):
        n = model.n_states
        acc = A if model is m1 else frozenset({0})
        region = frozenset(range(1, n))
        regimes = [
            rk.Viability(acc), rk.RobustRecovery(acc, model.horizon),
            rk.StochasticViability(acc, 0.25), rk.Bounded(region),
            rk.ProbExcursion(acc, 0.5), rk.AtMostKExits(region, 1),
            rk.Stabilize(n - 1, 1.0, 1), rk.ControlEvent(frozenset({1})),
            rk.RiskContainment(rk.Exceedance(acc), 0.5),
        ]
        risk = rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5))
        for kind, start in ((rk.MARKOV, 0), (rk.ADAPTED, adapted_start)):
            for regime in regimes:
                for x0 in range(n):
                    out = rk.minimize_risk(
                        model, x0, start, regime, risk, strategy_class=kind,
                        method="exhaustive",
                    )
                    key = (kind, type(regime))
                    resilient[key] = resilient.get(key, 0) + out.resilient
                    # the winner is built from its policy-block row:
                    # read-only int32 copies, no view of the block
                    tables = [p.table for p in out.strategy.policies] \
                        if out.resilient else []
                    for table in tables:
                        assert table.dtype == np.int32
                        assert not table.flags.writeable
                        assert table.base is None or \
                            table.base.size <= sum(t.size for t in tables)
                rk.resilient_states(model, start, regime, kind)
                assert built == [], (kind, regime)
    # every class meets every regime somewhere
    assert len(resilient) == 18 and min(resilient.values()) >= 1, resilient


def test_resilient_states_scan_where_the_recursions_refuse_the_model():
    # the recovery sweep needs per-time robust subsets and the value sweep
    # per-time probabilities without a joint distribution; elsewhere
    # resilient_states answers by the exhaustive scan, with the least-rank
    # witnesses of the object-path oracle
    rng = np.random.default_rng(1812)
    seen = {"listed": 0, "joint": 0, "members": 0, "adapted": 0}
    for i in range(120):
        kind = (rk.MARKOV, rk.ADAPTED)[i % 2]
        model = random_variant(rng, random_model(
            rng, max_states=3, max_controls=2, max_w=2,
            max_horizon=3 if kind == rk.MARKOV else 2,
            with_probs=True, with_robust=True, cemetery_rate=0.2,
        ))
        acc = random_acceptable(rng, model)
        K = model.horizon
        regimes = []
        if model.robust_scenarios is not None:
            regimes.append(rk.RobustRecovery(acc, int(rng.integers(K + 1))))
        if model.scenario_probs is not None:
            beta = float(rng.choice((0.0, 0.5, 0.75, 1.0)))
            regimes.append(rk.StochasticViability(acc, beta))
        start = int(rng.integers(K + 1))
        for regime in regimes:
            want = rk.oracle_resilient_states(
                model, start, regime, kind, force_object=True
            )
            got = rk.resilient_states(model, start, regime, kind)
            assert got.method == "exhaustive"
            assert got.members == want.members, (i, regime)
            for x0 in want.members:
                assert rk.strategies_equal(
                    got.witnesses[x0], want.witnesses[x0]
                )
            seen["listed"] += isinstance(regime, rk.RobustRecovery)
            seen["joint"] += isinstance(regime, rk.StochasticViability)
            seen["members"] += len(got.members)
            seen["adapted"] += kind == rk.ADAPTED
    assert min(seen.values()) >= 20, seen


def test_fill_policy_backfills_least_admissible():
    model = rk.make_model(
        horizon=2,
        state_labels=("a", "b"),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (1,) if x == 0 else (0, 1),
    )
    picks = np.full((2, 2), -1, dtype=np.int32)
    strat = rk.fill_policy(model, picks, 0)
    for pol in strat.policies:
        assert pol.table.tolist() == [1, 0]
    assert rk.is_admissible(model, strat)


def test_fill_policy_checks_its_picks(m1):
    # the sweeps fill their own witnesses unchecked; the public function
    # still rejects picks it cannot turn into a valid strategy
    K, n = m1.horizon, m1.n_states
    picks = np.full((K, n), -1, dtype=np.int32)
    picks[1, 2] = m1.n_controls
    with pytest.raises(rk.InputError, match="policy at time 1 uses an unknown"):
        rk.fill_policy(m1, picks, 0)
    for shape in ((K, n + 1), (K - 1, n), (K, 1), (n,)):
        with pytest.raises(rk.InputError, match="picks table has shape"):
            rk.fill_policy(m1, np.zeros(shape, dtype=np.int32), 0)
    with pytest.raises(rk.InputError, match="strategy start 4 out of range"):
        rk.fill_policy(m1, np.zeros((K, n), dtype=np.int32), K + 1)
    strat = rk.fill_policy(m1, np.ones((K, n), dtype=np.int32), 1)
    assert [p.t for p in strat.policies] == [1, 2]


def test_sweeps_check_the_acceptable_set_once(m1, monkeypatch):
    calls = []
    check = rk.regimes._check_state_set

    def counted(model, states, what):
        calls.append(what)
        return check(model, states, what)

    monkeypatch.setattr(rk.regimes, "_check_state_set", counted)
    monkeypatch.setattr(rk.engine, "_check_state_set", counted)
    risk = rk.Composed(rk.TimeOutside(A), rk.Expectation())
    queries = [
        lambda acc: rk.robust_viability_kernel(m1, acc),
        lambda acc: rk.stochastic_viability_value(m1, acc),
        lambda acc: rk.robust_recovery_table(m1, acc, 2),
        lambda acc: rk.resilient_states(m1, 0, rk.Viability(acc)),
        lambda acc: rk.resilient_states(m1, 0, rk.RobustRecovery(acc, 2)),
        lambda acc: rk.resilient_states(
            m1, 0, rk.StochasticViability(acc, 0.5)
        ),
        lambda acc: rk.minimize_risk(
            m1, 2, 0, rk.Viability(acc), risk, method="dp"
        ),
    ]
    for query in queries:
        calls.clear()
        query(A)
        assert calls == ["acceptable set"]
        for bad in ({2, 4}, {-1, 3}, {2, 1.0}):
            with pytest.raises(
                rk.InputError,
                match="acceptable set contains invalid state index",
            ):
                query(bad)
    # numpy integers give the same mask
    got = rk.robust_viability_kernel(m1, {np.int64(x) for x in A})
    assert np.array_equal(got.member, rk.robust_viability_kernel(m1, A).member)
    # errors keep their order: the set, then the deadline or the start
    with pytest.raises(rk.InputError, match="acceptable set"):
        rk.robust_recovery_table(m1, {9}, 9)
    with pytest.raises(rk.InputError, match="deadline 9"):
        rk.robust_recovery_table(m1, A, 9)
    with pytest.raises(rk.InputError, match="acceptable set"):
        rk.resilient_states(m1, 9, rk.Viability({9}))
    with pytest.raises(rk.InputError, match="start 9"):
        rk.resilient_states(m1, 9, rk.Viability(A))


# ----------------------------------------- loop reference for the backup
#
# The per-cell loops the array-level backup replaced, kept here as the
# reference: the tables must match them byte for byte.


def _loop_kernel(model, acceptable, ranges):
    K, n = model.horizon, model.n_states
    member = np.zeros((K + 1, n), dtype=bool)
    witness = np.full((K, n), -1, dtype=np.int32)
    for x in acceptable:
        member[K, x] = True
    for t in range(K - 1, -1, -1):
        for x in acceptable:
            for u in rk.admissible_controls(model, t, x):
                ok = True
                for w in ranges[t]:
                    nxt = model.dynamics[t, x, u, w]
                    if nxt == model.cemetery or not member[t + 1, nxt]:
                        ok = False
                        break
                if ok:
                    member[t, x] = True
                    witness[t, x] = u
                    break
    return member, witness


def _loop_value(model, acceptable):
    K, n = model.horizon, model.n_states
    value = np.zeros((K + 1, n), dtype=np.float64)
    witness = np.full((K, n), -1, dtype=np.int32)
    for x in acceptable:
        value[K, x] = 1.0
    for t in range(K - 1, -1, -1):
        probs = model.uncertainty.probs[t]
        for x in acceptable:
            best = -1.0
            best_u = -1
            for u in rk.admissible_controls(model, t, x):
                v = 0.0
                for w in range(model.uncertainty.size(t)):
                    nxt = model.dynamics[t, x, u, w]
                    if nxt != model.cemetery:
                        v += float(probs[w]) * value[t + 1, nxt]
                if v > best:
                    best = v
                    best_u = u
            value[t, x] = best
            witness[t, x] = best_u
    return value, witness


def _loop_recovery(model, acceptable, deadline):
    ranges = model.uncertainty.robust
    kernel_member, kernel_witness = _loop_kernel(model, acceptable, ranges)
    K, n = model.horizon, model.n_states
    layers = np.zeros((deadline + 1, K + 1, n), dtype=bool)
    layers[0] = kernel_member
    layer_witness = np.full((deadline + 1, K, n), -1, dtype=np.int32)
    for k in range(1, deadline + 1):
        layers[k, K] = layers[k - 1, K]
        for t in range(K):
            for x in range(n):
                if layers[k - 1, t, x]:
                    layers[k, t, x] = True
                    continue
                for u in rk.admissible_controls(model, t, x):
                    ok = True
                    for w in ranges[t]:
                        nxt = model.dynamics[t, x, u, w]
                        if nxt == model.cemetery or not layers[k - 1, t + 1, nxt]:
                            ok = False
                            break
                    if ok:
                        layers[k, t, x] = True
                        layer_witness[k, t, x] = u
                        break
    min_layer = np.full((K + 1, n), math.inf, dtype=np.float64)
    for k in range(deadline, -1, -1):
        min_layer[layers[k]] = k
    witness = np.full((K, n), -1, dtype=np.int32)
    for t in range(K):
        for x in range(n):
            k = min_layer[t, x]
            if k == math.inf:
                continue
            if k == 0:
                witness[t, x] = kernel_witness[t, x]
            else:
                witness[t, x] = layer_witness[int(k), t, x]
    return layers, min_layer, witness, min_layer[0].copy()


def _loop_fill_policy(model, picks, start):
    K, n = model.horizon, model.n_states
    tables = np.zeros((K - start, n), dtype=np.int32)
    for t in range(start, K):
        for x in range(n):
            u = picks[t, x]
            tables[t - start, x] = (
                u if u >= 0 else rk.admissible_controls(model, t, x)[0]
            )
    return tables


def _loop_dp_tables(model, acceptable, start, step, terminal):
    full = [range(model.uncertainty.size(t)) for t in range(model.horizon)]
    member, _ = _loop_kernel(model, acceptable, full)
    K, n = model.horizon, model.n_states
    value = np.full((K + 1, n), math.inf, dtype=np.float64)
    picks = np.full((K, n), -1, dtype=np.int32)
    for x in range(n):
        if member[K, x]:
            value[K, x] = terminal[x]
    for t in range(K - 1, start - 1, -1):
        probs = model.uncertainty.probs[t]
        for x in range(n):
            if not member[t, x]:
                continue
            best = math.inf
            best_u = -1
            for u in rk.admissible_controls(model, t, x):
                keeps = True
                for w in range(model.uncertainty.size(t)):
                    nxt = model.dynamics[t, x, u, w]
                    if nxt == model.cemetery or not member[t + 1, nxt]:
                        keeps = False
                        break
                if not keeps:
                    continue
                v = step[t, x, u]
                for w in range(model.uncertainty.size(t)):
                    v += float(probs[w]) * value[t + 1, model.dynamics[t, x, u, w]]
                if v < best:
                    best = v
                    best_u = u
            value[t, x] = best
            picks[t, x] = best_u
    return member, _loop_fill_policy(model, picks, start), value


def _random_additive_cost(rng, model, acc):
    K, n, nu = model.horizon, model.n_states, model.n_controls
    kind = int(rng.integers(4))
    if kind == 0:
        return rk.TimeOutside(acc)
    if kind == 1:
        return rk.ControlEffort(tuple(rng.normal(size=nu)))
    if kind == 2:
        return rk.TerminalMiss(acc)
    return rk.TabularCost(rng.normal(size=(K + 1, n)), rng.normal(size=(K, nu)))


def _same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_sweeps_match_loops(models, acc, start, x0, risk):
    """Every sweep of each model in `models`, which share one dynamics and
    differ at most in the padding, gives the loop recursions' bytes."""
    model = models[0]
    K = model.horizon
    step, terminal = rk.optimize._additive_tables(model, risk.cost)
    full = [range(model.uncertainty.size(t)) for t in range(K)]
    want_kernel = {
        "robust": _loop_kernel(model, acc, model.uncertainty.robust),
        "full": _loop_kernel(model, acc, full),
    }
    want_value = _loop_value(model, acc)
    want_recovery = [_loop_recovery(model, acc, d) for d in range(K + 1)]
    dp_member, dp_tables, dp_value = _loop_dp_tables(
        model, acc, start, step, terminal
    )
    for m in models:
        for domain, want in want_kernel.items():
            got = rk.robust_viability_kernel(m, acc, domain=domain)
            _same_bytes((got.member, got.witness), want)
        got = rk.stochastic_viability_value(m, acc)
        _same_bytes((got.value, got.witness), want_value)
        for d, want in enumerate(want_recovery):
            got = rk.robust_recovery_table(m, acc, d)
            _same_bytes(
                (got.layers, got.min_layer, got.witness, got.r_star), want
            )
        out = rk.minimize_risk(
            m, x0, start, rk.Viability(acc), risk, method="dp"
        )
        assert out.resilient == bool(dp_member[start, x0])
        if out.resilient:
            _same_bytes(
                [np.asarray(p.table) for p in out.strategy.policies],
                list(dp_tables),
            )
            assert (
                np.float64(out.value).tobytes()
                == dp_value[start, x0].tobytes()
            )
            # the DP value contract: the expected cost of the reported
            # policy to within 1e-12
            want_strategy = rk.markov_strategy(model, dp_tables, start)
            bundle = rk.build_bundle(
                model, want_strategy, x0, start=start, robust_only=False
            )
            want_risk = rk.evaluate_risk(model, risk, bundle)
            assert out.value == pytest.approx(want_risk, abs=1e-12)
    return dp_member[start, x0]


def test_backup_matches_loop_recursions_bytewise():
    rng = np.random.default_rng(20261018)
    twins = 0
    for _ in range(240):
        model = random_model(
            rng, max_states=6, max_controls=3, max_w=3, max_horizon=4,
            with_probs=True, with_robust=bool(rng.integers(2)),
            cemetery_rate=0.2,
        )
        acc = random_acceptable(rng, model)
        start = int(rng.integers(model.horizon))
        x0 = int(rng.integers(model.n_states))
        risk = rk.Composed(_random_additive_cost(rng, model, acc), rk.Expectation())
        twin = padded_twin(rng, model)
        twins += twin is not None
        models = (model,) if twin is None else (model, twin)
        _assert_sweeps_match_loops(models, acc, start, x0, risk)
    # most draws have ragged |W_t|, so the padding guard is exercised
    assert twins >= 100


def _zero_weights(rng, model):
    """The model with each time's probabilities redrawn as ratios of small
    integers, some of them zero (never all)."""
    u = model.uncertainty
    probs = []
    for t in range(model.horizon):
        weights = rng.integers(0, 3, size=u.size(t))
        if not weights.any():
            weights[int(rng.integers(weights.size))] = 1
        probs.append(tuple(weights / weights.sum()))
    return rk.SystemModel(
        model.time, model.states, model.controls,
        rk.UncertaintyStructure(u.sets, tuple(probs), u.robust),
        model.dynamics, model.constraints,
    )


def test_dp_sweep_matches_loops_on_zero_weights_and_late_starts():
    # the certificate reads the kernel off its own finite values: a control
    # whose zero-weight w leaves the kernel reads 0 * inf = NaN and must
    # not attain; starts run over 1..K, K included; the loop reference
    # still restricts to kernel-preserving controls (_loop_kernel)
    rng = np.random.default_rng(20261019)
    resilient = nan_reads = 0
    for _ in range(240):
        model = _zero_weights(rng, random_model(
            rng, max_states=6, max_controls=3, max_w=3, max_horizon=4,
            with_probs=True, with_robust=bool(rng.integers(2)),
            cemetery_rate=0.2,
        ))
        acc = random_acceptable(rng, model)
        K = model.horizon
        start = int(rng.integers(1, K + 1))
        x0 = int(rng.integers(model.n_states))
        risk = rk.Composed(_random_additive_cost(rng, model, acc), rk.Expectation())
        twin = padded_twin(rng, model)
        models = (model,) if twin is None else (model, twin)
        resilient += bool(
            _assert_sweeps_match_loops(models, acc, start, x0, risk)
        )
        # kernel cells (t, x) whose backup reads a NaN: an admissible
        # control takes a zero-weight w out of the kernel
        member = rk.robust_viability_kernel(model, acc, "full").member
        for t in range(start, K):
            nxt = model.dynamics[t, :, :, :model.uncertainty.size(t)]
            leaves = ~np.append(member[t + 1], False)[nxt]
            zero = np.array(model.uncertainty.probs[t]) == 0.0
            nan = (leaves & zero).any(axis=2) & model.constraints[t]
            nan_reads += int(nan.any(axis=1)[member[t]].sum())
    # the certificate is produced, not only refused, and NaN reads occur
    assert resilient >= 80
    assert nan_reads >= 15


def _wide_model(rng, n, robust, zero):
    """n states on a line moved by u - 1 plus a shift of -1, 0 or 3 per w,
    clipped below; a move past the top leads to the cemetery, and some
    controls are inadmissible. robust gives the per-time robust subsets of
    the 3 values of w; with `zero` the w of shift 3 has probability 0."""
    K, nu, nw = 3, 3, 3
    shift = np.stack([rng.permutation([-1, 0, 3]) for _ in range(K)])
    x = np.arange(n)[None, :, None, None]
    u = np.arange(nu)[None, None, :, None]
    nxt = x + u - 1 + shift[:, None, None, :]
    dyn = np.where(nxt >= n, n, np.clip(nxt, 0, n - 1)).astype(np.int32)
    con = rng.random((K, n, nu)) < 0.8
    con[:, :, 0] |= ~con.any(axis=2)
    probs = []
    for t in range(K):
        p = rng.integers(1, 5, size=nw).astype(np.float64)
        if zero:
            p[shift[t] == 3] = 0.0
        probs.append(tuple(p / p.sum()))
    model = rk.SystemModel(
        rk.TimeGrid(K),
        rk.StateSpace(tuple(str(i) for i in range(n))),
        rk.ControlSpace(tuple(str(i) for i in range(nu))),
        rk.UncertaintyStructure(
            (("a", "b", "c"),) * K, tuple(probs), (robust,) * K
        ),
        dyn,
        con,
    )
    return model, shift


def test_backup_matches_loop_recursions_on_16_bit_planes():
    # n >= 256 reads uint16 planes; robust subsets such as (0, 2) take
    # non-contiguous planes; a zero-probability w that leads a kernel state
    # to the cemetery gives 0 * inf = NaN in the DP certificate; tabular
    # costs are negative
    rng = np.random.default_rng(61018)
    resilient = nan_paths = 0
    cases = [
        (256, (0, 2), True), (300, (1,), False), (257, (0, 1, 2), True),
        (400, (0, 2), False),
    ]
    for n, robust, zero in cases:
        model, shift = _wide_model(rng, n, robust, zero)
        planes = rk.model.successor_planes(model)
        assert all(p.dtype == np.uint16 for p in planes)
        assert [p.shape for p in planes] == [(3, n + 1, 3)] * model.horizon
        # the upper half touches the top, where moves reach the cemetery
        acc = frozenset(range(n - n // 2, n))
        K = model.horizon
        if zero:
            member = rk.robust_viability_kernel(model, acc, "full").member
            t = K - 1
            w = int(np.flatnonzero(shift[t] == 3)[0])
            dead = (model.dynamics[t, :, :, w] == n) & model.constraints[t]
            nan_paths += int((dead.any(axis=1) & member[t]).sum())
        costs = [
            rk.TabularCost(-rng.random((K + 1, n)), -rng.random((K, 3))),
            rk.TimeOutside(acc),
            rk.ControlEffort((-0.5, 0.25, -1.0)),
            rk.TerminalMiss(acc),
        ]
        for cost in costs:
            start = int(rng.integers(K))
            x0 = int(rng.integers(n - n // 2, n - 3))
            resilient += bool(_assert_sweeps_match_loops(
                (model,), acc, start, x0, rk.Composed(cost, rk.Expectation())
            ))
    # the certificate is produced, not only refused, and the NaN path is
    # read by kernel states
    assert resilient >= 4
    assert nan_paths >= 2
