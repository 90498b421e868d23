"""Backward recursions (kernel, stochastic value, layered recovery) and the
resilient-set dispatcher, against frozen values on the reservoir model and
naive recomputations on random instances."""

import math
import re

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    padded_twin,
    random_acceptable,
    random_model,
)

A = M1_ACCEPTABLE


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
        assert rk.check_resilient(m1, strat, x0, 0, rk.Viability(A))


def test_resilient_states_recovery(m1, m1_benign):
    regime = rk.RobustRecovery(A, 3)
    out = rk.resilient_states(m1_benign, 0, regime)
    assert out.method == "recovery"
    assert out.members == {0, 1, 2, 3}
    for x0, strat in out.witnesses.items():
        assert rk.check_resilient(m1_benign, strat, x0, 0, regime)
    assert rk.resilient_states(m1, 0, regime).members == {2, 3}


def test_resilient_states_value(m1):
    regime = rk.StochasticViability(A, 1.0)
    out = rk.resilient_states(m1, 0, regime)
    assert out.method == "value"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert rk.check_resilient(m1, strat, x0, 0, regime)


def test_resilient_states_exhaustive(m1):
    regime = rk.Bounded(A)
    out = rk.resilient_states(m1, 0, regime)
    assert out.method == "exhaustive"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert rk.check_resilient(m1, strat, x0, 0, regime)


def test_resilient_states_later_start(m1):
    out = rk.resilient_states(m1, 2, rk.Viability(A))
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert strat.start == 2
        assert rk.check_resilient(m1, strat, x0, 2, rk.Viability(A))
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
    cases = [
        # (call, error, message): regime, then scenario cap, strategy, x0
        (lambda: rk.check_resilient(m1, s, 9, 0, rk.Viability({7})),
         rk.InputError, "acceptable set contains invalid state index 7"),
        (lambda: rk.check_resilient(m1, s, 9, 0, rk.RobustRecovery(A, 9)),
         rk.InputError, "deadline 9 outside"),
        (lambda: rk.check_resilient(m1, bad, 9, 0, V, cap=7),
         rk.CapacityError, "8 scenarios exceed cap 7"),
        (lambda: rk.check_resilient(m1, bad, 9, 0, V),
         rk.InputError, "unknown control"),
        (lambda: rk.check_resilient(m1, s, 4, 0, V),
         rk.InputError, "x0 must be an ordinary state index, got 4"),
        (lambda: rk.check_resilient(m1, late, 2, 0, V),
         rk.InputError, "cannot simulate from 0"),
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
         rk.CapacityError, "8 scenarios exceed cap 7"),
        (lambda: rk.build_bundle(m1, s, -1),
         rk.InputError, "x0 must be an ordinary state index, got -1"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            call()
    # a run from beyond the horizon plays no policy and never recovers
    assert not rk.check_resilient(m1, s, 2, 4, V)


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
    for call, message in cases:
        with pytest.raises(rk.InputError, match=re.escape(message)):
            call()
    with pytest.raises(rk.CapacityError, match="8 scenarios exceed cap 3"):
        rk.resilient_states(m1, 2, B, scenario_cap=3)
    # expected costs without probabilities fail at the first resilient
    # strategy, and only then
    plain = build_m1(probs=None)
    assert rk.minimize_risk(plain, 0, 2, B, effort).value == math.inf
    with pytest.raises(rk.ConfigurationError, match="per-time probability"):
        rk.minimize_risk(plain, 2, 2, B, effort)


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
        )[(i // 2) % 3]
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
        K = model.horizon
        start = int(rng.integers(K))
        x0 = int(rng.integers(model.n_states))
        risk = rk.Composed(_random_additive_cost(rng, model, acc), rk.Expectation())
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

        twin = padded_twin(rng, model)
        twins += twin is not None
        for m in (model, twin) if twin is not None else (model,):
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
    # most draws have ragged |W_t|, so the padding guard is exercised
    assert twins >= 100
