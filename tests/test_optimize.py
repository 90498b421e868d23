"""Risk minimization: the DP certificate against the exhaustive scan, the
tie-break order, parallel block scans, and the fast-path eligibility rules."""

import math
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    outcome,
    padded_twin,
    random_acceptable,
    random_model,
    random_risks,
    random_variant,
)

A = M1_ACCEPTABLE
MODELS = Path(__file__).resolve().parent.parent / "models"

EFFORT = rk.Composed(rk.ControlEffort(), rk.Expectation())


def sure_viability():
    return rk.StochasticViability(A, 1.0)


def test_reservoir_minimum_effort(m1):
    out = rk.minimize_risk(m1, 2, 0, sure_viability(), EFFORT)
    assert out.resilient
    assert out.certificate == "dp"
    assert out.value == 2.0
    assert out.examined == 0
    # the reported value is the evaluated risk of the reported strategy
    bundle = rk.build_bundle(m1, out.strategy, 2)
    assert rk.evaluate_risk(m1, EFFORT, bundle) == 2.0


def test_reservoir_exhaustive_agrees(m1):
    dp = rk.minimize_risk(m1, 2, 0, sure_viability(), EFFORT)
    ex = rk.minimize_risk(m1, 2, 0, sure_viability(), EFFORT, method="exhaustive")
    assert ex.certificate == "exhaustive"
    assert ex.value == dp.value == 2.0
    assert ex.examined == 512
    # the forced pushes at state 2 make the least minimizer unique here
    assert rk.strategies_equal(dp.strategy, ex.strategy)


def test_not_resilient_is_an_answer(m1):
    for method in ("auto", "exhaustive"):
        out = rk.minimize_risk(m1, 0, 0, rk.Viability(A), EFFORT, method=method)
        assert not out.resilient
        assert out.value == math.inf
        assert out.strategy is None


def test_dp_certificate_skips_the_cap(m1):
    # no enumeration happens on the DP path, so the cap cannot trip
    out = rk.minimize_risk(m1, 2, 0, rk.Viability(A), EFFORT, cap=1)
    assert out.certificate == "dp"
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.minimize_risk(m1, 2, 0, rk.Viability(A), EFFORT,
                         method="exhaustive", cap=1)


def test_dp_eligibility_gates(m1):
    dp = dict(method="dp")
    # neither the class nor the sure regime's name gates the certificate
    for regime in (rk.Viability(A), rk.Bounded(A), sure_viability()):
        for kind in (rk.MARKOV, rk.ADAPTED):
            out = rk.minimize_risk(m1, 2, 0, regime, EFFORT,
                                   strategy_class=kind, **dp)
            assert (out.certificate, out.value) == ("dp", 2.0)
    with pytest.raises(rk.ConfigurationError, match="expected composed cost"):
        rk.minimize_risk(m1, 2, 0, rk.Viability(A),
                         rk.Composed(rk.ControlEffort(), rk.WorstCase()), **dp)
    with pytest.raises(rk.ConfigurationError, match="additive"):
        rk.minimize_risk(m1, 2, 0, rk.Viability(A),
                         rk.Composed(rk.RecoveryOffset(A), rk.Expectation()), **dp)
    with pytest.raises(rk.ConfigurationError, match="probability vectors"):
        rk.minimize_risk(build_m1(probs=None), 2, 0, rk.Viability(A), EFFORT, **dp)
    with pytest.raises(rk.ConfigurationError, match="sure-viability"):
        rk.minimize_risk(m1, 2, 0, rk.AtMostKExits(A, 0), EFFORT, **dp)
    with pytest.raises(rk.ConfigurationError, match="sure-viability"):
        rk.minimize_risk(m1, 2, 0, rk.StochasticViability(A, 0.5), EFFORT, **dp)
    with pytest.raises(rk.ConfigurationError, match="positive probability"):
        rk.minimize_risk(build_m1(probs=(1.0, 0.0)), 2, 0,
                         rk.StochasticViability(A, 1.0), EFFORT, **dp)


def test_auto_falls_back_to_exhaustive(m1):
    # AtMostKExits(A, 0) has Bounded(A)'s members here, yet no certificate
    out = rk.minimize_risk(m1, 2, 0, rk.AtMostKExits(A, 0), EFFORT)
    assert out.certificate == "exhaustive"
    assert out.value == 2.0


def test_input_validation(m1):
    with pytest.raises(rk.InputError, match="x0"):
        rk.minimize_risk(m1, 7, 0, rk.Viability(A), EFFORT)
    with pytest.raises(rk.InputError, match="unknown method"):
        rk.minimize_risk(m1, 2, 0, rk.Viability(A), EFFORT, method="greedy")


def test_parallel_scan_matches_serial(m1):
    regime = sure_viability()
    one = rk.minimize_risk(m1, 2, 0, regime, EFFORT, method="exhaustive", jobs=1)
    four = rk.minimize_risk(m1, 2, 0, regime, EFFORT, method="exhaustive", jobs=4)
    assert one.value == four.value
    assert one.examined == four.examined == 512
    assert rk.strategies_equal(one.strategy, four.strategy)


def test_parallel_scan_matches_serial_randomized():
    rng = np.random.default_rng(555)
    for _ in range(8):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        acc = random_acceptable(rng, model)
        regime = rk.Bounded(acc)
        risk = rk.Composed(rk.TimeOutside(acc, cemetery_penalty=5.0), rk.WorstCase())
        x0 = int(rng.integers(model.n_states))
        one = rk.minimize_risk(model, x0, 0, regime, risk, jobs=1)
        three = rk.minimize_risk(model, x0, 0, regime, risk, jobs=3)
        assert one.resilient == three.resilient
        assert one.value == three.value
        assert one.examined == three.examined
        if one.resilient:
            assert rk.strategies_equal(one.strategy, three.strategy)


def test_tie_break_keeps_the_least_rank(m1):
    flat = rk.Composed(rk.TimeOutside({0, 1, 2, 3}), rk.Expectation())
    out = rk.minimize_risk(m1, 2, 0, rk.Viability(A), flat, method="exhaustive")
    assert out.value == 0.0
    value, strat, _ = rk.oracle_min_risk(m1, 2, 0, rk.Viability(A), flat)
    assert value == 0.0
    assert rk.strategies_equal(out.strategy, strat)
    first = rk.oracle_resilient_states(m1, 0, rk.Viability(A)).witnesses[2]
    assert rk.strategies_equal(out.strategy, first)


def test_dp_matches_exhaustive_randomized():
    rng = np.random.default_rng(4242)
    costs = 0
    for _ in range(25):
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=2, max_horizon=2,
            with_probs=True,
        )
        acc = random_acceptable(rng, model)
        kind = costs % 4
        costs += 1
        if kind == 0:
            cost = rk.TimeOutside(acc, cemetery_penalty=9.0)
        elif kind == 1:
            cost = rk.ControlEffort(
                rates=tuple(float(r) for r in rng.integers(0, 4, model.n_controls))
            )
        elif kind == 2:
            cost = rk.TerminalMiss(acc, cemetery_penalty=9.0)
        else:
            cost = rk.TabularCost(
                rng.integers(0, 5, (model.horizon + 1, model.n_states)).astype(float),
                rng.integers(0, 5, (model.horizon, model.n_controls)).astype(float),
                cemetery_penalty=9.0,
            )
        risk = rk.Composed(cost, rk.Expectation())
        regime = rk.Viability(acc)
        x0 = int(rng.integers(model.n_states))
        dp = rk.minimize_risk(model, x0, 0, regime, risk, method="dp")
        ex = rk.minimize_risk(model, x0, 0, regime, risk, method="exhaustive")
        assert dp.resilient == ex.resilient
        if dp.resilient:
            assert dp.value == pytest.approx(ex.value, abs=1e-12)
            for out in (dp, ex):
                bundle = rk.build_bundle(model, out.strategy, x0)
                assert rk.evaluate_risk(model, risk, bundle) == pytest.approx(
                    out.value, abs=1e-12
                )


def _quarter_cost(rng, model, acc):
    """An additive cost of a random kind whose charges are multiples of
    1/4, so that sums over a path are exact."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    kind = int(rng.integers(4))
    if kind == 0:
        return rk.TimeOutside(acc)
    if kind == 1:
        return rk.ControlEffort(tuple(rng.integers(0, 8, nu) / 4))
    if kind == 2:
        return rk.TerminalMiss(acc)
    return rk.TabularCost(rng.integers(-4, 8, (K + 1, n)) / 4,
                          rng.integers(0, 8, (K, nu)) / 4)


def _sure_regimes(acc):
    """The sure-viability regimes of `acc`, each with the regime the oracle
    judges it by: StochasticViability(acc, 1) by Viability(acc), since its
    float threshold sums may fall short of 1 (ROADMAP item 11)."""
    V = rk.Viability(acc)
    return ((V, V), (rk.Bounded(acc), rk.Bounded(acc)),
            (rk.StochasticViability(acc, 1.0), V))


def test_dp_certificate_matches_the_oracle_over_classes_and_regimes():
    rng = np.random.default_rng(3303)
    counts = {}
    for case in range(360):
        kind = (rk.MARKOV, rk.ADAPTED)[case % 2]
        while True:
            model = random_model(rng, max_states=3, max_controls=2, max_w=2,
                                 max_horizon=3, with_probs=True,
                                 min_controls=2)
            # start = K, which leaves no decision, in one case of five
            start = int(rng.integers(model.horizon + (case % 5 == 0)))
            if rk.count_strategies(model, kind, start) <= 512:
                break
        acc = random_acceptable(rng, model)
        regime, judge = _sure_regimes(acc)[case // 2 % 3]
        risk = rk.Composed(_quarter_cost(rng, model, acc), rk.Expectation())
        x0 = int(rng.integers(model.n_states))
        out = rk.minimize_risk(model, x0, start, regime, risk,
                               strategy_class=kind, method="dp")
        value, witness, _ = rk.oracle_min_risk(model, x0, start, judge, risk,
                                               strategy_class=kind)
        assert (out.certificate, out.examined, out.strategy_class) == (
            "dp", 0, kind)
        assert out.resilient == (witness is not None), case
        key = (kind, type(regime).__name__, out.resilient)
        counts[key] = counts.get(key, 0) + 1
        if not out.resilient:
            assert out.value == value == math.inf
            continue
        assert abs(out.value - value) <= 1e-12, case
        assert rk.check_resilient(model, out.strategy, x0, start, judge)
        bundle = rk.build_bundle(model, out.strategy, x0, start)
        assert abs(rk.evaluate_risk(model, risk, bundle) - out.value) <= 1e-12
    # feasible and infeasible cases of each class under each regime
    assert len(counts) == 12 and min(counts.values()) >= 5, counts


def test_sure_regimes_and_classes_share_one_answer(m1):
    """Bounded(A), StochasticViability(A, 1) and the adapted class answer
    with Viability(A)'s Markov value bits and witness, above the oracle's
    cap too."""
    rng = np.random.default_rng(3304)
    cases = [(m1, 2, 0, A, EFFORT)]
    for _ in range(60):
        model = random_model(rng, max_states=6, max_controls=3, max_w=3,
                             max_horizon=5, with_probs=True)
        acc = random_acceptable(rng, model)
        risk = rk.Composed(_quarter_cost(rng, model, acc), rk.Expectation())
        cases.append((model, int(rng.integers(model.n_states)),
                      int(rng.integers(model.horizon + 1)), acc, risk))
    feasible = 0
    for model, x0, start, acc, risk in cases:
        want = rk.minimize_risk(model, x0, start, rk.Viability(acc), risk)
        feasible += want.resilient
        for regime, _ in _sure_regimes(acc):
            for kind in (rk.MARKOV, rk.ADAPTED):
                out = rk.minimize_risk(model, x0, start, regime, risk,
                                       strategy_class=kind)
                assert out.certificate == "dp"
                assert out.value.hex() == want.value.hex()
                assert (out.strategy is None) == (want.strategy is None)
                if want.strategy is not None:
                    assert rk.strategies_equal(out.strategy, want.strategy)
    assert 10 <= feasible <= len(cases) - 10


def test_reservoir_bounded_answers_by_the_certificate():
    # 12 levels, release 0 or 1, inflow 0 or 1 at probability 1/2: the
    # Markov class alone has 2**36 strategies, far above the cap
    model = rk.make_model(
        horizon=3, state_labels=tuple(str(x) for x in range(12)),
        control_labels=("0", "1"), uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: min(11, max(0, x - u + w)),
        probs=(0.5, 0.5),
    )
    R = frozenset(range(2, 12))
    risk = rk.Composed(rk.TimeOutside(frozenset(range(5, 12))),
                       rk.Expectation())
    want = rk.minimize_risk(model, 6, 0, rk.Viability(R), risk)
    assert want.certificate == "dp" and want.resilient
    for kind in (rk.MARKOV, rk.ADAPTED):
        out = rk.minimize_risk(model, 6, 0, rk.Bounded(R), risk,
                               strategy_class=kind)
        assert (out.certificate, out.value) == ("dp", want.value)
        assert rk.strategies_equal(out.strategy, want.strategy)
        assert rk.check_resilient(model, out.strategy, 6, 0, rk.Bounded(R))


def correlated_noise_model():
    # the state carries no information, but the two noise draws are fully
    # correlated, so a prefix-reading policy can cancel the second one
    return rk.make_model(
        horizon=2,
        state_labels=("0", "1"),
        control_labels=("0", "1"),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: 0 if t == 0 else (u + w) % 2,
        probs=(0.5, 0.5),
        scenario_probs={(0, 0): 0.5, (1, 1): 0.5},
    )


def test_adapted_class_beats_markov_under_correlation():
    model = correlated_noise_model()
    regime = rk.Bounded({0, 1})
    risk = rk.Composed(rk.TimeOutside({0}), rk.Expectation())
    markov = rk.minimize_risk(model, 0, 0, regime, risk)
    adapted = rk.minimize_risk(model, 0, 0, regime, risk,
                               strategy_class=rk.ADAPTED)
    assert markov.certificate == "exhaustive"
    assert markov.value == 0.5
    assert adapted.value == 0.0
    assert adapted.strategy_class == rk.ADAPTED
    # oracle agreement for the adapted class
    value, strat, _ = rk.oracle_min_risk(
        model, 0, 0, regime, risk, strategy_class=rk.ADAPTED
    )
    assert value == 0.0
    assert rk.strategies_equal(adapted.strategy, strat)


def test_indicator_reports_the_minimized_value(m1):
    assert rk.resilience_indicator(m1, 2, sure_viability(), EFFORT) == 2.0
    assert rk.resilience_indicator(m1, 0, rk.Viability(A), EFFORT) == math.inf


def _scan_regime_and_risk(rng, model, acc, which):
    """One regime decided by the exhaustive scan, with a risk measure."""
    if which == 0:
        return rk.Bounded(acc), rk.Composed(
            rk.TimeOutside(acc, cemetery_penalty=5.0), rk.WorstCase()
        )
    if which == 1:
        return rk.AtMostKExits(acc, 1), rk.Exceedance(acc)
    if which == 2:
        rates = tuple(float(r) for r in rng.integers(0, 4, model.n_controls))
        return rk.ProbExcursion(acc, 0.5), rk.Composed(
            rk.ControlEffort(rates), rk.CVaR(0.5)
        )
    deadline = int(rng.integers(model.horizon + 1))
    return rk.RobustRecovery(acc, deadline), rk.Composed(
        rk.RecoveryOffset(acc), rk.WorstCase()
    )


def test_pruned_scan_matches_the_oracle():
    # the scan visits one strategy per class agreeing on the reachable
    # policy slots; the oracle enumerates the whole class
    rng = np.random.default_rng(8086)
    pruned = twins = resilient = 0
    for i in range(96):
        kind = (rk.MARKOV, rk.ADAPTED)[i % 2]
        # adapted tables grow with the prefix count: keep their class small
        markov = kind == rk.MARKOV
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=3 if markov else 2,
            max_horizon=3 if markov else 2,
            with_probs=True, with_robust=True, cemetery_rate=0.2,
        )
        acc = random_acceptable(rng, model)
        regime, risk = _scan_regime_and_risk(rng, model, acc, (i // 2) % 4)
        start = int(rng.integers(model.horizon + 1))
        x0 = int(rng.integers(model.n_states))
        value, strat, examined = rk.oracle_min_risk(
            model, x0, start, regime, risk, strategy_class=kind
        )
        pruned += rk.strategy.rank_layout(model, x0, kind, start).pruned > 0
        resilient += strat is not None
        twin = padded_twin(rng, model)
        twins += twin is not None
        for m in (model, twin) if twin is not None else (model,):
            for jobs in (1, 2):
                out = rk.minimize_risk(
                    m, x0, start, regime, risk, strategy_class=kind,
                    method="exhaustive", jobs=jobs,
                )
                assert out.certificate == "exhaustive"
                assert np.float64(out.value).tobytes() == \
                    np.float64(value).tobytes()
                assert out.examined == examined
                assert out.resilient == (strat is not None)
                if strat is None:
                    assert out.strategy is None
                else:
                    assert rk.strategies_equal(out.strategy, strat)
    assert pruned >= 40 and twins >= 35 and resilient >= 45


def test_block_scan_matches_the_oracle_on_every_risk():
    # scans of both classes decided and priced on block arrays against the
    # oracle, which prices every member on its bundle: same value bits,
    # examined count and strategy, or the same error (expected risks on a
    # model without probabilities fail at the first member, and only then)
    rng = np.random.default_rng(2718)
    seen = {"resilient": 0, "none": 0, "error": 0, "nan": 0, "joint": 0,
            "listed": 0, "stabilize": 0, "control_event": 0,
            "containment": 0, "adapted": 0}
    for i in range(130):
        # adapted tables grow with the prefix count: keep their class small
        kind = rk.ADAPTED if i >= 90 else rk.MARKOV
        model = random_model(
            rng, max_states=3, max_controls=2, max_w=2,
            max_horizon=3 if kind == rk.MARKOV else 2,
            with_probs=True, with_robust=True, cemetery_rate=0.2,
        )
        if i % 3:
            model = random_variant(rng, model)
        seen["joint"] += model.scenario_probs is not None
        seen["listed"] += model.robust_scenarios is not None
        acc = random_acceptable(rng, model)
        K = model.horizon
        regimes = [
            rk.Viability(acc), rk.Bounded(acc), rk.AtMostKExits(acc, 1),
            rk.RobustRecovery(acc, int(rng.integers(K + 1))),
            rk.Stabilize(
                int(rng.integers(model.n_states)),
                float(rng.choice((0.0, 1.0))), int(rng.integers(K + 2)),
            ),
            rk.ControlEvent(frozenset(
                int(u) for u in np.flatnonzero(
                    rng.random(model.n_controls) < 0.5
                )
            )),
            rk.RiskContainment(
                rk.Composed(rk.TimeOutside(acc), rk.WorstCase()),
                float(rng.integers(3)),
            ),
        ]
        if model.uncertainty.has_probs or model.scenario_probs is not None:
            regimes += [
                rk.ProbExcursion(acc, float(rng.choice((0.0, 0.25, 0.5)))),
                rk.StochasticViability(acc, float(rng.choice((0.5, 0.75)))),
                rk.RiskContainment(rk.Exceedance(acc), 0.5),
            ]
        regime = regimes[i % len(regimes)]
        seen["stabilize"] += isinstance(regime, rk.Stabilize)
        seen["control_event"] += isinstance(regime, rk.ControlEvent)
        seen["containment"] += isinstance(regime, rk.RiskContainment)
        seen["adapted"] += kind == rk.ADAPTED
        start = int(rng.integers(K))
        x0 = int(rng.integers(model.n_states))
        for risk in random_risks(rng, model, acc)[::3]:
            got = outcome(lambda: rk.minimize_risk(
                model, x0, start, regime, risk, strategy_class=kind,
                method="exhaustive",
            ))
            want = outcome(lambda: rk.oracle_min_risk(
                model, x0, start, regime, risk, strategy_class=kind
            ))
            if isinstance(want, tuple) and isinstance(want[0], type):
                seen["error"] += 1
                assert got == want, (i, regime, risk)
                continue
            value, strat, examined = want
            assert got.examined == examined, (i, regime, risk)
            if strat is None:
                seen["none"] += 1
                assert got.strategy is None and got.value == math.inf
                continue
            seen["resilient"] += 1
            assert rk.strategies_equal(got.strategy, strat), (i, regime, risk)
            if math.isnan(value):
                seen["nan"] += 1
                assert math.isnan(got.value)
            else:
                assert np.float64(got.value).tobytes() == \
                    np.float64(value).tobytes(), (i, regime, risk)
    assert min(seen.values()) >= 5, seen


def test_pruned_scan_on_m1_benign(monkeypatch):
    # from level 0 a 3-step reservoir reaches 1 + 2 + 3 of the 12 Markov
    # slots, so 2**6 of the 2**12 strategies stand for the whole class
    with open(MODELS / "m1_benign.model", encoding="utf-8") as fh:
        parsed = rk.parse_model(fh.read())
    # RobustRecovery is decided by forward reachable sets, a block of
    # representatives per call: count the representatives each call decides
    scanned = []
    member = rk.engine._reachable_members

    def counting(model, regime, x0, start, policies):
        scanned.extend(policies)
        return member(model, regime, x0, start, policies)

    monkeypatch.setattr(rk.engine, "_reachable_members", counting)
    out = rk.minimize_risk(parsed.model, 0, 0, parsed.regime, parsed.risk)
    assert out.certificate == "exhaustive"
    assert len(scanned) == 64
    assert out.examined == 2048
    monkeypatch.undo()
    value, strat, examined = rk.oracle_min_risk(
        parsed.model, 0, 0, parsed.regime, parsed.risk
    )
    assert (out.value, out.examined) == (value, examined)
    assert rk.strategies_equal(out.strategy, strat)


def test_full_scenario_cap_waits_for_a_resilient_representative():
    # 2**21 full scenarios exceed DEFAULT_SCENARIO_CAP, the robust set is
    # one scenario: membership never needs the full set, and the risk of a
    # resilient strategy does
    K = 21
    assert 2**K > rk.DEFAULT_SCENARIO_CAP
    model = rk.make_model(
        horizon=K, state_labels=("0", "1"), control_labels=("0",),
        uncertainty_sets=("0", "1"), dynamics_fn=lambda t, x, u, w: x,
        robust=(0,),
    )
    regime = rk.RobustRecovery(frozenset({1}), K)
    risk = rk.Composed(rk.RecoveryOffset(frozenset({1})), rk.WorstCase())
    out = rk.minimize_risk(model, 0, 0, regime, risk)
    assert (out.resilient, out.value, out.examined) == (False, math.inf, 0)
    assert rk.oracle_min_risk(model, 0, 0, regime, risk) == (math.inf, None, 0)
    assert rk.check_resilient(model, rk.constant_strategy(model, 0), 1, 0,
                              regime)
    with pytest.raises(rk.CapacityError, match="scenarios exceed cap"):
        rk.minimize_risk(model, 1, 0, regime, risk)
    with pytest.raises(rk.CapacityError, match="scenarios exceed cap"):
        rk.oracle_min_risk(model, 1, 0, regime, risk)


def test_cap_error_names_the_route(m1):
    with pytest.raises(rk.CapacityError, match="exceed cap") as err:
        rk.minimize_risk(m1, 2, 0, rk.AtMostKExits(A, 0), EFFORT, cap=5)
    assert str(err.value).startswith("exhaustive scan: 4096 markov")
    assert "sure-viability regimes only" in str(err.value)
    # forced past an applicable certificate, there is no reason to give
    with pytest.raises(rk.CapacityError) as err:
        rk.minimize_risk(m1, 2, 0, rk.Viability(A), EFFORT,
                         method="exhaustive", cap=5)
    assert str(err.value) == (
        "exhaustive scan: 4096 markov strategies exceed cap 5"
    )


def _forward_expected_cost(model, strategy, x0, step, terminal):
    """Expected additive cost of a Markov strategy from x0, by forward
    propagation of the state distribution."""
    n = model.n_states
    mass = np.zeros(n + 1)
    mass[x0] = 1.0
    total = 0.0
    for pol in strategy.policies:
        t, u = pol.t, pol.table
        assert mass[n] == 0.0
        total += float(mass[:n] @ step[t, np.arange(n), u])
        nxt = np.zeros(n + 1)
        for w, p in enumerate(model.uncertainty.probs[t]):
            np.add.at(nxt, model.dynamics[t, np.arange(n), u, w], mass[:n] * p)
        mass = nxt
    assert mass[n] == 0.0
    return total + float(mass[:n] @ terminal)


def test_dp_certificate_never_enumerates_scenarios():
    # 3**13 scenarios exceed the scenario cap; the certificate is polynomial
    n, nu, K = 10, 3, 13
    rng = np.random.default_rng(1313)
    shift = np.stack([rng.permutation([-1, 0, 1]) for _ in range(K)])
    probs = []
    for _ in range(K):
        p = rng.integers(1, 8, size=3).astype(float)
        probs.append(tuple(p / p.sum()))
    model = rk.make_model(
        horizon=K,
        state_labels=tuple(str(x) for x in range(n)),
        control_labels=("0", "1", "2"),
        uncertainty_sets=("0", "1", "2"),
        dynamics_fn=lambda t, x, u, w: min(n - 1, max(0, x + u - 1 + shift[t, w])),
        probs=tuple(probs),
    )
    assert rk.count_scenarios(model) > rk.DEFAULT_SCENARIO_CAP
    acc = frozenset(range(3, 8))
    cost = rk.TabularCost(rng.random((K + 1, n)).round(3),
                          rng.random((K, nu)).round(3))
    out = rk.minimize_risk(model, 5, 0, rk.Viability(acc),
                           rk.Composed(cost, rk.Expectation()))
    assert out.certificate == "dp" and out.resilient
    step, terminal = rk.optimize._additive_tables(model, cost)
    want = _forward_expected_cost(model, out.strategy, 5, step, terminal)
    assert out.value == pytest.approx(want, abs=1e-12)



def _unbounded_costs(model):
    """Tabular costs the DP certificate refuses: inf terminal costs on
    {1, 2, 3}, inf control costs at t = 0, one NaN state cost, and state
    costs of 1e308 whose sum over the times overflows."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    states, controls = np.zeros((K + 1, n)), np.zeros((K, nu))
    terminal, first, nan = states.copy(), controls.copy(), states.copy()
    terminal[K, [1, 2, 3]] = math.inf
    first[0] = math.inf
    nan[1, 2] = math.nan
    return [
        rk.TabularCost(terminal, controls),
        rk.TabularCost(states, first),
        rk.TabularCost(nan, controls),
        rk.TabularCost(np.full((K + 1, n), 1e308), controls),
    ]


def test_non_finite_costs_leave_the_certificate():
    # off the finite costs the sweep's finite set is not the kernel, so
    # "auto" scans and agrees with the oracle, and "dp" refuses
    model = build_m1()
    regime = rk.Viability({1, 2, 3})
    for cost in _unbounded_costs(model):
        risk = rk.Composed(cost, rk.Expectation())
        for x0 in (1, 2, 3):
            out = rk.minimize_risk(model, x0, 0, regime, risk)
            assert out.certificate == "exhaustive"
            value, strategy, examined = rk.oracle_min_risk(
                model, x0, 0, regime, risk
            )
            assert out.resilient == (strategy is not None)
            assert (
                np.float64(out.value).tobytes()
                == np.float64(value).tobytes()
                or math.isnan(out.value) and math.isnan(value)
            )
            assert out.examined == examined
            assert rk.check_resilient(model, out.strategy, x0, 0, regime)
            with pytest.raises(
                rk.ConfigurationError,
                match="needs finite costs whose sums cannot overflow",
            ):
                rk.minimize_risk(model, x0, 0, regime, risk, method="dp")


def test_a_nan_member_ranks_after_every_number():
    # one NaN state cost makes some members' expected cost NaN; the scan
    # and the oracle rank NaN after every number, so both report the least
    # finite risk over the resilient strategies, with a resilient witness
    model = build_m1()
    regime = rk.Viability({1, 2, 3})
    K, n, nu = model.horizon, model.n_states, model.n_controls
    states = np.zeros((K + 1, n))
    states[1, 2] = math.nan
    risk = rk.Composed(rk.TabularCost(states, np.zeros((K, nu))),
                       rk.Expectation())
    x0, values = 3, []
    for strategy in rk.enumerate_strategies(model):
        bundle = rk.build_bundle(model, strategy, x0)
        if rk.regime_membership(model, regime, bundle):
            values.append(rk.evaluate_risk(model, risk, bundle))
    finite = [v for v in values if not math.isnan(v)]
    assert len(finite) < len(values) and min(finite) == 0.0
    out = rk.minimize_risk(model, x0, 0, regime, risk)
    assert out.certificate == "exhaustive" and out.value == min(finite)
    assert out.examined == len(values)
    assert rk.check_resilient(model, out.strategy, x0, 0, regime)
    value, strategy, examined = rk.oracle_min_risk(model, x0, 0, regime, risk)
    assert (value, examined) == (min(finite), len(values))
    assert rk.strategies_equal(strategy, out.strategy)
    # a class whose every member is NaN still reports NaN
    everywhere = rk.Composed(rk.TabularCost(np.full((K + 1, n), math.nan),
                                            np.zeros((K, nu))),
                             rk.Expectation())
    out = rk.minimize_risk(model, x0, 0, regime, everywhere)
    assert out.resilient and math.isnan(out.value)
    assert math.isnan(rk.oracle_min_risk(model, x0, 0, regime, everywhere)[0])


def test_cost_bound_sits_at_2_to_the_1023():
    # the K + 1 = 4 state costs of each path sum to 4 * c: c = 2**1021
    # reaches the bound and is scanned, c = 2**1020 stays below it and is
    # certified, with the oracle's value
    model = build_m1()
    regime = rk.Viability({1, 2, 3})
    controls = np.zeros((model.horizon, model.n_controls))
    for c, certificate in ((2.0**1021, "exhaustive"), (2.0**1020, "dp")):
        states = np.full((model.horizon + 1, model.n_states), c)
        risk = rk.Composed(rk.TabularCost(states, controls), rk.Expectation())
        out = rk.minimize_risk(model, 2, 0, regime, risk)
        assert out.certificate == certificate
        value, _, _ = rk.oracle_min_risk(model, 2, 0, regime, risk)
        assert out.value == value == 4 * c


def test_value_and_certificate_share_one_sweep(m1, monkeypatch):
    # the certificate is the value table's loop minimizing: K - start
    # backups and no kernel sweep before them
    assert "_kernel" not in vars(rk.optimize)
    assert "_backup" not in vars(rk.optimize)
    times = []
    backup = rk.engine._backup

    def counted(model, t, *args, **kwargs):
        times.append(t)
        return backup(model, t, *args, **kwargs)

    monkeypatch.setattr(rk.engine, "_backup", counted)
    K = m1.horizon
    rk.stochastic_viability_value(m1, A)
    assert times == list(range(K - 1, -1, -1))
    for start in range(K + 1):
        for x0 in range(m1.n_states):
            times.clear()
            out = rk.minimize_risk(
                m1, x0, start, rk.Viability(A), EFFORT, method="dp"
            )
            assert out.certificate == "dp"
            assert times == list(range(K - 1, start - 1, -1))


def test_infinite_cemetery_penalty_is_not_paid_off_the_cemetery():
    # a path that never reaches the cemetery pays no penalty, not inf * 0
    # = NaN: the certificate, the scan, the oracle and evaluate_risk of
    # every witness agree
    model = build_m1()
    acc = frozenset({1, 2, 3})
    regime = rk.Viability(acc)
    for cost, want, certificate in (
        (rk.TimeOutside(acc, math.inf), 0.0, "dp"),
        (rk.ControlEffort(None, math.inf), 0.25, "dp"),
        (rk.TerminalMiss(acc, math.inf), 0.0, "dp"),
        (rk.RecoveryOffset(acc, math.inf), 0.0, "exhaustive"),
    ):
        risk = rk.Composed(cost, rk.Expectation())
        auto = rk.minimize_risk(model, 3, 0, regime, risk)
        assert auto.certificate == certificate
        scan = rk.minimize_risk(model, 3, 0, regime, risk, method="exhaustive")
        value, strategy, _ = rk.oracle_min_risk(model, 3, 0, regime, risk)
        assert auto.value == scan.value == value == want, cost
        for witness in (auto.strategy, scan.strategy, strategy):
            bundle = rk.build_bundle(model, witness, 3)
            assert rk.evaluate_risk(model, risk, bundle) == want, cost


def _dyadic_model(rng):
    """A random model whose probabilities are dyadic, so that expected sums
    of quarter-integer costs are exact in any grouping."""
    n, nu, K = (int(v) for v in rng.integers(2, (5, 4, 4)))
    table = rng.integers(0, n, size=(K, n, nu, 2))
    table[rng.random(table.shape) < 0.1] = n  # the cemetery
    allowed = rng.random((K, n, nu)) < 0.75
    allowed[:, :, 0] |= ~allowed.any(axis=2)
    return rk.make_model(
        horizon=K,
        state_labels=tuple(str(x) for x in range(n)),
        control_labels=tuple(str(u) for u in range(nu)),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: int(table[t, x, u, w]),
        constraints_fn=lambda t, x: np.flatnonzero(allowed[t, x]).tolist(),
        probs=tuple(tuple(rng.permutation((0.25, 0.75))) for _ in range(K)),
    )


def test_dp_value_is_the_witness_risk_bit_for_bit():
    # on dyadic probabilities and quarter-integer costs the certificate's
    # value is evaluate_risk of its witness exactly, for each additive kind
    # and under an infinite cemetery penalty too
    rng = np.random.default_rng(2424)
    resilient = 0
    for _ in range(30):
        model = _dyadic_model(rng)
        K, n, nu = model.horizon, model.n_states, model.n_controls
        acc = random_acceptable(rng, model)
        start = int(rng.integers(K + 1))
        x0 = int(rng.integers(n))
        for penalty in (1e18, math.inf):
            for cost in (
                rk.TimeOutside(acc, penalty),
                rk.ControlEffort(None, penalty),
                rk.ControlEffort(tuple(rng.integers(-4, 9, nu) / 4), penalty),
                rk.TerminalMiss(acc, penalty),
                rk.TabularCost(
                    rng.integers(-4, 9, (K + 1, n)) / 4,
                    rng.integers(-4, 9, (K, nu)) / 4,
                    penalty,
                ),
            ):
                risk = rk.Composed(cost, rk.Expectation())
                out = rk.minimize_risk(model, x0, start, rk.Viability(acc), risk)
                assert out.certificate == "dp"
                if not out.resilient:
                    continue
                resilient += 1
                bundle = rk.build_bundle(model, out.strategy, x0)
                got = rk.evaluate_risk(model, risk, bundle)
                assert np.float64(got).tobytes() == \
                    np.float64(out.value).tobytes(), (cost, got, out.value)
    assert resilient >= 100, resilient
