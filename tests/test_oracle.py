"""Brute-force reference routines: the batched Markov scans must agree with
the definitional object-level path, and their outputs are frozen on the
reservoir model."""

import math

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    random_acceptable,
    random_model,
)

A = M1_ACCEPTABLE


def test_oracle_viability_on_reservoir(m1):
    out = rk.oracle_resilient_states(m1, 0, rk.Viability(A))
    assert out.method == "oracle"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert rk.check_resilient(m1, strat, x0, 0, rk.Viability(A))


def test_batched_scan_matches_object_scan():
    rng = np.random.default_rng(606)
    for _ in range(15):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        acc = random_acceptable(rng, model)
        regime = rk.Viability(acc)
        fast = rk.oracle_resilient_states(model, 0, regime)
        slow = rk.oracle_resilient_states(model, 0, regime, force_object=True)
        assert fast.members == slow.members
        assert set(fast.witnesses) == set(slow.witnesses)
        for x0 in fast.witnesses:
            assert rk.strategies_equal(fast.witnesses[x0], slow.witnesses[x0])


def test_oracle_witness_is_first_passing_rank(m1):
    out = rk.oracle_resilient_states(m1, 0, rk.Viability(A))
    for x0, strat in out.witnesses.items():
        # nothing with a smaller rank may pass
        for rank, earlier in enumerate(rk.enumerate_strategies(m1, rk.MARKOV, 0)):
            if rk.strategies_equal(earlier, strat):
                break
            assert not rk.check_resilient(m1, earlier, x0, 0, rk.Viability(A))
        else:
            pytest.fail("witness not found in the enumeration")


def test_oracle_value_on_reservoir(m1):
    assert list(rk.oracle_value(m1, A)) == [0.0, 0.0, 1.0, 1.0]


def test_oracle_value_from_later_start(m1):
    assert list(rk.oracle_value(m1, A, start=2)) == [0.0, 0.0, 1.0, 1.0]


def test_oracle_recovery_on_reservoir(m1, m1_benign):
    offsets, ranks = rk.oracle_recovery_offsets(m1, A)
    assert list(offsets) == [math.inf, math.inf, 0.0, 0.0]
    # 546 and 34 set exactly the u = 1 bits at state 2 the scenarios visit
    assert list(ranks) == [-1, -1, 546, 34]
    offsets, ranks = rk.oracle_recovery_offsets(m1_benign, A)
    assert list(offsets) == [2.0, 1.0, 0.0, 0.0]
    assert list(ranks) == [2112, 1024, 0, 0]


def worst_offset(model, strat, x0):
    worst = -math.inf
    for scen in rk.enumerate_scenarios(model, robust_only=True):
        traj = rk.simulate_closed_loop(model, strat, x0, scen)
        tau = rk.recovery_time(model, traj, A)
        worst = max(worst, tau - traj.start if tau != math.inf else math.inf)
    return worst


def test_oracle_recovery_rank_decodes_to_first_attainer(m1_benign):
    offsets, ranks = rk.oracle_recovery_offsets(m1_benign, A)
    x0 = 1
    witness = rk.strategy_from_rank(m1_benign, int(ranks[x0]), rk.MARKOV, 0)
    assert worst_offset(m1_benign, witness, x0) == offsets[x0]
    for rank in range(int(ranks[x0])):
        earlier = rk.strategy_from_rank(m1_benign, rank, rk.MARKOV, 0)
        assert worst_offset(m1_benign, earlier, x0) > offsets[x0]


def test_oracle_min_risk_on_reservoir(m1):
    regime = rk.StochasticViability(A, 1.0)
    risk = rk.Composed(rk.ControlEffort(), rk.Expectation())
    value, strat, examined = rk.oracle_min_risk(m1, 2, 0, regime, risk)
    assert value == 2.0
    assert examined == 512
    assert rk.check_resilient(m1, strat, 2, 0, regime)
    bundle = rk.build_bundle(m1, strat, 2)
    assert rk.evaluate_risk(m1, risk, bundle) == 2.0


def test_oracle_min_risk_without_resilient_strategies(m1):
    value, strat, examined = rk.oracle_min_risk(
        m1, 0, 0, rk.Viability(A), rk.Composed(rk.ControlEffort(), rk.Expectation())
    )
    assert value == math.inf
    assert strat is None
    assert examined == 0


def test_oracle_min_risk_tie_breaks_on_rank(m1):
    # constant-zero risk: every resilient strategy ties, the least rank wins
    flat = rk.Composed(rk.TimeOutside({0, 1, 2, 3}), rk.Expectation())
    value, strat, _ = rk.oracle_min_risk(m1, 2, 0, rk.Viability(A), flat)
    assert value == 0.0
    first = rk.oracle_resilient_states(m1, 0, rk.Viability(A)).witnesses[2]
    assert rk.strategies_equal(strat, first)


def test_caps_are_hard_errors(m1):
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.oracle_resilient_states(m1, 0, rk.Viability(A), cap=100)
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.oracle_value(m1, A, cap=100)
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.oracle_recovery_offsets(m1, A, cap=100)
    with pytest.raises(rk.CapacityError, match="exceed cap"):
        rk.oracle_min_risk(
            m1, 2, 0, rk.Viability(A),
            rk.Composed(rk.ControlEffort(), rk.Expectation()), cap=100,
        )


def test_strategy_enumeration_matches_ranks(m1):
    assert rk.count_strategies(m1, rk.MARKOV, 0) == 2 ** 12
    enum = rk.enumerate_strategies(m1, rk.MARKOV, 0)
    for rank, strat in zip(range(20), enum):
        assert rk.strategies_equal(strat, rk.strategy_from_rank(m1, rank, rk.MARKOV, 0))


def test_oracle_agrees_with_kernel_on_random_models():
    rng = np.random.default_rng(909)
    for _ in range(10):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        acc = random_acceptable(rng, model)
        engine = rk.resilient_states(model, 0, rk.Viability(acc))
        oracle = rk.oracle_resilient_states(model, 0, rk.Viability(acc))
        assert engine.members == oracle.members
