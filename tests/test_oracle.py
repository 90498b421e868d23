"""Brute-force reference routines: the batched Markov scans must agree with
the definitional object-level path, and their outputs are frozen on the
reservoir model."""

import math
import subprocess
import sys

import numpy as np
import pytest

import resilkit as rk
from conftest import (
    M1_ACCEPTABLE,
    build_m1,
    bundle_member,
    cli_env,
    random_acceptable,
    random_model,
    random_strategy,
    random_variant,
)
from resilkit import oracle
from resilkit._sim import simulate_batch
from resilkit.model import _Scenarios, successor_planes
from resilkit.regimes import _membership
from resilkit.strategy import _bundle

A = M1_ACCEPTABLE


def zero_w_model(rng, **kw):
    """A random model with cemetery routes, robust subsets and declared
    probabilities, some of them zero."""
    model = random_model(
        rng, min_states=2, min_controls=2, max_controls=2, max_w=3,
        max_horizon=3, with_robust=True, cemetery_rate=0.2, **kw,
    )
    probs = []
    for t in range(model.horizon):
        weights = rng.integers(0, 3, size=model.uncertainty.size(t))
        if not weights.any():
            weights[int(rng.integers(weights.size))] = 1
        probs.append(tuple(weights / weights.sum()))
    u = model.uncertainty
    return rk.SystemModel(
        model.time, model.states, model.controls,
        rk.UncertaintyStructure(u.sets, tuple(probs), u.robust),
        model.dynamics, model.constraints,
    )


BETAS = (0.0, 0.25, 1 / 3, 0.5, 1.0)

PROBABILISTIC = (rk.StochasticViability, rk.ProbExcursion)


def has_probs(model):
    return model.uncertainty.has_probs or model.scenario_probs is not None


def batched_regimes(rng, model, start):
    """One regime of each kind oracle._batch_member decides; the
    probabilistic ones on models that declare probabilities."""
    K = model.horizon
    acc = random_acceptable(rng, model)
    region = random_acceptable(rng, model)
    out = [
        rk.Viability(acc),
        rk.RobustRecovery(acc, int(rng.integers(start, K + 1))),
        rk.Bounded(region),
        rk.AtMostKExits(region, int(rng.integers(0, 3))),
        rk.Stabilize(int(rng.integers(model.n_states)),
                     float(rng.integers(0, 3)), int(rng.integers(0, K + 2))),
        rk.ControlEvent(frozenset({int(rng.integers(model.n_controls))})),
    ]
    if has_probs(model):
        beta = BETAS[int(rng.integers(len(BETAS)))]
        out += [rk.StochasticViability(acc, beta), rk.ProbExcursion(region, beta)]
    return out


def test_oracle_imports_no_production_route():
    # the oracle judges the production scan, so it must not share the
    # monitor walk, the member blocks, the path-array predicates or the
    # pruning of unreachable slots, and it prices members through the
    # bundle evaluator; each name must still be a production helper, so
    # the guard cannot go stale
    production = {**vars(rk.engine), **vars(rk.strategy)}
    for name in (
        "_monitor", "_reachable_members", "_member_blocks", "rank_layout",
        "_evaluate_paths", "_monitor_paths", "_decide", "_walks",
        "_simulate", "_running_sum",
    ):
        assert name in production, name
        assert name not in vars(oracle), name
    assert oracle._evaluate is rk.risk._evaluate
    # the simulation kernel steps on the model's table, not an engine one
    assert oracle.successor_planes is rk.model.successor_planes


def test_oracle_viability_on_reservoir(m1):
    out = rk.oracle_resilient_states(m1, 0, rk.Viability(A))
    assert out.method == "oracle"
    assert out.members == {2, 3}
    for x0, strat in out.witnesses.items():
        assert bundle_member(m1, strat, x0, 0, rk.Viability(A))


def test_batched_scan_matches_object_scan():
    # each model, then a variant with its probabilities redrawn (per-time
    # with zero weights, none, or a joint distribution)
    rng = np.random.default_rng(606)
    joint = 0
    for _ in range(15):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        start = int(rng.integers(0, model.horizon + 1))
        for model in (model, random_variant(rng, model)):
            joint += model.scenario_probs is not None
            for regime in batched_regimes(rng, model, start):
                fast = rk.oracle_resilient_states(model, start, regime)
                slow = rk.oracle_resilient_states(
                    model, start, regime, force_object=True
                )
                assert fast.members == slow.members
                assert set(fast.witnesses) == set(slow.witnesses)
                for x0 in fast.witnesses:
                    assert rk.strategies_equal(
                        fast.witnesses[x0], slow.witnesses[x0]
                    )
    assert joint


def test_batched_membership_matches_bundle_membership():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon))
        regimes = batched_regimes(rng, model, start)
        total = rk.count_strategies(model, rk.MARKOV, start)
        strategies = [
            rk.strategy_from_rank(model, r, rk.MARKOV, start)
            for r in range(total)
        ]
        planes = successor_planes(model)
        for robust_only in (False, True):
            scenarios = _Scenarios(
                model, rk.enumerate_scenarios(model, robust_only=robust_only),
                robust_only,
            )
            scen = scenarios.table
            pol = np.concatenate([
                p for _, p in
                oracle._policy_batches(model, start, total, len(scen))
            ])
            for x0 in range(model.n_states):
                states, controls = simulate_batch(planes, pol, scen, x0, start)
                bundles = [
                    _bundle(model, s, x0, start, scenarios) for s in strategies
                ]
                for regime in regimes:
                    if robust_only and isinstance(regime, PROBABILISTIC):
                        continue  # weights need the full scenario domain
                    member = oracle._batch_member(
                        model, regime, scenarios, start
                    )(states, controls)
                    assert member.tolist() == [
                        _membership(model, regime, b, scenarios)
                        for b in bundles
                    ], (regime, x0, robust_only)


def definitional_min_risk(model, x0, start, regime, risk):
    """oracle_min_risk from the public API, one strategy at a time."""
    best, best_strategy, examined = math.inf, None, 0
    for strat in rk.enumerate_strategies(model, rk.MARKOV, start):
        if not bundle_member(model, strat, x0, start, regime):
            continue
        examined += 1
        bundle = rk.build_bundle(model, strat, x0, start)
        value = rk.evaluate_risk(model, risk, bundle)
        if best_strategy is None or value < best:
            best, best_strategy = value, strat
    return best, best_strategy, examined


def test_oracle_min_risk_matches_definitional_loop():
    rng = np.random.default_rng(4242)
    for _ in range(30):
        model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon))
        acc = random_acceptable(rng, model)
        risks = [
            rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5)),
            rk.Composed(rk.RecoveryOffset(acc), rk.WorstCase()),
            rk.Exceedance(acc),
        ]
        for regime in batched_regimes(rng, model, start):
            for x0 in range(model.n_states):
                risk = risks[int(rng.integers(len(risks)))]
                got = rk.oracle_min_risk(model, x0, start, regime, risk)
                want = definitional_min_risk(model, x0, start, regime, risk)
                assert float(got[0]).hex() == float(want[0]).hex()
                assert got[2] == want[2]
                assert (got[1] is None) == (want[1] is None)
                if got[1] is not None:
                    assert rk.strategies_equal(got[1], want[1])


def counted_weights(model, regime, bundle):
    """The weights the object path adds for a probabilistic regime, in its
    order: each viable trajectory's (StochasticViability), each one that
    ever leaves the region's (ProbExcursion)."""
    if isinstance(regime, rk.StochasticViability):
        counted = [rk.recovery_time(model, tr, regime.acceptable) == tr.start
                   for tr in bundle]
    else:
        counted = [bool(rk.exit_times(model, tr, regime.region))
                   for tr in bundle]
    return [rk.scenario_weight(model, tr.scenario)
            for tr, hit in zip(bundle, counted) if hit]


def test_probabilistic_regimes_add_weights_in_scenario_order():
    # beta at a strategy's exact float sum and at both float neighbours: the
    # batched route must add the weights as the bundle loop does, from 0.0
    # one scenario at a time, for all three to be decided alike
    rng = np.random.default_rng(8282)
    seen = {(kind.__name__, size): 0 for kind in PROBABILISTIC
            for size in ("empty", "partial", "full")}
    seen["reordered"] = 0  # sums that another order of addition changes
    seen["joint"] = seen["zero_w"] = 0
    for _ in range(50):
        model = random_variant(rng, random_model(
            rng, max_states=3, min_controls=2, max_controls=2, max_w=3,
            max_horizon=3, cemetery_rate=0.2,
        ))
        if not has_probs(model):
            continue
        start = int(rng.integers(0, model.horizon))
        x0 = int(rng.integers(model.n_states))
        bundle = rk.build_bundle(model, random_strategy(rng, model, start=start),
                                 x0, start)
        weights = rk.scenario_weights(model, bundle.scenarios)
        seen["joint"] += model.scenario_probs is not None
        seen["zero_w"] += bool((weights == 0.0).any())
        acc = random_acceptable(rng, model)
        risk = rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5))
        for kind in PROBABILISTIC:
            terms = counted_weights(model, kind(acc, 0.0), bundle)
            p = 0.0
            for w in terms:
                p += w
            seen["reordered"] += p != sum(reversed(terms))
            for beta in {p, np.nextafter(p, -1.0), np.nextafter(p, 2.0)}:
                if not 0.0 <= beta <= 1.0:
                    continue
                regime = kind(acc, float(beta))
                fast = rk.oracle_resilient_states(model, start, regime)
                slow = rk.oracle_resilient_states(model, start, regime,
                                                  force_object=True)
                assert fast.members == slow.members, (regime, p)
                for x in slow.witnesses:
                    assert rk.strategies_equal(fast.witnesses[x],
                                               slow.witnesses[x])
                got = rk.oracle_min_risk(model, x0, start, regime, risk)
                want = definitional_min_risk(model, x0, start, regime, risk)
                assert float(got[0]).hex() == float(want[0]).hex()
                assert got[2] == want[2]
                assert (got[1] is None) == (want[1] is None)
                if got[1] is not None:
                    assert rk.strategies_equal(got[1], want[1])
                size = len(slow.members)
                seen[kind.__name__, "empty" if not size else "full"
                     if size == model.n_states else "partial"] += 1
    assert min(seen.values()) >= 3, seen


def test_single_precision_beta_is_compared_as_its_float():
    # p = 0.1 sits just under float32(0.1): every route compares with the
    # float the number rule reads, never in the beta's own precision
    model = rk.make_model(
        horizon=1, state_labels=("0", "1"), control_labels=("0", "1"),
        uncertainty_sets=("0", "1"), dynamics_fn=lambda t, x, u, w: w,
        probs=(0.1, 0.9),
    )
    for regime, twin in (
        (rk.StochasticViability({0}, np.float32(0.1)),
         rk.StochasticViability({0}, float(np.float32(0.1)))),
        (rk.ProbExcursion({0}, np.float32(0.9)),
         rk.ProbExcursion({0}, float(np.float32(0.9)))),
    ):
        want = rk.resilient_states(model, 0, twin).members
        assert want == rk.resilient_states(model, 0, regime).members
        assert want != rk.resilient_states(
            model, 0, type(twin)({0}, 0.1 if twin.beta < 0.5 else 0.9)
        ).members
        for force_object in (False, True):
            assert rk.oracle_resilient_states(
                model, 0, regime, force_object=force_object
            ).members == want


def test_batched_min_risk_prices_members_from_their_rows(monkeypatch):
    # members are priced on bundles built from their simulated rows: no
    # _bundle call, and a strategy is built for the winner only
    calls = {"bundle": 0, "strategy": 0}
    bundle, build = oracle._bundle, oracle._markov_from_table

    def no_bundle(*args, **kwargs):
        calls["bundle"] += 1
        return bundle(*args, **kwargs)

    def counting(*args, **kwargs):
        calls["strategy"] += 1
        return build(*args, **kwargs)

    rng = np.random.default_rng(1414)
    seen = {"members": 0, "robust_rr": 0}
    for _ in range(15):
        model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon))
        acc = random_acceptable(rng, model)
        risk = rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5))
        robust = len(rk.enumerate_scenarios(model, robust_only=True))
        for regime in batched_regimes(rng, model, start):
            for x0 in range(model.n_states):
                want = definitional_min_risk(model, x0, start, regime, risk)
                calls.update(bundle=0, strategy=0)
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_bundle", no_bundle)
                    m.setattr(oracle, "_markov_from_table", counting)
                    got = rk.oracle_min_risk(model, x0, start, regime, risk)
                assert calls["bundle"] == 0
                assert calls["strategy"] == (got[1] is not None)
                assert float(got[0]).hex() == float(want[0]).hex()
                assert got[2] == want[2]
                assert (got[1] is None) == (want[1] is None)
                if got[1] is not None:
                    assert rk.strategies_equal(got[1], want[1])
                seen["members"] += got[2] > 1
                seen["robust_rr"] += (
                    isinstance(regime, rk.RobustRecovery) and got[2] > 0
                    and robust < len(rk.enumerate_scenarios(model))
                )
    assert all(seen.values()), seen



def bundle_rows(bundle):
    return tuple((tr.states, tr.controls) for tr in bundle.trajectories)


def expected_pricings(model, x0, start, regime):
    """The oracle._evaluate calls a batched oracle_min_risk makes: per block
    of ranks (per re-simulated group of its members, when RobustRecovery is
    decided on fewer robust scenarios), one per distinct member bundle."""
    total = rk.count_strategies(model, rk.MARKOV, start)
    robust_only = isinstance(regime, rk.RobustRecovery)
    steps = model.horizon - start + 1
    block = max(1, oracle._CELLS // (rk.count_scenarios(model, robust_only)
                                     * steps))
    group = block
    if robust_only:
        group = max(1, oracle._CELLS // (rk.count_scenarios(model) * steps))
    priced = 0
    for a in range(0, total, block):
        members = []
        for rank in range(a, min(total, a + block)):
            strat = rk.strategy_from_rank(model, rank, rk.MARKOV, start)
            if bundle_member(model, strat, x0, start, regime):
                members.append(bundle_rows(
                    rk.build_bundle(model, strat, x0, start)
                ))
        for g in range(0, len(members), group):
            priced += len(set(members[g : g + group]))
    return priced


def test_batched_min_risk_prices_each_distinct_bundle_once_per_block(
    monkeypatch,
):
    # a member's bundle depends on its simulated rows alone, so a block
    # prices each distinct row set once, the first time it is met in rank
    # order; the memo does not outlive its block
    events = []
    evaluate = oracle._evaluate

    def counting(model, risk, bundle, scenarios):
        events.append(bundle_rows(bundle))
        return evaluate(model, risk, bundle, scenarios)

    def blocks_priced_once():
        # every simulate_batch call opens a block (or a RobustRecovery
        # group); no bundle may be priced twice within one
        seen = set()
        for event in events:
            if event is None:
                seen = set()
                continue
            assert event not in seen
            seen.add(event)

    simulate = oracle.simulate_batch

    def marking(*args):
        events.append(None)
        return simulate(*args)

    rng = np.random.default_rng(7171)
    seen = {"deduped": 0, "straddled": 0, "robust_rr": 0, "raised": 0}
    for case in range(16):
        if case % 4 == 3:  # no probabilities: weighted risks must raise
            model = random_model(rng, max_states=3, min_controls=2,
                                 max_controls=2, max_w=3, max_horizon=3,
                                 with_robust=True, cemetery_rate=0.2)
        else:
            model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon))
        acc = random_acceptable(rng, model)
        risk = [
            rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5)),
            rk.Composed(rk.RecoveryOffset(acc), rk.WorstCase()),
            rk.Exceedance(acc),
        ][case % 3]
        steps = model.horizon - start + 1
        robust = rk.count_scenarios(model, robust_only=True)
        for regime in batched_regimes(rng, model, start):
            scan = rk.count_scenarios(
                model, isinstance(regime, rk.RobustRecovery)
            )
            for x0 in range(model.n_states):
                try:
                    want = definitional_min_risk(model, x0, start, regime, risk)
                except rk.ConfigurationError as err:
                    with pytest.raises(type(err)) as got:
                        rk.oracle_min_risk(model, x0, start, regime, risk)
                    assert str(got.value) == str(err)
                    seen["raised"] += 1
                    continue
                priced = []
                for cells in (oracle._CELLS, 3 * scan * steps):
                    events.clear()
                    with monkeypatch.context() as m:
                        m.setattr(oracle, "_CELLS", cells)
                        m.setattr(oracle, "_evaluate", counting)
                        m.setattr(oracle, "simulate_batch", marking)
                        got = rk.oracle_min_risk(model, x0, start, regime,
                                                 risk)
                        want_priced = expected_pricings(model, x0, start,
                                                        regime)
                    blocks_priced_once()
                    priced.append(sum(e is not None for e in events))
                    assert priced[-1] == want_priced, (cells, regime)
                    assert float(got[0]).hex() == float(want[0]).hex()
                    assert got[2] == want[2]
                    assert (got[1] is None) == (want[1] is None)
                    if got[1] is not None:
                        assert rk.strategies_equal(got[1], want[1])
                seen["deduped"] += priced[0] < want[2]
                seen["straddled"] += priced[0] < priced[1]
                seen["robust_rr"] += (
                    isinstance(regime, rk.RobustRecovery) and want[2] > 0
                    and robust < rk.count_scenarios(model)
                )
    assert all(seen.values()), seen


def test_recovery_offsets_match_recovery_time():
    # the backward fold of the per-step masks gives, per trajectory, the
    # offset of rk.recovery_time, inf when the trajectory never recovers
    rng = np.random.default_rng(5151)
    seen = {"no_steps": 0, "cemetery": 0, "never": 0, "late": 0}
    for _ in range(30):
        model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon + 1))  # start = K: L = 0
        acc = random_acceptable(rng, model)
        total = rk.count_strategies(model, rk.MARKOV, start)
        if total > 64:
            continue
        full = _Scenarios(model)
        scenarios, scen = full.scenarios, full.table
        planes = successor_planes(model)
        good = oracle._good_table(model, acc)
        pol = np.concatenate([
            p for _, p in oracle._policy_batches(model, start, total, len(scen))
        ])
        for x0 in range(model.n_states):
            states, controls = simulate_batch(planes, pol, scen, x0, start)
            offsets = oracle._recovery_offsets(model, good, states, controls)
            assert offsets.shape == (total, len(scenarios))
            for s in range(total):
                for m, w in enumerate(scenarios):
                    traj = rk.Trajectory(
                        start, tuple(states[s, m].tolist()),
                        tuple(controls[s, m].tolist()), w,
                    )
                    tau = rk.recovery_time(model, traj, acc)
                    assert start + offsets[s, m] == tau, (s, m, start)
                    seen["no_steps"] += start == model.horizon
                    seen["cemetery"] += model.cemetery in traj.states
                    seen["never"] += tau == math.inf
                    seen["late"] += start < tau < math.inf
    assert all(seen.values()), seen

def multi_block_models(rng, count):
    """(model, start) pairs whose Markov class from start has 8..64
    strategies, so a block of at most 3 ranks splits it at least 3 ways;
    start > 0 on some of them."""
    out = []
    while len(out) < count:
        model = zero_w_model(rng, max_states=3)
        start = int(rng.integers(0, model.horizon))
        if 8 <= rk.count_strategies(model, rk.MARKOV, start) <= 64:
            out.append((model, start))
    assert any(start > 0 for _, start in out)
    return out


def oracle_answers(model, start, regimes, acc, risk):
    """Everything the four oracle routines return, in comparable form."""
    out = []
    for regime in regimes:
        res = rk.oracle_resilient_states(model, start, regime)
        out.append((sorted(res.members), list(res.witnesses),
                    [res.witnesses[x] for x in sorted(res.witnesses)]))
        for x0 in range(model.n_states):
            value, strat, examined = rk.oracle_min_risk(
                model, x0, start, regime, risk
            )
            out.append((float(value).hex(), examined, strat))
    out.append([float(v).hex() for v in rk.oracle_value(model, acc, start)])
    offsets, ranks = rk.oracle_recovery_offsets(model, acc, start)
    out.append(([float(v).hex() for v in offsets], ranks.tolist()))
    return out


def same_answers(a, b):
    if isinstance(a, rk.Strategy) or isinstance(b, rk.Strategy):
        return (a is None) == (b is None) and (
            a is None or rk.strategies_equal(a, b)
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_answers, a, b))
    return a == b


def last_rank_value(model, acc, start, total):
    """Per-state probability of staying viable in acc under the last
    Markov strategy of the class alone."""
    planes = successor_planes(model)
    scenarios = _Scenarios(model)
    scen = scenarios.table
    *_, (_, pol) = oracle._policy_batches(model, start, total, len(scen))
    weights = rk.scenario_weights(model, scenarios.scenarios)
    return [
        float(oracle._viable_mask(
            model, oracle._good_table(model, acc),
            *simulate_batch(planes, pol[-1:], scen, x0, start),
        )[0].astype(np.float64) @ weights)
        for x0 in range(model.n_states)
    ]


def test_multi_block_scans_match_one_block(monkeypatch):
    # every class below splits into at least 3 blocks; least rank must win
    # across blocks exactly as within one
    rng = np.random.default_rng(3131)
    earlier_best = 0  # models whose best value is not the last rank's
    for model, start in multi_block_models(rng, 12):
        acc = random_acceptable(rng, model)
        total = rk.count_strategies(model, rk.MARKOV, start)
        earlier_best += (
            rk.oracle_value(model, acc, start).tolist()
            != last_rank_value(model, acc, start, total)
        )
        risk = rk.Composed(rk.TimeOutside(acc), rk.CVaR(0.5))
        regimes = batched_regimes(rng, model, start)
        want = oracle_answers(model, start, regimes, acc, risk)
        robust = len(rk.enumerate_scenarios(model, robust_only=True))
        steps = model.horizon - start + 1
        for cells in (1, 3 * robust * steps):
            with monkeypatch.context() as m:
                m.setattr(oracle, "_CELLS", cells)
                blocks = oracle._policy_batches(model, start, total, robust)
                assert len(list(blocks)) >= 3
                got = oracle_answers(model, start, regimes, acc, risk)
            assert same_answers(got, want), (cells, start)
    assert earlier_best


def test_policy_batches_decode_ranks_like_strategy_from_rank(monkeypatch):
    # the place-value decoding of a block against strategy_from_rank, from
    # every start (start = K has no slots), in one block and in blocks
    # split by _CELLS
    rng = np.random.default_rng(5150)
    split = 0
    for _ in range(25):
        model = random_model(rng, max_states=3, max_controls=3, max_horizon=3)
        K, n = model.horizon, model.n_states
        for start in range(K + 1):
            total = rk.count_strategies(model, rk.MARKOV, start)
            M, steps = int(rng.integers(1, 5)), K - start + 1
            for cells in (oracle._CELLS, int(rng.integers(1, 4)) * M * steps):
                with monkeypatch.context() as m:
                    m.setattr(oracle, "_CELLS", cells)
                    blocks = list(
                        oracle._policy_batches(model, start, total, M)
                    )
                sizes = [len(p) for _, p in blocks]
                assert [a for a, _ in blocks] == np.cumsum(
                    [0] + sizes[:-1]).tolist()
                assert max(sizes) == max(1, cells // (M * steps)) or (
                    len(blocks) == 1 and sizes[0] == total)
                split += len(blocks) > 1
                pol = np.concatenate([p for _, p in blocks])
                assert pol.dtype == np.int32 and pol.shape == (total, K, n + 1)
                ranks = {0, total - 1, *rng.integers(total, size=16).tolist()}
                for r in ranks:
                    strat = rk.strategy_from_rank(model, r, rk.MARKOV, start)
                    want = rk.markov_policy_array(model, strat)
                    assert np.array_equal(pol[r], want), (r, start)
    assert split


def test_oracle_witness_is_first_passing_rank(m1):
    out = rk.oracle_resilient_states(m1, 0, rk.Viability(A))
    for x0, strat in out.witnesses.items():
        # nothing with a smaller rank may pass
        for rank, earlier in enumerate(rk.enumerate_strategies(m1, rk.MARKOV, 0)):
            if rk.strategies_equal(earlier, strat):
                break
            assert not bundle_member(m1, earlier, x0, 0, rk.Viability(A))
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
    assert bundle_member(m1, strat, 2, 0, regime)
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


def test_oracle_value_memory_is_bounded_by_the_block_size():
    # 4,096 strategies x 729 scenarios x 7 steps: one block of the whole
    # class would hold about 400 MB of trajectory arrays
    script = """
import resource
import resilkit as rk
model = rk.make_model(
    horizon=6, state_labels=("0", "1"), control_labels=("0", "1"),
    uncertainty_sets=("0", "1", "2"),
    dynamics_fn=lambda t, x, u, w: (x + u + w) % 2, probs=(0.25, 0.25, 0.5),
)
assert rk.count_strategies(model) == 4096
value = rk.oracle_value(model, {1})
assert value[0] == 0.0 and value[1] > 0.0, value
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=cli_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB
    assert peak_mb < 100, peak_mb


def test_oracle_agrees_with_kernel_on_random_models():
    rng = np.random.default_rng(909)
    for _ in range(10):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        acc = random_acceptable(rng, model)
        engine = rk.resilient_states(model, 0, rk.Viability(acc))
        oracle = rk.oracle_resilient_states(model, 0, rk.Viability(acc))
        assert engine.members == oracle.members
