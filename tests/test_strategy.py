import numpy as np
import pytest

import resilkit as rk

from conftest import (
    build_m1,
    padded_twin,
    random_model,
    random_strategy,
)


def keep_high(model):
    """u = 1 at state 2, else 0, at every time."""
    tables = np.zeros((3, 4), dtype=int)
    tables[:, 2] = 1
    return rk.markov_strategy(model, tables)


def test_prefix_counts(m1):
    assert rk.n_prefixes(m1, 0, 0) == 1
    assert rk.n_prefixes(m1, 1, 0) == 2
    assert rk.n_prefixes(m1, 2, 0) == 4
    assert rk.n_prefixes(m1, 2, 1) == 2


def test_prefix_rank_lexicographic(m1):
    # first scenario entry is the most significant digit
    assert rk.prefix_rank(m1, 2, (0, 0, 0)) == 0
    assert rk.prefix_rank(m1, 2, (0, 1, 0)) == 1
    assert rk.prefix_rank(m1, 2, (1, 0, 0)) == 2
    assert rk.prefix_rank(m1, 2, (1, 1, 0)) == 3
    assert rk.prefix_rank(m1, 2, (1, 1, 0), 1) == 1


def test_markov_strategy_shapes(m1):
    s = keep_high(m1)
    rk.validate_strategy(m1, s)
    assert s.kind == rk.MARKOV
    assert s.start == 0
    assert s.policy(2).t == 2
    with pytest.raises(rk.InputError):
        s.policy(3)


def test_strategies_copy_the_callers_arrays(m1):
    tables = np.zeros((3, 4), dtype=np.int32)
    s = rk.markov_strategy(m1, tables)
    tables[0, 1] = 1
    assert s.policies[0].table.tolist() == [0, 0, 0, 0]
    arr = np.zeros(4, dtype=np.int32)
    pol = rk.Policy(0, rk.MARKOV, arr)
    assert arr.flags.writeable and not pol.table.flags.writeable
    arr[2] = 1
    assert pol.table.tolist() == [0, 0, 0, 0]
    # the unchecked constructors keep their private arrays: one read-only
    # copy of the whole table, whose rows the policies hold
    s = rk.strategy._markov_from_table(tables, 0)
    bases = {id(p.table.base) for p in s.policies}
    assert len(bases) == 1 and not s.policies[0].table.base.flags.writeable


def test_validate_strategy_rejects_bad_shapes(m1):
    bad = rk.Strategy(
        0,
        (
            rk.Policy(0, rk.MARKOV, np.zeros(3, dtype=int)),
            rk.Policy(1, rk.MARKOV, np.zeros(4, dtype=int)),
            rk.Policy(2, rk.MARKOV, np.zeros(4, dtype=int)),
        ),
    )
    with pytest.raises(rk.InputError):
        rk.validate_strategy(m1, bad)


def test_strategy_coverage_required(m1):
    # construction allows partial coverage; validation pins it to the model
    partial = rk.Strategy(0, (rk.Policy(0, rk.MARKOV, np.zeros(4, dtype=int)),))
    with pytest.raises(rk.InputError, match="covers"):
        rk.validate_strategy(m1, partial)
    with pytest.raises(rk.InputError):
        rk.Strategy(
            1,
            (
                rk.Policy(2, rk.MARKOV, np.zeros(4, dtype=int)),
                rk.Policy(1, rk.MARKOV, np.zeros(4, dtype=int)),
            ),
        )


def test_closed_loop_markov(m1):
    s = keep_high(m1)
    traj = rk.simulate_closed_loop(m1, s, 2, (0, 0, 0))
    assert traj.states == (2, 3, 3, 3)
    assert traj.controls == (1, 0, 0)
    traj = rk.simulate_closed_loop(m1, s, 2, (1, 1, 1))
    assert traj.states == (2, 2, 2, 2)
    assert traj.controls == (1, 1, 1)
    assert traj.state(0) == 2
    assert traj.control(2) == 1


def test_closed_loop_inadmissible_goes_dead():
    model = rk.make_model(
        horizon=2,
        state_labels=("0", "1"),
        control_labels=("0", "1"),
        uncertainty_sets=("0",),
        dynamics_fn=lambda t, x, u, w: x,
        constraints_fn=lambda t, x: (0,) if x == 1 else (0, 1),
    )
    s = rk.constant_strategy(model, 1)
    traj = rk.simulate_closed_loop(model, s, 1, (0, 0))
    assert traj.states == (1, model.cemetery, model.cemetery)
    assert not rk.is_admissible(model, s)


def test_closed_loop_adapted_reacts_to_history(m1):
    # at t=1 play 1 iff w_0 was 1; then 0
    pol0 = rk.Policy(0, rk.ADAPTED, np.zeros((4, 1), dtype=int))
    table1 = np.zeros((4, 2), dtype=int)
    table1[:, 1] = 1
    pol1 = rk.Policy(1, rk.ADAPTED, table1)
    pol2 = rk.Policy(2, rk.ADAPTED, np.zeros((4, 4), dtype=int))
    s = rk.Strategy(0, (pol0, pol1, pol2))
    rk.validate_strategy(m1, s)
    assert s.kind == rk.ADAPTED
    a = rk.simulate_closed_loop(m1, s, 3, (0, 0, 0))
    b = rk.simulate_closed_loop(m1, s, 3, (1, 0, 0))
    assert a.controls == (0, 0, 0)
    assert b.controls == (0, 1, 0)
    assert a.states == (3, 3, 3, 3)
    assert b.states == (3, 2, 3, 3)


def test_closed_loop_start_time(m1):
    s = keep_high(m1)
    traj = rk.simulate_closed_loop(m1, s, 2, (0, 0, 0), start=1)
    assert traj.start == 1
    assert traj.states == (2, 3, 3)
    with pytest.raises(rk.InputError):
        traj.state(0)
    # strategies may also start late; simulation from before their start fails
    tail = rk.Strategy(
        1,
        (
            rk.Policy(1, rk.MARKOV, np.zeros(4, dtype=int)),
            rk.Policy(2, rk.MARKOV, np.zeros(4, dtype=int)),
        ),
    )
    assert rk.simulate_closed_loop(m1, tail, 2, (0, 0, 0), start=1).states == (2, 2, 2)
    with pytest.raises(rk.InputError):
        rk.simulate_closed_loop(m1, tail, 2, (0, 0, 0), start=0)


def test_bundle_matches_enumeration_order(m1):
    s = keep_high(m1)
    bundle = rk.build_bundle(m1, s, 2)
    assert bundle.x0 == 2
    assert not bundle.robust
    assert len(bundle) == 8
    assert [t.scenario for t in bundle] == rk.enumerate_scenarios(m1)
    for traj in bundle:
        ref = rk.simulate_closed_loop(m1, s, 2, traj.scenario)
        assert ref.states == traj.states
        assert ref.controls == traj.controls
    assert bundle.trajectory_for((0, 0, 0)).states == (2, 3, 3, 3)


def test_bundle_robust_only():
    model = build_m1(robust=("0",))
    s = keep_high(model)
    bundle = rk.build_bundle(model, s, 2, robust_only=True)
    assert bundle.robust
    assert len(bundle) == 1
    assert bundle.trajectories[0].scenario == (0, 0, 0)


def test_bundle_validates_the_strategy_once(m1, monkeypatch):
    calls = []
    check = rk.strategy.validate_strategy

    def counting(model, strategy):
        calls.append(strategy)
        return check(model, strategy)

    monkeypatch.setattr(rk.strategy, "validate_strategy", counting)
    s = keep_high(m1)
    calls.clear()
    bundle = rk.build_bundle(m1, s, 2)
    assert len(bundle) == 8
    assert calls == [s]

    tables = np.zeros((3, 4), dtype=int)
    tables[1, 3] = 2  # m1 has controls 0 and 1 only
    bad = rk.Strategy(0, tuple(
        rk.Policy(t, rk.MARKOV, tables[t]) for t in range(3)
    ))
    with pytest.raises(rk.InputError, match="unknown control"):
        rk.build_bundle(m1, bad, 2)
    with pytest.raises(rk.InputError, match="x0"):
        rk.build_bundle(m1, s, 4)
    with pytest.raises(rk.InputError, match="cannot simulate from 0"):
        rk.build_bundle(m1, rk.Strategy(1, s.policies[1:]), 2, start=0)


def _public_run(model, strategy, x0, scenario, start):
    """States and controls from the public policy_control and step alone."""
    states, controls = [x0], []
    for t in range(start, model.horizon):
        u = rk.strategy.policy_control(model, strategy, t, states[-1],
                                       scenario)
        controls.append(u)
        states.append(rk.step(model, t, states[-1], u, scenario[t]))
    return tuple(states), tuple(controls)


def test_bundle_matches_public_step_and_policy_control():
    rng = np.random.default_rng(20261018)
    seen = dict.fromkeys(
        ("markov", "adapted", "later start", "inadmissible", "padding",
         "cemetery"), 0)
    for _ in range(120):
        model = random_model(rng, max_states=4, max_controls=3, max_w=3,
                             max_horizon=4, with_robust=True,
                             cemetery_rate=0.15)
        twin = padded_twin(rng, model)
        if twin is not None:
            model = twin
            seen["padding"] += 1
        base = int(rng.integers(0, model.horizon))
        # mixed policy kinds: adapted ones read the prefix from `base`
        policies = []
        for t in range(base, model.horizon):
            if rng.random() < 0.5:
                shape = (model.n_states, rk.n_prefixes(model, t, base))
                policies.append(rk.Policy(
                    t, rk.ADAPTED, rng.integers(0, model.n_controls, shape)))
            else:
                policies.append(rk.Policy(t, rk.MARKOV, rng.integers(
                    0, model.n_controls, model.n_states)))
        strategy = rk.Strategy(base, tuple(policies))
        seen[strategy.kind] += 1
        start = int(rng.integers(base, model.horizon + 1))
        seen["later start"] += start > base
        x0 = int(rng.integers(model.n_states))
        robust_only = bool(rng.random() < 0.3)
        bundle = rk.build_bundle(model, strategy, x0, start=start,
                                 robust_only=robust_only)
        assert bundle.scenarios == tuple(
            rk.enumerate_scenarios(model, robust_only=robust_only))
        for scen, traj in zip(bundle.scenarios, bundle.trajectories):
            states, controls = _public_run(model, strategy, x0, scen, start)
            assert (traj.start, traj.scenario) == (start, scen)
            assert traj.states == states
            assert traj.controls == controls
            one = rk.simulate_closed_loop(model, strategy, x0, scen, start)
            assert (one.states, one.controls) == (states, controls)
            seen["cemetery"] += model.cemetery in states
            seen["inadmissible"] += any(
                x != model.cemetery and not model.constraints[t, x, u]
                for t, x, u in zip(range(start, model.horizon), states,
                                   controls)
            )
    assert min(seen.values()) >= 10, seen


def test_strategy_counting(m1):
    assert rk.count_strategies(m1, rk.MARKOV, 0) == 2 ** 12
    assert rk.count_strategies(m1, rk.ADAPTED, 0) == 2 ** (4 * (1 + 2 + 4))
    assert rk.count_strategies(m1, rk.MARKOV, 2) == 2 ** 4
    with pytest.raises(rk.CapacityError):
        rk.enumerate_strategies(m1, rk.ADAPTED, 0, cap=100)


def test_strategy_rank_bijection():
    rng = np.random.default_rng(20240812)
    for _ in range(25):
        model = random_model(rng, max_states=3, max_controls=2, max_horizon=2)
        for kind in (rk.MARKOV, rk.ADAPTED):
            total = rk.count_strategies(model, kind, 0)
            if total > 4096:
                continue
            listed = list(rk.enumerate_strategies(model, kind, 0, cap=4096))
            assert len(listed) == total
            for rank in range(total):
                s = rk.strategy_from_rank(model, rank, kind)
                assert rk.strategies_equal(s, listed[rank])


def test_strategy_rank_order_first_slot_most_significant(m1):
    s0 = rk.strategy_from_rank(m1, 0)
    assert all((p.table == 0).all() for p in s0.policies)
    s_last = rk.strategy_from_rank(m1, 2 ** 12 - 1)
    assert all((p.table == 1).all() for p in s_last.policies)
    # rank 1 flips only the last slot (state 3 at time 2)
    s1 = rk.strategy_from_rank(m1, 1)
    assert s1.policies[2].table[3] == 1
    assert s1.policies[2].table[:3].sum() == 0
    assert all((p.table == 0).all() for p in s1.policies[:2])


def test_strategy_text_round_trip(m1):
    rng = np.random.default_rng(20240813)
    for _ in range(20):
        model = random_model(rng, max_states=3, max_horizon=2)
        kind = rk.MARKOV if rng.integers(2) else rk.ADAPTED
        start = int(rng.integers(model.horizon))
        s = random_strategy(rng, model, kind=kind, start=start)
        text = rk.strategy_to_text(model, s)
        back = rk.strategy_from_text(model, text)
        assert rk.strategies_equal(s, back)
        assert rk.strategy_to_text(model, back) == text


def test_strategy_text_errors(m1):
    with pytest.raises(rk.ModelFormatError, match="line"):
        rk.strategy_from_text(m1, "start = 0\n[policy 0]\nkind = markov\nbogus\n")
    text = rk.strategy_to_text(m1, keep_high(m1))
    with pytest.raises(rk.ModelFormatError):
        rk.strategy_from_text(m1, text.replace("2 -> 1", "2 -> 9"))
    with pytest.raises(rk.ModelFormatError):
        rk.strategy_from_text(m1, text + "\n[policy 2]\nkind = markov\n")


def _section(t, kind, prefix=""):
    """keep_high's [policy t] section, each row with the given prefix."""
    rows = "".join(f"{x}{prefix} -> {u}\n" for x, u in enumerate((0, 0, 1, 0)))
    return f"[policy {t}]\nkind = {kind}\n{rows}"


@pytest.mark.parametrize("old, new, message, line", [
    ("[policy 1]", "[policy 0]", "policy 1 is for time 0, expected 1", 8),
    ("[policy 0]", "[policy -1]", "policy 0 is for time -1, expected 0", 2),
    ("start = 0", "start = 9", "policy 0 is for time 0, expected 9", 1),
    # a section outside start..K-1 fails alike for both kinds, though an
    # adapted one has no prefixes to rank its rows by
    (None, _section(5, rk.MARKOV), "policy 0 is for time 5, expected 0", 1),
    (None, _section(5, rk.ADAPTED, " (0 0 0 0 0)"),
     "policy 0 is for time 5, expected 0", 1),
    (None, "start = 2\n" + _section(0, rk.MARKOV),
     "policy 0 is for time 0, expected 2", 2),
    (None, "start = 2\n" + _section(0, rk.ADAPTED, " ()"),
     "policy 0 is for time 0, expected 2", 2),
])
def test_strategy_section_layout_errors_cite_their_line(m1, old, new,
                                                        message, line):
    # old None: new is the whole text; else an edit of keep_high's text
    text = new
    if old is not None:
        text = rk.strategy_to_text(m1, keep_high(m1)).replace(old, new)
    with pytest.raises(rk.ModelFormatError) as err:
        rk.strategy_from_text(m1, text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_policy_control_at_cemetery(m1):
    s = keep_high(m1)
    from resilkit.strategy import policy_control

    assert policy_control(m1, s, 0, m1.cemetery, ()) == 0


def _reachable_slot_positions(model, x0, kind, start):
    """(slot count, positions of the slots some admissible path from x0
    reaches), by depth-first search over controls and full-domain w."""
    K, n = model.horizon, model.n_states
    seen = set()

    def visit(t, x, prefix):
        if t == K or x == model.cemetery:
            return
        seen.add((t, x, prefix if kind == rk.ADAPTED else 0))
        size = model.uncertainty.size(t)
        for u in rk.admissible_controls(model, t, x):
            for w in range(size):
                visit(t + 1, int(model.dynamics[t, x, u, w]), prefix * size + w)

    visit(start, x0, 0)
    positions = []
    pos = 0
    for t in range(start, K):
        width = rk.n_prefixes(model, t, start) if kind == rk.ADAPTED else 1
        for x in range(n):
            for p in range(width):
                if (t, x, p) in seen:
                    positions.append(pos)
                pos += 1
    return pos, positions


def test_rank_layout_marks_exactly_the_reachable_slots():
    rng = np.random.default_rng(1717)
    for i in range(120):
        kind = (rk.MARKOV, rk.ADAPTED)[i % 2]
        model = random_model(
            rng, max_states=4, max_controls=3, max_w=3, max_horizon=4,
            cemetery_rate=0.25,
        )
        start = int(rng.integers(model.horizon + 1))
        x0 = int(rng.integers(model.n_states))
        slots, positions = _reachable_slot_positions(model, x0, kind, start)
        nu = model.n_controls
        twin = padded_twin(rng, model)
        for m in (model, twin) if twin is not None else (model,):
            layout = rk.strategy.rank_layout(m, x0, kind, start)
            assert layout.weights == tuple(
                nu ** (slots - 1 - s) for s in positions
            )
            assert layout.pruned == slots - len(positions)
            assert layout.size * layout.class_size == rk.count_strategies(
                model, kind, start
            )
        # representatives ascend in rank and are zero on unreachable slots
        if layout.size <= 64:
            ranks = [layout.rank(j) for j in range(layout.size)]
            assert ranks == sorted(set(ranks))
            for r in ranks:
                strat = rk.strategy_from_rank(model, r, kind, start)
                flat = np.concatenate(
                    [np.zeros(0, dtype=np.int32)]
                    + [p.table.ravel() for p in strat.policies]
                )
                assert not np.delete(flat, positions).any()

