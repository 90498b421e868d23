import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from resilkit.model import _Scenarios
from resilkit.regimes import _exit_times, _membership, _recovery_time
from resilkit.risk import _costs, _evaluate

from conftest import (
    build_m1,
    outcome,
    padded_twin,
    random_model,
    random_risks,
    random_strategy,
)


def policy_control(model, strategy, t, x, scenario):
    """Control the strategy takes at (t, x) under the given scenario, from
    the public Strategy.policy and prefix_rank: the reference a bundle's
    controls are checked against."""
    if x == model.cemetery:
        return 0
    pol = strategy.policy(t)
    if pol.kind == rk.MARKOV:
        return int(pol.table[x])
    return int(pol.table[x, rk.prefix_rank(model, t, scenario,
                                           strategy.start)])


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
    # entries before the base are not read; a prefix too short raises
    assert rk.prefix_rank(m1, 2, ("x", 1), 1) == 1
    with pytest.raises(rk.InputError, match=re.escape(
            "scenario (1,) has length 1, expected at least 2")):
        rk.prefix_rank(m1, 2, (1,))


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
    model = build_m1(robust=(0,))
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
    """States and controls from policy_control and the public step alone."""
    states, controls = [x0], []
    for t in range(start, model.horizon):
        u = policy_control(model, strategy, t, states[-1], scenario)
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


# keep_high's text, as strategy_to_text writes it: `start = 0` on line 1,
# then [policy t] on line 2 + 6t, its kind line and its rows 0..3 below
KEEP = "start = 0\n" + "".join(_section(t, rk.MARKOV) for t in range(3))
# the first row of an adapted [policy 0] and of an adapted [policy 1]
# section that follows it (lines 3 and 9 when there is no `start =` line)
ADAPTED = _section(0, rk.ADAPTED, " ()") + _section(1, rk.ADAPTED, " (0)")


# Each raise site of strategy_from_text: (text, message, line cited).
STRATEGY_READER_ERRORS = [
    # sections
    (KEEP.replace("[policy 1]", "[rule 1]"), "unknown section '[rule 1]'", 8),
    (KEEP.replace("[policy 1]", "[policy]"), "unknown section '[policy]'", 8),
    (KEEP.replace("[policy 1]", "[policy 1 2]"),
     "unknown section '[policy 1 2]'", 8),
    (KEEP.replace("[policy 1]", "[policy x]"), "bad policy time 'x'", 8),
    ("start = 0\n", "no [policy t] sections found", None),
    ("# nothing\n", "no [policy t] sections found", None),
    # the lines before the first section
    (KEEP.replace("start = 0", "start = x"), "bad start 'x'", 1),
    (KEEP.replace("start = 0", "start = 0\nstart = 0"),
     "duplicate key 'start'", 2),
    (KEEP.replace("start = 0", "begin = 0"),
     "unknown key 'begin' before [policy t]", 1),
    (KEEP.replace("start = 0", "bogus"),
     "expected `key = value`, got 'bogus'", 1),
    # kind lines
    (KEEP.replace("2 -> 1\n3 -> 0\n", "2 -> 1\n3 -> 0\n[policy 3]\n", 1),
     "missing `kind =` line", 8),
    (KEEP.replace("kind = markov", "kinds = markov", 1),
     "expected `kind = markov|adapted`", 3),
    (KEEP.replace("kind = markov", "kind =", 1),
     "expected `kind = markov|adapted`", 3),
    (KEEP.replace("kind = markov\n", "", 1),
     "expected `key = value`, got '0 -> 0'", 3),
    (KEEP.replace("kind = markov", "kind = greedy", 1),
     "unknown policy kind 'greedy'", 3),
    # rows
    (KEEP.replace("2 -> 1", "2 1", 1),
     "expected `state -> control`, got '2 1'", 6),
    (KEEP.replace("2 -> 1", "2 (0) -> 1", 1),
     "expected `state -> control`, got '2 (0) -> 1'", 6),
    (ADAPTED.replace("0 () -> 0", "0 () 0"),
     "expected `state (w ... w) -> control`, got '0 () 0'", 3),
    (_section(0, rk.ADAPTED), "adapted rows need a (prefix), got '0 -> 0'",
     3),
    (_section(0, rk.ADAPTED, " ("),
     "adapted rows need a (prefix), got '0 ( -> 0'", 3),
    (KEEP.replace("2 -> 1", "9 -> 1", 1), "unknown state label '9'", 6),
    (KEEP.replace("2 -> 1", "2 -> 9", 1), "unknown control label '9'", 6),
    (ADAPTED.replace("(0)", "(z)"), "unknown uncertainty label 'z' at time 0",
     9),
    (ADAPTED.replace("(0)", "(0 0)"), "prefix length 2, expected 1", 9),
    (ADAPTED.replace("(0)", "()"), "prefix length 0, expected 1", 9),
    (KEEP.replace("3 -> 0", "CEMETERY -> 0", 1),
     "no policy rows at the cemetery", 7),
    (KEEP.replace("3 -> 0", "3 -> 0\n3 -> 1", 1),
     "duplicate row for '3 -> 1'", 8),
    (_section(0, rk.ADAPTED, " ()") + "0 ( ) -> 1\n",
     "duplicate row for '0 ( ) -> 1'", 7),
    # the sections' rows as a whole
    (KEEP.replace("3 -> 0\n", "", 1),
     "policy at time 0 missing a row for state 3", 2),
    (KEEP + "\n[policy 2]\nkind = markov\n",
     "policy at time 2 missing a row for state 0", 21),
    (KEEP.replace("start = 0", "start = -1"),
     "policy 0 is for time 0, expected -1", 1),
    (KEEP.split("[policy 2]")[0], "strategy covers 2 times from 0, expected 3",
     None),
]


@pytest.mark.parametrize("text, message, line", STRATEGY_READER_ERRORS, ids=[
    "section", "section-no-time", "section-two-times", "policy-time",
    "no-sections", "only-comments", "start", "start-twice", "key-not-start",
    "content-before", "kind-missing", "kind-key", "kind-empty", "kind-no-line",
    "kind-unknown", "arrow", "markov-prefix", "adapted-arrow",
    "adapted-no-prefix", "adapted-open-prefix", "state", "control",
    "uncertainty", "prefix-long", "prefix-short", "cemetery", "duplicate",
    "adapted-duplicate", "missing-row", "section-twice", "start-range",
    "coverage",
])
def test_strategy_reader_errors_are_exact(m1, text, message, line):
    assert KEEP == rk.strategy_to_text(m1, keep_high(m1))
    with pytest.raises(rk.ModelFormatError) as err:
        rk.strategy_from_text(m1, text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None
                              else f"line {line}: {message}")


def test_policy_control_at_cemetery(m1):
    s = keep_high(m1)
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


def test_rank_layout_checks_x0_then_start(m1):
    for args, message in (
        ((9,), "x0 must be an ordinary state index, got 9"),
        ((9, rk.MARKOV, 5), "x0 must be an ordinary state index, got 9"),
        ((2, rk.MARKOV, 5), "strategy start 5 out of range 0..3"),
        ((2, rk.ADAPTED, -1), "strategy start -1 out of range 0..3"),
    ):
        with pytest.raises(rk.InputError, match=re.escape(message)):
            rk.strategy.rank_layout(m1, *args)


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


# ------------------------------------------------- the trajectory rule

A = frozenset({2, 3})
EXPECTED_TIME = rk.Composed(rk.TimeOutside(A), rk.Expectation())
TABLE_COST = rk.TabularCost(np.arange(16).reshape(4, 4), np.zeros((3, 2)))
MODELS = Path(__file__).resolve().parent.parent / "models"


def hold(m1):
    """u = 0 from state 2 over m1's eight scenarios: expected TimeOutside
    2.125, and not StochasticViability(A, 1)."""
    return rk.build_bundle(m1, rk.constant_strategy(m1, 0), 2)


def rebundle(bundle, **fields):
    """The bundle with some fields replaced, unchecked."""
    kept = dict(start=bundle.start, x0=bundle.x0, robust=bundle.robust,
                scenarios=bundle.scenarios, trajectories=bundle.trajectories)
    return rk.TrajectoryBundle(**{**kept, **fields})


def path(states, controls=(0, 0, 0), start=0):
    return rk.Trajectory(start, states, controls, (0, 0, 0))


def numpy_indices(bundle):
    """The bundle with every index a numpy integer, or a bool where it is
    0 or 1."""
    def cast(values):
        return tuple(bool(v) if v in (0, 1) else np.int64(v) for v in values)
    return rk.TrajectoryBundle(
        np.int64(bundle.start), np.int64(bundle.x0), bundle.robust,
        tuple(cast(s) for s in bundle.scenarios),
        tuple(rk.Trajectory(np.int64(tr.start), cast(tr.states),
                            cast(tr.controls), cast(tr.scenario))
              for tr in bundle.trajectories),
    )


# states 1, 1, 2, 3 under controls 1, 1, 1, as numpy integers and bools
NUMPY_PATH = rk.Trajectory(
    np.int64(0), (True, np.int64(1), np.int32(2), np.uint8(3)),
    (True, np.int8(1), np.int64(1)), (0, 0, 0),
)


def fault(text):
    return rk.InputError, text


# (id, call on m1, its result or the InputError with its exact text)
TRAJECTORY_RULE = [
    # a bundle holds its flag's scenario domain in canonical order and one
    # trajectory per scenario, with that scenario, its start and x0
    ("copies-risk", lambda m: rk.evaluate_risk(m, EXPECTED_TIME, rebundle(
        hold(m), scenarios=hold(m).scenarios[:1] * 8,
        trajectories=hold(m).trajectories[:1] * 8)),
     fault("bundle scenario 1 is (0, 0, 0), expected (0, 0, 1)")),
    ("copies-membership", lambda m: rk.regime_membership(
        m, rk.StochasticViability(A, 1), rebundle(
            hold(m), scenarios=hold(m).scenarios[:1] * 8,
            trajectories=hold(m).trajectories[:1] * 8)),
     fault("bundle scenario 1 is (0, 0, 0), expected (0, 0, 1)")),
    ("one-trajectory-risk", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME,
        rebundle(hold(m), trajectories=hold(m).trajectories[:1])),
     fault("bundle holds 1 trajectories for 8 scenarios")),
    ("one-trajectory-membership", lambda m: rk.regime_membership(
        m, rk.Viability(A),
        rebundle(hold(m), trajectories=hold(m).trajectories[:1])),
     fault("bundle holds 1 trajectories for 8 scenarios")),
    ("one-scenario", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME, rebundle(hold(m), scenarios=hold(m).scenarios[:1])),
     fault("bundle holds 1 scenarios, expected 8")),
    ("scenario-order", lambda m: rk.evaluate_risk(m, EXPECTED_TIME, rebundle(
        hold(m), scenarios=hold(m).scenarios[::-1],
        trajectories=hold(m).trajectories[::-1])),
     fault("bundle scenario 0 is (1, 1, 1), expected (0, 0, 0)")),
    ("trajectory-scenario", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME,
        rebundle(hold(m), trajectories=hold(m).trajectories[::-1])),
     fault("trajectory 0 has scenario (1, 1, 1), expected (0, 0, 0)")),
    ("x0-mismatch", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME, rebundle(hold(m), x0=3)),
     fault("trajectory 0 starts from state 2, expected x0 3")),
    ("start-mismatch", lambda m: rk.regime_membership(
        m, rk.Bounded(A), rebundle(hold(m), start=1)),
     fault("trajectory 0 starts at 0, expected 1")),
    ("bundle-x0", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME, rebundle(hold(m), x0=4)),
     fault("x0 must be an ordinary state index, got 4")),
    ("bundle-start", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME, rebundle(hold(m), start=4)),
     fault("bundle start 4 out of range 0..3")),
    # a bundle's trajectories hold controls, even for a states-only regime
    ("bundle-controls", lambda m: rk.regime_membership(
        m, rk.Bounded(A), rebundle(hold(m), trajectories=(
            path((2, 1, 0, 0), (0, 0)),) + hold(m).trajectories[1:])),
     fault("no control at time 2; trajectory starts at 0")),
    # each state is an index in 0..n and each control read one in 0..nu-1
    ("state-negative", lambda m: rk.evaluate_cost(
        m, TABLE_COST, path((-1, 2, 2, 2))),
     fault("state index -1 out of range at time 0")),
    ("state-past-cemetery", lambda m: rk.exit_times(m, path((9, 2, 2, 2)), A),
     fault("state index 9 out of range at time 0")),
    ("control-past-range", lambda m: rk.recovery_time(
        m, path((2, 2, 2, 2), (7, 0, 0)), A),
     fault("control index 7 out of range at time 0")),
    ("state-float", lambda m: rk.recovery_time(m, path((2.0, 2, 2, 2)), A),
     fault("state index 2.0 is not an integer")),
    # the start is a time in 0..K
    ("start-exit-times", lambda m: rk.exit_times(m, path((), (), 5), A),
     fault("trajectory start 5 out of range 0..3")),
    ("start-recovery-time", lambda m: rk.recovery_time(
        m, path((), (), 5), A),
     fault("trajectory start 5 out of range 0..3")),
    ("start-cost", lambda m: rk.evaluate_cost(
        m, rk.TimeOutside(A), path((), (), 5)),
     fault("trajectory start 5 out of range 0..3")),
    ("trajectory-for-float", lambda m: rk.build_bundle(
        m, rk.constant_strategy(m, 1), 2).trajectory_for((1.0, 0, 0)),
     fault("scenario entry 1.0 is not an integer")),
    # cvar weights follow the probability rule
    ("cvar-short-weights", lambda m: rk.cvar([1, 2], [0.5], 1),
     fault("CVaR weights have length 1, expected 2")),
    ("cvar-long-weights", lambda m: rk.cvar([1], [0.5, 0.5], 1),
     fault("CVaR weights have length 2, expected 1")),
    ("cvar-nan-weight", lambda m: rk.cvar([1, 2], [0.5, math.nan], 1),
     fault("CVaR weights include nan (each must be finite and non-negative)")),
    ("cvar-negative-weight", lambda m: rk.cvar([1, 2], [-1, 2], 1),
     fault("CVaR weights include -1.0 (each must be finite and "
           "non-negative)")),
    # numpy integers and bools are indices
    ("numpy-exit-times", lambda m: rk.exit_times(m, NUMPY_PATH, A, True),
     (0, 1)),
    ("numpy-recovery-time", lambda m: rk.recovery_time(m, NUMPY_PATH, A), 2),
    ("numpy-table-cost", lambda m: rk.evaluate_cost(m, TABLE_COST, NUMPY_PATH),
     31.0),
    ("numpy-effort", lambda m: rk.evaluate_cost(
        m, rk.ControlEffort((2.0, 5.0)), NUMPY_PATH), 15.0),
    ("numpy-risk", lambda m: rk.evaluate_risk(
        m, EXPECTED_TIME, numpy_indices(hold(m))), 2.125),
    ("numpy-membership", lambda m: rk.regime_membership(
        m, rk.StochasticViability(A, 0.125), numpy_indices(hold(m))), True),
    ("numpy-sure-membership", lambda m: rk.regime_membership(
        m, rk.StochasticViability(A, 1), numpy_indices(hold(m))), False),
    ("numpy-trajectory-for", lambda m: rk.build_bundle(
        m, rk.constant_strategy(m, 1), 2).trajectory_for(
            (np.int64(1), True, False)).states, (2, 2, 2, 3)),
    ("numpy-cvar", lambda m: rk.cvar(np.arange(2), np.full(2, 0.5), 0.5),
     1.0),
]


@pytest.mark.parametrize("call, expected", [row[1:] for row in TRAJECTORY_RULE],
                         ids=[row[0] for row in TRAJECTORY_RULE])
def test_every_trajectory_follows_the_trajectory_rule(m1, call, expected):
    assert outcome(lambda: call(m1)) == expected


def same(a, b):
    return a == b or a != a and b != b  # NaN is the same as NaN


@pytest.mark.parametrize("name", ["m1", "m1_benign", "m1_effort", "m1_top"])
def test_package_trajectories_pass_the_trajectory_rule(name):
    # every bundle and closed loop the package builds passes the rule, and
    # each public answer on it is its unchecked loop's
    parsed = rk.parse_model((MODELS / f"{name}.model").read_text())
    model = parsed.model
    K, n = model.horizon, model.n_states
    acc = rk.regime_state_set(parsed.regime)
    rng = np.random.default_rng(35)
    strategies = [rk.constant_strategy(model, u) for u in (0, 1)]
    strategies += [random_strategy(rng, model, kind)
                   for kind in (rk.MARKOV, rk.ADAPTED)]
    regimes = [parsed.regime, rk.Viability(acc), rk.RobustRecovery(acc, 2),
               rk.StochasticViability(acc, 0.5), rk.Bounded(acc),
               rk.ProbExcursion(acc, 0.5), rk.AtMostKExits(acc, 1),
               rk.Stabilize(3, 1.0, 2), rk.ControlEvent({1}),
               rk.RiskContainment(EXPECTED_TIME, 1.0)]
    risks = [parsed.risk] + random_risks(rng, model, acc)
    costs = list({id(risk.cost): risk.cost for risk in risks
                  if isinstance(risk, rk.Composed)}.values())
    for strategy, x0, start, robust in itertools.product(
            strategies, range(n), range(K + 1), (False, True)):
        bundle = rk.build_bundle(model, strategy, x0, start, robust)
        scenarios = _Scenarios(model, bundle.scenarios, bundle.robust)
        for regime in regimes:
            assert outcome(lambda: rk.regime_membership(
                model, regime, bundle)) == outcome(lambda: _membership(
                    model, regime, bundle, scenarios))
        for risk in risks:
            assert same(outcome(lambda: rk.evaluate_risk(model, risk, bundle)),
                        outcome(lambda: _evaluate(model, risk, bundle,
                                                  scenarios)))
        for tr in bundle:
            assert bundle.trajectory_for(tr.scenario) is tr
            one = rk.simulate_closed_loop(model, strategy, x0, tr.scenario,
                                          start)
            assert (one.states, one.controls) == (tr.states, tr.controls)
            for flag in (False, True):
                assert (rk.exit_times(model, one, acc, flag)
                        == _exit_times(model, one, acc, flag))
            assert (rk.recovery_time(model, one, acc)
                    == _recovery_time(model, one, acc))
            for cost in costs:
                assert same(rk.evaluate_cost(model, cost, one),
                            _costs(model, cost, (one,))[0])
