"""Feedback strategies and closed-loop trajectories.

A strategy assigns one policy per decision time from its start time onward.
Policies are either Markov (state -> control) or adapted (state + observed
uncertainty prefix -> control). The prefix observed at time t is
(w_b, ..., w_{t-1}) where b is the strategy's start time, ranked densely in
lexicographic order, so an adapted table has one column per prefix. At the
cemetery every policy takes control 0 by convention.

Changing w_s for s >= r never changes the state or control at times <= r:
the time-r control reads only states reached from w_{<r} and the prefix
w_{<r} itself.

Bundles and the reachable slots of rank_layout step on the model's
successor table (model.successor_planes), where inadmissible controls lead
to the cemetery.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._record import record
from .errors import CapacityError, InputError, ModelFormatError
from .model import (
    _OUT_OF_RANGE,
    _OUT_OF_SPAN,
    DEFAULT_SCENARIO_CAP,
    SystemModel,
    _check_index,
    _check_start,
    _check_table,
    _check_x0,
    _Scenarios,
    count_scenarios,
    enumerate_scenarios,
    successor_planes,
)

# enumerate_strategies refuses to yield more than this many strategies
DEFAULT_STRATEGY_CAP = 10**6

MARKOV = "markov"
ADAPTED = "adapted"


@record(eq=False)
class Policy:
    """One decision rule at a fixed time.

    Markov tables have shape (n,); adapted tables (n, #prefixes), columns
    indexed by the dense lexicographic rank of the observed prefix. The
    table, an index table (model._check_table), is kept as a read-only
    int32 copy, so the caller's array stays its own.
    """

    t: int
    kind: str
    table: np.ndarray

    def __post_init__(self):
        if self.kind not in (MARKOV, ADAPTED):
            raise InputError(f"unknown policy kind {self.kind!r}")
        want = 1 if self.kind == MARKOV else 2
        arr = _check_table(self.table, f"{self.kind} policy table",
                           frozen=True)
        if arr.ndim != want:
            raise InputError(
                f"{self.kind} policy table must be {want}-d, got {arr.ndim}-d"
            )
        object.__setattr__(self, "table", arr)


@record(eq=False)
class Strategy:
    """Policies for every decision time start..K-1, in order."""

    start: int
    policies: tuple

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        for i, pol in enumerate(self.policies):
            if pol.t != self.start + i:
                raise InputError(
                    f"policy {i} is for time {pol.t}, expected {self.start + i}"
                )

    @property
    def kind(self):
        if all(p.kind == MARKOV for p in self.policies):
            return MARKOV
        return ADAPTED

    def policy(self, t):
        t = _check_index(t, "time", self.start + len(self.policies),
                         "no policy at time {value}", self.start)
        return self.policies[t - self.start]


@record(eq=False)
class Trajectory:
    """One closed-loop path: states at start..K, controls at start..K-1,
    under one full scenario.

    A valid one, for a model of horizon K, starts at a time in 0..K and
    holds a state index in 0..n (n, the cemetery, too) at every time
    start..K; where a function reads controls, it also holds a control
    index at every time start..K-1. Entries past those times are not read.
    Indices follow the package's index rule (model._check_index), and
    _check_trajectory enforces all of this.
    """

    start: int
    states: tuple
    controls: tuple
    scenario: tuple

    def state(self, s):
        """State at absolute time s."""
        return self.states[self._offset(s, "state", self.states)]

    def control(self, s):
        """Control at absolute time s."""
        return self.controls[self._offset(s, "control", self.controls)]

    def _offset(self, s, what, values):
        """Position in `values` of time s, start..start+len-1."""
        s = _check_index(s, "time", self.start + len(values),
                         f"no {what} at time {{value}}; trajectory starts at "
                         f"{self.start}", self.start)
        return s - self.start


@record(eq=False)
class TrajectoryBundle:
    """Closed-loop trajectories over an enumerated scenario set.

    A valid one holds the scenarios build_bundle enumerates for its
    `robust` flag (the robust domain, else the full one), in that canonical
    order, and one trajectory per scenario, in the same order. Its start is
    a time in 0..K and x0 an ordinary state index; each trajectory has its
    scenario, the bundle's start and x0 as its first state, and is a valid
    Trajectory with controls. Whether the paths follow the dynamics is not
    checked. _check_bundle enforces all of this.
    """

    start: int
    x0: int
    robust: bool
    scenarios: tuple
    trajectories: tuple

    def __len__(self):
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def trajectory_for(self, scenario):
        """The trajectory of `scenario`; its entries follow the index
        rule's type test only, since a bundle holds no model to range them
        by."""
        key = tuple(_check_index(w, "scenario entry", first=-math.inf)
                    for w in scenario)
        try:
            i = self.scenarios.index(key)
        except ValueError:
            raise InputError(f"scenario {scenario} not in bundle") from None
        return self.trajectories[i]


def _check_trajectory(model, trajectory, need_controls):
    """The trajectory rule (see Trajectory), controls only with
    need_controls: the trajectory with a plain int start, the states at
    start..K and, with need_controls, the controls at start..K-1, as plain
    ints; its other controls are kept as they are."""
    tr, K = trajectory, model.horizon
    start = _check_index(tr.start, "trajectory start", K + 1, _OUT_OF_SPAN)
    parts = [("state", tr.states, K + 1, model.cemetery + 1)]
    if need_controls:
        parts.append(("control", tr.controls, K, model.n_controls))
    checked = []
    for what, values, stop, size in parts:
        if len(values) < stop - start:
            # raises "no {what} at time {the first missing time}"
            tr._offset(start + len(values), what, values)
        checked.append(tuple(
            _check_index(v, what + " index", size,
                         _OUT_OF_RANGE + f" at time {t}")
            for t, v in enumerate(values[: stop - start], start)
        ))
    controls = checked[1] if need_controls else tr.controls
    return Trajectory(start, checked[0], controls, tr.scenario)


def _check_bundle(model, bundle):
    """The bundle rule (see TrajectoryBundle): the bundle with a plain int
    start and x0, its scenarios as tuples of plain ints and each trajectory
    as _check_trajectory returns it, with controls."""
    start = _check_index(bundle.start, "bundle start", model.horizon + 1,
                         _OUT_OF_SPAN)
    x0 = _check_x0(model, bundle.x0)
    scenarios = tuple(model._check_scenario(s) for s in bundle.scenarios)
    total = count_scenarios(model, bundle.robust)
    if len(scenarios) != total:
        raise InputError(
            f"bundle holds {len(scenarios)} scenarios, expected {total}"
        )
    domain = enumerate_scenarios(model, bundle.robust, cap=total)
    for i, (scen, want) in enumerate(zip(scenarios, domain)):
        if scen != want:
            raise InputError(f"bundle scenario {i} is {scen}, expected {want}")
    if len(bundle.trajectories) != total:
        raise InputError(f"bundle holds {len(bundle.trajectories)} "
                         f"trajectories for {total} scenarios")
    trajectories = []
    for i, (scen, tr) in enumerate(zip(scenarios, bundle.trajectories)):
        tr = _check_trajectory(model, tr, True)
        if tr.start != start:
            raise InputError(
                f"trajectory {i} starts at {tr.start}, expected {start}"
            )
        if model._check_scenario(tr.scenario) != scen:
            raise InputError(f"trajectory {i} has scenario {tr.scenario}, "
                             f"expected {scen}")
        if tr.states[0] != x0:
            raise InputError(f"trajectory {i} starts from state "
                             f"{tr.states[0]}, expected x0 {x0}")
        trajectories.append(tr)
    return TrajectoryBundle(start, x0, bundle.robust, scenarios,
                            tuple(trajectories))


def _check_prefix(model, t, base):
    """(t, base) of a prefix (w_base..w_{t-1}), each a time in 0..K."""
    return tuple(_check_index(v, what, model.horizon + 1, _OUT_OF_SPAN)
                 for v, what in ((t, "time"), (base, "base")))


def n_prefixes(model: SystemModel, t: int, base: int = 0) -> int:
    """Number of uncertainty prefixes (w_base..w_{t-1}), 1 when t <= base."""
    t, base = _check_prefix(model, t, base)
    return math.prod(model.uncertainty.size(q) for q in range(base, t))


def prefix_rank(model: SystemModel, t: int, scenario, base: int = 0) -> int:
    """Dense lexicographic rank of scenario's prefix (w_base..w_{t-1});
    scenario holds at least t entries, and those from base on are
    uncertainty indices."""
    t, base = _check_prefix(model, t, base)
    if len(scenario) < t:
        raise InputError(f"scenario {tuple(scenario)} has length "
                         f"{len(scenario)}, expected at least {t}")
    return _prefix_rank(model, base, [
        _check_index(scenario[q], "scenario entry", model.uncertainty.size(q),
                     _OUT_OF_RANGE + f" at time {q}")
        for q in range(base, t)
    ])


def _prefix_rank(model, base, prefix):
    """Rank of the valid prefix (w_base..w_{t-1}), unchecked."""
    rank = 0
    for q, w in enumerate(prefix, base):
        rank = rank * model.uncertainty.size(q) + w
    return rank


def validate_strategy(model: SystemModel, strategy: Strategy) -> None:
    """Check times, table shapes, and control ranges against the model."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    _check_start(model, strategy.start)
    if strategy.start + len(strategy.policies) != K:
        raise InputError(
            f"strategy covers {len(strategy.policies)} times from "
            f"{strategy.start}, expected {K - strategy.start}"
        )
    for pol in strategy.policies:
        if pol.kind == MARKOV:
            want = (n,)
        else:
            want = (n, n_prefixes(model, pol.t, strategy.start))
        if pol.table.shape != want:
            raise InputError(
                f"policy at time {pol.t} has table shape {pol.table.shape}, "
                f"expected {want}"
            )
        _check_table(pol.table, f"policy at time {pol.t}", first=0, stop=nu,
                     outside=f"policy at time {pol.t} uses an unknown control")


def is_admissible(model: SystemModel, strategy: Strategy) -> bool:
    """True when every table entry at every ordinary state is admissible."""
    validate_strategy(model, strategy)
    for pol in strategy.policies:
        con = model.constraints[pol.t]
        if pol.kind == MARKOV:
            picks = pol.table[:, None]
        else:
            picks = pol.table
        rows = np.arange(model.n_states)[:, None]
        if not con[rows, picks].all():
            return False
    return True


def _check_run(model, strategy, x0, start):
    """Check the strategy, then start vs its start, x0 and start's range;
    return (x0, start) as plain ints."""
    validate_strategy(model, strategy)
    if start is None:
        start = strategy.start
    if isinstance(start, (int, np.integer)) and start < strategy.start:
        raise InputError(
            f"cannot simulate from {start}: strategy starts at {strategy.start}"
        )
    return _check_x0(model, x0), _check_start(model, start)


def _step_list(model, t):
    """Lists next[x][u * |W_t| + w] of model.successor_planes[t], built by
    the first bundle that reads time t and kept on the model."""
    cached = getattr(model, "_step_lists", None)
    if cached is None:
        cached = [None] * model.horizon
        object.__setattr__(model, "_step_lists", cached)
    if cached[t] is None:
        plane = successor_planes(model)[t].transpose(1, 2, 0)
        cached[t] = plane.reshape(len(plane), -1).tolist()
    return cached[t]


def _bundle(model, strategy, x0, start, scenarios):
    """build_bundle without checks: a valid strategy run from a valid x0 at
    a valid start, over a _Scenarios of valid scenarios."""
    base = strategy.start
    plan = []  # (next-state lists, policy rows, adapted, |W_t|) per time
    for t, pol in enumerate(strategy.policies[start - base :], start):
        rows = pol.table.tolist()
        adapted = pol.kind == ADAPTED
        # the cemetery plays control 0
        rows.append([0] * pol.table.shape[1] if adapted else 0)
        plan.append((_step_list(model, t), rows, adapted,
                     model.uncertainty.size(t)))
    trajectories = []
    for scen in scenarios.scenarios:
        # rank of the prefix (w_base..w_{t-1}) the time-t policy observes
        rank = _prefix_rank(model, base, scen[base:start])
        x = x0
        states = [x]
        controls = []
        for (nxt, rows, adapted, size), w in zip(plan, scen[start:]):
            u = rows[x][rank] if adapted else rows[x]
            rank = rank * size + w
            x = nxt[x][u * size + w]
            controls.append(u)
            states.append(x)
        trajectories.append(
            Trajectory(start, tuple(states), tuple(controls), scen)
        )
    return TrajectoryBundle(
        start, x0, scenarios.robust_only, scenarios.scenarios,
        tuple(trajectories),
    )


def simulate_closed_loop(
    model: SystemModel, strategy: Strategy, x0: int, scenario, start: int = None
) -> Trajectory:
    """Run the strategy from x0 at `start` (default: the strategy's start)
    under one full scenario."""
    scenario = model._check_scenario(scenario)
    x0, start = _check_run(model, strategy, x0, start)
    one = _Scenarios(model, (scenario,))
    return _bundle(model, strategy, x0, start, one).trajectories[0]


def build_bundle(
    model: SystemModel,
    strategy: Strategy,
    x0: int,
    start: int = None,
    robust_only: bool = False,
    cap: int = DEFAULT_SCENARIO_CAP,
) -> TrajectoryBundle:
    """Simulate the strategy against every scenario in the (robust or full)
    scenario set, in canonical order. The strategy, x0 and start are checked
    once, before the cap; enumerated scenarios are valid by construction."""
    x0, start = _check_run(model, strategy, x0, start)
    scenarios = enumerate_scenarios(model, robust_only=robust_only, cap=cap)
    return _bundle(
        model, strategy, x0, start, _Scenarios(model, scenarios, robust_only)
    )


def markov_strategy(model: SystemModel, tables, start: int = 0) -> Strategy:
    """Markov strategy from an index table of shape (K - start, n), one row
    per decision time. Its policies hold rows of one read-only int32 copy
    of the table, so the caller's array stays its own."""
    start = _check_start(model, start)
    tables = _check_table(tables, "markov strategy table")
    if tables.ndim == 0:
        raise InputError("markov strategy table must be 2-d, got 0-d")
    if len(tables) and tables.ndim != 2:  # each row is one policy table
        raise InputError(
            f"markov policy table must be 1-d, got {tables.ndim - 1}-d"
        )
    out = _markov_from_table(tables, start)
    validate_strategy(model, out)
    return out


def constant_strategy(model: SystemModel, u: int, start: int = 0) -> Strategy:
    """Markov strategy playing control u everywhere."""
    start = _check_start(model, start)
    u = _check_index(u, "control", model.n_controls,
                     f"policy at time {start} uses an unknown control")
    table = np.full((model.horizon - start, model.n_states), u, np.int32)
    return markov_strategy(model, table, start)


def strategies_equal(a: Strategy, b: Strategy) -> bool:
    if a.start != b.start or len(a.policies) != len(b.policies):
        return False
    return all(
        pa.kind == pb.kind and np.array_equal(pa.table, pb.table)
        for pa, pb in zip(a.policies, b.policies)
    )


def _check_kind(kind):
    if kind not in (MARKOV, ADAPTED):
        raise InputError(f"unknown strategy kind {kind!r}")


def _slot_shapes(model, kind, start):
    """(int start, table shape per decision time, total slot count)."""
    _check_kind(kind)
    start = _check_start(model, start)
    n = model.n_states
    if kind == MARKOV:
        shapes = [(n,) for _ in range(start, model.horizon)]
    else:
        shapes = [
            (n, n_prefixes(model, t, start))
            for t in range(start, model.horizon)
        ]
    return start, shapes, sum(math.prod(s) for s in shapes)


def count_strategies(model: SystemModel, kind: str = MARKOV, start: int = 0) -> int:
    """Size of the full strategy class for this model."""
    return model.n_controls ** _slot_shapes(model, kind, start)[2]


def _own_policy(t, kind, table):
    """Policy without its checks and its copy, for an int32 `table` of the
    kind's rank that no caller keeps; the table is made read-only."""
    table.setflags(write=False)
    policy = object.__new__(Policy)
    policy.__dict__.update(t=t, kind=kind, table=table)
    return policy


def _strategy_from_digits(kind, start, shapes, digits):
    policies = []
    pos = 0
    for i, shape in enumerate(shapes):
        size = math.prod(shape)
        table = np.array(digits[pos : pos + size], dtype=np.int32).reshape(shape)
        policies.append(_own_policy(start + i, kind, table))
        pos += size
    return Strategy(start, tuple(policies))


def _markov_from_table(table, start):
    """Markov strategy from a valid (K - start, n) control table, unchecked.
    Its policies hold rows of one read-only int32 copy of the table."""
    table = np.array(table, dtype=np.int32)
    table.setflags(write=False)
    return Strategy(start, tuple(
        _own_policy(start + i, MARKOV, row) for i, row in enumerate(table)
    ))


def strategy_from_rank(
    model: SystemModel, rank: int, kind: str = MARKOV, start: int = 0
) -> Strategy:
    """Strategy at a given lexicographic rank (slot order: time ascending,
    state ascending, prefix rank ascending; last slot varies fastest)."""
    start, shapes, slots = _slot_shapes(model, kind, start)
    nu = model.n_controls
    rank = _check_index(rank, "strategy rank", nu**slots, _OUT_OF_SPAN)
    digits = []
    for _ in range(slots):
        rank, d = divmod(rank, nu)
        digits.append(d)
    digits.reverse()
    return _strategy_from_digits(kind, start, shapes, digits)


@record
class RankLayout:
    """The strategies a closed-loop scan from one initial state tells apart.

    A policy slot (t, x), or (t, x, prefix) for adapted strategies, is
    reachable when some admissible controls and some full-domain scenario
    lead from x0 at `start` to x at t (after that prefix). Strategies that
    agree on every reachable slot give identical bundles from x0, over the
    full scenario set and any subset of it, so they share resilience and
    risk. Each such class is represented by its least rank, the member with
    control 0 on every unreachable slot. Representative i sets the reachable
    slots to the base-nu digits of i, so representatives ascend in rank
    with i.
    """

    n_controls: int
    weights: tuple  # place value in the rank of each reachable slot, in slot order
    pruned: int  # number of unreachable slots
    # the (K, n+1, P) policy-array shape, P the largest prefix count of any
    # time (1 for Markov), and the flat position in it of each reachable
    # slot, in slot order
    policy_shape: tuple
    cells: tuple

    @property
    def size(self):
        """Number of representatives."""
        return self.n_controls ** len(self.weights)

    @property
    def class_size(self):
        """Strategies each representative stands for."""
        return self.n_controls**self.pruned

    def rank(self, i):
        """Strategy rank of representative i."""
        rank = 0
        for weight in reversed(self.weights):
            i, digit = divmod(i, self.n_controls)
            rank += digit * weight
        return rank

    def policies(self, lo, hi):
        """Policy arrays of representatives lo..hi-1, int32
        (hi - lo, K, n+1, P): entry [t, x, p] is the control at (t, x)
        after the prefix of rank p (p = 0 for Markov), as
        _sim.simulate_batch reads it; the cemetery column, times before the
        start and prefix columns past a time's count are zero."""
        i = np.arange(lo, hi, dtype=np.int64)
        size = math.prod(self.policy_shape)
        out = np.zeros((hi - lo, size), dtype=np.int32)
        # the last reachable slot is the least significant digit
        for cell in reversed(self.cells):
            i, out[:, cell] = np.divmod(i, self.n_controls)
        return out.reshape(hi - lo, *self.policy_shape)


def _policy_shape(model, kind, start):
    """The (K, n+1, P) policy array of class `kind` from `start`: P is the
    largest prefix count of any time, 1 for Markov."""
    _check_kind(kind)
    K = model.horizon
    width = n_prefixes(model, K - 1, start) if kind == ADAPTED else 1
    return K, model.n_states + 1, width


def _reached(model, x0, kind, start, picks=None):
    """Yield (t, here) for t = start..K-1, here (P, n) bool: x is reached
    at t after the prefix of rank p (Markov: P = 1, any prefix) from x0 at
    `start` under any controls, or under picks[t, x] of an int (K, n)
    `picks`. The cemetery and the padding w >= |W_t| are never read."""
    planes, n = successor_planes(model), model.n_states
    here = np.zeros((1, n), dtype=bool)
    here[0, x0] = True
    for t in range(start, model.horizon):
        yield t, here
        plane = planes[t]
        nw = len(plane)
        p, x = np.nonzero(here)
        nxt = np.zeros((here.shape[0], nw, n + 1), dtype=bool)
        to = plane[:, x] if picks is None else plane[:, x, picks[t, x], None]
        nxt[p[:, None], np.arange(nw)[:, None, None], to] = True
        here = nxt[:, :, :n].reshape(-1, n)  # prefix p then w ranks p*nw + w
        if kind == MARKOV:
            here = here.any(axis=0, keepdims=True)


def rank_layout(
    model: SystemModel, x0: int, kind: str = MARKOV, start: int = 0
) -> RankLayout:
    """Reachable policy slots from x0 at `start`, in the slot order of
    strategy_from_rank. A Markov slot (t, x) is reachable when x is reached
    after some prefix (_reached)."""
    _check_kind(kind)
    x0, start = _check_x0(model, x0), _check_start(model, start)
    n, shape = model.n_states, _policy_shape(model, kind, start)
    cell = np.arange(math.prod(shape)).reshape(shape)  # in a policy array
    reach, cells = [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=np.intp)]
    for t, here in _reached(model, x0, kind, start):
        reach.append(here.T.ravel())  # table order: state, then prefix
        cells.append(cell[t, :n, : here.shape[0]].ravel())
    reachable = np.concatenate(reach)
    slots = reachable.size
    nu = model.n_controls
    positions = np.flatnonzero(reachable)
    weights = tuple(nu ** (slots - 1 - int(s)) for s in positions)
    cells = tuple(np.concatenate(cells)[positions].tolist())
    return RankLayout(nu, weights, slots - len(weights), shape, cells)


def _layout_strategy(model, kind, policies, start):
    """The strategy of class `kind` from `start` that a RankLayout.policies
    array packs, unchecked; its tables are read-only int32 copies."""
    n = model.n_states
    if kind == MARKOV:
        return _markov_from_table(policies[start:, :n, 0], start)
    times = range(start, model.horizon)
    tables = (policies[t, :n, : n_prefixes(model, t, start)] for t in times)
    return Strategy(start, tuple(
        _own_policy(t, ADAPTED, table.copy())
        for t, table in zip(times, tables)
    ))


def enumerate_strategies(
    model: SystemModel,
    kind: str = MARKOV,
    start: int = 0,
    cap: int = DEFAULT_STRATEGY_CAP,
):
    """Every strategy of the class in lexicographic rank order. The cap is
    checked eagerly, before any strategy is produced."""
    start, shapes, slots = _slot_shapes(model, kind, start)
    cap = _check_index(cap, "cap")
    total = model.n_controls**slots
    if total > cap:
        raise CapacityError(f"{total} strategies exceed cap {cap}")

    def _generate():
        for digits in itertools.product(range(model.n_controls), repeat=slots):
            yield _strategy_from_digits(kind, start, shapes, digits)

    return _generate()


def _policy_array(model, strategy):
    """A valid strategy as int32 (K, n+1, P) in the layout of
    RankLayout.policies (_policy_shape of its kind and start), unchecked;
    an adapted strategy's Markov policies fill every prefix column."""
    n = model.n_states
    out = np.zeros(_policy_shape(model, strategy.kind, strategy.start),
                   dtype=np.int32)
    for pol in strategy.policies:
        if pol.kind == MARKOV:
            out[pol.t, :n] = pol.table[:, None]
        else:
            out[pol.t, :n, : pol.table.shape[1]] = pol.table
    return out


def markov_policy_array(model: SystemModel, strategy: Strategy) -> np.ndarray:
    """Pack a Markov strategy as int32 (K, n+1) for the batched kernel
    (cemetery column 0, times before the start zero-filled)."""
    validate_strategy(model, strategy)
    if strategy.kind != MARKOV:
        raise InputError("only Markov strategies pack into policy arrays")
    return _policy_array(model, strategy)[..., 0]


def strategy_to_text(model: SystemModel, strategy: Strategy) -> str:
    """Serialize a strategy with model labels; see strategy_from_text."""
    validate_strategy(model, strategy)
    lines = [f"start = {strategy.start}"]
    for pol in strategy.policies:
        lines += [f"[policy {pol.t}]", f"kind = {pol.kind}"]
        for x in range(model.n_states):
            lab = model.states.label(x)
            if pol.kind == MARKOV:
                lines.append(f"{lab} -> {model.controls.label(pol.table[x])}")
                continue
            # the prefixes in lexicographic order, as prefix_rank ranks them
            sets = model.uncertainty.sets[strategy.start : pol.t]
            for ws, u in zip(itertools.product(*sets), pol.table[x]):
                lines.append(f"{lab} ({' '.join(ws)}) -> "
                             f"{model.controls.label(u)}")
    return "\n".join(lines) + "\n"


def strategy_from_text(model: SystemModel, text: str) -> Strategy:
    """Parse the strategy serialization format.

    Lines: optional `start = t`; then `[policy t]` sections, each with
    `kind = markov|adapted` and one row per state (Markov: `state -> control`)
    or per state and prefix (adapted: `state (w ... w) -> control`).
    '#' starts a comment. The model file's line reader and row helpers read
    it, so both formats share their comment, section, row and label rules.
    """
    # modelfile imports this module by way of regimes
    from .modelfile import (
        _arrow_row, _cited, _int, _keyvals, _label, _label_maps, _put,
        _split_lines,
    )

    head, found = _split_lines(text)
    starts = {}
    for lineno, key, value in _keyvals(head):
        if key != "start":
            raise ModelFormatError(f"unknown key {key!r} before [policy t]",
                                   lineno)
        _put(starts, key, (lineno, _int(value, "start", lineno)), lineno,
             "key {!r}", key)
    start_line, start = starts.get("start", (None, 0))
    states, controls, w_idx = _label_maps(model)
    policies = []  # (policy, its section's line)
    for name, at, rows in found:
        parts = name.split()
        if len(parts) != 2 or parts[0] != "policy":
            raise ModelFormatError("unknown section " + repr(f"[{name}]"), at)
        t = _int(parts[1], "policy time", at)
        if not rows:
            raise ModelFormatError("missing `kind =` line", at)
        [(lineno, key, kind)] = _keyvals(rows[:1])
        if key != "kind" or not kind:
            raise ModelFormatError("expected `kind = markov|adapted`", lineno)
        if kind not in (MARKOV, ADAPTED):
            raise ModelFormatError(f"unknown policy kind {kind!r}", lineno)
        # an adapted section outside start..K-1 has no prefixes to rank its
        # rows by: read as a Markov one, the layout check rejects it alike
        ranked = kind == ADAPTED and 0 <= start <= t < model.horizon
        form, arity = (("state -> control", 1) if kind == MARKOV
                       else ("state (w ... w) -> control", None))
        cells = {}  # (state, prefix rank) -> control
        for lineno, line in rows[1:]:
            parts, ul = _arrow_row(line, form, arity, lineno)
            u = _label(controls, ul, "control", lineno)
            xl = " ".join(parts)
            if kind == ADAPTED:
                xl, paren, ws = xl.partition("(")
                if not paren or not ws.endswith(")"):
                    raise ModelFormatError(f"adapted rows need a (prefix), "
                                           f"got {line!r}", lineno)
                xl, ws = xl.strip(), ws[:-1].split()
            x = _label(states, xl, "state", lineno)
            cell = (x, 0)
            if ranked:
                if len(ws) != t - start:
                    raise ModelFormatError(f"prefix length {len(ws)}, "
                                           f"expected {t - start}", lineno)
                ws = [_label(w_idx[q], wl, "uncertainty", lineno, q)
                      for q, wl in enumerate(ws, start)]
                cell = (x, prefix_rank(model, t, [0] * start + ws, start))
            if x == model.cemetery:
                raise ModelFormatError("no policy rows at the cemetery", lineno)
            _put(cells, cell, u, lineno, "row for {!r}", line)
        width = n_prefixes(model, t, start) if ranked else 1
        slots = [(x, r) for x in range(model.n_states) for r in range(width)]
        missing = [x for x, r in slots if (x, r) not in cells]
        if missing:
            raise ModelFormatError(f"policy at time {t} missing a row for "
                                   f"state {model.states.label(missing[0])}",
                                   at)
        shape = (-1,) if kind == MARKOV else (-1, width)
        table = np.array([cells[s] for s in slots], np.int32).reshape(shape)
        policies.append((Policy(t, kind, table), at))
    if not policies:
        raise ModelFormatError("no [policy t] sections found")
    policies.sort(key=lambda p: p[0].t)
    # a layout error cites the `start =` line if start is out of range, else
    # the first section out of sequence
    at = start_line
    if 0 <= start <= model.horizon:
        at = next((at for i, (pol, at) in enumerate(policies)
                   if pol.t != start + i), None)
    out = _cited(at, Strategy, start, tuple(pol for pol, _ in policies))
    _cited(at, validate_strategy, model, out)
    return out
