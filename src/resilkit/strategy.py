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
    DEFAULT_SCENARIO_CAP,
    SystemModel,
    _check_start,
    _check_x0,
    _Scenarios,
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
    table is a read-only int32 copy, so the caller's array stays its own.
    """

    t: int
    kind: str
    table: np.ndarray

    def __post_init__(self):
        if self.kind not in (MARKOV, ADAPTED):
            raise InputError(f"unknown policy kind {self.kind!r}")
        want = 1 if self.kind == MARKOV else 2
        arr = np.array(self.table, dtype=np.int32)
        if arr.ndim != want:
            raise InputError(
                f"{self.kind} policy table must be {want}-d, got {arr.ndim}-d"
            )
        arr.setflags(write=False)
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
        if not self.start <= t < self.start + len(self.policies):
            raise InputError(f"no policy at time {t}")
        return self.policies[t - self.start]


@record(eq=False)
class Trajectory:
    """One closed-loop path: states at start..K, controls at start..K-1,
    under one full scenario."""

    start: int
    states: tuple
    controls: tuple
    scenario: tuple

    def state(self, s):
        """State at absolute time s."""
        if not 0 <= s - self.start < len(self.states):
            raise InputError(f"no state at time {s}; trajectory starts at "
                             f"{self.start}")
        return self.states[s - self.start]

    def control(self, s):
        """Control at absolute time s."""
        if not 0 <= s - self.start < len(self.controls):
            raise InputError(f"no control at time {s}; trajectory starts at "
                             f"{self.start}")
        return self.controls[s - self.start]


@record(eq=False)
class TrajectoryBundle:
    """Closed-loop trajectories over an enumerated scenario set."""

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
        try:
            i = self.scenarios.index(tuple(scenario))
        except ValueError:
            raise InputError(f"scenario {scenario} not in bundle") from None
        return self.trajectories[i]


def n_prefixes(model: SystemModel, t: int, base: int = 0) -> int:
    """Number of uncertainty prefixes (w_base..w_{t-1})."""
    return math.prod(model.uncertainty.size(q) for q in range(base, t))


def prefix_rank(model: SystemModel, t: int, scenario, base: int = 0) -> int:
    """Dense lexicographic rank of scenario's prefix (w_base..w_{t-1})."""
    rank = 0
    for q in range(base, t):
        rank = rank * model.uncertainty.size(q) + int(scenario[q])
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
        if pol.table.size and (pol.table.min() < 0 or pol.table.max() >= nu):
            raise InputError(f"policy at time {pol.t} uses an unknown control")


def policy_control(
    model: SystemModel, strategy: Strategy, t: int, x: int, scenario
) -> int:
    """Control the strategy takes at (t, x) under the given scenario."""
    if x == model.cemetery:
        return 0
    pol = strategy.policy(t)
    if pol.kind == MARKOV:
        return int(pol.table[x])
    return int(pol.table[x, prefix_rank(model, t, scenario, strategy.start)])


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
    """Check the strategy, then start vs its start, x0 and start's range."""
    validate_strategy(model, strategy)
    if start is None:
        start = strategy.start
    if start < strategy.start:
        raise InputError(
            f"cannot simulate from {start}: strategy starts at {strategy.start}"
        )
    _check_x0(model, x0)
    _check_start(model, start)
    return start


def _step_lists(model):
    """Lists next[t][x][u * |W_t| + w] of the model.successor_planes,
    built by the first bundle on a model and kept on it."""
    cached = getattr(model, "_step_lists", None)
    if cached is None:
        cached = [
            plane.transpose(1, 2, 0).reshape(len(plane[0]), -1).tolist()
            for plane in successor_planes(model)
        ]
        object.__setattr__(model, "_step_lists", cached)
    return cached


def _bundle(model, strategy, x0, start, scenarios):
    """build_bundle without checks: a valid strategy run from a valid x0 at
    a valid start, over a _Scenarios of valid scenarios."""
    base = strategy.start
    steps = _step_lists(model)
    plan = []  # (next-state lists, policy rows, adapted, |W_t|) per time
    for t, pol in enumerate(strategy.policies[start - base :], start):
        rows = pol.table.tolist()
        adapted = pol.kind == ADAPTED
        # the cemetery plays control 0
        rows.append([0] * pol.table.shape[1] if adapted else 0)
        plan.append((steps[t], rows, adapted, model.uncertainty.size(t)))
    trajectories = []
    for scen in scenarios.scenarios:
        # rank of the prefix (w_base..w_{t-1}) the time-t policy observes
        rank = prefix_rank(model, start, scen, base)
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
    scenario = tuple(int(w) for w in scenario)
    model._check_scenario(scenario)
    start = _check_run(model, strategy, x0, start)
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
    start = _check_run(model, strategy, x0, start)
    scenarios = enumerate_scenarios(model, robust_only=robust_only, cap=cap)
    return _bundle(
        model, strategy, x0, start, _Scenarios(model, scenarios, robust_only)
    )


def markov_strategy(model: SystemModel, tables, start: int = 0) -> Strategy:
    """Markov strategy from an array of shape (K - start, n)."""
    tables = np.asarray(tables, dtype=np.int32)
    policies = tuple(
        Policy(start + i, MARKOV, tables[i]) for i in range(tables.shape[0])
    )
    out = Strategy(start, policies)
    validate_strategy(model, out)
    return out


def constant_strategy(model: SystemModel, u: int, start: int = 0) -> Strategy:
    """Markov strategy playing control u everywhere."""
    _check_start(model, start)
    table = np.full((model.horizon - start, model.n_states), u, np.int32)
    return markov_strategy(model, table, start)


def strategies_equal(a: Strategy, b: Strategy) -> bool:
    if a.start != b.start or len(a.policies) != len(b.policies):
        return False
    return all(
        pa.kind == pb.kind and np.array_equal(pa.table, pb.table)
        for pa, pb in zip(a.policies, b.policies)
    )


def _slot_shapes(model, kind, start):
    """(table shape per decision time in time order, total slot count)."""
    if kind not in (MARKOV, ADAPTED):
        raise InputError(f"unknown strategy kind {kind!r}")
    _check_start(model, start)
    n = model.n_states
    if kind == MARKOV:
        shapes = [(n,) for _ in range(start, model.horizon)]
    else:
        shapes = [
            (n, n_prefixes(model, t, start))
            for t in range(start, model.horizon)
        ]
    return shapes, sum(math.prod(s) for s in shapes)


def count_strategies(model: SystemModel, kind: str = MARKOV, start: int = 0) -> int:
    """Size of the full strategy class for this model."""
    return model.n_controls ** _slot_shapes(model, kind, start)[1]


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
    shapes, slots = _slot_shapes(model, kind, start)
    nu = model.n_controls
    total = nu**slots
    if not 0 <= rank < total:
        raise InputError(f"strategy rank {rank} out of range 0..{total - 1}")
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


def rank_layout(
    model: SystemModel, x0: int, kind: str = MARKOV, start: int = 0
) -> RankLayout:
    """Reachable policy slots from x0 at `start`, in the slot order of
    strategy_from_rank. A Markov slot (t, x) is reachable when x is reached
    after some prefix; the padding w >= |W_t| is never read."""
    if kind not in (MARKOV, ADAPTED):
        raise InputError(f"unknown strategy kind {kind!r}")
    planes = successor_planes(model)
    K, n = model.horizon, model.n_states
    # the prefix count grows with t
    width = n_prefixes(model, K - 1, start) if kind == ADAPTED else 1
    shape = (K, n + 1, width)
    cell = np.arange(math.prod(shape)).reshape(shape)  # in a policy array
    # here[p, x]: x is reached at time t after prefix p (Markov: any prefix)
    here = np.zeros((1, n), dtype=bool)
    here[0, x0] = True
    reach, cells = [np.zeros(0, dtype=bool)], [np.zeros(0, dtype=np.intp)]
    for t in range(start, K):
        reach.append(here.T.ravel())  # table order: state, then prefix
        cells.append(cell[t, :n, : here.shape[0]].ravel())
        plane = planes[t]
        nw = len(plane)
        p, x = np.nonzero(here)
        nxt = np.zeros((here.shape[0], nw, n + 1), dtype=bool)
        # inadmissible controls reach the cemetery column, dropped below
        nxt[p[:, None], np.arange(nw)[:, None, None], plane[:, x]] = True
        here = nxt[:, :, :n].reshape(-1, n)  # prefix p then w ranks p*nw + w
        if kind == MARKOV:
            here = here.any(axis=0, keepdims=True)
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
    shapes, slots = _slot_shapes(model, kind, start)
    total = model.n_controls**slots
    if total > cap:
        raise CapacityError(f"{total} strategies exceed cap {cap}")

    def _generate():
        for digits in itertools.product(range(model.n_controls), repeat=slots):
            yield _strategy_from_digits(kind, start, shapes, digits)

    return _generate()


def _policy_array(model, strategy):
    """A valid strategy as int32 (K, n+1, P) in the layout of
    RankLayout.policies, unchecked; P is 1 for a Markov strategy and
    n_prefixes(K-1, start) for an adapted one, whose Markov policies fill
    every prefix column."""
    n, width = model.n_states, 1
    if strategy.kind == ADAPTED:
        width = n_prefixes(model, model.horizon - 1, strategy.start)
    out = np.zeros((model.horizon, n + 1, width), dtype=np.int32)
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
        lines.append(f"[policy {pol.t}]")
        lines.append(f"kind = {pol.kind}")
        for x in range(model.n_states):
            lab = model.states.label(x)
            if pol.kind == MARKOV:
                lines.append(f"{lab} -> {model.controls.label(pol.table[x])}")
            else:
                for r in range(pol.table.shape[1]):
                    ws = _prefix_labels(model, pol.t, strategy.start, r)
                    lines.append(
                        f"{lab} ({' '.join(ws)}) -> "
                        f"{model.controls.label(pol.table[x, r])}"
                    )
    return "\n".join(lines) + "\n"


def _prefix_labels(model, t, base, rank):
    labels = []
    for q in reversed(range(base, t)):
        size = model.uncertainty.size(q)
        rank, w = divmod(rank, size)
        labels.append(model.uncertainty.sets[q][w])
    return list(reversed(labels))


def strategy_from_text(model: SystemModel, text: str) -> Strategy:
    """Parse the strategy serialization format.

    Lines: optional `start = t`; then `[policy t]` sections, each with
    `kind = markov|adapted` and one row per state (Markov: `state -> control`)
    or per state and prefix (adapted: `state (w ... w) -> control`).
    '#' starts a comment.
    """
    start, start_line = 0, None
    sections = []  # (t, kind, rows); rows = {(state, prefix_rank): control}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            inner = line[1:-1].split()
            if len(inner) != 2 or inner[0] != "policy":
                raise ModelFormatError(f"unknown section {line!r}", lineno)
            try:
                t = int(inner[1])
            except ValueError:
                raise ModelFormatError(f"bad policy time {inner[1]!r}", lineno)
            current = {"t": t, "kind": None, "rows": {}, "line": lineno}
            sections.append(current)
            continue
        if current is None:
            key, _, value = line.partition("=")
            if key.strip() == "start" and value:
                try:
                    start = int(value.strip())
                except ValueError:
                    raise ModelFormatError(f"bad start {value.strip()!r}", lineno)
                start_line = lineno
                continue
            raise ModelFormatError(f"expected [policy t] before {line!r}", lineno)
        if current["kind"] is None:
            key, _, value = line.partition("=")
            if key.strip() != "kind" or not value:
                raise ModelFormatError("expected `kind = markov|adapted`", lineno)
            kind = value.strip()
            if kind not in (MARKOV, ADAPTED):
                raise ModelFormatError(f"unknown policy kind {kind!r}", lineno)
            current["kind"] = kind
            # an adapted section outside start..K-1 has no prefixes to rank
            # its rows by: it is read as a Markov one, and the layout check
            # below rejects it as it rejects a Markov one
            current["ranked"] = (
                kind == ADAPTED and start <= current["t"] < model.horizon
            )
            continue
        head, arrow, ctrl = line.rpartition("->")
        if not arrow:
            raise ModelFormatError(f"expected `... -> control` in {line!r}", lineno)
        try:
            u = model.controls.index(ctrl.strip())
            state_part = head
            if current["kind"] == ADAPTED:
                state_part, paren, prefix_part = head.partition("(")
                if not paren or not prefix_part.rstrip().endswith(")"):
                    raise ModelFormatError(
                        f"adapted rows need a (prefix), got {line!r}", lineno
                    )
            x = model.states.index(state_part.strip())
            key = (x, 0)
            if current["ranked"]:
                ws = prefix_part.rstrip().rstrip(")").split()
                t = current["t"]
                if len(ws) != t - start:
                    raise ModelFormatError(
                        f"prefix length {len(ws)}, expected {t - start}", lineno
                    )
                scen = [0] * model.horizon
                for q, wlab in zip(range(start, t), ws):
                    scen[q] = model.uncertainty.index(q, wlab)
                key = (x, prefix_rank(model, t, scen, start))
        except InputError as exc:
            raise ModelFormatError(str(exc), lineno) from None
        if x == model.cemetery:
            raise ModelFormatError("no policy rows at the cemetery", lineno)
        if key in current["rows"]:
            raise ModelFormatError(f"duplicate row for {line!r}", lineno)
        current["rows"][key] = u

    if not sections:
        raise ModelFormatError("no [policy t] sections found")
    policies = []  # (policy, its section's line)
    for sec in sections:
        t, kind, rows = sec["t"], sec["kind"], sec["rows"]
        if kind is None:
            raise ModelFormatError("missing `kind =` line", sec["line"])
        n = model.n_states
        width = n_prefixes(model, t, start) if sec["ranked"] else 1
        table = np.zeros((n, width), dtype=np.int32)
        for x in range(n):
            for r in range(width):
                if (x, r) not in rows:
                    raise ModelFormatError(
                        f"policy at time {t} missing a row for state "
                        f"{model.states.label(x)}",
                        sec["line"],
                    )
                table[x, r] = rows[(x, r)]
        policies.append(
            (Policy(t, kind, table[:, 0] if kind == MARKOV else table),
             sec["line"])
        )
    policies.sort(key=lambda p: p[0].t)
    try:
        out = Strategy(start, tuple(pol for pol, _ in policies))
        validate_strategy(model, out)
    except InputError as exc:
        # cite the `start =` line if it is out of range, else the first
        # section out of sequence
        at = start_line
        if 0 <= start <= model.horizon:
            at = next((at for i, (pol, at) in enumerate(policies)
                       if pol.t != start + i), None)
        raise ModelFormatError(str(exc), at) from None
    return out
