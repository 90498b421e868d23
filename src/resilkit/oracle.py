"""Brute-force reference implementations.

Everything here decides resilience questions by enumerating whole strategy
classes and chasing definitions, sharing only the model tables, the
simulation kernels, and the membership and risk predicates with the rest of
the package. Nothing else is shared: the recursions in `engine`, the pruning
of unreachable policy slots (`strategy.rank_layout`), the regime monitors
of the production scan (its one route for every path regime but
RiskContainment, walked or run along paths) and the fast path in
`optimize` are never called, and every strategy of the class is visited in
rank order. These routines exist to check them. The production scan
decides and prices members of both strategy classes on simulated path
arrays (`risk._evaluate_paths`); the oracle prices each member on a bundle
(`risk._evaluate`), so it judges that evaluator.

Markov enumerations run through the batched numpy simulation kernel
(`_sim.simulate_batch`, which the production scan also runs) on the
model's successor table (`model.successor_planes`, a model table, not an
engine route), a block of ranks at a time; each block is decoded from its
ranks' place values once per call and run from every x0 the call asks
about. For the regimes whose membership is a boolean over
scenarios (Viability, RobustRecovery, Bounded, AtMostKExits, Stabilize,
ControlEvent) membership is read off the block's trajectory arrays
(`_batch_member`, whose regime masks are built once per call); the
acceptable-set tests fold one step's mask at a time, never building an
(S, M, L+1) array.
`oracle_min_risk` then prices each distinct bundle once per block: a
member's full-domain bundle is built from its own simulated rows
(RobustRecovery, decided on the robust scenarios, runs its members once
more over the full set), members with the same rows share its price, and
a strategy is built only for the winner. The adapted class, the
probabilistic regimes and RiskContainment walk the object path, which
shares the package's unchecked closed-loop kernels (`strategy._bundle`,
`regimes._membership`, `risk._evaluate`, with the regime, risk, x0 and start
checked once per call); `_bundle` runs on that path only, and no production
route runs it. Every scenario table comes from `model._Scenarios`. The object path, forced
with `force_object=True`, is the definitional reference the batched path is
tested against, and for those scans the one judge of the production route,
which decides them on simulated path arrays. Caps are hard errors: a
truncated scan would not be a reference.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import ResilientSet, _scan_scenarios
from .errors import CapacityError, InputError
from .model import (
    SystemModel, _check_x0, _Scenarios, packed_tables, successor_planes,
)
from .regimes import (
    AtMostKExits,
    Bounded,
    ControlEvent,
    RobustRecovery,
    Stabilize,
    Viability,
    _ball,
    _check_state_set,
    _membership,
    _state_mask,
    validate_regime,
)
from .risk import _evaluate, validate_risk
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    Trajectory,
    TrajectoryBundle,
    _bundle,
    _markov_from_table,
    count_strategies,
    enumerate_strategies,
)
from ._sim import simulate_batch

# trajectory cells (strategies x scenarios x (steps + 1)) per simulated
# block, which bounds the block's (S, M, L+1) arrays whatever M is
_CELLS = 1 << 20

# regimes _batch_member decides on simulate_batch trajectories
_BATCHED_REGIMES = (
    Viability, RobustRecovery, Bounded, AtMostKExits, Stabilize, ControlEvent,
)


def _check_cap(model, kind, start, cap):
    """(int start, class size), checked in count_strategies, then cap."""
    total = count_strategies(model, kind, start)
    if total > cap:
        raise CapacityError(f"{total} {kind} strategies exceed cap {cap}")
    return int(start), total


def _policy_batches(model, start, total, n_scenarios):
    """Yield (first_rank, policies) covering ranks 0..total-1 in order;
    policies is int32 (chunk, K, n+1) ready for the simulation kernel, with
    chunk * n_scenarios * (K - start + 1) at most _CELLS (chunk >= 1)."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    # place value of each slot's digit, the first slot most significant
    place = nu ** np.arange(n * (K - start) - 1, -1, -1, dtype=np.int64)
    batch = max(1, _CELLS // max(1, n_scenarios * (K - start + 1)))
    for a in range(0, total, batch):
        b = min(total, a + batch)
        ranks = np.arange(a, b, dtype=np.int64)
        pol = np.zeros((b - a, K, n + 1), dtype=np.int32)
        pol[:, start:, :n] = (ranks[:, None] // place % nu).reshape(
            b - a, K - start, n
        )
        yield a, pol


def _good_table(model, acceptable):
    """good[t, x * nu + u] over times 0..K: state x is in `acceptable` and
    control u is admissible at t; row K, the horizon, where no control is
    played, reads the state only."""
    K, nu = model.horizon, model.n_controls
    in_set = _state_mask(model, acceptable)
    good = np.empty((K + 1, in_set.size * nu), dtype=bool)
    ok = packed_tables(model)[1].view(bool)  # ok is 0/1
    good[:K] = (in_set[:, None] & ok).reshape(K, -1)
    good[K] = in_set.repeat(nu)
    return good


def _good_steps(model, good, states, controls):
    """(l, good[s, m]) for l = L, L-1, ..., 0: at step l of trajectory
    (s, m) the state is acceptable and the control played admissible, as
    the _good_table `good` says; the terminal step l = L plays no control,
    so only its state counts."""
    L = controls.shape[2]
    nu = np.intp(model.n_controls)  # cell indices in intp
    for l in range(L, -1, -1):
        cell = states[:, :, l] * nu
        if l < L:
            cell += controls[:, :, l]
        yield l, good[model.horizon - L + l].take(cell)


def _viable_mask(model, good, states, controls):
    """viable[s, m]: every state acceptable and every control admissible
    along the trajectory, as the _good_table `good` says."""
    steps = _good_steps(model, good, states, controls)
    _, viable = next(steps)
    for _, good_l in steps:
        viable &= good_l
    return viable


def _recovery_offsets(model, good, states, controls):
    """Per-trajectory recovery time offsets: the least step l from which
    every step is good, as the _good_table `good` says (float, inf when
    there is none)."""
    suffix = np.ones(states.shape[:2], dtype=bool)
    first = np.full(states.shape[:2], math.inf)
    for l, good_l in _good_steps(model, good, states, controls):
        suffix &= good_l  # the steps l..L are all good
        first = np.where(suffix, l, first)
    return first


def _batch_member(model, regime, scenarios, start):
    """The regimes._membership of a regime in _BATCHED_REGIMES as a function
    of the simulate_batch arrays (states (S, M, L+1), controls (S, M, L)) of
    a block run from `start` over `scenarios`, a _Scenarios in the arrays'
    scenario order: it returns member[s] for strategy s of the block. The
    regime's masks are built here, once per oracle call."""
    if isinstance(regime, Viability):
        good = _good_table(model, regime.acceptable)
        return lambda states, controls: _viable_mask(
            model, good, states, controls
        ).all(axis=1)

    if isinstance(regime, RobustRecovery):
        good = _good_table(model, regime.acceptable)
        # scenarios outside the robust set are met whatever happens
        waived = np.zeros(len(scenarios.scenarios), dtype=bool)
        if not scenarios.robust_only:
            waived = ~np.array(scenarios.robust, dtype=bool)

        def member(states, controls):
            offsets = _recovery_offsets(model, good, states, controls)
            met = start + offsets <= regime.deadline  # an absolute time
            return (waived | met).all(axis=1)
        return member

    if isinstance(regime, Bounded):
        region = _state_mask(model, regime.region)
        return lambda states, controls: region[states].all(axis=(1, 2))

    if isinstance(regime, AtMostKExits):
        outside = ~_state_mask(model, regime.region)
        waived = np.zeros(len(scenarios.scenarios), dtype=bool)
        if model.uncertainty.has_probs or model.scenario_probs is not None:
            # zero-weight scenarios do not count
            waived = np.array(scenarios.weights, dtype=np.float64) <= 0.0

        def member(states, controls):
            exits = outside[states].sum(axis=2)
            return (waived | (exits <= regime.max_exits)).all(axis=1)
        return member

    if isinstance(regime, Stabilize):
        near = _ball(model, regime)
        first = max(start, model.horizon - regime.window) - start
        return lambda states, controls: near[states[:, :, first:]].all(
            axis=(1, 2)
        )

    if isinstance(regime, ControlEvent):
        used = np.zeros(model.n_controls, dtype=bool)
        used[[int(u) for u in regime.controls]] = True
        return lambda states, controls: used[controls].any(axis=2).all(axis=1)

    raise InputError(f"regime {regime!r} has no batched membership")


def _batched(regime, strategy_class, force_object=False):
    return (
        not force_object
        and strategy_class == MARKOV
        and isinstance(regime, _BATCHED_REGIMES)
    )


def oracle_resilient_states(
    model: SystemModel,
    start: int,
    regime,
    strategy_class: str = MARKOV,
    cap: int = DEFAULT_STRATEGY_CAP,
    force_object: bool = False,
) -> ResilientSet:
    """Resilient states by scanning the whole strategy class: for each x0,
    the first strategy (in rank order) passing check_resilient is the
    witness. Markov scans of the regimes in _BATCHED_REGIMES run batched;
    everything else walks the definitional object path. The regime, then
    start (in count_strategies), are checked before the class is counted."""
    validate_regime(model, regime)
    start, total = _check_cap(model, strategy_class, start, cap)
    scenarios = _scan_scenarios(model, regime)

    witnesses = {}
    if _batched(regime, strategy_class, force_object):
        planes = successor_planes(model)
        scen = scenarios.table
        member_of = _batch_member(model, regime, scenarios, start)
        n = model.n_states
        for _, pol in _policy_batches(model, start, total, len(scen)):
            for x0 in range(n):
                if x0 in witnesses:
                    continue
                member = member_of(
                    *simulate_batch(planes, pol, scen, x0, start)
                )
                if member.any():
                    witnesses[x0] = _markov_from_table(
                        pol[int(member.argmax()), start:, :n], start
                    )
            if len(witnesses) == n:
                break
        witnesses = dict(sorted(witnesses.items()))  # in x0 order
    else:
        pending = set(range(model.n_states))
        for strat in enumerate_strategies(model, strategy_class, start, cap=cap):
            if not pending:
                break
            for x0 in sorted(pending):
                bundle = _bundle(model, strat, x0, start, scenarios)
                if _membership(model, regime, bundle, scenarios):
                    witnesses[x0] = strat
                    pending.discard(x0)
    return ResilientSet(
        start, regime, strategy_class, frozenset(witnesses), witnesses,
        "oracle",
    )


def oracle_value(
    model: SystemModel, acceptable, start: int = 0, cap: int = DEFAULT_STRATEGY_CAP
) -> np.ndarray:
    """Per-state maximum, over every Markov strategy, of the exact
    probability of staying viable in `acceptable` from `start`. The set,
    then start (in count_strategies), are checked before the count."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    start, total = _check_cap(model, MARKOV, start, cap)
    planes = successor_planes(model)
    scenarios = _Scenarios(model)
    scen = scenarios.table
    weights = np.array(scenarios.weights, dtype=np.float64)
    good = _good_table(model, acceptable)
    best = [0.0] * model.n_states
    for _, pol in _policy_batches(model, start, total, len(scen)):
        for x0 in range(model.n_states):
            viable = _viable_mask(
                model, good, *simulate_batch(planes, pol, scen, x0, start)
            )
            # a row sum rounds the same whatever the block's row count; a
            # BLAS matrix-vector product does not
            probs = np.where(viable, weights, 0.0).sum(axis=1)
            best[x0] = max(best[x0], float(probs.max()))
    return np.array(best, dtype=np.float64)


def oracle_recovery_offsets(
    model: SystemModel, acceptable, start: int = 0, cap: int = DEFAULT_STRATEGY_CAP
):
    """Min over Markov strategies of the max over robust scenarios of the
    recovery time offset, per state; also the witnessing strategy ranks.

    Returns (offsets float (n,), ranks int64 (n,)); rank -1 when no
    strategy recovers at all (offset inf). The set, then start (in
    count_strategies), are checked before the count."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    start, total = _check_cap(model, MARKOV, start, cap)
    planes = successor_planes(model)
    scen = _Scenarios(model, robust_only=True).table
    good = _good_table(model, acceptable)
    offsets = np.full(model.n_states, math.inf, dtype=np.float64)
    ranks = np.full(model.n_states, -1, dtype=np.int64)
    for first_rank, pol in _policy_batches(model, start, total, len(scen)):
        for x0 in range(model.n_states):
            per_traj = _recovery_offsets(
                model, good, *simulate_batch(planes, pol, scen, x0, start)
            )
            per_strategy = per_traj.max(axis=1)
            i = int(per_strategy.argmin())
            if per_strategy[i] < offsets[x0]:
                offsets[x0] = float(per_strategy[i])
                ranks[x0] = first_rank + i
    return offsets, ranks


def _object_members(model, regime, strategy_class, x0, start, scenarios, cap):
    """(strategy, full-domain bundle) for each strategy of the class meeting
    the regime from x0 over `scenarios`, in rank order."""
    for strat in enumerate_strategies(model, strategy_class, start, cap=cap):
        bundle = _bundle(model, strat, x0, start, scenarios)
        if _membership(model, regime, bundle, scenarios):
            if bundle.robust:
                # the full scenario set is enumerated at the first member only
                bundle = _bundle(model, strat, x0, start, scenarios.full)
            yield strat, bundle


def _row_bundle(x0, start, scenarios, states, controls):
    """The bundle strategy._bundle builds for a strategy whose simulate_batch
    rows, run from x0 at `start` over the _Scenarios `scenarios`, are states
    (M, L+1) and controls (M, L)."""
    return TrajectoryBundle(
        start, x0, scenarios.robust_only, scenarios.scenarios,
        tuple(
            Trajectory(start, tuple(xs), tuple(us), scen)
            for xs, us, scen in zip(
                states.tolist(), controls.tolist(), scenarios.scenarios
            )
        ),
    )


def _member_rows(model, regime, scenarios, x0, start, total):
    """(tables, full, states, controls) for each block of Markov strategies
    (of `total`, from `start`, in ascending rank) with members of a regime
    in _BATCHED_REGIMES from x0 over `scenarios`: the members' policy tables
    (k, L, n) and their simulate_batch rows (k, M, L+1) and (k, M, L) over
    the full scenario set, the _Scenarios `full`."""
    planes = successor_planes(model)
    scen = scenarios.table
    member_of = _batch_member(model, regime, scenarios, start)
    n, L = model.n_states, model.horizon - start
    for _, pol in _policy_batches(model, start, total, len(scen)):
        states, controls = simulate_batch(planes, pol, scen, x0, start)
        member = np.flatnonzero(member_of(states, controls))
        if not member.size:
            continue
        if not scenarios.robust_only:
            yield (pol[member, start:, :n], scenarios, states[member],
                   controls[member])
            continue
        # membership was read on the robust scenarios only: run the members
        # again over the full set, at most _CELLS cells at a time
        full = scenarios.full
        step = max(1, _CELLS // (len(full.scenarios) * (L + 1)))
        for a in range(0, member.size, step):
            rows = pol[member[a : a + step]]
            yield (rows[:, start:, :n], full,
                   *simulate_batch(planes, rows, full.table, x0, start))


def _batched_priced(model, regime, risk, scenarios, x0, start, total):
    """(policy table, risk value) for each Markov strategy meeting a regime
    in _BATCHED_REGIMES, in ascending rank. A member's bundle is a function
    of its simulated rows alone (x0, start and the scenarios are fixed), so
    each distinct bundle of a block is built from the rows of the first
    member that has it and priced once; the memo dies with its block, which
    bounds it."""
    for tables, full, states, controls in _member_rows(
        model, regime, scenarios, x0, start, total
    ):
        k = len(tables)
        # one bytes key per member: its states and controls rows
        rows = np.concatenate(
            (states.reshape(k, -1), controls.reshape(k, -1)), axis=1
        )
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        priced = {}
        for i, key in enumerate(keys.ravel().tolist()):
            value = priced.get(key)
            if value is None:
                bundle = _row_bundle(x0, start, full, states[i], controls[i])
                value = priced[key] = _evaluate(model, risk, bundle, full)
            yield tables[i], value


def oracle_min_risk(
    model: SystemModel,
    x0: int,
    start: int,
    regime,
    risk,
    strategy_class: str = MARKOV,
    cap: int = DEFAULT_STRATEGY_CAP,
):
    """Exact minimum risk over resilient strategies, +inf when none is
    resilient. Pure definition-chasing: every strategy of the class is
    tested for membership in rank order (a block of Markov ranks at a time on
    simulate_batch trajectories for the regimes in _BATCHED_REGIMES, one
    bundle per strategy otherwise), and each resilient one has its risk
    evaluated on its full-domain bundle. The batched route builds that
    bundle from the member's own simulated rows, and prices each distinct
    bundle once per block; ties keep the first (least rank) strategy, a
    NaN risk ranks after every number (the value is NaN only when every
    member's risk is), and the batched route builds a strategy for the
    winner only. The regime, the risk, x0 and start (in count_strategies)
    are checked in that order before the count.
    Returns (value, strategy or None, examined count)."""
    validate_regime(model, regime)
    validate_risk(model, risk)
    x0 = _check_x0(model, x0)
    start, total = _check_cap(model, strategy_class, start, cap)
    scenarios = _scan_scenarios(model, regime)
    batched = _batched(regime, strategy_class)
    if batched:
        members = _batched_priced(
            model, regime, risk, scenarios, x0, start, total
        )
    else:
        members = (
            (strat, _evaluate(model, risk, bundle, scenarios.full))
            for strat, bundle in _object_members(
                model, regime, strategy_class, x0, start, scenarios, cap
            )
        )
    best = math.inf
    best_member = None
    examined = 0
    for member, value in members:
        examined += 1
        if (best_member is None or value < best
                or math.isnan(best) and not math.isnan(value)):
            best = value
            best_member = member
    if batched and best_member is not None:
        # the batched route yields policy tables
        best_member = _markov_from_table(best_member, start)
    return best, best_member, examined
