"""Exact decision procedures for resilience.

Backward dynamic programming for the viability family (robust kernel,
stochastic viability value, layered min-max recovery) and an exhaustive
strategy search for every other regime. Every recursion, and the cost sweep
of the DP certificate in optimize, is a sequence of one array-level Bellman
backup (`_backup`). Witness policies use the smallest control index on ties
so outputs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigurationError, InputError
from .model import (
    DEFAULT_SCENARIO_CAP,
    SystemModel,
    _Scenarios,
    enumerate_scenarios,
    packed_tables,
)
from .regimes import (
    RobustRecovery,
    StochasticViability,
    Viability,
    _membership,
    validate_regime,
)
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    Strategy,
    _bundle,
    build_bundle,
    count_strategies,
    markov_strategy,
    rank_layout,
    strategy_from_rank,
)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Per-time viability kernel membership with witness controls.

    member: bool (K+1, n); witness: int32 (K, n), -1 outside the kernel.
    domain records whether the one-step condition ranged over the robust
    subsets or the full uncertainty sets.
    """

    acceptable: frozenset
    member: np.ndarray
    witness: np.ndarray
    domain: str

    def member_set(self, t):
        return frozenset(np.flatnonzero(self.member[t]))


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Stochastic viability value V_t(x) with argmax witness controls."""

    acceptable: frozenset
    value: np.ndarray  # float64 (K+1, n)
    # int32 (K, n): -1 outside the acceptable set; inside it the least
    # admissible control attaining the max, even where V = 0
    witness: np.ndarray

    def resilient_set(self, t, beta):
        return frozenset(np.flatnonzero(self.value[t] >= beta))


@dataclass(frozen=True, eq=False)
class RecoveryTable:
    """Layered robust-recovery structure.

    layers[k, t, x] says x can be driven into the kernel within k steps
    from time t, whatever the robust scenario. min_layer is the least such
    k (inf when none within the deadline); r_star is min_layer at time 0.
    witness[t, x] is the control of the least-layer policy.
    """

    acceptable: frozenset
    deadline: int
    layers: np.ndarray  # bool (deadline+1, K+1, n)
    min_layer: np.ndarray  # float64 (K+1, n)
    witness: np.ndarray  # int32 (K, n), -1 where no finite layer
    r_star: np.ndarray  # float64 (n,)

    def resilient_set(self, t):
        """States resilient for RobustRecovery(acceptable, deadline) at t."""
        return frozenset(
            np.flatnonzero(self.min_layer[t] <= self.deadline - t)
        )


@dataclass(frozen=True, eq=False)
class ResilientSet:
    """resilient_states result: members plus one witness strategy each."""

    start: int
    regime: object
    strategy_class: str
    members: frozenset
    witnesses: dict  # state index -> Strategy
    method: str  # kernel | value | recovery | exhaustive


def _check_acceptable(model, acceptable):
    acceptable = frozenset(acceptable)
    for x in acceptable:
        if not isinstance(x, (int, np.integer)) or not 0 <= x < model.n_states:
            raise InputError(f"acceptable set contains invalid state {x!r}")
    return acceptable


def _uncertainty_ranges(model, domain):
    if domain == "robust":
        if model.robust_scenarios is not None:
            raise ConfigurationError(
                "explicit robust scenario lists are not a per-time product; "
                "the backward recursions need per-time robust subsets "
                "(membership and oracle paths honor the explicit list)"
            )
        return model.uncertainty.robust
    if domain != "full":
        raise InputError(f"unknown uncertainty domain {domain!r}")
    return tuple(
        tuple(range(model.uncertainty.size(t))) for t in range(model.horizon)
    )


def _backup(model, t, ws, target=None, values=None, probs=None, init=0.0,
            minimize=False):
    """One Bellman backup at time t for every state at once.

    A control qualifies at x when it is admissible and, if `target` (bool,
    n) is given, every w in `ws` leads into `target`; the cemetery never
    does. Without `values` the result is (x has a qualifying control, the
    least one or -1). With `values` (float64, n) and `probs`, a control
    scores init + sum of probs[w] * values[F_t(x, u, w)] over `ws`, added
    one w at a time in ascending order, the cemetery reading 0.0; the result
    is (the max, or with `minimize` the min, of the scores of qualifying
    controls, the least control attaining it or -1). Columns w outside `ws`,
    such as the padding w >= |W_t|, are never read.
    """
    dyn, ok = packed_tables(model)
    n = model.n_states
    nxt = dyn[t, :n][:, :, list(ws)]  # (n, nu, len(ws))
    allowed = ok[t, :n].astype(bool)
    if target is not None:
        allowed &= np.append(target, False)[nxt].all(axis=2)
    if values is None:
        found = allowed.any(axis=1)
        return found, np.where(found, allowed.argmax(axis=1), -1)
    reads = np.append(values, 0.0)[nxt]
    score = init
    # lanes of controls that do not qualify may read inf (0 * inf is NaN);
    # they are masked out below
    with np.errstate(over="ignore", invalid="ignore"):
        for j, w in enumerate(ws):
            score = score + probs[w] * reads[:, :, j]
    if minimize:
        # a strict-improvement scan from +inf never picks inf or NaN
        allowed &= score < math.inf
        score = np.where(allowed, score, math.inf)
        pick = score.argmin(axis=1)
    else:
        score = np.where(allowed, score, -math.inf)
        pick = score.argmax(axis=1)
    rows = np.arange(n)
    return score[rows, pick], np.where(allowed[rows, pick], pick, -1)


def robust_viability_kernel(
    model: SystemModel, acceptable, domain: str = "robust"
) -> KernelTable:
    """States from which some admissible control keeps the state in
    `acceptable` at every time, whatever the uncertainty in the domain
    ("robust": the per-time robust subsets; "full": the whole sets)."""
    acceptable = _check_acceptable(model, acceptable)
    ranges = _uncertainty_ranges(model, domain)
    K, n = model.horizon, model.n_states
    inside = np.isin(np.arange(n), list(acceptable))
    member = np.zeros((K + 1, n), dtype=bool)
    witness = np.full((K, n), -1, dtype=np.int32)
    member[K] = inside
    for t in range(K - 1, -1, -1):
        found, u = _backup(model, t, ranges[t], target=member[t + 1])
        member[t] = inside & found
        witness[t] = np.where(member[t], u, -1)
    member.setflags(write=False)
    witness.setflags(write=False)
    return KernelTable(acceptable, member, witness, domain)


def stochastic_viability_value(model: SystemModel, acceptable) -> ValueTable:
    """Maximal probability of staying in `acceptable` with admissible
    controls, by backward recursion under per-time independent noise."""
    acceptable = _check_acceptable(model, acceptable)
    if not model.uncertainty.has_probs:
        raise ConfigurationError(
            "stochastic viability needs per-time probability vectors"
        )
    if model.scenario_probs is not None:
        raise ConfigurationError(
            "explicit joint distributions are not supported by the value "
            "recursion (it assumes independence across times); use the "
            "membership or oracle path"
        )
    ranges = _uncertainty_ranges(model, "full")
    K, n = model.horizon, model.n_states
    inside = np.isin(np.arange(n), list(acceptable))
    value = np.zeros((K + 1, n), dtype=np.float64)
    witness = np.full((K, n), -1, dtype=np.int32)
    value[K] = inside
    for t in range(K - 1, -1, -1):
        best, u = _backup(
            model, t, ranges[t], values=value[t + 1],
            probs=model.uncertainty.probs[t],
        )
        value[t] = np.where(inside, best, 0.0)
        witness[t] = np.where(inside, u, -1)
    value.setflags(write=False)
    witness.setflags(write=False)
    return ValueTable(acceptable, value, witness)


def robust_recovery_table(
    model: SystemModel, acceptable, deadline: int
) -> RecoveryTable:
    """Layered reachability of the robust kernel: layer k at time t holds
    the states that can reach viability within k steps whatever the robust
    scenario. r_star is the least layer at time 0 (the min over strategies
    of the max over robust scenarios of the recovery time), +inf beyond the
    deadline."""
    acceptable = _check_acceptable(model, acceptable)
    if not 0 <= deadline <= model.horizon:
        raise InputError(
            f"deadline {deadline} outside 0..{model.horizon}"
        )
    ranges = _uncertainty_ranges(model, "robust")
    kernel = robust_viability_kernel(model, acceptable, domain="robust")
    K, n = model.horizon, model.n_states
    layers = np.zeros((deadline + 1, K + 1, n), dtype=bool)
    layers[0] = kernel.member
    # a state keeps the control of the layer it first enters
    witness = kernel.witness.copy()
    for k in range(1, deadline + 1):
        layers[k, K] = layers[k - 1, K]
        for t in range(K):
            found, u = _backup(model, t, ranges[t], target=layers[k - 1, t + 1])
            entering = found & ~layers[k - 1, t]
            layers[k, t] = layers[k - 1, t] | found
            witness[t, entering] = u[entering]

    min_layer = np.full((K + 1, n), math.inf, dtype=np.float64)
    for k in range(deadline, -1, -1):
        min_layer[layers[k]] = k
    r_star = min_layer[0].copy()
    for arr in (layers, min_layer, witness, r_star):
        arr.setflags(write=False)
    return RecoveryTable(acceptable, deadline, layers, min_layer, witness, r_star)


def fill_policy(model, picks, start):
    """Markov strategy from per-(t, x) picks; -1 entries fall back to the
    least admissible control (they are never visited by the witnesses)."""
    picks = picks[start:]
    least = model.constraints[start:].argmax(axis=2)
    return markov_strategy(model, np.where(picks >= 0, picks, least), start)


def check_resilient(
    model: SystemModel,
    strategy: Strategy,
    x0: int,
    start: int,
    regime,
    cap: int = DEFAULT_SCENARIO_CAP,
) -> bool:
    """Does the strategy realize the regime from x0 at time `start`?

    Builds the closed-loop bundle over the regime's quantification domain
    (the robust subset for RobustRecovery, the full scenario set otherwise)
    and evaluates membership.
    """
    validate_regime(model, regime)
    robust_only = isinstance(regime, RobustRecovery)
    bundle = build_bundle(
        model, strategy, x0, start=start, robust_only=robust_only, cap=cap
    )
    return _membership(
        model, regime, bundle, _Scenarios(model, bundle.scenarios, robust_only)
    )


def _scan_scenarios(model, regime, start, x0=None, cap=DEFAULT_SCENARIO_CAP):
    """The regime's scenario set for a scan that calls check_resilient on
    strategies from strategy_from_rank or enumerate_strategies at `start`.

    Such strategies are valid by construction once `start` is, so the
    checks check_resilient would repeat on each of them are made here, once,
    in its order: the scenario count against `cap`, the start time, then
    x0 when given. The scan then calls _bundle and _membership directly.
    """
    robust_only = isinstance(regime, RobustRecovery)
    scenarios = _Scenarios(
        model,
        enumerate_scenarios(model, robust_only=robust_only, cap=cap),
        robust_only,
    )
    if not 0 <= start <= model.horizon:
        raise InputError(
            f"strategy start {start} out of range 0..{model.horizon}"
        )
    if x0 is not None and not 0 <= x0 < model.n_states:
        raise InputError(f"x0 must be an ordinary state index, got {x0}")
    return scenarios


def resilient_states(
    model: SystemModel,
    start: int,
    regime,
    strategy_class: str = MARKOV,
    cap: int = DEFAULT_STRATEGY_CAP,
    scenario_cap: int = DEFAULT_SCENARIO_CAP,
) -> ResilientSet:
    """All states resilient at `start`, each with a witness strategy.

    Viability, RobustRecovery, and StochasticViability dispatch to the
    backward recursions (exact for both strategy classes); every other
    regime is decided by exhaustive search over the declared class, which
    visits one representative per class of strategies that agree on the
    policy slots reachable from x0 (strategy.rank_layout). The cap applies
    to the size of the whole class.
    """
    validate_regime(model, regime)
    if not 0 <= start <= model.horizon:
        raise InputError(f"start {start} outside 0..{model.horizon}")

    if isinstance(regime, Viability):
        kernel = robust_viability_kernel(model, regime.acceptable, domain="full")
        members = kernel.member_set(start)
        strat = fill_policy(model, kernel.witness, start)
        return ResilientSet(
            start, regime, strategy_class, members,
            {x: strat for x in members}, "kernel",
        )

    if isinstance(regime, RobustRecovery):
        table = robust_recovery_table(model, regime.acceptable, regime.deadline)
        members = table.resilient_set(start)
        strat = fill_policy(model, table.witness, start)
        return ResilientSet(
            start, regime, strategy_class, members,
            {x: strat for x in members}, "recovery",
        )

    if isinstance(regime, StochasticViability):
        table = stochastic_viability_value(model, regime.acceptable)
        members = table.resilient_set(start, regime.beta)
        strat = fill_policy(model, table.witness, start)
        return ResilientSet(
            start, regime, strategy_class, members,
            {x: strat for x in members}, "value",
        )

    total = count_strategies(model, strategy_class, start)
    if total > cap:
        raise CapacityError(
            f"{total} {strategy_class} strategies exceed cap {cap}; "
            "viability-family regimes dispatch to exact recursions instead"
        )
    scenarios = _scan_scenarios(model, regime, start, cap=scenario_cap)
    # each x0's witness is its least-rank resilient strategy, which is the
    # first resilient representative; equal witnesses share one object
    witnesses = {}
    by_rank = {}
    for x0 in range(model.n_states):
        layout = rank_layout(model, x0, strategy_class, start)
        for i in range(layout.size):
            rank = layout.rank(i)
            strat = by_rank.get(rank) or strategy_from_rank(
                model, rank, strategy_class, start
            )
            bundle = _bundle(model, strat, x0, start, scenarios)
            if _membership(model, regime, bundle, scenarios):
                witnesses[x0] = by_rank.setdefault(rank, strat)
                break
    return ResilientSet(
        start, regime, strategy_class, frozenset(witnesses), witnesses,
        "exhaustive",
    )
