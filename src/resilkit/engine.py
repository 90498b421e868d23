"""Exact decision procedures for resilience.

Backward dynamic programming for the viability family and an exhaustive
strategy search for every other regime. The robust kernel and robust
recovery are one min-max sweep: the least worst-case number of steps to the
kernel, whose zero level is the kernel. The stochastic viability value is a
max-expectation sweep, and the DP certificate in optimize a min-expectation
one. Every sweep is a sequence of one array-level Bellman backup
(`_backup`), one call per time. Witness policies use the smallest control
index on ties so outputs are reproducible.
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
    _check_state_set,
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
    """Least worst-case recovery times into the robust kernel.

    min_layer[t, x] is the least k such that some strategy drives x from
    time t into the kernel within k steps whatever the robust scenario
    (inf when none within the deadline); r_star is min_layer at time 0.
    witness[t, x] is the least control attaining it.
    """

    acceptable: frozenset
    deadline: int
    min_layer: np.ndarray  # float64 (K+1, n)
    witness: np.ndarray  # int32 (K, n), -1 where no finite layer
    r_star: np.ndarray  # float64 (n,)

    @property
    def layers(self):
        """Read-only bool (deadline+1, K+1, n): layers[k, t, x] says x can
        be driven into the kernel within k steps from time t."""
        layers = np.arange(self.deadline + 1)[:, None, None] >= self.min_layer
        layers.setflags(write=False)
        return layers

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


def _acceptable_mask(model, acceptable):
    """(acceptable as a checked frozenset, bool (n,) membership mask)."""
    acceptable = frozenset(acceptable)
    _check_state_set(model, acceptable, "acceptable set")
    return acceptable, np.isin(np.arange(model.n_states), list(acceptable))


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


def _backup(model, t, ws, values, pad, probs=None, init=0.0, minimize=True):
    """One Bellman backup at time t for every state at once.

    A control u scores at x from the reads values[F_t(x, u, w)] (float64,
    n) over w in `ws`, the cemetery reading `pad`: without `probs` the max
    of the reads; with `probs` init + the sum of probs[w] * read, added one
    w at a time in ascending order. The result is (the min, or without
    `minimize` the max, of the scores of the admissible controls; the least
    control attaining it or -1). Minimizing, a control scoring inf or NaN
    never attains; maximizing, admissible scores must be finite. Columns w
    outside `ws`, such as the padding w >= |W_t|, are never read.
    """
    dyn, ok = packed_tables(model)
    n = model.n_states
    # (len(ws), n, nu), C-ordered: reduces over w run on whole (n, nu)
    # planes and the take reads a contiguous index
    nxt = dyn[t, :n, :, list(ws)]
    reads = np.append(values, pad).take(nxt)
    if probs is None:
        score = reads.max(axis=0)
    else:
        score = init
        # an inf read weighted 0 gives NaN; minimizing masks it out below
        with np.errstate(over="ignore", invalid="ignore"):
            for j, w in enumerate(ws):
                score = score + probs[w] * reads[j]
    allowed = ok[t, :n].astype(bool)
    if minimize:
        # a strict-improvement scan from +inf never picks inf or NaN
        score = np.where(allowed & (score < math.inf), score, math.inf)
        pick = score.argmin(axis=1)
    else:
        score = np.where(allowed, score, -math.inf)
        pick = score.argmax(axis=1)
    best = score[np.arange(n), pick]
    return best, np.where(np.isfinite(best), pick, -1)


def _min_max_sweep(model, inside, ranges, deadline):
    """Least worst-case layers and their witnesses, one backup per time.

    L_K is 0 on `inside` and inf elsewhere. With m = min over admissible u
    of the max over ranges[t] of L_{t+1}(F_t(x, u, w)), the cemetery
    reading inf, L_t is 0 where x is inside and m = 0, else 1 + m. Returns
    (L with inf above the deadline: float64 (K+1, n); the least control
    attaining m where that L is finite, else -1: int32 (K, n)). Capping
    once at the end gives the per-time capped sweep: the cap is monotone,
    so it commutes with the max, the min and the step.
    """
    K, n = model.horizon, model.n_states
    layer = np.full((K + 1, n), math.inf)
    witness = np.empty((K, n), dtype=np.int32)
    layer[K, inside] = 0.0
    for t in range(K - 1, -1, -1):
        m, witness[t] = _backup(model, t, ranges[t], layer[t + 1], math.inf)
        layer[t] = np.where(inside & (m == 0.0), 0.0, m + 1.0)
    late = layer > deadline
    layer[late] = math.inf
    witness[late[:K]] = -1
    return layer, witness


def robust_viability_kernel(
    model: SystemModel, acceptable, domain: str = "robust"
) -> KernelTable:
    """States from which some admissible control keeps the state in
    `acceptable` at every time, whatever the uncertainty in the domain
    ("robust": the per-time robust subsets; "full": the whole sets)."""
    acceptable, inside = _acceptable_mask(model, acceptable)
    ranges = _uncertainty_ranges(model, domain)
    layer, witness = _min_max_sweep(model, inside, ranges, 0)
    member = layer == 0.0
    member.setflags(write=False)
    witness.setflags(write=False)
    return KernelTable(acceptable, member, witness, domain)


def stochastic_viability_value(model: SystemModel, acceptable) -> ValueTable:
    """Maximal probability of staying in `acceptable` with admissible
    controls, by backward recursion under per-time independent noise."""
    acceptable, inside = _acceptable_mask(model, acceptable)
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
    value = np.zeros((K + 1, n), dtype=np.float64)
    witness = np.full((K, n), -1, dtype=np.int32)
    value[K] = inside
    for t in range(K - 1, -1, -1):
        best, u = _backup(
            model, t, ranges[t], value[t + 1], 0.0,
            probs=model.uncertainty.probs[t], minimize=False,
        )
        value[t] = np.where(inside, best, 0.0)
        witness[t] = np.where(inside, u, -1)
    value.setflags(write=False)
    witness.setflags(write=False)
    return ValueTable(acceptable, value, witness)


def robust_recovery_table(
    model: SystemModel, acceptable, deadline: int
) -> RecoveryTable:
    """Least worst-case recovery times into the robust kernel, by one
    min-max sweep over the robust subsets. r_star is the min over
    strategies of the max over robust scenarios of the recovery time, +inf
    beyond the deadline."""
    acceptable, inside = _acceptable_mask(model, acceptable)
    if not 0 <= deadline <= model.horizon:
        raise InputError(
            f"deadline {deadline} outside 0..{model.horizon}"
        )
    ranges = _uncertainty_ranges(model, "robust")
    min_layer, witness = _min_max_sweep(model, inside, ranges, deadline)
    r_star = min_layer[0].copy()
    for arr in (min_layer, witness, r_star):
        arr.setflags(write=False)
    return RecoveryTable(acceptable, deadline, min_layer, witness, r_star)


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
