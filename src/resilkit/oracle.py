"""Brute-force reference implementations.

Everything here decides resilience questions by enumerating whole strategy
classes and chasing definitions, sharing only the model tables, the
simulation kernels, and the membership and risk predicates with the rest of
the package. The object-level scans share the package's unchecked
closed-loop kernels (`strategy._bundle`, `regimes._membership`,
`risk._evaluate`, with the regime, risk, start and x0 checked once per call
as check_resilient would check them), exactly as the production scan does.
Nothing else is shared: the recursions in `engine`, the pruning of
unreachable policy slots (`strategy.rank_layout`) and the fast path in
`optimize` are never called, and every strategy of the class is visited in
rank order. These routines exist to check those three.

Markov enumerations run through the batched numpy simulation kernel
(`_sim.simulate_batch`, called nowhere else in the package); the plain
object-level scan (`force_object=True`) is the definitional reference the
batch path is tested against. Caps are hard errors: a truncated scan would
not be a reference.
"""

from __future__ import annotations

import math

import numpy as np

from .engine import ResilientSet, _scan_scenarios
from .errors import CapacityError, InputError
from .model import (
    SystemModel,
    enumerate_scenarios,
    packed_tables,
    scenario_weights,
)
from .regimes import Viability, _membership, validate_regime
from .risk import _evaluate, validate_risk
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    _bundle,
    count_strategies,
    enumerate_strategies,
    strategy_from_rank,
)
from ._sim import simulate_batch

_BATCH = 8192


def _check_cap(model, kind, start, cap):
    total = count_strategies(model, kind, start)
    if total > cap:
        raise CapacityError(f"{total} {kind} strategies exceed cap {cap}")
    return total


def _scenario_array(model, robust_only):
    scenarios = enumerate_scenarios(model, robust_only=robust_only)
    return scenarios, np.array(scenarios, dtype=np.int32).reshape(
        len(scenarios), model.horizon
    )


def _policy_batches(model, start, total, batch=_BATCH):
    """Yield (first_rank, policies) covering ranks 0..total-1 in order;
    policies is int32 (chunk, K, n+1) ready for the simulation kernel."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    slots = n * (K - start)
    dims = (nu,) * slots
    for a in range(0, total, batch):
        b = min(total, a + batch)
        ranks = np.arange(a, b, dtype=np.int64)
        if slots:
            digits = np.stack(np.unravel_index(ranks, dims), axis=1)
        else:
            digits = np.zeros((b - a, 0), dtype=np.int64)
        pol = np.zeros((b - a, K, n + 1), dtype=np.int32)
        if slots:
            pol[:, start:, :n] = digits.reshape(b - a, K - start, n)
        yield a, pol


def _good_mask(model, acceptable, states, controls):
    """good[s, m, l]: at step l of trajectory (s, m) the state is in
    `acceptable` and the control played is admissible; the terminal step
    l = L plays no control, so only its state counts."""
    dyn, ok = packed_tables(model)
    S, M, L = controls.shape
    in_a = np.zeros(model.n_states + 1, dtype=bool)
    for x in acceptable:
        in_a[x] = True
    adm = np.empty((S, M, L + 1), dtype=bool)
    adm[:, :, L] = True
    for l in range(L):
        t = model.horizon - L + l
        adm[:, :, l] = ok[t][states[:, :, l], controls[:, :, l]].astype(bool)
    return in_a[states] & adm


def _viable_mask(model, acceptable, states, controls):
    """viable[s, m]: every state in `acceptable` and every control
    admissible along the trajectory."""
    return _good_mask(model, acceptable, states, controls).all(axis=2)


def _recovery_offsets(model, acceptable, states, controls):
    """Per-trajectory recovery time offsets (float, inf when never)."""
    good = _good_mask(model, acceptable, states, controls)
    suffix = np.logical_and.accumulate(good[:, :, ::-1], axis=2)[:, :, ::-1]
    any_suffix = suffix.any(axis=2)
    first = suffix.argmax(axis=2).astype(np.float64)
    first[~any_suffix] = math.inf
    return first


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
    witness. Markov Viability scans run batched; everything else walks the
    definitional object path."""
    validate_regime(model, regime)
    if not 0 <= start <= model.horizon:
        raise InputError(f"start {start} outside 0..{model.horizon}")
    total = _check_cap(model, strategy_class, start, cap)

    if (
        not force_object
        and strategy_class == MARKOV
        and isinstance(regime, Viability)
    ):
        dyn, ok = packed_tables(model)
        _, scen = _scenario_array(model, robust_only=False)
        ranks = {}
        for x0 in range(model.n_states):
            for first_rank, pol in _policy_batches(model, start, total):
                states, controls = simulate_batch(dyn, ok, pol, scen, x0, start)
                viable = _viable_mask(model, regime.acceptable, states, controls)
                hits = np.flatnonzero(viable.all(axis=1))
                if hits.size:
                    ranks[x0] = first_rank + int(hits[0])
                    break
        witnesses = {
            x0: strategy_from_rank(model, r, MARKOV, start)
            for x0, r in ranks.items()
        }
        return ResilientSet(
            start, regime, strategy_class, frozenset(witnesses), witnesses,
            "oracle",
        )

    scenarios = _scan_scenarios(model, regime, start)
    witnesses = {}
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
    probability of staying viable in `acceptable` from `start`."""
    total = _check_cap(model, MARKOV, start, cap)
    dyn, ok = packed_tables(model)
    scenarios, scen = _scenario_array(model, robust_only=False)
    weights = scenario_weights(model, scenarios)
    out = np.zeros(model.n_states, dtype=np.float64)
    for x0 in range(model.n_states):
        best = 0.0
        for _, pol in _policy_batches(model, start, total):
            states, controls = simulate_batch(dyn, ok, pol, scen, x0, start)
            viable = _viable_mask(model, acceptable, states, controls)
            probs = viable.astype(np.float64) @ weights
            m = float(probs.max()) if probs.size else 0.0
            best = max(best, m)
        out[x0] = best
    return out


def oracle_recovery_offsets(
    model: SystemModel, acceptable, start: int = 0, cap: int = DEFAULT_STRATEGY_CAP
):
    """Min over Markov strategies of the max over robust scenarios of the
    recovery time offset, per state; also the witnessing strategy ranks.

    Returns (offsets float (n,), ranks int64 (n,)); rank -1 when no
    strategy recovers at all (offset inf)."""
    total = _check_cap(model, MARKOV, start, cap)
    dyn, ok = packed_tables(model)
    _, scen = _scenario_array(model, robust_only=True)
    offsets = np.full(model.n_states, math.inf, dtype=np.float64)
    ranks = np.full(model.n_states, -1, dtype=np.int64)
    for x0 in range(model.n_states):
        for first_rank, pol in _policy_batches(model, start, total):
            per_traj = _recovery_offsets(
                model, acceptable, *simulate_batch(dyn, ok, pol, scen, x0, start)
            )
            per_strategy = per_traj.max(axis=1)
            i = int(per_strategy.argmin())
            if per_strategy[i] < offsets[x0]:
                offsets[x0] = float(per_strategy[i])
                ranks[x0] = first_rank + i
    return offsets, ranks


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
    resilient. Pure definition-chasing; ties keep the first (least rank)
    strategy. Returns (value, strategy or None, examined count)."""
    validate_regime(model, regime)
    validate_risk(model, risk)
    _check_cap(model, strategy_class, start, cap)
    strategies = enumerate_strategies(model, strategy_class, start, cap=cap)
    scenarios = _scan_scenarios(model, regime, start, x0)
    best = math.inf
    best_strategy = None
    examined = 0
    for strat in strategies:
        bundle = _bundle(model, strat, x0, start, scenarios)
        if not _membership(model, regime, bundle, scenarios):
            continue
        examined += 1
        full = scenarios.full
        if bundle.robust:
            bundle = _bundle(model, strat, x0, start, full)
        value = _evaluate(model, risk, bundle, full)
        if best_strategy is None or value < best:
            best = value
            best_strategy = strat
    return best, best_strategy, examined
