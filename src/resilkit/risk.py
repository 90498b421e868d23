"""Risk measures over trajectory bundles.

A risk measure maps a closed-loop bundle to one number. The building blocks
are per-trajectory cost functions composed with an outer functional
(expectation, robust worst case over the robust scenario subset, or CVaR at
a tail mass level), plus a few direct measures: the 0/1 robust violation
indicator (states only), the probability of ever exiting (states or
controls), its robustified version over a belief set, and outer functionals
of the exit count.

Probability-weighted reductions accumulate in bundle (canonical scenario)
order so results are reproducible bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .errors import InputError
from .model import (SystemModel, _Scenarios, _check_probabilities,
                    _check_real, _check_table)
from .regimes import (
    _check_full_domain,
    _check_state_set,
    _exit_times,
    _good_paths,
    _recovery_time,
    _running_sum,
    _state_mask,
)
from .strategy import TrajectoryBundle, _check_bundle, _check_trajectory

# cost accrued per time step spent at the cemetery
CEMETERY_PENALTY = 1e18


@record
class Expectation:
    """Weight trajectories by scenario probability and sum."""


@record
class WorstCase:
    """Maximum over the robust scenario subset."""


@record
class CVaR:
    """Mean of the worst `level` probability mass (level in (0, 1];
    level 1 is the plain mean)."""

    level: float


@record
class TimeOutside:
    """Number of times the state sits outside `acceptable`."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY


@record
class ControlEffort:
    """Sum of per-control rates (default: each control's first coordinate)."""

    rates: tuple = None
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        if self.rates is not None:
            rates = tuple(_check_real(r, "effort rate") for r in self.rates)
            object.__setattr__(self, "rates", rates)


@record
class TerminalMiss:
    """1 when the final state is outside `acceptable`, else 0."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY


@record(eq=False)
class TabularCost:
    """Per-time cost tables, real tables (model._check_table; NaN and inf
    allowed): state_costs (K+1, n) and control_costs (K, nu)."""

    state_costs: np.ndarray
    control_costs: np.ndarray
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        for name in ("state_costs", "control_costs"):
            what = name.replace("_costs", " cost table")
            arr = _check_table(getattr(self, name), what, kind="real",
                               frozen=True)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, TabularCost):
            return NotImplemented
        return (
            np.array_equal(self.state_costs, other.state_costs)
            and np.array_equal(self.control_costs, other.control_costs)
            and self.cemetery_penalty == other.cemetery_penalty
        )


@record
class RecoveryOffset:
    """Time-to-recovery tau minus the start time (inf when never
    recovered)."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY


@record
class WorstCaseViolation:
    """1 when some robust scenario ever leaves `acceptable` (states only),
    else 0."""

    acceptable: frozenset


@record
class Exceedance:
    """Probability of ever exiting: state outside `acceptable` or control
    inadmissible."""

    acceptable: frozenset


@record
class AmbiguityExceedance:
    """Worst exceedance over a finite set of per-time probability
    assignments (each belief: one probability vector per time)."""

    acceptable: frozenset
    beliefs: tuple

    def __post_init__(self):
        beliefs = tuple(tuple(map(tuple, belief)) for belief in self.beliefs)
        object.__setattr__(self, "beliefs", beliefs)


@record
class ExitCountFunctional:
    """Outer functional of the exit count (states and controls both
    count as exits)."""

    acceptable: frozenset
    outer: object


@record
class Composed:
    """outer(cost(trajectory))."""

    cost: object
    outer: object


COST_KINDS = (
    TimeOutside,
    ControlEffort,
    TerminalMiss,
    TabularCost,
    RecoveryOffset,
)
OUTER_KINDS = (Expectation, WorstCase, CVaR)
RISK_KINDS = (
    WorstCaseViolation,
    Exceedance,
    AmbiguityExceedance,
    ExitCountFunctional,
    Composed,
)


def _check_outer(outer):
    if not isinstance(outer, OUTER_KINDS):
        raise InputError(f"unknown outer functional {outer!r}")
    if isinstance(outer, CVaR):
        _check_real(outer.level, "CVaR level", "(0, 1]")


def validate_cost(model: SystemModel, cost) -> None:
    if not isinstance(cost, COST_KINDS):
        raise InputError(f"unknown cost function {cost!r}")
    _check_real(cost.cemetery_penalty, "cemetery_penalty")
    if isinstance(cost, (TimeOutside, TerminalMiss, RecoveryOffset)):
        _check_state_set(model, cost.acceptable, "acceptable set")
    if isinstance(cost, ControlEffort) and cost.rates is not None:
        if len(cost.rates) != model.n_controls:
            raise InputError(
                f"{len(cost.rates)} effort rates for "
                f"{model.n_controls} controls"
            )
    if isinstance(cost, TabularCost):
        K, n, nu = model.horizon, model.n_states, model.n_controls
        for part, shape in (("state", (K + 1, n)), ("control", (K, nu))):
            _check_table(getattr(cost, f"{part}_costs"), f"{part} cost table",
                         shape, "real")


def validate_risk(model: SystemModel, spec) -> None:
    """Check a risk measure's parameters against the model. Each belief
    holds one vector per time, and each vector follows the probability
    rule of model.UncertaintyStructure's vectors."""
    if not isinstance(spec, RISK_KINDS):
        raise InputError(f"unknown risk measure {spec!r}")
    if not isinstance(spec, Composed):  # the kinds with an acceptable set
        _check_state_set(model, spec.acceptable, "acceptable set")
    if isinstance(spec, AmbiguityExceedance):
        if not spec.beliefs:
            raise InputError("need at least one belief")
        for b, belief in enumerate(spec.beliefs):
            if len(belief) != model.horizon:
                raise InputError(
                    f"belief {b} has {len(belief)} probability vectors, "
                    f"expected {model.horizon}"
                )
            for t, vec in enumerate(belief):
                _check_probabilities(
                    vec, f"belief {b} probabilities at time {t}",
                    model.uncertainty.size(t),
                )
    if isinstance(spec, ExitCountFunctional):
        _check_outer(spec.outer)
    if isinstance(spec, Composed):
        validate_cost(model, spec.cost)
        _check_outer(spec.outer)


def evaluate_cost(model: SystemModel, cost, trajectory) -> float:
    """Per-trajectory cost: the kind's base sum over non-cemetery steps,
    plus cemetery_penalty per time spent at the cemetery. A path that never
    reaches the cemetery pays no penalty, even an infinite one."""
    validate_cost(model, cost)
    trajectory = _check_trajectory(model, trajectory, isinstance(
        cost, (ControlEffort, TabularCost, RecoveryOffset)
    ))
    return _costs(model, cost, (trajectory,))[0]


def _costs(model, cost, trajectories):
    """evaluate_cost of a valid cost function on each valid trajectory
    (with controls where the kind reads them), unchecked, with the model
    reads made once. Base terms add up in time order."""
    K = model.horizon
    dead = model.cemetery
    if isinstance(cost, ControlEffort):
        if cost.rates is not None:
            rates = cost.rates
        else:
            rates = model.controls.coords[:, 0].tolist()
    out = []
    for trajectory in trajectories:
        start, states, controls = (
            trajectory.start, trajectory.states, trajectory.controls
        )
        steps = K - start
        path = states[: steps + 1]  # the states at start..K

        if isinstance(cost, RecoveryOffset):
            tau = _recovery_time(model, trajectory, cost.acceptable)
            base = tau - start if tau != math.inf else math.inf
        elif isinstance(cost, TimeOutside):
            base = 0.0
            for x in path:
                if x != dead and x not in cost.acceptable:
                    base += 1.0
        elif isinstance(cost, ControlEffort):
            base = 0.0
            for i in range(steps):
                if states[i] != dead:
                    base += rates[controls[i]]
        elif isinstance(cost, TerminalMiss):
            x = path[steps]
            if x == dead:
                base = 0.0  # the cemetery is charged through the penalty
            else:
                base = 0.0 if x in cost.acceptable else 1.0
        else:  # TabularCost
            base = 0.0
            for i, x in enumerate(path):
                if x == dead:
                    continue
                base += float(cost.state_costs[start + i, x])
                if i < steps:
                    base += float(cost.control_costs[start + i, controls[i]])
        dead_times = path.count(dead)
        # 0.0, not penalty * 0: an infinite penalty would make it NaN
        penalty = cost.cemetery_penalty * dead_times if dead_times else 0.0
        out.append(base + penalty)
    return out


# the per-time additive cost kinds: each charges a state cost at every time
# and a control cost at every step, as tabulated by _cost_tables
_ADDITIVE_COSTS = (TimeOutside, ControlEffort, TerminalMiss, TabularCost)


def _cost_tables(model, cost):
    """(state (K+1, n+1), control (K, nu)), float64: the charge of a cost of
    one of the _ADDITIVE_COSTS kinds for each state at each time and for
    each control at each step. The cemetery column is 0.0, since the
    penalty charges the cemetery; a control played there is charged
    nothing, which the path pricer masks."""
    K, n = model.horizon, model.n_states
    state = np.zeros((K + 1, n + 1))
    control = np.zeros((K, model.n_controls))
    if isinstance(cost, TabularCost):
        state[:, :n] = cost.state_costs
        control[:] = cost.control_costs
    elif isinstance(cost, ControlEffort):
        rates = cost.rates
        control[:] = model.controls.coords[:, 0] if rates is None else rates
    else:
        # TimeOutside charges rows 0..K, TerminalMiss row K only
        first = 0 if isinstance(cost, TimeOutside) else K
        state[first:, :n] = ~_state_mask(model, cost.acceptable)[:n]
    return state, control


def cvar(values, weights, level: float) -> float:
    """CVaR at tail mass `level`: the mean of the worst `level` of the
    distribution, splitting an atom when the boundary lands inside one.
    The values are a real table (model._check_table; NaN and inf allowed);
    the weights, one per value, follow the probability rule."""
    _check_real(level, "CVaR level", "(0, 1]")
    values = _check_table(values, "CVaR values", kind="real").tolist()
    weights = _check_probabilities(weights, "CVaR weights", len(values))
    return _cvar(values, weights, level)


def _cvar(values, weights, level):
    """cvar of a valid level, float values and valid weights, unchecked."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    remaining = level
    acc = 0.0
    for i in order:
        w = float(weights[i])
        if w <= 0.0:
            continue
        take = min(w, remaining)
        acc += take * values[i]
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / level


def _robust_positions(bundle, scenarios):
    if bundle.robust:
        return range(len(bundle.trajectories))
    return [i for i, robust in enumerate(scenarios.robust) if robust]


def _apply_outer(outer, bundle, scenarios, values):
    if isinstance(outer, Expectation):
        _check_full_domain(bundle)
        acc = 0.0
        for w, z in zip(scenarios.weights, values):
            if w != 0.0:
                acc += w * z
        return acc
    if isinstance(outer, WorstCase):
        return max(values[i] for i in _robust_positions(bundle, scenarios))
    _check_full_domain(bundle)  # CVaR
    return _cvar(values, scenarios.weights, outer.level)


def _exceeds(model, trajectory, acceptable):
    """Did the trajectory ever exit (states or controls)?"""
    return _recovery_time(model, trajectory, acceptable) != trajectory.start


def evaluate_risk(model: SystemModel, spec, bundle: TrajectoryBundle) -> float:
    """Evaluate a risk measure on a bundle."""
    validate_risk(model, spec)
    bundle = _check_bundle(model, bundle)
    scenarios = _Scenarios(model, bundle.scenarios, bundle.robust)
    return _evaluate(model, spec, bundle, scenarios)


def _evaluate(model, spec, bundle, scenarios):
    """evaluate_risk of a valid risk measure on a valid bundle, unchecked;
    `scenarios` is a _Scenarios over bundle.scenarios."""
    if isinstance(spec, WorstCaseViolation):
        for i in _robust_positions(bundle, scenarios):
            if _exit_times(model, bundle.trajectories[i], spec.acceptable):
                return 1.0
        return 0.0

    if isinstance(spec, Exceedance):
        _check_full_domain(bundle)
        acc = 0.0
        for w, tr in zip(scenarios.weights, bundle.trajectories):
            if _exceeds(model, tr, spec.acceptable):
                acc += w
        return acc

    if isinstance(spec, AmbiguityExceedance):
        _check_full_domain(bundle)
        worst = -math.inf
        for belief in spec.beliefs:
            acc = 0.0
            for scen, tr in zip(bundle.scenarios, bundle.trajectories):
                if not _exceeds(model, tr, spec.acceptable):
                    continue
                w = 1.0
                for t, wi in enumerate(scen):
                    w *= belief[t][wi]
                acc += w
            worst = max(worst, acc)
        return worst

    if isinstance(spec, ExitCountFunctional):
        counts = [
            float(len(_exit_times(model, tr, spec.acceptable, True)))
            for tr in bundle.trajectories
        ]
        return _apply_outer(spec.outer, bundle, scenarios, counts)

    costs = _costs(model, spec.cost, bundle.trajectories)  # Composed
    return _apply_outer(spec.outer, bundle, scenarios, costs)


# ------------------------------------------------ risk on path arrays
#
# The twins of _costs and _evaluate for a block of strategies simulated at
# once (see the path-array section of regimes): each makes the float
# operations of its bundle loop, in the same order, so every value is
# bit-identical. Python floats turn 0 * inf into NaN and overflow into inf
# without a word; numpy does the same under errstate.


def _path_costs(model, cost, states, controls, start):
    """_costs of every path: float64 (S, M); base terms add up in time
    order."""
    n = model.n_states
    alive = states != n
    L = controls.shape[2]
    if isinstance(cost, RecoveryOffset):
        good = _good_paths(model, cost.acceptable, states, controls, start)
        # recovery at offset L + 1 - (length of the all-good suffix),
        # never when that length is 0
        suffix = np.logical_and.accumulate(good[:, :, ::-1], axis=2)
        length = suffix.sum(axis=2)
        base = np.where(length > 0, (L + 1 - length).astype(float), math.inf)
    else:  # the _ADDITIVE_COSTS
        state, control = _cost_tables(model, cost)
        base = np.zeros(states.shape[:2])
        for l in range(L + 1):
            base = base + state[start + l][states[:, :, l]]
            if l < L:
                row = control[start + l]
                base = base + np.where(
                    alive[:, :, l], row[controls[:, :, l]], 0.0
                )
    dead_times = (~alive).sum(axis=2)
    penalty = float(cost.cemetery_penalty) * dead_times
    return base + np.where(dead_times > 0, penalty, 0.0)


def _cvar_rows(values, weights, level):
    """cvar of each row of values (S, M) under one weight vector.

    The loop walks the atoms in the stable descending order and takes
    min(w, remaining) of each positive one until the mass still wanted is
    used up. Before each atom that mass is level - w - w - ..., the running
    differences in the walk's order; from the first atom that takes all of
    it on, it is <= 0, so the atoms with a positive take are the ones the
    loop takes, and their terms add up in its order. Rows holding NaN sort
    differently under Python's comparisons and go through _cvar itself.
    """
    S, M = values.shape
    order = np.argsort(-values, axis=1, kind="stable")
    v = values[np.arange(S)[:, None], order]
    w = weights[order]
    head = np.full((S, 1), float(level))
    remaining = np.subtract.accumulate(
        np.hstack([head, w[:, :-1]]), axis=1
    )
    take = np.minimum(w, remaining)
    with np.errstate(invalid="ignore"):  # 0 * inf in atoms not taken
        terms = np.where(take > 0.0, take * v, 0.0)
    out = _running_sum(terms) / level
    for s in np.flatnonzero(np.isnan(values).any(axis=1)):
        out[s] = _cvar(values[s].tolist(), weights, level)
    return out


def _outer_paths(outer, values, scenarios):
    """_apply_outer on every row of values (S, M) over the full domain."""
    if isinstance(outer, WorstCase):
        # max() keeps the first of equal values and never moves off NaN
        robust = np.flatnonzero(scenarios.robust)
        best = values[:, robust[0]]
        for j in robust[1:]:
            best = np.where(values[:, j] > best, values[:, j], best)
        return best
    weights = np.asarray(scenarios.weights, dtype=np.float64)
    if isinstance(outer, Expectation):
        return _running_sum(np.where(weights != 0.0, weights * values, 0.0))
    return _cvar_rows(values, weights, outer.level)  # CVaR


def _evaluate_paths(model, spec, states, controls, scenarios, start):
    """_evaluate of a valid risk measure on the full-domain bundle of each
    strategy of a simulated block: float64 (S,), bit-identical to it.
    states (S, M, L+1) and controls (S, M, L) are the simulate_batch
    arrays of the block run from `start` over `scenarios`, the full
    scenario set's _Scenarios in the arrays' order."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, WorstCaseViolation):
            exits = ~_state_mask(model, spec.acceptable)[states].all(axis=2)
            robust = np.asarray(scenarios.robust, dtype=bool)
            return np.where(exits[:, robust].any(axis=1), 1.0, 0.0)
        if isinstance(spec, Composed):
            costs = _path_costs(model, spec.cost, states, controls, start)
            return _outer_paths(spec.outer, costs, scenarios)
        good = _good_paths(model, spec.acceptable, states, controls, start)
        if isinstance(spec, ExitCountFunctional):
            counts = (~good).sum(axis=2).astype(np.float64)
            return _outer_paths(spec.outer, counts, scenarios)
        exceeds = ~good.all(axis=2)
        if isinstance(spec, Exceedance):
            weights = np.asarray(scenarios.weights, dtype=np.float64)
            return _running_sum(np.where(exceeds, weights, 0.0))
        table = scenarios.table
        worst = np.full(len(states), -math.inf)
        for belief in spec.beliefs:
            weights = np.ones(len(table))
            for t, vec in enumerate(belief):
                weights = weights * np.asarray(vec)[table[:, t]]
            acc = _running_sum(np.where(exceeds, weights, 0.0))
            worst = np.where(acc > worst, acc, worst)
        return worst
