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
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .model import SystemModel, _Scenarios
from .regimes import _check_state_set, exit_times, recovery_time
from .strategy import TrajectoryBundle

# cost accrued per time step spent at the cemetery
CEMETERY_PENALTY = 1e18


@dataclass(frozen=True)
class Expectation:
    """Weight trajectories by scenario probability and sum."""


@dataclass(frozen=True)
class WorstCase:
    """Maximum over the robust scenario subset."""


@dataclass(frozen=True)
class CVaR:
    """Mean of the worst `level` probability mass (level in (0, 1];
    level 1 is the plain mean)."""

    level: float


@dataclass(frozen=True)
class TimeOutside:
    """Number of times the state sits outside `acceptable`."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True)
class ControlEffort:
    """Sum of per-control rates (default: each control's first coordinate)."""

    rates: tuple = None
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        if self.rates is not None:
            object.__setattr__(
                self, "rates", tuple(float(r) for r in self.rates)
            )


@dataclass(frozen=True)
class TerminalMiss:
    """1 when the final state is outside `acceptable`, else 0."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True, eq=False)
class TabularCost:
    """Arbitrary per-time state and control cost tables:
    state_costs (K+1, n) and control_costs (K, nu)."""

    state_costs: np.ndarray
    control_costs: np.ndarray
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        for name in ("state_costs", "control_costs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, TabularCost):
            return NotImplemented
        return (
            np.array_equal(self.state_costs, other.state_costs)
            and np.array_equal(self.control_costs, other.control_costs)
            and self.cemetery_penalty == other.cemetery_penalty
        )


@dataclass(frozen=True)
class RecoveryOffset:
    """Time-to-recovery tau minus the start time (inf when never
    recovered)."""

    acceptable: frozenset
    cemetery_penalty: float = CEMETERY_PENALTY

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True)
class WorstCaseViolation:
    """1 when some robust scenario ever leaves `acceptable` (states only),
    else 0."""

    acceptable: frozenset

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True)
class Exceedance:
    """Probability of ever exiting: state outside `acceptable` or control
    inadmissible."""

    acceptable: frozenset

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True)
class AmbiguityExceedance:
    """Worst exceedance over a finite set of per-time probability
    assignments (each belief: one probability vector per time)."""

    acceptable: frozenset
    beliefs: tuple

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))
        beliefs = tuple(
            tuple(tuple(float(p) for p in vec) for vec in belief)
            for belief in self.beliefs
        )
        object.__setattr__(self, "beliefs", beliefs)


@dataclass(frozen=True)
class ExitCountFunctional:
    """Outer functional of the exit count (states and controls both
    count as exits)."""

    acceptable: frozenset
    outer: object

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@dataclass(frozen=True)
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
    if isinstance(outer, CVaR) and not 0.0 < outer.level <= 1.0:
        raise InputError(f"CVaR level {outer.level!r} outside (0, 1]")


def validate_cost(model: SystemModel, cost) -> None:
    if not isinstance(cost, COST_KINDS):
        raise InputError(f"unknown cost function {cost!r}")
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
        if cost.state_costs.shape != (K + 1, n):
            raise InputError(
                f"state cost table has shape {cost.state_costs.shape}, "
                f"expected {(K + 1, n)}"
            )
        if cost.control_costs.shape != (K, nu):
            raise InputError(
                f"control cost table has shape {cost.control_costs.shape}, "
                f"expected {(K, nu)}"
            )


def validate_risk(model: SystemModel, spec) -> None:
    """Check a risk measure's parameters against the model."""
    if not isinstance(spec, RISK_KINDS):
        raise InputError(f"unknown risk measure {spec!r}")
    if isinstance(
        spec, (WorstCaseViolation, Exceedance, AmbiguityExceedance, ExitCountFunctional)
    ):
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
                if len(vec) != model.uncertainty.size(t):
                    raise InputError(
                        f"belief {b} vector at time {t} has length "
                        f"{len(vec)}, expected {model.uncertainty.size(t)}"
                    )
                if any(p < 0 for p in vec):
                    raise InputError(f"belief {b} has a negative probability")
                s = math.fsum(vec)
                if abs(s - 1.0) > 1e-9:
                    raise InputError(
                        f"belief {b} probabilities at time {t} sum to {s!r}"
                    )
    if isinstance(spec, ExitCountFunctional):
        _check_outer(spec.outer)
    if isinstance(spec, Composed):
        validate_cost(model, spec.cost)
        _check_outer(spec.outer)


def evaluate_cost(model: SystemModel, cost, trajectory) -> float:
    """Per-trajectory cost: the kind's base sum over non-cemetery steps,
    plus cemetery_penalty per time spent at the cemetery."""
    validate_cost(model, cost)
    return _cost(model, cost, trajectory)


def _cost(model, cost, trajectory):
    """evaluate_cost of a valid cost function, unchecked."""
    K = model.horizon
    dead = model.cemetery
    dead_steps = sum(
        1 for s in range(trajectory.start, K + 1) if trajectory.state(s) == dead
    )

    if isinstance(cost, RecoveryOffset):
        tau = recovery_time(model, trajectory, cost.acceptable)
        base = tau - trajectory.start if tau != math.inf else math.inf
    elif isinstance(cost, TimeOutside):
        base = 0.0
        for s in range(trajectory.start, K + 1):
            x = trajectory.state(s)
            if x != dead and x not in cost.acceptable:
                base += 1.0
    elif isinstance(cost, ControlEffort):
        base = 0.0
        for s in range(trajectory.start, K):
            x = trajectory.state(s)
            if x == dead:
                continue
            u = trajectory.control(s)
            if cost.rates is not None:
                base += cost.rates[u]
            else:
                base += float(model.controls.coords[u, 0])
    elif isinstance(cost, TerminalMiss):
        x = trajectory.state(K)
        if x == dead:
            base = 0.0  # the cemetery is charged through the penalty
        else:
            base = 0.0 if x in cost.acceptable else 1.0
    elif isinstance(cost, TabularCost):
        base = 0.0
        for s in range(trajectory.start, K + 1):
            x = trajectory.state(s)
            if x == dead:
                continue
            base += float(cost.state_costs[s, x])
            if s < K:
                base += float(cost.control_costs[s, trajectory.control(s)])
    else:
        raise InputError(f"unknown cost function {cost!r}")

    return base + cost.cemetery_penalty * dead_steps


def cvar(values, weights, level: float) -> float:
    """CVaR at tail mass `level`: the mean of the worst `level` of the
    distribution, splitting an atom when the boundary lands inside one."""
    if not 0.0 < level <= 1.0:
        raise InputError(f"CVaR level {level!r} outside (0, 1]")
    values = [float(v) for v in values]
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


def _full_weights(bundle, scenarios):
    if bundle.robust:
        raise InputError("probability-weighted risk needs a full-domain bundle")
    return scenarios.weights


def _robust_positions(bundle, scenarios):
    if bundle.robust:
        return range(len(bundle.trajectories))
    return [i for i, robust in enumerate(scenarios.robust) if robust]


def _apply_outer(outer, bundle, scenarios, values):
    if isinstance(outer, Expectation):
        weights = _full_weights(bundle, scenarios)
        acc = 0.0
        for w, z in zip(weights, values):
            if w != 0.0:
                acc += w * z
        return acc
    if isinstance(outer, WorstCase):
        return max(values[i] for i in _robust_positions(bundle, scenarios))
    if isinstance(outer, CVaR):
        return cvar(values, _full_weights(bundle, scenarios), outer.level)
    raise InputError(f"unknown outer functional {outer!r}")


def _exceeds(model, trajectory, acceptable):
    """Did the trajectory ever exit (states or controls)?"""
    return recovery_time(model, trajectory, acceptable) != trajectory.start


def evaluate_risk(model: SystemModel, spec, bundle: TrajectoryBundle) -> float:
    """Evaluate a risk measure on a bundle."""
    validate_risk(model, spec)
    scenarios = _Scenarios(model, bundle.scenarios, bundle.robust, check=True)
    return _evaluate(model, spec, bundle, scenarios)


def _evaluate(model, spec, bundle, scenarios):
    """evaluate_risk of a valid risk measure, unchecked; `scenarios` is a
    _Scenarios over bundle.scenarios."""
    if isinstance(spec, WorstCaseViolation):
        for i in _robust_positions(bundle, scenarios):
            if exit_times(model, bundle.trajectories[i], spec.acceptable):
                return 1.0
        return 0.0

    if isinstance(spec, Exceedance):
        weights = _full_weights(bundle, scenarios)
        acc = 0.0
        for w, tr in zip(weights, bundle.trajectories):
            if _exceeds(model, tr, spec.acceptable):
                acc += w
        return acc

    if isinstance(spec, AmbiguityExceedance):
        if bundle.robust:
            raise InputError(
                "probability-weighted risk needs a full-domain bundle"
            )
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
            float(len(exit_times(model, tr, spec.acceptable, use_constraints=True)))
            for tr in bundle.trajectories
        ]
        return _apply_outer(spec.outer, bundle, scenarios, counts)

    if isinstance(spec, Composed):
        costs = [_cost(model, spec.cost, tr) for tr in bundle.trajectories]
        return _apply_outer(spec.outer, bundle, scenarios, costs)

    raise InputError(f"unknown risk measure {spec!r}")
