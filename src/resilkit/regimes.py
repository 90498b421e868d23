"""Recovery regimes: the acceptability notions a strategy can be held to.

The records below name the regimes. Their definitional reference is
regime_membership, a predicate on one closed-loop trajectory bundle:
worst-case regimes quantify over the bundle's scenarios (RobustRecovery
restricts to the robust subset); probabilistic regimes weight scenarios
with the model's distribution and need a full-domain bundle. The oracle
judges the production scans against it. The scans build no bundle: they
decide each regime with its engine._monitor over batched path arrays
(RiskContainment, which has no monitor, by the risk of those paths), and
the path-array helpers at the end of this module serve them.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .errors import ConfigurationError, InputError
from .model import SystemModel, _check_index, _Scenarios, packed_tables
from .strategy import (
    Trajectory,
    TrajectoryBundle,
    _check_bundle,
    _check_trajectory,
)


@record
class Viability:
    """Stay in `acceptable` with admissible controls at every time, for
    every scenario."""

    acceptable: frozenset

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@record
class RobustRecovery:
    """Recover into `acceptable` (states + admissible controls from the
    recovery time onward) no later than `deadline`, for every robust
    scenario."""

    acceptable: frozenset
    deadline: int

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@record
class StochasticViability:
    """Stay viable (states + admissible controls) with probability >= beta."""

    acceptable: frozenset
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "acceptable", frozenset(self.acceptable))


@record
class Bounded:
    """States never leave `region`, for every scenario. States only."""

    region: frozenset

    def __post_init__(self):
        object.__setattr__(self, "region", frozenset(self.region))


@record
class ProbExcursion:
    """Probability that states ever leave `region` is at most beta."""

    region: frozenset
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "region", frozenset(self.region))


@record
class AtMostKExits:
    """At most `max_exits` times outside `region`, for every scenario of
    positive probability (every scenario when no probabilities are
    declared). States only."""

    region: frozenset
    max_exits: int

    def __post_init__(self):
        object.__setattr__(self, "region", frozenset(self.region))


@record
class Stabilize:
    """End within Euclidean `radius` of state `target` over the last
    `window` times, for every scenario (finite-horizon convergence proxy)."""

    target: int
    radius: float
    window: int


@record
class ControlEvent:
    """Some control from `controls` is eventually used, for every scenario."""

    controls: frozenset

    def __post_init__(self):
        object.__setattr__(self, "controls", frozenset(self.controls))


@record
class RiskContainment:
    """A risk measure stays at or below `level`."""

    measure: object
    level: float


def _check_state_set(model, states, what):
    """`states` as a frozenset, checked: InputError names its first element
    (in iteration order) that is not an int, numpy integer or bool in
    0..n-1. This is the set form of the index rule (model._check_index),
    inlined because sets run to hundreds of states. The model keeps the
    last set that passed, so a call that hands it on, and the next query on
    it, skip the element loop."""
    states = frozenset(states)
    if states is not getattr(model, "_checked_states", None):
        n, kinds = model.n_states, (int, np.integer)
        for x in states:
            if not (isinstance(x, kinds) and 0 <= x < n):
                raise InputError(f"{what} contains invalid state index {x!r}")
        object.__setattr__(model, "_checked_states", states)
    return states


def validate_regime(model: SystemModel, regime) -> None:
    """Check the regime's parameters against the model."""
    if isinstance(regime, (Viability, StochasticViability, RobustRecovery)):
        _check_state_set(model, regime.acceptable, "acceptable set")
    if isinstance(regime, (Bounded, ProbExcursion, AtMostKExits)):
        _check_state_set(model, regime.region, "region")
    if isinstance(regime, (StochasticViability, ProbExcursion)):
        if not 0.0 <= regime.beta <= 1.0:
            raise InputError(f"beta {regime.beta!r} outside [0, 1]")
        if not model.uncertainty.has_probs and model.scenario_probs is None:
            raise ConfigurationError(
                "probabilistic regime needs declared probabilities"
            )
    if isinstance(regime, RobustRecovery):
        _check_index(regime.deadline, "deadline", model.horizon + 1)
    if isinstance(regime, AtMostKExits):
        _check_index(regime.max_exits, "max_exits")
    if isinstance(regime, Stabilize):
        _check_index(regime.target, "target", model.n_states)
        if not regime.radius >= 0:  # NaN too
            raise InputError(f"radius {regime.radius!r} is not >= 0")
        _check_index(regime.window, "window")
    if isinstance(regime, ControlEvent):
        for u in regime.controls:
            _check_index(u, "control", model.n_controls)
    if isinstance(regime, RiskContainment):
        from .risk import validate_risk

        validate_risk(model, regime.measure)


def _ball(model, regime):
    """bool (n+1,): the states within Euclidean `radius` of a Stabilize
    regime's target (the cemetery is in no ball)."""
    center = model.states.coords[int(regime.target)]
    near = [not float(np.linalg.norm(c - center)) > regime.radius
            for c in model.states.coords]
    return np.array(near + [False])


def exit_times(
    model: SystemModel,
    trajectory: Trajectory,
    acceptable,
    use_constraints: bool = False,
) -> tuple:
    """Times s with x_s outside `acceptable`, plus (when use_constraints)
    times s < K where the applied control is inadmissible at x_s."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    trajectory = _check_trajectory(model, trajectory, use_constraints)
    return _exit_times(model, trajectory, acceptable, use_constraints)


def _exit_times(model, trajectory, acceptable, use_constraints=False):
    """exit_times of a checked frozenset `acceptable` on a valid
    trajectory, unchecked."""
    start, states = trajectory.start, trajectory.states
    steps = model.horizon - start
    controls, cemetery = trajectory.controls, model.cemetery
    constraints = model.constraints
    out = []
    for i in range(steps + 1):
        x = states[i]
        bad = x not in acceptable
        if not bad and use_constraints and i < steps and x != cemetery:
            bad = not constraints[start + i, x, controls[i]]
        if bad:
            out.append(start + i)
    return tuple(out)


def recovery_time(model: SystemModel, trajectory: Trajectory, acceptable):
    """Least time r such that from r onward states stay in `acceptable` and
    applied controls are admissible; math.inf when there is none."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    trajectory = _check_trajectory(model, trajectory, True)
    return _recovery_time(model, trajectory, acceptable)


def _recovery_time(model, trajectory, acceptable):
    """recovery_time of a checked frozenset `acceptable` on a valid
    trajectory with controls, unchecked."""
    start, states, controls = (
        trajectory.start, trajectory.states, trajectory.controls
    )
    steps = model.horizon - start
    cemetery, constraints = model.cemetery, model.constraints
    r = math.inf
    for i in range(steps, -1, -1):
        x = states[i]
        good = x in acceptable
        if good and i < steps:
            good = x != cemetery and bool(constraints[start + i, x, controls[i]])
        if not good:
            break
        r = start + i
    return r


def _viable(model, traj, acceptable):
    return _recovery_time(model, traj, acceptable) == traj.start


def _check_full_domain(bundle):
    """InputError unless the bundle runs over the full scenario domain,
    as probability weights need."""
    if bundle.robust:
        raise InputError("probability weights need a full-domain bundle")


def regime_membership(
    model: SystemModel, regime, bundle: TrajectoryBundle
) -> bool:
    """Does the bundle's strategy meet the regime from the bundle's start?"""
    validate_regime(model, regime)
    bundle = _check_bundle(model, bundle)
    scenarios = _Scenarios(model, bundle.scenarios, bundle.robust)
    return _membership(model, regime, bundle, scenarios)


def _membership(model, regime, bundle, scenarios):
    """regime_membership of a valid regime on a valid bundle, unchecked;
    `scenarios` is a _Scenarios over bundle.scenarios."""
    if isinstance(regime, Viability):
        return all(_viable(model, tr, regime.acceptable) for tr in bundle)

    if isinstance(regime, RobustRecovery):
        for i, tr in enumerate(bundle.trajectories):
            if not bundle.robust and not scenarios.robust[i]:
                continue
            if _recovery_time(model, tr, regime.acceptable) > regime.deadline:
                return False
        return True

    if isinstance(regime, StochasticViability):
        _check_full_domain(bundle)
        p = 0.0
        for w, tr in zip(scenarios.weights, bundle.trajectories):
            if _viable(model, tr, regime.acceptable):
                p += w
        return p >= regime.beta

    if isinstance(regime, Bounded):
        return all(
            not _exit_times(model, tr, regime.region) for tr in bundle
        )

    if isinstance(regime, ProbExcursion):
        _check_full_domain(bundle)
        p = 0.0
        for w, tr in zip(scenarios.weights, bundle.trajectories):
            if _exit_times(model, tr, regime.region):
                p += w
        return p <= regime.beta

    if isinstance(regime, AtMostKExits):
        have_probs = (
            model.uncertainty.has_probs or model.scenario_probs is not None
        )
        for i, tr in enumerate(bundle.trajectories):
            if have_probs and scenarios.weights[i] <= 0.0:
                continue
            if len(_exit_times(model, tr, regime.region)) > regime.max_exits:
                return False
        return True

    if isinstance(regime, Stabilize):
        ball = _ball(model, regime)
        # the states at max(start, K - window)..K
        first = max(0, model.horizon - regime.window - bundle.start)
        return all(ball[x] for tr in bundle for x in tr.states[first:])

    if isinstance(regime, ControlEvent):
        return all(
            any(u in regime.controls for u in tr.controls) for tr in bundle
        )

    if isinstance(regime, RiskContainment):
        from .risk import _evaluate

        value = _evaluate(model, regime.measure, bundle, scenarios)
        return value <= regime.level

    raise InputError(f"unknown regime {regime!r}")


# ------------------------------------------------- state sets on path arrays
#
# The scans simulate a block of strategies at once (_sim.simulate_batch)
# into the arrays states int32 (S, M, L+1) and controls int32 (S, M, L) of
# the paths run from `start` (L = K - start) over a _Scenarios in the
# arrays' scenario order. The helpers below serve the reductions over
# them: risk's path pricer, the oracle's member tests and the threshold
# regimes of engine._monitor_paths. Each reduction makes the float
# operations of the bundle loops above, in their order, so results are
# bit-identical.


def _state_mask(model, states):
    """in_set[x] over 0..n (the cemetery is in no state set)."""
    in_set = np.zeros(model.n_states + 1, dtype=bool)
    in_set[np.fromiter(states, np.intp)] = True
    return in_set


def _good_paths(model, acceptable, states, controls, start):
    """good[s, m, l]: at time start + l path (s, m) is in `acceptable` and,
    before the horizon, plays an admissible control; the state-wise test
    of recovery_time, whose least all-good suffix starts at tau."""
    _, ok = packed_tables(model)
    good = _state_mask(model, acceptable)[states]
    times = np.arange(start, start + controls.shape[2])
    good[:, :, :-1] &= ok[times, states[:, :, :-1], controls] != 0
    return good


def _running_sum(terms):
    """Row sums of terms (S, M) as `acc = 0.0; acc += term` makes them: one
    addition at a time, in column order. (A numpy reduction pairs terms up
    and may round differently.)"""
    zero = np.zeros((terms.shape[0], 1))
    return np.add.accumulate(np.hstack([zero, terms]), axis=1)[:, -1]

