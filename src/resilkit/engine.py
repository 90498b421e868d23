"""Exact decision procedures for resilience.

Backward dynamic programming for the viability family and an exhaustive
strategy search for every other regime. The robust kernel and robust
recovery are one min-max sweep: the least worst-case number of steps to
the kernel, whose zero level is the kernel. The stochastic viability value
and the DP certificate in optimize are one expectation sweep
(`_expected_sweep`), maximizing and minimizing; the certificate reads the
kernel off its finite values. Every sweep is one array-level Bellman
backup per time (`_backup`). Witness policies use the smallest control
index on ties so outputs are reproducible.

Scans of either strategy class, and check_resilient on its one strategy,
decide membership a block of policy arrays at a time (`_decide`). Every
path regime, all but RiskContainment, is read through a finite monitor
(`_monitor`); the two probability thresholds weigh the paths their
worst-case forms require of every path. For Markov blocks of a worst-case
regime over a per-time product domain, one forward walk over the reachable
(state, memory) pairs decides a block without simulating it. Other blocks
are simulated (_sim.simulate_batch) and decided on their paths: the monitor
run along them (`_monitor_paths`), or RiskContainment's risk. Only those
read a scenario list, so only they meet the scenario cap.

Backups, walks and simulations step on the model's successor table
(`model.successor_planes`), where inadmissible controls lead to the cemetery.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._record import record
from .errors import CapacityError, ConfigurationError, InputError
from .model import (
    _OUT_OF_SPAN, DEFAULT_SCENARIO_CAP, SystemModel, _Scenarios, _check_index,
    _check_start, successor_planes,
)
from .regimes import (
    AtMostKExits,
    Bounded,
    ControlEvent,
    ProbExcursion,
    RobustRecovery,
    Stabilize,
    StochasticViability,
    Viability,
    _ball,
    _check_state_set,
    _running_sum,
    _state_mask,
    validate_regime,
)
from .risk import _evaluate_paths
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    Strategy,
    _check_kind,
    _check_run,
    _layout_strategy,
    _markov_from_table,
    _policy_array,
    _policy_shape,
    _reached,
    count_strategies,
    rank_layout,
    validate_strategy,
)
from ._sim import simulate_batch

# cells per representative block of the monitor walk, which bounds the
# block's arrays whatever n, K and |W_t| are
_REACH_CELLS = 1 << 18

# trajectory cells (representatives x scenarios x (steps + 1)) per
# simulated block of a scan, which bounds the block's path arrays whatever
# M is
_PATH_CELLS = 1 << 16


@record(eq=False)
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
        t = _check_index(t, "time", len(self.member), _OUT_OF_SPAN)
        return frozenset(np.flatnonzero(self.member[t]).tolist())


@record(eq=False)
class ValueTable:
    """Stochastic viability value V_t(x) with argmax witness controls."""

    acceptable: frozenset
    value: np.ndarray  # float64 (K+1, n)
    # int32 (K, n): -1 outside the acceptable set; inside it the least
    # admissible control attaining the max, even where V = 0
    witness: np.ndarray

    def resilient_set(self, t, beta):
        t = _check_index(t, "time", len(self.value), _OUT_OF_SPAN)
        return frozenset(np.flatnonzero(self.value[t] >= beta).tolist())


@record(eq=False)
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
        t = _check_index(t, "time", len(self.min_layer), _OUT_OF_SPAN)
        return frozenset(
            np.flatnonzero(self.min_layer[t] <= self.deadline - t).tolist()
        )


@record(eq=False)
class ResilientSet:
    """resilient_states result: members plus one witness strategy each."""

    start: int
    regime: object
    strategy_class: str
    members: frozenset
    witnesses: dict  # state index -> Strategy
    method: str  # kernel | value | recovery | exhaustive


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
    n) over the ascending w in `ws`, the cemetery reading `pad`: without
    `probs` the max of the reads; with `probs` init + the sum of
    probs[w] * read, added one w at a time in ascending order. The result
    is (the min, or without `minimize` the max, of the scores of the
    admissible controls; the least control attaining it or -1). Minimizing,
    a control scoring inf or NaN never attains; maximizing, admissible
    scores must be finite. Columns w outside `ws`, such as the padding
    w >= |W_t|, are never read.

    The reads come from rows 0..n-1 of the time-t successor plane
    (model.successor_planes), whole or taken along w for a subset. An
    inadmissible control reads only the cemetery: minimizing, which is only
    asked with pad = inf, it scores inf (or NaN under a zero weight) and
    never attains; maximizing it could tie, so that case masks it.
    """
    n = model.n_states
    nxt = successor_planes(model)[t]
    if len(ws) < len(nxt):
        nxt = nxt.take(ws, axis=0)
    read = np.empty(n + 1)
    read[:n] = values
    read[n] = pad
    # every index is at most n by construction, so clipping changes none
    reads = read.take(nxt[:, :n], mode="clip")
    if probs is None:
        score = reads.max(axis=0)
        pick = score.argmin(axis=1)
    else:
        score = init
        # an inf read weighted 0 gives NaN; minimizing masks it out below
        with np.errstate(over="ignore", invalid="ignore"):
            for j, w in enumerate(ws):
                score = score + probs[w] * reads[j]
        if minimize:
            # a strict-improvement scan from +inf never picks inf or NaN
            score = np.where(score < math.inf, score, math.inf)
            pick = score.argmin(axis=1)
        else:
            score = np.where(model.constraints[t], score, -math.inf)
            pick = score.argmax(axis=1)
    # the flat index of (x, pick[x]) in the C-ordered (n, nu) scores
    best = score.take(np.arange(0, score.size, score.shape[1]) + pick)
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


def _kernel(model, acceptable, domain):
    """robust_viability_kernel of a checked acceptable frozenset."""
    ranges = _uncertainty_ranges(model, domain)
    inside = _state_mask(model, acceptable)[:model.n_states]
    layer, witness = _min_max_sweep(model, inside, ranges, 0)
    member = layer == 0.0
    member.setflags(write=False)
    witness.setflags(write=False)
    return KernelTable(acceptable, member, witness, domain)


def robust_viability_kernel(
    model: SystemModel, acceptable, domain: str = "robust"
) -> KernelTable:
    """States from which some admissible control keeps the state in
    `acceptable` at every time, whatever the uncertainty in the domain
    ("robust": the per-time robust subsets; "full": the whole sets)."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    return _kernel(model, acceptable, domain)


def _expected_sweep(model, inside, last, outside, start=0, step=None,
                    minimize=False):
    """(V float64 (K+1, n), picks int32 (K, n)): V_K is `last` on the mask
    `inside`, `outside` elsewhere; for t = K-1 down to `start`, the max (the
    min when `minimize`) of a _backup over the full sets with probs[t],
    init step[t] (0.0 without `step`) and pad `outside` gives V_t and picks
    on `inside`, `outside` and -1 elsewhere and in the rows before start."""
    K, n = model.horizon, model.n_states
    value = np.full((K + 1, n), outside, dtype=np.float64)
    picks = np.full((K, n), -1, dtype=np.int32)
    value[K] = np.where(inside, last, outside)
    for t in range(K - 1, start - 1, -1):
        best, u = _backup(
            model, t, range(model.uncertainty.size(t)), value[t + 1],
            outside, probs=model.uncertainty.probs[t],
            init=0.0 if step is None else step[t], minimize=minimize,
        )
        value[t] = np.where(inside, best, outside)
        picks[t] = np.where(inside, u, -1)
    return value, picks


def _value(model, acceptable):
    """stochastic_viability_value of a checked acceptable frozenset."""
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
    inside = _state_mask(model, acceptable)[:model.n_states]
    value, witness = _expected_sweep(model, inside, 1.0, 0.0)
    value.setflags(write=False)
    witness.setflags(write=False)
    return ValueTable(acceptable, value, witness)


def stochastic_viability_value(model: SystemModel, acceptable) -> ValueTable:
    """Maximal probability of staying in `acceptable` with admissible
    controls, by backward recursion under per-time independent noise."""
    acceptable = _check_state_set(model, acceptable, "acceptable set")
    return _value(model, acceptable)


def _recovery(model, acceptable, deadline):
    """robust_recovery_table of a checked acceptable frozenset and deadline."""
    ranges = _uncertainty_ranges(model, "robust")
    inside = _state_mask(model, acceptable)[:model.n_states]
    min_layer, witness = _min_max_sweep(model, inside, ranges, deadline)
    r_star = min_layer[0].copy()
    for arr in (min_layer, witness, r_star):
        arr.setflags(write=False)
    return RecoveryTable(acceptable, deadline, min_layer, witness, r_star)


def robust_recovery_table(
    model: SystemModel, acceptable, deadline: int
) -> RecoveryTable:
    """Least worst-case recovery times into the robust kernel, by one
    min-max sweep over the robust subsets. r_star is the min over
    strategies of the max over robust scenarios of the recovery time, +inf
    beyond the deadline."""
    regime = RobustRecovery(acceptable, deadline)
    validate_regime(model, regime)  # the set, then the deadline
    return _recovery(model, regime.acceptable, deadline)


def _least_admissible(model):
    """int32 (K, n), the least admissible control at each (t, x), built on
    first use and cached on the model like its planes."""
    least = getattr(model, "_least", None)
    if least is None:
        least = model.constraints.argmax(axis=2).astype(np.int32)
        least.setflags(write=False)
        object.__setattr__(model, "_least", least)
    return least


def _fill(model, picks, start):
    """fill_policy without its checks, for the (K, n) picks of a sweep."""
    picks = picks[start:]
    least = _least_admissible(model)[start:]
    return _markov_from_table(np.where(picks >= 0, picks, least), start)


def fill_policy(model, picks, start):
    """Markov strategy from per-(t, x) picks, an int (K, n) table; -1
    entries fall back to the least admissible control (they are never
    visited by the witnesses)."""
    picks = np.asarray(picks)
    want = (model.horizon, model.n_states)
    if picks.shape != want:
        raise InputError(
            f"picks table has shape {picks.shape}, expected {want}"
        )
    strategy = _fill(model, picks, _check_start(model, start))
    validate_strategy(model, strategy)
    return strategy


def check_resilient(
    model: SystemModel,
    strategy: Strategy,
    x0: int,
    start: int,
    regime,
    cap: int = DEFAULT_SCENARIO_CAP,
) -> bool:
    """Does the strategy realize the regime from x0 at time `start`? The
    strategy is packed as one policy array and decided as a scan block is
    (_decide), after checks of the regime, then in _check_run of the
    strategy, start against the strategy's, x0 and start's range. Scenarios
    are enumerated against `cap` only where the decision reads them."""
    validate_regime(model, regime)
    x0, start = _check_run(model, strategy, x0, start)
    scenarios = _scan_scenarios(model, regime, cap)
    member, _ = _decide(
        model, regime, _monitor(model, regime, start),
        _policy_array(model, strategy)[None], x0, start, scenarios,
        strategy.start,
    )
    return bool(member[0])


def _scan_scenarios(model, regime, cap=DEFAULT_SCENARIO_CAP):
    """The regime's scenario set for deciding strategies (_decide),
    unchecked: callers check start and x0 at entry. The set is enumerated
    against `cap` when first read, which the monitor walk never does."""
    robust_only = isinstance(regime, RobustRecovery)
    return _Scenarios(model, robust_only=robust_only, cap=cap)


class _Monitor(NamedTuple):
    """A path regime's path property as a finite monitor, in product-chain
    form. Memories run best-first from 0 to the sink, which rejects the
    path for good. init[x] (n+1,) is the memory once x is read at the
    start; update[t, m, u, x'] (K, sink+1, nu, n+1) the memory after m
    plays u at t and moves to x'; domain[t] the w a worst-case regime
    quantifies over at t, or domain None where that is no per-time product
    or the regime weighs its paths (ProbExcursion, StochasticViability)."""

    init: np.ndarray
    update: np.ndarray
    domain: list


def _monitor(model, regime, start):
    """The regime's _Monitor for paths from `start`; None for
    RiskContainment only. Its domain is None for the threshold regimes
    ProbExcursion and StochasticViability, for RobustRecovery on an
    explicit robust scenario list, and for AtMostKExits on a joint
    distribution or where a positive-support scenario's weight underflows
    to 0.0 (membership skips those).

    ControlEvent keeps a "used" flag fed by the played control: 0 once a
    control of the set is played, 1 before, the sink at K while unset. The
    others count the checked times t >= first with the state outside a
    region (the cemetery is outside every region) up to a limit: Viability
    and StochasticViability on the acceptable set, Bounded and
    ProbExcursion on the region, 0 from `start` (an inadmissible control
    leads to the cemetery, so staying in the set is viability);
    RobustRecovery 0 from its deadline, over the robust subsets; Stabilize
    0 on the states within `radius` of `target` from max(start, K -
    window); AtMostKExits max_exits from `start`, over the
    positive-probability w. Updates are monotone in m.
    """
    K, n, nu = model.horizon, model.n_states, model.n_controls
    domain = [range(model.uncertainty.size(t)) for t in range(K)]
    if isinstance(regime, ControlEvent):
        update = np.empty((K, 3, nu, n + 1), dtype=np.uint8)
        update[:, 0], update[:, 1], update[:, 2], update[K - 1, 1] = 0, 1, 2, 2
        update[:, 1, [int(u) for u in regime.controls]] = 0
        init = np.full(n + 1, 1 if start < K else 2, dtype=np.uint8)
        return _Monitor(init, update, domain)
    first, limit = start, 0
    if isinstance(regime, (Viability, StochasticViability)):
        region = regime.acceptable
    elif isinstance(regime, (Bounded, ProbExcursion)):
        region = regime.region
    elif isinstance(regime, RobustRecovery):
        # recovery_time is never below the start
        region = regime.acceptable if regime.deadline >= start else ()
        first, domain = min(regime.deadline, K), list(model.uncertainty.robust)
        if model.robust_scenarios is not None:
            domain = None
    elif isinstance(regime, Stabilize):
        region = np.flatnonzero(_ball(model, regime))
        first = max(start, K - regime.window)
    elif isinstance(regime, AtMostKExits):
        probs = model.uncertainty.probs if model.uncertainty.has_probs else ()
        # the least positive weight, multiplied in _weight's order;
        # rounding is monotone, so no other positive weight is less
        least = math.prod(min(v for v in p if v > 0.0) for p in probs)
        if model.scenario_probs is not None or least == 0.0:
            domain = None
        elif probs:
            domain = [[w for w, v in enumerate(p) if v > 0.0] for p in probs]
        # past K - start + 1 checked times the count never rejects
        region, limit = regime.region, min(regime.max_exits, K - start + 1)
    else:
        return None
    if isinstance(regime, (StochasticViability, ProbExcursion)):
        domain = None  # the walk reads no weights
    dtype = np.min_scalar_type(limit + 2)  # holds a count past the sink
    bad = (~_state_mask(model, region)).astype(dtype)
    memory = np.arange(limit + 2, dtype=dtype)[:, None, None]
    update = np.empty((K, limit + 2, nu, n + 1), dtype=dtype)
    cut = max(first - 1, 0)  # x' at t + 1 is checked from t = first - 1
    update[:cut] = memory
    update[cut:] = np.minimum(memory + bad, limit + 1)
    init = bad if start >= first else np.zeros_like(bad)
    return _Monitor(init, update, domain)


def _reachable_members(model, monitor, x0, start, policies):
    """member[s]: does Markov policy array s (int32 (S, K, n+1), as
    markov_policy_array packs it) keep the _Monitor out of its sink from
    x0 at `start`? That is regimes._membership on each strategy's bundle.
    The reachable (state, memory) pairs are propagated forward from
    (x0, init[x0]) as a bool (S, n+1, sink) array through every w of the
    domain, a per-time product, on the model's successor planes; the
    cemetery plays control 0.
    """
    planes = successor_planes(model)
    K, n = model.horizon, model.n_states
    S = policies.shape[0]
    sink, m = len(monitor.update[0]) - 1, monitor.init[x0]
    if m == sink:
        return np.zeros(S, dtype=bool)
    member = np.ones(S, dtype=bool)
    reach = np.zeros((S, n + 1, sink), dtype=bool)
    reach[:, x0, m] = True
    for t in range(start, K):
        s, x, m = np.nonzero(reach)
        u = policies[s, t, x]
        nxt = planes[t][monitor.domain[t], x[:, None], u[:, None]]
        m = monitor.update[t][m[:, None], u[:, None], nxt]
        over = m == sink
        member[s[over.any(axis=1)]] = False
        keep = ~over & member[s][:, None]
        s = np.broadcast_to(s[:, None], nxt.shape)
        reach = np.zeros_like(reach)
        reach[s[keep], nxt[keep], m[keep]] = True
    return member


def _monitor_paths(model, regime, monitor, states, controls, scenarios, start):
    """member[s]: regimes._membership of strategy s, read off the _Monitor
    run along its paths (from `start`, over `scenarios`). A path is kept
    where the monitor stays out of its sink. The threshold regimes add the
    weights of the rows not kept (ProbExcursion, at most beta) or kept
    (StochasticViability, at least beta) one at a time in row order, as
    the bundle loop does; the others need every row kept that
    _membership counts: all, or for AtMostKExits with probabilities those
    of positive weight."""
    m = monitor.init[states[:, :, 0]]
    for l in range(controls.shape[2]):
        update = monitor.update[start + l]
        m = update[m, controls[:, :, l], states[:, :, l + 1]]
    kept = m < len(monitor.update[0]) - 1  # below the sink
    if isinstance(regime, (ProbExcursion, StochasticViability)):
        weights = np.asarray(scenarios.weights, dtype=np.float64)
        if isinstance(regime, ProbExcursion):
            return _running_sum(np.where(kept, 0.0, weights)) <= regime.beta
        return _running_sum(np.where(kept, weights, 0.0)) >= regime.beta
    weighed = model.uncertainty.has_probs or model.scenario_probs is not None
    if isinstance(regime, AtMostKExits) and weighed:
        kept |= np.asarray(scenarios.weights) <= 0.0
    return kept.all(axis=1)


def _simulate(model, policies, scenarios, x0, start, base):
    """simulate_batch of RankLayout.policies arrays over a _Scenarios, the
    prefixes ranked from `base` <= start."""
    prefixes = scenarios.prefixes(base) if policies.shape[3] > 1 else None
    return simulate_batch(
        successor_planes(model), policies, scenarios.table, x0, start,
        prefixes,
    )


def _path_block(model, start, n_scenarios):
    """Representatives per simulated block: at most _PATH_CELLS trajectory
    cells, and at least one representative."""
    return max(1, _PATH_CELLS // (n_scenarios * (model.horizon - start + 1)))


def _walks(monitor, width):
    """Does the monitor walk decide policy arrays of `width` columns?"""
    return monitor is not None and monitor.domain is not None and width == 1


def _decide(model, regime, monitor, policies, x0, start, scenarios, base):
    """(member, paths) for policy arrays int32 (S, K, n+1, P) laid out as
    RankLayout.policies, prefixes ranked from `base`: member[s] is
    regimes._membership from x0 at `start` of strategy s over `scenarios`,
    the regime's _Scenarios, and `monitor` the regime's _monitor.
    _reachable_members decides where _walks, with paths None; otherwise
    paths over `scenarios` are simulated and decided by _monitor_paths, or
    for RiskContainment (no monitor) by the risk of each strategy's paths
    against its level."""
    if _walks(monitor, policies.shape[3]):
        member = _reachable_members(model, monitor, x0, start, policies[..., 0])
        return member, None
    paths = _simulate(model, policies, scenarios, x0, start, base)
    if monitor is None:
        value = _evaluate_paths(model, regime.measure, *paths, scenarios, start)
        return value <= regime.level, paths
    member = _monitor_paths(model, regime, monitor, *paths, scenarios, start)
    return member, paths


def _member_blocks(model, regime, monitor, layout, x0, start, scenarios):
    """Yield (index, policies, paths) for the members of the layout from
    x0, in ascending blocks decided by _decide: the members' representative
    indices (int64), their RankLayout.policies arrays and their paths over
    `scenarios`, the regime's _Scenarios, or None; `monitor` is the scan's
    _monitor.

    A block the monitor walk decides holds representatives whose K * (n+1)
    policy cells and (n+1) * memories * |W_t| walk cells per
    representative, the larger, total at most _REACH_CELLS; a simulated
    block holds _path_block of them.
    """
    if _walks(monitor, layout.policy_shape[2]):
        width = model.dynamics.shape[3] * (len(monitor.update[0]) - 1)
        cells = (model.n_states + 1) * max(model.horizon, width)
        step = max(1, _REACH_CELLS // cells)
    else:
        step = _path_block(model, start, len(scenarios.scenarios))
    for lo in range(0, layout.size, step):
        policies = layout.policies(lo, min(layout.size, lo + step))
        member, paths = _decide(
            model, regime, monitor, policies, x0, start, scenarios, start
        )
        index = np.flatnonzero(member)
        if index.size:
            if paths is not None:
                paths = tuple(a[index] for a in paths)
            yield lo + index, policies[index], paths


def _kernel_witnesses(model, region, kind, start):
    """Yield (x0, policy array) for each x0 in the full-domain kernel of
    `region` at `start`, ascending: x0's least-rank strategy of class `kind`
    in the kernel, the kernel's witness on each slot it reaches
    (strategy._reached) and control 0 elsewhere. A reached slot must send
    every w into the kernel, and reaching depends on earlier times only,
    which ranks weigh more."""
    shape = _policy_shape(model, kind, start)
    kernel = _kernel(model, region, "full")
    for x0 in sorted(kernel.member_set(start)):
        out = np.zeros(shape, dtype=np.int32)
        for t, here in _reached(model, x0, kind, start, kernel.witness):
            out[t, :-1, : len(here)] = here.T * kernel.witness[t][:, None]
        yield x0, out


def _scan(model, regime, strategy_class, start, cap):
    """Yield (x0, policy array) for each x0 resilient at `start`, ascending:
    its first resilient representative of rank_layout, which packs its
    least-rank resilient strategy, decided a block at a time
    (_member_blocks). The whole class is counted against `cap`."""
    total = count_strategies(model, strategy_class, start)
    if total > cap:
        raise CapacityError(
            f"{total} {strategy_class} strategies exceed cap {cap}; "
            "viability-family regimes on per-time products dispatch to "
            "exact recursions instead"
        )
    scenarios = _scan_scenarios(model, regime)
    monitor = _monitor(model, regime, start)
    for x0 in range(model.n_states):
        layout = rank_layout(model, x0, strategy_class, start)
        for _, policies, _ in _member_blocks(model, regime, monitor, layout,
                                             x0, start, scenarios):
            yield x0, policies[0]
            break


def resilient_states(
    model: SystemModel,
    start: int,
    regime,
    strategy_class: str = MARKOV,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> ResilientSet:
    """All states resilient at `start`, each with a witness strategy.

    Viability and Bounded, one path property (an inadmissible control leads
    to the cemetery, outside every region), answer from the full-domain
    kernel for both strategy classes, uncounted. RobustRecovery on per-time
    robust subsets and StochasticViability on per-time probabilities
    without a joint distribution answer from their backward recursions.
    Every other case is searched exhaustively over the declared class
    (_scan). method="exhaustive" names the witness contract of Bounded and
    the search: each member's witness is its least-rank resilient strategy
    of the declared class, and equal witnesses are one object. The other
    methods give every member the table's one filled Markov witness.
    """
    validate_regime(model, regime)
    _check_kind(strategy_class)
    start = _check_start(model, start)
    found = None  # (x0, policy array) of each exhaustive member
    if isinstance(regime, Viability):
        table = _kernel(model, regime.acceptable, "full")
        members, method = table.member_set(start), "kernel"
    elif isinstance(regime, Bounded):
        found = _kernel_witnesses(model, regime.region, strategy_class, start)
    elif isinstance(regime, RobustRecovery) and model.robust_scenarios is None:
        table = _recovery(model, regime.acceptable, regime.deadline)
        members, method = table.resilient_set(start), "recovery"
    elif (isinstance(regime, StochasticViability)
          and model.uncertainty.has_probs and model.scenario_probs is None):
        table = _value(model, regime.acceptable)
        members, method = table.resilient_set(start, regime.beta), "value"
    else:
        found = _scan(model, regime, strategy_class, start, cap)
    if found is None:
        witnesses = dict.fromkeys(members, _fill(model, table.witness, start))
    else:
        witnesses, shared = {}, {}
        for x0, policies in found:
            strat = _layout_strategy(model, strategy_class, policies, start)
            witnesses[x0] = shared.setdefault(policies.tobytes(), strat)
        members, method = frozenset(witnesses), "exhaustive"
    return ResilientSet(start, regime, strategy_class, members, witnesses,
                        method)
