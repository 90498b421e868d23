"""Risk-minimizing selection among resilient strategies.

The exhaustive path scans the strategy class and keeps the
lexicographically least strict minimizer, reporting exactly the value
evaluate_risk assigns to the reported strategy. Strategies that differ only
on policy slots no closed-loop path from x0 reaches give identical bundles,
so the scan visits one representative per such class, its least rank (see
strategy.rank_layout); answers, ties and `examined` are those of the full
scan.

The scan builds no trajectory bundle and no strategy per representative,
for either strategy class and any regime: it works on blocks of policy
arrays (engine._member_blocks), which decide membership by the monitor
walk or on the block's paths simulated over the regime's scenario set
(_sim.simulate_batch). The members' paths over the full scenario set,
simulated again where membership did not read them there, are then priced
all at once (risk._evaluate_paths, bit-identical to evaluate_risk on each
member's bundle), and only the winner becomes a Strategy. The scan runs on
the calling thread.

A dynamic programming certificate covers the one family where constrained
DP is exact, for both strategy classes: a sure-viability regime (see
_dp_supported), an additive expected cost, per-time probabilities and
finite costs whose sums cannot overflow. A deterministic Markov policy is
then optimal among history-dependent ones (Puterman 1994, Thm 4.4.2). One
min-expectation sweep (engine._expected_sweep), +inf off the sure set,
prices every state from the cost's per-time charges (risk._cost_tables,
which the scan's path pricer reads too): its finite set is the viability
kernel, and each pick the least of the cheapest kernel-preserving
controls. The reported value is the sweep's value at (start, x0), the
expected cost of the reported policy, computed without enumerating
scenarios: bit-exact with evaluate_risk where the probabilities are
dyadic, within 1e-12 otherwise (the sweep groups the sum differently).

An empty feasible set is an answer, not an error: the result carries
resilient=False and value +inf.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import record
from .engine import (
    _expected_sweep,
    _fill,
    _member_blocks,
    _monitor,
    _path_block,
    _scan_scenarios,
    _simulate,
)
from .errors import CapacityError, ConfigurationError, InputError
from .model import SystemModel, _check_start, _check_x0
from .regimes import (
    Bounded, StochasticViability, Viability, _state_mask, validate_regime,
)
from .risk import (
    _ADDITIVE_COSTS,
    Composed,
    Expectation,
    _cost_tables,
    _evaluate_paths,
    validate_risk,
)
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    Strategy,
    _check_kind,
    _layout_strategy,
    count_strategies,
    rank_layout,
)

EXHAUSTIVE = "exhaustive"
DP = "dp"


@record(eq=False)
class OptimizationResult:
    """Outcome of minimize_risk.

    value equals evaluate_risk of the reported strategy's bundle: bit-exact
    in exhaustive mode; on the DP certificate bit-exact where the
    probabilities are dyadic and within 1e-12 otherwise. examined counts
    the resilient members of the class, each scanned representative
    standing for its whole class, and is 0 on the certificate, which
    enumerates nothing. The scan ranks a NaN risk after every number, so
    value is NaN only when every member's risk is. The certificate reports
    the sweep's Markov strategy for either class: it is a member of the
    adapted class, whose tables would cost n * sum_t |W|^t cells,
    exponential in K."""

    resilient: bool
    value: float
    strategy: Strategy
    examined: int
    certificate: str
    strategy_class: str


def _additive_tables(model, cost):
    """(step_costs (K, n, nu), terminal_costs (n,)) of a cost of one of the
    risk._ADDITIVE_COSTS kinds, read off its risk._cost_tables."""
    K, n = model.horizon, model.n_states
    state, control = _cost_tables(model, cost)
    step = np.zeros((K, n, model.n_controls))
    step += state[:K, :n, None]
    step += control[:, None, :]
    return step, 0.0 + state[K, :n]


def _dp_supported(model, regime, risk):
    """(reason the DP certificate does not apply, None), or (None, (A, then
    the cost tables (step, terminal) of _additive_tables)) where it applies.
    The sure-viability regimes are Viability(A), Bounded(A), and
    StochasticViability(A, 1) where every w has positive probability."""
    if not isinstance(risk, Composed) or not isinstance(risk.outer, Expectation):
        return "the DP fast path needs an expected composed cost", None
    if not isinstance(risk.cost, _ADDITIVE_COSTS):
        return "the DP fast path needs a per-time additive cost", None
    if not model.uncertainty.has_probs:
        return "expected costs need per-time probability vectors", None
    if model.scenario_probs is not None:
        return "the DP fast path assumes independence across times", None
    if isinstance(regime, Bounded):
        acceptable = regime.region
    elif isinstance(regime, Viability) or (
        isinstance(regime, StochasticViability) and regime.beta == 1.0
        and all(p > 0.0 for probs in model.uncertainty.probs for p in probs)
    ):
        acceptable = regime.acceptable
    else:
        return ("the DP fast path covers sure-viability regimes only: "
                "Viability, Bounded, or StochasticViability at beta = 1 "
                "with every uncertainty value of positive probability"), None
    with np.errstate(over="ignore", invalid="ignore"):
        step, terminal = _additive_tables(model, risk.cost)
    # bounds each |V_t| (the probabilities sum to 1 within 1e-9): below
    # 2**1023 no sum overflows; NaN and inf fail
    bound = sum(np.abs(step).max(axis=(1, 2)).tolist())
    if not bound + float(np.abs(terminal).max()) < 2.0**1023:
        return (
            "the DP certificate needs finite costs whose sums cannot overflow"
        ), None
    return None, (acceptable, step, terminal)


def _minimize_dp(model, x0, start, kind, acceptable, step, terminal):
    # V_t is finite exactly on the kernel: a control that leaves it, or an
    # inadmissible one, scores inf (NaN under a zero weight), never attains
    value, picks = _expected_sweep(
        model, _state_mask(model, acceptable)[:model.n_states],
        terminal, math.inf, start, step, minimize=True,
    )
    best = float(value[start, x0])
    if not math.isfinite(best):
        return OptimizationResult(False, math.inf, None, 0, DP, kind)
    # best is the picks' expected cost: from x0 they stay in the kernel
    return OptimizationResult(True, best, _fill(model, picks, start), 0, DP,
                              kind)


def _member_values(
    model, x0, start, regime, risk, layout, scenarios, monitor
):
    """Yield (policies, risks) over the layout's members in ascending
    blocks: the members' policy arrays and their risks, float64, each
    bit-identical to _evaluate on the member's full-domain bundle. Members
    whose membership read no paths over the full scenario set are
    simulated over it in blocks of _path_block."""
    for _, policies, paths in _member_blocks(
        model, regime, monitor, layout, x0, start, scenarios
    ):
        # the full scenario set is enumerated at the first member only
        full = scenarios.full
        if paths is not None and full is scenarios:
            yield policies, _evaluate_paths(model, risk, *paths, full, start)
            continue
        step = _path_block(model, start, len(full.scenarios))
        for lo in range(0, len(policies), step):
            block = policies[lo : lo + step]
            paths = _simulate(model, block, full, x0, start, start)
            yield block, _evaluate_paths(model, risk, *paths, full, start)


def _scan_ranks(model, x0, start, regime, risk, strategy_class, layout):
    """Scan the layout's representatives, ascending; return (value,
    strategy, members) of the first strict minimizer, NaN ranking after
    every number (strategy None when none is resilient)."""
    scenarios = _scan_scenarios(model, regime)
    monitor = _monitor(model, regime, start)
    best, examined, winner = math.inf, 0, None
    for policies, values in _member_values(
        model, x0, start, regime, risk, layout, scenarios, monitor
    ):
        for i, value in enumerate(values.tolist()):
            if (winner is None or value < best
                    or math.isnan(best) and not math.isnan(value)):
                best = value
                winner = policies[i]
        examined += len(values)
    if winner is not None:
        winner = _layout_strategy(model, strategy_class, winner, start)
    return best, winner, examined


def minimize_risk(
    model: SystemModel,
    x0: int,
    start: int,
    regime,
    risk,
    strategy_class: str = MARKOV,
    method: str = "auto",
    cap: int = DEFAULT_STRATEGY_CAP,
    jobs: int = 1,
) -> OptimizationResult:
    """Minimize the risk measure over strategies resilient from x0 at
    `start`, in either class. The DP certificate (_dp_supported) answers
    both with the sweep's Markov witness, examined 0, ties going to the
    least control per (t, x). The scan breaks ties toward the
    lexicographically least strategy and ranks a NaN risk after every
    number. "auto" scans where the certificate does not apply (non-finite
    or overflowing costs among others), where "dp" raises
    ConfigurationError. Both routes check the regime, the risk, the class,
    x0 and start here, in order. `jobs` has no effect; it stays because
    perfbench/workloads.py passes it."""
    validate_regime(model, regime)
    validate_risk(model, risk)
    _check_kind(strategy_class)
    x0 = _check_x0(model, x0)
    start = _check_start(model, start)
    if method not in ("auto", EXHAUSTIVE, DP):
        raise InputError(f"unknown method {method!r}")

    unsupported, tables = _dp_supported(model, regime, risk)
    if method == DP and unsupported:
        raise ConfigurationError(unsupported)
    if method in ("auto", DP) and not unsupported:
        return _minimize_dp(model, x0, start, strategy_class, *tables)

    total = count_strategies(model, strategy_class, start)
    if total > cap:
        reason = f" (no DP certificate: {unsupported})" if unsupported else ""
        raise CapacityError(
            f"exhaustive scan: {total} {strategy_class} strategies exceed "
            f"cap {cap}{reason}"
        )

    layout = rank_layout(model, x0, strategy_class, start)
    best, strategy, count = _scan_ranks(
        model, x0, start, regime, risk, strategy_class, layout
    )
    return OptimizationResult(
        strategy is not None, best, strategy, count * layout.class_size,
        EXHAUSTIVE, strategy_class,
    )


def resilience_indicator(
    model: SystemModel,
    x0: int,
    regime,
    risk,
    start: int = 0,
    strategy_class: str = MARKOV,
    method: str = "auto",
    cap: int = DEFAULT_STRATEGY_CAP,
) -> float:
    """Minimized risk over resilient strategies; +inf when none exists."""
    return minimize_risk(
        model, x0, start, regime, risk,
        strategy_class=strategy_class, method=method, cap=cap,
    ).value
