"""Risk-minimizing selection among resilient strategies.

The certified path scans the strategy class and keeps the lexicographically
least strict minimizer, reporting exactly the value evaluate_risk assigns to
the reported strategy. Strategies that differ only on policy slots no
closed-loop path from x0 reaches give identical bundles, so the scan visits
one representative per such class, its least rank (see
strategy.rank_layout); answers, ties and `examined` are those of the full
scan. The scan runs on the calling thread; `jobs` is accepted for
compatibility and has no effect.

A documented dynamic programming fast path covers the one family where
constrained DP is exact: a surely-viable regime with an additive expected
cost. There, controls are first restricted at each (t, x) to the
kernel-preserving ones, then a standard cost recursion picks the cheapest.
The reported value is the recursion's own value at (start, x0), the
expected cost of the reported policy, computed without enumerating
scenarios: bit-exact with evaluate_risk where the probabilities are dyadic,
within 1e-12 otherwise (the recursion groups the sum over scenarios
differently).

An empty feasible set is an answer, not an error: the result carries
resilient=False and value +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _backup,
    _scan_scenarios,
    fill_policy,
    robust_viability_kernel,
)
from .errors import CapacityError, ConfigurationError, InputError
from .model import SystemModel
from .regimes import (
    StochasticViability,
    Viability,
    _membership,
    validate_regime,
)
from .risk import (
    Composed,
    ControlEffort,
    Expectation,
    TabularCost,
    TerminalMiss,
    TimeOutside,
    _evaluate,
    validate_risk,
)
from .strategy import (
    DEFAULT_STRATEGY_CAP,
    MARKOV,
    Strategy,
    _bundle,
    count_strategies,
    rank_layout,
    strategy_from_rank,
)

EXHAUSTIVE = "exhaustive"
DP = "dp"


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Outcome of minimize_risk.

    value equals evaluate_risk of the reported strategy's bundle: bit-exact
    in exhaustive mode; for the DP certificate, bit-exact where the
    probabilities are dyadic and within 1e-12 otherwise. examined counts the
    resilient members of the strategy class, each scanned representative
    standing for its whole class (0 for the DP certificate, which never
    enumerates)."""

    resilient: bool
    value: float
    strategy: Strategy
    examined: int
    certificate: str
    strategy_class: str


def _additive_tables(model, cost):
    """(step_costs (K, n, nu), terminal_costs (n,)) for per-time additive
    cost kinds; None when the kind is not additive."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    step = np.zeros((K, n, nu), dtype=np.float64)
    terminal = np.zeros(n, dtype=np.float64)
    if isinstance(cost, TimeOutside):
        outside = np.array(
            [x not in cost.acceptable for x in range(n)], dtype=np.float64
        )
        step += outside[None, :, None]
        terminal += outside
    elif isinstance(cost, ControlEffort):
        if cost.rates is not None:
            rates = np.asarray(cost.rates, dtype=np.float64)
        else:
            rates = model.controls.coords[:, 0].astype(np.float64)
        step += rates[None, None, :]
    elif isinstance(cost, TerminalMiss):
        terminal += np.array(
            [x not in cost.acceptable for x in range(n)], dtype=np.float64
        )
    elif isinstance(cost, TabularCost):
        step += cost.state_costs[:K, :, None]
        step += cost.control_costs[:, None, :]
        terminal += cost.state_costs[K]
    else:
        return None
    return step, terminal


def _dp_supported(model, regime, risk, strategy_class):
    """Reason the DP fast path does not apply, or None when it does."""
    if strategy_class != MARKOV:
        return "the DP certificate is only produced for the Markov class"
    if not isinstance(risk, Composed) or not isinstance(risk.outer, Expectation):
        return "the DP fast path needs an expected composed cost"
    if _additive_tables(model, risk.cost) is None:
        return "the DP fast path needs a per-time additive cost"
    if not model.uncertainty.has_probs:
        return "expected costs need per-time probability vectors"
    if model.scenario_probs is not None:
        return "the DP fast path assumes independence across times"
    if isinstance(regime, Viability):
        return None
    if isinstance(regime, StochasticViability) and regime.beta == 1.0:
        for t in range(model.horizon):
            if any(p <= 0.0 for p in model.uncertainty.probs[t]):
                return (
                    "beta = 1 only matches sure viability when every "
                    "uncertainty value has positive probability"
                )
        return None
    return "the DP fast path covers surely-viable regimes only"


def _minimize_dp(model, x0, start, regime, risk, strategy_class):
    acceptable = regime.acceptable
    kernel = robust_viability_kernel(model, acceptable, domain="full")
    if not kernel.member[start, x0]:
        return OptimizationResult(False, math.inf, None, 0, DP, strategy_class)
    step, terminal = _additive_tables(model, risk.cost)
    K, n = model.horizon, model.n_states
    value = np.where(kernel.member[K], terminal, math.inf)
    picks = np.full((K, n), -1, dtype=np.int32)
    for t in range(K - 1, start - 1, -1):
        # cheapest among the controls that keep every w inside the kernel:
        # value is inf off it and the cemetery reads inf, so any other
        # control scores inf (or NaN under a zero weight) and never attains
        best, u = _backup(
            model, t, range(model.uncertainty.size(t)), value, math.inf,
            probs=model.uncertainty.probs[t], init=step[t],
        )
        value = np.where(kernel.member[t], best, math.inf)
        picks[t] = np.where(kernel.member[t], u, -1)
    strategy = fill_policy(model, picks, start)
    # the sweep's value is the reported policy's expected cost: every state
    # it reaches from x0 is in the kernel, where it plays the picked control
    return OptimizationResult(
        True, float(value[x0]), strategy, 0, DP, strategy_class
    )


def _scan_ranks(model, x0, start, regime, risk, strategy_class, ranks):
    """Scan the given ranks, ascending; return (value, rank, examined) of
    the first strict minimizer (rank -1 when none is resilient)."""
    scenarios = _scan_scenarios(model, regime, start)
    best = math.inf
    best_rank = -1
    examined = 0
    for rank in ranks:
        strat = strategy_from_rank(model, rank, strategy_class, start)
        bundle = _bundle(model, strat, x0, start, scenarios)
        if not _membership(model, regime, bundle, scenarios):
            continue
        examined += 1
        full = scenarios.full
        if bundle.robust:
            bundle = _bundle(model, strat, x0, start, full)
        value = _evaluate(model, risk, bundle, full)
        if best_rank < 0 or value < best:
            best = value
            best_rank = rank
    return best, best_rank, examined


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
    `start`. Ties go to the lexicographically least strategy. `jobs` has no
    effect."""
    validate_regime(model, regime)
    validate_risk(model, risk)
    if not 0 <= x0 < model.n_states:
        raise InputError(f"x0 must be an ordinary state index, got {x0}")
    if method not in ("auto", EXHAUSTIVE, DP):
        raise InputError(f"unknown method {method!r}")

    unsupported = _dp_supported(model, regime, risk, strategy_class)
    if method == DP and unsupported:
        raise ConfigurationError(unsupported)
    if method in ("auto", DP) and not unsupported:
        return _minimize_dp(model, x0, start, regime, risk, strategy_class)

    total = count_strategies(model, strategy_class, start)
    if total > cap:
        reason = f" (no DP certificate: {unsupported})" if unsupported else ""
        raise CapacityError(
            f"exhaustive scan: {total} {strategy_class} strategies exceed "
            f"cap {cap}{reason}"
        )

    layout = rank_layout(model, x0, strategy_class, start)
    best, best_rank, count = _scan_ranks(
        model, x0, start, regime, risk, strategy_class,
        map(layout.rank, range(layout.size)),
    )
    examined = count * layout.class_size
    if best_rank < 0:
        return OptimizationResult(
            False, math.inf, None, examined, EXHAUSTIVE, strategy_class
        )
    strategy = strategy_from_rank(model, best_rank, strategy_class, start)
    return OptimizationResult(
        True, best, strategy, examined, EXHAUSTIVE, strategy_class
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
    jobs: int = 1,
) -> float:
    """Minimized risk over resilient strategies; +inf when none exists."""
    return minimize_risk(
        model, x0, start, regime, risk,
        strategy_class=strategy_class, method=method, cap=cap, jobs=jobs,
    ).value
