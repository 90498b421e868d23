import math
import os
from pathlib import Path

import numpy as np
import pytest

import resilkit as rk
from resilkit._sim import simulate_batch
from resilkit.model import (
    ControlSpace,
    StateSpace,
    SystemModel,
    TimeGrid,
    UncertaintyStructure,
    _Scenarios,
    successor_planes,
)

# Four-level reservoir, horizon 3: x' = clip(x + u - w, 0, 3), u in {0,1},
# w in {0,1} with p = 1/2 each. Acceptable operation is {2, 3}.
M1_ACCEPTABLE = frozenset({2, 3})


def pytest_report_header(config):
    return f"resilkit backend: {rk.backend_name()}"


def cli_env(**extra):
    """Environment for a `python -m resilkit` child process: os.environ plus
    `extra`, with the directory holding the imported package first on
    PYTHONPATH, so the child runs the code under test whatever its working
    directory."""
    env = dict(os.environ, **extra)
    root = str(Path(rk.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + rest if rest else root
    return env


def build_m1(robust=None, probs=(0.5, 0.5)):
    return rk.make_model(
        horizon=3,
        state_labels=("0", "1", "2", "3"),
        control_labels=("0", "1"),
        uncertainty_sets=("0", "1"),
        dynamics_fn=lambda t, x, u, w: min(3, max(0, x + u - w)),
        probs=probs,
        robust=robust,
    )


@pytest.fixture
def m1():
    return build_m1()


@pytest.fixture
def m1_benign():
    return build_m1(robust=(0,))


def random_model(
    rng,
    max_states=5,
    max_controls=2,
    max_w=2,
    max_horizon=3,
    with_probs=False,
    with_robust=False,
    cemetery_rate=0.1,
    min_states=1,
    min_controls=1,
):
    """A seeded random system. Robust subsets stay full unless asked for;
    probabilities are ratios of small integers when asked for."""
    n = int(rng.integers(min_states, max_states + 1))
    nu = int(rng.integers(min_controls, max_controls + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    nw = [int(rng.integers(1, max_w + 1)) for _ in range(horizon)]
    nw_max = max(nw)

    dynamics = rng.integers(0, n, size=(horizon, n, nu, nw_max)).astype(np.int32)
    dead = rng.random(dynamics.shape) < cemetery_rate
    dynamics[dead] = n

    constraints = rng.random((horizon, n, nu)) < 0.75
    for t in range(horizon):
        for x in range(n):
            if not constraints[t, x].any():
                constraints[t, x, int(rng.integers(nu))] = True

    sets = tuple(tuple(str(j) for j in range(nw[t])) for t in range(horizon))
    probs = None
    if with_probs:
        probs = []
        for t in range(horizon):
            weights = rng.integers(1, 5, size=nw[t])
            probs.append(tuple(weights / weights.sum()))
        probs = tuple(probs)
    robust = None
    if with_robust:
        robust = []
        for t in range(horizon):
            mask = rng.random(nw[t]) < 0.5
            if not mask.any():
                mask[int(rng.integers(nw[t]))] = True
            robust.append(tuple(int(j) for j in np.flatnonzero(mask)))
        robust = tuple(robust)

    return SystemModel(
        TimeGrid(horizon),
        StateSpace(tuple(str(i) for i in range(n))),
        ControlSpace(tuple(str(i) for i in range(nu))),
        UncertaintyStructure(sets, probs, robust),
        dynamics,
        constraints,
    )


def random_acceptable(rng, model):
    n = model.n_states
    count = int(rng.integers(1, n + 1))
    return frozenset(int(x) for x in rng.permutation(n)[:count])


def random_strategy(rng, model, kind=rk.MARKOV, start=0):
    policies = []
    for t in range(start, model.horizon):
        if kind == rk.MARKOV:
            table = rng.integers(0, model.n_controls, size=model.n_states)
        else:
            table = rng.integers(
                0,
                model.n_controls,
                size=(model.n_states, rk.n_prefixes(model, t, start)),
            )
        policies.append(rk.Policy(t, kind, table))
    return rk.Strategy(start, tuple(policies))


def padded_twin(rng, model):
    """The same model with out-of-range values in the padding w >= |W_t|,
    which no recursion may read; None when no time has padding."""
    dyn = np.array(model.dynamics)
    fills = np.array([-7, model.n_states + 5, 2**31 - 1], dtype=np.int64)
    padded = False
    for t in range(model.horizon):
        pad = dyn[t, :, :, model.uncertainty.size(t):]
        if pad.size:
            pad[...] = rng.choice(fills, size=pad.shape)
            padded = True
    if not padded:
        return None
    return rk.SystemModel(
        model.time, model.states, model.controls, model.uncertainty,
        dyn, model.constraints,
    )


def random_variant(rng, model):
    """The model with its probabilities and robust domain redrawn: per-time
    probabilities that are ratios of small integers, some of them zero;
    none; or an explicit joint distribution, some scenarios unlisted or
    zero. Half the time the robust domain is an explicit scenario list."""
    u = model.uncertainty
    scenarios = rk.enumerate_scenarios(model)
    probs = joint = robust = None
    kind = int(rng.integers(3))
    if kind == 0:
        probs = []
        for t in range(model.horizon):
            weights = rng.integers(0, 4, size=u.size(t))
            if not weights.any():
                weights[int(rng.integers(weights.size))] = 1
            probs.append(tuple(weights / weights.sum()))
        probs = tuple(probs)
    elif kind == 2:
        weights = rng.integers(0, 4, size=len(scenarios))
        if not weights.any():
            weights[int(rng.integers(weights.size))] = 1
        listed = (weights > 0) | (rng.random(weights.size) < 0.5)
        joint = {
            s: float(w / weights.sum())
            for s, w, keep in zip(scenarios, weights, listed) if keep
        }
    if rng.random() < 0.5:
        robust = [s for s in scenarios if rng.random() < 0.5]
        robust = robust or [scenarios[int(rng.integers(len(scenarios)))]]
    return SystemModel(
        model.time, model.states, model.controls,
        UncertaintyStructure(u.sets, probs, u.robust),
        model.dynamics, model.constraints, robust, joint,
    )


def random_paths(rng, model, x0, start, count):
    """`count` random Markov strategies run from x0 at `start` over the full
    scenario set: (the simulate_batch arrays states and controls, the full
    set's _Scenarios, each strategy's bundle over it)."""
    K, n = model.horizon, model.n_states
    policies = np.zeros((count, K, n + 1), dtype=np.int32)
    policies[:, start:, :n] = rng.integers(
        0, model.n_controls, size=(count, K - start, n)
    )
    full = _Scenarios(model)
    states, controls = simulate_batch(
        successor_planes(model), policies, full.table, x0, start
    )
    bundles = [
        rk.strategy._bundle(
            model, rk.strategy._markov_from_table(p[start:, :n], start),
            x0, start, full,
        )
        for p in policies
    ]
    return states, controls, full, bundles


def bundle_member(model, strategy, x0, start, regime):
    """The object path's answer to check_resilient: the regime's membership
    on the strategy's bundle over its quantification domain."""
    bundle = rk.build_bundle(
        model, strategy, x0, start,
        robust_only=isinstance(regime, rk.RobustRecovery),
    )
    return rk.regime_membership(model, regime, bundle)


def outcome(call):
    """call()'s result, or the type and text of the package error it
    raised."""
    try:
        return call()
    except rk.ResilkitError as exc:
        return type(exc), str(exc)


def random_risks(rng, model, acc):
    """Every cost kind on `acc` under every outer functional, and every
    direct measure; penalties include inf, which a path that never reaches
    the cemetery does not pay, and tables include NaN, infinities and
    negative values."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    cells = (0.0, 0.25, 1.0, -0.5, 0.1, 1 / 3, math.nan, math.inf)
    odds = (0.6, 0.1, 0.1, 0.05, 0.05, 0.04, 0.04, 0.02)
    penalty = float(rng.choice((1e18, math.inf, 3.0, 0.0, 0.7)))
    costs = (
        rk.TimeOutside(acc, penalty),
        rk.ControlEffort(None, penalty),
        rk.ControlEffort(tuple(rng.random(nu) * 3 - 1), penalty),
        rk.TerminalMiss(acc, penalty),
        rk.TabularCost(
            rng.choice(cells, size=(K + 1, n), p=odds),
            rng.choice(cells, size=(K, nu), p=odds),
            penalty,
        ),
        rk.RecoveryOffset(acc, penalty),
    )
    level = float(rng.choice((1.0, 0.5, 0.3, 1e-3, rng.uniform(1e-9, 1.0))))
    outers = (rk.Expectation(), rk.WorstCase(), rk.CVaR(level))
    risks = [rk.Composed(c, o) for c in costs for o in outers]
    risks += [rk.ExitCountFunctional(acc, o) for o in outers]
    belief = tuple(
        tuple(np.full(model.uncertainty.size(t), 1.0)
              / model.uncertainty.size(t))
        for t in range(K)
    )
    risks += [
        rk.Exceedance(acc),
        rk.WorstCaseViolation(acc),
        rk.AmbiguityExceedance(acc, (belief,)),
    ]
    return risks
