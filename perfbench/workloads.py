"""Seeded workloads for the resilkit benchmark.

Every workload is a closed loop: one client issues one exact query after
another, each after the previous one returned. A workload is built from a
pool index (``seed % POOL``); the program only ever sees the generated
models and queries. The reference outputs in ``reference.json`` were
recorded once per pool index, so every seed is checked against them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import resilkit as rk

POOL = 16
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = min(2, len(os.sched_getaffinity(0)))


@dataclass
class Query:
    key: str  # unique within a workload; indexes the reference file
    kind: str  # selects the output canonicalization in checks.py
    call: object  # zero-argument callable issuing the query
    model: object = None  # the SystemModel queried (None for cli)
    info: dict = field(default_factory=dict)  # what the checks need


@dataclass
class Workload:
    name: str
    reason: str
    models: list
    queries: list
    instances: list  # (model, acceptable, x0s, extra) per generated input
    probe: object = None  # certify: the above-cap query, run untimed


def _model(K, n, nu, nw, dyn, con, probs, robust):
    labels = tuple(str(i) for i in range(nw))
    unc = rk.UncertaintyStructure(
        tuple(labels for _ in range(K)), tuple(probs), tuple(robust)
    )
    return rk.SystemModel(
        rk.TimeGrid(K),
        rk.StateSpace(tuple(str(i) for i in range(n))),
        rk.ControlSpace(tuple(str(i) for i in range(nu))),
        unc,
        dyn,
        con,
    )


def _probs(rng, K, nw):
    out = []
    for _ in range(K):
        p = rng.integers(1, 8, size=nw).astype(np.float64)
        out.append(tuple(p / p.sum()))
    return out


def clip_dynamics(n, nu, shift):
    """next = clip(x + u - (nu-1)//2 + shift[t, w], 0, n-1); shift (K, nw)."""
    x = np.arange(n)[None, :, None, None]
    u = np.arange(nu)[None, None, :, None]
    nxt = x + u - (nu - 1) // 2 + shift[:, None, None, :]
    return np.clip(nxt, 0, n - 1).astype(np.int32)


def reachable_share(model, x0, start=0):
    """Share of Markov policy slots (t, x), t >= start, reachable from x0
    under some control and scenario."""
    dyn, _ = rk.model.packed_tables(model)
    n = model.n_states
    here = np.zeros(n + 1, dtype=bool)
    here[x0] = True
    slots = 0
    for t in range(start, model.horizon):
        here[n] = False
        slots += int(here.sum())
        nxt = np.zeros(n + 1, dtype=bool)
        nxt[dyn[t][here].ravel()] = True
        here = nxt
    return slots / (n * (model.horizon - start))


def input_properties(workload, start=0):
    """One dict of input properties per generated instance."""
    return [
        dict(_props(m, acceptable, x0s, start), **extra)
        for m, acceptable, x0s, extra in workload.instances
    ]


def _props(model, acceptable, x0s, start):
    n, nu = model.n_states, model.n_controls
    scenarios = rk.count_scenarios(model)
    strategies = rk.count_strategies(model, rk.MARKOV, start)
    return {
        "n": n,
        "nu": nu,
        "nw": int(model.dynamics.shape[3]),
        "K": model.horizon,
        "scenarios": scenarios,
        "scenarios_over_cap": scenarios / rk.DEFAULT_SCENARIO_CAP,
        "markov_strategies_log10": round(n * (model.horizon - start)
                                         * math.log10(nu), 3),
        "markov_strategies": strategies if strategies <= 10**9 else None,
        "acceptable_share": len(acceptable) / n,
        "reachable_slot_share": {
            str(x0): round(reachable_share(model, x0, start), 4) for x0 in x0s
        },
    }


# --- sweep ----------------------------------------------------------------

SWEEP_N, SWEEP_NU, SWEEP_NW, SWEEP_K, SWEEP_DEADLINE = 1000, 5, 4, 10, 5
SWEEP_SHARES = (0.3, 0.6, 0.9)
SWEEP_SHIFTS = (-2, -1, 1, 2)


def sweep(pool):
    rng = np.random.default_rng([1, pool])
    n, nu, nw, K = SWEEP_N, SWEEP_NU, SWEEP_NW, SWEEP_K
    models, queries, inputs = [], [], []
    for i, share in enumerate(SWEEP_SHARES):
        # each time draws the same noise shifts in a seeded order, and the
        # robust subset is the two mild ones, so that every seed does the
        # same amount of work
        shift = np.stack([rng.permutation(SWEEP_SHIFTS) for _ in range(K)])
        dyn = clip_dynamics(n, nu, shift)
        con = rng.random((K, n, nu)) >= 0.1
        con[:, :, (nu - 1) // 2] |= ~con.any(axis=2)
        robust = [tuple(np.flatnonzero(np.abs(s) == 1).tolist()) for s in shift]
        m = _model(K, n, nu, nw, dyn, con, _probs(rng, K, nw), robust)
        size = int(n * share)
        lo = int(rng.integers(0, n - size + 1))
        A = frozenset(range(lo, lo + size))
        models.append(m)
        inputs.append((m, A, (), {}))
        p = f"i{i}."
        queries += [
            Query(p + "kernel.robust", "kernel", _f(rk.robust_viability_kernel,
                  m, A, "robust"), m),
            Query(p + "kernel.full", "kernel", _f(rk.robust_viability_kernel,
                  m, A, "full"), m),
            Query(p + "value", "value", _f(rk.stochastic_viability_value, m, A),
                  m, {"acceptable": A}),
            Query(p + "recovery", "recovery", _f(rk.robust_recovery_table,
                  m, A, SWEEP_DEADLINE), m),
            Query(p + "resilient.viability", "resilient_states",
                  _f(rk.resilient_states, m, 0, rk.Viability(A)), m),
            Query(p + "resilient.recovery", "resilient_states",
                  _f(rk.resilient_states, m, 0,
                     rk.RobustRecovery(A, SWEEP_DEADLINE)), m),
            Query(p + "resilient.stochastic", "resilient_states",
                  _f(rk.resilient_states, m, 0,
                     rk.StochasticViability(A, 0.9)), m),
        ]
    return Workload(
        "sweep",
        "backward DP over 1000 states: engine loops do nearly all the work, "
        "strategy and _sim none; acceptable shares 0.3/0.6/0.9 separate the "
        "kernel (acceptable states only) from recovery (all states)",
        models, queries, inputs,
    )


def _f(fn, *args, **kwargs):
    """A zero-argument query calling fn; resilkit functions are looked up
    at call time so that the traced run sees its wrapped boundaries."""
    module = getattr(fn, "__module__", "")
    resolve = module.startswith("resilkit")
    name = fn.__name__ if resolve else None

    def call():
        f = getattr(sys.modules[module], name) if resolve else fn
        return f(*args, **kwargs)
    return call


# --- scan -----------------------------------------------------------------

# (n, nu, K, drawdown, P(no drawdown)): whole Markov classes of 1024, 729
# and 512 strategies
SCAN_SHAPES = ((5, 2, 2, 1, 0.75), (3, 3, 2, 2, 0.625), (3, 2, 3, 1, 0.5))


def scan(pool):
    rng = np.random.default_rng([2, pool])
    models, queries, inputs = [], [], []
    for i, (n, nu, K, drawdown, calm) in enumerate(SCAN_SHAPES):
        # reservoir: level + inflow control - drawdown. The seed orders the
        # two noise labels per time and prices the controls; the scan's work
        # (how many strategies are resilient, how far each is simulated)
        # does not depend on either, so every seed does the same work.
        nw = 2
        order = np.stack([rng.permutation(nw) for _ in range(K)])
        draw = np.where(order == 0, 0, drawdown)
        dyn = clip_dynamics(n, nu, -draw + (nu - 1) // 2)
        con = np.ones((K, n, nu), dtype=bool)
        con[:, n - 1, nu - 1] = False  # overfilling a full reservoir fails
        probs = [tuple(np.where(o == 0, calm, 1 - calm)) for o in order]
        robust = [(int(np.flatnonzero(o == 0)[0]),) for o in order]
        m = _model(K, n, nu, nw, dyn, con, probs, robust)
        A = frozenset(range((n + 1) // 2, n))
        R = frozenset(range(1, n))
        x0s = (0, n - 1)
        models.append(m)
        inputs.append((m, A, x0s, {}))
        combos = {
            "rr": (rk.RobustRecovery(A, K),
                   rk.Composed(rk.RecoveryOffset(A), rk.WorstCase())),
            "bd": (rk.Bounded(R), rk.Composed(rk.TimeOutside(A), rk.CVaR(0.5))),
            "ak": (rk.AtMostKExits(R, 1), rk.Exceedance(A)),
            "pe": (rk.ProbExcursion(R, 0.5),
                   rk.Composed(rk.ControlEffort(rng.random(nu).round(3)),
                               rk.CVaR(0.75))),
        }
        p = f"i{i}."
        for x0 in x0s:
            for name, (regime, risk) in combos.items():
                queries.append(Query(
                    f"{p}x{x0}.min.{name}", "minimize",
                    _f(rk.minimize_risk, m, x0, 0, regime, risk), m,
                    {"x0": x0, "regime": regime, "risk": risk},
                ))
            regime, risk = combos["bd"]
            queries.append(Query(
                f"{p}x{x0}.oracle_min.bd", "oracle_min_risk",
                _f(rk.oracle_min_risk, m, x0, 0, regime, risk), m,
            ))
        regime, risk = combos["rr"]
        queries += [
            Query(f"{p}x{n - 1}.min.rr.jobs", "minimize",
                  _f(rk.minimize_risk, m, n - 1, 0, regime, risk, jobs=JOBS),
                  m, {"x0": n - 1, "regime": regime, "risk": risk}),
            Query(p + "oracle_resilient.viability", "oracle_resilient_states",
                  _f(rk.oracle_resilient_states, m, 0, rk.Viability(A)), m,
                  {"acceptable": A}),
            Query(p + "oracle_value", "oracle_value",
                  _f(rk.oracle_value, m, A), m, {"acceptable": A}),
            Query(p + "oracle_recovery", "oracle_recovery",
                  _f(rk.oracle_recovery_offsets, m, A), m, {"acceptable": A}),
            Query(p + "resilient.bounded", "resilient_states",
                  _f(rk.resilient_states, m, 0, rk.Bounded(R)), m,
                  {"oracle_regime": rk.Bounded(R)}),
        ]
    return Workload(
        "scan",
        "exhaustive strategy scans on small models: optimize._scan_ranks with "
        "strategy, regimes and risk on the object path, _sim in the batched "
        "oracle; engine recursions idle; x0 at both ends varies the "
        "resilient and reachable shares",
        models, queries, inputs,
    )


# --- certify --------------------------------------------------------------

CERTIFY_N, CERTIFY_NU, CERTIFY_NW = 10, 3, 3
CERTIFY_KS = (6, 7, 8)
CERTIFY_ABOVE_CAP_K = 13  # 3**13 scenarios exceed DEFAULT_SCENARIO_CAP


def _certify_instance(rng, K):
    n, nu, nw = CERTIFY_N, CERTIFY_NU, CERTIFY_NW
    # every time has noise -1, 0, +1 in some order, so an interval of width
    # >= 3 is surely viable and every acceptable x0 is in the kernel
    shift = np.stack([rng.permutation([-1, 0, 1]) for _ in range(K)])
    dyn = clip_dynamics(n, nu, shift)
    con = np.ones((K, n, nu), dtype=bool)
    m = _model(K, n, nu, nw, dyn, con, _probs(rng, K, nw),
               [tuple(range(nw))] * K)
    width = int(rng.integers(4, 7))
    lo = int(rng.integers(0, n - width + 1))
    A = frozenset(range(lo, lo + width))
    inner = frozenset(range(lo + 1, lo + width - 1))
    x0 = int(rng.integers(lo, lo + width))
    tab = rk.TabularCost(rng.random((K + 1, n)).round(3),
                         rng.random((K, nu)).round(3))
    combos = {
        "outside": (rk.Viability(A),
                    rk.Composed(rk.TimeOutside(inner), rk.Expectation())),
        "effort": (rk.StochasticViability(A, 1.0),
                   rk.Composed(rk.ControlEffort(), rk.Expectation())),
        "tabular": (rk.Viability(A), rk.Composed(tab, rk.Expectation())),
    }
    return m, A, x0, combos


def certify(pool):
    rng = np.random.default_rng([3, pool])
    models, queries, inputs = [], [], []
    for K in CERTIFY_KS:
        m, A, x0, combos = _certify_instance(rng, K)
        models.append(m)
        inputs.append((m, A, (x0,), {}))
        for name, (regime, risk) in combos.items():
            queries.append(Query(
                f"K{K}.{name}", "minimize",
                _f(rk.minimize_risk, m, x0, 0, regime, risk), m,
                {"x0": x0, "regime": regime, "risk": risk},
            ))
    K = CERTIFY_ABOVE_CAP_K
    m, A, x0, combos = _certify_instance(rng, K)
    regime, risk = combos["outside"]
    probe = Query(f"K{K}.outside", "minimize",
                  _f(rk.minimize_risk, m, x0, 0, regime, risk), m,
                  {"x0": x0, "regime": regime, "risk": risk})
    inputs.append((m, A, (x0,), {"above_cap_probe": True}))
    return Workload(
        "certify",
        "minimize_risk on DP-certified queries: the DP sweep takes "
        "milliseconds, build_bundle plus evaluate_risk over nw^K scenarios "
        "the rest; one strategy against many scenarios",
        models, queries, inputs, probe,
    )


# --- cli ------------------------------------------------------------------

CLI_MODELS = {  # model file -> --x0 label
    "m1": "1",
    "m1_benign": "0",
    "m1_effort": "2",
    "m1_top": "3",
    "m2_plant": "M",
    "m3_grid": "a",
    "m4_belief": "g",
}
CLI_COMMANDS = (
    ("kernel",), ("value",), ("recovery",), ("resilient-set",),
    ("optimize",), ("indicator",),
    ("oracle", "resilient-set"), ("oracle", "value"), ("oracle", "recovery"),
    ("oracle", "min-risk"),
)
CLI_STRATEGY_COMMANDS = (  # m1-family models only (4 states, horizon 3)
    (("check",), "m1_hold"), (("simulate",), "m1_keep"),
    (("oracle", "risk"), "m1_hold"),
)


def cli_candidates():
    """Every (key, argv-without---out) the cli workload may run; the
    reference file keeps those that apply to their model (exit 0 or 1)."""
    out = []
    for name, x0 in CLI_MODELS.items():
        base = ["--model", f"models/{name}.model", "--x0", x0]
        for cmd in CLI_COMMANDS:
            out.append((f"{name}.{'.'.join(cmd)}", [*cmd, *base]))
        if name.startswith("m1"):
            for cmd, strat in CLI_STRATEGY_COMMANDS:
                out.append((
                    f"{name}.{'.'.join(cmd)}",
                    [*cmd, *base, "--strategy", f"models/{strat}.strategy"],
                ))
    return out


def cli(pool, keys, run_cli):
    """keys: the applicable command keys; run_cli(argv) issues one query."""
    argv = dict(cli_candidates())
    rng = np.random.default_rng([4, pool])
    order = [keys[i] for i in rng.permutation(len(keys))]
    queries = [Query(k, "cli", _f(run_cli, argv[k])) for k in order]
    inputs = []
    for name, parsed in parse_cli_models().items():
        m = parsed.model
        acc = rk.regime_state_set(parsed.regime) or frozenset()
        x0 = m.states.index(CLI_MODELS[name])
        inputs.append((m, acc, (x0,), {"model": name}))
    return Workload(
        "cli",
        "one fresh `python -m resilkit` process per query over models/: "
        "interpreter start, import, parse_model and jsonio emit dominate",
        [], queries, inputs,
    )


def parse_cli_models():
    """{name: ParsedModel} of the cli workload's model files."""
    out = {}
    for name in CLI_MODELS:
        with open(os.path.join(ROOT, "models", f"{name}.model"),
                  encoding="utf-8") as fh:
            out[name] = rk.parse_model(fh.read())
    return out


# --- api ------------------------------------------------------------------

PARTS = {"sweep": sweep, "scan": scan, "certify": certify}


def api(pool):
    """The sweep, scan and certify query sets, one after another in each
    pass; keys are prefixed with the part's name."""
    parts = [(name, build(pool)) for name, build in PARTS.items()]
    queries = []
    for name, w in parts:
        for q in [*w.queries, *([w.probe] if w.probe else [])]:
            q.key = f"{name}.{q.key}"
        queries += w.queries
    return Workload(
        "api",
        "in-process queries through the public API, three parts per pass; "
        + "; ".join(f"{name}: {w.reason}" for name, w in parts),
        [m for _, w in parts for m in w.models], queries,
        [(m, a, x0s, dict(extra, part=name))
         for name, w in parts for m, a, x0s, extra in w.instances],
        dict(parts)["certify"].probe,
    )


# Wall time of one pass over a workload's queries at the seed commit, on a
# 2-core Xeon VM (Python 3.11, numpy 2.4, py backend). A run makes a fixed
# number of passes, round(seconds / PASS_S), so that every run of a
# workload, on any commit, has the same sample count and so reports its
# tail at the same percentile.
PASS_S = {"api": 9.5, "cli": 27.0}


def load_models_for_setup(name, pool):
    """The set-up a workload pays before its first query: build or parse
    its models and pack their tables. Returns (models_s, pack_s)."""
    t0 = time.perf_counter()
    if name == "cli":
        models = [p.model for p in parse_cli_models().values()]
    else:
        models = api(pool).models
    t1 = time.perf_counter()
    for m in models:
        rk.model.packed_tables(m)
    return t1 - t0, time.perf_counter() - t1
