"""Time the exhaustive scan of minimize_risk against the class it decides,
and oracle_min_risk, which decides the same question over the whole class.

Usage: PYTHONPATH=src python benchmarks/bench_scan.py [--repeat N] [--out PATH]
           [--before PATH]

Runs minimize_risk(method="exhaustive") over the Markov class on
models/m1_benign.model from every state, and on three reservoir models
(level + inflow - drawdown, the shapes of perfbench's scan workload) from
both end states under four regime/risk pairs; then the same reservoir cases
over the adapted class, on the reservoirs whose adapted class is under the
strategy cap. For every case it records the strategy class and its size,
how many representatives the scan decides (strategy.rank_layout(...).size,
one per class of strategies that agree on the policy slots reachable from
x0), `bundles`, the trajectory bundles built during the scan
(strategy._bundle calls; the scan decides and prices on simulated path
arrays, so it reads 0 wherever no bundle route is left), `examined`, the
best of --repeat wall times, class members decided per second,
representatives decided per second, and a sha256 of the result (value bits,
examined, certificate, strategy tables), so two versions of the scan can be
compared on speed and shown to give the same answers. Each case also gets
one oracle_min_risk row over the same class: the best wall time, class
members decided per second, the bundles it priced (oracle._evaluate calls:
on the batched route one per distinct member row set per simulated block,
so members that share their rows are priced once, on a bundle built from
the first one's rows; on the object path, which the adapted class takes,
one per member, on a bundle built by strategy._bundle) and a sha256 of its
value bits, examined count and witness tables. Writes --out
(default BENCH_scan.json at the repository root) with the machine, the
numpy version and the simulation backend. --before names a file this
harness wrote on another version of the code (run with PYTHONPATH pointing
at that version's src); its rows are kept under "before", so one file shows
both versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import time

import numpy as np

import resilkit as rk
from bench_dp import cpu_model
from resilkit.strategy import DEFAULT_STRATEGY_CAP

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# (n, nu, K, drawdown, calm probability), as in perfbench's scan workload
RESERVOIRS = ((5, 2, 2, 1, 0.75), (3, 3, 2, 2, 0.625), (3, 2, 3, 1, 0.5))


def reservoir(n, nu, K, drawdown, calm, seed=0):
    """Level + inflow control - drawdown, clipped to 0..n-1; the seed orders
    the two noise labels per time and prices the controls. Overfilling a
    full reservoir is inadmissible."""
    rng = np.random.default_rng([seed, n, nu, K])
    order = np.stack([rng.permutation(2) for _ in range(K)])
    shift = -np.where(order == 0, 0, drawdown)
    x = np.arange(n)[None, :, None, None]
    u = np.arange(nu)[None, None, :, None]
    dyn = np.clip(x + u + shift[:, None, None, :], 0, n - 1).astype(np.int32)
    con = np.ones((K, n, nu), dtype=bool)
    con[:, n - 1, nu - 1] = False
    probs = tuple(tuple(np.where(o == 0, calm, 1 - calm)) for o in order)
    robust = tuple((int(np.flatnonzero(o == 0)[0]),) for o in order)
    model = rk.SystemModel(
        rk.TimeGrid(K),
        rk.StateSpace(tuple(str(i) for i in range(n))),
        rk.ControlSpace(tuple(str(i) for i in range(nu))),
        rk.UncertaintyStructure((("0", "1"),) * K, probs, robust),
        dyn,
        con,
    )
    A = frozenset(range((n + 1) // 2, n))
    R = frozenset(range(1, n))
    combos = {
        "rr": (rk.RobustRecovery(A, K),
               rk.Composed(rk.RecoveryOffset(A), rk.WorstCase())),
        "bd": (rk.Bounded(R), rk.Composed(rk.TimeOutside(A), rk.CVaR(0.5))),
        "ak": (rk.AtMostKExits(R, 1), rk.Exceedance(A)),
        "pe": (rk.ProbExcursion(R, 0.5),
               rk.Composed(rk.ControlEffort(tuple(rng.random(nu).round(3))),
                           rk.CVaR(0.75))),
    }
    return model, combos


def cases():
    """(name, model, x0, regime, risk, strategy class) for every timed
    scan: the Markov class first, then the adapted class where it is under
    the strategy cap."""
    with open(os.path.join(ROOT, "models", "m1_benign.model"),
              encoding="utf-8") as fh:
        parsed = rk.parse_model(fh.read())
    for x0 in range(parsed.model.n_states):
        yield ("m1_benign", parsed.model, x0, parsed.regime, parsed.risk,
               rk.MARKOV)
    for kind in (rk.MARKOV, rk.ADAPTED):
        for shape in RESERVOIRS:
            model, combos = reservoir(*shape)
            if rk.count_strategies(model, kind, 0) > DEFAULT_STRATEGY_CAP:
                continue
            name = "reservoir n={} nu={} K={}".format(*shape[:3])
            for x0 in (0, model.n_states - 1):
                for key, (regime, risk) in combos.items():
                    yield f"{name} {key}", model, x0, regime, risk, kind


def sha256(result):
    h = hashlib.sha256()
    h.update(repr((result.resilient, float(result.value).hex(),
                   result.examined, result.certificate,
                   result.strategy_class)).encode())
    if result.strategy is not None:
        for pol in result.strategy.policies:
            h.update(f"{pol.t}:{pol.kind}:{pol.table.shape}".encode())
            h.update(np.ascontiguousarray(pol.table).tobytes())
    return h.hexdigest()


def scan(model, x0, regime, risk, kind):
    """(result, representatives, bundles built) of one exhaustive
    minimize_risk over the strategy class `kind`."""
    bundles = 0
    modules = [m for m in (rk.strategy, rk.optimize, rk.engine)
               if hasattr(m, "_bundle")]
    builds = [m._bundle for m in modules]
    build = rk.strategy._bundle

    def counting(*args, **kwargs):
        nonlocal bundles
        bundles += 1
        return build(*args, **kwargs)

    for m in modules:
        m._bundle = counting
    try:
        result = rk.minimize_risk(model, x0, 0, regime, risk, kind,
                                  method="exhaustive")
    finally:
        for m, original in zip(modules, builds):
            m._bundle = original
    layout = rk.strategy.rank_layout(model, x0, kind, 0)
    return result, layout.size, bundles


def oracle_sha256(value, strategy, examined):
    h = hashlib.sha256()
    h.update(repr((float(value).hex(), examined)).encode())
    if strategy is not None:
        for pol in strategy.policies:
            h.update(f"{pol.t}:{pol.kind}:{pol.table.shape}".encode())
            h.update(np.ascontiguousarray(pol.table).tobytes())
    return h.hexdigest()


def oracle_row(name, model, x0, regime, risk, kind, repeat):
    """One oracle_min_risk row over the strategy class `kind`: best time,
    class/s, bundles priced, sha256."""
    priced = 0
    evaluate = rk.oracle._evaluate

    def counting(*args, **kwargs):
        nonlocal priced
        priced += 1
        return evaluate(*args, **kwargs)

    rk.oracle._evaluate = counting
    try:
        value, strategy, examined = rk.oracle_min_risk(model, x0, 0, regime,
                                                       risk, kind)
    finally:
        rk.oracle._evaluate = evaluate
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        rk.oracle_min_risk(model, x0, 0, regime, risk, kind)
        best = min(best, time.perf_counter() - t0)
    class_size = rk.count_strategies(model, kind, 0)
    return {"name": name, "x0": x0, "class": kind, "class_size": class_size,
            "examined": examined, "priced": priced, "best_s": best,
            "class_per_s": class_size / best,
            "sha256": oracle_sha256(value, strategy, examined)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_scan.json"))
    ap.add_argument("--before", default=None)
    args = ap.parse_args()

    out_cases, oracle_rows = [], []
    for name, model, x0, regime, risk, kind in cases():
        result, scanned, bundles = scan(model, x0, regime, risk, kind)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            rk.minimize_risk(model, x0, 0, regime, risk, kind,
                             method="exhaustive")
            best = min(best, time.perf_counter() - t0)
        class_size = rk.count_strategies(model, kind, 0)
        case = {"name": name, "x0": x0, "class": kind,
                "class_size": class_size,
                "scanned": scanned, "bundles": bundles,
                "examined": result.examined, "best_s": best,
                "class_per_s": class_size / best,
                "scanned_per_s": scanned / best, "sha256": sha256(result)}
        print(f"{name:26s} x0={x0} {kind:7s} class {class_size:6d}  scanned "
              f"{scanned:5d}  bundles {bundles:5d}  {best:8.4f} s  "
              f"{case['sha256'][:12]}", flush=True)
        out_cases.append(case)
        row = oracle_row(name, model, x0, regime, risk, kind, args.repeat)
        print(f"{'  oracle_min_risk':26s}              class {class_size:6d}  "
              f"{'':14s}  priced  {row['priced']:5d}  {row['best_s']:8.4f} s  "
              f"{row['sha256'][:12]}", flush=True)
        oracle_rows.append(row)

    out = {
        "layer": "scan",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "numpy": np.__version__,
        "backend": rk.backend_name(),
        "repeat": args.repeat,
        "cases": out_cases,
        "oracle_min": oracle_rows,
    }
    if args.before:
        with open(args.before, encoding="utf-8") as f:
            before = json.load(f)
        out["before"] = {key: before.get(key)
                         for key in ("repeat", "cases", "oracle_min")}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
