"""Time the backward recursions of the DP engine against (n, nu, nw, K).

Usage: PYTHONPATH=src python benchmarks/bench_dp.py [--repeat N] [--out PATH]

Runs the robust and full-domain viability kernel, the stochastic viability
value, the robust recovery table (deadline 5) and the DP certificate of
minimize_risk (method="dp", Markov and adapted class) on a synthetic
clip-dynamics model for every size in the grid, keeps the best of --repeat
(default 10) wall times per recursion, and writes them to --out (default
BENCH_dp.json at the repository root) with the machine, the numpy version,
the simulation backend and a sha256 of every output array, so that two
versions of the engine can be compared on speed and shown to give the same
bytes.

The one-time tables each model builds on first use and keeps are timed
apart, before the recursions, so that best-of-N does not hide them:
pack_s is the padded tables of the simulation kernel (packed_tables) and
planes_s the successor table every backup steps on
(model.successor_planes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import time
from types import SimpleNamespace

import numpy as np

import resilkit as rk
from resilkit.model import packed_tables, successor_planes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIFTS = (-2, -1, 1, 2)  # per-time noise shifts; the robust subset is +-1
GRID = [(n, 5, len(SHIFTS), K) for n in (300, 3000) for K in (10, 40)]
DEADLINE = 5


def build_case(n, nu, K, seed=0):
    """Clip dynamics next = clip(x + u - (nu-1)//2 + shift[t, w], 0, n-1)
    with a seeded shift order per time, 10% of controls inadmissible (never
    the neutral one), ratio-of-integer probabilities, and the middle 60% of
    the states acceptable."""
    nw = len(SHIFTS)
    rng = np.random.default_rng([seed, n, nu, nw, K])
    shift = np.stack([rng.permutation(SHIFTS) for _ in range(K)])
    x = np.arange(n)[None, :, None, None]
    u = np.arange(nu)[None, None, :, None]
    dyn = np.clip(x + u - (nu - 1) // 2 + shift[:, None, None, :], 0, n - 1)
    con = rng.random((K, n, nu)) >= 0.1
    con[:, :, (nu - 1) // 2] = True
    probs = []
    for _ in range(K):
        p = rng.integers(1, 8, size=nw).astype(np.float64)
        probs.append(tuple(p / p.sum()))
    robust = [tuple(np.flatnonzero(np.abs(s) == 1).tolist()) for s in shift]
    labels = tuple(str(w) for w in range(nw))
    model = rk.SystemModel(
        rk.TimeGrid(K),
        rk.StateSpace(tuple(str(i) for i in range(n))),
        rk.ControlSpace(tuple(str(i) for i in range(nu))),
        rk.UncertaintyStructure(
            tuple(labels for _ in range(K)), tuple(probs), tuple(robust)
        ),
        dyn.astype(np.int32),
        con,
    )
    lo = n // 5
    return model, frozenset(range(lo, lo + (3 * n) // 5))


def optimize_dp(model, acceptable, strategy_class=rk.MARKOV):
    """minimize_risk's DP certificate from the middle state: the least
    expected seeded tabular cost while staying in `acceptable`, over the
    strategy class. Returns the policy array and the value, for hashing:
    both classes get the one Markov witness, so their hashes are equal."""
    K, n, nu = model.horizon, model.n_states, model.n_controls
    rng = np.random.default_rng([n, nu, K])
    cost = rk.TabularCost(rng.random((K + 1, n)).round(3),
                          rng.random((K, nu)).round(3))
    out = rk.minimize_risk(model, n // 2, 0, rk.Viability(acceptable),
                           rk.Composed(cost, rk.Expectation()),
                           strategy_class=strategy_class, method="dp")
    return SimpleNamespace(
        policy=rk.markov_policy_array(model, out.strategy),
        value=np.asarray(out.value, dtype=np.float64),
    )


RECURSIONS = {
    "kernel_robust": (
        lambda m, a: rk.robust_viability_kernel(m, a, domain="robust"),
        ("member", "witness"),
    ),
    "kernel_full": (
        lambda m, a: rk.robust_viability_kernel(m, a, domain="full"),
        ("member", "witness"),
    ),
    "value": (
        rk.stochastic_viability_value,
        ("value", "witness"),
    ),
    "recovery": (
        lambda m, a: rk.robust_recovery_table(m, a, DEADLINE),
        ("layers", "min_layer", "witness", "r_star"),
    ),
    "optimize_dp": (optimize_dp, ("policy", "value")),
    "optimize_dp_adapted": (
        lambda m, a: optimize_dp(m, a, rk.ADAPTED),
        ("policy", "value"),
    ),
}


def sha256(table, fields):
    h = hashlib.sha256()
    for name in fields:
        arr = getattr(table, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_dp.json"))
    args = ap.parse_args()

    cases = []
    for n, nu, nw, K in GRID:
        model, acceptable = build_case(n, nu, K)
        # each built once per model and cached on it
        t0 = time.perf_counter()
        packed_tables(model)
        t1 = time.perf_counter()
        successor_planes(model)
        t2 = time.perf_counter()
        case = {"n": n, "nu": nu, "nw": nw, "K": K,
                "acceptable": len(acceptable),
                "pack_s": t1 - t0, "planes_s": t2 - t1,
                "best_s": {}, "sha256": {}}
        for name, (fn, fields) in RECURSIONS.items():
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                table = fn(model, acceptable)
                best = min(best, time.perf_counter() - t0)
            case["best_s"][name] = best
            case["sha256"][name] = sha256(table, fields)
            print(f"n={n:5d} nu={nu} nw={nw} K={K:3d}  {name:19s}"
                  f" {best:9.4f} s  {case['sha256'][name][:12]}", flush=True)
        cases.append(case)

    out = {
        "layer": "dp",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "numpy": np.__version__,
        "backend": rk.backend_name(),
        "repeat": args.repeat,
        "deadline": DEADLINE,
        "cases": cases,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
