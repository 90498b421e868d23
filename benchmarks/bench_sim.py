"""Time the batched closed-loop simulation kernel.

Usage: PYTHONPATH=src python benchmarks/bench_sim.py [--repeat N] [--out PATH]

Runs simulate_batch on a seeded case (256 Markov policies x 200 scenarios x
horizon 12 on 40 states), on successor planes folded from the model's
packed tables outside the timed loop, keeps the best of --repeat wall
times, and writes --out (default BENCH_sim.json at the repository root)
with the machine, the numpy version, the backend, Msteps/s and a sha256 of
the output arrays, so two versions of the kernel can be compared on speed
and shown to give the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import time

import numpy as np

from resilkit._sim import backend_name, simulate_batch
from resilkit.errors import ConfigurationError
from resilkit.model import (
    ControlSpace,
    StateSpace,
    SystemModel,
    TimeGrid,
    UncertaintyStructure,
    _fold_planes,
    packed_tables,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_case(rng, n=40, nu=4, nw=3, horizon=12, n_policies=256, n_scen=200):
    dynamics = rng.integers(0, n + 1, size=(horizon, n, nu, nw), dtype=np.int32)
    constraints = rng.random((horizon, n, nu)) < 0.8
    for t in range(horizon):
        for x in range(n):
            if not constraints[t, x].any():
                constraints[t, x, rng.integers(nu)] = True
    model = SystemModel(
        TimeGrid(horizon),
        StateSpace(tuple(str(i) for i in range(n))),
        ControlSpace(tuple(str(i) for i in range(nu))),
        UncertaintyStructure(
            tuple(tuple(str(w) for w in range(nw)) for _ in range(horizon))
        ),
        dynamics,
        constraints,
    )
    policies = rng.integers(0, nu, size=(n_policies, horizon, n + 1), dtype=np.int32)
    policies[:, :, n] = 0
    scenarios = rng.integers(0, nw, size=(n_scen, horizon), dtype=np.int32)
    x0 = np.zeros(1, dtype=np.int32) + rng.integers(n)
    return model, policies, scenarios, int(x0[0])


def run(backend, dyn, ok, policies, scenarios, x0, repeat):
    """(best wall time, outputs) of simulate_batch on the packed tables
    (dyn, ok) of model.packed_tables; ConfigurationError for any backend
    but the one resilkit has. The kernel steps on successor planes, which
    are folded from the tables by the model module's builder, untimed."""
    if backend != backend_name():
        raise ConfigurationError(
            f"no {backend!r} simulation kernel; resilkit has {backend_name()!r}"
        )
    planes = _fold_planes(dyn[:, :-1], ok[:, :-1] != 0,
                          [dyn.shape[3]] * len(dyn))
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = simulate_batch(planes, policies, scenarios, x0)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    # imported here: perfbench loads this file by path, without benchmarks/
    # on sys.path, and needs only build_case and run
    from bench_dp import cpu_model

    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_sim.json"))
    args = ap.parse_args()

    rng = np.random.default_rng(7)
    model, policies, scenarios, x0 = build_case(rng)
    dyn, ok = packed_tables(model)
    steps = policies.shape[0] * scenarios.shape[0] * model.horizon
    best, outputs = run(backend_name(), dyn, ok, policies, scenarios, x0,
                        args.repeat)
    h = hashlib.sha256()
    for arr in outputs:
        h.update(np.ascontiguousarray(arr).tobytes())
    case = {"policies": policies.shape[0], "scenarios": scenarios.shape[0],
            "horizon": model.horizon, "n": model.n_states,
            "nu": model.n_controls, "steps": steps, "best_s": best,
            "msteps_per_s": steps / best / 1e6, "sha256": h.hexdigest()}
    print(f"{backend_name()} kernel: {case['policies']} policies x "
          f"{case['scenarios']} scenarios x horizon {case['horizon']}  "
          f"{best * 1e3:8.2f} ms  {case['msteps_per_s']:8.2f} Msteps/s  "
          f"{case['sha256'][:12]}")

    out = {
        "layer": "sim",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "numpy": np.__version__,
        "backend": backend_name(),
        "repeat": args.repeat,
        "cases": [case],
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
