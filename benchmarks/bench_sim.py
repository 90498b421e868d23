"""Compare the pure-Python and compiled closed-loop simulation kernels.

Usage: PYTHONPATH=src python benchmarks/bench_sim.py [--repeat N]

Times every backend that is available (best of --repeat), reports the
others as unavailable, and byte-compares the outputs when both ran.
"""

from __future__ import annotations

import argparse
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
    packed_tables,
)


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
    best = np.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = simulate_batch(dyn, ok, policies, scenarios, x0, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(7)
    model, policies, scenarios, x0 = build_case(rng)
    dyn, ok = packed_tables(model)
    steps = policies.shape[0] * scenarios.shape[0] * model.horizon

    print(f"default backend: {backend_name()}")
    print(
        f"case: {policies.shape[0]} policies x {scenarios.shape[0]} scenarios"
        f" x horizon {model.horizon}  ({steps} steps)"
    )
    times, outputs = {}, {}
    for backend in ("py", "fast"):
        try:
            times[backend], outputs[backend] = run(
                backend, dyn, ok, policies, scenarios, x0, args.repeat
            )
        except ConfigurationError as exc:
            print(f"{backend:4s} backend: unavailable ({exc})")
            continue
        t = times[backend]
        print(
            f"{backend:4s} backend: {t * 1e3:8.2f} ms"
            f"   {steps / t / 1e6:8.2f} Msteps/s"
        )
    if len(outputs) == 2:
        same = all(
            a.tobytes() == b.tobytes()
            for a, b in zip(outputs["py"], outputs["fast"])
        )
        print(f"outputs identical: {same}")
        print(f"speedup: {times['py'] / times['fast']:.1f}x")


if __name__ == "__main__":
    main()
