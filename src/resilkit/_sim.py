"""Batched closed-loop simulation in numpy, the oracle's Markov kernel."""

import numpy as np


def backend_name():
    """Name of the simulation kernel; there is one, the numpy one."""
    return "py"


def simulate_batch(dyn, ok, policies, scenarios, x0, start=0):
    """Run every (policy, scenario) pair from state x0 at time `start`.

    dyn       int32 (K, n+1, nu, nw_max), cemetery row absorbing
    ok        uint8 (K, n+1, nu), cemetery row all ones
    policies  int32 (S, K, n+1), Markov tables (cemetery column = 0)
    scenarios int32 (M, K)
    Returns (states, controls): int32 (S, M, L+1) and (S, M, L), L = K-start.
    """
    S = policies.shape[0]
    M = scenarios.shape[0]
    K = dyn.shape[0]
    L = K - start
    dead = dyn.shape[1] - 1
    states = np.empty((S, M, L + 1), dtype=np.int32)
    controls = np.empty((S, M, L), dtype=np.int32)
    x = np.full((S, M), x0, dtype=np.int32)
    states[:, :, 0] = x
    for step in range(L):
        t = start + step
        u = np.take_along_axis(policies[:, t, :], x, axis=1)
        admissible = ok[t][x, u].astype(bool)
        nxt = dyn[t][x, u, scenarios[:, t]]
        x = np.where(admissible, nxt, dead).astype(np.int32)
        controls[:, :, step] = u
        states[:, :, step + 1] = x
    return states, controls
