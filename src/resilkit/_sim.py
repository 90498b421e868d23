"""Batched closed-loop simulation in numpy: the kernel of the exhaustive
scan (engine, optimize) for both strategy classes and of the oracle's
Markov scans."""

import numpy as np


def backend_name():
    """Name of the simulation kernel; there is one, the numpy one."""
    return "py"


def simulate_batch(dyn, ok, policies, scenarios, x0, start=0, prefixes=None):
    """Run every (policy, scenario) pair from state x0 at time `start`.

    dyn       int32 (K, n+1, nu, nw_max), cemetery row absorbing
    ok        uint8 (K, n+1, nu), cemetery row all ones
    policies  int32 (S, K, n+1), Markov tables (cemetery column = 0), or
              (S, K, n+1, P) adapted ones, read at column prefixes[m, t]
    scenarios int32 (M, K), and prefixes intp (M, K) (_Scenarios.prefixes)
    Returns (states, controls): int32 (S, M, L+1) and (S, M, L), L = K-start.
    """
    S = policies.shape[0]
    M = scenarios.shape[0]
    K, n1, nu, nw = dyn.shape
    dead = n1 - 1
    L = K - start
    states = np.empty((S, M, L + 1), dtype=np.int32)
    controls = np.empty((S, M, L), dtype=np.int32)
    x = np.full((S, M), x0, dtype=np.int32)
    states[:, :, 0] = x
    # flat offsets, in intp (int32 products could wrap): row s of the
    # time-t policies, cell (x, u) of ok[t], cell (x, u, w) of dyn[t]
    P = np.intp(policies.shape[3] if policies.ndim == 4 else 1)
    rows = (np.arange(S, dtype=np.intp) * (n1 * P))[:, None]
    nu, nw = np.intp(nu), np.intp(nw)
    for step in range(L):
        t = start + step
        cell = x if prefixes is None else x * P + prefixes[:, t]
        u = policies[:, t].ravel().take(rows + cell)
        xu = x * nu + u
        nxt = dyn[t].ravel().take(xu * nw + scenarios[:, t])
        x = np.where(ok[t].ravel().take(xu), nxt, dead)
        controls[:, :, step] = u
        states[:, :, step + 1] = x
    return states, controls
