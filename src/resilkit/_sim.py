"""Batched closed-loop simulation in numpy: the kernel of the exhaustive
scan (engine, optimize) for both strategy classes and of the oracle's
Markov scans, stepping on the model's successor table
(model.successor_planes): one lookup per step."""

import numpy as np


def backend_name():
    """Name of the simulation kernel; there is one, the numpy one."""
    return "py"


def simulate_batch(planes, policies, scenarios, x0, start=0, prefixes=None):
    """Run every (policy, scenario) pair from state x0 at time `start`.

    planes    model.successor_planes: planes[t] (|W_t|, n+1, nu), the next
              state of (x, u, w) at t, the cemetery n after an inadmissible
              u and from the cemetery row
    policies  int32 (S, K, n+1), Markov tables (cemetery column = 0), or
              (S, K, n+1, P) adapted ones, read at column prefixes[m, t]
    scenarios int32 (M, K), and prefixes intp (M, K) (_Scenarios.prefixes)
    Returns (states, controls): int32 (S, M, L+1) and (S, M, L), L = K-start.
    """
    S, K, n1 = policies.shape[:3]
    M = scenarios.shape[0]
    L = K - start
    states = np.empty((S, M, L + 1), dtype=np.int32)
    controls = np.empty((S, M, L), dtype=np.int32)
    states[:, :, 0] = x0
    # flat offsets in intp: the planes are narrow unsigned and int32
    # products could wrap. Row s of the time-t policies, cell (w, x, u) of
    # planes[t]
    P = np.intp(policies.shape[3] if policies.ndim == 4 else 1)
    rows = (np.arange(S, dtype=np.intp) * (n1 * P))[:, None]
    n1 = np.intp(n1)
    x = np.full((S, M), x0, dtype=np.intp)
    for step in range(L):
        t = start + step
        cell = x if prefixes is None else x * P + prefixes[:, t]
        u = policies[:, t].ravel().take(rows + cell)
        plane = planes[t]
        x = plane.ravel().take(
            (scenarios[:, t] * n1 + x) * np.intp(plane.shape[2]) + u
        )
        controls[:, :, step] = u
        states[:, :, step + 1] = x
    return states, controls
