"""Correctness gate for every benchmark query.

Each output splits into an exact part and a float part. The exact part
(member sets, witnesses, recovery layers, strategy tables and ranks,
`examined`, the certificate, CLI output bytes) is compared by digest with
``reference.json``, recorded from the seed commit. Floats (values, risks)
are compared to within 1e-12, scaled by the magnitude when it exceeds 1.
Where an independent route is cheap, the output is also cross-checked:
value tables against policy evaluation of their witness, DP-certified risks
against forward propagation of the state distribution, and, on instances
small enough for the oracle, engine and optimize results against the
oracle (and the batched oracle against the engine).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import resilkit as rk

TOL = 1e-12


def close(a, b):
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(b))


def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:20]


def _strategy_parts(strategy):
    if strategy is None:
        return [None]
    return [strategy.start] + [p.table for p in strategy.policies]


def _resilient_parts(result):
    parts = [result.method, sorted(int(x) for x in result.members)]
    seen = {}
    for x in sorted(result.members):
        s = result.witnesses[x]
        if id(s) not in seen:
            seen[id(s)] = len(seen)
            parts += _strategy_parts(s)
        parts.append(seen[id(s)])
    return parts


def canon(kind, result):
    """(exact parts, floats) of a query output."""
    if kind == "kernel":
        return [result.domain, result.member, result.witness], []
    if kind == "value":
        return [result.witness], []  # values: see policy_value below
    if kind == "recovery":
        return [result.deadline, result.layers, result.min_layer,
                result.witness, result.r_star], []
    if kind in ("resilient_states", "oracle_resilient_states"):
        return _resilient_parts(result), []
    if kind == "minimize":
        return [result.resilient, result.certificate, result.examined,
                result.strategy_class] + _strategy_parts(result.strategy), \
            [result.value]
    if kind == "oracle_min_risk":
        value, strategy, examined = result
        return [examined] + _strategy_parts(strategy), [value]
    if kind == "oracle_value":
        return [], [float(v) for v in result]
    if kind == "oracle_recovery":
        offsets, ranks = result
        return [offsets, ranks], []
    if kind == "cli":
        code, files = result
        return [code, sorted(files.items())], []
    raise ValueError(kind)


def reference_entry(kind, result):
    exact, floats = canon(kind, result)
    return {"digest": digest(exact), "floats": [float(v).hex() for v in floats]}


def against_reference(kind, result, ref):
    """Failure messages comparing one output with its reference entry."""
    if ref is None:
        return ["no reference entry"]
    exact, floats = canon(kind, result)
    out = []
    if digest(exact) != ref["digest"]:
        out.append("exact output digest differs from the reference")
    want = [float.fromhex(v) for v in ref["floats"]]
    if len(want) != len(floats) or not all(
        close(float(a), b) for a, b in zip(floats, want)
    ):
        out.append("float output differs from the reference beyond 1e-12")
    return out


# --- independent routes ---------------------------------------------------

def policy_value(model, acceptable, witness):
    """Probability of staying in `acceptable` under the Markov policy
    `witness` (K, n), by backward evaluation; the w-terms are added in
    index order."""
    K, n = model.horizon, model.n_states
    dyn, _ = rk.model.packed_tables(model)
    inside = np.zeros(n + 1, dtype=bool)
    inside[list(acceptable)] = True
    v = inside.astype(np.float64)
    v[n] = 0.0
    xs = np.arange(n)
    out = np.zeros((K + 1, n))
    out[K] = v[:n]
    for t in range(K - 1, -1, -1):
        u = np.where(witness[t] >= 0, witness[t], 0)
        nxt = dyn[t][xs, u]  # (n, nw)
        acc = np.zeros(n)
        for w, p in enumerate(model.uncertainty.probs[t]):
            acc = acc + float(p) * v[nxt[:, w]]
        acc[~inside[:n]] = 0.0
        v = np.append(acc, 0.0)
        out[t] = acc
    return out


def _additive_cost(model, cost):
    K, n, nu = model.horizon, model.n_states, model.n_controls
    step = np.zeros((K, n, nu))
    terminal = np.zeros(n)
    if isinstance(cost, rk.TimeOutside):
        out = np.array([x not in cost.acceptable for x in range(n)], float)
        step += out[None, :, None]
        terminal += out
    elif isinstance(cost, rk.ControlEffort):
        rates = (np.asarray(cost.rates, float) if cost.rates is not None
                 else model.controls.coords[:, 0])
        step += rates[None, None, :]
    elif isinstance(cost, rk.TabularCost):
        step += cost.state_costs[:K, :, None] + cost.control_costs[:, None, :]
        terminal += cost.state_costs[K]
    else:
        raise ValueError(f"not an additive cost: {cost!r}")
    return step, terminal


def propagated_expectation(model, strategy, x0, cost):
    """E[cost] of a Markov strategy from x0 at its start, by forward
    propagation of the state distribution (O(K n nw)); None when mass
    reaches the cemetery."""
    step, terminal = _additive_cost(model, cost)
    dyn, ok = rk.model.packed_tables(model)
    n = model.n_states
    mass = np.zeros(n + 1)
    mass[x0] = 1.0
    total = 0.0
    xs = np.arange(n)
    for pol in strategy.policies:
        t = pol.t
        u = pol.table
        if mass[n] > 0 or not ok[t][xs, u][mass[:n] > 0].all():
            return None
        total += float(mass[:n] @ step[t, xs, u])
        nxt = np.zeros(n + 1)
        for w, p in enumerate(model.uncertainty.probs[t]):
            np.add.at(nxt, dyn[t][xs, u, w], mass[:n] * p)
        mass = nxt
    if mass[n] > 0:
        return None
    return total + float(mass[:n] @ terminal)


def _same_strategy(a, b):
    if a is None or b is None:
        return a is b
    return rk.strategies_equal(a, b)


class CrossChecker:
    """Independent-route checks; the costlier ones run once per query key."""

    def __init__(self):
        self.done = {}
        self.oracle = {}

    def __call__(self, query, result):
        if query.key not in self.done:
            self.done[query.key] = self._once(query, result)
        return self.done[query.key] + self._each(query, result)

    def _each(self, q, result):
        if q.kind == "value":
            want = policy_value(q.model, q.info["acceptable"], result.witness)
            if not np.all(np.abs(result.value - want) <= TOL):
                return ["value table differs from policy evaluation of its "
                        "witness beyond 1e-12"]
        return []

    def _once(self, q, result):
        m, info = q.model, q.info
        if q.kind == "minimize" and result.certificate == "dp":
            if not result.resilient:
                return ["DP-certified query reported not resilient"]
            got = propagated_expectation(m, result.strategy, info["x0"],
                                         info["risk"].cost)
            if got is None or not close(result.value, got):
                return ["DP-certified value differs from forward "
                        "propagation beyond 1e-12"]
            return []
        if q.kind == "minimize":
            key = (id(m), info["x0"], info["regime"], info["risk"])
            if key not in self.oracle:  # jobs variants share the answer
                self.oracle[key] = rk.oracle_min_risk(
                    m, info["x0"], 0, info["regime"], info["risk"])
            value, strategy, examined = self.oracle[key]
            if not (close(result.value, value) and examined == result.examined
                    and _same_strategy(result.strategy, strategy)):
                return ["minimize_risk disagrees with oracle_min_risk"]
            return []
        if q.kind == "oracle_resilient_states":
            eng = rk.resilient_states(m, 0, rk.Viability(info["acceptable"]))
            if eng.members != result.members:
                return ["batched oracle members differ from the kernel"]
            return []
        if q.kind == "oracle_value":
            eng = rk.stochastic_viability_value(m, info["acceptable"])
            if not np.all(np.abs(eng.value[0] - result) <= TOL):
                return ["batched oracle values differ from the value "
                        "recursion beyond 1e-12"]
            return []
        if q.kind == "oracle_recovery":
            eng = rk.robust_recovery_table(m, info["acceptable"], m.horizon)
            if eng.r_star.tolist() != result[0].tolist():
                return ["batched oracle recovery offsets differ from r_star"]
            return []
        if q.kind == "resilient_states" and "oracle_regime" in info:
            ref = rk.oracle_resilient_states(
                m, 0, info["oracle_regime"], force_object=True)
            if ref.members != result.members or not all(
                _same_strategy(ref.witnesses[x], result.witnesses[x])
                for x in ref.members
            ):
                return ["exhaustive resilient_states disagrees with the "
                        "object-path oracle"]
            return []
        return []
