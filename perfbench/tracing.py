"""Layer tracing of resilkit from outside the package.

The tracer replaces the public functions at each module boundary, in every
resilkit module namespace that holds them (so ``resilkit.optimize.
build_bundle`` and ``resilkit.oracle.simulate_batch`` are wrapped as well as
the top-level names), with wrappers that record one span per call: name,
start, end, parent span and query id. Nothing under ``src/`` is edited;
``uninstall`` puts the originals back.

Leaf helpers that run millions of times per query (``model.step``,
``model.admissible_controls``, ``strategy.simulate_closed_loop``, ...) are
not wrapped: a wrapper would cost more than the call. Their time counts
toward the calling layer's self time.

Spans are appended to flat typed arrays and analysed when the run ends.
Spans opened on worker threads (``minimize_risk(jobs>1)``) count toward
function totals and counters, but the wall-time accounting follows the
querying thread, whose ``minimize_risk`` span then holds the wait.

This module imports nothing heavy at load time, so a traced CLI child can
time its own ``import resilkit.cli``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "modelfile", "model", "strategy", "regimes", "risk",
          "engine", "optimize", "oracle", "_sim", "jsonio")

BOUNDARY = {
    "cli": ("main",),
    "modelfile": ("parse_model", "serialize_model", "regime_state_set"),
    "model": ("packed_tables", "enumerate_scenarios", "scenario_weights"),
    "strategy": ("build_bundle", "strategy_from_rank", "enumerate_strategies",
                 "markov_strategy", "count_strategies", "markov_policy_array",
                 "strategy_to_text", "strategy_from_text"),
    "regimes": ("regime_membership", "validate_regime"),
    "risk": ("evaluate_risk", "validate_risk"),
    "engine": ("robust_viability_kernel", "stochastic_viability_value",
               "robust_recovery_table", "resilient_states", "check_resilient",
               "fill_policy"),
    "optimize": ("minimize_risk", "resilience_indicator"),
    "oracle": ("oracle_min_risk", "oracle_resilient_states", "oracle_value",
               "oracle_recovery_offsets"),
    "_sim": ("simulate_batch",),
    "jsonio": ("dumps_canonical", "write_csv"),
}


def _cells(model, layers=1):
    return (layers * model.horizon * model.n_states * model.n_controls
            * model.dynamics.shape[3])


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _class_size(model, kind, start):
    from resilkit.strategy import count_strategies

    count = getattr(count_strategies, "__wrapped__", count_strategies)
    return count(model, kind, start)


def _count(tr, name, args, kwargs, result):
    """Work counters recorded at the boundary where the work happens."""
    c = tr.counts
    if name in ("engine.robust_viability_kernel",
                "engine.stochastic_viability_value"):
        c["engine.cells"] += _cells(args[0])
    elif name == "engine.robust_recovery_table":
        c["engine.cells"] += _cells(args[0], _arg(args, kwargs, 2, "deadline"))
    elif name == "optimize.minimize_risk":
        if result.certificate == "exhaustive":
            c["optimize.enumerated"] += _class_size(
                args[0], result.strategy_class, _arg(args, kwargs, 2, "start"))
        c["optimize.examined"] += result.examined
    elif name == "strategy.build_bundle":
        c["strategy.trajectories"] += len(result)
    elif name in ("strategy.strategy_from_rank", "strategy.markov_strategy"):
        c["strategy.strategies"] += 1
    elif name == "model.enumerate_scenarios":
        c["model.scenarios"] += len(result)
    elif name == "oracle.oracle_min_risk":
        c["oracle.strategies"] += _class_size(
            args[0], _arg(args, kwargs, 5, "strategy_class", "markov"),
            _arg(args, kwargs, 2, "start"))
    elif name == "_sim.simulate_batch":
        S, M, L = result[1].shape
        c["sim.steps"] += S * M * L
        c["oracle.strategies"] += S
    elif name == "modelfile.parse_model":
        c["modelfile.bytes"] += len(args[0])
    elif name == "jsonio.dumps_canonical":
        c["jsonio.bytes"] += len(result)
    elif name == "jsonio.write_csv":
        c["jsonio.bytes"] += os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("H")
        self.parent = array("q")
        self.query = array("q")
        self.main = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = defaultdict(float)
        self.query_id = -1
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = None

    def _name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid):
        stack = self._stack()
        with self._lock:
            i = len(self.t0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.query_id)
            self.main.append(threading.get_ident() == self._main)
            self.t0.append(perf_counter())
            self.t1.append(0.0)
        stack.append(i)
        return i

    def _close(self, i):
        self.t1[i] = perf_counter()
        self._stack().pop()

    def add_span(self, name, t0, t1):
        """Record a span measured elsewhere (no parent)."""
        i = self._open(self._name_id(name))
        self._stack().pop()
        self.t0[i], self.t1[i] = t0, t1

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            _count(tracer, name, args, kwargs, result)
            if name == "strategy.enumerate_strategies":
                return tracer._iterate(result)
            return result

        return wrapper

    def _iterate(self, it):
        nid = self._name_id("strategy.enumerate_strategies.next")
        while True:
            i = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(i)
            self.counts["strategy.strategies"] += 1
            yield item

    def install(self):
        if self._patches is None:
            wrappers = {}
            for layer, funcs in BOUNDARY.items():
                mod = importlib.import_module(f"resilkit.{layer}")
                for func in funcs:
                    fn = getattr(mod, func)
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{func}"))
            self._patches = []
            for modname, mod in list(sys.modules.items()):
                if modname != "resilkit" and not modname.startswith("resilkit."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers and wrappers[id(val)][0] is val:
                        self._patches.append((mod, attr, val,
                                              wrappers[id(val)][1]))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig, _ in self._patches or ():
            setattr(mod, attr, orig)

    # --- output, and transfer from a traced child process ---------------------

    def save(self, path):
        """Write every span (name, parent, query, querying thread, start,
        end) and the counters to `path`, an .npz file."""
        import numpy as np

        np.savez(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            query=np.frombuffer(self.query, dtype=np.int64),
            main=np.frombuffer(self.main, dtype=np.int8),
            t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1),
            counts=json.dumps(dict(self.counts)),
        )

    def merge(self, path, query_id):
        """Append the spans a child process saved, as query `query_id`."""
        import numpy as np

        with np.load(path) as d:
            ids = [self._name_id(str(n)) for n in d["names"]]
            base = len(self.t0)
            for nid, parent, main, t0, t1 in zip(
                d["name"].tolist(), d["parent"].tolist(), d["main"].tolist(),
                d["t0"].tolist(), d["t1"].tolist(),
            ):
                self.name.append(ids[nid])
                self.parent.append(parent + base if parent >= 0 else -1)
                self.query.append(query_id)
                self.main.append(main)
                self.t0.append(t0)
                self.t1.append(t1)
            for k, v in json.loads(str(d["counts"])).items():
                self.counts[k] += v

    # --- analysis ---------------------------------------------------------------

    def analyse(self):
        """(per-name inclusive seconds, per-name calls, per-layer self
        seconds on the querying thread) over every recorded span."""
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        main = np.frombuffer(self.main, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        has = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        k = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=k)
        calls = np.bincount(name, minlength=k)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in self.names]
                            or [0], dtype=np.int64)
        layer_self = np.bincount(layer_of[name[main]], weights=own[main],
                                 minlength=len(LAYERS))
        by_name = dict(zip(self.names, incl.tolist()))
        n_calls = dict(zip(self.names, calls.tolist()))
        return by_name, n_calls, dict(zip(LAYERS, layer_self.tolist()))

    def nested_seconds(self, names):
        """Seconds of spans in `names` whose parent span is in `names`."""
        import numpy as np

        ids = [self._index[n] for n in names if n in self._index]
        if not ids:
            return 0.0
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        nested = np.isin(name, ids) & (parent >= 0)
        nested[nested] = np.isin(name[parent[nested]], ids)
        return float(dur[nested].sum())


def _put(metrics, name, value, unit):
    metrics[name] = {"value": value, "unit": unit}


def layer_metrics(tracer, n_queries, traced_wall, setup, extra):
    """Per-layer metrics of a traced run: means per traced query unless the
    name says otherwise; functions the workload never calls read 0.
    Returns (metrics, self seconds per layer on the querying thread)."""
    incl, calls, layer_self = tracer.analyse()
    c = tracer.counts
    q = max(1, n_queries)

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    recursions = ("engine.robust_viability_kernel",
                  "engine.stochastic_viability_value",
                  "engine.robust_recovery_table")
    oracle_s = t("oracle.oracle_min_risk", "oracle.oracle_resilient_states",
                 "oracle.oracle_value", "oracle.oracle_recovery_offsets")
    m = {}
    s, cnt, ps = "s", "count", "1/s"
    _put(m, "engine.kernel_s", t(recursions[0]) / q, s)
    _put(m, "engine.value_s", t(recursions[1]) / q, s)
    _put(m, "engine.recovery_s", t(recursions[2]) / q, s)
    _put(m, "engine.resilient_states_s", t("engine.resilient_states") / q, s)
    _put(m, "engine.check_s", t("engine.check_resilient") / q, s)
    _put(m, "engine.cells", c["engine.cells"] / q, cnt)
    # recovery calls the kernel: count the outermost recursion time only
    sweep_s = t(*recursions) - tracer.nested_seconds(recursions)
    _put(m, "engine.cells_per_s", rate(c["engine.cells"], sweep_s), ps)
    _put(m, "optimize.minimize_s", t("optimize.minimize_risk") / q, s)
    _put(m, "optimize.enumerated", c["optimize.enumerated"] / q, cnt)
    _put(m, "optimize.examined", c["optimize.examined"] / q, cnt)
    _put(m, "optimize.examined_frac",
         rate(c["optimize.examined"], c["optimize.enumerated"]), "ratio")
    _put(m, "optimize.jobs_ratio", extra.get("jobs_ratio", 0.0), "ratio")
    _put(m, "optimize.cap_errors", extra.get("cap_errors", 0), cnt)
    _put(m, "strategy.bundle_s", t("strategy.build_bundle") / q, s)
    _put(m, "strategy.bundles", n_calls("strategy.build_bundle") / q, cnt)
    _put(m, "strategy.trajectories", c["strategy.trajectories"] / q, cnt)
    _put(m, "strategy.strategies", c["strategy.strategies"] / q, cnt)
    _put(m, "model.pack_s", t("model.packed_tables") / q, s)
    _put(m, "model.enumerate_scenarios_s",
         t("model.enumerate_scenarios") / q, s)
    _put(m, "model.scenarios", c["model.scenarios"] / q, cnt)
    _put(m, "regimes.membership_s", t("regimes.regime_membership") / q, s)
    _put(m, "regimes.membership_calls",
         n_calls("regimes.regime_membership") / q, cnt)
    _put(m, "risk.evaluate_s", t("risk.evaluate_risk") / q, s)
    _put(m, "risk.evaluate_calls", n_calls("risk.evaluate_risk") / q, cnt)
    _put(m, "oracle.min_risk_s", t("oracle.oracle_min_risk") / q, s)
    _put(m, "oracle.batched_s", (oracle_s - t("oracle.oracle_min_risk"))
         / q, s)
    _put(m, "oracle.strategies_per_s", rate(c["oracle.strategies"],
                                            oracle_s), ps)
    _put(m, "sim.batch_s", t("_sim.simulate_batch") / q, s)
    _put(m, "sim.calls", n_calls("_sim.simulate_batch") / q, cnt)
    _put(m, "sim.steps", c["sim.steps"] / q, cnt)
    _put(m, "sim.steps_per_s", rate(c["sim.steps"],
                                    t("_sim.simulate_batch")), ps)
    kernel = extra["sim_kernel"]
    _put(m, "sim.kernel_steps_per_s", kernel[extra["backend"]], ps)
    _put(m, "cli.import_s", t("cli.import") / q, s)
    _put(m, "cli.main_s", t("cli.main") / q, s)
    _put(m, "modelfile.parse_s", t("modelfile.parse_model") / q, s)
    _put(m, "modelfile.bytes", c["modelfile.bytes"] / q, "B")
    _put(m, "jsonio.emit_s", t("jsonio.dumps_canonical",
                               "jsonio.write_csv") / q, s)
    _put(m, "jsonio.bytes", c["jsonio.bytes"] / q, "B")
    for layer, value in layer_self.items():
        _put(m, f"{layer.lstrip('_')}.self_s", value / q, s)
    _put(m, "trace.unexplained_s",
         (traced_wall - sum(layer_self.values())) / q, s)
    _put(m, "setup.import_s", setup["import_s"], s)
    _put(m, "setup.models_s", setup["models_s"], s)
    _put(m, "setup.pack_s", setup["pack_s"], s)
    return m, layer_self
