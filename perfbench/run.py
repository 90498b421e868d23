"""Benchmark for resilkit: two seeded closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload {api,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --record     # rewrite reference.json

One client in one process issues one exact query after another (``api``:
the sweep, scan and certify query sets through the public API; ``cli``:
one fresh ``python -m resilkit`` process at a time). A run makes
round(S / PASS_S) whole passes over the workload's queries (at least one;
half as many when traced), where PASS_S is the workload's pass time at
the seed commit, so it measures about S seconds and every run of a
workload has the same sample count. Every output is checked (checks.py);
a query that raises or fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (queries_per_s, query_s.p50, query_s.tail, setup_s,
peak_rss_mb); with ``--trace 1`` each query runs once untraced and once
traced (tracing.py), and the metrics are the per-layer ones. The line
before it holds the details: environment, input properties, sample count
and tail percentile, failed_frac, the certify above-cap probe and, when
traced, the tracing overhead and the wall-time accounting. A traced run
also writes its spans to ``.perfbench/spans-<workload>.npz``.

The run needs ``src/`` next to this directory and exits with status 1
without a result when it cannot import resilkit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# The closed loop runs no threads beyond minimize_risk's jobs: numpy's
# OpenBLAS pool, which otherwise starts nproc - 1 threads at import, is held
# to one thread here and in every child process (they inherit os.environ).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

WORKLOADS = ("api", "cli")
REFERENCE = os.path.join(HERE, "reference.json")
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def child_env():
    """Environment of every child process: resilkit from src/, and byte code
    always cached under .perfbench/pycache, so that a child's start-up time
    does not depend on whether the caller lets Python write .pyc files."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(SCRATCH, "pycache")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# --- set-up -----------------------------------------------------------------

def probe_setup(workload, seed):
    """Child mode: time import + models + first packed_tables."""
    t0 = time.perf_counter()
    import resilkit  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    models_s, pack_s = workloads.load_models_for_setup(
        workload, seed % workloads.POOL)
    print(json.dumps({"import_s": t1 - t0, "models_s": models_s,
                      "pack_s": pack_s,
                      "setup_s": time.perf_counter() - t0}))


class SetupProbes:
    """The set-up a query loop pays first, timed in fresh processes. The
    probes are spread over the run (two before the loop, an even share
    after each pass, the rest after the loop), so that their median is not
    one slow spell of the shared host."""

    def __init__(self, workload, seed):
        self.argv = [sys.executable, os.path.abspath(__file__),
                     "--probe-setup", "--workload", workload,
                     "--seed", str(seed)]
        self.runs = []

    def warm(self):
        """One untimed probe and CLI import, which fill the byte-code cache."""
        for argv in (self.argv, [sys.executable, "-c", "import resilkit.cli"]):
            subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                           capture_output=True, timeout=120)

    def __call__(self, upto=SETUP_REPEATS):
        """Probe until there are `upto` probes in all."""
        while len(self.runs) < min(upto, SETUP_REPEATS):
            out = subprocess.run(
                self.argv, cwd=ROOT, env=child_env(), capture_output=True,
                text=True, check=True, timeout=120,
            ).stdout
            self.runs.append(json.loads(out.strip().splitlines()[-1]))

    def median(self):
        self()
        return {k: statistics.median(r[k] for r in self.runs)
                for k in self.runs[0]}


# --- environment --------------------------------------------------------------

def environment(seed, pool):
    import numpy
    import resilkit

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None  # a checkout outside git records none
    try:
        top, head = (subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split() + [None, None])[:2]
        if top and os.path.samefile(top, ROOT):
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": resilkit.backend_name(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "seed": seed,
        "pool_index": pool,
    }


# --- the cli workload's client ----------------------------------------------------

class CliClient:
    """Runs one resilkit process per query; tracks the children's peak RSS."""

    def __init__(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.peak_rss_kb = 0
        self.tracer = None  # set for traced queries
        self.query_id = -1

    def __call__(self, argv):
        out = tempfile.mkdtemp(dir=SCRATCH)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "resilkit"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   os.path.join(out, "trace.npz")]
        proc = subprocess.Popen(
            [*cmd, *argv, "--out", os.path.join(out, "out")], cwd=ROOT,
            env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.tracer is None:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, self.tracer, self.query_id

    def collect(self, result):
        """(exit code, {file: sha256}) of a finished query; merges its
        trace, if any, and cleans up."""
        code, out, tracer, query_id = result
        files = {}
        outdir = os.path.join(out, "out")
        if os.path.isdir(outdir):
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), "rb") as fh:
                    files[name] = hashlib.sha256(fh.read()).hexdigest()
        if tracer is not None:
            tracer.merge(os.path.join(out, "trace.npz"), query_id)
        shutil.rmtree(out)
        return code, files


def build(name, pool, client, reference):
    """(workload, its reference entries by query key)."""
    import workloads

    if name == "cli":
        ref = reference["cli"]
        return workloads.cli(pool, sorted(ref), client), ref
    ref = {f"{part}.{key}": entry for part in workloads.PARTS
           for key, entry in reference[part][str(pool)].items()}
    return workloads.api(pool), ref


# --- the query loop ---------------------------------------------------------------

class Loop:
    def __init__(self, workload, reference, client):
        from checks import CrossChecker

        self.w = workload
        self.ref = reference
        self.client = client
        self.cross = CrossChecker()
        self.times = []
        self.attempted = 0
        self.failures = []

    def issue(self, q):
        """Run one query; returns (seconds, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = q.call()
        except Exception as exc:  # a failed query is a measured outcome
            self.failures.append(f"{q.key}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, result

    def check(self, q, result):
        from checks import against_reference

        if result is None:
            return
        if q.kind == "cli":
            result = self.client.collect(result)
        try:
            problems = against_reference(q.kind, result, self.ref.get(q.key))
            problems += self.cross(q, result)
        except Exception as exc:  # a check that cannot run is a failure
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{q.key}: {'; '.join(problems)}")

    def run(self, n_passes, expected, step, after_pass):
        """n_passes whole passes over the queries; step(query) runs and
        checks one query and returns its time, after_pass(done) runs
        untimed after each pass. Returns (queries, measured seconds) per
        pass; only a program far slower than the `expected` seconds stops
        inside a pass."""
        passes, total = [], 0.0
        while len(passes) < n_passes:
            measured = 0.0
            for i, q in enumerate(self.w.queries, 1):
                measured += step(q)
                if total + measured > 2 * expected + 60:
                    return passes + [(i, measured)]
            passes.append((len(self.w.queries), measured))
            total += measured
            after_pass(len(passes))
        return passes


def plan(workload, seconds, traced):
    """(passes, their expected seconds): passes that take about `seconds`
    at the seed commit; a traced run issues every query twice, so it makes
    half as many."""
    import workloads

    per_pass = workloads.PASS_S[workload] * (2 if traced else 1)
    passes = max(1, round(seconds / per_pass))
    return passes, passes * per_pass


def timed_step(loop):
    def step(q):
        dt, result = loop.issue(q)
        loop.times.append(dt)
        loop.check(q, result)
        return dt
    return step


def tail(times):
    """(value, percentile): the highest sample with TAIL_BEYOND samples
    above it, and its percentile rank."""
    s = sorted(times)
    n = len(s)
    i = max(0, n - TAIL_BEYOND - 1)
    return s[i], 100.0 * (i + 1) / n


def cap_probe(loop):
    """Run certify's above-cap query once, untimed. A CapacityError (the
    seed's answer) is reported as a cap error, not as a failed query; any
    other outcome is issued and checked like an ordinary query."""
    import resilkit

    q = loop.w.probe
    if q is None:
        return None
    try:
        q.call()
    except resilkit.CapacityError as exc:
        return {"key": q.key, "outcome": "capacity_error", "error": str(exc)}
    except Exception:  # counted when issued below
        pass
    seconds, result = loop.issue(q)
    loop.check(q, result)
    return {"key": q.key, "seconds": seconds,
            "outcome": "error" if result is None else "answered"}


# --- traced-run measurements -----------------------------------------------------

def sim_kernel():
    """The batched simulation kernel on the case of benchmarks/bench_sim.py
    (loaded from that file, not copied), for every backend that imports:
    best-of-3 steps per second; outputs byte-compared when both run."""
    import importlib.util

    import numpy as np
    import resilkit as rk
    from resilkit.errors import ConfigurationError

    spec = importlib.util.spec_from_file_location(
        "bench_sim", os.path.join(ROOT, "benchmarks", "bench_sim.py"))
    bench_sim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_sim)
    model, pol, scen, x0 = bench_sim.build_case(np.random.default_rng(7))
    dyn, ok = rk.model.packed_tables(model)
    steps = pol.shape[0] * scen.shape[0] * model.horizon
    result, outputs = {}, {}
    for backend in ("py", "fast"):
        try:
            best, outputs[backend] = bench_sim.run(backend, dyn, ok, pol,
                                                   scen, x0, repeat=3)
        except ConfigurationError as exc:
            result[backend] = f"unavailable: {exc}"
            continue
        result[backend] = steps / best
    if len(outputs) == 2:
        result["identical"] = all(
            a.tobytes() == b.tobytes()
            for a, b in zip(outputs["py"], outputs["fast"])
        )
    return result


def jobs_ratio(workload):
    """minimize_risk with jobs=JOBS over jobs=1 on the same query: median of
    three alternating pairs (api's scan part; 0 where no such query runs)."""
    import resilkit as rk
    import workloads

    jobs_q = next((q for q in workload.queries if q.key.endswith(".jobs")),
                  None)
    if jobs_q is None:
        return 0.0
    i = jobs_q.info
    ratios = []
    for _ in range(3):
        t0 = time.perf_counter()
        rk.minimize_risk(jobs_q.model, i["x0"], 0, i["regime"], i["risk"])
        t1 = time.perf_counter()
        rk.minimize_risk(jobs_q.model, i["x0"], 0, i["regime"], i["risk"],
                         jobs=workloads.JOBS)
        ratios.append((time.perf_counter() - t1) / (t1 - t0))
    return statistics.median(ratios)


# --- modes --------------------------------------------------------------------

def run(args):
    import workloads

    pool = args.seed % workloads.POOL
    setup = SetupProbes(args.workload, args.seed)
    setup.warm()
    setup(2)
    env = environment(args.seed, pool)
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    client = CliClient() if args.workload == "cli" else None
    w, ref = build(args.workload, pool, client, reference)
    loop = Loop(w, ref, client)
    planned, expected = plan(args.workload, args.seconds, args.trace)

    def after_pass(done):  # probes spread evenly between the passes
        setup(2 + (SETUP_REPEATS - 2) * done // (planned + 1))

    def run_passes(step):
        return loop.run(planned, expected, step, after_pass)

    detail = {
        "workload": w.name, "reason": w.reason, "env": env,
        "inputs": workloads.input_properties(w),
        "closed_loop": "1 client, 1 process, next query after the previous "
                       f"returns; minimize_risk jobs <= {workloads.JOBS}",
    }
    probe = cap_probe(loop)
    cap_errors = int(probe is not None
                     and probe["outcome"] == "capacity_error")
    if args.trace:
        metrics = traced(loop, client, setup, env, detail, cap_errors,
                         run_passes)
    else:
        passes = run_passes(timed_step(loop))
        if client is not None:
            peak_kb = client.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        times = loop.times
        value, pct = tail(times)
        # throughput per pass, median over passes: a slow spell on the
        # shared host then moves it only when it covers most passes
        qps = statistics.median(n / t for n, t in passes)
        metrics = {
            "queries_per_s": {"value": qps, "unit": "1/s"},
            "query_s.p50": {"value": statistics.median(times), "unit": "s"},
            "query_s.tail": {"value": value, "unit": "s"},
            "setup_s": {"value": setup.median()["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        detail.update(samples=len(times), passes=len(passes),
                      tail_percentile=pct,
                      tail_samples_beyond=min(TAIL_BEYOND, len(times) - 1))
    detail.update(
        setup=setup.median(), setup_probes=len(setup.runs),
        cap_probe=probe,
        failed_frac=len(loop.failures) / max(1, loop.attempted),
        failures=loop.failures[:20],
    )
    if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
        os.rmdir(SCRATCH)
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))


def traced(loop, client, setup, env, detail, cap_errors, run_passes):
    """Each query once untraced, then once traced, in whole passes."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    paired = []  # (untraced seconds, traced seconds) per query

    def step(q):
        dt0, result = loop.issue(q)
        loop.check(q, result)
        tracer.query_id = len(paired)
        if client is not None:
            client.tracer, client.query_id = tracer, tracer.query_id
        else:
            tracer.install()
        try:
            dt1, result = loop.issue(q)
        finally:
            tracer.uninstall()
            if client is not None:
                client.tracer = None
        loop.check(q, result)
        paired.append((dt0, dt1))
        return dt0 + dt1

    passes = run_passes(step)
    untraced = sum(p[0] for p in paired)
    traced_wall = sum(p[1] for p in paired)
    extra = {
        "jobs_ratio": jobs_ratio(loop.w),
        "sim_kernel": sim_kernel(),
        "backend": env["backend"],
        "cap_errors": cap_errors,
    }
    metrics, layer_self = layer_metrics(tracer, len(paired), traced_wall,
                                        setup.median(), extra)
    os.makedirs(SCRATCH, exist_ok=True)
    spans = os.path.join(SCRATCH, f"spans-{loop.w.name}.npz")
    tracer.save(spans)
    n = max(1, len(paired))
    detail.update(
        samples=len(paired), passes=len(passes),
        tracing_overhead={
            "untraced_query_s_mean": untraced / n,
            "traced_query_s_mean": traced_wall / n,
            "overhead_s_per_query": (traced_wall - untraced) / n,
            "overhead_frac": (traced_wall - untraced) / max(untraced, 1e-12),
            "spans": len(tracer.t0),
            "spans_file": os.path.relpath(spans, ROOT),
        },
        accounting={
            "traced_query_wall_s": traced_wall,
            "layer_self_s": layer_self,
            "unexplained_s": traced_wall - sum(layer_self.values()),
        },
        sim_kernel=extra["sim_kernel"],
    )
    return metrics


def record():
    """Write reference.json from the current program: one entry per query
    of every pool index, plus the applicable cli commands."""
    import workloads
    from checks import CrossChecker, reference_entry

    out = {}
    for name, build_part in workloads.PARTS.items():
        out[name] = {}
        for pool in range(workloads.POOL):
            w = build_part(pool)
            cross = CrossChecker()
            entries = {}
            for q in w.queries:
                result = q.call()
                problems = cross(q, result)
                if problems:
                    raise SystemExit(f"{name}/{pool}/{q.key}: {problems}")
                entries[q.key] = reference_entry(q.kind, result)
            if w.probe is not None:
                entries[w.probe.key] = reference_entry(
                    "minimize", _dp_answer(w.probe))
            out[name][str(pool)] = entries
            print(f"recorded {name} pool {pool}", file=sys.stderr)
    client = CliClient()
    out["cli"] = {}
    for key, argv in workloads.cli_candidates():
        result = client.collect(client(argv))
        if result[0] in (0, 1):
            out["cli"][key] = reference_entry("cli", result)
    if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
        os.rmdir(SCRATCH)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(out['cli'])} cli commands", file=sys.stderr)


def _dp_answer(q):
    """The DP certificate's answer to an above-cap query, which the seed
    cannot report: its strategy comes from the DP sweep (captured where
    optimize hands it to build_bundle) and its value from exact forward
    propagation."""
    import resilkit as rk
    from checks import propagated_expectation

    class Captured(Exception):
        pass

    def capture(model, strategy, *args, **kwargs):
        raise Captured(strategy)

    orig = rk.optimize.build_bundle
    rk.optimize.build_bundle = capture
    try:
        q.call()
    except Captured as exc:
        strategy = exc.args[0]
    finally:
        rk.optimize.build_bundle = orig
    value = propagated_expectation(q.model, strategy, q.info["x0"],
                                   q.info["risk"].cost)
    return rk.OptimizationResult(True, value, strategy, 0, "dp", rk.MARKOV)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measured query time per run (required with --workload)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE,
                    help="reference outputs (default: %(default)s)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current program")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    if args.record:
        return record()
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")
    return run(args)


if __name__ == "__main__":
    main()
