"""Time the command-line interface end to end, one fresh process per run.

Usage: PYTHONPATH=src python benchmarks/bench_cli.py [--repeat N] [--out PATH]

Runs `python -m resilkit` for every command on every model in models/ (the
command/model pairs and --x0 states of perfbench's cli workload, strategy
commands on the m1 family) and on one generated larger model (a 200-level
reservoir, horizon 8, three controls, three noise values), each --repeat
times in a fresh interpreter, and keeps the best wall time per run. It also
times, apart from the commands, a bare interpreter start (python_s),
`import numpy` (numpy_s) and `import resilkit.cli` (import_s), since import
is most of a small run. Each is the median of STARTUP_RUNS fresh
interpreters, the three probes taken in turn so that drift in the host's
speed reaches all three alike; a best of a few runs does not resolve the
difference import_s minus numpy_s, which is resilkit's own share: its
modules and the standard modules they load. Every case records its exit
code and a sha256 of its stdout, stderr and --out files, so two versions of
the CLI can be compared on speed and shown to give the same bytes. The
parse layer is timed in this process too: for each file in models/,
`parse_model` of its text and `serialize_model` of the result, each the
best of PARSE_REPEAT runs of PARSE_NUMBER calls (parse_us and
serialize_us, microseconds per call). Writes --out (default BENCH_cli.json
at the repository root) with the machine, the numpy version and the
simulation backend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

import numpy as np

import resilkit as rk
from bench_dp import cpu_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = {  # model file -> --x0 label, as in perfbench's cli workload
    "m1": "1",
    "m1_benign": "0",
    "m1_effort": "2",
    "m1_top": "3",
    "m2_plant": "M",
    "m3_grid": "a",
    "m4_belief": "g",
}
COMMANDS = (
    ("kernel",), ("value",), ("recovery",), ("resilient-set",),
    ("optimize",), ("indicator",),
    ("oracle", "resilient-set"), ("oracle", "value"), ("oracle", "recovery"),
    ("oracle", "min-risk"),
)
STRATEGY_COMMANDS = (  # (command, strategy file) on the m1 family
    (("check",), "m1_hold"), (("simulate",), "m1_keep"),
    (("oracle", "risk"), "m1_hold"),
)
LARGE = (200, 3, 8)  # (levels, controls, horizon) of the generated model
STARTUP_RUNS = 11  # fresh interpreters per start-up probe
PARSE_REPEAT, PARSE_NUMBER = 5, 200  # in-process parse layer timing


def large_model(n, nu, K):
    """Reservoir level + inflow - drawdown in {0, 1, 2}, clipped to
    0..n-1, with ratio-of-integer probabilities, the calm value as the
    robust subset, and no top inflow at a full reservoir. Regime: stay in
    the upper half with probability one; risk: expected control effort."""
    x = np.arange(n)[:, None, None]
    u = np.arange(nu)[None, :, None]
    w = np.arange(3)[None, None, :]
    step = np.clip(x + u - w, 0, n - 1).astype(np.int32)
    con = np.ones((K, n, nu), dtype=bool)
    con[:, n - 1, nu - 1] = False
    model = rk.SystemModel(
        rk.TimeGrid(K),
        rk.StateSpace(tuple(str(i) for i in range(n))),
        rk.ControlSpace(tuple(str(i) for i in range(nu))),
        rk.UncertaintyStructure(
            (("0", "1", "2"),) * K, ((0.5, 0.25, 0.25),) * K, ((0,),) * K
        ),
        np.broadcast_to(step, (K, n, nu, 3)),
        con,
    )
    regime = rk.StochasticViability(frozenset(range(n // 2, n)), 1.0)
    risk = rk.Composed(rk.ControlEffort(), rk.Expectation())
    text = rk.serialize_model(model, regime, risk)
    strategy = rk.strategy_to_text(model, rk.constant_strategy(model, 1))
    return text, strategy


def parse_layer():
    """{model: {"parse_us", "serialize_us"}} for each file in models/."""
    out = {}
    for name in MODELS:
        with open(os.path.join(ROOT, "models", f"{name}.model"),
                  encoding="utf-8") as fh:
            text = fh.read()
        parsed = rk.parse_model(text)
        calls = {
            "parse_us": lambda: rk.parse_model(text),
            "serialize_us": lambda: rk.serialize_model(
                parsed.model, parsed.regime, parsed.risk
            ),
        }
        out[name] = {
            key: min(timeit.repeat(fn, repeat=PARSE_REPEAT,
                                   number=PARSE_NUMBER)) / PARSE_NUMBER * 1e6
            for key, fn in calls.items()
        }
        print(f"{name:12s} parse {out[name]['parse_us']:7.1f} us  serialize "
              f"{out[name]['serialize_us']:7.1f} us", flush=True)
    return out


def cases():
    """(name, argv without --out) of every timed command."""
    for name, x0 in MODELS.items():
        base = ["--model", f"models/{name}.model", "--x0", x0]
        for cmd in COMMANDS:
            yield f"{name}.{'.'.join(cmd)}", [*cmd, *base]
        if name.startswith("m1"):
            for cmd, strat in STRATEGY_COMMANDS:
                yield f"{name}.{'.'.join(cmd)}", [
                    *cmd, *base, "--strategy", f"models/{strat}.strategy"
                ]
    base = ["--model", "large.model", "--x0", str(LARGE[0] - 1)]
    for cmd in COMMANDS:
        yield f"large.{'.'.join(cmd)}", [*cmd, *base]
    for cmd, _ in STRATEGY_COMMANDS:
        yield f"large.{'.'.join(cmd)}", [
            *cmd, *base, "--strategy", "large.strategy"
        ]


def timed(argv, cwd, env):
    """(seconds, completed process) of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True)
    return time.perf_counter() - t0, proc


def digest(proc, out_dir):
    h = hashlib.sha256()
    h.update(repr((proc.returncode, proc.stdout, proc.stderr)).encode())
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_cli.json"))
    args = ap.parse_args()

    parse = parse_layer()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(os.path.join(ROOT, "models"),
                        os.path.join(work, "models"))
        model_text, strategy_text = large_model(*LARGE)
        for name, text in (("large.model", model_text),
                           ("large.strategy", strategy_text)):
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)

        timed(["-c", "import resilkit.cli"], work, env)  # fill the pycache
        probes = {"python_s": "pass", "numpy_s": "import numpy",
                  "import_s": "import resilkit.cli"}
        runs = {key: [] for key in probes}
        for _ in range(STARTUP_RUNS):
            for key, code in probes.items():
                s, proc = timed(["-c", code], work, env)
                if proc.returncode != 0:
                    raise RuntimeError(proc.stderr.decode())
                runs[key].append(s)
        startup = {key: statistics.median(r) for key, r in runs.items()}
        print(f"python {startup['python_s']:.4f} s  import numpy "
              f"{startup['numpy_s']:.4f} s  import resilkit.cli "
              f"{startup['import_s']:.4f} s", flush=True)

        out_cases = []
        for name, argv in cases():
            out_dir = os.path.join(work, "out")
            seconds = []
            for _ in range(args.repeat):
                shutil.rmtree(out_dir, ignore_errors=True)
                s, proc = timed(["-m", "resilkit", *argv, "--out", "out"],
                                work, env)
                seconds.append(s)
            case = {"name": name, "argv": argv, "exit": proc.returncode,
                    "best_s": min(seconds), "sha256": digest(proc, out_dir)}
            print(f"{name:32s} exit {proc.returncode}  {case['best_s']:7.4f} s"
                  f"  {case['sha256'][:12]}", flush=True)
            out_cases.append(case)

    out = {
        "layer": "cli",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "numpy": np.__version__,
        "backend": rk.backend_name(),
        "repeat": args.repeat,
        "startup_runs": STARTUP_RUNS,
        "large_model": dict(zip(("n", "nu", "horizon"), LARGE)),
        "parse_repeat": PARSE_REPEAT,
        "parse_number": PARSE_NUMBER,
        "parse_layer": parse,
        **startup,
        "cases": out_cases,
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
