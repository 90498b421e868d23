"""Smoke test of the benchmark harness.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload for one pass over its queries (``--seconds 0``), with
and without tracing, and asserts that the result line names every metric
BENCHMARK.json declares, with its unit, and that no query failed. Then it
corrupts one reference digest and asserts that the run counts that query
as failed, in ``failed`` and in the reported ``failed_frac``.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            detail, result = bench("--workload", w["name"], "--trace",
                                   str(trace))
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, got)
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0, detail
            assert result["attempted"] >= 1
            print(f"ok {w['name']} trace={trace}: {result['attempted']} "
                  "queries", flush=True)

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    part, key = "certify", "K6.outside"  # the certify part's first query
    entries = reference[part]["3"]
    entries[key]["digest"] = "0" * len(entries[key]["digest"])
    key = f"{part}.{key}"  # its key in the api workload
    os.makedirs(SCRATCH, exist_ok=True)
    corrupt = os.path.join(SCRATCH, "corrupt-reference.json")
    with open(corrupt, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    try:
        detail, result = bench("--workload", "api", "--trace", "0",
                               "--reference", corrupt)
    finally:
        os.remove(corrupt)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    passes = detail["passes"]
    assert not result["correct"]
    assert result["failed"] == passes, (result, detail["failures"])
    assert detail["failed_frac"] == passes / result["attempted"] > 0
    assert all(f.startswith(key) for f in detail["failures"])
    print(f"ok corrupted digest of {key}: failed {result['failed']} of "
          f"{result['attempted']}")


if __name__ == "__main__":
    main()
