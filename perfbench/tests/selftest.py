#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

1. A tiny pass of each workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and a correct result.
2. A deliberately corrupted golden digest is reported as a failed
   operation and an incorrect result, not as a crash.
3. A directory holding only BENCHMARK.json and perfbench/ makes the
   benchmark exit non-zero without printing a result.

    python3 perfbench/tests/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

from common import GOLDEN, build_dir, job_key  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run(workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(workload, trace):
    proc = run(workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit 0 "
          f"{proc.stderr.strip()[-300:] if proc.returncode else ''}")
    res = result(proc)
    if res is None:
        check(False, f"{workload} trace={trace}: printed a result")
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result keys")
    check(res["correct"] and res["attempted"] >= 1,
          f"{workload} trace={trace}: correct, attempted >= 1")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    check(set(res["metrics"]) == names,
          f"{workload} trace={trace}: exactly the {len(names)} named "
          "metrics")
    for m in wanted:
        got = res["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and
              isinstance(got.get("value"), (int, float)),
              f"{workload} trace={trace}: {m['name']} in {m['unit']}")


def corrupt(golden):
    """Flip one digest of each kind the tiny passes check."""
    def flip(d):
        return ("0" if d[0] != "0" else "1") + d[1:]
    g = json.loads(json.dumps(golden))
    g["report"]["docs"]["study/table5"] = flip(
        g["report"]["docs"]["study/table5"])
    key = job_key({"type": "run", "options": {"app": "spmv", "scale": 0.25}})
    g["jobs"][key] = flip(g["jobs"][key])
    return g


def main():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            check_metrics(workload, trace)

    scratch = ROOT / build_dir() / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    bad = scratch / "golden-corrupted.json"
    bad.write_text(json.dumps(corrupt(json.loads(
        GOLDEN.read_text(encoding="utf-8")))), encoding="utf-8")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        proc = run(workload, 0, "--golden", str(bad))
        res = result(proc)
        check(proc.returncode == 0 and res is not None and
              not res["correct"] and res["failed"] >= 1,
              f"{workload}: a corrupted golden is a failed operation")

    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and result(proc) is None,
          "a directory without the sources: non-zero exit, no result")
    shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
