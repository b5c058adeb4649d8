"""Shared pieces of the Capstan benchmark: paths, the build, harness
processes, golden digests, statistics and trace self times."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
REFERENCE = "data/paper_reference.json"

# The 11 apps: CLI key -> the canonical name results and the harness use.
APP_KEYS = {"spmv": "CSR", "spmv-coo": "COO", "spmv-csc": "CSC",
            "conv": "Conv", "pagerank": "PR-Pull", "pagerank-edge": "PR-Edge",
            "bfs": "BFS", "sssp": "SSSP", "matadd": "M+M",
            "spmspm": "SpMSpM", "bicgstab": "BiCGStab"}

# Harness or daemon processes that outlive this many seconds are killed,
# so one run always ends well inside its 180 s budget.
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """An infrastructure failure: no result can be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """Where the benchmark package is built (relative to the root)."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return Path(base) / "perfbench"


def check_checkout():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(
            f"{ROOT} holds no Capstan sources (CMakeLists.txt, src/); "
            "the benchmark builds the program from them")
    if not (ROOT / REFERENCE).is_file():
        raise BenchError(f"missing {REFERENCE}")


def build():
    """Configure once, then build the harness and capstan-serve."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench-harness", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench-harness", out / "capstan" / "capstan-serve"


def no_core_dumps():
    """An aborting child (the known capstan-serve abort) must not write
    a core file; children inherit the limit."""
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_harness(harness, *args):
    """Run one harness process; returns (spawn time, stdout)."""
    t_spawn = time.monotonic()
    res = subprocess.run([str(harness), *args], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         timeout=PROCESS_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError(f"harness {args[0]} exited {res.returncode}: "
                         f"{res.stderr.strip()[-400:]}")
    return t_spawn, res.stdout


def probe_ms(harness):
    """Host-speed probe: a fixed loop that runs no project code."""
    return float(run_harness(harness, "probe")[1].split()[0])


def setup_samples(harness, count):
    """Process start -> engine built and reference loaded, in s."""
    samples = []
    for _ in range(count):
        t_spawn, out = run_harness(harness, "setup", "--reference",
                                   REFERENCE)
        samples.append(float(out) - t_spawn)
    return samples


def job_key(job):
    """Canonical text of a wire job document (golden digest key)."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def digest(text):
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a sample, and how many
    samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1], len(ordered) - rank


def doc_cycles(doc):
    """Simulated cycles in a run or sweep result document (0 else)."""
    if "timing" in doc:
        return doc["timing"]["cycles"]
    return sum(r.get("timing", {}).get("cycles", 0)
               for r in doc.get("results", []))


def self_times(spans):
    """Per span name: total duration and self time (duration minus the
    part of its interval its child spans cover), in ms."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(i, []),
                        key=lambda k: spans[k]["start"]):
            lo = max(cursor, spans[c]["start"])
            hi = min(s["end"], spans[c]["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                           "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += dur * 1e3
        entry["self_ms"] += (dur - covered) * 1e3
    return out
