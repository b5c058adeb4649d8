"""The in-process workloads: report-quick and sim-large.

Each timed pass is one fresh harness process, so every pass starts
with cold process-global caches, as a CLI user's process does. A run
makes a fixed number of passes (set by --seconds) and reports medians.
"""

import json

from statistics import median

from common import (APP_KEYS, REFERENCE, BenchError, digest, job_key, log,
                    run_harness)

# Nominal seconds of one pass; --seconds / this = passes per run.
REPORT_PASS_S = 5.0
SIM_PASS_S = 6.0

# The tiny self-test pass: three fast studies (Table 9 runs every app);
# every app at a quarter of bench scale.
TINY_STUDIES = ["table5", "table8", "table9"]


def sim_large_jobs():
    """Every app on its default dataset at 4x bench scale (SpMSpM and
    Conv 2x, BiCGStab 1x), plus a 64-tile SpMSpM, a Plasticine point
    and a DDR4 point: distinct single runs, each executed once."""
    scale = {"spmspm": 2, "conv": 2, "bicgstab": 1}
    jobs = [{"type": "run", "options": {"app": a, "scale": scale.get(a, 4)}}
            for a in APP_KEYS]
    jobs.append({"type": "run",
                 "options": {"app": "spmspm", "scale": 2, "tiles": 64}})
    jobs.append({"type": "run", "options": {"app": "pagerank", "scale": 4,
                                            "config": "plasticine"}})
    jobs.append({"type": "run", "options": {"app": "bfs", "scale": 4,
                                            "memtech": "ddr4"}})
    return jobs


class Passes:
    """Per-pass samples and operation outcomes of one run."""

    def __init__(self):
        self.walls = []
        self.setups = []
        self.rss = []
        self.cycles_per_s = []
        self.job_ms = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.cache = {}
        self.extras = {}

    def add_timing(self, t_spawn, d, latencies_ms):
        wall = d["t_end"] - d["t_start"]
        self.walls.append(wall)
        self.setups.append(d["t_setup"] - t_spawn)
        self.rss.append(d["rss_mb"])
        self.cycles_per_s.append(d["cycles"] / wall)
        self.job_ms.extend(latencies_ms)
        # The last pass's counters (the traced one in a traced run).
        self.cache = d["cache"]

    def op(self, ok, wrong=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
        if wrong:
            self.wrong += 1


def _pass(ctx, index, traced, args):
    """One harness pass; returns (spawn time, output, spans) or None if
    the process failed (its operations then count as failed)."""
    out_file = ctx.tmp / f"{ctx.workload}-{index}.json"
    trace_file = ctx.tmp / f"{ctx.workload}-{index}.trace.json"
    cmd = [args[0], "--reference", REFERENCE, "--out", str(out_file),
           *args[1:]]
    if traced:
        cmd += ["--trace", str(trace_file)]
    try:
        t_spawn, _ = run_harness(ctx.harness, *cmd)
    except (BenchError, OSError) as e:
        log(f"pass {index}: {e}")
        return None
    with open(out_file, encoding="utf-8") as f:
        d = json.load(f)
    spans = []
    if traced:
        with open(trace_file, encoding="utf-8") as f:
            spans = json.load(f)["spans"]
    return t_spawn, d, spans


def _plan(ctx, nominal_s):
    """(pass index, traced) list: fixed work from --seconds; a traced
    run makes one untraced and one traced pass (tracing overhead)."""
    if ctx.trace:
        return [(0, False), (1, True)]
    if ctx.tiny:
        return [(0, False)]
    return [(i, False)
            for i in range(max(1, int(ctx.seconds / nominal_s + 0.5)))]


def report_quick(ctx):
    golden = ctx.golden["report"]
    studies = TINY_STUDIES if ctx.tiny else []
    args = ["report"] + (["--studies", ",".join(studies)] if studies else [])
    res = Passes()
    per_study = {}
    spans, points, traced_wall = [], [], None
    for index, traced in _plan(ctx, REPORT_PASS_S):
        got = _pass(ctx, index, traced, args)
        expected = len(studies) if studies else golden["studies"]
        if got is None:
            for _ in range(expected + (0 if studies else 1)):
                res.op(False)
            continue
        t_spawn, d, pass_spans = got
        # A study is a batch of points: the unit a caller waits for is
        # one point, so job latency is per point here.
        res.add_timing(t_spawn, d, d["point_ms"])
        checked = 0
        for job in d["jobs"]:
            key = job["key"]
            match = digest(d["docs"][key]) == golden["docs"].get(key)
            checked += job["checked"]
            ok = job["ok"] and match and job["passed"] == job["checked"]
            res.op(ok, not ok)
            per_study.setdefault(key.split("/", 1)[1], []).append(job["ms"])
        for _ in range(len(d["jobs"]), expected):
            res.op(False)
        if not studies:
            # The whole report: Markdown and JSON bytes, and the --check
            # verdict on every checked metric.
            match = all(digest(d["docs"][k]) == golden["docs"][k]
                        for k in ("report.md", "report.json"))
            ok = match and checked == golden["checked"]
            res.op(ok, not ok)
        if traced:
            spans, points = pass_spans, d["points"]
            traced_wall = d["t_end"] - d["t_start"]
            res.extras["report.sweep_points"] = d["points_seen"]
            res.extras["report.sweep_points_distinct"] = len(d["points"])
            res.extras["report.render_ms"] = d["render_ms"]
    for name, ms in per_study.items():
        res.extras[f"report.{name}.ms"] = median(ms)
    return res, spans, points, traced_wall


def sim_large(ctx):
    jobs = sim_large_jobs()
    if ctx.tiny:
        jobs = [{"type": "run", "options": {"app": j["options"]["app"],
                                            "scale": 0.25}}
                for j in jobs[:11]]
    jobs_file = ctx.tmp / "sim-large.jobs"
    jobs_file.write_text("".join(json.dumps(j) + "\n" for j in jobs),
                         encoding="utf-8")
    golden = ctx.golden["jobs"]
    res = Passes()
    spans, traced_wall = [], None
    for index, traced in _plan(ctx, SIM_PASS_S):
        got = _pass(ctx, index, traced, ["jobs", "--jobs", str(jobs_file)])
        if got is None:
            for _ in jobs:
                res.op(False)
            continue
        t_spawn, d, pass_spans = got
        res.add_timing(t_spawn, d, [j["ms"] for j in d["jobs"]])
        for job, out in zip(jobs, d["jobs"]):
            ok = out["ok"] and digest(out["doc"]) == golden.get(job_key(job))
            res.op(ok, not ok)
        if traced:
            spans, traced_wall = pass_spans, d["t_end"] - d["t_start"]
    return res, spans, jobs, traced_wall
