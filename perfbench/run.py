#!/usr/bin/env python3
"""The Capstan benchmark: one command per workload run.

    python3 perfbench/run.py --workload report-quick --seed 1 \\
        --seconds 20 --trace 0

Builds the program from the checkout's sources (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload for a fixed amount of work sized by --seconds, checks every
result against the golden digests in perfbench/golden.json, prints
summary lines on stdout, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (untraced); --trace 1 makes a
separate traced run and reports the per-layer metrics. perfbench/README.md
describes the workloads, metrics and design rules.

    --tiny          a seconds-long pass of the workload (self-test)
    --golden PATH   check against another golden file (self-test)
    --make-golden   regenerate perfbench/golden.json from this checkout
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inproc  # noqa: E402
import serve_mixed  # noqa: E402
from common import (APP_KEYS, GOLDEN, REFERENCE, ROOT, BenchError,  # noqa: E402
                    build, build_dir, check_checkout, digest, job_key, log,
                    no_core_dumps, percentile, probe_ms, run_harness,
                    self_times, setup_samples)

# Workloads, metrics and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Extra set-up-only processes per in-process run, so setup_s is the
# median of many samples.
SETUP_EXTRA = 20


def metric_units(kind):
    """name -> unit of BENCHMARK.json's "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class Ctx:
    def __init__(self, args, harness, serve_bin, golden):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.tiny = args.tiny
        self.harness = harness
        self.serve_bin = serve_bin
        self.golden = golden
        self.tmp = build_dir() / "run" / f"{args.workload}-{os.getpid()}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--golden", default=str(GOLDEN))
    p.add_argument("--make-golden", action="store_true")
    args = p.parse_args(argv)
    if not args.make_golden and args.workload is None:
        p.error("--workload is required")
    return args


def layer_metrics(ctx, jobs):
    """The per-layer probes (harness `layers`) on a workload's jobs."""
    jobs_file = ctx.tmp / "layers.jobs"
    jobs_file.write_text("".join(json.dumps(j) + "\n" for j in jobs),
                         encoding="utf-8")
    out_file = ctx.tmp / "layers.json"
    run_harness(ctx.harness, "layers", "--reference", REFERENCE,
                "--jobs", str(jobs_file), "--out", str(out_file))
    with open(out_file, encoding="utf-8") as f:
        d = json.load(f)
    m = {
        "workloads.generate_ms": d["generate_ms"],
        "workloads.datasets": d["datasets"],
        "apps.reference_ms": d["reference_ms"],
        "apps.run_ms": d["run_ms"],
        "sim.spmu_bank_util": d["spmu_bank_util"],
        "engine.fromjson_us": d["fromjson_us"],
        "engine.execute_overhead_ms": d["execute_overhead_ms"],
        "common.json_dump_mb_s": d["json_dump_mb_s"],
        "common.json_parse_mb_s": d["json_parse_mb_s"],
    }
    for key, name in APP_KEYS.items():
        if name not in d["ns_per_cycle"]:
            raise BenchError(f"workload ran no {key} point to time")
        m[f"apps.{key}.ns_per_cycle"] = d["ns_per_cycle"][name]
    for k, v in d["sim"].items():
        m[f"sim.{k}"] = v
    return m


def span_metrics(spans, traced_wall, untraced_wall):
    st = self_times(spans)
    return st, {
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.job_self_ms": st.get("job", {}).get("self_ms", 0.0),
        "trace.point_ms": st.get("point", {}).get("total_ms", 0.0),
    }


def run_workload(ctx):
    """Returns (correct, attempted, failed, metrics, summary lines)."""
    probes = [probe_ms(ctx.harness)]
    lines = []
    if ctx.workload == "serve-mixed":
        out, wall, traced_out, traced_wall, extras, jobs = \
            serve_mixed.serve_mixed(ctx)
        attempted, failed, wrong = out.attempted, out.failed, out.wrong
        lat = out.latency_ms
        e2e = {
            "wall_s": wall,
            "setup_s": median(out.setups),
            "peak_rss_mb": out.rss,
            "sim_cycles_per_s": out.cycles / wall,
            "job_p50_ms": median(lat),
        }
        lines.append(f"jobs_per_s: {len(lat) / wall:.3f} 1/s "
                     f"({len(lat)} jobs completed / wall_s)")
        if len(lat) >= 200:
            # Reported only with at least 10 samples beyond it.
            p95, beyond = percentile(lat, 95)
            lines.append(f"job_p95_ms: {p95:.3f} ms (n={len(lat)}, "
                         f"{beyond} beyond)")
        cache = (traced_out or out).cache
        spans = traced_out.spans if traced_out else []
    else:
        fn = inproc.report_quick if ctx.workload == "report-quick" \
            else inproc.sim_large
        res, spans, jobs, traced_wall = fn(ctx)
        if not res.walls:
            raise BenchError("no pass of the workload completed")
        setups = res.setups
        if not ctx.trace:
            setups = setups + setup_samples(ctx.harness,
                                            2 if ctx.tiny else SETUP_EXTRA)
        attempted, failed, wrong = res.attempted, res.failed, res.wrong
        wall = res.walls[0] if ctx.trace else median(res.walls)
        e2e = {
            "wall_s": wall,
            "setup_s": median(setups),
            "peak_rss_mb": median(res.rss),
            "sim_cycles_per_s": median(res.cycles_per_s),
            "job_p50_ms": median(res.job_ms),
        }
        lines.append(f"passes: {len(res.walls)}; pass walls (s): "
                     + " ".join(f"{w:.3f}" for w in res.walls))
        extras = res.extras
        cache = res.cache
    probes.append(probe_ms(ctx.harness))

    lines.append(f"error_rate: {failed / max(1, attempted):.6f} ratio "
                 f"({failed} failed / {attempted} attempted; "
                 f"{wrong} wrong answers)")
    lines.append("host.probe_ms before/after timed phase: "
                 + " ".join(f"{p:.2f}" for p in probes))
    if not ctx.trace:
        metrics = e2e
        units = metric_units("end_to_end")
    else:
        metrics = layer_metrics(ctx, jobs)
        st, span_m = span_metrics(spans, traced_wall, e2e["wall_s"])
        metrics.update(span_m)
        metrics["host.probe_ms"] = median(probes)
        total = cache["hits"] + cache["misses"]
        metrics["driver.cache_hit_ratio"] = cache["hits"] / max(1, total)
        metrics["driver.cache_misses"] = cache["misses"]
        units = metric_units("per_layer")
        for name, s in sorted(st.items()):
            lines.append(f"span {name}: n={s['count']} total "
                         f"{s['total_ms']:.3f} ms, self {s['self_ms']:.3f} ms")
        trace_file = build_dir() / "trace" / \
            f"{ctx.workload}-seed{ctx.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"spans": spans, "self": st,
                                          "layers": extras}),
                              encoding="utf-8")
        lines.append(f"spans written to {trace_file}")
    for k, v in sorted(extras.items()):
        lines.append(f"{k}: {v}")
    missing = [k for k in units if k not in metrics]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    out = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    lines[:0] = [f"{k}: {metrics[k]:.6g} {u}" for k, u in units.items()]
    return wrong == 0, attempted, failed, out, lines


def make_golden(harness):
    """Digest every result the workloads can check, at this checkout."""
    tmp = build_dir() / "run" / "golden"
    tmp.mkdir(parents=True, exist_ok=True)
    out_file = tmp / "report.json"
    run_harness(harness, "report", "--reference", REFERENCE,
                "--out", str(out_file))
    with open(out_file, encoding="utf-8") as f:
        rep = json.load(f)
    golden = {"report": {
        "studies": len(rep["jobs"]),
        "checked": sum(j["checked"] for j in rep["jobs"]),
        "docs": {k: digest(v) for k, v in sorted(rep["docs"].items())},
    }}
    if not all(j["ok"] and j["passed"] == j["checked"] for j in rep["jobs"]):
        raise BenchError("the quick report does not pass --check")
    jobs = inproc.sim_large_jobs() + serve_mixed.menu()
    jobs_file = tmp / "golden.jobs"
    jobs_file.write_text("".join(json.dumps(j) + "\n" for j in jobs),
                         encoding="utf-8")
    run_harness(harness, "jobs", "--reference", REFERENCE,
                "--jobs", str(jobs_file), "--out", str(out_file))
    with open(out_file, encoding="utf-8") as f:
        results = json.load(f)["jobs"]
    if not all(r["ok"] for r in results):
        raise BenchError("a golden job failed")
    golden["jobs"] = {job_key(j): digest(r["doc"])
                      for j, r in zip(jobs, results)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    log(f"wrote {GOLDEN}: {len(golden['jobs'])} jobs, "
        f"{len(golden['report']['docs'])} report documents")


def main(argv):
    args = parse_args(argv)
    os.chdir(ROOT)
    no_core_dumps()
    try:
        check_checkout()
        harness, serve_bin = build()
        if args.make_golden:
            make_golden(harness)
            return 0
        golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
        ctx = Ctx(args, harness, serve_bin, golden)
        ctx.tmp.mkdir(parents=True, exist_ok=True)
        try:
            correct, attempted, failed, metrics, lines = run_workload(ctx)
        finally:
            shutil.rmtree(ctx.tmp, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}" + (" tiny" if args.tiny else ""))
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
