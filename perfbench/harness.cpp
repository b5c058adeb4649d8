/**
 * @file
 * perfbench-harness: the in-process half of the Capstan benchmark.
 *
 * perfbench/run.py spawns one harness process per timed pass, so every
 * pass starts with cold process-global caches, exactly as a CLI user
 * does. All timed work is serial (engine jobs = 1, intra_jobs = 1).
 * Times are CLOCK_MONOTONIC seconds (std::chrono::steady_clock), the
 * clock Python's time.monotonic() reads, so run.py can measure set-up
 * from the moment it spawned the process.
 *
 *   perfbench-harness setup  --reference P
 *   perfbench-harness report --reference P --out F [--studies a,b]
 *                            [--trace F]
 *   perfbench-harness jobs   --reference P --jobs F --out F [--trace F]
 *   perfbench-harness layers --reference P --jobs F --out F
 *   perfbench-harness probe
 *
 * `jobs` reads one wire job document per line (the capstan-serve
 * `submit` job form) and executes each through engine::Engine::execute.
 * `layers` times direct calls into each module's public functions on
 * the points of such a job list (the traced run's per-layer numbers).
 * Every output is one JSON document; result documents are embedded as
 * strings so run.py can digest their exact bytes.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bicgstab.hpp"
#include "apps/conv.hpp"
#include "apps/graph.hpp"
#include "apps/matadd.hpp"
#include "apps/pagerank.hpp"
#include "apps/spmspm.hpp"
#include "apps/spmv.hpp"
#include "common/json.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "engine/engine.hpp"
#include "report/render.hpp"
#include "report/study.hpp"
#include "sim/allocator.hpp"
#include "sim/dram.hpp"
#include "sim/scanner.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"
#include "workloads/datasets.hpp"

namespace {

using namespace capstan;
using common::JsonValue;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** High-water resident set of this process, in MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

struct Args
{
    std::string cmd;
    std::map<std::string, std::string> flags;

    std::string get(const std::string &key) const
    {
        auto it = flags.find(key);
        return it == flags.end() ? std::string() : it->second;
    }
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing subcommand");
    Args a;
    a.cmd = argv[1];
    for (int i = 2; i < argc; i += 2) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0 || i + 1 >= argc)
            throw std::invalid_argument("bad flag: " + key);
        a.flags[key.substr(2)] = argv[i + 1];
    }
    return a;
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream in(s);
    std::string item;
    while (std::getline(in, item, sep)) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<JsonValue>
readJobLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<JsonValue> docs;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            docs.push_back(JsonValue::parse(line));
    }
    return docs;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

/** Serial engine, reference loaded: the state every pass sets up. */
engine::EngineConfig
serialConfig(const Args &a)
{
    engine::EngineConfig cfg;
    cfg.jobs = 1;
    cfg.intra_jobs = 1;
    cfg.reference = a.get("reference");
    return cfg;
}

/**
 * In-memory spans of a traced pass: name, start, end, parent index,
 * and the request (job) index they belong to. Written out at the end.
 */
class Trace
{
  public:
    explicit Trace(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Open a span; returns its index (the parent of later spans). */
    int open(const std::string &name, double start, int parent, int req)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, start, start, parent, req});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int span, double end)
    {
        if (span >= 0)
            spans_[static_cast<std::size_t>(span)].end = end;
    }

    void write(const std::string &path) const
    {
        if (!on_)
            return;
        JsonValue arr = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue j = JsonValue::object();
            j.set("name", s.name);
            j.set("start", s.start);
            j.set("end", s.end);
            j.set("parent", s.parent);
            j.set("req", s.req);
            arr.push(std::move(j));
        }
        JsonValue doc = JsonValue::object();
        doc.set("spans", arr);
        writeFile(path, doc.dump());
    }

  private:
    struct Span
    {
        std::string name;
        double start, end;
        int parent, req;
    };

    bool on_;
    std::vector<Span> spans_;
};

/**
 * Per-point progress: with serial execution each callback closes the
 * interval since the previous one (or since the job started), which is
 * that point's latency. Also sums the simulated cycles of every point
 * that completed.
 */
struct PointTracker
{
    Trace *trace = nullptr;
    int parent = -1;
    int req = 0;
    double last = 0.0;
    std::uint64_t cycles = 0;
    JsonValue point_ms = JsonValue::array();
    std::vector<JsonValue> points; //!< Wire docs, traced passes only.

    driver::SweepProgress hook()
    {
        return [this](std::size_t, std::size_t,
                      const driver::SweepPointResult &p) {
            double t = now();
            if (p.ok)
                cycles += p.result.timing.cycles;
            point_ms.push((t - last) * 1e3);
            if (trace->on()) {
                trace->close(trace->open("point", last, parent, req), t);
                engine::JobRequest run;
                run.options = p.options;
                points.push_back(run.toJson());
            }
            last = t;
        };
    }
};

JsonValue
baseOutput(double t_setup, double t_start, double t_end,
           const driver::DatasetCacheStats &c0)
{
    driver::DatasetCacheStats c1 = driver::datasetCacheStats();
    JsonValue out = JsonValue::object();
    out.set("t_setup", t_setup);
    out.set("t_start", t_start);
    out.set("t_end", t_end);
    out.set("rss_mb", peakRssMb());
    JsonValue cache = JsonValue::object();
    cache.set("hits", c1.hits - c0.hits);
    cache.set("misses", c1.misses - c0.misses);
    out.set("cache", cache);
    return out;
}

JsonValue
pointList(const std::vector<JsonValue> &points)
{
    std::set<std::string> seen;
    JsonValue arr = JsonValue::array();
    for (const JsonValue &p : points) {
        if (seen.insert(p.dump()).second)
            arr.push(p);
    }
    return arr;
}

/** Every registered study (or a subset) rendered as capstan-report. */
int
cmdReport(const Args &a)
{
    engine::Engine eng(serialConfig(a));
    if (!eng.reference())
        throw std::runtime_error("no paper reference loaded");
    double t_setup = now();

    std::vector<std::string> names = split(a.get("studies"), ',');
    if (names.empty()) {
        for (const auto &s : report::allStudies())
            names.push_back(s.name);
    }
    Trace trace(!a.get("trace").empty());
    driver::DatasetCacheStats c0 = driver::datasetCacheStats();
    double t_start = now();
    int root = trace.open("pass", t_start, -1, -1);

    report::ReportMeta meta;
    meta.preset = "quick";
    meta.checked = true;
    std::vector<report::StudyRun> runs;
    std::vector<JsonValue> study_docs;
    JsonValue jobs = JsonValue::array();
    PointTracker points;
    points.trace = &trace;
    for (std::size_t i = 0; i < names.size(); ++i) {
        engine::JobRequest req;
        req.kind = engine::JobRequest::Kind::Study;
        req.study = names[i];
        req.preset = "quick";
        req.check = true;
        if (i == 0)
            meta.knobs = eng.studyKnobs(req);
        engine::ExecHooks hooks;
        double t0 = now();
        int job_span = trace.open("job", t0, root, static_cast<int>(i));
        points.parent = job_span;
        points.req = static_cast<int>(i);
        points.last = t0;
        hooks.progress = points.hook();
        engine::JobResult res = eng.execute(req, hooks);
        double t1 = now();
        trace.close(job_span, t1);
        report::StudyRun run;
        if (res.study_run) {
            run = *res.study_run;
        } else {
            run.study = report::findStudy(names[i]);
            run.error = res.error;
        }
        JsonValue job = JsonValue::object();
        job.set("key", "study/" + names[i]);
        job.set("ms", (t1 - t0) * 1e3);
        job.set("ok", res.ok);
        job.set("checked", static_cast<std::uint64_t>(run.check.checked));
        job.set("passed", static_cast<std::uint64_t>(run.check.passed));
        jobs.push(std::move(job));
        study_docs.push_back(std::move(res.document));
        runs.push_back(std::move(run));
    }
    double t_render = now();
    std::string markdown = report::renderMarkdown(runs, meta);
    std::string json = report::reportToJson(runs, meta).dump(2) + "\n";
    double t_end = now();
    trace.close(trace.open("render", t_render, root, -1), t_end);
    trace.close(root, t_end);

    // Study documents are digested too; capstan-report never dumps them,
    // so that happens outside the timed phase.
    JsonValue docs = JsonValue::object();
    for (std::size_t i = 0; i < names.size(); ++i)
        docs.set("study/" + names[i], study_docs[i].dump());
    docs.set("report.md", markdown);
    docs.set("report.json", json);

    JsonValue out = baseOutput(t_setup, t_start, t_end, c0);
    out.set("jobs", jobs);
    out.set("docs", docs);
    out.set("cycles", points.cycles);
    out.set("point_ms", points.point_ms);
    out.set("render_ms", (t_end - t_render) * 1e3);
    out.set("points", pointList(points.points));
    out.set("points_seen", static_cast<std::uint64_t>(points.points.size()));
    writeFile(a.get("out"), out.dump());
    trace.write(a.get("trace"));
    return 0;
}

/** A list of wire jobs, each executed once, serially. */
int
cmdJobs(const Args &a)
{
    engine::Engine eng(serialConfig(a));
    if (!eng.reference())
        throw std::runtime_error("no paper reference loaded");
    double t_setup = now();
    std::vector<JsonValue> wire = readJobLines(a.get("jobs"));
    std::vector<engine::JobRequest> reqs;
    for (const JsonValue &doc : wire)
        reqs.push_back(engine::JobRequest::fromJson(doc, eng.config()));

    Trace trace(!a.get("trace").empty());
    driver::DatasetCacheStats c0 = driver::datasetCacheStats();
    double t_start = now();
    int root = trace.open("pass", t_start, -1, -1);
    JsonValue jobs = JsonValue::array();
    PointTracker points;
    points.trace = &trace;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        engine::ExecHooks hooks;
        double t0 = now();
        int job_span = trace.open("job", t0, root, static_cast<int>(i));
        points.parent = job_span;
        points.req = static_cast<int>(i);
        points.last = t0;
        hooks.progress = points.hook();
        engine::JobResult res = eng.execute(reqs[i], hooks);
        double t1 = now();
        trace.close(job_span, t1);
        JsonValue job = JsonValue::object();
        job.set("ms", (t1 - t0) * 1e3);
        job.set("ok", res.ok);
        job.set("error", res.error);
        job.set("doc", res.document.dump());
        jobs.push(std::move(job));
    }
    double t_end = now();
    trace.close(root, t_end);

    JsonValue out = baseOutput(t_setup, t_start, t_end, c0);
    out.set("jobs", jobs);
    out.set("cycles", points.cycles);
    writeFile(a.get("out"), out.dump());
    trace.write(a.get("trace"));
    return 0;
}

int
cmdSetup(const Args &a)
{
    engine::Engine eng(serialConfig(a));
    if (!eng.reference())
        throw std::runtime_error("no paper reference loaded");
    std::printf("%.9f\n", now());
    return 0;
}

/**
 * Host-speed probe: a fixed integer loop that calls no project code.
 * It tells a slow host apart from a slow program and never scales a
 * metric.
 */
int
cmdProbe()
{
    double t0 = now();
    std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
    for (int i = 0; i < 40'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x % 1009;
    }
    double ms = (now() - t0) * 1e3;
    std::printf("%.6f %llu\n", ms, static_cast<unsigned long long>(acc));
    return 0;
}

// --------------------------------------------------------------------
// Per-layer probes (traced runs only).
// --------------------------------------------------------------------

/** ns per call of @p fn, over @p reps calls. */
template <typename Fn>
double
nsPerCall(int reps, Fn &&fn)
{
    double t0 = now();
    for (int i = 0; i < reps; ++i)
        fn(i);
    return (now() - t0) * 1e9 / reps;
}

volatile std::uint64_t g_sink = 0;

JsonValue
simProbes()
{
    JsonValue out = JsonValue::object();
    {
        sim::SparseMemoryUnit spmu(sim::SpmuConfig{});
        std::mt19937 rng(2);
        out.set("spmu_step_ns", nsPerCall(200'000, [&](int i) {
                    sim::AccessVector av;
                    av.id = static_cast<std::uint64_t>(i);
                    for (int l = 0; l < 16; ++l) {
                        av.lane[l].valid = true;
                        av.lane[l].addr = rng();
                    }
                    spmu.tryEnqueue(av);
                    spmu.step();
                    while (spmu.tryDequeue()) {
                    }
                }));
    }
    {
        sim::SeparableAllocator alloc(16, 16, 3);
        std::mt19937 rng(1);
        std::vector<std::vector<sim::RequestMatrix>> sets(64);
        for (auto &mats : sets) {
            mats.resize(3);
            for (auto &m : mats) {
                for (int l = 0; l < 16; ++l)
                    m[l] = rng() & 0xFFFF;
            }
        }
        out.set("allocator_ns", nsPerCall(500'000, [&](int i) {
                    g_sink = g_sink + alloc.allocate(sets[i % 64])
                                          .grant_count;
                }));
    }
    {
        sim::DramModel dram(sim::DramConfig{}, 1.6);
        std::mt19937_64 rng(6);
        sim::Cycle t = 0;
        out.set("dram_ns", nsPerCall(500'000, [&](int i) {
                    t = dram.access((rng() % (1ull << 30)) & ~63ull,
                                    (i & 3) == 0, t + 1);
                }));
    }
    {
        sim::ScannerModel model(sim::ScannerConfig{});
        sparse::BitVector x(1 << 16);
        sparse::BitVector y(1 << 16);
        std::mt19937 rng(3);
        for (Index i = 0; i < x.size(); i += 1 + rng() % 64) {
            x.set(i);
            if (rng() % 2)
                y.set(i);
        }
        out.set("scanner_ns", nsPerCall(2'000, [&](int) {
                    g_sink = g_sink + model.scanBitVectors(
                                          x, y, sim::ScanMode::Union)
                                          .cycles;
                }));
    }
    {
        sim::ShuffleNetwork net(sim::ShuffleConfig{});
        std::mt19937 rng(4);
        out.set("shuffle_ns", nsPerCall(200'000, [&](int i) {
                    sim::ShuffleVector v;
                    v.src_port = i % 16;
                    v.id = static_cast<std::uint64_t>(i);
                    for (int l = 0; l < 16; ++l) {
                        v.valid[l] = true;
                        v.dst_port[l] = static_cast<int>(rng() % 16);
                        v.src_lane[l] = l;
                    }
                    net.tryInject(v.src_port, v);
                    net.step();
                    for (int p = 0; p < 16; ++p) {
                        while (net.tryEject(p)) {
                        }
                    }
                }));
    }
    return out;
}

sparse::DenseVector
denseInput(Index n)
{
    sparse::DenseVector v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = 0.25f + 0.5f * static_cast<float>((i * 7919) % 1024) / 1024.0f;
    return v;
}

/** The functional reference runApp's runner for @p app computes. */
void
runReference(const std::string &app, const workloads::MatrixDataset *md,
             const workloads::ConvDataset *cd, int iterations)
{
    if (app == "Conv") {
        g_sink = g_sink + apps::convReference(cd->layer).dim0();
        return;
    }
    const sparse::MatrixStore &m = md->matrix;
    if (app == "CSR" || app == "COO" || app == "CSC")
        g_sink = g_sink + apps::spmvReference(m, denseInput(m.cols())).size();
    else if (app == "PR-Pull" || app == "PR-Edge")
        g_sink = g_sink + apps::pageRankReference(m, iterations).size();
    else if (app == "BFS")
        g_sink = g_sink + apps::bfsReference(m, 0).size();
    else if (app == "SSSP")
        g_sink = g_sink + apps::ssspReference(m, 0).size();
    else if (app == "M+M") {
        sparse::MatrixStore mt = sparse::MatrixStore::build(
            sparse::StoreKind::Csr, m.transpose());
        g_sink = g_sink + apps::matAddReference(m, mt).nnz();
    } else if (app == "SpMSpM")
        g_sink = g_sink + apps::spmspmReference(m, m).nnz();
    else if (app == "BiCGStab")
        g_sink = g_sink + apps::bicgstabReference(m, denseInput(m.rows()),
                                                  iterations)
                              .size();
    else
        throw std::invalid_argument("no reference for app " + app);
}

/**
 * Per-layer probes on the points of a job list: dataset generation
 * per distinct (dataset, scale), functional reference vs simulated run
 * per app (first point of each app), the engine's overhead over a bare
 * runDriver, request parsing and JSON throughput on the real result
 * documents, and the fixed seeded component streams.
 */
int
cmdLayers(const Args &a)
{
    engine::Engine eng(serialConfig(a));
    std::vector<JsonValue> wire = readJobLines(a.get("jobs"));
    if (wire.empty())
        throw std::invalid_argument("layers: empty job list");
    std::vector<engine::JobRequest> reqs;
    for (const JsonValue &doc : wire)
        reqs.push_back(engine::JobRequest::fromJson(doc, eng.config()));

    JsonValue out = JsonValue::object();
    {
        int reps = std::max<int>(1, 20'000 / static_cast<int>(wire.size()));
        double t0 = now();
        for (int r = 0; r < reps; ++r) {
            for (const JsonValue &doc : wire)
                g_sink = g_sink + static_cast<std::uint64_t>(
                             engine::JobRequest::fromJson(doc, eng.config())
                                 .kind);
        }
        out.set("fromjson_us",
                (now() - t0) * 1e6 / (reps * static_cast<double>(wire.size())));
    }

    // Every simulated point the list names, in order, deduplicated.
    std::vector<driver::DriverOptions> points;
    std::set<std::string> seen;
    for (const engine::JobRequest &r : reqs) {
        std::vector<driver::DriverOptions> ps;
        if (r.kind == engine::JobRequest::Kind::Run)
            ps.push_back(r.options);
        else if (r.kind == engine::JobRequest::Kind::Sweep)
            ps = driver::expandSweep(r.spec);
        for (driver::DriverOptions &p : ps) {
            engine::JobRequest run;
            run.options = p;
            if (seen.insert(run.toJson().dump()).second)
                points.push_back(p);
        }
    }

    // Dataset generation, cold, per distinct (dataset, scale).
    double gen_ms = 0;
    std::set<std::pair<std::string, long>> datasets;
    for (const driver::DriverOptions &p : points) {
        std::string app = *driver::canonicalApp(p.app);
        std::string ds = p.dataset.empty() ? driver::defaultDataset(app)
                                           : p.dataset;
        driver::RunKnobs knobs;
        knobs.scale_mult = p.scale;
        double scale = driver::effectiveScale(ds, knobs);
        if (!datasets.insert({ds, std::lround(scale * 1e6)}).second)
            continue;
        double t0 = now();
        if (app == "Conv")
            g_sink = g_sink + workloads::loadConvDataset(ds, scale).layer.dim;
        else
            g_sink = g_sink + workloads::loadMatrixDataset(ds, scale).nnz();
        gen_ms += (now() - t0) * 1e3;
    }
    out.set("generate_ms", gen_ms);
    out.set("datasets", static_cast<std::uint64_t>(datasets.size()));

    // Reference vs run per app, on the first point of each app.
    double ref_ms = 0, run_ms = 0, overhead_ms = 0;
    double dump_s = 0, parse_s = 0, json_mb = 0, util = 0;
    JsonValue ns_per_cycle = JsonValue::object();
    std::set<std::string> apps_done;
    for (const driver::DriverOptions &p : points) {
        std::string app = *driver::canonicalApp(p.app);
        if (!apps_done.insert(app).second)
            continue;
        driver::RunResult cold = driver::runDriver(p); // Warms caches.
        std::optional<workloads::MatrixDataset> md;
        std::optional<workloads::ConvDataset> cd;
        if (app == "Conv")
            cd = workloads::loadConvDataset(cold.dataset, cold.scale);
        else
            md = workloads::loadMatrixDataset(cold.dataset, cold.scale);
        double t0 = now();
        runReference(app, md ? &*md : nullptr, cd ? &*cd : nullptr,
                     cold.iterations);
        double t1 = now();
        driver::RunResult warm = driver::runDriver(p);
        double t2 = now();
        engine::JobRequest req;
        req.options = p;
        engine::JobResult res = eng.execute(req);
        double t3 = now();
        ref_ms += (t1 - t0) * 1e3;
        run_ms += (t2 - t1) * 1e3;
        overhead_ms += ((t3 - t2) - (t2 - t1)) * 1e3;
        ns_per_cycle.set(app, ((t2 - t1) - (t1 - t0)) * 1e9 /
                                  static_cast<double>(std::max<sim::Cycle>(
                                      1, warm.timing.cycles)));
        util += warm.timing.spmu.bankUtilization(warm.config.spmu.banks);

        // JSON throughput on this real result document.
        std::string text = res.document.dump();
        int reps = std::max<int>(1, static_cast<int>(4e6 / text.size()));
        double d0 = now();
        for (int i = 0; i < reps; ++i)
            g_sink = g_sink + res.document.dump().size();
        double d1 = now();
        for (int i = 0; i < reps; ++i)
            g_sink = g_sink + JsonValue::parse(text).size();
        double d2 = now();
        dump_s += d1 - d0;
        parse_s += d2 - d1;
        json_mb += static_cast<double>(text.size()) * reps / 1e6;
    }
    double napps = static_cast<double>(apps_done.size());
    out.set("reference_ms", ref_ms);
    out.set("run_ms", run_ms);
    out.set("execute_overhead_ms", napps > 0 ? overhead_ms / napps : 0.0);
    out.set("ns_per_cycle", ns_per_cycle);
    out.set("spmu_bank_util", napps > 0 ? util / napps : 0.0);
    out.set("json_dump_mb_s", dump_s > 0 ? json_mb / dump_s : 0.0);
    out.set("json_parse_mb_s", parse_s > 0 ? json_mb / parse_s : 0.0);
    out.set("sim", simProbes());
    writeFile(a.get("out"), out.dump());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args a = parseArgs(argc, argv);
        if (a.cmd == "setup")
            return cmdSetup(a);
        if (a.cmd == "report")
            return cmdReport(a);
        if (a.cmd == "jobs")
            return cmdJobs(a);
        if (a.cmd == "layers")
            return cmdLayers(a);
        if (a.cmd == "probe")
            return cmdProbe();
        throw std::invalid_argument("unknown subcommand " + a.cmd);
    } catch (const std::exception &e) {
        std::cerr << "perfbench-harness: " << e.what() << "\n";
        return 1;
    }
}
