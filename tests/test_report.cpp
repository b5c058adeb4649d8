/**
 * @file
 * Tests for the paper-reproduction report layer (src/report/): study
 * registry enumeration, the reference comparator's tolerance edges
 * (missing key, NaN, relative-vs-absolute slack), golden Markdown/CSV
 * rendering, and the preset knobs every study point inherits.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "report/catalog.hpp"
#include "report/reference.hpp"
#include "report/render.hpp"
#include "report/study.hpp"

using namespace capstan;
using namespace capstan::report;
using driver::JsonValue;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(StudyRegistry, EnumeratesEveryPaperArtifact)
{
    const std::set<std::string> expected = {
        "table4", "table5",  "table8", "table9", "table10",
        "table11", "table12", "table13", "fig4",  "fig5",
        "fig6",   "fig7",    "micro_components"};
    std::set<std::string> names;
    for (const auto &s : allStudies()) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate study " << s.name;
        EXPECT_FALSE(s.artifact.empty()) << s.name;
        EXPECT_FALSE(s.title.empty()) << s.name;
        EXPECT_NE(s.run, nullptr) << s.name;
    }
    EXPECT_EQ(names, expected);
}

TEST(StudyRegistry, FindStudyByName)
{
    const Study *s = findStudy("table12");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->artifact, "Table 12");
    EXPECT_EQ(findStudy("table99"), nullptr);
    EXPECT_EQ(findStudy(""), nullptr);
}

TEST(StudyRegistry, CatalogMatchesDriverNaming)
{
    EXPECT_EQ(allApps().size(), 11u);
    for (const auto &app : allApps())
        EXPECT_FALSE(datasetsFor(app).empty()) << app;
    EXPECT_THROW(datasetsFor("GEMM"), std::invalid_argument);
    // Graph apps substitute Gnutella for the sensitivity series.
    EXPECT_EQ(sensitivityDataset("BFS"), "p2p-Gnutella31");
    EXPECT_EQ(sensitivityDataset("CSR"), datasetsFor("CSR")[0]);
}

// ---------------------------------------------------------------------------
// Reference comparator
// ---------------------------------------------------------------------------

namespace {

Reference
refFromText(const std::string &text)
{
    return Reference::fromJson(JsonValue::parse(text));
}

const char *kSmallRef = R"({
  "studies": {
    "demo": {
      "metrics": {
        "rel_only": {"paper": 100.0, "rel": 0.10},
        "abs_only": {"paper": 2.0, "abs": 0.5},
        "both": {"paper": 10.0, "rel": 0.10, "abs": 1.0},
        "display_only": {"paper": 42.0}
      }
    }
  }
})";

/** Check with every checked metric at its paper value except one. */
bool
passesWith(const Reference &ref, const std::string &key, double value)
{
    std::vector<std::pair<std::string, double>> metrics = {
        {"rel_only", 100.0}, {"abs_only", 2.0}, {"both", 10.0}};
    for (auto &[k, v] : metrics) {
        if (k == key)
            v = value;
    }
    StudyCheck check = ref.check("demo", metrics);
    for (const auto &d : check.deviations) {
        if (d.key == key)
            return false;
    }
    return true;
}

} // namespace

TEST(Reference, RelativeToleranceEdges)
{
    Reference ref = refFromText(kSmallRef);
    // 100 +- 10 passes at the boundary, fails just beyond it.
    EXPECT_TRUE(passesWith(ref, "rel_only", 110.0));
    EXPECT_TRUE(passesWith(ref, "rel_only", 90.0));
    EXPECT_FALSE(passesWith(ref, "rel_only", 110.5));
    EXPECT_FALSE(passesWith(ref, "rel_only", 89.4));
}

TEST(Reference, AbsoluteVsRelativeSlack)
{
    Reference ref = refFromText(kSmallRef);
    // abs_only: paper 2.0 with abs 0.5 — a 25% miss passes on the
    // absolute slack even though no relative tolerance exists.
    EXPECT_TRUE(passesWith(ref, "abs_only", 2.5));
    EXPECT_FALSE(passesWith(ref, "abs_only", 2.6));
    // both: slack = abs + rel * |paper| = 1.0 + 1.0 = 2.0.
    EXPECT_TRUE(passesWith(ref, "both", 12.0));
    EXPECT_FALSE(passesWith(ref, "both", 12.1));
    // All-at-paper passes outright.
    EXPECT_TRUE(ref.check("demo", {{"rel_only", 100.0},
                                   {"abs_only", 2.0},
                                   {"both", 10.0}})
                    .pass());
}

TEST(Reference, MissingMetricIsADeviation)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck check = ref.check("demo", {{"rel_only", 100.0}});
    EXPECT_TRUE(check.has_reference);
    EXPECT_EQ(check.checked, 3u); // display_only carries no tolerance.
    EXPECT_EQ(check.passed, 1u);
    ASSERT_EQ(check.deviations.size(), 2u);
    for (const auto &d : check.deviations) {
        EXPECT_FALSE(d.ours.has_value());
        EXPECT_NE(d.detail.find("no such metric"), std::string::npos);
    }
}

TEST(Reference, NanAndInfAreDeviations)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck nan_check = ref.check(
        "demo", {{"rel_only", std::nan("")},
                 {"abs_only", 2.0},
                 {"both", 10.0}});
    ASSERT_EQ(nan_check.deviations.size(), 1u);
    EXPECT_EQ(nan_check.deviations[0].key, "rel_only");
    EXPECT_NE(nan_check.deviations[0].detail.find("non-finite"),
              std::string::npos);

    StudyCheck inf_check = ref.check(
        "demo", {{"rel_only", 100.0},
                 {"abs_only", INFINITY},
                 {"both", 10.0}});
    ASSERT_EQ(inf_check.deviations.size(), 1u);
    EXPECT_EQ(inf_check.deviations[0].key, "abs_only");
}

TEST(Reference, DisplayOnlyEntriesNeverFail)
{
    Reference ref = refFromText(kSmallRef);
    EXPECT_EQ(ref.paper("demo", "display_only"), 42.0);
    // Wildly wrong display-only value: still passes.
    StudyCheck check = ref.check(
        "demo", {{"rel_only", 100.0}, {"abs_only", 2.0},
                 {"both", 10.0}, {"display_only", 9999.0}});
    EXPECT_TRUE(check.pass());
    EXPECT_EQ(check.checked, 3u);
}

TEST(Reference, UnknownStudyIsUnchecked)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck check = ref.check("nope", {{"x", 1.0}});
    EXPECT_FALSE(check.has_reference);
    EXPECT_TRUE(check.pass());
    EXPECT_FALSE(ref.hasStudy("nope"));
    EXPECT_TRUE(ref.hasStudy("demo"));
    EXPECT_FALSE(ref.paper("nope", "x").has_value());
    EXPECT_FALSE(ref.paper("demo", "nope").has_value());
}

TEST(Reference, MalformedDocumentsThrow)
{
    EXPECT_THROW(refFromText("[]"), std::invalid_argument);
    EXPECT_THROW(refFromText("{}"), std::invalid_argument);
    EXPECT_THROW(refFromText(R"({"studies": {"s": {}}})"),
                 std::invalid_argument);
    EXPECT_THROW(
        refFromText(R"({"studies": {"s": {"metrics": {"m": {}}}}})"),
        std::invalid_argument);
    EXPECT_THROW(refFromText(R"({"studies": {"s": {"metrics":
        {"m": {"paper": 1, "rel": -0.1}}}}})"),
                 std::invalid_argument);
    EXPECT_THROW(Reference::fromFile("/nonexistent/ref.json"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rendering goldens
// ---------------------------------------------------------------------------

namespace {

/** A tiny fabricated study run reusing a registered study identity. */
StudyRun
demoRun()
{
    StudyRun run;
    run.study = findStudy("table5");
    run.ok = true;
    StudyTable table;
    table.title = "Demo";
    table.headers = {"App", "X"};
    table.rows = {{"CSR", "1.00"}, {"COO", "2.00"}};
    run.result.tables.push_back(std::move(table));
    run.result.metric("x/CSR", 1.0);
    run.result.metric("x/COO", 2.0);
    run.result.notes = "A note.";
    return run;
}

} // namespace

TEST(Render, NumFormatting)
{
    EXPECT_EQ(num(1.005, 1), "1.0");
    EXPECT_EQ(num(std::nullopt), "-");
    EXPECT_EQ(num(54.0, 0), "54");
    EXPECT_EQ(oursPaper(1.5, std::nullopt), "1.50");
    EXPECT_EQ(oursPaper(1.5, 2.0), "1.50 / 2.00");
}

TEST(Render, MarkdownGolden)
{
    StudyRun run = demoRun();
    ReportMeta meta;
    meta.preset = "quick";
    meta.knobs.scale_mult = 0.02;
    meta.knobs.tiles = 4;
    meta.knobs.iterations = 1;
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("# Capstan paper-reproduction results"),
              std::string::npos);
    EXPECT_NE(md.find("| [table5](#table5) | Table 5 | UNCHECKED | "
                      "0 | 0 |"),
              std::string::npos);
    EXPECT_NE(md.find("**Demo**\n\n"
                      "| App | X |\n"
                      "|---|---|\n"
                      "| CSR | 1.00 |\n"
                      "| COO | 2.00 |\n"),
              std::string::npos);
    EXPECT_NE(md.find("A note."), std::string::npos);
    // Deterministic: renders byte-identically.
    EXPECT_EQ(md, renderMarkdown({run}, meta));
}

TEST(Render, MarkdownEscapesPipesAndShowsDeviations)
{
    StudyRun run = demoRun();
    run.result.tables[0].rows[0][0] = "a|b";
    run.check.has_reference = true;
    run.check.checked = 1;
    MetricCheck mc;
    mc.key = "x/CSR";
    mc.paper = 9.0;
    mc.ours = 1.0;
    mc.detail = "out of tolerance";
    run.check.deviations.push_back(mc);
    ReportMeta meta;
    meta.preset = "quick";
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("a\\|b"), std::string::npos);
    EXPECT_NE(md.find("DEVIATION"), std::string::npos);
    EXPECT_NE(md.find("`x/CSR`"), std::string::npos);
    EXPECT_EQ(run.verdict(), "deviation");
}

TEST(Render, CsvGolden)
{
    Reference ref = refFromText(R"({
      "studies": {"table5": {"metrics": {
        "x/CSR": {"paper": 1.1, "rel": 0.2},
        "x/COO": {"paper": 40.0}
      }}}})");
    StudyRun run = demoRun();
    run.check = ref.check(run.study->name, run.result.metrics);
    EXPECT_TRUE(run.check.pass());
    std::string csv = renderCsv({run}, &ref);
    EXPECT_EQ(csv,
              "study,metric,value,paper,rel_tol,abs_tol,verdict\n"
              "table5,x/CSR,1,1.1,0.2,0,pass\n"
              "table5,x/COO,2,40,,,unchecked\n");
}

TEST(Render, CsvFieldEscaping)
{
    EXPECT_EQ(driver::csvField("plain"), "plain");
    EXPECT_EQ(driver::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(driver::csvField("a\"b"), "\"a\"\"b\"");
    EXPECT_EQ(driver::csvField("a\nb"), "\"a\nb\"");
}

TEST(Render, JsonReportShape)
{
    StudyRun run = demoRun();
    ReportMeta meta;
    meta.preset = "quick";
    meta.knobs.scale_mult = 0.02;
    JsonValue doc = reportToJson({run}, meta);
    EXPECT_EQ(doc.at("report").at("studies").asNumber(), 1.0);
    EXPECT_EQ(doc.at("results")[0].at("name").asString(), "table5");
    EXPECT_EQ(doc.at("results")[0].at("verdict").asString(),
              "unchecked");
    EXPECT_EQ(doc.at("results")[0]
                  .at("metrics")
                  .at("x/COO")
                  .asNumber(),
              2.0);
    // Round-trips through the JSON parser.
    JsonValue reparsed = JsonValue::parse(doc.dump(2));
    EXPECT_EQ(reparsed.at("results")[0].at("tables")[0]
                  .at("rows")[1][0]
                  .asString(),
              "COO");
}

TEST(Render, ErrorRunsRenderAsErrors)
{
    StudyRun run;
    run.study = findStudy("fig4");
    run.ok = false;
    run.error = "boom";
    EXPECT_EQ(run.verdict(), "error");
    ReportMeta meta;
    meta.preset = "full";
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("ERROR"), std::string::npos);
    EXPECT_NE(md.find("boom"), std::string::npos);
    JsonValue doc = reportToJson({run}, meta);
    EXPECT_EQ(doc.at("report").at("errors").asNumber(), 1.0);
    EXPECT_EQ(doc.at("results")[0].at("error").asString(), "boom");
}

// ---------------------------------------------------------------------------
// Study execution (fast studies only; report_quick covers the rest)
// ---------------------------------------------------------------------------

TEST(StudyExecution, AnalyticAreaStudiesRun)
{
    StudyContext ctx;
    ctx.knobs.scale_mult = 0.02;
    ctx.knobs.tiles = 4;
    ctx.knobs.iterations = 1;

    StudyResult t5 = findStudy("table5")->run(ctx);
    ASSERT_EQ(t5.tables.size(), 1u);
    EXPECT_EQ(t5.tables[0].rows.size(), 3u);
    bool found = false;
    for (const auto &[key, value] : t5.metrics) {
        if (key == "savings_pct") {
            found = true;
            EXPECT_NEAR(value, 54.0, 2.0);
        }
    }
    EXPECT_TRUE(found);

    StudyResult t8 = findStudy("table8")->run(ctx);
    for (const auto &[key, value] : t8.metrics) {
        if (key == "area_overhead_pct") {
            EXPECT_NEAR(value, 16.0, 2.0);
        }
    }
}

TEST(StudyExecution, BaseCarriesEveryPresetKnob)
{
    StudyContext ctx;
    // Binding every member means a new RunKnobs field stops this test
    // compiling until it is set and checked here too.
    auto &[tiles, iterations, scale_mult, dataset_dir, matrix_store] =
        ctx.knobs;
    tiles = 7;
    iterations = 3;
    scale_mult = 0.5;
    dataset_dir = "datasets";
    matrix_store = sparse::StoreKind::Compressed;

    driver::DriverOptions p = ctx.base("bfs", "flickr");
    EXPECT_EQ(p.app, "bfs");
    EXPECT_EQ(p.dataset, "flickr");
    EXPECT_EQ(p.tiles, 7);
    EXPECT_EQ(p.iterations, 3);
    EXPECT_EQ(p.scale, 0.5);
    EXPECT_EQ(p.dataset_dir, "datasets");
    EXPECT_EQ(p.matrix_store, sparse::StoreKind::Compressed);
}

TEST(StudyExecution, SweepFailuresSurfaceAsExceptions)
{
    StudyContext ctx;
    driver::DriverOptions bad = ctx.base("CSR", "no-such-dataset");
    EXPECT_THROW(ctx.sweep({bad}), std::runtime_error);
}
