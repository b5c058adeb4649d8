/**
 * @file
 * The paper-artifact study registry behind `capstan-report` and the
 * engine's study jobs.
 *
 * Every figure and table the paper publishes is registered here as a
 * named *study*: a function that declares the runs it needs (app-level
 * studies declare DriverOptions points and execute them on the
 * driver's parallel sweep engine through StudyContext::sweep;
 * component-level studies step the hardware models directly), derives
 * its rows, and returns them together with a flat metric list. The
 * `capstan-report` CLI renders every study to Markdown + CSV + JSON
 * and checks the metrics against `data/paper_reference.json`
 * (report/reference.hpp).
 *
 * Study results are deterministic: simulated cycles depend only on the
 * preset knobs, never on the host, thread count, or wall-clock, so
 * rendered reports are byte-identical across runs (the same property
 * the sweep reports guarantee, docs/OUTPUT_SCHEMA.md).
 */

#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "report/reference.hpp"

namespace capstan::report {

/**
 * Thrown by StudyContext::sweep when the context's cancel token fired
 * before the study's points all ran: the study was interrupted, not
 * broken. Callers (engine, capstan-report) map it to an
 * `"interrupted"` verdict instead of an error.
 */
class StudyInterrupted : public std::runtime_error
{
  public:
    StudyInterrupted()
        : std::runtime_error("interrupted: study cancelled before "
                             "its sweep completed")
    {
    }
};

/** One rendered table of a study (most studies have exactly one). */
struct StudyTable
{
    std::string title; //!< Subfigure/table caption; may be empty.
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Everything one study produces. */
struct StudyResult
{
    std::vector<StudyTable> tables;

    /**
     * Flat numeric results in emission order, keyed as
     * data/paper_reference.json keys them (e.g. "gmean/hash",
     * "util/d8/x16/p1"). The reference comparator and the JSON/CSV
     * renderers consume these.
     */
    std::vector<std::pair<std::string, double>> metrics;

    std::string notes; //!< Paragraph(s) printed after the tables.
    /** Render notes verbatim in a code block (Fig. 4's trace grids). */
    bool preformatted_notes = false;

    void metric(const std::string &key, double value)
    {
        metrics.emplace_back(key, value);
    }
};

/** Execution environment a study runs under. */
struct StudyContext
{
    driver::RunKnobs knobs;      //!< Preset scale/tiles/iterations.
    int jobs = 0;                //!< Sweep workers; 0 = all cores.
    const Reference *reference = nullptr; //!< May be null.
    driver::SweepProgress progress;       //!< Optional, for stderr.
    /** Cancel token; sweep() throws StudyInterrupted when it fires. */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Execute expanded sweep points on the sweep's worker threads and
     * return results in point order. Throws std::runtime_error when
     * any point fails (a study must not render inf/nan cells from a
     * half-failed sweep).
     */
    std::vector<driver::SweepPointResult>
    sweep(const std::vector<driver::DriverOptions> &points) const;

    /**
     * The sweep base point every study axis varies around: @p app on
     * @p dataset (empty = the app's default) with every preset knob
     * (RunKnobs field) copied in.
     */
    driver::DriverOptions base(const std::string &app,
                               const std::string &dataset) const;

    /** The paper's published value for an "ours / paper" cell. */
    std::optional<double> paper(const std::string &study,
                                const std::string &metric) const
    {
        if (!reference)
            return std::nullopt;
        return reference->paper(study, metric);
    }
};

/** A registered paper artifact. */
struct Study
{
    std::string name;     //!< CLI name, e.g. "table12".
    std::string artifact; //!< Paper label, e.g. "Table 12".
    std::string title;    //!< One-line description.
    StudyResult (*run)(const StudyContext &);
};

/** All registered studies, in paper order. */
const std::vector<Study> &allStudies();

/** Look a study up by name; nullptr when unknown. */
const Study *findStudy(const std::string &name);

} // namespace capstan::report

