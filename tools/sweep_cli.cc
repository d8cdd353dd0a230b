/**
 * @file
 * Design-space sweep driver: expand a config-grid x seed x
 * traffic-pattern product into independent jobs, run them on the
 * batch engine, and emit one CSV/JSONL row per run.
 *
 * Rows are written in grid order and contain only simulated
 * quantities, so the output file is byte-identical whatever --jobs
 * is. A job that fails (a fatal() or panic() inside the simulation)
 * is isolated: its index and seed are reported on stderr, the row is
 * skipped, and the driver exits non-zero after the batch drains —
 * re-running that one point is `--seed <master>` with the printed
 * index (seeds derive from (master, index)).
 *
 * Examples:
 *   sweep_cli --preset ddr3_1333,lpddr3_1600 --pattern random,dram \
 *             --read-pct 50,100 --jobs 4 --out sweep.csv
 *   sweep_cli --page open,closed --mapping RoRaBaCoCh,RoCoRaBaCh \
 *             --model both --seeds 3 --format jsonl
 *   sweep_cli --pattern trace --trace-in cap.dtrc --page open,closed
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "harness/cli_options.hh"
#include "harness/config_file.hh"
#include "obs/metrics.hh"
#include "obs/metrics_server.hh"
#include "sim/logging.hh"

using namespace dramctrl;
using namespace dramctrl::exec;

namespace {

struct SweepCliOptions
{
    SweepSpec spec;
    /** Preset names minted from --config files, joined to the axis. */
    std::vector<std::string> configPresets;
    bool presetExplicit = false;
    unsigned jobs = 1;
    std::string out;             // empty = stdout
    std::string format = "csv";  // csv | jsonl
    bool warmStart = false;
    std::string metricsListen;   // live endpoint listen spec
};

std::vector<cli::Option>
optionTable(SweepCliOptions &opt)
{
    using cli::callback;
    using cli::threads;
    using cli::toggle;
    using cli::value;
    SweepSpec &spec = opt.spec;
    return {
        value("--preset", "LIST",
              "ddr3_1333|ddr3_1600|lpddr3_1600|wideio_200|\n"
              "hmc_vault|ddr4_2400|lpddr4_3200|hbm2",
              spec.presets, &opt.presetExplicit),
        callback("--config", "LIST",
                 "declarative config files (see\n"
                 "docs/STANDARDS.md); each file is registered\n"
                 "as an in-process preset and added to the\n"
                 "--preset axis under its own name",
                 [&opt](const char *csv) {
                     // Each file becomes an in-process preset named
                     // after its base preset (shadowing it) or its
                     // path, and joins the preset axis so the grid
                     // expands over it like any name.
                     std::vector<std::string> paths;
                     cli::parseValue("--config", csv, paths);
                     for (const std::string &path : paths) {
                         std::string base;
                         DRAMCtrlConfig cfg =
                             harness::loadConfigFile(path, &base);
                         std::string pname =
                             base.empty() ? "config:" + path : base;
                         presets::registerPreset(
                             pname, [cfg] { return cfg; });
                         opt.configPresets.push_back(pname);
                     }
                 }),
        value("--pattern", "LIST",
              "linear|random|dram|trace (trace replays\n"
              "--trace-in)",
              spec.patterns),
        value("--page", "LIST", "open|open_adaptive|closed|closed_adaptive",
              spec.pages),
        value("--mapping", "LIST", "RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh",
              spec.mappings),
        value("--read-pct", "LIST", "read percentages", spec.readPcts),
        value("--itt-ns", "LIST", "inter-transaction times, ns",
              spec.ittNs),
        callback("--model", "NAME", "event|cycle|both (default event)",
                 [&spec](const char *m) {
                     const std::string model = m;
                     if (model == "event")
                         spec.models = {harness::CtrlModel::Event};
                     else if (model == "cycle")
                         spec.models = {harness::CtrlModel::Cycle};
                     else if (model == "both")
                         spec.models = {harness::CtrlModel::Event,
                                        harness::CtrlModel::Cycle};
                     else
                         fatal("unknown model '%s'", m);
                 }),
        value("--seeds", "N", "seeds per grid point (default 1)",
              spec.numSeeds),
        value("--seed", "N",
              "master seed (default 1); run seeds derive\n"
              "from (master seed, grid index)",
              spec.masterSeed),
        value("--requests", "N", "requests per run (default 5000)",
              spec.stimulus.requests),
        value("--warmup", "N",
              "warm-up requests before the stats reset\n"
              "(default 0 = none)",
              spec.warmupRequests),
        toggle("--warm-start",
               "checkpoint each config group once after\n"
               "warm-up and fan the measured phases out\n"
               "from the shared snapshot (needs --warmup)",
               opt.warmStart),
        value("--plugins", "LIST",
              "controller plugin chain applied to every\n"
              "point (csv of ecc|prac|refmgr|refmgr-pb;\n"
              "refmgr-pb needs --model event)",
              spec.plugins),
        value("--stride", "BYTES", "dram-pattern stride (default 256)",
              spec.stimulus.strideBytes),
        value("--banks", "N", "dram-pattern banks (default 4)",
              spec.stimulus.banks),
        value("--trace-in", "PATH",
              "stimulus file for --pattern trace; text or\n"
              "binary .dtrc, detected by content",
              spec.stimulus.tracePath),
        value("--trace-scale", "F",
              "stretch (>1) or compress (<1) replayed\n"
              "inter-request gaps (default 1.0)",
              spec.stimulus.traceScale),
        value("--channels", "N",
              "channels per run (default 1); N > 1 builds a\n"
              "sharded multi-channel system per point",
              spec.channels),
        threads("--sim-threads", "N",
                "worker threads inside each run (default 1;\n"
                "0 = one per core); composes with --jobs and\n"
                "never changes the rows",
                spec.simThreads),
        threads("--jobs", "N",
                "worker threads (default 1; 0 = one per core);\n"
                "output is identical for every value",
                opt.jobs),
        value("--out", "PATH", "result file (default stdout)", opt.out),
        value("--format", "F", "csv|jsonl (default csv)", opt.format),
        value("--metrics-listen", "SPEC",
              "serve live batch progress (Unix socket\n"
              "path or loopback TCP port; see dramctrl_cli)",
              opt.metricsListen),
    };
}

/** Cross-flag checks, and the --config names joining the preset axis. */
void
finishOptions(SweepCliOptions &opt)
{
    SweepSpec &spec = opt.spec;
    if (opt.format != "csv" && opt.format != "jsonl")
        fatal("unknown format '%s'", opt.format.c_str());
    if (opt.warmStart && spec.warmupRequests == 0)
        fatal("--warm-start needs --warmup N");
    // --config names extend an explicit --preset axis; with no
    // --preset they replace the default axis instead of silently
    // sweeping ddr3_1333 alongside the files.
    if (!opt.configPresets.empty()) {
        if (!opt.presetExplicit)
            spec.presets.clear();
        for (const std::string &p : opt.configPresets)
            spec.presets.push_back(p);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCliOptions opt;
    if (!cli::parseOptions(argc, argv, optionTable(opt),
                           "[options]   (list-valued options take csv)"))
        return 0;
    finishOptions(opt);

    std::string err;
    if (!checkSpec(opt.spec, &err))
        fatal("%s", err.c_str());

    std::vector<SweepPoint> grid = expandGrid(opt.spec);
    std::fprintf(stderr,
                 "sweep: %zu runs (%u worker%s, master seed %llu)\n",
                 grid.size(), opt.jobs, opt.jobs == 1 ? "" : "s",
                 static_cast<unsigned long long>(
                     opt.spec.masterSeed));

    // Live batch progress: a standalone registry (the per-job
    // simulators live inside worker threads and are torn down with
    // each job, so only driver-level progress is exposed) published
    // after every job outcome. Outcome callbacks run on the driver
    // thread, so rendering needs no extra locking.
    std::unique_ptr<obs::MetricsRegistry> metricsReg;
    std::unique_ptr<obs::MetricsServer> metricsServer;
    if (!opt.metricsListen.empty()) {
        metricsReg = std::make_unique<obs::MetricsRegistry>();
        metricsServer =
            std::make_unique<obs::MetricsServer>(opt.metricsListen);
        metricsServer->start();
        std::fprintf(stderr, "sweep: metrics endpoint %s\n",
                     metricsServer->endpoint().c_str());
        metricsReg->gauge("sweep.jobs_total", "runs in the grid")
            .set(static_cast<double>(grid.size()));
    }
    auto publishMetrics = [&]() {
        if (!metricsServer)
            return;
        std::ostringstream prom;
        std::ostringstream json;
        metricsReg->writeProm(prom);
        metricsReg->writeJson(json);
        metricsServer->publish(prom.str(), json.str());
    };
    publishMetrics();

    std::FILE *out = stdout;
    if (!opt.out.empty()) {
        out = std::fopen(opt.out.c_str(), "w");
        if (out == nullptr)
            fatal("cannot open '%s'", opt.out.c_str());
    }
    if (opt.format == "csv")
        std::fprintf(out, "%s\n", csvHeader().c_str());

    // Failures must throw out of the job (isolated by the runner)
    // instead of exiting the whole batch.
    setThrowOnError(true);

    const SweepSpec &spec = opt.spec;

    // Warm-start: phase 1 runs each config group's warm-up once and
    // keeps the post-reset snapshot; phase 2 completes every point
    // from its group's shared snapshot. Rows are identical to the
    // cold (inline warm-up) path at any --jobs width.
    std::vector<std::string> snapshots;
    if (opt.warmStart) {
        const unsigned seeds = std::max(1u, spec.numSeeds);
        const std::size_t groups = grid.size() / seeds;
        snapshots.resize(groups);
        std::fprintf(stderr,
                     "sweep: warm-start, %zu warm-up snapshot%s\n",
                     groups, groups == 1 ? "" : "s");
        BatchRunner warmup(opt.jobs);
        bool warmupFailed = false;
        warmup.run<std::string>(
            groups,
            [&grid, &spec, seeds](std::size_t g) {
                return captureWarmupSnapshot(grid[g * seeds], spec);
            },
            [&](const exec::JobOutcome<std::string> &out_come) {
                if (metricsReg) {
                    metricsReg
                        ->counter("sweep.warmups_done",
                                  "warm-up snapshots captured")
                        .inc();
                    publishMetrics();
                }
                if (!out_come.ok) {
                    std::fprintf(stderr,
                                 "sweep warm-up %zu FAILED: %s\n",
                                 out_come.index,
                                 out_come.error.c_str());
                    warmupFailed = true;
                    return;
                }
                snapshots[out_come.index] = out_come.value;
            });
        if (warmupFailed) {
            setThrowOnError(false);
            std::fprintf(stderr, "sweep: warm-up phase failed\n");
            return 2;
        }
    }

    std::vector<std::size_t> failedJobs;
    BatchRunner runner(opt.jobs);
    runner.run<SweepRow>(
        grid.size(),
        [&grid, &spec, &snapshots, &opt](std::size_t i) {
            if (opt.warmStart)
                return runMeasuredFromSnapshot(
                    grid[i], spec,
                    snapshots[configGroupOf(grid[i], spec)]);
            return runSweepPoint(grid[i], spec);
        },
        [&](const exec::JobOutcome<SweepRow> &out_come) {
            if (metricsReg) {
                metricsReg
                    ->counter("sweep.jobs_completed", "runs finished")
                    .inc();
                if (!out_come.ok)
                    metricsReg
                        ->counter("sweep.jobs_failed", "runs failed")
                        .inc();
                publishMetrics();
            }
            if (!out_come.ok) {
                std::fprintf(
                    stderr,
                    "sweep job %zu FAILED (seed %llu, master %llu): "
                    "%s\n",
                    out_come.index,
                    static_cast<unsigned long long>(
                        grid[out_come.index].seed),
                    static_cast<unsigned long long>(spec.masterSeed),
                    out_come.error.c_str());
                failedJobs.push_back(out_come.index);
                return;
            }
            std::fprintf(out, "%s\n",
                         (opt.format == "csv"
                              ? toCsv(out_come.value)
                              : toJsonl(out_come.value))
                             .c_str());
        });
    setThrowOnError(false);

    publishMetrics();
    if (metricsServer)
        metricsServer->stop();

    if (out != stdout)
        std::fclose(out);

    if (!failedJobs.empty()) {
        std::fprintf(stderr, "sweep: %zu of %zu runs failed\n",
                     failedJobs.size(), grid.size());
        return 2;
    }
    std::fprintf(stderr, "sweep: all %zu runs completed\n",
                 grid.size());
    return 0;
}
