/**
 * @file
 * Command-line runner: configure a controller and a traffic pattern
 * from flags, simulate, and print (or JSON-dump) the results. The
 * scriptable front end for quick what-if studies without writing C++.
 *
 * Examples:
 *   dramctrl_cli --preset ddr3_1600 --pattern random --requests 50000
 *   dramctrl_cli --preset lpddr3_1600 --pattern linear --read-pct 70 \
 *                --itt-ns 8 --page closed --mapping RoCoRaBaCh
 *   dramctrl_cli --preset wideio_200 --model cycle --json
 *   dramctrl_cli --preset ddr3_1333 --pattern dram --stride 512 \
 *                --banks 4 --audit
 *   dramctrl_cli --preset ddr3_1600 --runs 16 --jobs 4
 *
 * `--runs N` repeats the run N times with per-run seeds derived from
 * (--seed, run index) and prints one summary row per run; `--jobs M`
 * executes them on the batch engine. Rows are emitted in run order
 * and contain only simulated quantities, so output is identical for
 * every --jobs value. A run that dies reports its index and seed and
 * the tool exits non-zero.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "dram/cmd_log.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "dram/protocol_checker.hh"
#include "harness/cli_options.hh"
#include "harness/config_file.hh"
#include "harness/multichannel.hh"
#include "harness/stimulus.hh"
#include "harness/testbench.hh"
#include "obs/chrome_trace.hh"
#include "obs/event_profiler.hh"
#include "obs/metrics.hh"
#include "obs/metrics_server.hh"
#include "obs/stats_sampler.hh"
#include "obs/trace.hh"
#include "power/micron_power.hh"
#include "sim/logging.hh"

using namespace dramctrl;

namespace {

struct CliOptions
{
    std::string preset = "ddr3_1333";
    bool presetExplicit = false;
    std::string configFile;     // declarative config (overrides preset)
    std::string dumpConfig;     // dump resolved config to PATH ('-' =
                                // stdout) and exit
    // The traffic: --pattern, --read-pct, --itt-ns, --requests,
    // --seed, --stride, --banks, --trace-in and --trace-scale.
    harness::Stimulus stim;
    std::string model = "event";    // event | cycle
    std::optional<PagePolicy> page;
    std::optional<AddrMapping> mapping;
    std::optional<SchedPolicy> sched;
    bool tempExplicit = false;
    double temperatureC = 85.0;
    bool powerDown = false;
    std::string plugins;        // csv plugin chain, e.g. ecc,prac
    double eccBer = -1.0;       // < 0 = keep the spec default
    std::uint64_t eccSeed = 0;  // 0 = keep the spec default
    unsigned pracThreshold = 0; // 0 = keep the spec default
    bool json = false;
    bool audit = false;
    std::uint64_t runs = 1;  // > 1 = batch mode over derived seeds
    unsigned jobs = 1;

    // Trace replay and capture (see docs/TRACES.md).
    std::string traceCapture; // record the accepted request stream

    // Multi-channel mode (see docs/PERFORMANCE.md, sharding).
    unsigned channels = 0;   // 0 = unset (single channel, or preset's)
    unsigned simThreads = 1; // worker threads for the sharded engine

    // Observability (see docs/OBSERVABILITY.md).
    std::string traceChannels;  // csv of channel names, or "all"
    std::string traceFile;      // text sink target; empty = stderr
    std::string traceJsonl;     // JSONL sink target
    std::string chromeFile;     // Chrome trace-event JSON target
    double sampleIntervalNs = 0;
    std::string sampleFile = "samples.csv";
    std::string sampleFormat = "csv"; // csv | jsonl
    std::string sampleStats;          // csv of stat paths; empty = default
    bool profileEvents = false;
    std::string metricsListen;        // live endpoint listen spec
    double metricsIntervalNs = 1000.0;

    // Checkpointing (see docs/CHECKPOINT.md).
    double ckptAtNs = 0;        // > 0 = stop and save at this time
    std::string ckptOut = "ckpt.bin";
    std::string ckptRestore;    // restore before running
    std::string ckptJson;       // dump a checkpoint as JSON and exit
};

std::vector<cli::Option>
optionTable(CliOptions &opt)
{
    using cli::section;
    using cli::threads;
    using cli::toggle;
    using cli::value;
    return {
        value("--preset", "NAME",
              "ddr3_1333|ddr3_1600|lpddr3_1600|wideio_200|\n"
              "hmc_vault|ddr4_2400|lpddr4_3200|hbm2,\n"
              "or a system preset: hmc_stack_16|hmc_stack_64|\n"
              "hmc_stack_256|hbm2_stack_4|hbm2_stack_8\n"
              "(implies --channels)",
              opt.preset, &opt.presetExplicit),
        value("--config", "PATH",
              "load a declarative JSON config file (see\n"
              "docs/STANDARDS.md; mutually exclusive with\n"
              "--preset)",
              opt.configFile),
        value("--dump-config", "P",
              "write the resolved configuration as a\n"
              "config file to P ('-' = stdout) and exit",
              opt.dumpConfig),
        value("--pattern", "NAME",
              "linear|random|dram (DRAM-aware)|trace\n"
              "(replay --trace-in)",
              opt.stim.pattern),
        value("--model", "NAME", "event|cycle", opt.model),
        value("--page", "POLICY",
              "open|open_adaptive|closed|closed_adaptive", opt.page),
        value("--mapping", "NAME", "RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh",
              opt.mapping),
        value("--sched", "NAME", "fcfs|frfcfs", opt.sched),
        value("--read-pct", "N", "percentage of reads (default 100)",
              opt.stim.readPct),
        value("--itt-ns", "F", "inter-transaction time (default 6)",
              opt.stim.ittNs),
        value("--requests", "N", "requests to simulate (default 20000)",
              opt.stim.requests),
        value("--stride", "BYTES", "dram pattern stride (default 256)",
              opt.stim.strideBytes),
        value("--banks", "N", "dram pattern banks (default 4)",
              opt.stim.banks),
        value("--temperature", "C", "device temperature (default 85)",
              opt.temperatureC, &opt.tempExplicit),
        toggle("--power-down", "enable the power-down extension",
               opt.powerDown),
        value("--plugins", "LIST",
              "controller plugin chain (csv of ecc|prac|\n"
              "refmgr|refmgr-pb; see docs/PLUGINS.md)",
              opt.plugins),
        value("--ecc-ber", "F", "raw bit error rate for the ecc plugin",
              opt.eccBer),
        value("--ecc-seed", "N",
              "error-injection seed for the ecc plugin", opt.eccSeed),
        value("--prac-threshold", "N",
              "activation threshold for the prac plugin",
              opt.pracThreshold),
        toggle("--audit", "log commands and run the JEDEC checker",
               opt.audit),
        toggle("--json", "dump the full stats tree as JSON", opt.json),
        value("--seed", "N", "RNG seed (default 1)", opt.stim.seed),
        value("--runs", "N",
              "repeat with seeds derived from (seed, run\n"
              "index), one summary row per run",
              opt.runs),
        threads("--jobs", "M",
                "concurrent runs in batch mode (default 1;\n"
                "0 = one per core); output is identical for\n"
                "every value",
                opt.jobs),
        section("trace replay/capture (see docs/TRACES.md):"),
        value("--trace-in", "PATH",
              "stimulus file for --pattern trace; text or\n"
              "binary .dtrc, detected by content",
              opt.stim.tracePath),
        value("--trace-capture", "P",
              "record the accepted request stream to the\n"
              ".dtrc file P (trace_cli convert makes text;\n"
              "with --runs, P is a prefix: one\n"
              "'<P><run>.dtrc' file per run)",
              opt.traceCapture),
        value("--trace-scale", "F",
              "stretch (>1) or compress (<1) replayed\n"
              "inter-request gaps (default 1.0)",
              opt.stim.traceScale),
        section("multi-channel:"),
        value("--channels", "N",
              "simulate N interleaved channels behind the\n"
              "sharded crossbar, one generator per channel\n"
              "(--requests is the total across channels)",
              opt.channels),
        threads("--sim-threads", "N",
                "worker threads for one multi-channel run\n"
                "(default 1; 0 = one per core); stats are\n"
                "byte-identical for every value",
                opt.simThreads),
        section("observability:"),
        value("--trace", "LIST", "enable trace channels (csv or 'all')",
              opt.traceChannels),
        value("--trace-file", "PATH",
              "tick-stamped text trace to PATH (default stderr)",
              opt.traceFile),
        value("--trace-jsonl", "PATH", "JSONL trace to PATH",
              opt.traceJsonl),
        value("--trace-chrome", "PATH",
              "Chrome trace-event JSON (packet spans\n"
              "+ DRAM commands; open in Perfetto)",
              opt.chromeFile),
        value("--sample-interval", "NS",
              "sample stats every NS ns of sim time",
              opt.sampleIntervalNs),
        value("--sample-file", "PATH",
              "time series target (default samples.csv)",
              opt.sampleFile),
        value("--sample-format", "F", "csv|jsonl (default csv)",
              opt.sampleFormat),
        value("--sample-stats", "LIST",
              "csv of stat paths (default controller set)",
              opt.sampleStats),
        toggle("--profile-events", "count and time events per type",
               opt.profileEvents),
        value("--metrics-listen", "SPEC",
              "serve live metrics while running: a\n"
              "Unix socket path (contains '/') or a\n"
              "loopback TCP port (0 = ephemeral);\n"
              "Prometheus text by default, /json for JSON",
              opt.metricsListen),
        value("--metrics-interval", "NS",
              "publish cadence in ns (default 1000)",
              opt.metricsIntervalNs),
        section("checkpointing:"),
        value("--ckpt-at", "NS",
              "simulate to NS ns, save a checkpoint, stop",
              opt.ckptAtNs),
        value("--ckpt-out", "PATH", "checkpoint target (default ckpt.bin)",
              opt.ckptOut),
        value("--ckpt-restore", "P",
              "restore checkpoint P (same config flags!)\n"
              "before simulating to completion",
              opt.ckptRestore),
        value("--ckpt-json", "PATH", "print checkpoint PATH as JSON and exit",
              opt.ckptJson),
    };
}

/**
 * Restore --ckpt-restore into @p sim and print @p header (text mode).
 * With --ckpt-at, simulate to that time and save the checkpoint.
 *
 * @return true when the run stops at the checkpoint.
 */
bool
stoppedAtCheckpoint(const CliOptions &opt, Simulator &sim,
                    const std::string &header)
{
    if (!opt.ckptRestore.empty())
        ckpt::restoreFile(sim, opt.ckptRestore);
    if (!opt.json)
        std::printf("%s\n", header.c_str());
    if (opt.ckptAtNs <= 0)
        return false;
    sim.run(fromNs(opt.ckptAtNs));
    ckpt::saveFile(sim, opt.ckptOut);
    if (!opt.json)
        std::printf("checkpoint:        %s (at %.2f us)\n",
                    opt.ckptOut.c_str(), toSeconds(sim.curTick()) * 1e6);
    return true;
}

/**
 * --json: the stats tree in an envelope that carries the seed, so
 * rerunning with --seed <seed> reproduces the run bit for bit.
 */
void
printJsonStats(const CliOptions &opt, Simulator &sim)
{
    std::cout << "{\"seed\": " << opt.stim.seed << ", \"stats\": ";
    sim.dumpStatsJson(std::cout);
    std::cout << "}\n";
}

/**
 * --runs N: the same configuration, N derived seeds, on the batch
 * engine. Reuses the sweep-point runner so the row contents (and
 * therefore the output bytes) match a single-point sweep_cli grid.
 */
int
runBatch(const CliOptions &opt, const DRAMCtrlConfig &cfg,
         harness::CtrlModel model)
{
    if (opt.sched || opt.audit || opt.powerDown ||
        !opt.plugins.empty() ||
        opt.temperatureC != 85.0 || !opt.traceChannels.empty() ||
        !opt.traceFile.empty() || !opt.traceJsonl.empty() ||
        !opt.chromeFile.empty() || opt.sampleIntervalNs > 0 ||
        opt.profileEvents || !opt.metricsListen.empty())
        fatal("--runs batch mode supports the preset/pattern/page/"
              "mapping/read-pct/itt-ns/model/requests/stride/banks/"
              "seed axes only; use a single run (or sweep_cli) for "
              "the rest");

    exec::SweepSpec spec;
    spec.presets = {opt.preset};
    spec.patterns = {opt.stim.pattern};
    spec.pages = {cfg.pagePolicy};
    spec.mappings = {cfg.addrMapping};
    spec.readPcts = {opt.stim.readPct};
    spec.ittNs = {opt.stim.ittNs};
    spec.models = {model};
    spec.numSeeds = static_cast<unsigned>(opt.runs);
    spec.masterSeed = opt.stim.seed;
    spec.stimulus = opt.stim;
    spec.traceCapturePrefix = opt.traceCapture;

    std::string err;
    if (!exec::checkSpec(spec, &err))
        fatal("%s", err.c_str());
    std::vector<exec::SweepPoint> grid = exec::expandGrid(spec);

    // A run that fatal()s fails its own job, not the whole batch.
    setThrowOnError(true);
    std::size_t failed = 0;
    exec::BatchRunner runner(opt.jobs);
    runner.run<exec::SweepRow>(
        grid.size(),
        [&](std::size_t i) {
            return exec::runSweepPoint(grid[i], spec);
        },
        [&](const exec::JobOutcome<exec::SweepRow> &out) {
            if (!out.ok) {
                ++failed;
                std::printf("run %zu FAILED (seed %llu, master "
                            "%llu): %s\n",
                            out.index,
                            static_cast<unsigned long long>(
                                grid[out.index].seed),
                            static_cast<unsigned long long>(opt.stim.seed),
                            out.error.c_str());
                return;
            }
            const exec::SweepRow &r = out.value;
            if (opt.json) {
                std::printf("%s\n", exec::toJsonl(r).c_str());
            } else {
                std::printf("run %zu (seed %llu): %.2f us, %.2f "
                            "GB/s, %.1f ns read latency, bus "
                            "%.1f%%\n",
                            out.index,
                            static_cast<unsigned long long>(
                                r.point.seed),
                            r.simulatedUs, r.bandwidthGBs,
                            r.avgReadLatencyNs, 100 * r.busUtil);
            }
        });
    setThrowOnError(false);

    if (failed) {
        std::fprintf(stderr,
                     "batch: %zu of %zu runs failed (master seed "
                     "%llu)\n",
                     failed, grid.size(),
                     static_cast<unsigned long long>(opt.stim.seed));
        return 2;
    }
    return 0;
}

/**
 * --channels N: one sharded multi-channel system, one generator per
 * channel, executed by --sim-threads worker threads. Stats and exit
 * status are byte-identical for every thread count (see sim/shard.hh),
 * so --sim-threads is a pure wall-clock knob.
 */
int
runMulti(const CliOptions &opt, const DRAMCtrlConfig &cfg,
         harness::CtrlModel model, unsigned channels)
{
    if (opt.runs > 1 || !opt.traceChannels.empty() ||
        !opt.traceFile.empty() || !opt.traceJsonl.empty() ||
        !opt.chromeFile.empty() || opt.sampleIntervalNs > 0 ||
        opt.profileEvents || !opt.metricsListen.empty())
        fatal("--channels supports the preset/pattern/page/mapping/"
              "sched/read-pct/itt-ns/model/requests/seed/audit/json/"
              "checkpoint axes only; mid-run observers read simulator "
              "state across shards and stay single-channel");
    harness::MultiChannelConfig mcfg;
    mcfg.channels = channels;
    mcfg.ctrl = cfg;
    mcfg.model = model;
    mcfg.simThreads = opt.simThreads;
    harness::MultiChannelSystem mc(mcfg);
    if (!opt.traceCapture.empty())
        mc.enableCapture(opt.traceCapture);
    harness::Requestors reqs =
        harness::attachStimulus(mc, opt.stim);

    std::vector<CmdLogger> *loggers = nullptr;
    if (opt.audit)
        loggers = &mc.attachCmdLoggers();

    if (stoppedAtCheckpoint(
            opt, mc.sim(),
            formatString("%s\nchannels:          %u (sim-threads %u)",
                         cfg.describe().c_str(), channels,
                         opt.simThreads)))
        return 0;

    mc.runToCompletion();
    mc.finishCapture();

    if (opt.json) {
        printJsonStats(opt, mc.sim());
    } else {
        std::printf("simulated time:    %.2f us\n",
                    toSeconds(mc.sim().curTick()) * 1e6);
        std::printf("avg read latency:  %.1f ns\n",
                    reqs.avgReadLatencyNs());
        std::printf("avg bus util:      %.1f%%\n",
                    100 * mc.avgBusUtil());
        std::printf("total bandwidth:   %.2f GB/s over %u channels\n",
                    mc.totalBandwidthGBs(), channels);
    }

    if (opt.audit) {
        std::size_t cmds = 0, violations = 0;
        for (unsigned ch = 0; ch < channels; ++ch) {
            // Fresh checker per channel: each channel is its own
            // command bus with its own timing state.
            ProtocolChecker checker(cfg.org, cfg.timing);
            plugin::armChecker(checker, cfg);
            auto v = checker.check((*loggers)[ch].log());
            cmds += (*loggers)[ch].size();
            for (unsigned i = 0; i < 5 && i < v.size(); ++i)
                std::printf("  ch%u %s\n", ch,
                            v[i].toString().c_str());
            violations += v.size();
        }
        std::printf("protocol audit:    %zu commands, %zu violations "
                    "over %u channels\n",
                    cmds, violations, channels);
        return violations == 0 ? 0 : 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt;
    if (!cli::parseOptions(argc, argv, optionTable(opt)))
        return 0;

    if (!opt.ckptJson.empty()) {
        ckpt::dumpJsonFile(opt.ckptJson, std::cout);
        return 0;
    }

    // A system preset names a whole multi-channel assembly; an
    // explicit --channels can still override its channel count.
    unsigned channels = opt.channels;
    DRAMCtrlConfig cfg;
    if (!opt.configFile.empty()) {
        if (opt.presetExplicit)
            fatal("--config and --preset are mutually exclusive (a "
                  "config file may name its base preset itself)");
        std::string base;
        cfg = harness::loadConfigFile(opt.configFile, &base);
        // Register the loaded config so every preset-name lookup on
        // this run (batch rows, labels, power) resolves to exactly
        // the file's configuration.
        std::string pname =
            base.empty() ? "config:" + opt.configFile : base;
        presets::registerPreset(pname, [cfg] { return cfg; });
        opt.preset = pname;
    } else if (harness::isSystemPreset(opt.preset)) {
        harness::MultiChannelConfig sys =
            harness::systemPresetByName(opt.preset);
        cfg = sys.ctrl;
        if (channels == 0)
            channels = sys.channels;
    } else {
        cfg = presets::byName(opt.preset);
    }
    if (opt.page)
        cfg.pagePolicy = *opt.page;
    if (opt.mapping)
        cfg.addrMapping = *opt.mapping;
    if (opt.sched)
        cfg.schedPolicy = *opt.sched;
    if (opt.tempExplicit || opt.configFile.empty())
        cfg.temperatureC = opt.temperatureC;
    if (opt.powerDown || opt.configFile.empty())
        cfg.enablePowerDown = opt.powerDown;
    if (!opt.plugins.empty()) {
        std::string err;
        if (!plugin::parsePluginList(opt.plugins, cfg, err))
            fatal("%s", err.c_str());
        for (PluginSpec &ps : cfg.plugins) {
            if (ps.kind == "ecc") {
                if (opt.eccBer >= 0)
                    ps.eccBer = opt.eccBer;
                if (opt.eccSeed)
                    ps.eccSeed = opt.eccSeed;
            } else if (ps.kind == "prac" && opt.pracThreshold) {
                ps.pracThreshold = opt.pracThreshold;
            }
        }
    }
    cfg.check();

    if (!opt.dumpConfig.empty()) {
        // Emit the fully-resolved configuration (preset + config file
        // + CLI overrides) as a config file. The preset name is only
        // recorded when re-parsing can resolve it.
        std::string pname =
            presets::hasPreset(opt.preset) ? opt.preset : "";
        if (opt.dumpConfig == "-") {
            std::fputs(harness::dumpConfig(cfg, pname).c_str(),
                       stdout);
        } else if (!harness::writeConfigFile(opt.dumpConfig, cfg,
                                             pname)) {
            fatal("cannot write config file '%s'",
                  opt.dumpConfig.c_str());
        }
        return 0;
    }

    auto model = opt.model == "cycle" ? harness::CtrlModel::Cycle
                                      : harness::CtrlModel::Event;
    if (opt.model != "cycle" && opt.model != "event")
        fatal("unknown model '%s'", opt.model.c_str());

    std::string why =
        harness::checkStimulus(opt.stim, std::max(1u, channels));
    if (!why.empty())
        fatal("--pattern: %s", why.c_str());

    if (channels > 1)
        return runMulti(opt, cfg, model, channels);
    if (opt.simThreads > 1)
        fatal("--sim-threads shards a multi-channel run; it needs "
              "--channels N (or a system preset)");

    if (opt.runs > 1)
        return runBatch(opt, cfg, model);

    // Trace channels and sinks. With channels enabled but no sink
    // requested, messages fall back to stderr.
    if (!opt.traceChannels.empty() &&
        !obs::enableChannelsByName(opt.traceChannels))
        fatal("unknown trace channel in '%s' (channels: DRAMCtrl, "
              "CycleCtrl, XBar, Port, PacketQueue, EventQ, Refresh, "
              "Power, Sampler, or 'all')",
              opt.traceChannels.c_str());
    std::unique_ptr<obs::FileTextSink> traceTextSink;
    if (!opt.traceFile.empty()) {
        traceTextSink =
            std::make_unique<obs::FileTextSink>(opt.traceFile);
        if (!traceTextSink->ok())
            fatal("cannot open trace file '%s'", opt.traceFile.c_str());
        obs::addSink(traceTextSink.get());
    }
    std::unique_ptr<obs::FileJsonlSink> traceJsonlSink;
    if (!opt.traceJsonl.empty()) {
        traceJsonlSink =
            std::make_unique<obs::FileJsonlSink>(opt.traceJsonl);
        if (!traceJsonlSink->ok())
            fatal("cannot open trace file '%s'",
                  opt.traceJsonl.c_str());
        obs::addSink(traceJsonlSink.get());
    }

    obs::ChromeTraceWriter chrome;
    if (!opt.chromeFile.empty())
        obs::setChromeTracer(&chrome);

    harness::SingleChannelSystem tb(cfg, model);

    CmdLogger logger;
    if (opt.audit || !opt.chromeFile.empty())
        tb.ctrl().setCmdLogger(&logger);

    obs::EventProfiler profiler;
    if (opt.profileEvents)
        tb.sim().eventq().setProfiler(&profiler);

    std::ofstream sampleOut;
    std::unique_ptr<obs::StatsSampler> sampler;
    if (opt.sampleIntervalNs > 0) {
        sampleOut.open(opt.sampleFile);
        if (!sampleOut.is_open())
            fatal("cannot open sample file '%s'",
                  opt.sampleFile.c_str());
        if (opt.sampleFormat != "csv" && opt.sampleFormat != "jsonl")
            fatal("unknown sample format '%s'",
                  opt.sampleFormat.c_str());
        auto fmt = opt.sampleFormat == "jsonl"
                       ? obs::StatsSampler::Format::Jsonl
                       : obs::StatsSampler::Format::Csv;
        sampler = std::make_unique<obs::StatsSampler>(
            tb.sim(), "sampler", fromNs(opt.sampleIntervalNs),
            sampleOut, fmt);
        auto addOne = [&](const std::string &path) {
            if (!sampler->addStat(path))
                warn("sample stat '%s' does not resolve, skipping",
                     path.c_str());
        };
        if (!opt.sampleStats.empty()) {
            std::vector<std::string> paths;
            cli::parseValue("--sample-stats", opt.sampleStats, paths);
            for (const std::string &path : paths)
                addOne(path);
        } else {
            for (const char *s :
                 {"readReqs", "writeReqs", "bytesRead", "bytesWritten",
                  "busUtil", "rowHitRate", "avgRdQLen", "avgWrQLen"})
                addOne(std::string("mem_ctrl.") + s);
        }
        if (sampler->numStats() == 0)
            fatal("no sample stats resolved");
    }

    // Live introspection endpoint: a poll-based server fed by a
    // periodic publisher. The publisher is a SimObject, so it must be
    // constructed before any checkpoint restore (the object lists
    // have to match — same rule as the sampler, hence the "same
    // config flags" note under --ckpt-restore).
    std::unique_ptr<obs::MetricsServer> metricsServer;
    std::unique_ptr<obs::MetricsPublisher> metricsPublisher;
    if (!opt.metricsListen.empty()) {
        metricsServer =
            std::make_unique<obs::MetricsServer>(opt.metricsListen);
        metricsServer->start();
        MemCtrlBase &ctrl = tb.ctrl();
        metricsPublisher = std::make_unique<obs::MetricsPublisher>(
            tb.sim(), "metrics", tb.sim().metrics(), *metricsServer,
            fromNs(opt.metricsIntervalNs),
            [&ctrl](obs::MetricsRegistry &reg) {
                reg.gauge("ctrl.queued_requests",
                          "requests buffered in the controller")
                    .set(static_cast<double>(ctrl.queuedRequests()));
            });
        if (!opt.json)
            std::printf("metrics endpoint:  %s\n",
                        metricsServer->endpoint().c_str());
    }

    if (!opt.traceCapture.empty())
        tb.enableCapture(opt.traceCapture);
    harness::Requestors reqs =
        harness::attachStimulus(tb, opt.stim);

    if (stoppedAtCheckpoint(opt, tb.sim(), cfg.describe()))
        return 0;

    tb.runToCompletion([&] { return reqs.done(); });
    tb.finishCapture();
    if (!opt.traceCapture.empty() && !opt.json)
        std::printf("trace capture:     %s\n", opt.traceCapture.c_str());

    if (!opt.chromeFile.empty()) {
        chrome.importCmdLog(logger.log(), "mem_ctrl");
        if (!chrome.writeFile(opt.chromeFile))
            fatal("cannot write chrome trace '%s'",
                  opt.chromeFile.c_str());
        obs::setChromeTracer(nullptr);
        if (!opt.json)
            std::printf("chrome trace:      %s (%zu events)\n",
                        opt.chromeFile.c_str(), chrome.numEvents());
    }

    if (sampler && !opt.json)
        std::printf("stats samples:     %s (%llu samples of %zu "
                    "stats)\n",
                    opt.sampleFile.c_str(),
                    static_cast<unsigned long long>(
                        sampler->samplesTaken()),
                    sampler->numStats());

    if (opt.profileEvents) {
        tb.sim().eventq().setProfiler(nullptr);
        profiler.report(std::cout);
    }

    if (opt.json) {
        printJsonStats(opt, tb.sim());
    } else {
        std::printf("preset %s, %s model, %s pattern, %llu requests, "
                    "seed %llu\n",
                    opt.preset.c_str(), harness::toString(model),
                    harness::toString(opt.stim.pattern),
                    static_cast<unsigned long long>(opt.stim.requests),
                    static_cast<unsigned long long>(opt.stim.seed));
        std::printf("simulated time:    %.2f us\n",
                    toSeconds(tb.sim().curTick()) * 1e6);
        std::printf("avg read latency:  %.1f ns\n",
                    reqs.avgReadLatencyNs());
        std::printf("bus utilisation:   %.1f%%\n",
                    100 * tb.ctrl().busUtilisation());
        std::printf("bandwidth:         %.2f / %.2f GB/s\n",
                    tb.ctrl().achievedBandwidthGBs(),
                    tb.ctrl().peakBandwidthGBs());
        if (power::hasParamsFor(opt.preset)) {
            auto p = power::computePower(tb.ctrl().powerInputs(), cfg,
                                         power::paramsFor(opt.preset));
            std::printf("DRAM power:        %.2f W\n", p.total());
        }
    }

    if (opt.audit) {
        ProtocolChecker checker(cfg.org, cfg.timing);
        plugin::armChecker(checker, cfg);
        auto violations = checker.check(logger.log());
        std::printf("protocol audit:    %zu commands, %zu violations\n",
                    logger.size(), violations.size());
        for (unsigned i = 0; i < 5 && i < violations.size(); ++i)
            std::printf("  %s\n", violations[i].toString().c_str());
        return violations.empty() ? 0 : 2;
    }
    return 0;
}
