#include "exec/sweep.hh"

#include <algorithm>
#include <memory>

#include "ckpt/ckpt.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace exec {

std::vector<SweepPoint>
expandGrid(const SweepSpec &spec)
{
    std::vector<SweepPoint> grid;
    unsigned seeds = std::max(1u, spec.numSeeds);
    for (const std::string &preset : spec.presets)
        for (harness::Pattern pattern : spec.patterns)
            for (PagePolicy page : spec.pages)
                for (AddrMapping mapping : spec.mappings)
                    for (unsigned read_pct : spec.readPcts)
                        for (double itt_ns : spec.ittNs)
                            for (harness::CtrlModel model : spec.models)
                                for (unsigned s = 0; s < seeds; ++s) {
                                    SweepPoint pt;
                                    pt.index = grid.size();
                                    pt.preset = preset;
                                    pt.pattern = pattern;
                                    pt.page = page;
                                    pt.mapping = mapping;
                                    pt.readPct = read_pct;
                                    pt.ittNs = itt_ns;
                                    pt.model = model;
                                    pt.seedIndex = s;
                                    pt.seed = deriveSeed(
                                        spec.masterSeed, pt.index);
                                    grid.push_back(std::move(pt));
                                }
    return grid;
}

namespace {

/** The first problem with @p spec, or an empty string. */
std::string
specProblem(const SweepSpec &spec)
{
    auto known = presets::names();
    for (const std::string &p : spec.presets)
        if (std::find(known.begin(), known.end(), p) == known.end())
            return "unknown preset '" + p + "'";
    for (harness::Pattern p : spec.patterns) {
        harness::Stimulus stim = spec.stimulus;
        stim.pattern = p;
        std::string why = harness::checkStimulus(stim, spec.channels);
        if (!why.empty())
            return why;
        if (p == harness::Pattern::Trace && spec.warmupRequests > 0)
            return "the trace pattern does not support warm-up";
    }
    if (spec.stimulus.traceScale <= 0)
        return "trace time scale must be positive";
    for (unsigned pct : spec.readPcts)
        if (pct > 100)
            return "read-pct above 100";
    if (!spec.plugins.empty()) {
        DRAMCtrlConfig probe;
        std::string perr;
        if (!plugin::parsePluginList(spec.plugins, probe, perr))
            return perr;
        if (probe.hasPlugin("refmgr-pb"))
            for (harness::CtrlModel m : spec.models)
                if (m == harness::CtrlModel::Cycle)
                    return "refmgr-pb is event-model-only; drop the "
                           "cycle model axis";
    }
    if (spec.presets.empty() || spec.patterns.empty() ||
        spec.pages.empty() || spec.mappings.empty() ||
        spec.readPcts.empty() || spec.ittNs.empty() ||
        spec.models.empty())
        return "empty sweep axis";
    if (spec.channels == 0)
        return "channels must be at least 1";
    if (spec.channels > 1 && spec.warmupRequests > 0)
        return "multi-channel sweeps do not support warm-up";
    return "";
}

} // namespace

bool
checkSpec(const SweepSpec &spec, std::string *err)
{
    std::string why = specProblem(spec);
    if (!why.empty() && err != nullptr)
        *err = why;
    return why.empty();
}

namespace {

/** The controller configuration of @p point. */
DRAMCtrlConfig
configOf(const SweepPoint &point, const SweepSpec &spec)
{
    DRAMCtrlConfig cfg = presets::byName(point.preset);
    cfg.pagePolicy = point.page;
    cfg.addrMapping = point.mapping;
    cfg.writeLowThreshold = 0.0; // drain fully so every run terminates
    if (!spec.plugins.empty()) {
        std::string perr;
        if (!plugin::parsePluginList(spec.plugins, cfg, perr))
            fatal("%s", perr.c_str());
    }
    cfg.check();
    return cfg;
}

/** The traffic of @p point, with its measured budget and seed. */
harness::Stimulus
stimulusOf(const SweepPoint &point, const SweepSpec &spec)
{
    harness::Stimulus s = spec.stimulus;
    s.pattern = point.pattern;
    s.readPct = point.readPct;
    s.ittNs = point.ittNs;
    s.seed = point.seed;
    return s;
}

/** Per-point capture file: "<prefix><index>.dtrc". */
std::string
capturePathOf(const SweepSpec &spec, const SweepPoint &point)
{
    return spec.traceCapturePrefix + std::to_string(point.index) +
           ".dtrc";
}

/**
 * The row of a finished run: bandwidth summed and bus utilisation and
 * row-hit rate averaged (unweighted: the generators drive the
 * channels symmetrically) over the controllers @p ctrls.
 */
SweepRow
collectRow(const SweepPoint &point, Simulator &sim,
           const std::vector<MemCtrlBase *> &ctrls,
           const harness::Requestors &reqs)
{
    SweepRow row;
    row.point = point;
    row.simulatedUs = toSeconds(sim.curTick()) * 1e6;
    double hit = 0;
    for (MemCtrlBase *ctrl : ctrls) {
        row.bandwidthGBs += ctrl->achievedBandwidthGBs();
        row.busUtil += ctrl->busUtilisation();
        if (point.model == harness::CtrlModel::Event)
            hit += static_cast<DRAMCtrl *>(ctrl)
                       ->ctrlStats()
                       .rowHitRate.value();
    }
    row.busUtil /= static_cast<double>(ctrls.size());
    if (point.model == harness::CtrlModel::Event)
        row.rowHitRate = hit / static_cast<double>(ctrls.size());
    row.avgReadLatencyNs = reqs.avgReadLatencyNs();
    row.responses = reqs.responses();
    return row;
}

/** A built-but-not-yet-run single-channel sweep point. */
struct BuiltPoint
{
    std::unique_ptr<harness::SingleChannelSystem> tb;
    harness::Requestors reqs;

    void
    run()
    {
        tb->runToCompletion([this] { return reqs.done(); });
    }

    SweepRow
    finish(const SweepPoint &point)
    {
        tb->finishCapture();
        return collectRow(point, tb->sim(), {&tb->ctrl()}, reqs);
    }
};

/**
 * Assemble the single-channel system for @p point with an explicit
 * request budget and seed (so the warm-up and measured phases can use
 * the same assembly).
 */
BuiltPoint
buildPoint(const SweepPoint &point, const SweepSpec &spec,
           std::uint64_t num_requests, std::uint64_t seed)
{
    BuiltPoint built;
    built.tb = std::make_unique<harness::SingleChannelSystem>(
        configOf(point, spec), point.model);
    if (!spec.traceCapturePrefix.empty())
        built.tb->enableCapture(capturePathOf(spec, point));
    harness::Stimulus stim = stimulusOf(point, spec);
    stim.requests = num_requests;
    stim.seed = seed;
    built.reqs = harness::attachStimulus(*built.tb, stim);
    return built;
}

/**
 * One sharded multi-channel point: spec.channels controllers behind
 * the crossbar, spec.simThreads workers. The row depends only on
 * (point, spec) — never on the thread count.
 */
SweepRow
runMultiPoint(const SweepPoint &point, const SweepSpec &spec)
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = spec.channels;
    mcfg.ctrl = configOf(point, spec);
    mcfg.model = point.model;
    mcfg.simThreads = spec.simThreads;
    harness::MultiChannelSystem mc(mcfg);
    if (!spec.traceCapturePrefix.empty())
        mc.enableCapture(capturePathOf(spec, point));
    harness::Requestors reqs =
        harness::attachStimulus(mc, stimulusOf(point, spec));

    mc.runToCompletion();
    mc.finishCapture();

    std::vector<MemCtrlBase *> ctrls;
    for (unsigned ch = 0; ch < mc.numChannels(); ++ch)
        ctrls.push_back(&mc.ctrl(ch));
    return collectRow(point, mc.sim(), ctrls, reqs);
}

/**
 * The warm-up stimulus stream: one seed per config group, disjoint
 * from every measured seed (which derive from masterSeed and the point
 * index directly).
 */
std::uint64_t
warmupSeedOf(const SweepSpec &spec, std::size_t group)
{
    return deriveSeed(spec.masterSeed ^ 0x5741524d55500aULL, group);
}

} // namespace

std::size_t
configGroupOf(const SweepPoint &point, const SweepSpec &spec)
{
    return point.index / std::max(1u, spec.numSeeds);
}

SweepRow
runSweepPoint(const SweepPoint &point, const SweepSpec &spec)
{
    if (spec.channels > 1)
        return runMultiPoint(point, spec);

    if (spec.warmupRequests == 0 ||
        point.pattern == harness::Pattern::Trace) {
        BuiltPoint built =
            buildPoint(point, spec, spec.stimulus.requests, point.seed);
        built.run();
        return built.finish(point);
    }

    // Cold warm-up: run the group's warm-up stream inline, reset the
    // statistics, then extend the run with the measured requests.
    BuiltPoint built =
        buildPoint(point, spec, spec.warmupRequests,
                   warmupSeedOf(spec, configGroupOf(point, spec)));
    built.run();
    built.tb->sim().resetStats();
    built.reqs.gens[0]->extendRun(spec.stimulus.requests, point.seed);
    built.run();
    return built.finish(point);
}

std::string
captureWarmupSnapshot(const SweepPoint &point, const SweepSpec &spec)
{
    DC_ASSERT(spec.warmupRequests > 0,
              "warm-start snapshot requested without warmupRequests");
    BuiltPoint built =
        buildPoint(point, spec, spec.warmupRequests,
                   warmupSeedOf(spec, configGroupOf(point, spec)));
    built.run();
    built.tb->sim().resetStats();
    return ckpt::saveToString(built.tb->sim());
}

SweepRow
runMeasuredFromSnapshot(const SweepPoint &point, const SweepSpec &spec,
                        const std::string &snapshot)
{
    BuiltPoint built =
        buildPoint(point, spec, spec.warmupRequests,
                   warmupSeedOf(spec, configGroupOf(point, spec)));
    ckpt::restoreFromString(built.tb->sim(), snapshot);
    built.reqs.gens[0]->extendRun(spec.stimulus.requests, point.seed);
    built.run();
    return built.finish(point);
}

std::string
csvHeader()
{
    return "index,preset,pattern,page,mapping,read_pct,itt_ns,model,"
           "seed_index,seed,simulated_us,bandwidth_gbs,"
           "avg_read_latency_ns,bus_util,row_hit_rate,responses";
}

std::string
toCsv(const SweepRow &row)
{
    const SweepPoint &pt = row.point;
    return formatString(
        "%zu,%s,%s,%s,%s,%u,%.3f,%s,%u,%llu,%.3f,%.4f,%.2f,%.4f,"
        "%.4f,%llu",
        pt.index, pt.preset.c_str(), harness::toString(pt.pattern),
        toString(pt.page), toString(pt.mapping), pt.readPct, pt.ittNs,
        harness::toString(pt.model), pt.seedIndex,
        static_cast<unsigned long long>(pt.seed), row.simulatedUs,
        row.bandwidthGBs, row.avgReadLatencyNs, row.busUtil,
        row.rowHitRate,
        static_cast<unsigned long long>(row.responses));
}

std::string
toJsonl(const SweepRow &row)
{
    const SweepPoint &pt = row.point;
    return formatString(
        "{\"index\": %zu, \"preset\": \"%s\", \"pattern\": \"%s\", "
        "\"page\": \"%s\", \"mapping\": \"%s\", \"read_pct\": %u, "
        "\"itt_ns\": %.3f, \"model\": \"%s\", \"seed_index\": %u, "
        "\"seed\": %llu, \"simulated_us\": %.3f, "
        "\"bandwidth_gbs\": %.4f, \"avg_read_latency_ns\": %.2f, "
        "\"bus_util\": %.4f, \"row_hit_rate\": %.4f, "
        "\"responses\": %llu}",
        pt.index, pt.preset.c_str(), harness::toString(pt.pattern),
        toString(pt.page), toString(pt.mapping), pt.readPct, pt.ittNs,
        harness::toString(pt.model), pt.seedIndex,
        static_cast<unsigned long long>(pt.seed), row.simulatedUs,
        row.bandwidthGBs, row.avgReadLatencyNs, row.busUtil,
        row.rowHitRate,
        static_cast<unsigned long long>(row.responses));
}

} // namespace exec
} // namespace dramctrl
