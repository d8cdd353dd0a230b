#include "validate/shard_diff.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "dram/cmd_log.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

ShardCase
sampleShardCase(Random &rng)
{
    ShardCase sc;
    const unsigned channel_choices[] = {2, 2, 4, 4, 8};
    sc.channels = channel_choices[rng.uniform(0, 4)];
    // 2..8 workers; the engine clamps to the channel count, so a draw
    // above it exercises the clamping path too.
    sc.simThreads = static_cast<unsigned>(rng.uniform(2, 8));
    sc.pattern = rng.uniform(0, 1) == 0 ? harness::Pattern::Linear
                                        : harness::Pattern::Random;
    const unsigned pct_choices[] = {0, 50, 100};
    sc.readPct = pct_choices[rng.uniform(0, 2)];
    sc.ittNs = 2.0 + static_cast<double>(rng.uniform(0, 6));
    sc.requestsPerGen = rng.uniform(30, 120);
    sc.seed = rng.next();
    return sc;
}

std::string
summarize(const ShardCase &sc)
{
    return formatString(
        "%u channels, %u threads, %s %u%% reads, itt %.0f ns, "
        "%llu reqs/gen",
        sc.channels, sc.simThreads, harness::toString(sc.pattern),
        sc.readPct,
        sc.ittNs,
        static_cast<unsigned long long>(sc.requestsPerGen));
}

std::string
ShardDiffResult::describe() const
{
    std::string out;
    for (const std::string &f : failures)
        out += "  shard-diff: " + f + "\n";
    if (!out.empty())
        out.pop_back();
    return out;
}

namespace {

/** One full run at @p threads; stats JSON, merged cmd log, end tick. */
struct ShardRun
{
    std::string statsJson;
    std::string cmdLog;
    Tick finalTick = 0;
    bool drained = false;
};

ShardRun
runOnce(const DRAMCtrlConfig &cfg, const ShardCase &sc,
        unsigned threads)
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = sc.channels;
    mcfg.ctrl = cfg;
    mcfg.ctrl.writeLowThreshold = 0.0; // drain fully: terminate
    mcfg.ctrl.check();
    mcfg.simThreads = threads;
    harness::MultiChannelSystem mc(mcfg);

    harness::Stimulus stim;
    stim.pattern = sc.pattern;
    stim.readPct = sc.readPct;
    stim.ittNs = sc.ittNs;
    stim.requests = sc.requestsPerGen * sc.channels;
    stim.seed = sc.seed;
    stim.windowBytes = 1ULL << 24;
    harness::attachStimulus(mc, stim);
    std::vector<CmdLogger> &loggers = mc.attachCmdLoggers();

    ShardRun run;
    run.finalTick = mc.runToCompletion();
    run.drained = mc.drained();

    std::ostringstream os;
    mc.sim().dumpStatsJson(os);
    run.statsJson = os.str();

    // Channel-major concatenation, stably re-sorted by tick: a total
    // command order that is independent of how the run was threaded.
    struct Tagged
    {
        unsigned ch;
        const CmdRecord *rec;
    };
    std::vector<Tagged> cmds;
    for (unsigned ch = 0; ch < sc.channels; ++ch)
        for (const CmdRecord &rec : loggers[ch].log())
            cmds.push_back({ch, &rec});
    std::stable_sort(cmds.begin(), cmds.end(),
                     [](const Tagged &a, const Tagged &b) {
                         return a.rec->tick < b.rec->tick;
                     });
    std::string log;
    for (const Tagged &t : cmds)
        log += "ch" + std::to_string(t.ch) + " " +
               t.rec->toString() + "\n";
    run.cmdLog = std::move(log);
    return run;
}

} // namespace

ShardDiffResult
runShardDiff(const DRAMCtrlConfig &cfg, const ShardCase &sc)
{
    ShardRun seq = runOnce(cfg, sc, 1);
    ShardRun par = runOnce(cfg, sc, sc.simThreads);

    ShardDiffResult res;
    if (!seq.drained)
        res.failures.push_back("sequential run did not drain");
    if (!par.drained)
        res.failures.push_back("parallel run did not drain");
    if (seq.finalTick != par.finalTick)
        res.failures.push_back(formatString(
            "final tick diverged: %llu sequential vs %llu with %u "
            "threads",
            static_cast<unsigned long long>(seq.finalTick),
            static_cast<unsigned long long>(par.finalTick),
            sc.simThreads));
    if (seq.statsJson != par.statsJson)
        res.failures.push_back(formatString(
            "stats JSON diverged between 1 and %u threads",
            sc.simThreads));
    if (seq.cmdLog != par.cmdLog)
        res.failures.push_back(formatString(
            "DRAM command streams diverged between 1 and %u threads",
            sc.simThreads));
    res.pass = res.failures.empty();
    return res;
}

} // namespace validate
} // namespace dramctrl
