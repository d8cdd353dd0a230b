#include "systems.hh"

#include <algorithm>
#include <vector>

#include "cpu/workload.hh"
#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "sim/shard.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace_file.hh"
#include "xbar/xbar.hh"

namespace perfbench {

using namespace dramctrl;
using harness::CtrlModel;

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

namespace {

/** Generator knobs shared by the ledger rows. */
GenConfig
ledgerGenConfig(std::uint64_t seed, std::uint64_t requests)
{
    GenConfig gc;
    gc.windowSize = 256ULL * 1024 * 1024;
    gc.readPct = 67;
    gc.minITT = gc.maxITT = fromNs(4.0);
    gc.numRequests = requests;
    gc.seed = mix(seed ^ 0x6c6564676572ULL);
    return gc;
}

/** Fold one controller's public statistics into @p c. */
void
addCtrl(Counters &c, MemCtrlBase &ctrl)
{
    if (auto *ev = dynamic_cast<DRAMCtrl *>(&ctrl)) {
        const auto &s = ev->ctrlStats();
        c.requests += s.readReqs.value() + s.writeReqs.value();
        c.ctrlRefusals += s.numRdRetry.value() + s.numWrRetry.value();
        c.rowHitRate += s.rowHitRate.value();
        c.busUtil += s.busUtil.value();
        c.avgRdQLen += s.avgRdQLen.value();
        c.avgMemAccLatNs += s.avgMemAccLatNs.value();
        c.wrPerTurnaround += s.wrPerTurnAround.value();
    } else if (auto *cy = dynamic_cast<cyclesim::CycleDRAMCtrl *>(&ctrl)) {
        const auto &s = cy->ctrlStats();
        c.requests += s.readReqs.value() + s.writeReqs.value();
        c.ctrlRefusals += s.numRetries.value();
        c.cycles += static_cast<double>(cy->cyclesTicked());
        c.rowHitRate += s.rowHitRate.value();
        c.busUtil += s.busUtil.value();
        if (s.readBursts.value() > 0)
            c.avgMemAccLatNs += toNs(static_cast<Tick>(
                                    s.totMemAccLat.value())) /
                                s.readBursts.value();
    }
}

/** Turn the per-channel sums of addCtrl() into channel means. */
void
averageChannels(Counters &c, unsigned channels)
{
    for (double *v : {&c.rowHitRate, &c.busUtil, &c.avgRdQLen,
                      &c.avgMemAccLatNs, &c.wrPerTurnaround})
        *v /= channels;
}

/** Events, windows and messages of every shard. */
void
addEngine(Counters &c, Simulator &sim)
{
    for (unsigned i = 0; i < sim.numShards(); ++i)
        c.events +=
            static_cast<double>(sim.shardQueue(i).numEventsServiced());
    if (sim.sharded()) {
        c.windows += static_cast<double>(sim.shardEngine().numWindows());
        c.messages +=
            static_cast<double>(sim.shardEngine().numMessages());
    }
}

void
addGen(Counters &c, const BaseGen &gen)
{
    c.ops += gen.genStats().recvResponses.value();
    c.srcRetries += gen.genStats().retries.value();
}

class ReplaySystem : public System
{
  public:
    ReplaySystem(const std::string &trace, CtrlModel model)
        : tb_(presets::ddr3_1333(), model),
          player_(tb_.addGen<TracePlayer>(makeTracePlayerConfig(trace))),
          records_(TraceReader(trace, /*verify_crc=*/false)
                       .info()
                       .recordCount)
    {}

    Simulator &sim() override { return tb_.sim(); }

    Tick
    run(Tick budget) override
    {
        return tb_.runToCompletion([this] { return player_.done(); },
                                   budget);
    }

    bool
    drained() override
    {
        return player_.done() && tb_.ctrl().idle();
    }

    std::uint64_t attempted() override { return records_; }
    std::uint64_t completed() override { return player_.responses(); }

    Counters
    counters() override
    {
        Counters c;
        addCtrl(c, tb_.ctrl());
        addEngine(c, tb_.sim());
        c.ops = static_cast<double>(player_.responses());
        // TracePlayer keeps no retry count; bound straight to the
        // controller, each of its re-sends answers one refusal there.
        c.srcRetries = c.ctrlRefusals;
        return c;
    }

  private:
    harness::SingleChannelSystem tb_;
    TracePlayer &player_;
    std::uint64_t records_;
};

class GenCtrlSystem : public System
{
  public:
    GenCtrlSystem(std::uint64_t seed, std::uint64_t requests,
                  CtrlModel model, const std::string &capture_path)
        : tb_(presets::ddr3_1333(), model), requests_(requests)
    {
        if (!capture_path.empty())
            tb_.enableCapture(capture_path);
        gen_ = &tb_.addGen<RandomGen>(ledgerGenConfig(seed, requests));
    }

    Simulator &sim() override { return tb_.sim(); }

    Tick
    run(Tick budget) override
    {
        Tick end =
            tb_.runToCompletion([this] { return gen_->done(); }, budget);
        tb_.finishCapture();
        return end;
    }

    bool drained() override { return gen_->done() && tb_.ctrl().idle(); }
    std::uint64_t attempted() override { return requests_; }

    std::uint64_t
    completed() override
    {
        return static_cast<std::uint64_t>(
            gen_->genStats().recvResponses.value());
    }

    Counters
    counters() override
    {
        Counters c;
        addCtrl(c, tb_.ctrl());
        addEngine(c, tb_.sim());
        addGen(c, *gen_);
        return c;
    }

  private:
    harness::SingleChannelSystem tb_;
    BaseGen *gen_ = nullptr;
    std::uint64_t requests_;
};

/** Generators behind a MultiChannelSystem (ledger xbar row, hmc64). */
class MultiGenSystem : public System
{
  public:
    MultiGenSystem(const harness::MultiChannelConfig &cfg,
                   const std::vector<GenConfig> &gens)
        : mc_(cfg)
    {
        for (const GenConfig &g : gens) {
            mc_.addGen<RandomGen>(g);
            requests_ += g.numRequests;
        }
    }

    Simulator &sim() override { return mc_.sim(); }
    Tick run(Tick budget) override { return mc_.runToCompletion(budget); }
    bool drained() override { return mc_.drained(); }
    std::uint64_t attempted() override { return requests_; }

    std::uint64_t
    completed() override
    {
        double done = 0;
        for (unsigned i = 0; i < mc_.numGens(); ++i)
            done += mc_.gen(i).genStats().recvResponses.value();
        return static_cast<std::uint64_t>(done);
    }

    Counters
    counters() override
    {
        Counters c;
        for (unsigned ch = 0; ch < mc_.numChannels(); ++ch)
            addCtrl(c, mc_.ctrl(ch));
        averageChannels(c, mc_.numChannels());
        for (unsigned i = 0; i < mc_.numGens(); ++i)
            addGen(c, mc_.gen(i));
        addEngine(c, mc_.sim());
        return c;
    }

  private:
    harness::MultiChannelSystem mc_;
    std::uint64_t requests_ = 0;
};

class FullSystem : public System
{
  public:
    static constexpr unsigned kCores = 4;

    explicit FullSystem(const harness::MultiCoreConfig &cfg)
        : sys_(cfg, workloads::byName("canneal"))
    {
        for (SimObject *obj : sys_.sim().objects()) {
            if (auto *x = dynamic_cast<Crossbar *>(obj)) {
                xbars_.push_back(x);
                if (x->name() == "mem_xbar")
                    memXbar_ = x;
            }
        }
        if (memXbar_ == nullptr)
            fatal("perfbench: full system has no mem_xbar");
    }

    Simulator &sim() override { return sys_.sim(); }
    Tick run(Tick budget) override { return sys_.runToCompletion(budget); }

    bool
    drained() override
    {
        for (unsigned i = 0; i < kCores; ++i)
            if (!sys_.core(i).done() || !sys_.l1(i).idle())
                return false;
        for (unsigned ch = 0; ch < sys_.numChannels(); ++ch)
            if (!sys_.ctrl(ch).idle())
                return false;
        return sys_.l2().idle() &&
               std::all_of(xbars_.begin(), xbars_.end(),
                           [](const Crossbar *x) { return x->idle(); });
    }

    /** Requests the memory crossbar forwarded to the controllers. */
    std::uint64_t
    attempted() override
    {
        return static_cast<std::uint64_t>(
            memXbar_->xbarStats().reqPackets.value());
    }

    /** Requests the controllers accepted. */
    std::uint64_t
    completed() override
    {
        return static_cast<std::uint64_t>(counters().requests);
    }

    Counters
    counters() override
    {
        Counters c;
        for (unsigned ch = 0; ch < sys_.numChannels(); ++ch)
            addCtrl(c, sys_.ctrl(ch));
        averageChannels(c, sys_.numChannels());
        addEngine(c, sys_.sim());
        for (const Crossbar *x : xbars_)
            c.xbarRetries += x->xbarStats().reqRetries.value();
        double blocked = sys_.l2().cacheStats().blockedNoMshr.value();
        for (unsigned i = 0; i < kCores; ++i) {
            c.ops += static_cast<double>(sys_.core(i).committed());
            blocked += sys_.l1(i).cacheStats().blockedNoMshr.value();
        }
        c.ipc = sys_.aggregateIPC();
        c.l2MissRate = sys_.l2().cacheStats().missRate.value();
        c.mshrBlocked = blocked;
        return c;
    }

  private:
    harness::MultiCoreSystem sys_;
    std::vector<Crossbar *> xbars_;
    Crossbar *memXbar_ = nullptr;
};

} // namespace

std::uint64_t
writeReplayTrace(const std::string &path, std::uint64_t seed,
                 std::uint64_t records)
{
    const DRAMCtrlConfig cfg = presets::ddr3_1333();
    constexpr std::uint64_t kLine = 64;
    // Under the preset's RoRaBaCoCh mapping an aligned rank-row
    // (row buffer x devices) is one row of one bank.
    const std::uint64_t row_bytes =
        cfg.org.rowBufferSize * cfg.org.devicesPerRank;
    const std::uint64_t rows = cfg.org.channelCapacity / row_bytes;
    const std::uint64_t lines_per_row = row_bytes / kLine;
    const std::uint64_t lines = cfg.org.channelCapacity / kLine;

    std::uint64_t state = seed ^ 0x7265706c6179ULL;
    auto next = [&state] { return mix(state++); };

    TraceWriter w(path);
    std::uint64_t digest = mix(seed);
    Tick tick = 0;
    std::uint64_t n = 0;
    while (n < records) {
        const std::uint64_t len = 4 + next() % 13;
        const bool streak = (next() & 1) != 0;
        const std::uint64_t row = next() % rows;
        const std::uint64_t col = next() % lines_per_row;
        for (std::uint64_t i = 0; i < len && n < records; ++i, ++n) {
            TraceEntry e;
            e.addr = streak ? row * row_bytes +
                                  ((col + i) % lines_per_row) * kLine
                            : (next() % lines) * kLine;
            e.isRead = next() % 3 != 0;
            e.size = kLine;
            tick += fromNs(2.0) + next() % (fromNs(2.0) + 1);
            e.tick = tick;
            w.append(e);
            digest = mix(digest ^ e.addr ^ (e.tick << 1) ^ e.isRead);
        }
    }
    w.finish();
    return digest;
}

std::unique_ptr<System>
makeReplay(const std::string &trace, CtrlModel model)
{
    return std::make_unique<ReplaySystem>(trace, model);
}

std::unique_ptr<System>
makeHmc64(std::uint64_t seed, std::uint64_t req_per_gen, unsigned threads)
{
    // The configuration channel_scaling measures: full write drain so
    // every queue empties at the end of the run.
    harness::MultiChannelConfig cfg =
        harness::systemPresetByName("hmc_stack_64");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;

    GenConfig gc;
    gc.minITT = gc.maxITT = fromNs(4.0);
    gc.numRequests = req_per_gen;
    gc.readPct = 67;
    const std::uint64_t capacity =
        cfg.ctrl.org.channelCapacity * cfg.channels;
    std::vector<GenConfig> gens;
    for (unsigned i = 0; i < cfg.channels; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, cfg.channels, capacity);
        g.seed = exec::deriveSeed(mix(seed), i);
        gens.push_back(g);
    }
    return std::make_unique<MultiGenSystem>(cfg, gens);
}

std::unique_ptr<System>
makeFullsys(std::uint64_t seed, std::uint64_t ops_per_core)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = FullSystem::kCores;
    cfg.channels = 2;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.addrMapping = AddrMapping::RoCoRaBaCh;
    cfg.opsPerCore = ops_per_core;
    cfg.seed = mix(seed) >> 1;
    return std::make_unique<FullSystem>(cfg);
}

std::unique_ptr<System>
makeGenCtrl(std::uint64_t seed, std::uint64_t requests, CtrlModel model,
            const std::string &capture_path)
{
    return std::make_unique<GenCtrlSystem>(seed, requests, model,
                                           capture_path);
}

std::unique_ptr<System>
makeXbar1(std::uint64_t seed, std::uint64_t requests)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    return std::make_unique<MultiGenSystem>(
        cfg, std::vector<GenConfig>{ledgerGenConfig(seed, requests)});
}

} // namespace perfbench
