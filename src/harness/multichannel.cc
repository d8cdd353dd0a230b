#include "harness/multichannel.hh"

#include <algorithm>

#include "dram/dram_presets.hh"
#include "sim/logging.hh"
#include "trafficgen/trace_file.hh"
#include "xbar/xbar.hh"

namespace dramctrl {
namespace harness {

MultiChannelSystem::MultiChannelSystem(const MultiChannelConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.channels == 0)
        fatal("multi-channel system needs at least one channel");

    // One shard per channel; the crossbar's cheapest cross-shard hop
    // bounds how far shards may drift apart.
    sim_.configureShards(cfg_.channels,
                         ShardedCrossbar::lookahead(cfg_.xbar));
    sim_.setSimThreads(cfg_.simThreads);

    std::uint64_t total_mem =
        cfg_.ctrl.org.channelCapacity * cfg_.channels;
    std::uint64_t granularity = cfg_.interleaveGranularity != 0
                                    ? cfg_.interleaveGranularity
                                    : 64;

    xbar_ = std::make_unique<ShardedCrossbar>(sim_, "mem_xbar",
                                              cfg_.xbar);
    ranges_ = interleavedRanges(0, total_mem, granularity,
                                cfg_.channels);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        Simulator::ShardScope scope(sim_, ch);
        auto ctrl = makeController(sim_,
                                   "mem_ctrl" + std::to_string(ch),
                                   cfg_.ctrl, ranges_[ch], cfg_.model);
        xbar_->addChannel(ctrl->port(), ranges_[ch]);
        ctrls_.push_back(std::move(ctrl));
    }
}

std::uint64_t
MultiChannelSystem::totalCapacity() const
{
    return cfg_.ctrl.org.channelCapacity * cfg_.channels;
}

void
MultiChannelSystem::enableCapture(const std::string &path)
{
    if (!gens_.empty())
        fatal("enableCapture() must be called before addGen()");
    if (captureWriter_ != nullptr)
        fatal("capture already enabled");
    captureWriter_ = openCaptureWriter(path);
}

void
MultiChannelSystem::finishCapture()
{
    if (captureWriter_ == nullptr || captureDone_)
        return;
    captureDone_ = true;

    // Merge the per-generator streams (each tick-sorted by
    // construction) into one tick-ordered file; ties break towards the
    // lowest source index, deterministically.
    TraceWriter &writer = *captureWriter_;
    std::vector<std::size_t> idx(recorders_.size(), 0);
    for (;;) {
        int best = -1;
        for (std::size_t i = 0; i < recorders_.size(); ++i) {
            const auto &t = recorders_[i]->trace();
            if (idx[i] >= t.size())
                continue;
            if (best < 0 ||
                t[idx[i]].tick <
                    recorders_[best]->trace()[idx[best]].tick)
                best = static_cast<int>(i);
        }
        if (best < 0)
            break;
        writer.append(recorders_[best]->trace()[idx[best]++],
                      static_cast<unsigned>(best));
    }
    writer.finish();
}

TracePlayer &
MultiChannelSystem::addPlayer(const TracePlayerConfig &pcfg)
{
    unsigned index = numGens() + static_cast<unsigned>(players_.size());
    RequestorId id = static_cast<RequestorId>(index);
    Simulator::ShardScope scope(sim_, index % sim_.numShards());
    auto player = std::make_unique<TracePlayer>(
        sim_, "player" + std::to_string(index), pcfg, id);
    player->port().bind(xbar_->addFrontPort(id));
    TracePlayer &ref = *player;
    players_.push_back(std::move(player));
    return ref;
}

bool
MultiChannelSystem::drained() const
{
    bool gens_done = std::all_of(
        gens_.begin(), gens_.end(),
        [](const std::unique_ptr<BaseGen> &g) { return g->done(); });
    bool players_done = std::all_of(
        players_.begin(), players_.end(),
        [](const std::unique_ptr<TracePlayer> &p) {
            return p->done();
        });
    if (!gens_done || !players_done)
        return false;
    bool ctrls_idle = std::all_of(
        ctrls_.begin(), ctrls_.end(),
        [](const std::unique_ptr<MemCtrlBase> &c) {
            return c->idle();
        });
    return ctrls_idle && xbar_->idle();
}

Tick
MultiChannelSystem::runToCompletion(Tick max_ticks)
{
    if (gens_.empty() && players_.empty())
        fatal("multi-channel system has no generators");
    return runUntil(
        sim_, [this] { return drained(); }, fromUs(1.0), max_ticks);
}

std::vector<CmdLogger> &
MultiChannelSystem::attachCmdLoggers()
{
    if (cmdLoggers_ == nullptr) {
        cmdLoggers_ =
            std::make_unique<std::vector<CmdLogger>>(numChannels());
        for (unsigned ch = 0; ch < numChannels(); ++ch)
            ctrls_[ch]->setCmdLogger(&(*cmdLoggers_)[ch]);
    }
    return *cmdLoggers_;
}

double
MultiChannelSystem::totalBandwidthGBs() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->achievedBandwidthGBs();
    return total;
}

double
MultiChannelSystem::avgBusUtil() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->busUtilisation();
    return total / static_cast<double>(ctrls_.size());
}

namespace {

/**
 * name -> {base controller preset, instance count}. For the HBM2
 * stacks the count is physical channels; each physical channel is
 * split into org.pseudoChannels independently-timed controllers, so
 * the instantiated channel count is count x pseudoChannels.
 */
struct SystemPresetDef
{
    const char *name;
    const char *ctrlPreset;
    unsigned count;
};

const SystemPresetDef kSystemPresets[] = {
    {"hmc_stack_16", "hmc_vault", 16},
    {"hmc_stack_64", "hmc_vault", 64},
    {"hmc_stack_256", "hmc_vault", 256},
    {"hbm2_stack_4", "hbm2", 4},
    {"hbm2_stack_8", "hbm2", 8},
};

} // namespace

bool
isSystemPreset(const std::string &name)
{
    for (const auto &p : kSystemPresets)
        if (name == p.name)
            return true;
    return false;
}

MultiChannelConfig
systemPresetByName(const std::string &name)
{
    for (const auto &p : kSystemPresets) {
        if (name != p.name)
            continue;
        MultiChannelConfig cfg;
        cfg.ctrl = presets::byName(p.ctrlPreset);
        cfg.channels = p.count * cfg.ctrl.org.pseudoChannels;
        return cfg;
    }
    fatal("unknown system preset '%s'", name.c_str());
}

std::vector<std::string>
systemPresetNames()
{
    std::vector<std::string> out;
    for (const auto &p : kSystemPresets)
        out.emplace_back(p.name);
    return out;
}

GenConfig
sliceGenWindow(GenConfig base, unsigned i, unsigned n,
               std::uint64_t total_mem)
{
    std::uint64_t slice = total_mem / n;
    base.startAddr = slice * i;
    base.windowSize = std::min(base.windowSize, slice);
    return base;
}

} // namespace harness
} // namespace dramctrl
