#include "cpu/timing_core.hh"

#include "sim/logging.hh"

namespace dramctrl {

TimingCore::CoreStats::CoreStats(TimingCore &core)
    : committedOps(&core.statGroup(), "committedOps", "ops committed"),
      memOps(&core.statGroup(), "memOps", "memory ops issued"),
      cycles(&core.statGroup(), "cycles", "core cycles simulated"),
      memStallCycles(&core.statGroup(), "memStallCycles",
                     "cycles dispatch was blocked on memory"),
      ipc(&core.statGroup(), "ipc", "committed ops per cycle",
          [this] {
              return cycles.value() > 0
                         ? committedOps.value() / cycles.value()
                         : 0.0;
          })
{
}

TimingCore::TimingCore(Simulator &sim, std::string name,
                       const CoreConfig &cfg,
                       const WorkloadProfile &workload, RequestorId id)
    : SimObject(sim, std::move(name)), cfg_(cfg), workload_(workload),
      id_(id), port_(this->name() + ".dcachePort", *this),
      rng_(cfg.seed),
      tickEvent_([this] { tick(); }, this->name() + ".tickEvent")
{
    if (cfg_.dispatchWidth == 0 || cfg_.commitWidth == 0 ||
        cfg_.robSize == 0)
        fatal("core '%s': zero-width pipeline parameter",
              this->name().c_str());
    if (workload_.footprintBytes < workload_.opSize)
        fatal("core '%s': footprint smaller than one op",
              this->name().c_str());
    stats_ = std::make_unique<CoreStats>(*this);

    // While parked, the queue holds the elided cycles; fold them in
    // before a dump, and drop those counted before a reset.
    statGroup().onDump([this] {
        if (tickEvent_.parked())
            countIdle(eventq().takeElided(tickEvent_));
    });
    statGroup().onReset([this] {
        if (tickEvent_.parked())
            eventq().takeElided(tickEvent_);
    });
}

TimingCore::~TimingCore()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);
    delete blockedPkt_;
}

void
TimingCore::startup()
{
    running_ = true;
    schedule(tickEvent_, curTick() + cfg_.clockPeriod);
}

bool
TimingCore::done() const
{
    return cfg_.numOps != 0 && committed_ >= cfg_.numOps;
}

double
TimingCore::ipc() const
{
    return stats_->ipc.value();
}

Addr
TimingCore::nextMemAddr()
{
    if (rng_.chance(workload_.seqProb)) {
        cursor_ += workload_.opSize;
    } else {
        std::uint64_t slots =
            workload_.footprintBytes / workload_.opSize;
        cursor_ = rng_.uniform(0, slots - 1) * workload_.opSize;
    }
    if (cursor_ + workload_.opSize > workload_.footprintBytes)
        cursor_ = 0;
    return cfg_.memBase + cursor_;
}

void
TimingCore::tick()
{
    ++stats_->cycles;
    commit();
    dispatch();

    if (!running_ || done()) {
        running_ = false;
        return;
    }
    // With the ROB head waiting on memory and dispatch blocked, only a
    // response or a retry can change anything: until one arrives, each
    // tick would just count a cycle (and a stall while a request is
    // blocked). Park the tick so the queue elides those cycles.
    const bool head_waiting = rob_.empty() || !rob_.front().completed;
    const bool dispatch_stuck =
        blockedPkt_ != nullptr || rob_.size() >= cfg_.robSize;
    if (head_waiting && dispatch_stuck)
        eventq().park(tickEvent_, curTick() + cfg_.clockPeriod,
                      cfg_.clockPeriod);
    else
        schedule(tickEvent_, curTick() + cfg_.clockPeriod);
}

void
TimingCore::wake()
{
    if (tickEvent_.parked())
        countIdle(eventq().unpark(tickEvent_));
}

void
TimingCore::countIdle(std::uint64_t cycles)
{
    const auto n = static_cast<double>(cycles);
    stats_->cycles += n;
    if (blockedPkt_ != nullptr)
        stats_->memStallCycles += n;
}

void
TimingCore::commit()
{
    unsigned retired = 0;
    while (retired < cfg_.commitWidth && !rob_.empty() &&
           rob_.front().completed) {
        rob_.pop_front();
        ++retired;
        ++committed_;
        ++stats_->committedOps;
    }
}

void
TimingCore::dispatch()
{
    if (blockedPkt_ != nullptr) {
        // Still waiting for the cache to accept the previous op.
        ++stats_->memStallCycles;
        return;
    }

    unsigned dispatched = 0;
    while (dispatched < cfg_.dispatchWidth &&
           rob_.size() < cfg_.robSize) {
        bool is_mem = rng_.chance(workload_.memFraction);
        rob_.push_back(Op{is_mem, !is_mem, nextOpId_++});
        ++dispatched;

        if (!is_mem)
            continue;

        auto slot = std::prev(rob_.end());
        bool is_read = rng_.chance(workload_.readFraction);
        auto *pkt = new Packet(is_read ? MemCmd::ReadReq
                                       : MemCmd::WriteReq,
                               nextMemAddr(), workload_.opSize, id_);
        pkt->setInjectedTick(curTick());
        ++stats_->memOps;

        if (!port_.sendTimingReq(pkt)) {
            blockedPkt_ = pkt;
            blockedOp_ = slot;
            ++stats_->memStallCycles;
            return;
        }
        inFlight_.emplace(pkt->id(), slot);
    }
}

void
TimingCore::recvReqRetry()
{
    DC_ASSERT(blockedPkt_ != nullptr, "retry with no blocked packet");
    wake();
    Packet *pkt = blockedPkt_;
    blockedPkt_ = nullptr;
    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        return;
    }
    inFlight_.emplace(pkt->id(), blockedOp_);
}

bool
TimingCore::recvTimingResp(Packet *pkt)
{
    wake();
    auto it = inFlight_.find(pkt->id());
    DC_ASSERT(it != inFlight_.end(), "unexpected response %s",
              pkt->toString().c_str());
    it->second->completed = true;
    inFlight_.erase(it);
    delete pkt;
    return true;
}

} // namespace dramctrl
