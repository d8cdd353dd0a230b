#include "dram/dram_ctrl.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

DRAMCtrl::CtrlStats::CtrlStats(DRAMCtrl &ctrl)
    : readReqs(&ctrl.statGroup(), "readReqs",
               "read requests accepted"),
      writeReqs(&ctrl.statGroup(), "writeReqs",
                "write requests accepted"),
      readBursts(&ctrl.statGroup(), "readBursts",
                 "read bursts (including write-queue hits)"),
      writeBursts(&ctrl.statGroup(), "writeBursts",
                  "write bursts (including merged)"),
      servicedByWrQ(&ctrl.statGroup(), "servicedByWrQ",
                    "read bursts forwarded from the write queue"),
      mergedWrBursts(&ctrl.statGroup(), "mergedWrBursts",
                     "write bursts merged into queued bursts"),
      readRowHits(&ctrl.statGroup(), "readRowHits",
                  "read bursts that hit an open row"),
      writeRowHits(&ctrl.statGroup(), "writeRowHits",
                   "write bursts that hit an open row"),
      numActs(&ctrl.statGroup(), "numActs", "activate commands"),
      numPrecharges(&ctrl.statGroup(), "numPrecharges",
                    "precharge commands"),
      numRefreshes(&ctrl.statGroup(), "numRefreshes",
                   "refresh commands"),
      bytesRead(&ctrl.statGroup(), "bytesRead",
                "bytes moved by read bursts"),
      bytesWritten(&ctrl.statGroup(), "bytesWritten",
                   "bytes moved by write bursts"),
      numRdRetry(&ctrl.statGroup(), "numRdRetry",
                 "reads refused on a full read queue"),
      numWrRetry(&ctrl.statGroup(), "numWrRetry",
                 "writes refused on a full write queue"),
      totQLat(&ctrl.statGroup(), "totQLat",
              "total read-burst queueing time (ticks)"),
      totSvcLat(&ctrl.statGroup(), "totSvcLat",
                "total read-burst service time (ticks)"),
      totMemAccLat(&ctrl.statGroup(), "totMemAccLat",
                   "total read-burst access time (ticks)"),
      prechargeAllTime(&ctrl.statGroup(), "prechargeAllTime",
                       "time with every bank precharged (ticks)"),
      powerDownTime(&ctrl.statGroup(), "powerDownTime",
                    "time in precharge power-down (ticks)"),
      powerDownEntries(&ctrl.statGroup(), "powerDownEntries",
                       "power-down entries"),
      selfRefreshTime(&ctrl.statGroup(), "selfRefreshTime",
                      "time in self-refresh (ticks)"),
      selfRefreshEntries(&ctrl.statGroup(), "selfRefreshEntries",
                         "self-refresh entries"),
      rdQOccupancyTicks(&ctrl.statGroup(), "rdQOccupancyTicks",
                        "time-weighted read queue occupancy"),
      wrQOccupancyTicks(&ctrl.statGroup(), "wrQOccupancyTicks",
                        "time-weighted write queue occupancy"),
      rdPerTurnAround(&ctrl.statGroup(), "rdPerTurnAround",
                      "reads serviced per bus turnaround"),
      wrPerTurnAround(&ctrl.statGroup(), "wrPerTurnAround",
                      "writes drained per write episode"),
      readLatencyHist(&ctrl.statGroup(), "readLatencyHist",
                      "controller read latency distribution (ns)", 48),
      lat(&ctrl.statGroup(), "lat", "read"),
      perBankRdBursts(&ctrl.statGroup(), "perBankRdBursts",
                      "read bursts per bank",
                      ctrl.cfg_.org.totalBanks()),
      perBankWrBursts(&ctrl.statGroup(), "perBankWrBursts",
                      "write bursts per bank",
                      ctrl.cfg_.org.totalBanks()),
      rowHitRate(&ctrl.statGroup(), "rowHitRate",
                 "fraction of DRAM bursts hitting an open row",
                 [this] {
                     double serviced = readBursts.value() -
                                       servicedByWrQ.value() +
                                       writeBursts.value() -
                                       mergedWrBursts.value();
                     return serviced > 0 ? (readRowHits.value() +
                                            writeRowHits.value()) /
                                               serviced
                                         : 0.0;
                 }),
      busUtil(&ctrl.statGroup(), "busUtil",
              "data bus utilisation, both directions",
              [&ctrl] { return ctrl.busUtilisation(); }),
      busUtilRead(&ctrl.statGroup(), "busUtilRead",
                  "data bus utilisation by reads",
                  [this, &ctrl] {
                      double w = toSeconds(ctrl.curTick() -
                                           ctrl.windowStart_);
                      return w > 0 ? bytesRead.value() / 1e9 /
                                         ctrl.peakBandwidthGBs() / w
                                   : 0.0;
                  }),
      busUtilWrite(&ctrl.statGroup(), "busUtilWrite",
                   "data bus utilisation by writes",
                   [this, &ctrl] {
                       double w = toSeconds(ctrl.curTick() -
                                            ctrl.windowStart_);
                       return w > 0 ? bytesWritten.value() / 1e9 /
                                          ctrl.peakBandwidthGBs() / w
                                    : 0.0;
                   }),
      avgRdQLen(&ctrl.statGroup(), "avgRdQLen",
                "time-weighted average read queue length",
                [this, &ctrl] {
                    double w = static_cast<double>(
                        ctrl.curTick() - ctrl.windowStart_);
                    return w > 0 ? rdQOccupancyTicks.value() / w : 0.0;
                }),
      avgWrQLen(&ctrl.statGroup(), "avgWrQLen",
                "time-weighted average write queue length",
                [this, &ctrl] {
                    double w = static_cast<double>(
                        ctrl.curTick() - ctrl.windowStart_);
                    return w > 0 ? wrQOccupancyTicks.value() / w : 0.0;
                }),
      avgQLatNs(&ctrl.statGroup(), "avgQLatNs",
                "average read-burst queueing latency (ns)",
                [this] {
                    double n = readBursts.value() - servicedByWrQ.value();
                    return n > 0 ? toNs(static_cast<Tick>(
                                       totQLat.value())) / n
                                 : 0.0;
                }),
      avgMemAccLatNs(&ctrl.statGroup(), "avgMemAccLatNs",
                     "average read-burst access latency (ns)",
                     [this] {
                         double n = readBursts.value() -
                                    servicedByWrQ.value();
                         return n > 0 ? toNs(static_cast<Tick>(
                                            totMemAccLat.value())) / n
                                      : 0.0;
                     }),
      avgRdBWGBs(&ctrl.statGroup(), "avgRdBWGBs",
                 "achieved read bandwidth (GByte/s)",
                 [this, &ctrl] {
                     double w = toSeconds(ctrl.curTick() -
                                          ctrl.windowStart_);
                     return w > 0 ? bytesRead.value() / 1e9 / w : 0.0;
                 }),
      avgWrBWGBs(&ctrl.statGroup(), "avgWrBWGBs",
                 "achieved write bandwidth (GByte/s)",
                 [this, &ctrl] {
                     double w = toSeconds(ctrl.curTick() -
                                          ctrl.windowStart_);
                     return w > 0 ? bytesWritten.value() / 1e9 / w : 0.0;
                 }),
      peakBWGBs(&ctrl.statGroup(), "peakBWGBs",
                "theoretical peak bandwidth (GByte/s)",
                [&ctrl] { return ctrl.peakBandwidthGBs(); })
{
}

DRAMCtrl::DRAMCtrl(Simulator &sim, std::string name,
                   DRAMCtrlConfig config, AddrRange range)
    : MemCtrlBase(sim, std::move(name)), cfg_(config), range_(range),
      decoder_(cfg_.org, cfg_.addrMapping),
      port_(this->name() + ".port", *this),
      respQueue_(this->eventq(), port_, this->name() + ".respQueue"),
      nextReqEvent_([this] { processNextReqEvent(); },
                    this->name() + ".nextReqEvent"),
      refreshEvent_([this] { processRefreshEvent(); },
                    this->name() + ".refreshEvent",
                    Event::kRefreshPriority)
{
    cfg_.check();

    if (range_.localSize() != cfg_.org.channelCapacity)
        fatal("controller '%s': address range provides %llu bytes but "
              "the DRAM organisation has %llu",
              this->name().c_str(),
              static_cast<unsigned long long>(range_.localSize()),
              static_cast<unsigned long long>(cfg_.org.channelCapacity));

    ranks_.resize(cfg_.org.ranksPerChannel);
    for (Rank &rank : ranks_)
        rank.actWindow.init(cfg_.timing.activationLimit);

    const unsigned total_banks = cfg_.org.totalBanks();
    bankOpenRow_.assign(total_banks, kNoRow);
    bankPreAllowedAt_.assign(total_banks, 0);
    bankActAllowedAt_.assign(total_banks, 0);
    bankColAllowedAt_.assign(total_banks, 0);
    bankRowAccesses_.assign(total_banks, 0);
    hasBankGroups_ = cfg_.org.hasBankGroups();
    if (hasBankGroups_) {
        const unsigned total_groups =
            cfg_.org.ranksPerChannel * cfg_.org.bankGroupsPerRank;
        grpColAllowedAt_.assign(total_groups, 0);
        grpNextActAt_.assign(total_groups, 0);
    }
    readyCache_.resize(total_banks);
    bankGen_.assign(total_banks, 0);
    rankGen_.assign(cfg_.org.ranksPerChannel, 0);
    rdRowHitCounts_.assign(total_banks, 0);
    wrRowHitCounts_.assign(total_banks, 0);
    rdBankCounts_.assign(total_banks, 0);
    wrBankCounts_.assign(total_banks, 0);
    starvedHits_.assign(total_banks, 0);
    for (unsigned p : cfg_.requestorPriorities)
        maxReqPriority_ = std::max(maxReqPriority_, p);

    // All steady-state queue traffic stays within these reservations.
    readQueue_.reserve(cfg_.readBufferSize);
    writeQueue_.reserve(cfg_.writeBufferSize);
    rdKeys_.reserve(cfg_.readBufferSize);
    wrKeys_.reserve(cfg_.writeBufferSize);

    plugins_ = plugin::buildChain(cfg_, statGroup(), false,
                                  this->name());
    refMgr_ = plugins_.refreshManager();
    pracPlugin_ = plugins_.prac();

    stats_ = std::make_unique<CtrlStats>(*this);
    statGroup().onDump([this] { plugins_.onStatsDump(); });
    statGroup().onReset([this] {
        windowStart_ = curTick();
        // A fresh window starts from the current (unknown-split) state;
        // treat "now" as the precharge-accounting origin.
        allBanksPreSince_ = curTick();
        lastQStatUpdate_ = curTick();
    });
}

DRAMCtrl::~DRAMCtrl()
{
    if (nextReqEvent_.scheduled())
        deschedule(nextReqEvent_);
    if (refreshEvent_.scheduled())
        deschedule(refreshEvent_);

    std::unordered_set<BurstHelper *> helpers;
    std::unordered_set<Packet *> unanswered;
    for (DRAMPacket *dp : readQueue_) {
        if (dp->burstHelper)
            helpers.insert(dp->burstHelper);
        if (dp->pkt)
            unanswered.insert(dp->pkt);
        delete dp;
    }
    for (DRAMPacket *dp : writeQueue_)
        delete dp;
    for (BurstHelper *h : helpers)
        delete h;
    for (Packet *pkt : unanswered) {
        while (pkt->senderState() != nullptr)
            delete pkt->popSenderState();
        delete pkt;
    }
}

void
DRAMCtrl::startup()
{
    windowStart_ = curTick();
    allBanksPreSince_ = curTick();
    lastQStatUpdate_ = curTick();
    if (cfg_.timing.tREFI > 0) {
        Tick refi = cfg_.effectiveREFI();
        if (refMgr_ && refMgr_->perBank()) {
            // The per-bank manager replaces the all-bank schedule:
            // one REFpb per rank every tREFI / banksPerRank.
            nextRefreshAt_ = curTick() + refMgr_->interval(cfg_);
            schedule(refreshEvent_, nextRefreshAt_);
        } else if (cfg_.perRankRefresh) {
            // Stagger the ranks across the interval.
            rankRefreshDue_.resize(ranks_.size());
            for (std::size_t r = 0; r < ranks_.size(); ++r)
                rankRefreshDue_[r] =
                    curTick() + refi * (r + 1) / ranks_.size();
            schedule(refreshEvent_,
                     *std::min_element(rankRefreshDue_.begin(),
                                       rankRefreshDue_.end()));
        } else {
            nextRefreshAt_ = curTick() + refi;
            schedule(refreshEvent_, nextRefreshAt_);
        }
    }
}

void
DRAMCtrl::serialize(ckpt::CkptOut &out) const
{
    ckpt::putCheck(out, "cfgHash", configFingerprint(cfg_));

    // Bank timing state is already flat rank-major struct-of-arrays,
    // the exact layout the checkpoint format records.
    std::vector<std::uint64_t> next_act;
    for (const Rank &rank : ranks_)
        next_act.push_back(rank.nextActAt);
    out.putU64Vec("bank.openRow", bankOpenRow_);
    out.putU64Vec("bank.preAllowedAt", bankPreAllowedAt_);
    out.putU64Vec("bank.actAllowedAt", bankActAllowedAt_);
    out.putU64Vec("bank.colAllowedAt", bankColAllowedAt_);
    out.putU64Vec("bank.rowAccesses",
                  std::vector<std::uint64_t>(bankRowAccesses_.begin(),
                                             bankRowAccesses_.end()));
    out.putU64Vec("rank.nextActAt", next_act);
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        std::vector<std::uint64_t> window;
        for (std::size_t i = 0; i < ranks_[r].actWindow.size(); ++i)
            window.push_back(ranks_[r].actWindow[i]);
        out.putU64Vec("rank.actWindow" + std::to_string(r), window);
    }
    out.putU64Vec("starvedHits",
                  std::vector<std::uint64_t>(starvedHits_.begin(),
                                             starvedHits_.end()));
    if (hasBankGroups_) {
        // Bank-group lanes only exist for grouped organisations; the
        // keys are absent from (and never read out of) legacy
        // checkpoints, which keeps old files restorable.
        out.putU64Vec("grp.colAllowedAt", grpColAllowedAt_);
        out.putU64Vec("grp.nextActAt", grpNextActAt_);
        out.putTick("nextColAllowedAt", nextColAllowedAt_);
    }

    // Unique system packets and burst helpers the read queue refers
    // to; queue entries reference them by index (0 = none). Parked
    // writes were answered on acceptance and carry neither.
    std::vector<const Packet *> pkts;
    std::unordered_map<const Packet *, std::uint64_t> pkt_idx;
    std::vector<const BurstHelper *> helpers;
    std::unordered_map<const BurstHelper *, std::uint64_t> helper_idx;
    for (const DRAMPacket *dp : readQueue_) {
        if (dp->pkt != nullptr && pkt_idx.emplace(
                dp->pkt, pkts.size() + 1).second)
            pkts.push_back(dp->pkt);
        if (dp->burstHelper != nullptr && helper_idx.emplace(
                dp->burstHelper, helpers.size() + 1).second)
            helpers.push_back(dp->burstHelper);
    }
    out.putU64("pkts.count", pkts.size());
    for (std::size_t i = 0; i < pkts.size(); ++i)
        out.putPacket("pkts." + std::to_string(i), pkts[i]);
    out.putU64("helpers.count", helpers.size());
    for (std::size_t i = 0; i < helpers.size(); ++i)
        out.putU64Vec("helpers." + std::to_string(i),
                      {helpers[i]->burstCount,
                       helpers[i]->burstsServiced});

    auto save_queue = [&](const char *prefix,
                          const std::vector<DRAMPacket *> &queue) {
        out.putU64(std::string(prefix) + ".count", queue.size());
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const DRAMPacket *dp = queue[i];
            out.putU64Vec(
                std::string(prefix) + "." + std::to_string(i),
                {dp->entryTime, dp->readyTime,
                 dp->isRead ? std::uint64_t(1) : 0, dp->requestorId,
                 dp->rank, dp->bank, dp->row, dp->col, dp->burstAddr,
                 dp->lo, dp->hi,
                 dp->pkt != nullptr ? pkt_idx.at(dp->pkt) : 0,
                 dp->burstHelper != nullptr
                     ? helper_idx.at(dp->burstHelper)
                     : 0});
        }
    };
    save_queue("rq", readQueue_);
    save_queue("wq", writeQueue_);

    out.putU64("maxReqPriority", maxReqPriority_);
    out.putBool("busStateWrite", busState_ == BusState::Write);
    out.putTick("busBusyUntil", busBusyUntil_);
    out.putTick("nextReqTime", nextReqTime_);
    out.putTick("nextRdCmdAt", nextRdCmdAt_);
    out.putTick("nextWrDataAt", nextWrDataAt_);
    out.putBool("lastBurstWasRead", lastBurstWasRead_);
    out.putU64("readsThisTime", readsThisTime_);
    out.putU64("writesThisTime", writesThisTime_);
    out.putBool("retryReq", retryReq_);
    out.putTick("nextRefreshAt", nextRefreshAt_);
    out.putU64Vec("rankRefreshDue",
                  std::vector<std::uint64_t>(rankRefreshDue_.begin(),
                                             rankRefreshDue_.end()));
    out.putTick("refNotBefore", refNotBefore_);
    out.putTick("poweredDownAt", poweredDownAt_);
    out.putTick("wakeConstraint", wakeConstraint_);
    out.putU64("numBanksActive", numBanksActive_);
    out.putTick("allBanksPreSince", allBanksPreSince_);
    out.putTick("windowStart", windowStart_);
    out.putTick("lastQStatUpdate", lastQStatUpdate_);

    respQueue_.serialize(out);
    out.putEvent("nextReqEvent", eventq(), nextReqEvent_);
    out.putEvent("refreshEvent", eventq(), refreshEvent_);

    plugins_.serialize(out);
}

void
DRAMCtrl::unserialize(ckpt::CkptIn &in)
{
    ckpt::verifyCheck(in, "cfgHash", configFingerprint(cfg_),
                      "DRAM controller configuration");
    DC_ASSERT(readQueue_.empty() && writeQueue_.empty(),
              "restore into a non-empty controller");

    const unsigned total_banks = cfg_.org.totalBanks();
    const auto &open_row = in.getU64Vec("bank.openRow");
    const auto &pre_at = in.getU64Vec("bank.preAllowedAt");
    const auto &act_at = in.getU64Vec("bank.actAllowedAt");
    const auto &col_at = in.getU64Vec("bank.colAllowedAt");
    const auto &row_acc = in.getU64Vec("bank.rowAccesses");
    if (open_row.size() != total_banks)
        fatal("checkpoint controller '%s' covers %zu banks, this one "
              "has %u", name().c_str(), open_row.size(), total_banks);
    const auto &next_act = in.getU64Vec("rank.nextActAt");
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
        Rank &rank = ranks_[r];
        rank.nextActAt = next_act.at(r);
        const auto &window =
            in.getU64Vec("rank.actWindow" + std::to_string(r));
        rank.actWindow.clear();
        for (std::uint64_t t : window)
            rank.actWindow.push_back(t);
    }
    for (unsigned flat = 0; flat < total_banks; ++flat) {
        bankOpenRow_[flat] = open_row[flat];
        bankPreAllowedAt_[flat] = pre_at.at(flat);
        bankActAllowedAt_[flat] = act_at.at(flat);
        bankColAllowedAt_[flat] = col_at.at(flat);
        bankRowAccesses_[flat] =
            static_cast<std::uint32_t>(row_acc.at(flat));
    }
    const auto &starved = in.getU64Vec("starvedHits");
    if (starved.size() != starvedHits_.size())
        fatal("checkpoint controller '%s': starvation map size "
              "mismatch", name().c_str());
    for (std::size_t i = 0; i < starved.size(); ++i)
        starvedHits_[i] = static_cast<std::uint8_t>(starved[i]);
    if (hasBankGroups_) {
        const auto &grp_col = in.getU64Vec("grp.colAllowedAt");
        const auto &grp_act = in.getU64Vec("grp.nextActAt");
        if (grp_col.size() != grpColAllowedAt_.size() ||
            grp_act.size() != grpNextActAt_.size())
            fatal("checkpoint controller '%s': bank-group lane size "
                  "mismatch", name().c_str());
        grpColAllowedAt_ = grp_col;
        grpNextActAt_ = grp_act;
        nextColAllowedAt_ = in.getTick("nextColAllowedAt");
    }

    std::vector<Packet *> pkts;
    std::size_t pkt_count = in.getU64("pkts.count");
    for (std::size_t i = 0; i < pkt_count; ++i)
        pkts.push_back(in.getPacket("pkts." + std::to_string(i)));
    std::vector<BurstHelper *> helpers;
    std::size_t helper_count = in.getU64("helpers.count");
    for (std::size_t i = 0; i < helper_count; ++i) {
        const auto &h =
            in.getU64Vec("helpers." + std::to_string(i));
        if (h.size() != 2)
            fatal("checkpoint controller '%s': malformed burst "
                  "helper %zu", name().c_str(), i);
        auto *helper =
            new BurstHelper(static_cast<unsigned>(h[0]));
        helper->burstsServiced = static_cast<unsigned>(h[1]);
        helpers.push_back(helper);
    }

    auto load_queue = [&](const char *prefix,
                          std::vector<DRAMPacket *> &queue) {
        std::size_t count =
            in.getU64(std::string(prefix) + ".count");
        for (std::size_t i = 0; i < count; ++i) {
            const auto &f = in.getU64Vec(std::string(prefix) + "." +
                                         std::to_string(i));
            if (f.size() != 13)
                fatal("checkpoint controller '%s': malformed queue "
                      "entry %s.%zu", name().c_str(), prefix, i);
            auto *dp = new DRAMPacket;
            dp->entryTime = f[0];
            dp->readyTime = f[1];
            dp->isRead = f[2] != 0;
            dp->requestorId = static_cast<RequestorId>(f[3]);
            dp->rank = static_cast<unsigned>(f[4]);
            dp->bank = static_cast<unsigned>(f[5]);
            dp->row = f[6];
            dp->col = f[7];
            dp->burstAddr = f[8];
            dp->lo = f[9];
            dp->hi = f[10];
            dp->pkt = f[11] != 0 ? pkts.at(f[11] - 1) : nullptr;
            dp->burstHelper =
                f[12] != 0 ? helpers.at(f[12] - 1) : nullptr;
            queue.push_back(dp);
            // Replaying the enqueue bookkeeping against the restored
            // bank state rebuilds the packed key arrays and the
            // incremental row-hit/bank counters exactly.
            noteEnqueued(*dp, dp->isRead);
        }
    };
    load_queue("rq", readQueue_);
    load_queue("wq", writeQueue_);

    maxReqPriority_ =
        static_cast<unsigned>(in.getU64("maxReqPriority"));
    busState_ = in.getBool("busStateWrite") ? BusState::Write
                                            : BusState::Read;
    busBusyUntil_ = in.getTick("busBusyUntil");
    nextReqTime_ = in.getTick("nextReqTime");
    nextRdCmdAt_ = in.getTick("nextRdCmdAt");
    nextWrDataAt_ = in.getTick("nextWrDataAt");
    lastBurstWasRead_ = in.getBool("lastBurstWasRead");
    readsThisTime_ =
        static_cast<unsigned>(in.getU64("readsThisTime"));
    writesThisTime_ =
        static_cast<unsigned>(in.getU64("writesThisTime"));
    retryReq_ = in.getBool("retryReq");
    nextRefreshAt_ = in.getTick("nextRefreshAt");
    const auto &due = in.getU64Vec("rankRefreshDue");
    rankRefreshDue_.assign(due.begin(), due.end());
    refNotBefore_ = in.getTick("refNotBefore");
    poweredDownAt_ = in.getTick("poweredDownAt");
    wakeConstraint_ = in.getTick("wakeConstraint");
    numBanksActive_ =
        static_cast<unsigned>(in.getU64("numBanksActive"));
    allBanksPreSince_ = in.getTick("allBanksPreSince");
    windowStart_ = in.getTick("windowStart");
    lastQStatUpdate_ = in.getTick("lastQStatUpdate");

    respQueue_.unserialize(in);
    in.getEvent("nextReqEvent", eventq(), nextReqEvent_);
    in.getEvent("refreshEvent", eventq(), refreshEvent_);

    plugins_.unserialize(in);
}

bool
DRAMCtrl::idle() const
{
    // Parked writes have already been acknowledged (early write
    // response), so only unanswered reads count as outstanding work.
    return readQueue_.empty() && respQueue_.empty();
}

double
DRAMCtrl::peakBandwidthGBs() const
{
    return static_cast<double>(cfg_.org.burstSize()) /
           toSeconds(cfg_.timing.tBURST) / 1e9;
}

double
DRAMCtrl::busUtilisation() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / peakBandwidthGBs() / w;
}

PowerInputs
DRAMCtrl::powerInputs() const
{
    PowerInputs in;
    in.window = curTick() - windowStart_;
    in.numActs = stats_->numActs.value();
    in.numPrecharges = stats_->numPrecharges.value();
    in.numRefreshes = stats_->numRefreshes.value();
    in.readBursts =
        stats_->bytesRead.value() /
        static_cast<double>(cfg_.org.burstSize());
    in.writeBursts =
        stats_->bytesWritten.value() /
        static_cast<double>(cfg_.org.burstSize());
    in.prechargeAllTime = static_cast<Tick>(
        stats_->prechargeAllTime.value());
    in.powerDownTime =
        static_cast<Tick>(stats_->powerDownTime.value());
    in.selfRefreshTime =
        static_cast<Tick>(stats_->selfRefreshTime.value());
    double w = toSeconds(in.window);
    if (w > 0) {
        double peak_bytes = peakBandwidthGBs() * 1e9;
        in.readBusFraction = stats_->bytesRead.value() / peak_bytes / w;
        in.writeBusFraction =
            stats_->bytesWritten.value() / peak_bytes / w;
    }
    return in;
}

double
DRAMCtrl::achievedBandwidthGBs() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / w;
}

unsigned
DRAMCtrl::burstCountFor(Addr local_addr, unsigned size) const
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr first = local_addr / burst_size;
    Addr last = (local_addr + size - 1) / burst_size;
    return static_cast<unsigned>(last - first + 1);
}

DRAMCtrl::DRAMPacket *
DRAMCtrl::makeDRAMPacket(Packet *pkt, Addr lo, Addr hi,
                         bool is_read) const
{
    auto *dp = new DRAMPacket;
    dp->pkt = pkt;
    dp->isRead = is_read;
    if (pkt != nullptr)
        dp->requestorId = pkt->requestorId();
    dp->lo = lo;
    dp->hi = hi;
    dp->burstAddr = decoder_.burstAlign(lo);
    DRAMAddr da = decoder_.decode(dp->burstAddr);
    dp->rank = da.rank;
    dp->bank = da.bank;
    dp->row = da.row;
    dp->col = da.col;
    return dp;
}

void
DRAMCtrl::armPowerDown()
{
    if (!cfg_.enablePowerDown || poweredDownAt_ != kMaxTick)
        return;

    // Precharge power-down requires all banks closed; include the time
    // to close any open rows in the entry point. The rows themselves
    // are only given up if the power-down is later confirmed (see
    // exitPowerDown), so a request arriving inside the delay window
    // still enjoys its open pages.
    Tick entry = std::max(curTick(), busBusyUntil_);
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            entry = std::max(entry,
                             std::max(curTick(),
                                      bankPreAllowedAt_[flat]) +
                                 cfg_.timing.tRP);
    }
    poweredDownAt_ = entry + cfg_.powerDownDelay;
    TRACE(Power, "%s: power-down armed for %llu", name().c_str(),
          static_cast<unsigned long long>(poweredDownAt_));
}

Tick
DRAMCtrl::exitPowerDown(Tick now)
{
    if (!cfg_.enablePowerDown || poweredDownAt_ == kMaxTick)
        return 0;
    if (now < poweredDownAt_) {
        // Activity resumed before the entry threshold: disarm.
        poweredDownAt_ = kMaxTick;
        return 0;
    }

    TRACE(Power, "%s: waking from power-down entered at %llu",
          name().c_str(),
          static_cast<unsigned long long>(poweredDownAt_));

    // Power-down confirmed: the idle controller closed its open rows
    // on the way in (retroactively, since the model is lazy).
    for (unsigned flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(bankPreAllowedAt_[flat],
                                   poweredDownAt_ -
                                       cfg_.powerDownDelay));
    }

    // The episode may have deepened into self-refresh.
    Tick sr_at = poweredDownAt_ + cfg_.selfRefreshDelay;
    bool in_sr = cfg_.enableSelfRefresh && now >= sr_at;
    if (in_sr) {
        stats_->powerDownTime +=
            static_cast<double>(sr_at - poweredDownAt_);
        stats_->selfRefreshTime += static_cast<double>(now - sr_at);
        ++stats_->selfRefreshEntries;
    } else {
        stats_->powerDownTime +=
            static_cast<double>(now - poweredDownAt_);
    }
    ++stats_->powerDownEntries;
    poweredDownAt_ = kMaxTick;
    return now + (in_sr ? cfg_.tXS : cfg_.tXP);
}

bool
DRAMCtrl::recvTimingReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "controller received %s",
              pkt->toString().c_str());
    if (!range_.contains(pkt->addr()))
        panic("controller '%s' received misrouted packet %s",
              name().c_str(), pkt->toString().c_str());

    if (cfg_.enablePowerDown) {
        Tick wake = exitPowerDown(curTick());
        if (wake != 0)
            wakeConstraint_ = std::max(wakeConstraint_, wake);
    }

    touchQueueStats();

    Addr local = range_.removeIntlvBits(pkt->addr());
    unsigned pkt_count = burstCountFor(local, pkt->size());

    // A packet spanning more bursts than the whole queue can never be
    // accepted; refusing it would retry forever (a silent deadlock the
    // differential fuzzer once shrank to a single unaligned request).
    // Fail fast and name the knob instead.
    unsigned cap = pkt->isRead() ? cfg_.readBufferSize
                                 : cfg_.writeBufferSize;
    if (pkt_count > cap)
        fatal("%s: %s spans %u bursts but the %s queue only holds %u; "
              "increase %sBufferSize",
              name().c_str(), pkt->toString().c_str(), pkt_count,
              pkt->isRead() ? "read" : "write", cap,
              pkt->isRead() ? "read" : "write");

    if (pkt->isRead()) {
        if (readQueue_.size() + pkt_count > cfg_.readBufferSize) {
            TRACE(DRAMCtrl, "%s: refuse %s, read queue full (%zu)",
                  name().c_str(), pkt->toString().c_str(),
                  readQueue_.size());
            ++stats_->numRdRetry;
            retryReq_ = true;
            return false;
        }
        TRACE(DRAMCtrl, "%s: accept %s (%u bursts)", name().c_str(),
              pkt->toString().c_str(), pkt_count);
        if (auto *ct = obs::chromeTracer())
            ct->beginSpan(name(), pkt->id(),
                          "read " + std::to_string(pkt->addr()),
                          curTick());
        ++stats_->readReqs;
        if (!plugins_.empty())
            plugins_.onEnqueue(
                {true, pkt->addr(), pkt->size(), curTick()});
        addToReadQueue(pkt, local);
    } else {
        if (writeQueue_.size() + pkt_count > cfg_.writeBufferSize) {
            TRACE(DRAMCtrl, "%s: refuse %s, write queue full (%zu)",
                  name().c_str(), pkt->toString().c_str(),
                  writeQueue_.size());
            ++stats_->numWrRetry;
            retryReq_ = true;
            return false;
        }
        TRACE(DRAMCtrl, "%s: accept %s (%u bursts)", name().c_str(),
              pkt->toString().c_str(), pkt_count);
        if (auto *ct = obs::chromeTracer())
            ct->beginSpan(name(), pkt->id(),
                          "write " + std::to_string(pkt->addr()),
                          curTick());
        ++stats_->writeReqs;
        if (!plugins_.empty())
            plugins_.onEnqueue(
                {false, pkt->addr(), pkt->size(), curTick()});
        addToWriteQueue(pkt, local);
        // Early write response (Section II-A): acknowledge as soon as
        // the burst sits in the write queue. The observed latency is
        // pure frontend pipeline, so every DRAM stage is zero.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        accessAndRespond(pkt, cfg_.frontendLatency, curTick());
    }

    if (auto *ct = obs::chromeTracer()) {
        ct->counter(name(), "readQ", curTick(),
                    static_cast<double>(readQueue_.size()));
        ct->counter(name(), "writeQ", curTick(),
                    static_cast<double>(writeQueue_.size()));
    }

    if (!nextReqEvent_.scheduled())
        schedule(nextReqEvent_, std::max(curTick(), nextReqTime_));
    return true;
}

void
DRAMCtrl::recvRespRetry()
{
    respQueue_.retry();
}

DRAMCtrl::DRAMPacket *
DRAMCtrl::findWriteEntry(Addr burst_addr) const
{
    // Burst windows are unique in the write queue (merges coalesce),
    // so a linear scan over the small contiguous queue replaces the
    // old hash map — and with it the per-write node churn.
    for (DRAMPacket *dp : writeQueue_) {
        if (dp->burstAddr == burst_addr)
            return dp;
    }
    return nullptr;
}

void
DRAMCtrl::addToReadQueue(Packet *pkt, Addr local_addr)
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr end = local_addr + pkt->size();
    unsigned pkt_count = burstCountFor(local_addr, pkt->size());
    stats_->readBursts += pkt_count;

    // Pass 1: snoop the write queue (Section II-A): a read fully
    // covered by queued write data is serviced without touching the
    // DRAM. Counting first (instead of buffering new bursts) keeps the
    // enqueue path allocation-free.
    unsigned forwarded = 0;
    for (Addr addr = local_addr; addr < end;) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);
        const DRAMPacket *entry = findWriteEntry(window);
        if (entry != nullptr && entry->lo <= addr && hi <= entry->hi) {
            ++forwarded;
            ++stats_->servicedByWrQ;
        }
        addr = window + burst_size;
    }

    if (forwarded == pkt_count) {
        // Entirely satisfied by the write queue: no DRAM stage ran.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        accessAndRespond(pkt, cfg_.frontendLatency, curTick());
        return;
    }

    BurstHelper *helper = nullptr;
    if (pkt_count > 1) {
        helper = new BurstHelper(pkt_count);
        helper->burstsServiced = forwarded;
    }

    // Pass 2: enqueue the bursts the DRAM must provide.
    for (Addr addr = local_addr; addr < end;) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);
        const DRAMPacket *entry = findWriteEntry(window);
        if (entry == nullptr || entry->lo > addr || hi > entry->hi) {
            DRAMPacket *dp = makeDRAMPacket(pkt, addr, hi, true);
            dp->entryTime = curTick();
            dp->burstHelper = helper;
            readQueue_.push_back(dp);
            noteEnqueued(*dp, true);
        }
        addr = window + burst_size;
    }
}

void
DRAMCtrl::addToWriteQueue(Packet *pkt, Addr local_addr)
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr addr = local_addr;
    Addr end = local_addr + pkt->size();
    stats_->writeBursts += burstCountFor(local_addr, pkt->size());

    while (addr < end) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);

        DRAMPacket *entry = findWriteEntry(window);
        if (entry != nullptr) {
            // Merge into the queued burst (Section II-A). The byte
            // coverage is tracked as a hull; this is a timing model, so
            // gaps inside the hull only make read forwarding slightly
            // optimistic.
            entry->lo = std::min(entry->lo, addr);
            entry->hi = std::max(entry->hi, hi);
            ++stats_->mergedWrBursts;
        } else {
            DRAMPacket *dp = makeDRAMPacket(nullptr, addr, hi, false);
            dp->entryTime = curTick();
            writeQueue_.push_back(dp);
            noteEnqueued(*dp, false);
        }
        addr = window + burst_size;
    }
}

void
DRAMCtrl::noteEnqueued(const DRAMPacket &pkt, bool is_read)
{
    unsigned flat = pkt.rank * cfg_.org.banksPerRank + pkt.bank;
    DC_ASSERT(pkt.row < (std::uint64_t(1) << kRowKeyBits),
              "row index exceeds the packed key width");
    (is_read ? rdKeys_ : wrKeys_).push_back(packKey(flat, pkt.row));
    if (is_read)
        ++rdBankCounts_[flat];
    else
        ++wrBankCounts_[flat];
    if (bankOpenRow_[flat] == pkt.row) {
        bool usable = !starvedHits_[flat];
        if (is_read) {
            ++rdRowHitCounts_[flat];
            if (usable)
                ++rdRowHitTotal_;
        } else {
            ++wrRowHitCounts_[flat];
            if (usable)
                ++wrRowHitTotal_;
        }
    }
}

void
DRAMCtrl::noteDequeued(const DRAMPacket &pkt, bool is_read)
{
    unsigned flat = pkt.rank * cfg_.org.banksPerRank + pkt.bank;
    if (is_read)
        --rdBankCounts_[flat];
    else
        --wrBankCounts_[flat];
    if (bankOpenRow_[flat] == pkt.row) {
        bool usable = !starvedHits_[flat];
        if (is_read) {
            --rdRowHitCounts_[flat];
            if (usable)
                --rdRowHitTotal_;
        } else {
            --wrRowHitCounts_[flat];
            if (usable)
                --wrRowHitTotal_;
        }
    }
}

void
DRAMCtrl::rowClosed(unsigned flat_bank)
{
    if (!starvedHits_[flat_bank]) {
        rdRowHitTotal_ -= rdRowHitCounts_[flat_bank];
        wrRowHitTotal_ -= wrRowHitCounts_[flat_bank];
    }
    rdRowHitCounts_[flat_bank] = 0;
    wrRowHitCounts_[flat_bank] = 0;
    starvedHits_[flat_bank] = 0;
}

void
DRAMCtrl::rowOpened(unsigned rank, unsigned bank, std::uint64_t row)
{
    unsigned flat = rank * cfg_.org.banksPerRank + bank;
    DC_ASSERT(rdRowHitCounts_[flat] == 0 && wrRowHitCounts_[flat] == 0,
              "row opened over stale hit counts");
    DC_ASSERT(!starvedHits_[flat], "row opened on a starved bank");
    if (rdBankCounts_[flat] == 0 && wrBankCounts_[flat] == 0)
        return;
    std::uint64_t key = packKey(flat, row);
    auto rd = rdBankCounts_[flat] == 0
                  ? 0
                  : static_cast<std::uint32_t>(
                        std::count(rdKeys_.begin(), rdKeys_.end(), key));
    auto wr = wrBankCounts_[flat] == 0
                  ? 0
                  : static_cast<std::uint32_t>(
                        std::count(wrKeys_.begin(), wrKeys_.end(), key));
    rdRowHitCounts_[flat] = rd;
    wrRowHitCounts_[flat] = wr;
    rdRowHitTotal_ += rd;
    wrRowHitTotal_ += wr;
}

Tick
DRAMCtrl::activationWindowConstraint(const Rank &rank,
                                     Tick act_tick) const
{
    unsigned limit = cfg_.timing.activationLimit;
    if (limit == 0 || rank.actWindow.size() < limit)
        return act_tick;
    return std::max(act_tick, rank.actWindow.front() + cfg_.timing.tXAW);
}

void
DRAMCtrl::recordActivate(Rank &rank, Tick act_tick)
{
    rank.nextActAt = std::max(rank.nextActAt,
                              act_tick + cfg_.timing.tRRD);
    // The ring is sized to the activation limit, so overwriting the
    // oldest launch tick is exactly the old push-then-trim.
    if (cfg_.timing.activationLimit > 0)
        rank.actWindow.push_back_overwrite(act_tick);
    invalidateRank(static_cast<unsigned>(&rank - ranks_.data()));
}

void
DRAMCtrl::prechargeBank(unsigned flat, Tick pre_tick)
{
    DC_ASSERT(bankOpenRow_[flat] != kNoRow,
              "precharging a closed bank");
    logCmd(pre_tick, DRAMCmd::Pre, flat / cfg_.org.banksPerRank,
           flat % cfg_.org.banksPerRank);
    rowClosed(flat);
    invalidateBank(flat);
    bankOpenRow_[flat] = kNoRow;
    bankRowAccesses_[flat] = 0;
    Tick pre_done = pre_tick + cfg_.timing.tRP;
    bankActAllowedAt_[flat] =
        std::max(bankActAllowedAt_[flat], pre_done);
    refNotBefore_ = std::max(refNotBefore_, pre_done);
    ++stats_->numPrecharges;
    bankPrecharged(pre_done);
    if (auto *ct = obs::chromeTracer()) {
        ct->counter(name(), "openBanks", pre_done,
                    static_cast<double>(numBanksActive_));
        ct->counter(name() + ".banks", "bank" + std::to_string(flat),
                    pre_done, 0.0);
    }
}

Tick
DRAMCtrl::pracMitigate(unsigned flat_bank, unsigned rank, unsigned bank,
                       Tick act_from)
{
    if (pracPlugin_ == nullptr ||
        !pracPlugin_->mitigationPending(flat_bank) || testSkipPrac_)
        return act_from;
    // The mitigation refresh targets the (closed) bank: @p act_from
    // already covers tRP after any precharge, so it doubles as the
    // earliest legal REFm launch. The RefM record clears the plugin's
    // pending flag as it flows through onCommand.
    Tick ref_at = act_from;
    logCmd(ref_at, DRAMCmd::RefM, rank, bank);
    invalidateBank(flat_bank);
    return ref_at + pracPlugin_->tRFM();
}

void
DRAMCtrl::bankActivated(Tick act_tick)
{
    if (numBanksActive_ == 0 && act_tick > allBanksPreSince_)
        stats_->prechargeAllTime += static_cast<double>(
            act_tick - allBanksPreSince_);
    ++numBanksActive_;
}

void
DRAMCtrl::bankPrecharged(Tick pre_done_tick)
{
    DC_ASSERT(numBanksActive_ > 0, "precharge with no active banks");
    --numBanksActive_;
    if (numBanksActive_ == 0)
        allBanksPreSince_ = pre_done_tick;
}

Tick
DRAMCtrl::estimateReadyTick(const DRAMPacket &pkt) const
{
    unsigned flat = flatIdx(pkt.rank, pkt.bank);
    if (bankOpenRow_[flat] == pkt.row)
        return std::max(colAllowedAt(flat), curTick());

    return estimateBankReady(pkt.rank, pkt.bank);
}

Tick
DRAMCtrl::estimateBankReady(unsigned rank_idx, unsigned bank_idx) const
{
    const Rank &rank = ranks_[rank_idx];

    // The miss estimate max-distributes into a state-dependent part
    // (cacheable per bank) and a curTick-relative floor:
    //   conflict: max(preAllowedAt + tRP, nextActAt, tXAW) + tRCD
    //             vs now + tRP + tRCD
    //   closed:   max(actAllowedAt, nextActAt, tXAW) + tRCD
    //             vs now + tRCD
    // The cached part survives until the owning bank or rank mutates
    // (generation counters), so a scheduling scan computes each bank's
    // estimate once no matter how many queued bursts target it.
    unsigned flat = rank_idx * cfg_.org.banksPerRank + bank_idx;
    ReadyCache &rc = readyCache_[flat];
    std::uint64_t tag = bankGen_[flat] + rankGen_[rank_idx] + 1;
    if (rc.tag != tag) {
        const DRAMTiming &t = cfg_.timing;
        Tick awc = 0;
        unsigned limit = t.activationLimit;
        if (limit != 0 && rank.actWindow.size() >= limit)
            awc = rank.actWindow.front() + t.tXAW;
        // Same-group activate spacing (tRRD_L) is rank state for cache
        // purposes: recordActivate bumps it and invalidates the rank.
        Tick grp_act =
            hasBankGroups_ ? grpNextActAt_[grpIdx(flat)] : 0;
        if (bankOpenRow_[flat] != kNoRow) {
            rc.base = std::max({bankPreAllowedAt_[flat] + t.tRP,
                                rank.nextActAt, grp_act, awc}) +
                      t.tRCD;
            rc.nowOffset = t.tRP + t.tRCD;
        } else {
            rc.base = std::max({bankActAllowedAt_[flat],
                                rank.nextActAt, grp_act, awc}) +
                      t.tRCD;
            rc.nowOffset = t.tRCD;
        }
        rc.tag = tag;
    }
    return std::max(rc.base, curTick() + rc.nowOffset);
}

unsigned
DRAMCtrl::priorityOf(const DRAMPacket &pkt) const
{
    if (cfg_.schedPolicy != SchedPolicy::FrFcfsPrio)
        return 0;
    if (pkt.requestorId < cfg_.requestorPriorities.size())
        return cfg_.requestorPriorities[pkt.requestorId];
    return 0;
}

std::vector<DRAMCtrl::DRAMPacket *>::iterator
DRAMCtrl::chooseNext(std::vector<DRAMPacket *> &queue)
{
    DC_ASSERT(!queue.empty(), "choosing from an empty queue");

    if (cfg_.schedPolicy == SchedPolicy::Fcfs || queue.size() == 1)
        return queue.begin();

    // Plain FR-FCFS has two counter-driven fast paths.
    if (cfg_.schedPolicy == SchedPolicy::FrFcfs) {
        const bool is_read = &queue == &readQueue_;
        unsigned hits = is_read ? rdRowHitTotal_ : wrRowHitTotal_;
        if (hits > 0) {
            // The totals say a usable (non-starved) hit is queued: the
            // winner is the oldest one, no ready ticks needed.
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                const DRAMPacket &dp = **it;
                unsigned flat = flatIdx(dp.rank, dp.bank);
                if (bankOpenRow_[flat] == dp.row &&
                    !starvedHits_[flat])
                    return it;
            }
            DC_ASSERT(false, "row-hit counter out of sync");
        } else {
            // No usable hits, so every entry's estimate is a pure
            // function of its bank: queued hits can only sit on
            // starved banks, where they all share the column-path
            // estimate, and misses share the bank's activate
            // estimate. Take the minimum over banks that have queued
            // bursts here (far fewer than queue entries), then return
            // the oldest burst achieving it — exactly what the
            // entry-by-entry scan selects.
            const auto &bank_counts =
                is_read ? rdBankCounts_ : wrBankCounts_;
            const auto &hit_counts =
                is_read ? rdRowHitCounts_ : wrRowHitCounts_;
            const unsigned nbanks = cfg_.org.banksPerRank;
            const Tick now = curTick();
            Tick best_ready = kMaxTick;
            for (unsigned flat = 0; flat < bank_counts.size();
                 ++flat) {
                if (bank_counts[flat] == 0)
                    continue;
                if (hit_counts[flat] > 0)
                    best_ready = std::min(
                        best_ready,
                        std::max(colAllowedAt(flat), now));
                if (bank_counts[flat] > hit_counts[flat])
                    best_ready =
                        std::min(best_ready,
                                 estimateBankReady(flat / nbanks,
                                                   flat % nbanks));
            }
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                const DRAMPacket &dp = **it;
                unsigned flat = flatIdx(dp.rank, dp.bank);
                // Bank estimates were cached by the pass above.
                Tick est =
                    bankOpenRow_[flat] == dp.row
                        ? std::max(colAllowedAt(flat), now)
                        : estimateBankReady(dp.rank, dp.bank);
                if (est == best_ready)
                    return it;
            }
            DC_ASSERT(false, "no burst matches the minimum estimate");
        }
    }

    // FR-FCFS: prefer the oldest row hit; otherwise the request whose
    // bank is ready first (Section II-C). The QoS variant searches
    // priority tier by tier, so a high-priority conflict beats a
    // low-priority row hit.
    const bool prio_sched = cfg_.schedPolicy == SchedPolicy::FrFcfsPrio;
    auto best = queue.end();
    auto best_hit = queue.end();
    Tick best_ready = kMaxTick;
    unsigned best_prio = 0;
    unsigned best_hit_prio = 0;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const DRAMPacket &dp = **it;
        unsigned flat = flatIdx(dp.rank, dp.bank);
        unsigned prio = priorityOf(dp);
        bool row_hit = bankOpenRow_[flat] == dp.row;
        bool starved =
            cfg_.maxAccessesPerRow > 0 &&
            bankRowAccesses_[flat] >= cfg_.maxAccessesPerRow;
        if (row_hit && !starved) {
            if (!prio_sched)
                return it; // plain FR-FCFS: oldest row hit wins
            if (best_hit == queue.end() || prio > best_hit_prio) {
                best_hit = it;
                best_hit_prio = prio;
                // A hit at the top tier wins outright: later hits only
                // displace it at strictly higher priority, and a
                // non-hit only wins at strictly higher priority.
                if (best_hit_prio >= maxReqPriority_)
                    return best_hit;
            }
            continue;
        }
        // A non-hit at or below the best queued hit's tier can never
        // be selected; skip its ready-tick estimate entirely.
        if (prio_sched && best_hit != queue.end() &&
            prio <= best_hit_prio)
            continue;
        Tick ready = estimateReadyTick(dp);
        if (best == queue.end() || prio > best_prio ||
            (prio == best_prio && ready < best_ready)) {
            best_ready = ready;
            best = it;
            best_prio = prio;
        }
    }

    if (best_hit != queue.end() &&
        (best == queue.end() || best_hit_prio >= best_prio))
        return best_hit;
    return best;
}

void
DRAMCtrl::doDRAMAccess(DRAMPacket *pkt)
{
    const DRAMTiming &t = cfg_.timing;
    Rank &rank = ranks_[pkt->rank];
    const unsigned flat_bank = flatIdx(pkt->rank, pkt->bank);

    bool row_hit = bankOpenRow_[flat_bank] == pkt->row;
    if (!row_hit) {
        if (bankOpenRow_[flat_bank] != kNoRow)
            prechargeBank(flat_bank,
                          std::max(curTick(),
                                   bankPreAllowedAt_[flat_bank]));

        Tick act = std::max({curTick(), bankActAllowedAt_[flat_bank],
                             rank.nextActAt, wakeConstraint_});
        if (hasBankGroups_)
            act = std::max(act, grpNextActAt_[grpIdx(flat_bank)]);
        // A pending RowHammer mitigation must land before this ACT.
        act = pracMitigate(flat_bank, pkt->rank, pkt->bank, act);
        act = activationWindowConstraint(rank, act);
        recordActivate(rank, act);
        // Same-group activates additionally respect tRRD_L; the rank
        // invalidation recordActivate just did covers this mutation
        // for the ready cache.
        if (hasBankGroups_) {
            Tick &g = grpNextActAt_[grpIdx(flat_bank)];
            g = std::max(g, act + t.tRRDLong());
        }
        bankActivated(act);
        ++stats_->numActs;
        logCmd(act, DRAMCmd::Act, pkt->rank, pkt->bank, pkt->row);

        bankOpenRow_[flat_bank] = pkt->row;
        bankRowAccesses_[flat_bank] = 0;
        bankColAllowedAt_[flat_bank] = act + t.tRCD;
        bankPreAllowedAt_[flat_bank] = act + t.tRAS;
        rowOpened(pkt->rank, pkt->bank, pkt->row);
        if (auto *ct = obs::chromeTracer()) {
            ct->counter(name(), "openBanks", act,
                        static_cast<double>(numBanksActive_));
            ct->counter(name() + ".banks",
                        "bank" + std::to_string(flat_bank), act, 1.0);
        }
    }

    // Column access: constrained by the bank, the shared data bus, and
    // the read/write turnaround timings (Section II-B). The three
    // intermediate ticks are the attribution stamps: bank_ready is
    // when the bank alone would let the column command go, cmd_at is
    // when it actually goes (turnaround/wake stalls on top), and
    // data_start is when the bus is free for the data.
    Tick bank_ready = std::max(colAllowedAt(flat_bank), curTick());
    Tick cmd_at;
    Tick data_start;
    if (pkt->isRead) {
        cmd_at = std::max({bank_ready, nextRdCmdAt_, wakeConstraint_});
        data_start = std::max(cmd_at + t.tCL, busBusyUntil_);
    } else {
        cmd_at = std::max(bank_ready, wakeConstraint_);
        data_start = std::max({cmd_at + t.tCL, busBusyUntil_,
                               nextWrDataAt_});
    }
    Tick data_done = data_start + t.tBURST;
    busBusyUntil_ = data_done;
    pkt->readyTime = data_done;
    if (auto *ct = obs::chromeTracer()) {
        // Bus-occupancy counter track: 1 while a burst's data is on
        // the wire. Back-to-back bursts toggle at the same tick.
        ct->counter(name(), "busBusy", data_start, 1.0);
        ct->counter(name(), "busBusy", data_done, 0.0);
    }
    TRACE(DRAMCtrl,
          "%s: %s burst rank %u bank %u row %llu %s, data %llu-%llu",
          name().c_str(), pkt->isRead ? "RD" : "WR", pkt->rank,
          pkt->bank, static_cast<unsigned long long>(pkt->row),
          row_hit ? "hit" : "miss",
          static_cast<unsigned long long>(data_start),
          static_cast<unsigned long long>(data_done));
    logCmd(data_start - t.tCL,
           pkt->isRead ? DRAMCmd::Rd : DRAMCmd::Wr, pkt->rank,
           pkt->bank, pkt->row);
    if (!plugins_.empty())
        plugins_.onBurstComplete({pkt->isRead, pkt->rank, pkt->bank,
                                  pkt->row, pkt->col, data_done});

    if (pkt->isRead) {
        nextWrDataAt_ = std::max(nextWrDataAt_, data_done + t.tRTW);
        bankPreAllowedAt_[flat_bank] =
            std::max(bankPreAllowedAt_[flat_bank], data_done);
    } else {
        nextRdCmdAt_ = std::max(nextRdCmdAt_, data_done + t.tWTR);
        bankPreAllowedAt_[flat_bank] =
            std::max(bankPreAllowedAt_[flat_bank], data_done + t.tWR);
    }
    lastBurstWasRead_ = pkt->isRead;

    // The burst occupies the bank's column path for tBURST (tCCD).
    // With bank groups the *effective* command tick (data_start - tCL,
    // the tick logCmd stamped) additionally blocks the whole group for
    // tCCD_L and the channel for tCCD_S; without groups both collapse
    // into the per-bank tBURST term below.
    Tick eff_cmd = data_start - t.tCL;
    bankColAllowedAt_[flat_bank] =
        std::max(bankColAllowedAt_[flat_bank],
                 eff_cmd + t.tCCDLong());
    if (hasBankGroups_) {
        Tick &g = grpColAllowedAt_[grpIdx(flat_bank)];
        g = std::max(g, eff_cmd + t.tCCDLong());
        nextColAllowedAt_ =
            std::max(nextColAllowedAt_, eff_cmd + t.tCCDShort());
    }
    ++bankRowAccesses_[flat_bank];

    invalidateBank(flat_bank);

    // Crossing the per-row access limit demotes this bank's queued
    // hits: FR-FCFS must now treat them as conflicts, so they leave
    // the usable-hit totals (the raw counts stay, the page policy
    // still wants them).
    if (cfg_.maxAccessesPerRow > 0 && !starvedHits_[flat_bank] &&
        bankRowAccesses_[flat_bank] >= cfg_.maxAccessesPerRow) {
        starvedHits_[flat_bank] = 1;
        rdRowHitTotal_ -= rdRowHitCounts_[flat_bank];
        wrRowHitTotal_ -= wrRowHitCounts_[flat_bank];
    }

    std::uint64_t burst_size = cfg_.org.burstSize();
    if (pkt->isRead) {
        if (row_hit)
            ++stats_->readRowHits;
        stats_->perBankRdBursts[flat_bank] += 1;
        stats_->bytesRead += static_cast<double>(burst_size);
        stats_->totQLat += static_cast<double>(curTick() -
                                               pkt->entryTime);
        stats_->totSvcLat += static_cast<double>(data_done - curTick());
        stats_->totMemAccLat += static_cast<double>(data_done -
                                                    pkt->entryTime);
        stats_->readLatencyHist.sample(
            toNs(data_done - pkt->entryTime + cfg_.frontendLatency +
                 cfg_.backendLatency));

        // Attribution span: the stamps above decompose exactly the
        // latency readLatencyHist just sampled. For a chopped packet
        // every burst overwrites the span; the burst that completes
        // the response (the last one, since data_done is monotonic on
        // the shared bus) is the one the requestor sees.
        stats::LatencySpan span;
        span.enqueue = pkt->entryTime;
        span.pick = curTick();
        span.bankReady = bank_ready;
        span.issue = cmd_at;
        span.burstStart = data_start;
        span.done = data_done;
        span.staticLat = cfg_.frontendLatency + cfg_.backendLatency;
        span.valid = true;
        stats_->lat.record(span);
        if (pkt->pkt != nullptr)
            pkt->pkt->setSpan(span);
    } else {
        if (row_hit)
            ++stats_->writeRowHits;
        stats_->perBankWrBursts[flat_bank] += 1;
        stats_->bytesWritten += static_cast<double>(burst_size);
    }

    applyPagePolicy(*pkt);
}

bool
DRAMCtrl::queuedRowHits(unsigned rank, unsigned bank,
                        std::uint64_t row) const
{
    // When asking about the currently open row (the page-policy case)
    // the maintained hit counters already hold the answer.
    if (bankOpenRow_[flatIdx(rank, bank)] == row) {
        unsigned flat = flatIdx(rank, bank);
        return rdRowHitCounts_[flat] + wrRowHitCounts_[flat] > 0;
    }
    auto match = [&](const DRAMPacket *dp) {
        return dp->rank == rank && dp->bank == bank && dp->row == row;
    };
    return std::any_of(readQueue_.begin(), readQueue_.end(), match) ||
           std::any_of(writeQueue_.begin(), writeQueue_.end(), match);
}

bool
DRAMCtrl::queuedBankConflicts(unsigned rank, unsigned bank,
                              std::uint64_t row) const
{
    // Queued-for-this-bank minus queued-for-the-open-row leaves the
    // conflicting entries, again counter-only for the open row.
    if (bankOpenRow_[flatIdx(rank, bank)] == row) {
        unsigned flat = flatIdx(rank, bank);
        return (rdBankCounts_[flat] - rdRowHitCounts_[flat]) +
                   (wrBankCounts_[flat] - wrRowHitCounts_[flat]) >
               0;
    }
    auto conflict = [&](const DRAMPacket *dp) {
        return dp->rank == rank && dp->bank == bank && dp->row != row;
    };
    return std::any_of(readQueue_.begin(), readQueue_.end(), conflict) ||
           std::any_of(writeQueue_.begin(), writeQueue_.end(), conflict);
}

void
DRAMCtrl::applyPagePolicy(const DRAMPacket &pkt)
{
    const unsigned flat = flatIdx(pkt.rank, pkt.bank);
    DC_ASSERT(bankOpenRow_[flat] == pkt.row, "page policy on stale row");

    bool auto_precharge = false;
    switch (cfg_.pagePolicy) {
      case PagePolicy::Closed:
        auto_precharge = true;
        break;
      case PagePolicy::ClosedAdaptive:
        // Keep the row open only when more accesses to it are queued.
        auto_precharge = !queuedRowHits(pkt.rank, pkt.bank, pkt.row);
        break;
      case PagePolicy::Open:
        break;
      case PagePolicy::OpenAdaptive:
        // Close early when a conflicting access waits and nothing more
        // wants this row.
        auto_precharge =
            queuedBankConflicts(pkt.rank, pkt.bank, pkt.row) &&
            !queuedRowHits(pkt.rank, pkt.bank, pkt.row);
        break;
    }

    if (auto_precharge)
        prechargeBank(flat,
                      std::max(curTick(), bankPreAllowedAt_[flat]));
}

void
DRAMCtrl::accessAndRespond(Packet *pkt, Tick static_latency,
                           Tick ready_time)
{
    pkt->makeResponse();
    respQueue_.schedSendResp(pkt, std::max(curTick(), ready_time) +
                                      static_latency);
}

void
DRAMCtrl::retryBlockedReq()
{
    if (retryReq_) {
        retryReq_ = false;
        port_.sendReqRetry();
    }
}

void
DRAMCtrl::touchQueueStats()
{
    Tick now = curTick();
    if (now > lastQStatUpdate_) {
        double dt = static_cast<double>(now - lastQStatUpdate_);
        stats_->rdQOccupancyTicks +=
            static_cast<double>(readQueue_.size()) * dt;
        stats_->wrQOccupancyTicks +=
            static_cast<double>(writeQueue_.size()) * dt;
    }
    lastQStatUpdate_ = now;
}

void
DRAMCtrl::processNextReqEvent()
{
    const auto low_entries = static_cast<std::size_t>(
        cfg_.writeLowThreshold * cfg_.writeBufferSize);
    const auto high_entries = static_cast<std::size_t>(
        cfg_.writeHighThreshold * cfg_.writeBufferSize);

    // Stage 1: read/write switching (Section II-C write drain mode).
    if (busState_ == BusState::Read) {
        bool switch_to_writes = false;
        if (writeQueue_.size() >= high_entries) {
            // Forced switch at the high watermark.
            switch_to_writes = true;
        } else if (readQueue_.empty() && !writeQueue_.empty() &&
                   writeQueue_.size() >= low_entries) {
            // No reads pending: drain from the low watermark.
            switch_to_writes = true;
        }
        if (switch_to_writes) {
            if (readsThisTime_ > 0)
                stats_->rdPerTurnAround.sample(readsThisTime_);
            readsThisTime_ = 0;
            busState_ = BusState::Write;
        }
    } else {
        bool switch_to_reads = false;
        if (writeQueue_.empty()) {
            switch_to_reads = true;
        } else if (!readQueue_.empty() &&
                   writesThisTime_ >= cfg_.minWritesPerSwitch &&
                   writeQueue_.size() < low_entries) {
            // Drained the minimum burst of writes and dropped below the
            // low watermark with reads waiting: switch back.
            switch_to_reads = true;
        }
        if (switch_to_reads) {
            if (writesThisTime_ > 0)
                stats_->wrPerTurnAround.sample(writesThisTime_);
            writesThisTime_ = 0;
            busState_ = BusState::Read;
        }
    }

    // Stage 2: service one burst in the current direction.
    touchQueueStats();
    bool serviced = false;
    if (busState_ == BusState::Read) {
        if (!readQueue_.empty()) {
            auto it = chooseNext(readQueue_);
            DRAMPacket *pkt = *it;
            noteDequeued(*pkt, true);
            rdKeys_.erase(rdKeys_.begin() + (it - readQueue_.begin()));
            readQueue_.erase(it);
            doDRAMAccess(pkt);
            ++readsThisTime_;
            serviced = true;

            if (pkt->burstHelper) {
                ++pkt->burstHelper->burstsServiced;
                if (pkt->burstHelper->burstsServiced ==
                    pkt->burstHelper->burstCount) {
                    accessAndRespond(pkt->pkt,
                                     cfg_.frontendLatency +
                                         cfg_.backendLatency,
                                     pkt->readyTime);
                    delete pkt->burstHelper;
                }
            } else {
                accessAndRespond(pkt->pkt,
                                 cfg_.frontendLatency +
                                     cfg_.backendLatency,
                                 pkt->readyTime);
            }
            delete pkt;
            retryBlockedReq();
        }
    } else {
        if (!writeQueue_.empty()) {
            auto it = chooseNext(writeQueue_);
            DRAMPacket *pkt = *it;
            noteDequeued(*pkt, false);
            wrKeys_.erase(wrKeys_.begin() + (it - writeQueue_.begin()));
            writeQueue_.erase(it);
            doDRAMAccess(pkt);
            ++writesThisTime_;
            serviced = true;
            delete pkt;
            retryBlockedReq();
        }
    }

    (void)serviced;

    // Stage 3: decide whether and when to wake up again. Writes parked
    // below the low watermark with no reads pending are intentionally
    // not actionable: they stay on chip until more traffic arrives
    // (Section II-C). The wake-up is early enough that the worst-case
    // bank preparation (precharge + activate + column) for the next
    // burst can overlap the tail of the current data transfer.
    bool actionable =
        !readQueue_.empty() ||
        (busState_ == BusState::Write && !writeQueue_.empty()) ||
        (!writeQueue_.empty() &&
         writeQueue_.size() >= std::max<std::size_t>(low_entries, 1));

    Tick prep = cfg_.timing.tRP + cfg_.timing.tRCD + cfg_.timing.tCL;
    nextReqTime_ = busBusyUntil_ > prep ? busBusyUntil_ - prep : 0;

    if (actionable && !nextReqEvent_.scheduled())
        schedule(nextReqEvent_, std::max(curTick(), nextReqTime_));
    else if (!actionable)
        armPowerDown();
}

void
DRAMCtrl::refreshRank(unsigned rank_idx)
{
    const DRAMTiming &t = cfg_.timing;

    // Only this rank's banks must be closed; the bus must be quiet so
    // no in-flight data to this rank overlaps the refresh (shared-bus
    // conservatism: transfers to other ranks also push this out).
    const unsigned lo = rank_idx * cfg_.org.banksPerRank;
    const unsigned hi = lo + cfg_.org.banksPerRank;
    Tick start = std::max(curTick(), busBusyUntil_);
    for (unsigned flat = lo; flat < hi; ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            start = std::max(start, bankPreAllowedAt_[flat]);
    }
    for (unsigned flat = lo; flat < hi; ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(start, bankPreAllowedAt_[flat]));
    }
    start = std::max(start, refNotBefore_);

    Tick done = start + t.tRFC;
    TRACE(Refresh, "%s: REF rank %u at %llu, done %llu",
          name().c_str(), rank_idx,
          static_cast<unsigned long long>(start),
          static_cast<unsigned long long>(done));
    logCmd(start, DRAMCmd::Ref, rank_idx, 0);
    for (unsigned flat = lo; flat < hi; ++flat)
        bankActAllowedAt_[flat] = std::max(bankActAllowedAt_[flat],
                                           done);
    invalidateRank(rank_idx);
    ++stats_->numRefreshes;
}

void
DRAMCtrl::processPerBankRefreshEvent()
{
    // refmgr-pb mode: one REFpb per rank each interval, rotating
    // through the banks so every bank refreshes once per tREFI. Only
    // the target bank needs to be closed — the rest of the rank keeps
    // serving requests, which is the whole point of per-bank refresh.
    const unsigned bank = refMgr_->advance();
    for (unsigned r = 0; r < ranks_.size(); ++r) {
        const unsigned flat = flatIdx(r, bank);
        if (flat == testStallRefPbFlat_)
            continue; // fault injection: starve this bank
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(curTick(),
                                   bankPreAllowedAt_[flat]));
        // bankActAllowedAt_ covers tRP after the precharge, so it is
        // also the earliest legal REFpb launch.
        Tick ref_at = std::max(curTick(), bankActAllowedAt_[flat]);
        logCmd(ref_at, DRAMCmd::RefPb, r, bank);
        Tick busy = static_cast<Tick>(
            static_cast<double>(refMgr_->tRFCpb()) * testTRFCpbScale_);
        bankActAllowedAt_[flat] =
            std::max(bankActAllowedAt_[flat], ref_at + busy);
        invalidateBank(flat);
        ++stats_->numRefreshes;
    }
    nextRefreshAt_ += refMgr_->interval(cfg_);
    schedule(refreshEvent_, std::max(nextRefreshAt_, curTick() + 1));
}

void
DRAMCtrl::processRefreshEvent()
{
    const DRAMTiming &t = cfg_.timing;

    if (refMgr_ && refMgr_->perBank()) {
        processPerBankRefreshEvent();
        return;
    }

    // A device in self-refresh refreshes itself: the controller skips
    // its REF and just keeps the schedule ticking.
    if (cfg_.enableSelfRefresh && poweredDownAt_ != kMaxTick &&
        curTick() >= poweredDownAt_ + cfg_.selfRefreshDelay) {
        Tick refi = cfg_.effectiveREFI();
        if (cfg_.perRankRefresh) {
            for (Tick &due : rankRefreshDue_) {
                while (due <= curTick())
                    due += refi;
            }
            schedule(refreshEvent_,
                     *std::min_element(rankRefreshDue_.begin(),
                                       rankRefreshDue_.end()));
        } else {
            nextRefreshAt_ += refi;
            schedule(refreshEvent_,
                     std::max(nextRefreshAt_, curTick() + 1));
        }
        return;
    }

    // A refresh does not end a power-down episode: a real controller
    // briefly raises CKE, refreshes the (already closed) banks and
    // drops back to sleep — the lazy power-down state carries across,
    // which is also what lets a long episode deepen into self-refresh.
    if (cfg_.perRankRefresh) {
        Tick refi = cfg_.effectiveREFI();
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
            if (curTick() >= rankRefreshDue_[r]) {
                refreshRank(static_cast<unsigned>(r));
                rankRefreshDue_[r] += refi;
            }
        }
        if (cfg_.enablePowerDown && readQueue_.empty() &&
            writeQueue_.empty())
            armPowerDown();
        Tick next = *std::min_element(rankRefreshDue_.begin(),
                                      rankRefreshDue_.end());
        schedule(refreshEvent_, std::max(next, curTick() + 1));
        return;
    }

    // All banks must be precharged and the data bus quiet before the
    // refresh can launch (Section II-B: refreshes cause latency spikes).
    Tick start = std::max({curTick(), busBusyUntil_, wakeConstraint_});
    bool any_open = false;
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow) {
            any_open = true;
            start = std::max(start, bankPreAllowedAt_[flat]);
        }
    }

    if (any_open) {
        for (unsigned flat = 0; flat < bankOpenRow_.size(); ++flat) {
            if (bankOpenRow_[flat] != kNoRow)
                prechargeBank(flat,
                              std::max(start,
                                       bankPreAllowedAt_[flat]));
        }
    } else if (numBanksActive_ == 0) {
        // Idle window up to the refresh: account precharge-standby time
        // and restart accounting after the refresh completes.
        Tick quiet_until = std::max(start, refNotBefore_);
        if (quiet_until > allBanksPreSince_)
            stats_->prechargeAllTime += static_cast<double>(
                quiet_until - allBanksPreSince_);
    }

    // The refresh launches tRP after the last precharge anywhere —
    // including the drain precharges just issued (prechargeBank folded
    // their completion into refNotBefore_).
    start = std::max(start, refNotBefore_);

    Tick done = start + t.tRFC;
    TRACE(Refresh, "%s: REF all %zu ranks at %llu, done %llu",
          name().c_str(), ranks_.size(),
          static_cast<unsigned long long>(start),
          static_cast<unsigned long long>(done));
    for (unsigned r = 0; r < ranks_.size(); ++r) {
        logCmd(start, DRAMCmd::Ref, r, 0);
        invalidateRank(r);
    }
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat)
        bankActAllowedAt_[flat] = std::max(bankActAllowedAt_[flat],
                                           done);
    allBanksPreSince_ = done;
    ++stats_->numRefreshes;

    // Arm power-down after the refresh if nothing is pending (an
    // already-running episode is left untouched so it can deepen into
    // self-refresh).
    if (cfg_.enablePowerDown && poweredDownAt_ == kMaxTick &&
        readQueue_.empty() && writeQueue_.empty())
        poweredDownAt_ = done + cfg_.powerDownDelay;

    nextRefreshAt_ += cfg_.effectiveREFI();
    schedule(refreshEvent_, std::max(nextRefreshAt_, curTick() + 1));
}

} // namespace dramctrl
