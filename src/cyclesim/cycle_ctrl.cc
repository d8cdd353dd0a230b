#include "cyclesim/cycle_ctrl.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace cyclesim {

CycleDRAMCtrl::CtrlStats::CtrlStats(CycleDRAMCtrl &ctrl)
    : readReqs(&ctrl.statGroup(), "readReqs", "read requests accepted"),
      writeReqs(&ctrl.statGroup(), "writeReqs",
                "write requests accepted"),
      readBursts(&ctrl.statGroup(), "readBursts", "read bursts"),
      writeBursts(&ctrl.statGroup(), "writeBursts", "write bursts"),
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
      numRetries(&ctrl.statGroup(), "numRetries",
                 "requests refused on a full transaction queue"),
      totMemAccLat(&ctrl.statGroup(), "totMemAccLat",
                   "total read access time (ticks)"),
      prechargeAllTime(&ctrl.statGroup(), "prechargeAllTime",
                       "time with every bank precharged (ticks)"),
      numCycles(&ctrl.statGroup(), "numCycles",
                "DRAM clock cycles simulated"),
      rowHitRate(&ctrl.statGroup(), "rowHitRate",
                 "fraction of bursts hitting an open row",
                 [this] {
                     double n = readBursts.value() + writeBursts.value();
                     return n > 0 ? (readRowHits.value() +
                                     writeRowHits.value()) /
                                        n
                                  : 0.0;
                 }),
      busUtil(&ctrl.statGroup(), "busUtil",
              "data bus utilisation, both directions",
              [&ctrl] { return ctrl.busUtilisation(); }),
      lat(&ctrl.statGroup(), "lat", "read")
{
}

CycleDRAMCtrl::CycleDRAMCtrl(Simulator &sim, std::string name,
                             DRAMCtrlConfig config, AddrRange range,
                             unsigned cmd_queue_depth)
    : MemCtrlBase(sim, std::move(name)), cfg_(config), range_(range),
      decoder_(cfg_.org, cfg_.addrMapping), ct_(cfg_.timing),
      port_(this->name() + ".port", *this),
      respQueue_(this->eventq(), port_, this->name() + ".respQueue"),
      transQueueLimit_(cfg_.readBufferSize + cfg_.writeBufferSize),
      cmdQueue_(cfg_.org.ranksPerChannel, cfg_.org.banksPerRank,
                cmd_queue_depth),
      tailRows_(cfg_.org.totalBanks(), CycleBankState::kNoRow),
      bankWaiters_(cfg_.org.totalBanks()),
      bankStale_(cfg_.org.totalBanks(), 0),
      banks_(cfg_.org.totalBanks()),
      rankState_(cfg_.org.ranksPerChannel),
      refreshCountdown_(ct_.tREFI),
      tickEvent_([this] { tick(); }, this->name() + ".tickEvent")
{
    cfg_.check();
    // Apply the temperature derating to the refresh interval.
    if (cfg_.timing.tREFI > 0) {
        ct_.tREFI = divCeil<Tick>(cfg_.effectiveREFI(),
                                  cfg_.timing.tCK);
        refreshCountdown_ = ct_.tREFI;
    }
    if (cfg_.pagePolicy != PagePolicy::Open &&
        cfg_.pagePolicy != PagePolicy::Closed)
        fatal("cycle-based controller '%s' supports only the open and "
              "closed page policies",
              this->name().c_str());
    if (range_.localSize() != cfg_.org.channelCapacity)
        fatal("controller '%s': address range provides %llu bytes but "
              "the DRAM organisation has %llu",
              this->name().c_str(),
              static_cast<unsigned long long>(range_.localSize()),
              static_cast<unsigned long long>(cfg_.org.channelCapacity));
    transQueue_.reserve(transQueueLimit_);
    for (CycleRankState &rs : rankState_)
        rs.actWindow.init(ct_.activationLimit);
    hasBankGroups_ = cfg_.org.hasBankGroups();
    if (hasBankGroups_) {
        const unsigned total_groups =
            cfg_.org.ranksPerChannel * cfg_.org.bankGroupsPerRank;
        grpNextCol_.assign(total_groups, 0);
        grpNextAct_.assign(total_groups, 0);
    }
    plugins_ = plugin::buildChain(cfg_, statGroup(), true,
                                  this->name());
    pracPlugin_ = plugins_.prac();

    stats_ = std::make_unique<CtrlStats>(*this);
    statGroup().onDump([this] { plugins_.onStatsDump(); });
    statGroup().onReset([this] { windowStart_ = curTick(); });
}

CycleDRAMCtrl::~CycleDRAMCtrl()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);

    auto release = [](CycleTransaction *t) {
        if (t->pkt) {
            while (t->pkt->senderState() != nullptr)
                delete t->pkt->popSenderState();
            delete t->pkt;
        }
        delete t;
    };

    std::vector<CycleTransaction *> seen;
    for (CycleTransaction *t : transQueue_) {
        if (std::find(seen.begin(), seen.end(), t) == seen.end())
            seen.push_back(t);
    }
    // Transactions referenced only from command queues.
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            for (std::size_t i = 0; i < q.size(); ++i) {
                const Command &cmd = q[i];
                if (cmd.trans &&
                    std::find(seen.begin(), seen.end(), cmd.trans) ==
                        seen.end())
                    seen.push_back(cmd.trans);
            }
        }
    }
    for (CycleTransaction *t : seen)
        release(t);
}

void
CycleDRAMCtrl::startup()
{
    anchor_ = curTick();
    windowStart_ = curTick();
    idleSinceCycle_ = 0;
}

void
CycleDRAMCtrl::serialize(ckpt::CkptOut &out) const
{
    ckpt::putCheck(out, "cfgHash", configFingerprint(cfg_));

    // Transactions are referenced from both the transaction queue and
    // the command rings; build a dedup table (transaction-queue order
    // first, then command-ring scan) so each is written exactly once
    // and references become table indices.
    std::vector<const CycleTransaction *> table;
    auto indexOf = [&table](const CycleTransaction *t) -> std::uint64_t {
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (table[i] == t)
                return i;
        }
        table.push_back(t);
        return table.size() - 1;
    };
    for (const CycleTransaction *t : transQueue_)
        indexOf(t);
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (q[i].trans)
                    indexOf(q[i].trans);
            }
        }
    }

    out.putU64("transCount", table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
        const CycleTransaction *t = table[i];
        out.putPacket(formatString("trans%zu.pkt", i), t->pkt);
        out.putU64Vec(formatString("trans%zu.f", i),
                      {t->isRead ? std::uint64_t(1) : 0, t->entryTime,
                       t->localAddr, t->size, t->burstsTotal,
                       t->burstsQueued, t->burstsDone, t->pickTime,
                       t->issueTime});
    }

    std::vector<std::uint64_t> tq;
    tq.reserve(transQueue_.size());
    for (const CycleTransaction *t : transQueue_)
        tq.push_back(indexOf(t));
    out.putU64Vec("transQueue", tq);

    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            std::vector<std::uint64_t> flat;
            flat.reserve(q.size() * 7);
            for (std::size_t i = 0; i < q.size(); ++i) {
                const Command &cmd = q[i];
                flat.push_back(static_cast<std::uint64_t>(cmd.type));
                flat.push_back(cmd.rank);
                flat.push_back(cmd.bank);
                flat.push_back(cmd.row);
                flat.push_back(cmd.col);
                flat.push_back(cmd.autoPrecharge ? 1 : 0);
                flat.push_back(cmd.trans ? indexOf(cmd.trans) + 1 : 0);
            }
            out.putU64Vec(formatString("cmdq.%u.%u", r, b), flat);
        }
    }

    out.putU64Vec("tailRows", tailRows_);

    std::vector<std::uint64_t> bank_state;
    bank_state.reserve(banks_.size() * 5);
    for (const CycleBankState &bs : banks_) {
        bank_state.push_back(bs.openRow);
        bank_state.push_back(bs.nextActivate);
        bank_state.push_back(bs.nextPrecharge);
        bank_state.push_back(bs.nextRead);
        bank_state.push_back(bs.nextWrite);
    }
    out.putU64Vec("banks", bank_state);

    std::vector<std::uint64_t> rank_next_act;
    rank_next_act.reserve(rankState_.size());
    for (std::size_t r = 0; r < rankState_.size(); ++r) {
        const CycleRankState &rs = rankState_[r];
        rank_next_act.push_back(rs.nextActAnyBank);
        std::vector<std::uint64_t> window;
        window.reserve(rs.actWindow.size());
        for (std::size_t i = 0; i < rs.actWindow.size(); ++i)
            window.push_back(rs.actWindow[i]);
        out.putU64Vec(formatString("actWindow.%zu", r), window);
    }
    out.putU64Vec("rankNextAct", rank_next_act);

    if (hasBankGroups_) {
        // Keys only exist for grouped organisations; legacy checkpoint
        // files stay restorable (and byte-identical) without them.
        out.putU64Vec("grpNextCol", grpNextCol_);
        out.putU64Vec("grpNextAct", grpNextAct_);
        out.putU64("nextColAnyBank", nextColAnyBank_);
    }

    out.putU64("cycle", cycle_);
    out.putTick("anchor", anchor_);
    out.putU64("cyclesTicked", cyclesTicked_);
    out.putU64("busBusyUntil", busBusyUntil_);
    out.putBool("lastDataWasRead", lastDataWasRead_);
    out.putU64("readAllowedAt", readAllowedAt_);
    out.putU64("refreshCountdown", refreshCountdown_);
    out.putBool("refreshPending", refreshPending_);
    out.putU64("refNotBefore", refNotBefore_);
    out.putU64("nextBankRR", nextBankRR_);
    out.putBool("retryReq", retryReq_);
    out.putBool("ticking", ticking_);
    out.putU64("idleSinceCycle", idleSinceCycle_);
    out.putTick("windowStart", windowStart_);

    respQueue_.serialize(out);
    out.putEvent("tickEvent", eventq(), tickEvent_);

    plugins_.serialize(out);
}

void
CycleDRAMCtrl::unserialize(ckpt::CkptIn &in)
{
    DC_ASSERT(transQueue_.empty() && cmdQueue_.empty(),
              "checkpoint restore into a non-fresh cycle controller");
    ckpt::verifyCheck(in, "cfgHash", configFingerprint(cfg_),
                      "cycle controller configuration");

    const std::uint64_t trans_count = in.getU64("transCount");
    std::vector<CycleTransaction *> table;
    table.reserve(trans_count);
    for (std::uint64_t i = 0; i < trans_count; ++i) {
        auto fields = in.getU64Vec(formatString("trans%llu.f",
                                                static_cast<unsigned long long>(i)));
        if (fields.size() != 9)
            fatal("checkpoint transaction %llu of '%s' has %zu fields, "
                  "expected 9",
                  static_cast<unsigned long long>(i), name().c_str(),
                  fields.size());
        auto *t = new CycleTransaction;
        t->pkt = in.getPacket(formatString("trans%llu.pkt",
                                           static_cast<unsigned long long>(i)));
        t->isRead = fields[0] != 0;
        t->entryTime = fields[1];
        t->localAddr = fields[2];
        t->size = static_cast<unsigned>(fields[3]);
        t->burstsTotal = static_cast<unsigned>(fields[4]);
        t->burstsQueued = static_cast<unsigned>(fields[5]);
        t->burstsDone = static_cast<unsigned>(fields[6]);
        t->pickTime = fields[7];
        t->issueTime = fields[8];
        table.push_back(t);
    }

    for (std::uint64_t idx : in.getU64Vec("transQueue")) {
        if (idx >= table.size())
            fatal("checkpoint transaction queue of '%s' references "
                  "transaction %llu of %zu",
                  name().c_str(), static_cast<unsigned long long>(idx),
                  table.size());
        transQueue_.push_back(table[idx]);
        table[idx]->seq = nextSeq_++;
        waitForNextBurst(table[idx]);
    }

    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            auto flat = in.getU64Vec(formatString("cmdq.%u.%u", r, b));
            if (flat.size() % 7 != 0)
                fatal("checkpoint command ring (%u,%u) of '%s' has %zu "
                      "words, not a multiple of 7",
                      r, b, name().c_str(), flat.size());
            for (std::size_t i = 0; i < flat.size(); i += 7) {
                Command cmd;
                cmd.type = static_cast<CmdType>(flat[i]);
                cmd.rank = static_cast<unsigned>(flat[i + 1]);
                cmd.bank = static_cast<unsigned>(flat[i + 2]);
                cmd.row = flat[i + 3];
                cmd.col = flat[i + 4];
                cmd.autoPrecharge = flat[i + 5] != 0;
                const std::uint64_t ref = flat[i + 6];
                if (ref > table.size())
                    fatal("checkpoint command ring (%u,%u) of '%s' "
                          "references transaction %llu of %zu",
                          r, b, name().c_str(),
                          static_cast<unsigned long long>(ref),
                          table.size());
                cmd.trans = ref ? table[ref - 1] : nullptr;
                cmdQueue_.push(cmd);
            }
        }
    }

    auto tail_rows = in.getU64Vec("tailRows");
    if (tail_rows.size() != tailRows_.size())
        fatal("checkpoint tail-row table of '%s' has %zu entries, this "
              "organisation has %zu banks",
              name().c_str(), tail_rows.size(), tailRows_.size());
    tailRows_ = std::move(tail_rows);

    auto bank_state = in.getU64Vec("banks");
    if (bank_state.size() != banks_.size() * 5)
        fatal("checkpoint bank state of '%s' has %zu words, expected %zu",
              name().c_str(), bank_state.size(), banks_.size() * 5);
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        banks_[i].openRow = bank_state[i * 5];
        banks_[i].nextActivate = bank_state[i * 5 + 1];
        banks_[i].nextPrecharge = bank_state[i * 5 + 2];
        banks_[i].nextRead = bank_state[i * 5 + 3];
        banks_[i].nextWrite = bank_state[i * 5 + 4];
    }

    auto rank_next_act = in.getU64Vec("rankNextAct");
    if (rank_next_act.size() != rankState_.size())
        fatal("checkpoint rank state of '%s' has %zu entries, this "
              "organisation has %zu ranks",
              name().c_str(), rank_next_act.size(), rankState_.size());
    for (std::size_t r = 0; r < rankState_.size(); ++r) {
        CycleRankState &rs = rankState_[r];
        rs.nextActAnyBank = rank_next_act[r];
        auto window = in.getU64Vec(formatString("actWindow.%zu", r));
        if (window.size() > rs.actWindow.capacity())
            fatal("checkpoint activation window of '%s' rank %zu has "
                  "%zu entries, capacity is %zu",
                  name().c_str(), r, window.size(),
                  rs.actWindow.capacity());
        for (std::uint64_t c : window)
            rs.actWindow.push_back(c);
    }

    if (hasBankGroups_) {
        const auto &grp_col = in.getU64Vec("grpNextCol");
        const auto &grp_act = in.getU64Vec("grpNextAct");
        if (grp_col.size() != grpNextCol_.size() ||
            grp_act.size() != grpNextAct_.size())
            fatal("checkpoint bank-group lanes of '%s' do not match "
                  "this organisation", name().c_str());
        grpNextCol_ = grp_col;
        grpNextAct_ = grp_act;
        nextColAnyBank_ = in.getU64("nextColAnyBank");
    }

    cycle_ = in.getU64("cycle");
    anchor_ = in.getTick("anchor");
    cyclesTicked_ = in.getU64("cyclesTicked");
    busBusyUntil_ = in.getU64("busBusyUntil");
    lastDataWasRead_ = in.getBool("lastDataWasRead");
    readAllowedAt_ = in.getU64("readAllowedAt");
    refreshCountdown_ = in.getU64("refreshCountdown");
    refreshPending_ = in.getBool("refreshPending");
    refNotBefore_ = in.getU64("refNotBefore");
    nextBankRR_ = static_cast<unsigned>(in.getU64("nextBankRR"));
    retryReq_ = in.getBool("retryReq");
    ticking_ = in.getBool("ticking");
    idleSinceCycle_ = in.getU64("idleSinceCycle");
    windowStart_ = in.getTick("windowStart");

    respQueue_.unserialize(in);
    in.getEvent("tickEvent", eventq(), tickEvent_);

    plugins_.unserialize(in);

    // The rest of the derived scan state was rebuilt with the
    // transaction queue; heal the command-queue heads once.
    repairPending_ = true;
}

std::size_t
CycleDRAMCtrl::partDecomposed() const
{
    return std::count_if(transQueue_.begin(), transQueue_.end(),
                         [](const CycleTransaction *t) {
                             return t->burstsQueued > 0;
                         });
}

bool
CycleDRAMCtrl::idle() const
{
    return transQueue_.empty() && cmdQueue_.empty() &&
           respQueue_.empty();
}

double
CycleDRAMCtrl::peakBandwidthGBs() const
{
    return static_cast<double>(cfg_.org.burstSize()) /
           toSeconds(cfg_.timing.tBURST) / 1e9;
}

double
CycleDRAMCtrl::busUtilisation() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / peakBandwidthGBs() / w;
}

double
CycleDRAMCtrl::achievedBandwidthGBs() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / w;
}

PowerInputs
CycleDRAMCtrl::powerInputs() const
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
    in.prechargeAllTime =
        static_cast<Tick>(stats_->prechargeAllTime.value());
    double w = toSeconds(in.window);
    if (w > 0) {
        double peak_bytes = peakBandwidthGBs() * 1e9;
        in.readBusFraction = stats_->bytesRead.value() / peak_bytes / w;
        in.writeBusFraction =
            stats_->bytesWritten.value() / peak_bytes / w;
    }
    return in;
}

void
CycleDRAMCtrl::waitForNextBurst(CycleTransaction *trans)
{
    Addr window = decoder_.burstAlign(trans->localAddr) +
                  static_cast<Addr>(trans->burstsQueued) *
                      cfg_.org.burstSize();
    trans->next = decoder_.decode(window);
    trans->nextBank = trans->next.rank * cfg_.org.banksPerRank +
                      trans->next.bank;

    auto &waiters = bankWaiters_.at(trans->nextBank);
    auto pos = std::upper_bound(
        waiters.begin(), waiters.end(), trans->seq,
        [](std::uint64_t seq, const CycleTransaction *t) {
            return seq < t->seq;
        });
    waiters.insert(pos, trans);
    markBankStale(trans->nextBank);
}

unsigned
CycleDRAMCtrl::commandsNeeded(const CycleTransaction &trans) const
{
    if (cfg_.pagePolicy == PagePolicy::Closed)
        return 2; // ACT + column with auto-precharge
    std::uint64_t tail = tailRows_.at(trans.nextBank);
    if (tail == trans.next.row)
        return 1;
    return tail == CycleBankState::kNoRow ? 2 : 3;
}

std::uint64_t &
CycleDRAMCtrl::tailRow(unsigned rank, unsigned bank)
{
    return tailRows_.at(static_cast<std::size_t>(rank) *
                            cfg_.org.banksPerRank +
                        bank);
}

bool
CycleDRAMCtrl::recvTimingReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "controller received %s",
              pkt->toString().c_str());
    if (!range_.contains(pkt->addr()))
        panic("controller '%s' received misrouted packet %s",
              name().c_str(), pkt->toString().c_str());

    if (transQueue_.size() >= transQueueLimit_) {
        TRACE(CycleCtrl, "%s: refuse %s, transaction queue full (%zu)",
              name().c_str(), pkt->toString().c_str(),
              transQueue_.size());
        ++stats_->numRetries;
        retryReq_ = true;
        return false;
    }

    TRACE(CycleCtrl, "%s: accept %s", name().c_str(),
          pkt->toString().c_str());
    if (auto *ct = obs::chromeTracer()) {
        ct->beginSpan(name(), pkt->id(),
                      std::string(pkt->isRead() ? "read " : "write ") +
                          std::to_string(pkt->addr()),
                      curTick());
        ct->counter(name(), "transQ", curTick(),
                    static_cast<double>(transQueue_.size() + 1));
    }

    Addr local = range_.removeIntlvBits(pkt->addr());
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr first = local / burst_size;
    Addr last = (local + pkt->size() - 1) / burst_size;

    auto *trans = new CycleTransaction;
    trans->pkt = pkt;
    trans->isRead = pkt->isRead();
    trans->entryTime = curTick();
    trans->localAddr = local;
    trans->size = pkt->size();
    trans->burstsTotal = static_cast<unsigned>(last - first + 1);
    trans->seq = nextSeq_++;
    waitForNextBurst(trans);

    if (!plugins_.empty())
        plugins_.onEnqueue(
            {pkt->isRead(), pkt->addr(), pkt->size(), curTick()});

    if (trans->isRead) {
        ++stats_->readReqs;
        stats_->readBursts += trans->burstsTotal;
    } else {
        ++stats_->writeReqs;
        stats_->writeBursts += trans->burstsTotal;
        // Writes are acknowledged on acceptance, as in the event model.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        pkt->makeResponse();
        respQueue_.schedSendResp(pkt, curTick() + cfg_.frontendLatency);
        trans->pkt = nullptr;
    }

    transQueue_.push_back(trans);

    if (!ticking_) {
        Cycle now = (curTick() - anchor_) / cfg_.timing.tCK;
        catchUpIdleCycles(now);
        ticking_ = true;
        schedule(tickEvent_, tickOf(cycle_ + 1));
    }
    return true;
}

void
CycleDRAMCtrl::catchUpIdleCycles(Cycle now)
{
    if (now <= cycle_) {
        cycle_ = std::max(cycle_, now);
        return;
    }
    Cycle elapsed = now - cycle_;

    // Refreshes that would have happened during the idle gap: the banks
    // were quiescent, so each one simply closes any open rows and costs
    // tRFC of non-precharge-standby time.
    std::uint64_t missed = 0;
    if (ct_.tREFI > 0) {
        if (elapsed < refreshCountdown_) {
            refreshCountdown_ -= elapsed;
        } else {
            missed = 1 + (elapsed - refreshCountdown_) / ct_.tREFI;
            refreshCountdown_ =
                ct_.tREFI - (elapsed - refreshCountdown_) % ct_.tREFI;
        }
    }
    if (missed > 0) {
        stats_->numRefreshes += static_cast<double>(missed);

        // Reconstruct the idle-time refreshes: close any open rows as
        // soon as their precharge timing allowed, wait tRP, then the
        // refreshes at tREFI intervals. The final refresh may straddle
        // the resume point; its completion is carried forward as the
        // banks' activate constraint, so resumed commands wait it out.
        Cycle latest_pre = cycle_;
        for (std::size_t i = 0; i < banks_.size(); ++i) {
            CycleBankState &bank = banks_[i];
            if (bank.rowOpen()) {
                Cycle pre_c = std::max(cycle_, bank.nextPrecharge);
                latest_pre = std::max(latest_pre, pre_c);
                logCmd(tickOf(pre_c), DRAMCmd::Pre,
                       static_cast<unsigned>(i / cfg_.org.banksPerRank),
                       static_cast<unsigned>(i %
                                             cfg_.org.banksPerRank));
                bank.openRow = CycleBankState::kNoRow;
                ++stats_->numPrecharges;
            }
        }

        Cycle ref_first = std::max({latest_pre + ct_.tRP,
                                    refNotBefore_, busBusyUntil_});
        Cycle ref_last =
            ref_first + (missed - 1) * ct_.tREFI;
        for (unsigned r = 0; r < cfg_.org.ranksPerChannel; ++r) {
            logCmd(tickOf(ref_first), DRAMCmd::Ref, r, 0);
            if (missed > 1)
                logCmd(tickOf(ref_last), DRAMCmd::Ref, r, 0);
        }

        Cycle ref_done = ref_last + ct_.tRFC;
        for (CycleBankState &bank : banks_) {
            bank.nextActivate = std::max(bank.nextActivate, ref_done);
            bank.nextPrecharge = 0;
            bank.nextRead = 0;
            bank.nextWrite = 0;
        }
        for (std::uint64_t &tr : tailRows_)
            tr = CycleBankState::kNoRow;
    }

    bool all_closed = std::none_of(
        banks_.begin(), banks_.end(),
        [](const CycleBankState &b) { return b.rowOpen(); });
    if (all_closed) {
        Cycle standby = elapsed > missed * ct_.tRFC
                            ? elapsed - missed * ct_.tRFC
                            : 0;
        stats_->prechargeAllTime +=
            static_cast<double>(standby * cfg_.timing.tCK);
    }

    cycle_ = now;
}

void
CycleDRAMCtrl::tick()
{
    ++cycle_;
    ++cyclesTicked_;
    ++stats_->numCycles;

    bool all_closed = std::none_of(
        banks_.begin(), banks_.end(),
        [](const CycleBankState &b) { return b.rowOpen(); });
    if (all_closed && !refreshPending_)
        stats_->prechargeAllTime +=
            static_cast<double>(cfg_.timing.tCK);

    serviceRefresh();
    if (!refreshPending_) {
        if (repairPending_)
            repairQueueHeads();
        decomposeTransactions();
        issueCommand();
    }

    nextBankRR_ = (nextBankRR_ + 1) % cfg_.org.totalBanks();

    if (hasWork()) {
        schedule(tickEvent_, tickOf(cycle_ + 1));
    } else {
        ticking_ = false;
        idleSinceCycle_ = cycle_;
    }
}

bool
CycleDRAMCtrl::hasWork() const
{
    return !transQueue_.empty() || !cmdQueue_.empty() ||
           refreshPending_;
}

void
CycleDRAMCtrl::serviceRefresh()
{
    if (ct_.tREFI == 0)
        return;

    if (!refreshPending_) {
        if (refreshCountdown_ > 0)
            --refreshCountdown_;
        if (refreshCountdown_ == 0)
            refreshPending_ = true;
    }
    if (!refreshPending_)
        return;

    // Drain: close one open bank per cycle (command bus) as soon as its
    // precharge timing allows, then issue the refresh.
    bool any_open = false;
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        CycleBankState &bank = banks_[i];
        if (!bank.rowOpen())
            continue;
        any_open = true;
        if (cycle_ >= bank.nextPrecharge) {
            bank.precharge(cycle_, ct_);
            refNotBefore_ = std::max(refNotBefore_, cycle_ + ct_.tRP);
            repairPending_ = true;
            ++stats_->numPrecharges;
            logCmd(tickOf(cycle_), DRAMCmd::Pre,
                   static_cast<unsigned>(i / cfg_.org.banksPerRank),
                   static_cast<unsigned>(i % cfg_.org.banksPerRank));
            break;
        }
    }
    if (any_open)
        return;
    if (cycle_ < refNotBefore_)
        return; // tRP of the last precharge still elapsing

    // All banks precharged: refresh now.
    TRACE(Refresh, "%s: REF all ranks at cycle %llu", name().c_str(),
          static_cast<unsigned long long>(cycle_));
    ++stats_->numRefreshes;
    for (unsigned r = 0; r < cfg_.org.ranksPerChannel; ++r)
        logCmd(tickOf(cycle_), DRAMCmd::Ref, r, 0);
    for (CycleBankState &bank : banks_)
        bank.nextActivate = std::max(bank.nextActivate,
                                     cycle_ + ct_.tRFC);
    for (std::size_t i = 0; i < tailRows_.size(); ++i) {
        unsigned rank = static_cast<unsigned>(i / cfg_.org.banksPerRank);
        unsigned bank = static_cast<unsigned>(i % cfg_.org.banksPerRank);
        if (cmdQueue_.at(rank, bank).empty() &&
            tailRows_[i] != CycleBankState::kNoRow) {
            tailRows_[i] = CycleBankState::kNoRow;
            markBankStale(i);
        }
    }
    refreshCountdown_ = ct_.tREFI;
    refreshPending_ = false;
}

void
CycleDRAMCtrl::repairQueueHeads()
{
    // A refresh drain may have closed a bank under a queued column
    // command; reinstate the activate it needs. Every other command
    // keeps the queue heads consistent with the bank state, so one
    // pass after the drain heals them all.
    repairPending_ = false;
    issueDirty_ = true;
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            auto &q = cmdQueue_.at(r, b);
            if (q.empty())
                continue;
            CycleBankState &bank =
                banks_[static_cast<std::size_t>(r) *
                           cfg_.org.banksPerRank +
                       b];
            // A queued precharge whose bank the refresh drain already
            // closed would never become issuable: drop it.
            while (!q.empty() && q.front().type == CmdType::Pre &&
                   !bank.rowOpen()) {
                q.pop_front();
                markBankStale(static_cast<std::size_t>(r) *
                                       cfg_.org.banksPerRank +
                                   b);
            }
            if (q.empty())
                continue;
            Command &head = q.front();
            if (head.type != CmdType::Read &&
                head.type != CmdType::Write)
                continue;
            if (bank.openRow == head.row)
                continue;
            if (bank.rowOpen()) {
                Command pre{CmdType::Pre, r, b, bank.openRow, 0, false,
                            nullptr};
                q.push_front(pre);
            } else {
                Command act{CmdType::Act, r, b, head.row, 0, false,
                            nullptr};
                q.push_front(act);
            }
        }
    }
}

void
CycleDRAMCtrl::decomposeTransactions()
{
    // First fit over the whole queue is the oldest of the per-bank
    // first fits, and a bank that is not stale has none.
    if (!decomposeStale_)
        return;
    CycleTransaction *trans = nullptr;
    for (std::size_t b = 0; b < bankWaiters_.size(); ++b) {
        if (!bankStale_[b])
            continue;
        const auto &waiters = bankWaiters_[b];
        auto fit = std::find_if(
            waiters.begin(), waiters.end(),
            [this](const CycleTransaction *t) {
                return cmdQueue_.hasSpace(t->next.rank, t->next.bank,
                                          commandsNeeded(*t));
            });
        if (fit == waiters.end())
            bankStale_[b] = 0;
        else if (trans == nullptr || (*fit)->seq < trans->seq)
            trans = *fit;
    }
    if (trans == nullptr) {
        decomposeStale_ = false;
        return;
    }

    const unsigned needed = commandsNeeded(*trans);
    const DRAMAddr &da = trans->next;
    if (cmdQueue_.at(trans->nextBank).empty())
        issueDirty_ = true; // a new queue head
    std::uint64_t &tail = tailRow(da.rank, da.bank);
    if (needed == 3)
        cmdQueue_.push(Command{CmdType::Pre, da.rank, da.bank, tail, 0,
                               false, nullptr});
    if (needed >= 2)
        cmdQueue_.push(Command{CmdType::Act, da.rank, da.bank, da.row,
                               0, false, nullptr});

    bool auto_pre = cfg_.pagePolicy == PagePolicy::Closed;
    cmdQueue_.push(Command{trans->isRead ? CmdType::Read
                                         : CmdType::Write,
                           da.rank, da.bank, da.row, da.col, auto_pre,
                           trans});
    tail = auto_pre ? CycleBankState::kNoRow : da.row;

    if (needed == 1) {
        if (trans->isRead)
            ++stats_->readRowHits;
        else
            ++stats_->writeRowHits;
    }

    // The bank stays stale, as its queue and tail row just changed.
    // The transaction leaves its waiters for those of its next burst,
    // or the queue.
    auto &waiters = bankWaiters_[trans->nextBank];
    waiters.erase(std::find(waiters.begin(), waiters.end(), trans));
    ++trans->burstsQueued;
    trans->pickTime = tickOf(cycle_);
    if (trans->burstsQueued < trans->burstsTotal) {
        waitForNextBurst(trans);
        return;
    }
    transQueue_.erase(
        std::find(transQueue_.begin(), transQueue_.end(), trans));
    if (retryReq_) {
        retryReq_ = false;
        port_.sendReqRetry();
    }
}

Cycle
CycleDRAMCtrl::earliestIssue(const Command &cmd) const
{
    const CycleBankState &bank =
        banks_[static_cast<std::size_t>(cmd.rank) *
                   cfg_.org.banksPerRank +
               cmd.bank];
    const CycleRankState &rank = rankState_[cmd.rank];

    // Same-group long timings and the channel-wide short column
    // spacing; both degenerate to always-satisfied without groups.
    Cycle grp_act = 0;
    Cycle grp_col = 0;
    if (hasBankGroups_) {
        unsigned g = grpIdx(cmd.rank, cmd.bank);
        grp_act = grpNextAct_[g];
        grp_col = std::max(grpNextCol_[g], nextColAnyBank_);
    }
    // A column command needs c + tCL >= the data bus's free cycle.
    auto bus_free = [this](Cycle busy) {
        return busy > ct_.tCL ? busy - ct_.tCL : 0;
    };

    switch (cmd.type) {
      case CmdType::Act: {
        if (bank.rowOpen())
            return kNever;
        return std::max({bank.nextActivate, grp_act,
                         rank.earliestActivate(ct_)});
      }
      case CmdType::Pre:
        return bank.rowOpen() ? bank.nextPrecharge : kNever;
      case CmdType::Read:
        if (bank.openRow != cmd.row)
            return kNever;
        return std::max({bank.nextRead, grp_col, readAllowedAt_,
                         bus_free(busBusyUntil_)});
      case CmdType::Write:
        if (bank.openRow != cmd.row)
            return kNever;
        return std::max(
            {bank.nextWrite, grp_col,
             bus_free(busBusyUntil_ + (lastDataWasRead_ ? ct_.tRTW : 0))});
    }
    return kNever;
}

void
CycleDRAMCtrl::execute(const Command &cmd)
{
    CycleBankState &bank =
        banks_[static_cast<std::size_t>(cmd.rank) *
                   cfg_.org.banksPerRank +
               cmd.bank];
    CycleRankState &rank = rankState_[cmd.rank];
    Cycle c = cycle_;
    std::uint64_t burst_size = cfg_.org.burstSize();

    switch (cmd.type) {
      case CmdType::Act:
        bank.activate(c, cmd.row, ct_);
        rank.recordActivate(c, ct_);
        if (hasBankGroups_) {
            Cycle &g = grpNextAct_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tRRD_L);
        }
        ++stats_->numActs;
        logCmd(tickOf(c), DRAMCmd::Act, cmd.rank, cmd.bank, cmd.row);
        break;
      case CmdType::Pre:
        bank.precharge(c, ct_);
        refNotBefore_ = std::max(refNotBefore_, c + ct_.tRP);
        ++stats_->numPrecharges;
        logCmd(tickOf(c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        break;
      case CmdType::Read: {
        Cycle data_done = c + ct_.tCL + ct_.burstCycles;
        busBusyUntil_ = data_done;
        lastDataWasRead_ = true;
        // Same-bank spacing is tCCD_L (== burstCycles when ungrouped).
        bank.nextRead = std::max(bank.nextRead, c + ct_.tCCD_L);
        bank.nextWrite = std::max(bank.nextWrite, c + ct_.tCCD_L);
        if (hasBankGroups_) {
            Cycle &g = grpNextCol_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tCCD_L);
            nextColAnyBank_ = std::max(nextColAnyBank_,
                                       c + ct_.tCCD_S);
        }
        bank.nextPrecharge = std::max(bank.nextPrecharge, data_done);
        logCmd(tickOf(c), DRAMCmd::Rd, cmd.rank, cmd.bank, cmd.row);
        if (!plugins_.empty())
            plugins_.onBurstComplete({true, cmd.rank, cmd.bank, cmd.row,
                                      cmd.col, tickOf(data_done)});
        if (cmd.autoPrecharge) {
            // The device engages auto-precharge only once tRAS (and
            // every other precharge constraint) is satisfied, not
            // blindly at data-done — on slow-tRAS parts data-done
            // can land inside the activate's tRAS window.
            Cycle pre_c = bank.nextPrecharge;
            bank.openRow = CycleBankState::kNoRow;
            bank.nextActivate = std::max(bank.nextActivate,
                                         pre_c + ct_.tRP);
            refNotBefore_ = std::max(refNotBefore_, pre_c + ct_.tRP);
            ++stats_->numPrecharges;
            logCmd(tickOf(pre_c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        }
        stats_->bytesRead += static_cast<double>(burst_size);
        cmd.trans->issueTime = tickOf(c);
        burstCompleted(cmd.trans, tickOf(data_done));
        break;
      }
      case CmdType::Write: {
        Cycle data_done = c + ct_.tCL + ct_.burstCycles;
        busBusyUntil_ = data_done;
        lastDataWasRead_ = false;
        readAllowedAt_ = std::max(readAllowedAt_, data_done + ct_.tWTR);
        bank.nextRead = std::max(bank.nextRead, c + ct_.tCCD_L);
        bank.nextWrite = std::max(bank.nextWrite, c + ct_.tCCD_L);
        if (hasBankGroups_) {
            Cycle &g = grpNextCol_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tCCD_L);
            nextColAnyBank_ = std::max(nextColAnyBank_,
                                       c + ct_.tCCD_S);
        }
        bank.nextPrecharge = std::max(bank.nextPrecharge,
                                      data_done + ct_.tWR);
        logCmd(tickOf(c), DRAMCmd::Wr, cmd.rank, cmd.bank, cmd.row);
        if (!plugins_.empty())
            plugins_.onBurstComplete({false, cmd.rank, cmd.bank,
                                      cmd.row, cmd.col,
                                      tickOf(data_done)});
        if (cmd.autoPrecharge) {
            // As for reads: honour tRAS, not just write recovery.
            Cycle pre_c = bank.nextPrecharge;
            bank.openRow = CycleBankState::kNoRow;
            bank.nextActivate = std::max(bank.nextActivate,
                                         pre_c + ct_.tRP);
            refNotBefore_ = std::max(refNotBefore_, pre_c + ct_.tRP);
            ++stats_->numPrecharges;
            logCmd(tickOf(pre_c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        }
        stats_->bytesWritten += static_cast<double>(burst_size);
        cmd.trans->issueTime = tickOf(c);
        burstCompleted(cmd.trans, tickOf(data_done));
        break;
      }
    }

    if (auto *ct = obs::chromeTracer()) {
        if (cmd.type == CmdType::Act || cmd.type == CmdType::Pre ||
            cmd.autoPrecharge) {
            auto open = std::count_if(
                banks_.begin(), banks_.end(),
                [](const CycleBankState &b) { return b.rowOpen(); });
            ct->counter(name(), "openBanks", tickOf(c),
                        static_cast<double>(open));
        }
    }
}

void
CycleDRAMCtrl::issueCommand()
{
    // Nothing was issuable at the last scan, and nothing it depends
    // on has changed except time, which has not yet reached the
    // earliest head.
    if (!issueDirty_ && cycle_ < nextIssueAt_)
        return;

    // One round-robin pass over the queue heads. Open page prefers
    // column commands hitting open rows (the first issuable one wins),
    // otherwise the first issuable head of any type wins.
    const unsigned total = cfg_.org.totalBanks();
    const bool col_first = cfg_.pagePolicy == PagePolicy::Open;
    unsigned pick = total;
    Cycle next = kNever;
    unsigned idx = nextBankRR_;
    for (unsigned i = 0; i < total; ++i, idx = idx + 1 < total ? idx + 1 : 0) {
        const auto &q = cmdQueue_.at(idx);
        if (q.empty())
            continue;
        const Command &head = q.front();
        Cycle at = earliestIssue(head);
        if (at > cycle_) {
            next = std::min(next, at);
            continue;
        }
        if (!col_first || head.type == CmdType::Read ||
            head.type == CmdType::Write) {
            pick = idx;
            break;
        }
        if (pick == total)
            pick = idx;
    }
    if (pick == total) {
        nextIssueAt_ = next;
        issueDirty_ = false;
        return;
    }
    issueDirty_ = true;

    auto &q = cmdQueue_.at(pick);
    const Command &head = q.front();
    if (head.type == CmdType::Act && pracPlugin_ != nullptr &&
        pracPlugin_->mitigationPending(pick) && !testSkipPrac_) {
        // RowHammer mitigation takes the command slot: the activate's
        // issuability guarantees the bank is closed and
        // precharge-settled, which is exactly REFm legality. The
        // blocked ACT retries once tRFM passes.
        CycleBankState &bank = banks_[pick];
        logCmd(tickOf(cycle_), DRAMCmd::RefM,
               pick / cfg_.org.banksPerRank,
               pick % cfg_.org.banksPerRank);
        bank.nextActivate = std::max(
            bank.nextActivate,
            cycle_ + divCeil<Cycle>(pracPlugin_->tRFM(), cfg_.timing.tCK));
        return;
    }
    Command cmd = head;
    q.pop_front();
    markBankStale(pick);
    execute(cmd);
}

void
CycleDRAMCtrl::burstCompleted(CycleTransaction *trans,
                              Tick data_done_tick)
{
    DC_ASSERT(trans != nullptr, "column command without a transaction");
    ++trans->burstsDone;
    if (trans->burstsDone < trans->burstsTotal)
        return;

    if (trans->isRead) {
        stats_->totMemAccLat +=
            static_cast<double>(data_done_tick - trans->entryTime);

        // Attribution span. The cycle model has no scheduler-stall
        // notion distinct from the command queue: bankTiming covers the
        // whole command-queue residency (decompose to column issue) and
        // schedStall is structurally zero. The bus stage is the CAS
        // latency (tCL); the burst stage the data transfer itself.
        stats::LatencySpan span;
        span.enqueue = trans->entryTime;
        span.pick = trans->pickTime;
        span.bankReady = trans->issueTime;
        span.issue = trans->issueTime;
        span.burstStart =
            data_done_tick - ct_.burstCycles * cfg_.timing.tCK;
        span.done = data_done_tick;
        span.staticLat = cfg_.frontendLatency + cfg_.backendLatency;
        span.valid = true;
        stats_->lat.record(span);
        trans->pkt->setSpan(span);

        trans->pkt->makeResponse();
        respQueue_.schedSendResp(trans->pkt,
                                 data_done_tick + cfg_.frontendLatency +
                                     cfg_.backendLatency);
    }
    delete trans;
}

} // namespace cyclesim
} // namespace dramctrl
