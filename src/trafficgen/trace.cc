#include "trafficgen/trace.hh"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {

namespace {

inline const char *
skipSpace(const char *p, const char *end)
{
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r'))
        ++p;
    return p;
}

/** Parse an unsigned field in @p base; nullptr return = no digits. */
inline const char *
parseU64(const char *p, const char *end, int base, std::uint64_t &out,
         bool &overflow)
{
    auto [next, ec] = std::from_chars(p, end, out, base);
    overflow = ec == std::errc::result_out_of_range;
    if (ec != std::errc() && !overflow)
        return nullptr;
    return next;
}

} // namespace

std::vector<TraceEntry>
loadTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());

    // Parse fields in place with from_chars: no per-line stream
    // construction, no exceptions — malformed input and overflow both
    // land in fatal() with the file and line. The vector grows
    // geometrically (push_back) and is trimmed once at the end.
    std::vector<TraceEntry> entries;
    std::string line;
    std::uint64_t line_no = 0;
    Tick last_tick = 0;

    auto bad = [&](const char *what) {
        fatal("trace '%s' line %llu is malformed: %s", path.c_str(),
              static_cast<unsigned long long>(line_no), what);
    };

    while (std::getline(in, line)) {
        ++line_no;
        auto hash = line.find('#');
        const char *p = line.data();
        const char *end =
            p + (hash == std::string::npos ? line.size() : hash);

        p = skipSpace(p, end);
        if (p == end)
            continue; // blank or comment-only line

        bool overflow = false;
        std::uint64_t tick = 0;
        p = parseU64(p, end, 10, tick, overflow);
        if (p == nullptr)
            bad("expected a decimal tick");
        if (overflow)
            bad("tick overflows 64 bits");

        p = skipSpace(p, end);
        if (p == end || (*p != 'r' && *p != 'w'))
            bad("expected 'r' or 'w' after the tick");
        bool is_read = *p == 'r';
        ++p;
        if (p != end && *p != ' ' && *p != '\t')
            bad("expected 'r' or 'w' after the tick");

        p = skipSpace(p, end);
        if (end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X'))
            p += 2;
        std::uint64_t addr = 0;
        p = parseU64(p, end, 16, addr, overflow);
        if (p == nullptr)
            bad("expected a hex address");
        if (overflow)
            bad("address overflows 64 bits");

        p = skipSpace(p, end);
        std::uint64_t size = 0;
        p = parseU64(p, end, 10, size, overflow);
        if (p == nullptr)
            bad("expected a decimal size");
        if (overflow || size > std::numeric_limits<unsigned>::max())
            bad("size overflows");

        p = skipSpace(p, end);
        if (p != end)
            bad("trailing garbage after the size field");

        if (tick < last_tick)
            fatal("trace '%s' line %llu goes back in time (tick %llu "
                  "after %llu); traces must be tick-ordered",
                  path.c_str(),
                  static_cast<unsigned long long>(line_no),
                  static_cast<unsigned long long>(tick),
                  static_cast<unsigned long long>(last_tick));
        last_tick = tick;

        entries.push_back(TraceEntry{tick, is_read, addr,
                                     static_cast<unsigned>(size)});
    }
    entries.shrink_to_fit();
    return entries;
}

void
saveTrace(const std::string &path,
          const std::vector<TraceEntry> &entries)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '%s'", path.c_str());
    out << "# tick r|w addr size\n";
    for (const TraceEntry &e : entries) {
        out << e.tick << ' ' << (e.isRead ? 'r' : 'w') << ' ' << std::hex
            << "0x" << e.addr << std::dec << ' ' << e.size << '\n';
    }
}

TraceRecorder::TraceRecorder(Simulator &sim, std::string name)
    : SimObject(sim, std::move(name)),
      cpuSide_(this->name() + ".cpuSide", *this),
      memSide_(this->name() + ".memSide", *this)
{
}

bool
TraceRecorder::handleReq(Packet *pkt)
{
    if (!memSide_.sendTimingReq(pkt))
        return false;
    // Record the packet's injection tick (its first send attempt), not
    // the acceptance tick: downstream latency accounting measures from
    // injectedTick, so a replayer that re-attempts at this tick meets
    // the same backpressure and reproduces the original statistics.
    TraceEntry e{pkt->injectedTick(), pkt->isRead(), pkt->addr(),
                 pkt->size()};
    if (sink_)
        sink_(e);
    else
        trace_.push_back(e);
    return true;
}

TracePlayer::TracePlayer(Simulator &sim, std::string name,
                         const TracePlayerConfig &cfg, RequestorId id)
    : SimObject(sim, std::move(name)), source_(cfg.source),
      span_(cfg.span), traceName_(cfg.name), id_(id),
      timeScale_(cfg.timeScale), slipOnStall_(cfg.slipOnStall),
      port_(this->name() + ".port", *this),
      injectEvent_([this] { tryInject(); },
                   this->name() + ".injectEvent")
{
    if (!source_)
        fatal("trace player '%s': no trace source",
              this->name().c_str());
    if (timeScale_ <= 0)
        fatal("trace player '%s': non-positive time scale",
              this->name().c_str());
}

TracePlayer::TracePlayer(Simulator &sim, std::string name,
                         std::vector<TraceEntry> trace, RequestorId id,
                         double time_scale)
    : TracePlayer(sim, std::move(name),
                  [&trace, time_scale] {
                      TracePlayerConfig pc;
                      pc.source = std::make_shared<VectorTraceSource>(
                          std::move(trace));
                      pc.timeScale = time_scale;
                      return pc;
                  }(),
                  id)
{
}

TracePlayer::~TracePlayer()
{
    if (injectEvent_.scheduled())
        deschedule(injectEvent_);
    delete blockedPkt_;
}

Tick
TracePlayer::scaledTick(const TraceEntry &e) const
{
    return static_cast<Tick>(static_cast<double>(e.tick) * timeScale_) +
           slip_;
}

bool
TracePlayer::fetch()
{
    if (curValid_)
        return true;
    if (exhausted_)
        return false;
    if (!source_->peek(cur_)) {
        exhausted_ = true;
        return false;
    }
    if (span_.valid() && (cur_.addr < span_.start() ||
                          cur_.addr >= span_.end()))
        fatal("trace %s record %llu: address 0x%llx is outside the "
              "system's address span [0x%llx, 0x%llx)",
              traceName_.c_str(),
              static_cast<unsigned long long>(source_->position()),
              static_cast<unsigned long long>(cur_.addr),
              static_cast<unsigned long long>(span_.start()),
              static_cast<unsigned long long>(span_.end()));
    source_->advance();
    curValid_ = true;
    return true;
}

void
TracePlayer::startup()
{
    if (fetch())
        schedule(injectEvent_, std::max(curTick(), scaledTick(cur_)));
}

bool
TracePlayer::done() const
{
    return exhausted_ && !curValid_ && blockedPkt_ == nullptr &&
           outstandingReads_ == 0;
}

double
TracePlayer::avgReadLatencyNs() const
{
    return readResponses_ > 0
               ? toNs(totReadLatency_) /
                     static_cast<double>(readResponses_)
               : 0.0;
}

void
TracePlayer::serialize(ckpt::CkptOut &out) const
{
    ckpt::putCheck(out, "traceLen", source_->fingerprint());
    out.putU64("next", next_);
    out.putBool("fetched", curValid_);
    out.putBool("exhausted", exhausted_);
    out.putU64("responses", responses_);
    out.putU64("outstandingReads", outstandingReads_);
    out.putPacket("blockedPkt", blockedPkt_);
    out.putTick("blockedIntent", blockedIntent_);
    out.putTick("slip", slip_);
    out.putTick("totReadLatency", totReadLatency_);
    out.putU64("readResponses", readResponses_);
    out.putEvent("injectEvent", eventq(), injectEvent_);
}

void
TracePlayer::unserialize(ckpt::CkptIn &in)
{
    ckpt::verifyCheck(in, "traceLen", source_->fingerprint(),
                      "trace source fingerprint");
    next_ = in.getU64("next");
    bool fetched = in.getOrBool("fetched", false);
    exhausted_ = in.getOrBool("exhausted", false);
    responses_ = in.getU64("responses");
    outstandingReads_ = in.getU64("outstandingReads");
    blockedPkt_ = in.getPacket("blockedPkt");
    blockedIntent_ = in.getOrU64("blockedIntent", 0);
    slip_ = in.getTick("slip");
    totReadLatency_ = in.getTick("totReadLatency");
    readResponses_ = in.getU64("readResponses");

    // Re-establish the source position: next_ entries dispatched,
    // plus one consumed-but-undelivered entry when blocked or when an
    // entry was fetched ahead of a pending inject event.
    source_->seek(next_);
    curValid_ = false;
    if (blockedPkt_ != nullptr) {
        TraceEntry skip;
        if (!source_->peek(skip))
            fatal("trace player '%s': checkpoint says a request is "
                  "blocked but the trace has no entry for it",
                  name().c_str());
        source_->advance();
    } else if (fetched) {
        exhausted_ = false;
        if (!fetch())
            fatal("trace player '%s': checkpoint says an entry was "
                  "fetched but the trace is exhausted",
                  name().c_str());
    }
    in.getEvent("injectEvent", eventq(), injectEvent_);
}

void
TracePlayer::scheduleNext()
{
    if (blockedPkt_ != nullptr || !fetch())
        return;
    Tick when = std::max(curTick(), scaledTick(cur_));
    if (!injectEvent_.scheduled())
        schedule(injectEvent_, when);
}

void
TracePlayer::tryInject()
{
    DC_ASSERT(blockedPkt_ == nullptr, "inject while blocked");
    DC_ASSERT(curValid_, "inject with no fetched entry");

    const TraceEntry e = cur_;
    auto *pkt = new Packet(e.isRead ? MemCmd::ReadReq : MemCmd::WriteReq,
                           e.addr, e.size, id_);
    pkt->setInjectedTick(curTick());
    curValid_ = false;
    ++next_;
    if (e.isRead)
        ++outstandingReads_;

    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        blockedIntent_ = scaledTick(e);
        if (e.isRead)
            --outstandingReads_;
        --next_;
        return;
    }
    scheduleNext();
}

void
TracePlayer::recvReqRetry()
{
    DC_ASSERT(blockedPkt_ != nullptr, "retry with no blocked packet");
    Packet *pkt = blockedPkt_;
    blockedPkt_ = nullptr;

    // Everything after this entry slips by however long we were
    // stalled — unless the trace was captured from a live run, whose
    // timestamps already include the original backpressure.
    if (slipOnStall_ && curTick() > blockedIntent_)
        slip_ += curTick() - blockedIntent_;

    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        return;
    }
    if (pkt->isRead())
        ++outstandingReads_;
    ++next_;
    scheduleNext();
}

bool
TracePlayer::recvTimingResp(Packet *pkt)
{
    ++responses_;
    if (pkt->cmd() == MemCmd::ReadResp) {
        DC_ASSERT(outstandingReads_ > 0, "unexpected read response");
        --outstandingReads_;
        totReadLatency_ += curTick() - pkt->injectedTick();
        ++readResponses_;
    }
    delete pkt;
    return true;
}

} // namespace dramctrl
