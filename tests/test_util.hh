/**
 * @file
 * Shared test fixtures: a scriptable requestor that injects packets at
 * chosen ticks and records response times, plus canned configurations
 * with refresh disabled for deterministic timing checks.
 */

#ifndef DRAMCTRL_TESTS_TEST_UTIL_H
#define DRAMCTRL_TESTS_TEST_UTIL_H

#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace testutil {

/**
 * A requestor that injects a scripted list of packets at given ticks
 * and logs every response. Refused packets are re-sent on retry (the
 * injection tick of later packets slips, like a stalled master).
 */
class TestRequestor : public SimObject
{
  public:
    struct Response
    {
        Tick tick;
        std::uint64_t pktId;
        MemCmd cmd;
        Addr addr;
        /** Tick the request was first put on the wire. */
        Tick injected;
        /** Latency attribution stamps carried by the response. */
        stats::LatencySpan span;
    };

    TestRequestor(Simulator &sim, std::string name)
        : SimObject(sim, std::move(name)),
          port_(this->name() + ".port", *this),
          injectEvent_([this] { inject(); },
                       this->name() + ".injectEvent")
    {}

    ~TestRequestor() override
    {
        if (injectEvent_.scheduled())
            deschedule(injectEvent_);
        delete blocked_;
        for (auto &s : script_)
            delete s.pkt;
    }

    RequestPort &port() { return port_; }

    /**
     * Script a packet injection.
     * @return the packet id for matching the response.
     */
    std::uint64_t
    inject(Tick when, MemCmd cmd, Addr addr, unsigned size = 64)
    {
        auto *pkt = new Packet(cmd, addr, size, 0);
        script_.push_back(Scripted{when, pkt});
        if (!injectEvent_.scheduled() ||
            injectEvent_.when() > std::max(curTick(), when))
            reschedule(injectEvent_, std::max(curTick(), when));
        return pkt->id();
    }

    const std::vector<Response> &responses() const { return responses_; }

    /** Response tick for a packet id; 0 if not (yet) answered. */
    Tick
    responseTick(std::uint64_t pkt_id) const
    {
        auto it = respByPkt_.find(pkt_id);
        return it == respByPkt_.end() ? 0 : it->second;
    }

    bool
    allResponded() const
    {
        return script_.empty() && blocked_ == nullptr &&
               outstanding_ == 0;
    }

    unsigned outstanding() const { return outstanding_; }
    unsigned retries() const { return retries_; }

  private:
    struct Scripted
    {
        Tick when;
        Packet *pkt;
    };

    class Port : public RequestPort
    {
      public:
        Port(std::string name, TestRequestor &req)
            : RequestPort(std::move(name)), req_(req)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return req_.recvResp(pkt);
        }

        void recvReqRetry() override { req_.retry(); }

      private:
        TestRequestor &req_;
    };

    void
    inject()
    {
        while (!script_.empty() && blocked_ == nullptr &&
               script_.front().when <= curTick()) {
            Packet *pkt = script_.front().pkt;
            script_.pop_front();
            pkt->setInjectedTick(curTick());
            ++outstanding_;
            if (!port_.sendTimingReq(pkt)) {
                ++retries_;
                --outstanding_;
                blocked_ = pkt;
                return;
            }
        }
        if (!script_.empty() && blocked_ == nullptr)
            reschedule(injectEvent_,
                       std::max(curTick(), script_.front().when));
    }

    void
    retry()
    {
        Packet *pkt = blocked_;
        blocked_ = nullptr;
        ++outstanding_;
        if (!port_.sendTimingReq(pkt)) {
            --outstanding_;
            blocked_ = pkt;
            return;
        }
        inject();
    }

    bool
    recvResp(Packet *pkt)
    {
        responses_.push_back(Response{curTick(), pkt->id(),
                                      pkt->cmd(), pkt->addr(),
                                      pkt->injectedTick(),
                                      pkt->span()});
        respByPkt_[pkt->id()] = curTick();
        --outstanding_;
        delete pkt;
        return true;
    }

    Port port_;
    std::deque<Scripted> script_;
    std::vector<Response> responses_;
    std::map<std::uint64_t, Tick> respByPkt_;
    Packet *blocked_ = nullptr;
    unsigned outstanding_ = 0;
    unsigned retries_ = 0;
    EventFunctionWrapper injectEvent_;
};

/** DDR3-1333 with refresh disabled: fully deterministic timing. */
inline DRAMCtrlConfig
noRefreshConfig()
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.timing.tREFI = 0;
    return cfg;
}

/** Same, with zero static latencies (bare DRAM timing visible). */
inline DRAMCtrlConfig
bareTimingConfig()
{
    DRAMCtrlConfig cfg = noRefreshConfig();
    cfg.frontendLatency = 0;
    cfg.backendLatency = 0;
    return cfg;
}

/** One config field and how to move it by its smallest step. */
struct FieldStep
{
    const char *name;
    std::function<void(DRAMCtrlConfig &)> apply;
};

namespace detail {

inline void stepValue(unsigned &v) { ++v; }
/** Integers and durations: +1, i.e. one tick for a duration. */
inline void stepValue(std::uint64_t &v) { ++v; }
inline void stepValue(double &v) { v = std::nextafter(v, HUGE_VAL); }
inline void stepValue(bool &v) { v = !v; }
inline void stepValue(std::vector<unsigned> &v) { v.push_back(1); }
/** The plugin kind: the next kind. */
inline void stepValue(std::string &v) { v = v == "ecc" ? "prac" : "ecc"; }

inline void
stepValue(AddrMapping &v)
{
    v = v == AddrMapping::RoCoRaBaCh
            ? AddrMapping::RoRaBaCoCh
            : static_cast<AddrMapping>(static_cast<int>(v) + 1);
}

inline void
stepValue(PagePolicy &v)
{
    v = v == PagePolicy::ClosedAdaptive
            ? PagePolicy::Open
            : static_cast<PagePolicy>(static_cast<int>(v) + 1);
}

inline void
stepValue(SchedPolicy &v)
{
    v = v == SchedPolicy::FrFcfsPrio
            ? SchedPolicy::Fcfs
            : static_cast<SchedPolicy>(static_cast<int>(v) + 1);
}

/** The struct in @p c that holds members of the tag's type. */
inline DRAMOrg &
fieldOwner(DRAMCtrlConfig &c, DRAMOrg *)
{
    return c.org;
}

inline DRAMTiming &
fieldOwner(DRAMCtrlConfig &c, DRAMTiming *)
{
    return c.timing;
}

inline DRAMCtrlConfig &
fieldOwner(DRAMCtrlConfig &c, DRAMCtrlConfig *)
{
    return c;
}

/** Plugin fields live in the first chain entry. */
inline PluginSpec &
fieldOwner(DRAMCtrlConfig &c, PluginSpec *)
{
    return c.plugins.at(0);
}

template <typename Owner, typename T>
FieldStep
fieldStep(const char *name, T Owner::*member)
{
    return {name, [member](DRAMCtrlConfig &c) {
                stepValue(fieldOwner(c, static_cast<Owner *>(nullptr)).*
                          member);
            }};
}

} // namespace detail

/**
 * Every configuration field, listed here through member pointers and
 * independently of the config field table in dram/dram_config.hh, each
 * with its smallest step: +1 tick for durations, nextafter() for
 * doubles, +1 for integers, a flip for bools, the next enumerator, one
 * more priority entry. Plugin fields step cfg.plugins[0], so apply
 * them to a config with a non-empty chain. The last entry adds one
 * more plugin to the chain.
 */
inline std::vector<FieldStep>
everyFieldStep()
{
#define DRAMCTRL_TEST_FIELD(owner, member)                              \
    detail::fieldStep(#member, &owner::member)
    return {
        DRAMCTRL_TEST_FIELD(DRAMOrg, burstLength),
        DRAMCTRL_TEST_FIELD(DRAMOrg, deviceBusWidth),
        DRAMCTRL_TEST_FIELD(DRAMOrg, devicesPerRank),
        DRAMCTRL_TEST_FIELD(DRAMOrg, ranksPerChannel),
        DRAMCTRL_TEST_FIELD(DRAMOrg, banksPerRank),
        DRAMCTRL_TEST_FIELD(DRAMOrg, bankGroupsPerRank),
        DRAMCTRL_TEST_FIELD(DRAMOrg, pseudoChannels),
        DRAMCTRL_TEST_FIELD(DRAMOrg, rowBufferSize),
        DRAMCTRL_TEST_FIELD(DRAMOrg, channelCapacity),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tCK),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tBURST),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRCD),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tCL),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRP),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRAS),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tWR),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tWTR),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRTW),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRRD),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tXAW),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tREFI),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRFC),
        DRAMCTRL_TEST_FIELD(DRAMTiming, activationLimit),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tCCD_L),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tCCD_S),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRRD_L),
        DRAMCTRL_TEST_FIELD(DRAMTiming, tRFCsb),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, readBufferSize),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, writeBufferSize),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, writeHighThreshold),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, writeLowThreshold),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, minWritesPerSwitch),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, schedPolicy),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, addrMapping),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, pagePolicy),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, frontendLatency),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, backendLatency),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, maxAccessesPerRow),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, enablePowerDown),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, powerDownDelay),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, tXP),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, enableSelfRefresh),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, selfRefreshDelay),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, tXS),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, requestorPriorities),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, temperatureC),
        DRAMCTRL_TEST_FIELD(DRAMCtrlConfig, perRankRefresh),
        DRAMCTRL_TEST_FIELD(PluginSpec, kind),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccDataBits),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccCheckBits),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccCorrectBits),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccDetectBits),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccBer),
        DRAMCTRL_TEST_FIELD(PluginSpec, eccSeed),
        DRAMCTRL_TEST_FIELD(PluginSpec, pracThreshold),
        DRAMCTRL_TEST_FIELD(PluginSpec, tRFM),
        DRAMCTRL_TEST_FIELD(PluginSpec, tRFCpb),
        {"plugins",
         [](DRAMCtrlConfig &c) {
             c.plugins.emplace_back();
             c.plugins.back().kind = "refmgr";
         }},
    };
#undef DRAMCTRL_TEST_FIELD
}

} // namespace testutil
} // namespace dramctrl

#endif // DRAMCTRL_TESTS_TEST_UTIL_H
