/**
 * @file
 * A ROB-limited timing core driving the cache hierarchy.
 *
 * Stands in for the paper's out-of-order cores (Table II): ops dispatch
 * up to dispatchWidth per cycle into a bounded reorder buffer and
 * retire in order up to commitWidth per cycle. Non-memory ops complete
 * in one cycle; memory ops (drawn from a WorkloadProfile) occupy their
 * ROB slot until the cache hierarchy responds. The essential property
 * for the paper's experiments is the closed feedback loop: memory
 * latency fills the ROB and throttles the request stream, which traces
 * cannot capture (Section I).
 *
 * A core stalled on memory ticks without changing state, so it parks
 * its tick event (EventQueue::park) until a response or a retry
 * arrives, and then counts the elided cycles: the statistics are those
 * of a core that ticked every cycle.
 */

#ifndef DRAMCTRL_CPU_TIMING_CORE_H
#define DRAMCTRL_CPU_TIMING_CORE_H

#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "cpu/workload.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"

namespace dramctrl {

struct CoreConfig
{
    /** Core clock period (Table II: 2 GHz). */
    Tick clockPeriod = fromNs(0.5);
    /** Ops dispatched per cycle (Table II: 6-wide dispatch). */
    unsigned dispatchWidth = 6;
    /** Ops committed per cycle (Table II: 8-wide commit). */
    unsigned commitWidth = 8;
    /** Reorder buffer entries (Table II: 40). */
    unsigned robSize = 40;
    /** Ops to run before reporting done (0 = run forever). */
    std::uint64_t numOps = 1'000'000;
    /** Base address of this core's slice of memory. */
    Addr memBase = 0;
    std::uint64_t seed = 1;
};

class TimingCore : public SimObject
{
  public:
    TimingCore(Simulator &sim, std::string name, const CoreConfig &cfg,
               const WorkloadProfile &workload, RequestorId id);
    ~TimingCore() override;

    /** Connect to the L1 data cache. */
    RequestPort &dcachePort() { return port_; }

    void startup() override;

    /** All configured ops committed. */
    bool done() const;

    struct CoreStats
    {
        explicit CoreStats(TimingCore &core);

        stats::Scalar committedOps;
        stats::Scalar memOps;
        stats::Scalar cycles;
        stats::Scalar memStallCycles;
        stats::Formula ipc;
    };

    const CoreStats &coreStats() const { return *stats_; }

    /** Instructions per cycle so far. */
    double ipc() const;

    std::uint64_t committed() const { return committed_; }

  private:
    struct Op
    {
        bool isMem = false;
        bool completed = false;
        std::uint64_t id = 0;
    };

    class DcachePort : public RequestPort
    {
      public:
        DcachePort(std::string name, TimingCore &core)
            : RequestPort(std::move(name)), core_(core)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return core_.recvTimingResp(pkt);
        }

        void recvReqRetry() override { core_.recvReqRetry(); }

      private:
        TimingCore &core_;
    };

    void tick();
    /** Unpark the tick, counting the cycles the queue elided. */
    void wake();
    /** Count @p cycles idle cycles (stall cycles while blocked). */
    void countIdle(std::uint64_t cycles);
    void dispatch();
    void commit();
    bool recvTimingResp(Packet *pkt);
    void recvReqRetry();

    Addr nextMemAddr();

    CoreConfig cfg_;
    WorkloadProfile workload_;
    RequestorId id_;
    DcachePort port_;
    Random rng_;

    std::list<Op> rob_;
    std::unordered_map<std::uint64_t, std::list<Op>::iterator>
        inFlight_; // packet id -> ROB slot
    std::uint64_t nextOpId_ = 0;
    std::uint64_t committed_ = 0;

    Packet *blockedPkt_ = nullptr;
    std::list<Op>::iterator blockedOp_;

    Addr cursor_ = 0;
    bool running_ = false;

    EventFunctionWrapper tickEvent_;

    std::unique_ptr<CoreStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_CPU_TIMING_CORE_H
