/**
 * @file
 * The simulated systems the benchmark times, built only through the
 * library's public API, and the counters it reads back from their
 * public statistics after a run.
 */

#ifndef PERFBENCH_SYSTEMS_HH
#define PERFBENCH_SYSTEMS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "harness/testbench.hh"
#include "sim/simulator.hh"

namespace perfbench {

using dramctrl::Simulator;
using dramctrl::Tick;

/** splitmix64: the one source of every seeded input. */
std::uint64_t mix(std::uint64_t x);

/**
 * Counts read from the public statistics of a finished run. A layer
 * that does no work on a system reads 0.
 */
struct Counters
{
    /** Requests accepted by the controllers. */
    double requests = 0;
    /** Ops committed by the requestors: core ops, or one per request
     *  answered for generators and trace players. */
    double ops = 0;
    /** Requests the traffic sources had refused and re-sent. */
    double srcRetries = 0;
    /** Requests the controllers refused (numRdRetry + numWrRetry, or
     *  the cycle model's numRetries). */
    double ctrlRefusals = 0;
    /** Crossbar reqRetries, summed over the plain crossbars. */
    double xbarRetries = 0;
    /** Events serviced, summed over every shard's queue. */
    double events = 0;
    double windows = 0;
    double messages = 0;
    /** DRAM clock cycles the cycle model ticked. */
    double cycles = 0;
    /** Simulated DRAM figures, averaged over event-model channels. */
    double rowHitRate = 0;
    double busUtil = 0;
    double avgRdQLen = 0;
    double avgMemAccLatNs = 0;
    double wrPerTurnaround = 0;
    /** Core-side figures (full-system runs only). */
    double ipc = 0;
    double l2MissRate = 0;
    double mshrBlocked = 0;
};

/** One built system; every repetition builds a fresh one. */
class System
{
  public:
    virtual ~System() = default;

    virtual Simulator &sim() = 0;

    /** Simulate until drained or @p budget ticks have passed. */
    virtual Tick run(Tick budget) = 0;

    /** Every source finished and every queue on the path is empty. */
    virtual bool drained() = 0;

    /** Requests the sources were to issue, and those completed. */
    virtual std::uint64_t attempted() = 0;
    virtual std::uint64_t completed() = 0;

    virtual Counters counters() = 0;
};

/**
 * Write the ddr3 replay trace for @p seed: @p records 64-byte
 * requests, 2/3 reads, about half in row-hit streaks and half at
 * random rows over every bank, issued every 2-4 ns (faster than one
 * ddr3_1333 channel drains). The first n records for a seed are the
 * same for every record count.
 *
 * @return FNV-1a digest of the file's bytes.
 */
std::uint64_t writeReplayTrace(const std::string &path,
                               std::uint64_t seed,
                               std::uint64_t records);

/** TracePlayer -> one ddr3_1333 controller of @p model. */
std::unique_ptr<System> makeReplay(const std::string &trace,
                                   dramctrl::harness::CtrlModel model);

/**
 * hmc_stack_64: 64 RandomGen sources (67% reads, 4 ns apart) behind
 * the sharded crossbar, run on @p threads engine workers.
 */
std::unique_ptr<System> makeHmc64(std::uint64_t seed,
                                  std::uint64_t req_per_gen,
                                  unsigned threads);

/** The fig8 system: 4 cores, L1s, shared L2, 2 closed-page ddr3_1333
 *  channels, running the canneal profile. */
std::unique_ptr<System> makeFullsys(std::uint64_t seed,
                                    std::uint64_t ops_per_core);

/**
 * Ledger rows: one RandomGen straight into a ddr3_1333 controller of
 * @p model, optionally capturing its accepted stream to
 * @p capture_path for the replay row.
 */
std::unique_ptr<System> makeGenCtrl(std::uint64_t seed,
                                    std::uint64_t requests,
                                    dramctrl::harness::CtrlModel model,
                                    const std::string &capture_path = "");

/** Ledger row: the same generator through a 1-channel
 *  MultiChannelSystem (sharded crossbar, one shard). */
std::unique_ptr<System> makeXbar1(std::uint64_t seed,
                                  std::uint64_t requests);

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 1469598103934665603ULL);

} // namespace perfbench

#endif // PERFBENCH_SYSTEMS_HH
