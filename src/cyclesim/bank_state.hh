/**
 * @file
 * Per-bank timing state for the cycle-based controller, expressed in
 * DRAM clock cycles (the comparator mirrors DRAMSim2, which keeps all
 * of its bookkeeping in cycles rather than absolute time).
 */

#ifndef DRAMCTRL_CYCLESIM_BANK_STATE_H
#define DRAMCTRL_CYCLESIM_BANK_STATE_H

#include <algorithm>
#include <cstdint>

#include "dram/dram_config.hh"
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace dramctrl {
namespace cyclesim {

/** A DRAM clock cycle count. */
using Cycle = std::uint64_t;

/** The DRAM timing set quantised to whole clock cycles. */
struct CycleTiming
{
    explicit CycleTiming(const DRAMTiming &t);

    Cycle tRCD;
    Cycle tCL;
    Cycle tRP;
    Cycle tRAS;
    Cycle tRC;
    Cycle tWR;
    Cycle tWTR;
    Cycle tRTW;
    Cycle tRRD;
    Cycle tXAW;
    Cycle tREFI;
    Cycle tRFC;
    Cycle burstCycles;
    /**
     * Bank-group timings, quantised from the resolved accessors: for
     * ungrouped devices tCCD_L == tCCD_S == burstCycles and tRRD_L ==
     * tRRD, so grouped code paths degenerate to the legacy behaviour.
     */
    Cycle tCCD_L;
    Cycle tCCD_S;
    Cycle tRRD_L;
    Cycle tRFCsb;
    unsigned activationLimit;
};

/** Cycle-granular state of one bank. */
struct CycleBankState
{
    static constexpr std::uint64_t kNoRow = ~std::uint64_t(0);

    std::uint64_t openRow = kNoRow;
    Cycle nextActivate = 0;
    Cycle nextPrecharge = 0;
    Cycle nextRead = 0;
    Cycle nextWrite = 0;

    bool rowOpen() const { return openRow != kNoRow; }

    /** Apply an ACT issued at cycle @p c. */
    void activate(Cycle c, std::uint64_t row, const CycleTiming &t);

    /** Apply a PRE issued at cycle @p c. */
    void precharge(Cycle c, const CycleTiming &t);
};

/** Rank-level activate constraints (tRRD, tFAW window). */
struct CycleRankState
{
    Cycle nextActAnyBank = 0;
    /** Last activationLimit ACT cycles; ring sized by the owner. */
    RingBuffer<Cycle> actWindow;

    /** Earliest cycle the rank allows an ACT under tRRD and tXAW. */
    Cycle
    earliestActivate(const CycleTiming &t) const
    {
        // tXAW: a full activation window waits for its oldest entry.
        if (t.activationLimit > 0 && actWindow.size() >= t.activationLimit)
            return std::max(nextActAnyBank, actWindow.front() + t.tXAW);
        return nextActAnyBank;
    }

    /** Record an ACT issued at cycle @p c. */
    void recordActivate(Cycle c, const CycleTiming &t);
};

} // namespace cyclesim
} // namespace dramctrl

#endif // DRAMCTRL_CYCLESIM_BANK_STATE_H
