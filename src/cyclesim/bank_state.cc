#include "cyclesim/bank_state.hh"

#include <algorithm>

namespace dramctrl {
namespace cyclesim {

namespace {

Cycle
toCycles(Tick ticks, Tick tck)
{
    return divCeil<Tick>(ticks, tck);
}

} // namespace

CycleTiming::CycleTiming(const DRAMTiming &t)
    : tRCD(toCycles(t.tRCD, t.tCK)), tCL(toCycles(t.tCL, t.tCK)),
      tRP(toCycles(t.tRP, t.tCK)), tRAS(toCycles(t.tRAS, t.tCK)),
      tRC(tRAS + tRP), tWR(toCycles(t.tWR, t.tCK)),
      tWTR(toCycles(t.tWTR, t.tCK)), tRTW(toCycles(t.tRTW, t.tCK)),
      tRRD(toCycles(t.tRRD, t.tCK)), tXAW(toCycles(t.tXAW, t.tCK)),
      tREFI(toCycles(t.tREFI, t.tCK)), tRFC(toCycles(t.tRFC, t.tCK)),
      burstCycles(toCycles(t.tBURST, t.tCK)),
      tCCD_L(toCycles(t.tCCDLong(), t.tCK)),
      tCCD_S(toCycles(t.tCCDShort(), t.tCK)),
      tRRD_L(toCycles(t.tRRDLong(), t.tCK)),
      tRFCsb(t.tRFCsb ? toCycles(t.tRFCsb, t.tCK) : 0),
      activationLimit(t.activationLimit)
{
}

void
CycleBankState::activate(Cycle c, std::uint64_t row,
                         const CycleTiming &t)
{
    openRow = row;
    nextRead = std::max(nextRead, c + t.tRCD);
    nextWrite = std::max(nextWrite, c + t.tRCD);
    nextPrecharge = std::max(nextPrecharge, c + t.tRAS);
    nextActivate = std::max(nextActivate, c + t.tRC);
}

void
CycleBankState::precharge(Cycle c, const CycleTiming &t)
{
    openRow = kNoRow;
    nextActivate = std::max(nextActivate, c + t.tRP);
}

void
CycleRankState::recordActivate(Cycle c, const CycleTiming &t)
{
    nextActAnyBank = std::max(nextActAnyBank, c + t.tRRD);
    if (t.activationLimit > 0) {
        // Owners usually pre-size the ring; standalone state sizes it
        // on first use.
        if (actWindow.capacity() < t.activationLimit)
            actWindow.init(t.activationLimit);
        actWindow.push_back_overwrite(c);
    }
}

} // namespace cyclesim
} // namespace dramctrl
