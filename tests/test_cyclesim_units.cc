/**
 * @file
 * Unit tests for the cycle-based comparator's building blocks:
 * CycleTiming quantisation, per-bank/rank state transitions, and the
 * bounded per-bank command queues.
 */

#include <gtest/gtest.h>

#include "cyclesim/bank_state.hh"
#include "cyclesim/command_queue.hh"
#include "dram/dram_presets.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace {

using namespace cyclesim;

DRAMTiming
ddr3Timing()
{
    return presets::ddr3_1333().timing;
}

TEST(CycleTimingTest, QuantisesUpward)
{
    CycleTiming ct(ddr3Timing());
    // tRCD 13.75 ns at tCK 1.5 ns -> ceil = 10 cycles.
    EXPECT_EQ(ct.tRCD, 10u);
    EXPECT_EQ(ct.tCL, 10u);
    EXPECT_EQ(ct.tRP, 10u);
    // tRAS 35 ns -> 24 cycles; tRC = tRAS + tRP.
    EXPECT_EQ(ct.tRAS, 24u);
    EXPECT_EQ(ct.tRC, 34u);
    // tBURST 6 ns -> 4 cycles.
    EXPECT_EQ(ct.burstCycles, 4u);
    // Quantised values never undershoot the analog time.
    EXPECT_GE(ct.tRCD * fromNs(1.5), fromNs(13.75));
    EXPECT_GE(ct.tXAW * fromNs(1.5), fromNs(30));
}

TEST(CycleBankStateTest, ActivateSetsTimers)
{
    CycleTiming ct(ddr3Timing());
    CycleBankState bank;
    EXPECT_FALSE(bank.rowOpen());
    bank.activate(100, 7, ct);
    EXPECT_TRUE(bank.rowOpen());
    EXPECT_EQ(bank.openRow, 7u);
    EXPECT_EQ(bank.nextRead, 100 + ct.tRCD);
    EXPECT_EQ(bank.nextWrite, 100 + ct.tRCD);
    EXPECT_EQ(bank.nextPrecharge, 100 + ct.tRAS);
    EXPECT_EQ(bank.nextActivate, 100 + ct.tRC);
}

TEST(CycleBankStateTest, PrechargeClosesAndSetsTrp)
{
    CycleTiming ct(ddr3Timing());
    CycleBankState bank;
    bank.activate(0, 3, ct);
    bank.precharge(50, ct);
    EXPECT_FALSE(bank.rowOpen());
    EXPECT_GE(bank.nextActivate, 50 + ct.tRP);
}

TEST(CycleRankStateTest, TrrdGatesActivates)
{
    CycleTiming ct(ddr3Timing());
    CycleRankState rank;
    EXPECT_EQ(rank.earliestActivate(ct), 0u);
    rank.recordActivate(0, ct);
    EXPECT_EQ(rank.earliestActivate(ct), ct.tRRD);
}

TEST(CycleRankStateTest, ActivationWindowGatesFifth)
{
    CycleTiming ct(ddr3Timing());
    CycleRankState rank;
    Cycle c = 0;
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(rank.earliestActivate(ct), c);
        rank.recordActivate(c, ct);
        c += ct.tRRD;
    }
    // Fifth activate: blocked until the window slides past the first.
    ASSERT_GT(ct.tXAW, c);
    EXPECT_EQ(rank.earliestActivate(ct), ct.tXAW);
}

TEST(CommandQueueTest, SpaceAccounting)
{
    CommandQueue q(1, 2, 3);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.hasSpace(0, 0, 3));
    EXPECT_FALSE(q.hasSpace(0, 0, 4));
    for (unsigned i = 0; i < 3; ++i)
        q.push(Command{CmdType::Act, 0, 0, i, 0, false, nullptr});
    EXPECT_FALSE(q.hasSpace(0, 0, 1));
    EXPECT_TRUE(q.hasSpace(0, 1, 3)); // other bank unaffected
    EXPECT_EQ(q.totalSize(), 3u);
    EXPECT_FALSE(q.empty());
}

TEST(CommandQueueTest, PerBankFifoOrder)
{
    CommandQueue q(1, 1, 4);
    q.push(Command{CmdType::Act, 0, 0, 1, 0, false, nullptr});
    q.push(Command{CmdType::Read, 0, 0, 1, 5, false, nullptr});
    auto &bank_q = q.at(0, 0);
    EXPECT_EQ(bank_q.front().type, CmdType::Act);
    bank_q.pop_front();
    EXPECT_EQ(bank_q.front().type, CmdType::Read);
    EXPECT_EQ(bank_q.front().col, 5u);
}

TEST(CommandQueueTest, OverflowPanicsAndZeroDepthFatal)
{
    setThrowOnError(true);
    CommandQueue q(1, 1, 1);
    q.push(Command{CmdType::Act, 0, 0, 0, 0, false, nullptr});
    EXPECT_THROW(
        q.push(Command{CmdType::Pre, 0, 0, 0, 0, false, nullptr}),
        std::runtime_error);
    EXPECT_THROW(CommandQueue(1, 1, 0), std::runtime_error);
    setThrowOnError(false);
}

TEST(CommandQueueTest, RankBankIndexing)
{
    CommandQueue q(2, 4, 2);
    q.push(Command{CmdType::Act, 1, 3, 9, 0, false, nullptr});
    EXPECT_TRUE(q.at(0, 3).empty());
    EXPECT_FALSE(q.at(1, 3).empty());
    EXPECT_EQ(q.at(1, 3).front().row, 9u);
}

} // namespace
} // namespace dramctrl
