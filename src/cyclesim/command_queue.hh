/**
 * @file
 * Per-bank DRAM command queues for the cycle-based controller.
 *
 * DRAMSim2's structure: a transaction is decomposed into explicit DRAM
 * commands (ACT, PRE, RD, WR) which wait in a per-rank-per-bank queue;
 * commands within a bank issue strictly in order, and the controller
 * arbitrates across banks each cycle. The paper's event-based model
 * deliberately omits this split (Section II-A) — keeping it here is
 * what makes the comparator representative.
 */

#ifndef DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H
#define DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H

#include <cstdint>
#include <vector>

#include "cyclesim/bank_state.hh"
#include "sim/ring_buffer.hh"
#include "sim/types.hh"

namespace dramctrl {
namespace cyclesim {

enum class CmdType : std::uint8_t { Act, Pre, Read, Write };

/** A forward-declared controller-internal transaction. */
struct CycleTransaction;

/** One explicit DRAM command. */
struct Command
{
    CmdType type;
    unsigned rank;
    unsigned bank;
    std::uint64_t row;
    std::uint64_t col;
    /** Column command carries an auto-precharge (closed page). */
    bool autoPrecharge = false;
    /** The transaction a column command completes a burst of. */
    CycleTransaction *trans = nullptr;
};

/**
 * The set of per-bank FIFO command queues with a bounded depth.
 *
 * Each queue is a fixed ring sized once at construction, so the
 * cycle-by-cycle push/pop churn never allocates. The rings hold one
 * slot beyond the nominal depth: repairQueueHeads() may push a healing
 * precharge/activate in front of an already-full queue.
 */
class CommandQueue
{
  public:
    CommandQueue(unsigned ranks, unsigned banks, unsigned depth);

    /** Whether bank (@p rank, @p bank) can take @p count commands. */
    bool
    hasSpace(unsigned rank, unsigned bank, unsigned count) const
    {
        return at(rank, bank).size() + count <= depth_;
    }

    void push(const Command &cmd);

    RingBuffer<Command> &
    at(unsigned rank, unsigned bank)
    {
        return queues_.at(static_cast<std::size_t>(rank) * banks_ + bank);
    }
    const RingBuffer<Command> &
    at(unsigned rank, unsigned bank) const
    {
        return queues_.at(static_cast<std::size_t>(rank) * banks_ + bank);
    }

    /** The queue of flat bank index @p flat (rank * banks + bank). */
    RingBuffer<Command> &at(std::size_t flat) { return queues_.at(flat); }

    bool empty() const;
    std::size_t totalSize() const;

    unsigned numRanks() const { return ranks_; }
    unsigned numBanks() const { return banks_; }

  private:
    unsigned ranks_;
    unsigned banks_;
    unsigned depth_;
    std::vector<RingBuffer<Command>> queues_;
};

} // namespace cyclesim
} // namespace dramctrl

#endif // DRAMCTRL_CYCLESIM_COMMAND_QUEUE_H
