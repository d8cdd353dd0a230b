/**
 * @file
 * Conservative parallel execution of a sharded simulation.
 *
 * A sharded Simulator partitions its model objects over several event
 * queues ("shards"); each shard runs its own slice of the agenda. The
 * engine advances all shards in lock-stepped windows:
 *
 *   window_end = min(until, min_over_shards(nextTick) + lookahead)
 *
 * where the lookahead is the minimum latency of any cross-shard
 * interaction. Every cross-shard effect travels as a message posted
 * during window execution and applied only at the barrier between
 * windows, in a single deterministic order sorted by
 * (delivery tick, target shard, sender shard, per-sender send order).
 * Because every message carries latency >= lookahead, a message sent
 * inside a window can never be due before that window's end, so
 * applying it at the barrier is always causally safe (the classic
 * conservative-synchronisation argument, CMB-style).
 *
 * The upshot: the sequence of windows, the events run inside each
 * shard, and the merge order at every barrier are all pure functions
 * of the model state — never of the worker-thread count or of host
 * timing. Running with 1, 2 or 8 threads produces byte-identical
 * results; a single-threaded run of the sharded engine IS the
 * reference ordering, not an approximation of it.
 */

#ifndef DRAMCTRL_SIM_SHARD_H
#define DRAMCTRL_SIM_SHARD_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/types.hh"

namespace dramctrl {

class Packet;
class Simulator;

namespace exec {
class ThreadPool;
} // namespace exec

/**
 * Receiving end of a cross-shard link. deliver() is invoked at a
 * barrier, on the coordinating thread, with all shards quiescent at a
 * common tick <= @p when; the implementation typically enqueues the
 * payload and (re)schedules a wake-up event on its owner's shard
 * queue at @p when.
 */
class ShardMailbox
{
  public:
    virtual ~ShardMailbox() = default;

    /**
     * Apply one message. @p pkt may be null for pure control messages
     * (e.g. flow-control credits); @p arg is an opaque small payload.
     */
    virtual void deliver(Tick when, Packet *pkt, std::uint64_t arg) = 0;
};

/**
 * Windowed conservative scheduler over a Simulator's shard queues.
 * Owned by the Simulator once configureShards() has been called;
 * model code only ever touches post().
 */
class ShardedEngine
{
  public:
    /** @p lookahead must be > 0: the minimum cross-shard latency. */
    ShardedEngine(Simulator &sim, Tick lookahead);

    /** Stops and joins the worker team. */
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    Tick lookahead() const { return lookahead_; }

    /**
     * Set the execution width (worker threads incl. the caller).
     * Clamped to [1, numShards] at first run; fixed once the worker
     * team has started. Width NEVER affects results, only wall-clock.
     */
    void setThreads(unsigned threads);

    unsigned threads() const { return requestedThreads_; }

    /**
     * Post a cross-shard message from @p from (the currently executing
     * shard) for delivery to @p box at @p when. Must satisfy
     * when >= senderNow + lookahead; the engine asserts it. Wait-free:
     * each shard appends to its own outbox.
     */
    void post(unsigned from, unsigned to, Tick when, ShardMailbox &box,
              Packet *pkt, std::uint64_t arg);

    /**
     * Advance every shard to @p until (finite horizons only reach
     * exactly @p until; kMaxTick runs to global exhaustion). All
     * shards are left at a common tick with no message in flight.
     *
     * @return the common final tick.
     */
    Tick run(Tick until);

    /** Synchronisation windows executed since construction. */
    std::uint64_t numWindows() const { return windows_; }

    /** Cross-shard messages delivered since construction. */
    std::uint64_t numMessages() const { return messages_; }

  private:
    struct Msg
    {
        Tick when;
        std::uint32_t to;
        std::uint32_t from;
        ShardMailbox *box;
        Packet *pkt;
        std::uint64_t arg;
    };

    /** Run one window on all shards (parallel when width > 1). */
    void runWindow(Tick window_end);

    /** Spin until every worker has finished the current window. */
    void awaitWorkers();

    /** Merge and apply all posted messages, single-threaded. */
    void deliverMessages();

    /** Advance every shard's clock to @p until (no events due). */
    void advanceAll(Tick until);

    /** Spawn the worker team on first parallel window. */
    void ensureWorkers();

    /** Long-running loop each pool worker executes. */
    void workerBody(unsigned id);

    Simulator &sim_;
    const Tick lookahead_;

    /** Per-sender-shard outboxes; only shard i writes outbox_[i]. */
    std::vector<std::vector<Msg>> outbox_;
    std::vector<Msg> merged_;

    std::uint64_t windows_ = 0;
    std::uint64_t messages_ = 0;

    unsigned requestedThreads_ = 1;
    /** Executors incl. the coordinator; fixed once workers started. */
    unsigned width_ = 1;
    std::unique_ptr<exec::ThreadPool> pool_;
    bool workersStarted_ = false;

    /** Barrier state: a new epoch publishes windowEnd_ to workers. */
    Tick windowEnd_ = 0;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> pending_{0};
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> parked_{0};
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    /** First fatal() a worker hit this window (under wakeMutex_). */
    std::exception_ptr workerError_;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_SHARD_H
