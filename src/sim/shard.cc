#include "sim/shard.hh"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.hh"
#include "mem/packet.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {

ShardedEngine::ShardedEngine(Simulator &sim, Tick lookahead)
    : sim_(sim), lookahead_(lookahead)
{
    if (lookahead_ == 0)
        fatal("sharded engine needs a non-zero lookahead");
    outbox_.resize(sim_.numShards());
}

ShardedEngine::~ShardedEngine()
{
    if (workersStarted_) {
        stop_.store(true, std::memory_order_release);
        epoch_.fetch_add(1, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            wakeCv_.notify_all();
        }
        pool_.reset(); // drains and joins
    }
    // Messages are only left in flight when a fatal() abandoned a
    // window and is unwinding through here; their packets have no
    // receiver any more, so release them instead of asserting (a throw
    // from a destructor mid-unwind would terminate the process).
    for (auto &ob : outbox_) {
        for (const Msg &m : ob)
            delete m.pkt;
    }
}

void
ShardedEngine::setThreads(unsigned threads)
{
    if (threads == 0)
        threads = exec::ThreadPool::hardwareThreads();
    if (workersStarted_ && threads != requestedThreads_)
        fatal("cannot change --sim-threads after the first run");
    requestedThreads_ = threads;
}

void
ShardedEngine::post(unsigned from, unsigned to, Tick when,
                    ShardMailbox &box, Packet *pkt, std::uint64_t arg)
{
    DC_ASSERT(from < outbox_.size() && to < outbox_.size(),
              "cross-shard post between invalid shards %u -> %u", from,
              to);
    DC_ASSERT(when >= sim_.shardQueue(from).curTick() + lookahead_,
              "cross-shard message due at %llu violates the lookahead "
              "(sender now %llu + %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(
                  sim_.shardQueue(from).curTick()),
              static_cast<unsigned long long>(lookahead_));
    outbox_[from].push_back(
        Msg{when, to, from, &box, pkt, arg});
}

void
ShardedEngine::deliverMessages()
{
    merged_.clear();
    for (auto &ob : outbox_) {
        merged_.insert(merged_.end(), ob.begin(), ob.end());
        ob.clear();
    }
    if (merged_.empty())
        return;

    // Total deterministic order. stable_sort preserves each sender's
    // send order within equal (when, to, from) keys, and the outboxes
    // were concatenated in ascending sender order, so the merge is a
    // pure function of the model state — never of thread timing.
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const Msg &a, const Msg &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         if (a.to != b.to)
                             return a.to < b.to;
                         return a.from < b.from;
                     });

    for (const Msg &m : merged_) {
        DC_ASSERT(m.when >= sim_.shardQueue(m.to).curTick(),
                  "message due at %llu delivered past the barrier %llu",
                  static_cast<unsigned long long>(m.when),
                  static_cast<unsigned long long>(
                      sim_.shardQueue(m.to).curTick()));
        m.box->deliver(m.when, m.pkt, m.arg);
        ++messages_;
    }
    merged_.clear();
}

void
ShardedEngine::advanceAll(Tick until)
{
    const unsigned n = sim_.numShards();
    for (unsigned s = 0; s < n; ++s) {
        // No shard has an event due at or before `until` here, so this
        // only moves the clocks forward to the common horizon.
        sim_.shardQueue(s).simulate(until);
    }
}

void
ShardedEngine::ensureWorkers()
{
    if (workersStarted_)
        return;
    workersStarted_ = true;
    pool_ = std::make_unique<exec::ThreadPool>(width_ - 1);
    for (unsigned id = 1; id < width_; ++id)
        pool_->post([this, id] { workerBody(id); });
}

void
ShardedEngine::workerBody(unsigned id)
{
    const unsigned n = sim_.numShards();
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t e;
        unsigned spins = 0;
        while ((e = epoch_.load(std::memory_order_acquire)) == seen &&
               !stop_.load(std::memory_order_acquire)) {
            // Spin briefly (windows are short), then yield, then park:
            // oversubscribed hosts must not burn a core per worker.
            if (++spins < 1024) {
                // busy wait
            } else if (spins < 16384) {
                std::this_thread::yield();
            } else {
                std::unique_lock<std::mutex> lock(wakeMutex_);
                parked_.fetch_add(1, std::memory_order_relaxed);
                wakeCv_.wait(lock, [&] {
                    return epoch_.load(std::memory_order_acquire) !=
                               seen ||
                           stop_.load(std::memory_order_acquire);
                });
                parked_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = e;
        Tick window_end = windowEnd_; // published by the epoch store
        try {
            for (unsigned s = id; s < n; s += width_)
                sim_.shardQueue(s).simulate(window_end);
        } catch (...) {
            // Hand a fatal() to the coordinator, which rethrows it at
            // the barrier; the first one in worker order wins.
            std::lock_guard<std::mutex> lock(wakeMutex_);
            if (workerError_ == nullptr)
                workerError_ = std::current_exception();
        }
        pending_.fetch_sub(1, std::memory_order_release);
    }
}

void
ShardedEngine::runWindow(Tick window_end)
{
    const unsigned n = sim_.numShards();
    ++windows_;
    if (width_ <= 1) {
        // Sequential reference execution: identical shard-local event
        // order, identical barrier merge — just one executor.
        for (unsigned s = 0; s < n; ++s)
            sim_.shardQueue(s).simulate(window_end);
        return;
    }

    ensureWorkers();
    windowEnd_ = window_end;
    pending_.store(width_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        wakeCv_.notify_all();
    }

    // The coordinator is executor 0: shard 0 (and every width-th shard)
    // always runs here, so objects on shard 0 keep main-thread
    // affinity. A fatal() here must wait for the workers before it
    // unwinds the model they are still running.
    try {
        for (unsigned s = 0; s < n; s += width_)
            sim_.shardQueue(s).simulate(window_end);
    } catch (...) {
        awaitWorkers();
        throw;
    }
    awaitWorkers();
    if (workerError_ != nullptr)
        std::rethrow_exception(std::exchange(workerError_, nullptr));
}

void
ShardedEngine::awaitWorkers()
{
    unsigned spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (++spins >= 64)
            std::this_thread::yield();
    }
}

Tick
ShardedEngine::run(Tick until)
{
    const unsigned n = sim_.numShards();
    if (width_ == 1 && !workersStarted_)
        width_ = std::min(requestedThreads_, n);

    // Messages posted outside a window (model setup before the first
    // run) have not been through a barrier yet; apply them so their
    // wake-ups show up in the shard agendas below.
    deliverMessages();

    for (;;) {
        // Invariant at the top: all shards sit at a common barrier tick
        // and every posted message has been delivered.
        Tick t_next = kMaxTick;
        for (unsigned s = 0; s < n; ++s)
            t_next = std::min(t_next, sim_.shardQueue(s).nextTick());

        if (t_next == kMaxTick) {
            if (until != kMaxTick)
                advanceAll(until);
            break;
        }
        if (until != kMaxTick && t_next > until) {
            advanceAll(until);
            break;
        }

        DC_ASSERT(t_next < kMaxTick - lookahead_,
                  "event tick too close to the end of time");
        Tick window_end = t_next + lookahead_;
        if (window_end > until)
            window_end = until;

        runWindow(window_end);
        deliverMessages();
    }
    for (auto &ob : outbox_)
        DC_ASSERT(ob.empty(), "engine left a run with undelivered messages");
    return sim_.shardQueue(0).curTick();
}

} // namespace dramctrl
