/**
 * @file
 * Freelist-based object pools for the hot allocation paths.
 *
 * The simulator's steady state creates and destroys the same few object
 * types (packets, controller-internal bursts, transactions) millions of
 * times. Routing those through a type-segregated freelist means the
 * general-purpose allocator is only touched while a pool grows towards
 * its high-water mark; after warm-up, every allocate() is a pointer pop
 * and every deallocate() a pointer push, and the recycled storage stays
 * hot in cache.
 *
 * The pools are **per thread** (`thread_local`): each thread gets a
 * private freelist with zero synchronisation on the allocation fast
 * path, and the steady-state no-fresh-alloc guarantee holds per
 * thread. The batch engine's shared-nothing jobs allocate and free
 * strictly on one thread; the sharded simulation engine (sim/shard.hh)
 * additionally migrates the occasional object across shard threads
 * (e.g. a packet allocated by a restored checkpoint on the main thread
 * and freed by a generator on its shard's worker). Cross-thread
 * deallocation is therefore permitted: the slot simply joins the
 * freeing thread's freelist. Two consequences keep that safe:
 *
 *  - Chunk storage is immortal. When a pool dies (thread exit), its
 *    chunks move to a process-lifetime store instead of being freed,
 *    so a migrated slot sitting in another thread's freelist can never
 *    dangle. Its free slots go to the same store, and the next
 *    thread's pool that runs out of storage takes a dead pool's
 *    freelist over before it carves a fresh chunk: a process that
 *    builds and tears down many multi-threaded systems reuses its
 *    exited workers' storage instead of growing with every system.
 *  - inUse is signed: a thread that frees more foreign slots than it
 *    allocated legitimately reads negative.
 *
 * Counters are exposed per thread (poolStats()) so tests can assert
 * that a warmed-up simulation performs no fresh (chunk-carving)
 * allocations.
 */

#ifndef DRAMCTRL_SIM_POOL_H
#define DRAMCTRL_SIM_POOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace dramctrl {

/** Snapshot of one pool's allocation counters. */
struct PoolStats
{
    /** Slots ever carved from chunks — the high-water mark. */
    std::size_t capacity = 0;
    /**
     * Slots currently handed out. Signed: cross-thread frees make a
     * single thread's count transiently negative.
     */
    std::int64_t inUse = 0;
    /** Total allocate() calls. */
    std::uint64_t totalAllocs = 0;
    /**
     * allocate() calls that had to carve fresh storage instead of
     * recycling the freelist. Flat across a simulation window means the
     * window ran allocation-free.
     */
    std::uint64_t freshAllocs = 0;
};

/**
 * A growing freelist pool handing out raw storage for objects of type
 * @p T. Storage is carved from geometrically growing chunks and never
 * returned to the system (a dying pool hands its chunks and free slots
 * to a process-lifetime store, see ~ObjectPool()), so recycled slots
 * keep stable addresses for the life of the process even when they
 * migrate across threads.
 */
template <typename T>
class ObjectPool
{
  public:
    /** This thread's pool for @p T (created on first use). */
    static ObjectPool &
    instance()
    {
        static thread_local ObjectPool pool;
        return pool;
    }

    ObjectPool() = default;

    /**
     * Hand the chunks (immortal from here on) and every free slot,
     * the uncarved tail of the last chunk included, to the store that
     * later pools adopt from.
     */
    ~ObjectPool()
    {
        Slot *head = freeHead_;
        for (std::size_t i = chunkUsed_; i < chunkSize_; ++i) {
            chunks_.back()[i].next = head;
            head = &chunks_.back()[i];
        }
        DeadPools &dead = deadPools();
        std::lock_guard<std::mutex> lock(dead.mutex);
        for (auto &chunk : chunks_)
            dead.chunks.push_back(std::move(chunk));
        if (head != nullptr)
            dead.freeLists.push_back(head);
    }

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /** Raw storage for one T; never null (throws bad_alloc instead). */
    void *
    allocate()
    {
        ++stats_.totalAllocs;
        ++stats_.inUse;
        if (freeHead_ == nullptr && chunkUsed_ == chunkSize_)
            freeHead_ = adoptDeadFreeList();
        if (freeHead_ != nullptr) {
            Slot *slot = freeHead_;
            freeHead_ = slot->next;
            return static_cast<void *>(slot->storage);
        }
        ++stats_.freshAllocs;
        if (chunkUsed_ == chunkSize_)
            grow();
        return static_cast<void *>(
            chunks_.back()[chunkUsed_++].storage);
    }

    /** Return storage obtained from allocate() to the freelist. */
    void
    deallocate(void *p)
    {
        auto *slot = reinterpret_cast<Slot *>(p);
        slot->next = freeHead_;
        freeHead_ = slot;
        --stats_.inUse;
    }

    const PoolStats &stats() const { return stats_; }

  private:
    union Slot
    {
        Slot *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    /** What dead pools of T left behind. */
    struct DeadPools
    {
        std::mutex mutex;
        /** Never freed: migrated slots may still point into them. */
        std::vector<std::unique_ptr<Slot[]>> chunks;
        /** Freelists waiting for a pool to take them over. */
        std::vector<Slot *> freeLists;
    };

    /**
     * The process-wide store for T, an immortal heap object (thread
     * pools die during thread exit, which may outlive statics; leak
     * checkers see it as reachable through the static pointer).
     */
    static DeadPools &
    deadPools()
    {
        static DeadPools *dead = new DeadPools;
        return *dead;
    }

    /** One dead pool's freelist, or nullptr when none is waiting. */
    static Slot *
    adoptDeadFreeList()
    {
        DeadPools &dead = deadPools();
        std::lock_guard<std::mutex> lock(dead.mutex);
        if (dead.freeLists.empty())
            return nullptr;
        Slot *head = dead.freeLists.back();
        dead.freeLists.pop_back();
        return head;
    }

    void
    grow()
    {
        chunks_.push_back(std::make_unique<Slot[]>(nextChunk_));
        chunkSize_ = nextChunk_;
        chunkUsed_ = 0;
        stats_.capacity += chunkSize_;
        // Geometric growth keeps the chunk count logarithmic in the
        // high-water mark.
        nextChunk_ *= 2;
    }

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    Slot *freeHead_ = nullptr;
    std::size_t chunkSize_ = 0;
    std::size_t chunkUsed_ = 0;
    std::size_t nextChunk_ = 64;
    PoolStats stats_;
};

/**
 * Mixin giving a class pooled operator new/delete. Deriving (or
 * defining the two operators in terms of ObjectPool directly) routes
 * every `new T` / `delete t` through the calling thread's freelist
 * with no call-site changes. Array forms intentionally stay on the
 * global allocator. Same-thread new/delete is the fast path the
 * no-fresh-alloc guarantee is stated for; cross-thread delete is safe
 * and migrates the slot (see the file comment).
 */
template <typename T>
class Pooled
{
  public:
    static void *
    operator new(std::size_t size)
    {
        if (size != sizeof(T)) // derived type: not slot-sized
            return ::operator new(size);
        return ObjectPool<T>::instance().allocate();
    }

    static void
    operator delete(void *p, std::size_t size)
    {
        if (p == nullptr)
            return;
        if (size != sizeof(T)) {
            ::operator delete(p);
            return;
        }
        ObjectPool<T>::instance().deallocate(p);
    }

    /**
     * This thread's pool counters for T, for allocation-regression
     * tests.
     */
    static const PoolStats &poolStats()
    {
        return ObjectPool<T>::instance().stats();
    }
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_POOL_H
