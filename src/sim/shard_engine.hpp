/**
 * @file
 * ShardEngine: conservative parallel execution of island-partitioned
 * simulations.
 *
 * A sharded topology is a set of islands — disjoint component groups,
 * each owning one EventQueue — whose only interaction is timestamped
 * messages over registered ShardEdges (in this repo: the two
 * directions of a nic::Wire). Every edge carries a *lookahead* L > 0:
 * the sender guarantees that a message pushed while it executes
 * simulated time t has a due time >= t + L (for a wire, L is the
 * propagation delay — serialization only adds to it).
 *
 * Synchronization is conservative and barrier-free (a CMB-style
 * promise-clock scheme):
 *
 *  - each island publishes a monotone atomic *promise* — a lower bound
 *    on the simulated time of anything it will execute (and therefore
 *    send) in the future;
 *  - a receiver derives a per-edge *floor* — no future message on the
 *    edge can be due before it: the head's due time when the channel
 *    is nonempty, max(previous floor, sender promise + L) otherwise;
 *  - an island may execute a local event only while it is strictly
 *    below every inbound floor, and may deliver a channel head only
 *    when its due time is <= the next local event and strictly below
 *    every other edge's floor.
 *
 * Because the execute/deliver decision depends only on *simulated*
 * times (ties broken message-first, then by edge registration order),
 * each island executes the identical event sequence for any worker
 * count and any host-thread interleaving — stale promises only delay
 * visibility, never reorder it. That is the determinism contract:
 * per-island order digests (and anything folded from them in island
 * order) are byte-identical from --shards=1 to --shards=N.
 *
 * Memory ordering: a sender stores its promise (release) before
 * pushing messages; a receiver loads the promise (acquire) *before*
 * probing the channel. If the probe then finds the channel empty,
 * every push sequenced before that promise store is visible, so any
 * message it missed was pushed after the store and is due >= promise
 * + L — the empty-channel floor is safe.
 *
 * Progress: when islands idle, promises creep by at least one
 * lookahead per round trip (the classic lookahead creep), so runs
 * terminate without null messages. Promises are capped at the current
 * deadline; an island is done when its local queue and every floor
 * have passed the deadline.
 *
 * Observers and execution hooks (invariant checkers, Chrome-trace
 * writers, profilers) are single-stream consumers: if any island
 * queue has one installed, the run degrades to the calling thread.
 * The schedule is thread-count-invariant, so results are unchanged.
 */

#ifndef SRIOV_SIM_SHARD_ENGINE_HPP
#define SRIOV_SIM_SHARD_ENGINE_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sriov::sim {

// simlint:allow(fluid-boundary): forward declaration, no ledger access
class FlowLedger;

/**
 * Receiver-side view of a cross-island channel. The engine only needs
 * to peek at the head's due time and to deliver it; payload transport
 * is the concrete ShardChannel<T>'s business.
 */
class ShardEdge
{
  public:
    virtual ~ShardEdge() = default;

    /** Due time of the oldest undelivered message; Time::max() when
     *  none is visible. Consumer thread only. */
    virtual Time headDue() const = 0;

    /** Advance the target queue's clock is the engine's job; this just
     *  pops the head and invokes the sink. Consumer thread only. */
    virtual void deliverHead() = 0;
};

/**
 * Bounded SPSC channel of (due, payload) messages with monotone
 * non-decreasing due times (a wire direction is a FIFO server, so its
 * delivery instants are monotone by construction — which is what makes
 * headDue() the channel's minimum).
 *
 * push() spins when the ring is full; the consumer always drains
 * (deliveries never wait on the producer), so the wait is bounded.
 */
template <typename T>
class ShardChannel final : public ShardEdge
{
  public:
    using Sink = void (*)(void *ctx, Time due, const T &payload);

    explicit ShardChannel(std::size_t capacity = 8192)
        : buf_(roundPow2(capacity)), mask_(buf_.size() - 1)
    {
    }

    /** Bind the delivery callback (the receiving wire half). */
    void
    onDeliver(Sink sink, void *ctx)
    {
        sink_ = sink;
        ctx_ = ctx;
    }

    /** Producer side: enqueue a message due at @p due. */
    void
    push(Time due, const T &payload)
    {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        while (t - head_.load(std::memory_order_acquire) >= buf_.size()) {
            // Receiver is behind; it drains unconditionally, so spin.
        }
        Entry &e = buf_[std::size_t(t) & mask_];
        e.due_ps = due.picos();
        e.payload = payload;
        tail_.store(t + 1, std::memory_order_release);
    }

    Time
    headDue() const override
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        if (h == tail_.load(std::memory_order_acquire))
            return Time::max();
        return Time::ps(buf_[std::size_t(h) & mask_].due_ps);
    }

    void
    deliverHead() override
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        const Entry &e = buf_[std::size_t(h) & mask_];
        sink_(ctx_, Time::ps(e.due_ps), e.payload);
        head_.store(h + 1, std::memory_order_release);
    }

    bool
    pending() const
    {
        return head_.load(std::memory_order_relaxed)
            != tail_.load(std::memory_order_acquire);
    }

    struct Entry
    {
        std::int64_t due_ps = 0;
        T payload{};
    };

    /** @name Quiescent-barrier access for the fluid warp.
     *
     * Only legal while no producer or consumer thread is running (a
     * WarpCoordinator barrier): the in-flight entries are then plain
     * data, visited as fluid slots (due times are linear in the warp
     * delta, payloads are invariants) and shifted in lockstep with the
     * island clocks. @{ */
    std::size_t
    pendingCount() const
    {
        return std::size_t(tail_.load(std::memory_order_acquire)
                           - head_.load(std::memory_order_acquire));
    }

    Entry &
    pendingEntry(std::size_t i)
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        return buf_[std::size_t(h + i) & mask_];
    }
    /** @} */

  private:
  static std::size_t
    roundPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    std::vector<Entry> buf_;
    std::size_t mask_;
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> tail_{0};
    Sink sink_ = nullptr;
    void *ctx_ = nullptr;
};

class ShardEngine
{
  public:
    /** @p workers: requested worker threads (clamped to the island
     *  count at run time; 1 = sequential oracle on the caller). */
    explicit ShardEngine(unsigned workers);
    ~ShardEngine();

    ShardEngine(const ShardEngine &) = delete;
    ShardEngine &operator=(const ShardEngine &) = delete;

    /** Register an island. Index order is the digest fold order. */
    unsigned addIsland(EventQueue &eq);

    unsigned islandCount() const { return unsigned(islands_.size()); }
    unsigned workers() const { return workers_; }

    /**
     * Register @p edge as carrying messages from island @p from to
     * island @p to, with minimum message latency @p lookahead (> 0).
     * Call before the first run; edge order per target island is the
     * deterministic tie-break order.
     */
    void connect(ShardEdge &edge, unsigned from, unsigned to,
                 Time lookahead);

    /**
     * The sender-side lookahead contract for island @p from: a message
     * pushed while the island executes simulated time t must be due at
     * or after t + min lookahead. Senders (nic::Wire) assert it per
     * push; see DESIGN.md §13.
     */
    Time promiseOf(unsigned island) const;

    /**
     * Run every island until @p deadline (inclusive, like
     * EventQueue::runUntil); on return all island clocks are pinned to
     * the deadline and no message due <= deadline is undelivered.
     *
     * @return total events executed across islands (message deliveries
     *         are not events; the cascades they trigger are).
     */
    std::uint64_t runUntil(Time deadline);

    /** Sum of executed() over the island queues. */
    std::uint64_t executedEvents() const;

    /**
     * Fold of the per-island order digests in island-index order (the
     * sharded analogue of EventQueue::orderDigest()). Well-defined for
     * any shard count because the partition — not the worker count —
     * decides what runs where.
     */
    std::uint64_t foldedDigest() const;

    /** Would the next run stay on the calling thread? True when any
     *  island queue has an Observer or ExecHooks installed. */
    bool forcesSequential() const;

    /**
     * Give island @p island its own flow ledger. While the island
     * executes (advanceIsland and the delivery cascades it triggers),
     * the ledger is the executing thread's fluidLedger(), so every
     * datapath send/transition lands in the ledger of the island that
     * owns the component. Null detaches.
     */
    // simlint:allow(fluid-boundary): declarations; settle sites in .cpp
    void setIslandLedger(unsigned island, FlowLedger *ledger);
    // simlint:allow(fluid-boundary): declarations; settle sites in .cpp
    FlowLedger *islandLedger(unsigned island) const;

    /** The island's event queue (for barrier-time warp surgery). */
    EventQueue &islandQueue(unsigned island);

    /**
     * Shift the engine's synchronization clocks by @p delta after a
     * fluid warp applied at a quiescent barrier (all island clocks and
     * channel due times already shifted by the caller). Promises re-arm
     * from island now() at the next runUntil and stale-low floors are
     * merely conservative, but shifting both keeps every clock in the
     * engine on the same timeline — no special cases in the invariants.
     * Caller must guarantee no worker threads are running.
     */
    void fluidWarp(Time delta);

  private:
    struct InEdge
    {
        ShardEdge *edge = nullptr;
        const std::atomic<std::int64_t> *src_promise = nullptr;
        std::int64_t lookahead_ps = 0;
        std::int64_t floor_ps = 0;    ///< monotone cache
        bool nonempty = false;        ///< head visible this round
        unsigned from = 0;            ///< source island index
    };

    /** Promise clock on its own cache line: it is written by the owner
     *  island and polled by every neighbour, so sharing a line with
     *  another island's state would turn each poll into a miss. */
    struct alignas(64) Promise
    {
        std::atomic<std::int64_t> v{0};
    };

    struct Island
    {
        EventQueue *eq = nullptr;
        std::vector<InEdge> in;
        // Heap-boxed so island registration never moves the atomic
        // out from under a channel floor reader.
        std::unique_ptr<Promise> promise;
        // simlint:allow(fluid-boundary): possession only; settle sites
        FlowLedger *ledger = nullptr;
        bool done = false;
    };

    /** One scheduling round on @p isl; returns events+deliveries.
     *  @p moved is set when the round advanced a promise or floor —
     *  sync progress that executes nothing but must not count as
     *  "stuck", or workers yield once per lookahead creep round and
     *  the run degrades to scheduler latency. */
    std::uint64_t advanceIsland(Island &isl, Time deadline, bool *moved);

    std::vector<Island> islands_;
    unsigned workers_;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_SHARD_ENGINE_HPP
