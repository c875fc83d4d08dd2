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
 * Unbounded SPSC channel of (due, payload) messages with monotone
 * non-decreasing due times (a wire direction is a FIFO server, so its
 * delivery instants are monotone by construction — which is what makes
 * headDue() the channel's minimum).
 *
 * A linked queue after Vyukov's unbounded SPSC design. The consumer
 * owns tail_, the last delivered node, kept as a dummy whose `next` is
 * the head message. The producer owns head_ (the newest node) and
 * recycles the nodes the consumer has passed, [first_, tail_), before
 * it allocates. Storage is thus the occupancy high-water mark plus one
 * node, and push() never waits: a one-thread run cannot block on
 * itself. The channel bounds nothing; the sender does (nic::Wire's TX
 * drop bound, DESIGN.md §13).
 *
 * Every `next` link is written by the producer alone: release-stored
 * when a node is appended, acquire-loaded by the consumer's probe. The
 * consumer release-stores tail_ after the sink has read the payload,
 * and the producer acquire-loads it before reusing a passed node.
 */
template <typename T>
class ShardChannel final : public ShardEdge
{
  public:
    using Sink = void (*)(void *ctx, Time due, const T &payload);

    struct Entry
    {
        std::int64_t due_ps = 0;
        T payload{};
    };

    ShardChannel()
    {
        Node *dummy = new Node;
        tail_.store(dummy, std::memory_order_relaxed);
        head_ = first_ = tail_copy_ = dummy;
    }

    ~ShardChannel() override
    {
        // Every node, cached or pending, is linked from first_.
        for (Node *n = first_; n != nullptr;) {
            Node *next = n->next.load(std::memory_order_relaxed);
            delete n;
            n = next;
        }
    }

    ShardChannel(const ShardChannel &) = delete;
    ShardChannel &operator=(const ShardChannel &) = delete;

    /** Bind the delivery callback (the receiving wire half). */
    void
    onDeliver(Sink sink, void *ctx)
    {
        sink_ = sink;
        ctx_ = ctx;
    }

    /** Producer side: enqueue a message due at @p due. Never waits. */
    void
    push(Time due, const T &payload)
    {
        Node *n = takeNode();
        n->next.store(nullptr, std::memory_order_relaxed);
        n->e.due_ps = due.picos();
        n->e.payload = payload;
        head_->next.store(n, std::memory_order_release);
        head_ = n;
    }

    Time
    headDue() const override
    {
        const Node *n = tail_.load(std::memory_order_relaxed)
                            ->next.load(std::memory_order_acquire);
        return n != nullptr ? Time::ps(n->e.due_ps) : Time::max();
    }

    void
    deliverHead() override
    {
        Node *n = tail_.load(std::memory_order_relaxed)
                      ->next.load(std::memory_order_acquire);
        sink_(ctx_, Time::ps(n->e.due_ps), n->e.payload);
        // n becomes the dummy; its predecessor goes back to the
        // producer's cache.
        tail_.store(n, std::memory_order_release);
    }

    /** @name Quiescent-barrier access for the fluid warp.
     *
     * Only legal while no producer or consumer thread is running (a
     * WarpCoordinator barrier): the in-flight entries are then plain
     * data, visited as fluid slots (due times are linear in the warp
     * delta, payloads are invariants) and shifted in lockstep with the
     * island clocks. Both walk the pending links from the head, so
     * they cost O(occupancy). @{ */
    std::size_t
    pendingCount() const
    {
        std::size_t k = 0;
        for (const Node *n = head(); n != nullptr;
             n = n->next.load(std::memory_order_acquire)) {
            ++k;
        }
        return k;
    }

    Entry &
    pendingEntry(std::size_t i)
    {
        Node *n = head();
        for (; i > 0; --i)
            n = n->next.load(std::memory_order_acquire);
        return n->e;
    }

    /** Nodes allocated so far, the dummy included: the channel's whole
     *  storage, since nodes are recycled and never freed before the
     *  channel is. */
    std::size_t nodes() const { return nodes_; }
    /** @} */

  private:
    struct Node
    {
        std::atomic<Node *> next{nullptr};
        Entry e;
    };

    Node *
    head() const
    {
        return tail_.load(std::memory_order_acquire)
            ->next.load(std::memory_order_acquire);
    }

    /** A node the consumer has passed, else a new one. */
    Node *
    takeNode()
    {
        if (first_ == tail_copy_) {
            tail_copy_ = tail_.load(std::memory_order_acquire);
            if (first_ == tail_copy_) {
                ++nodes_;
                return new Node;
            }
        }
        Node *n = first_;
        first_ = n->next.load(std::memory_order_relaxed);
        return n;
    }

    // Consumer side, beside the vtable pointer every probe reads.
    std::atomic<Node *> tail_;
    Sink sink_ = nullptr;
    void *ctx_ = nullptr;
    // Producer side on its own cache line: every push writes head_,
    // and a worker probing the channel must not miss on that store.
    alignas(64) Node *head_;
    Node *first_;        ///< oldest passed node (the recycling cache)
    Node *tail_copy_;    ///< producer's last view of tail_
    std::size_t nodes_ = 1;
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

    /** Islands grouped by connected component, keyed by least index;
     *  cached until the next addIsland()/connect(). */
    const std::vector<std::vector<unsigned>> &components();

    /** Does an island of @p group have in-edges from two or more
     *  islands? */
    bool hasHub(const std::vector<unsigned> &group) const;

    /** What runUntil() deals round-robin over its workers (see the
     *  .cpp); cached like components(). */
    const std::vector<std::vector<unsigned>> &placementUnits();

    std::vector<Island> islands_;
    std::vector<std::vector<unsigned>> comps_;
    std::vector<std::vector<unsigned>> units_;
    unsigned workers_;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_SHARD_ENGINE_HPP
