/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * All simulated components share one EventQueue. Events are callbacks
 * scheduled at absolute simulated times; ties are broken by insertion
 * order (FIFO among simultaneous events) so simulations are fully
 * deterministic.
 *
 * Hot-path layout (this is the innermost loop of every bench):
 *  - callbacks are sim::InplaceFn — captures up to 80 bytes live
 *    inline, so the schedule→execute path performs zero heap
 *    allocations for every per-packet and per-CPU event;
 *  - a 4-ary min-heap sifts 24-byte POD keys (when, seq, slot) while
 *    the callback/tag live in a generation-tagged slot map, so heap
 *    percolation never moves a callback;
 *  - slots live in fixed-size chunks whose addresses never change, so
 *    the callback is invoked in place — no per-event move of the
 *    capture, and no slot relocation when the store grows mid-event;
 *  - cancellation flips the slot's state — O(1), no hashing — and the
 *    stale heap key is dropped when it reaches the top;
 *  - the order digest memoizes each tag's FNV-1a contribution (keyed
 *    by the literal's pointer), folding repeated tags in O(1).
 *
 * Two correctness facilities are built in (see src/check/):
 *  - an Observer that is told about schedule-in-the-past attempts and
 *    every executed event, so an InvariantChecker can enforce runtime
 *    invariants without slowing the unobserved queue;
 *  - an order digest: a running FNV-1a hash over the (when, seq, tag)
 *    triple of every executed event. Two runs of the same experiment
 *    with the same seed must produce identical digests; a mismatch
 *    means non-deterministic event ordering. The digest is a pure
 *    function of the executed sequence — it is bit-for-bit invariant
 *    under queue-internals changes (tests/sim_test.cpp pins a golden
 *    value).
 */

#ifndef SRIOV_SIM_EVENT_QUEUE_HPP
#define SRIOV_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/inplace_fn.hpp"
#include "sim/time.hpp"

namespace sriov::sim {

/**
 * Handle that allows a scheduled event to be cancelled: the event's
 * slot in the queue's entry store plus the slot's generation at
 * scheduling time, so a stale handle (event already fired, slot
 * reused) can never cancel somebody else's event.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    bool valid() const { return slot_ != kNone; }
    void clear() { slot_ = kNone; gen_ = 0; }

  private:
    friend class EventQueue;
    static constexpr std::uint32_t kNone = 0xffffffffu;

    EventHandle(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {}

    std::uint32_t slot_ = kNone;
    std::uint32_t gen_ = 0;
};

/**
 * A deterministic discrete-event scheduler.
 *
 * Components capture a reference to the queue and schedule callbacks;
 * the top-level harness drives the simulation with runUntil()/runAll().
 */
class EventQueue
{
  public:
    /**
     * Hook interface for correctness tooling (check::InvariantChecker).
     *
     * With an observer installed, scheduling in the past is reported
     * through onSchedulePast() and the event is clamped to now()
     * instead of aborting the process, so negative tests can assert
     * the violation.
     */
    class Observer
    {
      public:
        virtual ~Observer() = default;

        /** scheduleAt() saw @p when < @p now and clamped it. */
        virtual void onSchedulePast(Time when, Time now) = 0;

        /** An event is about to execute at @p when (queue time @p now). */
        virtual void onExecute(Time when, Time now, std::uint64_t seq,
                               const char *tag) = 0;
    };

    /**
     * Execution hook for observability tooling (obs::ChromeTraceWriter,
     * perfbench's per-layer host clock). Unlike the Observer — which is
     * part of the correctness machinery and changes schedule-in-the-past
     * handling — hooks are pure bystanders: they bracket every
     * executed event and cannot alter queue behaviour. With no hooks
     * installed the per-event cost is one branch.
     */
    class ExecHook
    {
      public:
        virtual ~ExecHook() = default;

        /** Called just before the event's callback runs. */
        virtual void onEventStart(Time when, std::uint64_t seq,
                                  const char *tag) = 0;

        /** Called right after the event's callback returns. */
        virtual void onEventEnd(Time when, std::uint64_t seq,
                                const char *tag) = 0;
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule callable @p f to run at absolute time @p when.
     *
     * The capture is constructed directly in the queue's slot store
     * (see sim::InplaceFn for the inline-capture rules) — scheduling
     * an event is allocation-free for captures up to
     * InplaceFn::kCapacity bytes.
     *
     * @p tag must point to storage that outlives the event (string
     * literals); it feeds the order digest and violation reports.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug
     *      and aborts (or is reported, when an Observer is installed).
     */
    template <typename F>
    EventHandle
    scheduleAt(Time when, F &&f, const char *tag = "")
    {
        PreparedEvent p = prepareEvent(when, tag);
        p.slot->fn.emplace(std::forward<F>(f));
        return p.handle;
    }

    /** Schedule callable @p f to run @p delay after the current time. */
    template <typename F>
    EventHandle
    scheduleIn(Time delay, F &&f, const char *tag = "")
    {
        return scheduleAt(now_ + delay, std::forward<F>(f), tag);
    }

    /** Cancel a previously scheduled event. No-op if already fired. */
    void cancel(EventHandle &h);

    /**
     * Run events until the queue is empty or simulated time would pass
     * @p deadline. Time is left at min(deadline, last event time).
     *
     * @return number of events executed.
     */
    std::uint64_t runUntil(Time deadline);

    /** Run until the queue is completely empty. */
    std::uint64_t runAll(std::uint64_t max_events = UINT64_MAX);

    /**
     * @name Shard-engine stepping (sim::ShardEngine).
     *
     * A sharded run interleaves local events with cross-island message
     * deliveries, so the engine needs finer-grained control than
     * runUntil(): peek at the next event time, run strictly below a
     * safe bound (without pinning now_ to it — the bound is a moving
     * horizon, not a deadline), and advance the clock to a message's
     * due time before invoking its sink.
     * @{
     */

    /** Time of the next live event, or Time::max() when empty. */
    Time nextEventTime();

    /**
     * Execute events with when < @p bound (strictly — an event at
     * exactly the bound may race an incoming cross-island message and
     * must wait for the horizon to move). Unlike runUntil(), now_ is
     * left at the last executed event.
     *
     * @return number of events executed.
     */
    std::uint64_t runBefore(Time bound);

    /**
     * Advance the clock to @p t without executing anything: the engine
     * is about to deliver a cross-island message due at @p t.
     * @pre now() <= t <= nextEventTime().
     */
    void advanceTo(Time t);

    /** @} */

    /**
     * @name Fluid-mode warp (sim/fluid.hpp, core::WarpCoordinator).
     *
     * A verified-periodic simulation is fast-forwarded by shifting the
     * clock and the *periodic* subset of pending events by a whole
     * number of periods while absolute deadlines (sampling timelines,
     * policy timers) stay put. The coordinator pairs snapshotPending()
     * with fluidWarp() at one run barrier, with no intervening
     * schedule/cancel, so the key indices stay valid.
     * @{
     */

    /** One live pending event as the coordinator classifies it. */
    struct PendingEvent
    {
        Time when;
        std::uint64_t seq;
        const char *tag;
        std::uint32_t key_index;    ///< position in the heap array
    };

    /** Snapshot live pending events (heap array order, cancelled
     *  entries skipped). */
    void snapshotPending(std::vector<PendingEvent> &out) const;

    /**
     * Advance now() by @p delta and shift the heap keys listed in
     * @p shift_keys (key_index values from an immediately preceding
     * snapshotPending()) by the same amount; keys not listed keep
     * their absolute due times. Rebuilds the heap — pop order is a
     * pure function of the (when, seq) keys, so any heap shape yields
     * the same deterministic schedule. Panics if the warp would leave
     * an unshifted event in the past.
     */
    void fluidWarp(Time delta, const std::vector<std::uint32_t> &shift_keys);

    /** @} */

    bool empty() const { return live_events_ == 0; }
    std::uint64_t executed() const { return executed_; }

    /** Scheduled-but-not-yet-fired (and not cancelled) events. */
    std::uint64_t liveEvents() const { return live_events_; }

    /** Cancelled events whose heap entries have not been popped yet. */
    std::size_t cancelledPending() const { return cancelled_pending_; }

    /**
     * Running FNV-1a hash of (when, seq, tag) of every executed event.
     * Equal seeds + equal workloads must yield equal digests.
     */
    std::uint64_t orderDigest() const { return digest_; }

    void setObserver(Observer *o) { observer_ = o; }
    Observer *observer() const { return observer_; }

    /** @name Execution hooks (multiple allowed, called in add order). @{ */
    void addExecHook(ExecHook *h);
    void removeExecHook(ExecHook *h);
    std::size_t execHookCount() const { return exec_hooks_.size(); }
    /** @} */

  private:
    /**
     * What the heap actually sifts: a 24-byte POD. The payload
     * (callback, tag) stays put in the slot store, so percolation is
     * three word moves instead of a std::function relocation.
     *
     * Keys are totally ordered — seq is unique — so any min-heap shape
     * pops the exact same sequence; the heap arity is a pure
     * performance choice and cannot affect the order digest.
     */
    struct HeapKey
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Min-first comparison: earlier time, then FIFO by seq. */
    static bool
    keyBefore(const HeapKey &a, const HeapKey &b)
    {
        if (a.when != b.when) return a.when < b.when;
        return a.seq < b.seq;
    }

    /**
     * One entry-store slot. A slot is Pending from scheduleAt() until
     * its heap key is popped; Running while its callback executes (so
     * a cancel() from inside the event itself is a no-op, matching the
     * pre-slot-map semantics); Cancelled in between cancel() and the
     * purge; Free on the free list otherwise. Each Pending/Cancelled
     * slot has exactly one key in the heap, so a popped key's slot
     * state alone says whether the event is live. gen increments on
     * every free, invalidating stale EventHandles.
     */
    struct Slot
    {
        InplaceFn fn;
        const char *tag = nullptr;
        std::uint32_t gen = 0;
        enum class State : std::uint8_t { Free, Pending, Running,
                                          Cancelled };
        State state = State::Free;
        std::uint32_t next_free = EventHandle::kNone;
    };

    /**
     * Slots are stored in fixed 256-slot chunks so their addresses are
     * stable: executeTop() can invoke the callback in place (no move
     * per event) even when the callback schedules events that grow the
     * store.
     */
    static constexpr std::uint32_t kSlotChunkShift = 8;
    static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;
    static constexpr std::uint32_t kSlotChunkMask = kSlotChunkSize - 1;

    Slot &
    slotRef(std::uint32_t idx)
    {
        return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
    }
    const Slot &
    slotRef(std::uint32_t idx) const
    {
        return slot_chunks_[idx >> kSlotChunkShift][idx & kSlotChunkMask];
    }

    /** Memoized FNV-1a contribution of one tag (see foldTag()). */
    struct TagFold
    {
        std::uint64_t pow;          ///< kPrime^strlen(tag)
        std::uint64_t add[256];     ///< indexed by digest's low byte
    };

    /**
     * Everything scheduleAt() does except constructing the callable:
     * past-check, seq assignment, slot allocation, heap push. Split
     * out so the template wrapper stays tiny at every call site. The
     * returned slot's fn is empty until the caller emplaces it — fine,
     * since events only run from runUntil()/runAll().
     */
    struct PreparedEvent
    {
        Slot *slot;
        EventHandle handle;
    };
    PreparedEvent prepareEvent(Time when, const char *tag);

    std::uint32_t allocSlot();
    void freeSlot(Slot &s, std::uint32_t idx);
    void heapPush(HeapKey k);
    void heapRemoveTop();
    /** Full heapify after fluidWarp()'s selective key shift. */
    void heapRebuild();
    /** Pop-and-free every cancelled key at the heap top. */
    void purgeCancelledTop();
    /** Execute the top event. @pre heap top is a Pending slot. */
    void executeTop();
    void foldDigest(Time when, std::uint64_t seq, const char *tag);
    const TagFold &tagFold(const char *tag);

    std::vector<HeapKey> heap_;    ///< 4-ary min-heap, root at [0]
    std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
    std::uint32_t slot_count_ = 0;
    std::uint32_t free_head_ = EventHandle::kNone;
    Time now_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t live_events_ = 0;
    std::size_t cancelled_pending_ = 0;
    std::uint64_t digest_ = 0xcbf29ce484222325ull;    // FNV-1a offset basis
    const void *last_tag_ = nullptr;
    const TagFold *last_fold_ = nullptr;
    std::unordered_map<const void *, std::unique_ptr<TagFold>> tag_folds_;
    Observer *observer_ = nullptr;
    std::vector<ExecHook *> exec_hooks_;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_EVENT_QUEUE_HPP
