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
 *  - a 4-ary min-heap sifts 16-byte POD keys {when, seq << 24 | slot}
 *    while the callback/tag live in a generation-tagged slot map, so
 *    heap percolation never moves a callback; one unsigned 128-bit
 *    compare orders two keys, and a sift-down picks the least of four
 *    children by a pairwise tournament of conditional moves;
 *  - each tag has a FIFO lane: a key that sorts after its tag's last
 *    queued key joins the lane instead of the heap, and the heap holds
 *    only each lane's head (plus the out-of-order keys), so a deep
 *    in-order backlog such as a port's DMA completions costs the heap
 *    one key, and popping a lane head refills the root from the lane
 *    in one sift-down;
 *  - slots live in fixed-size chunks whose addresses never change, so
 *    the callback is invoked in place — no per-event move of the
 *    capture, and no slot relocation when the store grows mid-event;
 *  - cancellation flips the slot's state — O(1), no hashing — and the
 *    stale heap key is dropped when it reaches the top;
 *  - the order digest folds `when` and `seq` with one multiply per
 *    significant byte plus one for all the zero bytes above it, and
 *    memoizes each tag's FNV-1a contribution, found (with the tag's
 *    lane) through a small direct-mapped cache keyed by the literal's
 *    pointer.
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

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/inplace_fn.hpp"
#include "sim/ring_buf.hpp"
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

    /**
     * @p thin picks the event schedule of every component built on
     * this queue: coalesced bursts, DMA flow-through and deferred
     * timers (the default), or one event per hop (--no-thin). It is
     * fixed for the queue's life, so the components of one island
     * cannot disagree; reports are byte-identical either way
     * (DESIGN.md §10).
     */
    explicit EventQueue(bool thin = true) : thin_(thin) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Thinned schedule (see the constructor). */
    bool thin() const { return thin_; }

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
        /** Position in the heap array; past its end, the keys queued
         *  behind the lane heads, numbered lane by lane. */
        std::uint32_t key_index;
    };

    /** Snapshot live pending events (heap array order, then each
     *  lane's keys behind its head; cancelled entries skipped). */
    void snapshotPending(std::vector<PendingEvent> &out) const;

    /**
     * Advance now() by @p delta and shift the keys listed in
     * @p shift_keys (key_index values from an immediately preceding
     * snapshotPending()) by the same amount; keys not listed keep
     * their absolute due times. First drains every lane into the heap
     * in snapshot order, so the indices name heap positions, then
     * rebuilds the heap — pop order is a pure function of the
     * (when, seq) keys, so any heap shape yields the same
     * deterministic schedule. Panics if the warp would leave an
     * unshifted live event in the past; cancelled keys, which the
     * snapshot omits, are dropped instead.
     */
    void fluidWarp(Time delta, const std::vector<std::uint32_t> &shift_keys);

    /** @} */

    bool empty() const { return live_events_ == 0; }
    std::uint64_t executed() const { return executed_; }

    /** Scheduled-but-not-yet-fired (and not cancelled) events. */
    std::uint64_t liveEvents() const { return live_events_; }

    /** Cancelled events whose keys have not been popped yet. */
    std::size_t cancelledPending() const { return cancelled_pending_; }

    /** Keys in the heap proper: lane heads and out-of-order keys, not
     *  the keys queued behind a lane head. */
    std::size_t heapKeys() const { return heap_.size(); }

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

    /**
     * @name Key and digest words.
     *
     * tieWord() packs a heap key's tie-break word, seq << kSlotBits |
     * slot, and panics when seq or slot does not fit its field.
     * fnvFoldWord() folds the eight little-endian bytes of @p v into
     * the FNV-1a digest @p d, bit-identical to the byte loop. Both are
     * public so tests can pin them at values no run reaches.
     * @{
     */
    static constexpr unsigned kSlotBits = 24;
    static constexpr unsigned kSeqBits = 64 - kSlotBits;
    static std::uint64_t tieWord(std::uint64_t seq, std::uint32_t slot);
    static std::uint64_t fnvFoldWord(std::uint64_t d, std::uint64_t v);
    /** @} */

  private:
    /**
     * What the heap actually sifts: a 16-byte POD. The payload
     * (callback, tag) stays put in the slot store, so percolation is
     * two word moves instead of a std::function relocation.
     *
     * tie = seq << kSlotBits | slot. seq is unique and occupies the
     * high bits, so ordering by tie is FIFO by seq, and keys are
     * totally ordered: any min-heap shape pops the exact same
     * sequence, and the heap arity is a pure performance choice that
     * cannot affect the order digest.
     */
    struct HeapKey
    {
        Time when;
        std::uint64_t tie;
    };

    /**
     * A key as one unsigned 128-bit number, when above tie: earlier
     * time, then FIFO by seq, in a single compare (no branch on the
     * time tie). when is never negative — the clock starts at zero and
     * scheduling in the past is refused — so the unsigned view keeps
     * Time's order.
     */
    __extension__ using Rank = unsigned __int128;
    static Rank
    rank(const HeapKey &k)
    {
        return Rank(std::uint64_t(k.when.picos())) << 64 | k.tie;
    }
    static std::uint32_t
    slotOf(const HeapKey &k)
    {
        return std::uint32_t(k.tie & ((std::uint64_t(1) << kSlotBits) - 1));
    }

    /**
     * One entry-store slot. A slot is Pending from scheduleAt() until
     * its key is popped; Running while its callback executes (so a
     * cancel() from inside the event itself is a no-op, matching the
     * pre-slot-map semantics); Cancelled in between cancel() and the
     * purge; Free on the free list otherwise. Each Pending/Cancelled
     * slot has exactly one key, in the heap or queued in its tag's
     * lane, so a popped key's slot state alone says whether the event
     * is live. gen increments on every free, invalidating stale
     * EventHandles.
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

    /**
     * What the queue memoizes per tag pointer: the index of its FIFO
     * lane, from the first schedule, and its FNV-1a contribution to
     * the digest, from the first execution (see foldTag()).
     */
    struct TagInfo
    {
        std::uint64_t pow;          ///< kPrime^strlen(tag); 0: unfolded
        std::uint32_t lane;         ///< index into lanes_
        std::uint64_t add[256];     ///< indexed by digest's low byte
    };

    /** An empty (or null) tag: the identity fold, and lane 0. */
    static constexpr TagInfo kEmptyTag{1, 0, {}};

    /**
     * One line of the direct-mapped tag cache in front of tags_. A
     * fresh line maps the null tag to kEmptyTag, so a lookup needs no
     * "line empty" test.
     */
    struct TagLine
    {
        const char *tag = nullptr;
        const TagInfo *info = &kEmptyTag;
    };
    static constexpr unsigned kTagCacheBits = 6;

    /**
     * A tag's FIFO lane: keys in (when, seq) order, whose head is also
     * in the heap. prepareEvent() appends a key that does not sort
     * before the lane's last one and pushes any other into the heap
     * alone; popping the head refills the root from the lane. Sized
     * by occupancy (RingBuf doubles to the high-water mark).
     */
    using Lane = RingBuf<HeapKey>;

    /**
     * Everything scheduleAt() does except constructing the callable:
     * past-check, seq assignment, slot allocation, lane or heap push.
     * Split out so the template wrapper stays tiny at every call site.
     * The returned slot's fn is empty until the caller emplaces it —
     * fine, since events only run from runUntil()/runAll().
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
    /** Pop the heap root, of tag lane @p lane: a lane head is
     *  replaced by the lane's next key, if there is one. */
    void popTop(Lane &lane);
    /** Append every key queued behind a lane head to the heap array,
     *  in snapshotPending() order, and empty the lanes. */
    void drainLanes();
    /** Move @p k down from heap position @p i to where it belongs. */
    void siftDown(std::size_t i, HeapKey k);
    /** Full heapify after fluidWarp()'s selective key shift. */
    void heapRebuild();
    /** Pop-and-free every cancelled key at the heap top. */
    void purgeCancelledTop();
    /** Execute the top event. @pre heap top is a Pending slot. */
    void executeTop();
    void foldDigest(Time when, std::uint64_t seq, const TagInfo &ti);
    const TagInfo &tagInfo(const char *tag);
    /** tagInfo()'s miss path: find or make the entry (and its lane),
     *  fill the line. */
    const TagInfo &tagInfoMiss(TagLine &line, const char *tag);
    /** Build the digest fold of @p tag's entry. @pre the entry exists. */
    void foldTag(const char *tag);

    std::vector<HeapKey> heap_;    ///< 4-ary min-heap, root at [0]
    /** One lane per tag, in first-use order; lane 0 is the empty tag's. */
    std::vector<Lane> lanes_ = std::vector<Lane>(1);
    std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
    std::uint32_t slot_count_ = 0;
    std::uint32_t free_head_ = EventHandle::kNone;
    Time now_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t live_events_ = 0;
    std::size_t cancelled_pending_ = 0;
    std::uint64_t digest_ = 0xcbf29ce484222325ull;    // FNV-1a offset basis
    std::array<TagLine, std::size_t(1) << kTagCacheBits> tag_cache_{};
    std::unordered_map<const void *, std::unique_ptr<TagInfo>> tags_;
    Observer *observer_ = nullptr;
    std::vector<ExecHook *> exec_hooks_;
    bool thin_;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_EVENT_QUEUE_HPP
