#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::sim {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** kFnvPrime^k mod 2^64: the FNV-1a fold of k zero bytes, k = 0..8. */
constexpr std::array<std::uint64_t, 9> kZeroBytesFold = [] {
    std::array<std::uint64_t, 9> p{};
    p[0] = 1;
    for (std::size_t k = 1; k < p.size(); ++k)
        p[k] = p[k - 1] * kFnvPrime;
    return p;
}();

} // namespace

void
EventQueue::addExecHook(ExecHook *h)
{
    if (h != nullptr
        && std::find(exec_hooks_.begin(), exec_hooks_.end(), h)
               == exec_hooks_.end())
        exec_hooks_.push_back(h);
}

void
EventQueue::removeExecHook(ExecHook *h)
{
    exec_hooks_.erase(
        std::remove(exec_hooks_.begin(), exec_hooks_.end(), h),
        exec_hooks_.end());
}

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != EventHandle::kNone) {
        std::uint32_t idx = free_head_;
        free_head_ = slotRef(idx).next_free;
        return idx;
    }
    if ((slot_count_ & kSlotChunkMask) == 0)
        // Default-init, not make_unique's value-init: the latter
        // zeroes every slot's 80-byte capture buffer (28 KiB per
        // chunk) that the first schedule overwrites anyway.
        slot_chunks_.emplace_back(new Slot[kSlotChunkSize]);
    return slot_count_++;
}

void
EventQueue::freeSlot(Slot &s, std::uint32_t idx)
{
    s.fn.reset();
    s.tag = nullptr;
    s.state = Slot::State::Free;
    ++s.gen;    // stale handles to this slot die here
    s.next_free = free_head_;
    free_head_ = idx;
}

void
EventQueue::heapPush(HeapKey k)
{
    // Percolate a hole up instead of swapping: each level is one
    // 16-byte copy. Scheduling in time order (the common pattern)
    // terminates at the leaf immediately.
    heap_.push_back(k);
    std::size_t i = heap_.size() - 1;
    const Rank r = rank(k);
    while (i > 0) {
        std::size_t p = (i - 1) >> 2;
        if (!(r < rank(heap_[p])))
            break;
        heap_[i] = heap_[p];
        i = p;
    }
    heap_[i] = k;
}

void
EventQueue::siftDown(std::size_t i, HeapKey k)
{
    // 4-ary: half the levels of a binary heap, and all four children
    // share a pair of cache lines, which is where the pop cost lives
    // for the deep heaps of the scale runs.
    HeapKey *h = heap_.data();
    const std::size_t n = heap_.size();
    const Rank rk = rank(k);
    for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c + 4 > n) {
            // Last level, at most three children: a short scan.
            std::size_t m = c;
            for (std::size_t j = c + 1; j < n; ++j)
                if (rank(h[j]) < rank(h[m]))
                    m = j;
            if (m < n && rank(h[m]) < rk) {
                h[i] = h[m];
                i = m;
            }
            break;
        }
        // Full fan-out: the least child wins a pairwise tournament.
        // Each round is one compare feeding conditional moves, and the
        // final pick is a mask (a ternary there compiles to a branch),
        // so the four siblings cost no data-dependent branch; only the
        // stop test below branches.
        const Rank r0 = rank(h[c]), r1 = rank(h[c + 1]);
        const Rank r2 = rank(h[c + 2]), r3 = rank(h[c + 3]);
        const bool b01 = r1 < r0, b23 = r3 < r2;
        const std::size_t m01 = c + b01, m23 = c + 2 + b23;
        const Rank v01 = b01 ? r1 : r0, v23 = b23 ? r3 : r2;
        const std::size_t pick = std::size_t(0) - std::size_t(v23 < v01);
        const std::size_t m = m01 + ((m23 - m01) & pick);
        if (!(rank(h[m]) < rk))
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = k;
}

void
EventQueue::heapRemoveTop()
{
    HeapKey last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
}

void
EventQueue::popTop(Lane &lane)
{
    // The root is the lane's head exactly when it is the lane's front
    // key (seq makes every tie word unique); otherwise it is an
    // out-of-order key, or one of a lane that drainLanes() emptied.
    if (!lane.empty() && lane.front().tie == heap_[0].tie) {
        lane.pop_front();
        if (!lane.empty()) {
            siftDown(0, lane.front());
            return;
        }
    }
    heapRemoveTop();
}

EventQueue::PreparedEvent
EventQueue::prepareEvent(Time when, const char *tag)
{
    if (when < now_) {
        if (observer_ == nullptr)
            panic("event scheduled in the past: %s < %s",
                  when.toString().c_str(), now_.toString().c_str());
        observer_->onSchedulePast(when, now_);
        when = now_;
    }
    std::uint64_t seq = next_seq_++;
    std::uint32_t idx = allocSlot();
    Slot &s = slotRef(idx);
    s.tag = tag;
    s.state = Slot::State::Pending;
    const HeapKey k{when, tieWord(seq, idx)};
    // Lane invariant: each lane is sorted by (when, seq) and its head
    // is in the heap. seq only grows, so a key sorts after the lane's
    // last one unless it is due earlier; such a key skips the lane.
    Lane &lane = lanes_[tagInfo(tag).lane];
    if (!lane.empty() && when < lane.back().when) {
        heapPush(k);
    } else {
        if (lane.empty())
            heapPush(k);
        lane.push_back(k);
    }
    ++live_events_;
    return PreparedEvent{&s, EventHandle(idx, s.gen)};
}

void
EventQueue::cancel(EventHandle &h)
{
    // Only still-pending events count as cancelled; stale handles
    // (already fired, slot possibly reused under a new generation)
    // must be a no-op — scale experiments cancel throttle timers for
    // hours of simulated time.
    if (h.valid() && h.slot_ < slot_count_) {
        Slot &s = slotRef(h.slot_);
        if (s.state == Slot::State::Pending && s.gen == h.gen_) {
            s.state = Slot::State::Cancelled;
            s.fn.reset();    // release captures (and pool blocks) now
            --live_events_;
            ++cancelled_pending_;
        }
    }
    h.clear();
}

void
EventQueue::purgeCancelledTop()
{
    // With no cancellations outstanding every heap key is live; skip
    // the per-event slot-state probe entirely (the common case).
    if (cancelled_pending_ == 0)
        return;
    while (!heap_.empty()) {
        std::uint32_t idx = slotOf(heap_[0]);
        Slot &s = slotRef(idx);
        if (s.state != Slot::State::Cancelled)
            break;
        popTop(lanes_[tagInfo(s.tag).lane]);
        freeSlot(s, idx);
        --cancelled_pending_;
    }
}

std::uint64_t
EventQueue::tieWord(std::uint64_t seq, std::uint32_t slot)
{
    if ((seq >> kSeqBits) != 0 || (slot >> kSlotBits) != 0)
        panic("event queue key overflow: seq %llu, slot %u",
              static_cast<unsigned long long>(seq), slot);
    return seq << kSlotBits | slot;
}

std::uint64_t
EventQueue::fnvFoldWord(std::uint64_t d, std::uint64_t v)
{
    // Byte i folds as d = (d ^ b_i) * kPrime. A zero byte leaves only
    // the multiply, so the zero bytes above v's highest set byte
    // collapse into one multiply by a power of the prime: a 40-bit
    // timestamp costs six multiplies instead of eight, a 20-bit seq
    // four.
    std::size_t bytes = 0;
    for (; v != 0; v >>= 8, ++bytes)
        d = (d ^ (v & 0xff)) * kFnvPrime;
    return d * kZeroBytesFold[8 - bytes];
}

const EventQueue::TagInfo &
EventQueue::tagInfo(const char *tag)
{
    // Direct-mapped by the literal's address (Fibonacci hashing spreads
    // neighbouring literals over the lines); a hit is one compare.
    const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(tag);
    TagLine &line =
        tag_cache_[(p * 0x9e3779b97f4a7c15ull) >> (64 - kTagCacheBits)];
    if (line.tag == tag)
        return *line.info;
    return tagInfoMiss(line, tag);
}

const EventQueue::TagInfo &
EventQueue::tagInfoMiss(TagLine &line, const char *tag)
{
    line.tag = tag;
    if (tag == nullptr || *tag == '\0') {
        line.info = &kEmptyTag;
        return kEmptyTag;
    }
    auto it = tags_.find(tag);
    if (it == tags_.end()) {
        // The fold waits for the tag's first execution (pow == 0 until
        // then): a schedule needs only the lane, so set-up that
        // schedules a tag does not pay for its fold.
        auto tf = std::make_unique<TagInfo>();
        tf->pow = 0;
        tf->lane = std::uint32_t(lanes_.size());
        lanes_.emplace_back();
        it = tags_.emplace(tag, std::move(tf)).first;
    }
    line.info = it->second.get();
    return *line.info;
}

void
EventQueue::foldTag(const char *tag)
{
    TagInfo &tf = *tags_.find(tag)->second;
    std::uint64_t pow = 1;
    for (const char *p = tag; *p != '\0'; ++p)
        pow *= kFnvPrime;
    tf.pow = pow;
    // The byte-wise FNV-1a fold d -> (d ^ b) * kPrime mod 2^64 is
    // affine in d once the trajectory of d's low byte is fixed, and
    // that trajectory depends only on the initial low byte: XOR with
    // an 8-bit value touches only the low byte, and the low byte of a
    // product mod 2^64 depends only on the low bytes of its factors.
    // So folding a whole tag collapses to
    //   d' = d * kPrime^len + add[d & 0xff]
    // with a 256-entry table per tag. Identical bit-for-bit to the
    // byte loop (pinned by SimDigest tests).
    for (std::uint32_t lo = 0; lo < 256; ++lo) {
        std::uint64_t d = lo;
        for (const char *p = tag; *p != '\0'; ++p) {
            d ^= std::uint64_t(static_cast<unsigned char>(*p));
            d *= kFnvPrime;
        }
        tf.add[lo] = d - lo * pow;
    }
}

void
EventQueue::foldDigest(Time when, std::uint64_t seq, const TagInfo &ti)
{
    std::uint64_t d = fnvFoldWord(digest_, std::uint64_t(when.picos()));
    d = fnvFoldWord(d, seq);
    // An empty tag folds as the identity (kEmptyTag), so no branch on
    // the tag's content.
    digest_ = d * ti.pow + ti.add[d & 0xff];
}

void
EventQueue::executeTop()
{
    const HeapKey k = heap_[0];
    const std::uint64_t seq = k.tie >> kSlotBits;
    const std::uint32_t idx = slotOf(k);
    // Chunked slot storage never relocates, so the callback runs in
    // place — no per-event move even when it schedules more events.
    // Running state makes a self-cancel from inside the callback a
    // no-op (the event has already fired).
    Slot &s = slotRef(idx);
    const char *tag = s.tag;
    // TagInfo entries never move (boxed, or the static kEmptyTag), so
    // the pointer outlives the callback's schedules.
    const TagInfo *ti = &tagInfo(tag);
    popTop(lanes_[ti->lane]);
    if (ti->pow == 0)
        foldTag(tag);
    s.state = Slot::State::Running;
    --live_events_;
    if (observer_ != nullptr)
        observer_->onExecute(k.when, now_, seq, tag);
    now_ = k.when;
    ++executed_;
    foldDigest(k.when, seq, *ti);
    if (!exec_hooks_.empty()) {
        // Iterate by index: the callback (or a hook) may add or remove
        // hooks mid-event, e.g. a tracer detaching at a record limit.
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventStart(k.when, seq, tag);
        s.fn();
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventEnd(k.when, seq, tag);
    } else {
        s.fn();
    }
    freeSlot(s, idx);
}

std::uint64_t
EventQueue::runUntil(Time deadline)
{
    // Single purge point per iteration: the purge both exposes the
    // next live event for the deadline check and establishes
    // executeTop()'s precondition.
    std::uint64_t n = 0;
    for (purgeCancelledTop();
         !heap_.empty() && heap_[0].when <= deadline;
         purgeCancelledTop()) {
        executeTop();
        ++n;
    }
    if (now_ < deadline)
        now_ = deadline;
    return n;
}

void
EventQueue::snapshotPending(std::vector<PendingEvent> &out) const
{
    out.clear();
    out.reserve(live_events_);
    std::uint32_t index = 0;
    auto add = [&](const HeapKey &k) {
        const Slot &s = slotRef(slotOf(k));
        if (s.state == Slot::State::Pending)
            out.push_back(
                PendingEvent{k.when, k.tie >> kSlotBits, s.tag, index});
        ++index;
    };
    for (const HeapKey &k : heap_)
        add(k);
    // Behind the heap, in drainLanes() order: each lane's keys after
    // its head (the head is already in the heap).
    for (const Lane &lane : lanes_) {
        for (std::size_t j = 1; j < lane.size(); ++j)
            add(lane[j]);
    }
}

void
EventQueue::drainLanes()
{
    for (Lane &lane : lanes_) {
        for (std::size_t j = 1; j < lane.size(); ++j)
            heap_.push_back(lane[j]);
        lane.clear();
    }
}

void
EventQueue::heapRebuild()
{
    // Bottom-up 4-ary heapify; cold path (once per fluid warp).
    if (heap_.size() < 2)
        return;
    for (std::size_t r = (heap_.size() - 2) / 4 + 1; r-- > 0;)
        siftDown(r, heap_[r]);
}

void
EventQueue::fluidWarp(Time delta,
                      const std::vector<std::uint32_t> &shift_keys)
{
    if (delta < Time())
        panic("fluid warp backwards");
    // A warp may shift only some keys of a tag, which would unsort its
    // lane: every key joins the heap, and the lanes restart empty.
    drainLanes();
    for (std::uint32_t idx : shift_keys) {
        if (idx >= heap_.size())
            panic("fluid warp: stale heap index");
        heap_[idx].when += delta;
    }
    now_ += delta;
    heapRebuild();
    // Cancelled keys are not in the snapshot, so they keep their old
    // times and may now lie in the past. They will never run; drop
    // them so the check below sees the least live event.
    purgeCancelledTop();
    if (!heap_.empty() && heap_[0].when < now_)
        panic("fluid warp left an absolute event in the past: %s < %s",
              heap_[0].when.toString().c_str(),
              now_.toString().c_str());
}

Time
EventQueue::nextEventTime()
{
    purgeCancelledTop();
    return heap_.empty() ? Time::max() : heap_[0].when;
}

std::uint64_t
EventQueue::runBefore(Time bound)
{
    std::uint64_t n = 0;
    for (purgeCancelledTop();
         !heap_.empty() && heap_[0].when < bound;
         purgeCancelledTop()) {
        executeTop();
        ++n;
    }
    return n;
}

void
EventQueue::advanceTo(Time t)
{
    if (t < now_)
        panic("event queue: advanceTo into the past");
    now_ = t;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events) {
        purgeCancelledTop();
        if (heap_.empty())
            break;
        executeTop();
        ++n;
    }
    return n;
}

} // namespace sriov::sim
