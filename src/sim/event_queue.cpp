#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::sim {

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
    if (slot_count_ == EventHandle::kNone)
        panic("event queue slot store overflow");
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
    // 24-byte copy. Scheduling in time order (the common pattern)
    // terminates at the leaf immediately.
    heap_.push_back(k);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        std::size_t p = (i - 1) >> 2;
        if (!keyBefore(k, heap_[p]))
            break;
        heap_[i] = heap_[p];
        i = p;
    }
    heap_[i] = k;
}

void
EventQueue::heapRemoveTop()
{
    // 4-ary sift-down: half the levels of a binary heap and all four
    // children share a pair of cache lines, which is where the pop
    // cost lives for the multi-thousand-event heaps of the scale runs.
    HeapKey last = heap_.back();
    heap_.pop_back();
    std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t i = 0;
    for (;;) {
        std::size_t c = 4 * i + 1;
        if (c >= n)
            break;
        std::size_t m = c;
        if (c + 4 <= n) {
            // Full fan-out (the common case on a large heap): an
            // unrolled min-of-four keeps the scan branch-predictable.
            if (keyBefore(heap_[c + 1], heap_[m])) m = c + 1;
            if (keyBefore(heap_[c + 2], heap_[m])) m = c + 2;
            if (keyBefore(heap_[c + 3], heap_[m])) m = c + 3;
        } else {
            for (std::size_t j = c + 1; j < n; ++j)
                if (keyBefore(heap_[j], heap_[m]))
                    m = j;
        }
        if (!keyBefore(heap_[m], last))
            break;
        heap_[i] = heap_[m];
        i = m;
    }
    heap_[i] = last;
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
    heapPush(HeapKey{when, seq, idx});
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
        std::uint32_t idx = heap_[0].slot;
        Slot &s = slotRef(idx);
        if (s.state != Slot::State::Cancelled)
            break;
        heapRemoveTop();
        freeSlot(s, idx);
        --cancelled_pending_;
    }
}

const EventQueue::TagFold &
EventQueue::tagFold(const char *tag)
{
    // One event commonly repeats its predecessor's tag (bursts of
    // wire/CPU events); a one-entry MRU skips even the map lookup.
    if (tag == last_tag_)
        return *last_fold_;
    auto it = tag_folds_.find(tag);
    if (it == tag_folds_.end()) {
        constexpr std::uint64_t kPrime = 0x100000001b3ull;
        auto tf = std::make_unique<TagFold>();
        std::uint64_t pow = 1;
        for (const char *p = tag; *p != '\0'; ++p)
            pow *= kPrime;
        tf->pow = pow;
        // The byte-wise FNV-1a fold d -> (d ^ b) * kPrime mod 2^64 is
        // affine in d once the trajectory of d's low byte is fixed,
        // and that trajectory depends only on the initial low byte:
        // XOR with an 8-bit value touches only the low byte, and the
        // low byte of a product mod 2^64 depends only on the low
        // bytes of its factors. So folding a whole tag collapses to
        //   d' = d * kPrime^len + add[d & 0xff]
        // with a 256-entry table per tag. Identical bit-for-bit to
        // the byte loop (pinned by SimDigest tests).
        for (std::uint32_t lo = 0; lo < 256; ++lo) {
            std::uint64_t d = lo;
            for (const char *p = tag; *p != '\0'; ++p) {
                d ^= std::uint64_t(static_cast<unsigned char>(*p));
                d *= kPrime;
            }
            tf->add[lo] = d - lo * pow;
        }
        it = tag_folds_.emplace(tag, std::move(tf)).first;
    }
    last_tag_ = tag;
    last_fold_ = it->second.get();
    return *last_fold_;
}

void
EventQueue::foldDigest(Time when, std::uint64_t seq, const char *tag)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ull;
    auto fold = [this](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            digest_ ^= (v >> (8 * i)) & 0xff;
            digest_ *= kPrime;
        }
    };
    fold(std::uint64_t(when.picos()));
    fold(seq);
    if (tag == nullptr || *tag == '\0')
        return;
    const TagFold &tf = tagFold(tag);
    digest_ = digest_ * tf.pow + tf.add[digest_ & 0xff];
}

void
EventQueue::executeTop()
{
    HeapKey k = heap_[0];
    heapRemoveTop();
    // Chunked slot storage never relocates, so the callback runs in
    // place — no per-event move even when it schedules more events.
    // Running state makes a self-cancel from inside the callback a
    // no-op (the event has already fired).
    Slot &s = slotRef(k.slot);
    const char *tag = s.tag;
    s.state = Slot::State::Running;
    --live_events_;
    if (observer_ != nullptr)
        observer_->onExecute(k.when, now_, k.seq, tag);
    now_ = k.when;
    ++executed_;
    foldDigest(k.when, k.seq, tag);
    if (!exec_hooks_.empty()) {
        // Iterate by index: the callback (or a hook) may add or remove
        // hooks mid-event, e.g. a tracer detaching at a record limit.
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventStart(k.when, k.seq, tag);
        s.fn();
        for (std::size_t i = 0; i < exec_hooks_.size(); ++i)
            exec_hooks_[i]->onEventEnd(k.when, k.seq, tag);
    } else {
        s.fn();
    }
    freeSlot(s, k.slot);
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
    out.reserve(heap_.size());
    for (std::uint32_t i = 0; i < heap_.size(); ++i) {
        const HeapKey &k = heap_[i];
        const Slot &s = slotRef(k.slot);
        if (s.state != Slot::State::Pending)
            continue;
        out.push_back(PendingEvent{k.when, k.seq, s.tag, i});
    }
}

void
EventQueue::heapRebuild()
{
    // Bottom-up 4-ary heapify; cold path (once per fluid warp).
    if (heap_.size() < 2)
        return;
    for (std::size_t r = (heap_.size() - 2) / 4 + 1; r-- > 0;) {
        HeapKey k = heap_[r];
        std::size_t i = r;
        std::size_t n = heap_.size();
        for (;;) {
            std::size_t c = 4 * i + 1;
            if (c >= n)
                break;
            std::size_t m = c;
            for (std::size_t j = c + 1; j < n && j < c + 4; ++j)
                if (keyBefore(heap_[j], heap_[m]))
                    m = j;
            if (!keyBefore(heap_[m], k))
                break;
            heap_[i] = heap_[m];
            i = m;
        }
        heap_[i] = k;
    }
}

void
EventQueue::fluidWarp(Time delta,
                      const std::vector<std::uint32_t> &shift_keys)
{
    if (delta < Time())
        panic("fluid warp backwards");
    for (std::uint32_t idx : shift_keys) {
        if (idx >= heap_.size())
            panic("fluid warp: stale heap index");
        heap_[idx].when += delta;
    }
    now_ += delta;
    heapRebuild();
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
