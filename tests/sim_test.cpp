/**
 * @file
 * Unit tests for the simulation kernel: Time, EventQueue, CpuServer,
 * stats helpers and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu_server.hpp"
#include "sim/deferred_timer.hpp"
#include "sim/event_queue.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/random.hpp"
#include "sim/ring_buf.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

using namespace sriov::sim;

TEST(Time, UnitConstructorsAgree)
{
    EXPECT_EQ(Time::ns(1).picos(), 1000);
    EXPECT_EQ(Time::us(1), Time::ns(1000));
    EXPECT_EQ(Time::ms(1), Time::us(1000));
    EXPECT_EQ(Time::sec(1), Time::ms(1000));
    EXPECT_DOUBLE_EQ(Time::sec(2).toSeconds(), 2.0);
}

TEST(Time, CycleArithmeticAt2p8GHz)
{
    constexpr double hz = 2.8e9;
    Time t = Time::cycles(2.8e9, hz);
    EXPECT_EQ(t, Time::sec(1));
    EXPECT_NEAR(Time::sec(1).toCycles(hz), 2.8e9, 1);
    // One cycle is 357.14 ps; integer picoseconds keep it exact enough
    // that a million cycles round-trips to under a nanosecond of skew.
    Time million = Time::cycles(1e6, hz);
    EXPECT_NEAR(million.toCycles(hz), 1e6, 0.01);
}

TEST(Time, TransferMatchesLineRate)
{
    // 1538 bytes at 1 Gb/s = 12.304 us.
    Time t = Time::transfer(1538 * 8, 1e9);
    EXPECT_EQ(t, Time::ns(12304));
}

TEST(Time, ComparisonAndArithmetic)
{
    EXPECT_LT(Time::ns(5), Time::us(1));
    EXPECT_EQ(Time::us(3) - Time::us(1), Time::us(2));
    EXPECT_EQ(Time::us(1) * 4, Time::us(4));
    EXPECT_EQ(Time::us(4) / 2, Time::us(2));
}

TEST(Time, ToStringPicksUnits)
{
    EXPECT_EQ(Time::sec(2).toString(), "2s");
    EXPECT_EQ(Time::ms(3).toString(), "3ms");
    EXPECT_EQ(Time::us(7).toString(), "7us");
    EXPECT_EQ(Time::ns(9).toString(), "9ns");
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(Time::us(3), [&order]() { order.push_back(3); });
    eq.scheduleAt(Time::us(1), [&order]() { order.push_back(1); });
    eq.scheduleAt(Time::us(2), [&order]() { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), Time::us(3));
}

TEST(EventQueue, SimultaneousEventsAreFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(Time::us(1), [&order, i]() { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue eq;
    int ran = 0;
    eq.scheduleAt(Time::us(1), [&ran]() { ++ran; });
    eq.scheduleAt(Time::us(10), [&ran]() { ++ran; });
    EXPECT_EQ(eq.runUntil(Time::us(5)), 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), Time::us(5));
    eq.runAll();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 5)
            eq.scheduleIn(Time::us(1), chain);
    };
    eq.scheduleIn(Time::us(1), chain);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), Time::us(5));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventHandle h = eq.scheduleAt(Time::us(1), [&ran]() { ran = true; });
    eq.cancel(h);
    EXPECT_FALSE(h.valid());
    eq.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsSelective)
{
    EventQueue eq;
    int ran = 0;
    EventHandle h1 = eq.scheduleAt(Time::us(1), [&ran]() { ran += 1; });
    eq.scheduleAt(Time::us(1), [&ran]() { ran += 10; });
    eq.cancel(h1);
    eq.runAll();
    EXPECT_EQ(ran, 10);
}

TEST(EventQueue, CancelBookkeepingIsPurgedOnPop)
{
    EventQueue eq;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    eq.scheduleAt(Time::us(2), []() {});
    eq.cancel(h);
    EXPECT_EQ(eq.cancelledPending(), 1u);
    eq.runAll();
    // The cancelled entry was popped and its bookkeeping purged.
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, CancellingStaleHandlesDoesNotAccumulate)
{
    // Regression: long-running scale experiments (fig15-fig19) cancel
    // throttle timers whose events often fired long ago; the stale
    // cancellations must not grow the bookkeeping unboundedly.
    EventQueue eq;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 1000; ++i)
        handles.push_back(eq.scheduleIn(Time::us(i), []() {}));
    eq.runAll();
    for (auto &h : handles)
        eq.cancel(h);    // all stale: every event already fired
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, CancelledEventsDoNotCountAsLive)
{
    EventQueue eq;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    EXPECT_EQ(eq.liveEvents(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.cancel(h);
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilIgnoresCancelledTopBeyondDeadline)
{
    // Regression: a cancelled event at the heap top must not let
    // runUntil() execute the *next* event past the deadline.
    EventQueue eq;
    bool late_ran = false;
    EventHandle h = eq.scheduleAt(Time::us(1), []() {});
    eq.scheduleAt(Time::us(10), [&late_ran]() { late_ran = true; });
    eq.cancel(h);
    EXPECT_EQ(eq.runUntil(Time::us(5)), 0u);
    EXPECT_FALSE(late_ran);
    EXPECT_EQ(eq.now(), Time::us(5));
    eq.runAll();
    EXPECT_TRUE(late_ran);
}

TEST(EventQueue, OrderDigestIsReproducible)
{
    auto run = []() {
        EventQueue eq;
        for (int i = 0; i < 50; ++i)
            eq.scheduleAt(Time::us(50 - i), []() {}, "tick");
        eq.runAll();
        return eq.orderDigest();
    };
    std::uint64_t a = run();
    EXPECT_EQ(a, run());

    EventQueue other;
    other.scheduleAt(Time::us(1), []() {}, "tick");
    other.runAll();
    EXPECT_NE(a, other.orderDigest());
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(Time::us(5), []() {});
    eq.runAll();
    EXPECT_DEATH(eq.scheduleAt(Time::us(1), []() {}), "past");
}

TEST(CpuServer, SerializesWork)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);    // 1 GHz: 1 cycle = 1 ns
    std::vector<int> order;
    cpu.submit(1000, "a", [&]() { order.push_back(1); });
    cpu.submit(1000, "a", [&]() { order.push_back(2); });
    EXPECT_TRUE(cpu.busyNow());
    EXPECT_EQ(cpu.queueDepth(), 1u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    // Two back-to-back 1000-cycle items finish at 2 us.
    EXPECT_EQ(eq.now(), Time::us(2));
}

TEST(CpuServer, UtilizationWindow)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    auto snap = cpu.snapshot();
    cpu.submit(500000, "x");    // 0.5 ms busy
    eq.runUntil(Time::ms(1));
    EXPECT_NEAR(cpu.utilizationSince(snap), 0.5, 1e-9);
}

TEST(CpuServer, TagAccounting)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    auto snap = cpu.snapshot();
    cpu.submit(100, "alpha");
    cpu.charge(250, "beta");
    cpu.charge(50, "alpha");
    eq.runAll();
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "alpha"), 150.0);
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "beta"), 250.0);
    EXPECT_DOUBLE_EQ(cpu.cyclesSince(snap, "gamma"), 0.0);
}

TEST(CpuServer, ChargeDoesNotDelayCompletion)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    cpu.charge(1e9, "heavy");    // instant accounting
    bool done = false;
    cpu.submit(10, "x", [&]() { done = true; });
    eq.runUntil(Time::us(1));
    EXPECT_TRUE(done);
    // Busy time reflects both, though.
    EXPECT_EQ(cpu.busyTime(), Time::sec(1) + Time::ns(10));
}

TEST(CpuServerDeathTest, NegativeWorkPanics)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9);
    EXPECT_DEATH(cpu.submit(-1, "x"), "negative");
    EXPECT_DEATH(cpu.charge(-1, "x"), "negative");
}

TEST(Stats, RateWindow)
{
    EventQueue eq;
    RateWindow w;
    w.take(eq.now());
    w.add(1000);
    eq.runUntil(Time::sec(2));
    EXPECT_DOUBLE_EQ(w.take(eq.now()), 500.0);
    // Window re-marks: nothing new means zero.
    eq.runUntil(Time::sec(3));
    EXPECT_DOUBLE_EQ(w.take(eq.now()), 0.0);
}

TEST(Stats, RateWindowZeroWidthDoesNotDiscard)
{
    RateWindow w;
    w.take(Time::sec(1));
    w.add(100);
    // Sampling again at the same instant (or earlier) yields 0 and
    // must NOT re-mark: the 100 stays in the open window.
    EXPECT_DOUBLE_EQ(w.take(Time::sec(1)), 0.0);
    EXPECT_DOUBLE_EQ(w.take(Time::ms(500)), 0.0);
    EXPECT_DOUBLE_EQ(w.take(Time::sec(2)), 100.0);
}

namespace {

class CountingHook : public EventQueue::ExecHook
{
  public:
    void
    onEventStart(Time, std::uint64_t, const char *tag) override
    {
        ++starts;
        if (tag != nullptr && tag[0] != '\0')
            last_tag = tag;
    }
    void
    onEventEnd(Time when, std::uint64_t, const char *) override
    {
        ++ends;
        last_end = when;
    }

    int starts = 0;
    int ends = 0;
    std::string last_tag;
    Time last_end;
};

} // namespace

TEST(EventQueueHooks, BracketEveryExecutedEvent)
{
    EventQueue eq;
    CountingHook hook;
    eq.addExecHook(&hook);
    EXPECT_EQ(eq.execHookCount(), 1u);
    eq.scheduleAt(Time::us(1), []() {}, "alpha");
    eq.scheduleAt(Time::us(2), []() {});
    eq.runAll();
    EXPECT_EQ(hook.starts, 2);
    EXPECT_EQ(hook.ends, 2);
    EXPECT_EQ(hook.last_tag, "alpha");
    EXPECT_EQ(hook.last_end, Time::us(2));

    eq.removeExecHook(&hook);
    EXPECT_EQ(eq.execHookCount(), 0u);
    eq.scheduleAt(Time::us(3), []() {});
    eq.runAll();
    EXPECT_EQ(hook.starts, 2);
}

TEST(EventQueueHooks, HookDoesNotPerturbOrderOrClock)
{
    auto run = [](bool hooked) {
        EventQueue eq;
        CountingHook hook;
        if (hooked)
            eq.addExecHook(&hook);
        std::vector<int> order;
        for (int i = 0; i < 5; ++i)
            eq.scheduleAt(Time::us(5 - i), [&order, i]() {
                order.push_back(i);
            });
        eq.runAll();
        return order;
    };
    EXPECT_EQ(run(false), run(true));
}

namespace {

class RecordingTap : public CpuServer::SpanTap
{
  public:
    void
    onCpuSpan(const CpuServer &, const std::string &tag, Time start,
              Time end) override
    {
        spans.emplace_back(tag, end - start);
    }

    std::vector<std::pair<std::string, Time>> spans;
};

} // namespace

TEST(CpuServerSpanTap, ReportsWorkSpans)
{
    EventQueue eq;
    CpuServer cpu(eq, "c0", 1e9); // 1 GHz: 1 cycle = 1 ns
    RecordingTap tap;
    cpu.setSpanTap(&tap);
    cpu.submit(100, "guest-1");
    cpu.submit(50, "xen");
    eq.runAll();
    ASSERT_EQ(tap.spans.size(), 2u);
    EXPECT_EQ(tap.spans[0].first, "guest-1");
    EXPECT_EQ(tap.spans[0].second, Time::ns(100));
    EXPECT_EQ(tap.spans[1].first, "xen");
    EXPECT_EQ(tap.spans[1].second, Time::ns(50));

    cpu.setSpanTap(nullptr);
    cpu.submit(10, "dom0");
    eq.runAll();
    EXPECT_EQ(tap.spans.size(), 2u);
}

TEST(Stats, AccumulatorMean)
{
    Accumulator a;
    a.add(2);
    a.add(4);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.samples(), 2u);
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

class RandomDistribution : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomDistribution, UniformInUnitInterval)
{
    Random r(GetParam());
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST_P(RandomDistribution, ExponentialMean)
{
    Random r(GetParam());
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(3.0);
    EXPECT_NEAR(sum / 20000, 3.0, 0.15);
}

TEST_P(RandomDistribution, UniformIntInRange)
{
    Random r(GetParam());
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniformInt(5, 9);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 9u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistribution,
                         ::testing::Values(1, 7, 42, 1234567, 0xdeadbeef));

// ---------------------------------------------------------------------------
// InplaceFn: the event queue's inline-capture callback type.

TEST(InplaceFn, SmallTrivialCaptureStoresInline)
{
    auto before = detail::capturePoolStats();
    int x = 41;
    InplaceFn fn([&x]() { ++x; });
    EXPECT_TRUE(fn.storedInline());
    fn();
    EXPECT_EQ(x, 42);
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.allocs, before.allocs);    // never touched the pool
}

TEST(InplaceFn, CaptureAtCapacityBoundaryStoresInline)
{
    struct Fits
    {
        char bytes[InplaceFn::kCapacity];
        void operator()() {}
    };
    struct Oversize
    {
        char bytes[InplaceFn::kCapacity + 1];
        void operator()() {}
    };
    EXPECT_TRUE(InplaceFn(Fits{}).storedInline());
    EXPECT_FALSE(InplaceFn(Oversize{}).storedInline());
}

TEST(InplaceFn, OversizedCaptureUsesPoolAndReturnsBlock)
{
    auto before = detail::capturePoolStats();
    {
        std::array<char, 200> big{};
        big[0] = 7;
        InplaceFn fn([big]() { ASSERT_EQ(big[0], 7); });
        EXPECT_FALSE(fn.storedInline());
        auto during = detail::capturePoolStats();
        EXPECT_EQ(during.live, before.live + 1);
        fn();
    }
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.live, before.live);
    EXPECT_EQ(after.frees, before.frees + 1);
}

TEST(InplaceFn, PoolReusesReturnedBlocks)
{
    // Warm the pool, then cycle: after the first allocation the same
    // size class must be served from the free list, not operator new.
    std::array<char, 300> big{};
    { InplaceFn warm([big]() {}); }
    auto before = detail::capturePoolStats();
    for (int i = 0; i < 100; ++i) {
        InplaceFn fn([big]() {});
        fn();
    }
    auto after = detail::capturePoolStats();
    EXPECT_EQ(after.allocs, before.allocs + 100);
    EXPECT_EQ(after.fresh, before.fresh);    // all reuses
}

TEST(InplaceFn, MoveTransfersCallableAndEmptiesSource)
{
    int hits = 0;
    InplaceFn a([&hits]() { ++hits; });
    InplaceFn b = std::move(a);
    EXPECT_FALSE(bool(a));    // NOLINT: post-move state is part of the API
    ASSERT_TRUE(bool(b));
    b();
    EXPECT_EQ(hits, 1);

    InplaceFn c;
    c = std::move(b);
    ASSERT_TRUE(bool(c));
    c();
    EXPECT_EQ(hits, 2);
}

TEST(InplaceFn, NonTrivialCaptureDestructsExactlyOnce)
{
    auto counter = std::make_shared<int>(0);
    {
        InplaceFn fn([counter]() { ++*counter; });
        EXPECT_EQ(counter.use_count(), 2);
        InplaceFn moved = std::move(fn);
        EXPECT_EQ(counter.use_count(), 2);    // moved, not copied
        moved();
    }
    EXPECT_EQ(counter.use_count(), 1);
    EXPECT_EQ(*counter, 1);
}

TEST(InplaceFn, EmplaceBuildsCaptureInPlace)
{
    int hits = 0;
    InplaceFn fn;
    EXPECT_FALSE(bool(fn));
    fn.emplace([&hits]() { ++hits; });
    ASSERT_TRUE(bool(fn));
    fn();
    EXPECT_EQ(hits, 1);
    // Re-emplacing replaces the old callable.
    fn.emplace([&hits]() { hits += 10; });
    fn();
    EXPECT_EQ(hits, 11);
}

// ---------------------------------------------------------------------------
// Slot-map cancellation: generation safety and churn behaviour.

TEST(EventQueue, StaleHandleCannotCancelSlotReuse)
{
    EventQueue eq;
    bool a = false, b = false;
    EventHandle ha = eq.scheduleIn(Time::ns(1), [&a]() { a = true; });
    eq.runAll();
    ASSERT_TRUE(a);
    // B reuses A's slot (freed on execution). The stale handle keeps
    // A's generation and must not cancel B.
    EventHandle hb = eq.scheduleIn(Time::ns(1), [&b]() { b = true; });
    EventHandle stale = ha;    // would-be double cancel via old copy
    (void)hb;
    eq.cancel(stale);
    eq.runAll();
    EXPECT_TRUE(b);
}

TEST(EventQueue, SelfCancelFromInsideCallbackIsNoOp)
{
    EventQueue eq;
    int runs = 0;
    EventHandle h;
    h = eq.scheduleIn(Time::ns(1), [&runs, &eq, &h]() {
        ++runs;
        eq.cancel(h);    // the event has already fired: no-op
    });
    eq.runAll();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_EQ(eq.cancelledPending(), 0u);
}

TEST(EventQueue, MillionEventCancelChurnStaysBounded)
{
    // Scale-experiment pattern at 10x stress: every event re-arms a
    // timer and cancels the oldest outstanding one. Purging is lazy
    // (cancelled keys are reclaimed when they reach the heap top), so
    // the bound is per drain cycle: between drains the bookkeeping
    // never exceeds the events scheduled since the last drain, and
    // each drain — which pops every key at or before its deadline —
    // returns it to exactly zero. Live/executed accounting must
    // balance throughout.
    constexpr std::uint64_t kChurn = 1'000'000;
    constexpr std::uint64_t kWindow = 64;
    constexpr std::uint64_t kDrainEvery = 1024;
    EventQueue eq;
    std::vector<EventHandle> window;
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kChurn; ++i) {
        window.push_back(
            eq.scheduleIn(Time::ns(100 + i % 37), [&fired]() { ++fired; }));
        if (window.size() > kWindow) {
            eq.cancel(window.front());
            window.erase(window.begin());
        }
        ASSERT_LE(eq.cancelledPending(), kDrainEvery + kWindow);
        if ((i + 1) % kDrainEvery == 0) {
            // The drain deadline is past every outstanding event, so
            // all cancelled keys pop and purge.
            eq.runUntil(eq.now() + Time::us(1));
            ASSERT_EQ(eq.cancelledPending(), 0u);
            window.clear();    // survivors fired; handles now stale
        }
    }
    eq.runAll();
    EXPECT_EQ(eq.liveEvents(), 0u);
    EXPECT_EQ(eq.cancelledPending(), 0u);
    EXPECT_EQ(eq.executed(), fired);
    // The churn genuinely exercised both outcomes.
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, kChurn);
}

// ---------------------------------------------------------------------------
// Order digest: the memoized tag fold must match plain FNV-1a.

namespace {

/** Reference implementation: byte-wise FNV-1a over (when, seq, tag). */
struct ReferenceDigest
{
    std::uint64_t d = 0xcbf29ce484222325ull;

    void
    byte(std::uint8_t b)
    {
        d ^= b;
        d *= 0x100000001b3ull;
    }

    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte((v >> (8 * i)) & 0xff);
    }

    void
    event(Time when, std::uint64_t seq, const char *tag)
    {
        word(std::uint64_t(when.picos()));
        word(seq);
        if (tag != nullptr)
            for (const char *p = tag; *p != '\0'; ++p)
                byte(std::uint8_t(*p));
    }
};

/** Values where the word fold's zero-byte skip changes length. */
const std::uint64_t kFoldEdges[] = {0,
                                    1,
                                    0xff,
                                    0x100,
                                    (std::uint64_t(1) << 56) - 1,
                                    std::uint64_t(1) << 56,
                                    (std::uint64_t(1) << 63) - 1,
                                    std::uint64_t(Time::max().picos())};

} // namespace

TEST(EventQueue, DigestMatchesReferenceFnv1a)
{
    // Tags repeat (exercising the per-tag memo and its cache line),
    // interleave, and include the empty tag; seq is assigned in
    // scheduling order, execution order is (when, seq).
    static const char *const kTags[] = {"wire.rx", "cpu", "", "wire.rx",
                                        "itr.timer", "cpu", "wire.rx", ""};
    EventQueue eq;
    ReferenceDigest ref;
    std::uint64_t seq = 1;
    for (int round = 0; round < 50; ++round)
        for (std::size_t t = 0; t < std::size(kTags); ++t) {
            // All events of a round share a timestamp: FIFO by seq.
            Time when = Time::us(round + 1);
            eq.scheduleAt(when, []() {}, kTags[t]);
            ref.event(when, seq++, kTags[t]);
        }
    // 400 events: seq crosses the 0xff/0x100 length edge on the way.
    eq.runAll();
    EXPECT_EQ(eq.orderDigest(), ref.d);

    // Times at every length edge of the zero-byte skip, through the
    // queue (the last two are both Time::max(): a FIFO tie).
    EventQueue edges;
    ReferenceDigest edges_ref;
    seq = 1;
    for (std::uint64_t w : kFoldEdges) {
        const Time when = Time::ps(std::int64_t(w));
        edges.scheduleAt(when, []() {}, "edge");
        edges_ref.event(when, seq++, "edge");
    }
    edges.runAll();
    EXPECT_EQ(edges.orderDigest(), edges_ref.d);

    // The same edges as raw words (seq values no run reaches), each
    // folded into a digest whose low byte the previous ones moved.
    ReferenceDigest words;
    std::uint64_t d = words.d;
    for (std::uint64_t v : kFoldEdges) {
        words.word(v);
        d = EventQueue::fnvFoldWord(d, v);
        EXPECT_EQ(d, words.d) << "word " << v;
    }

    // More distinct tags than the tag cache has lines: tags share
    // lines, evict each other, and must still fold their own content.
    std::vector<std::string> many;
    for (int i = 0; i < 300; ++i)
        many.push_back("tag." + std::to_string(i));
    EventQueue crowded;
    ReferenceDigest crowded_ref;
    seq = 1;
    for (int round = 0; round < 3; ++round)
        for (const std::string &tag : many) {
            crowded.scheduleAt(Time::us(round + 1), []() {}, tag.c_str());
            crowded_ref.event(Time::us(round + 1), seq++, tag.c_str());
        }
    crowded.runAll();
    EXPECT_EQ(crowded.orderDigest(), crowded_ref.d);
}

TEST(EventQueue, TieWordIsFifoBySeqAboveTheSlot)
{
    // A later seq outranks every slot, so ordering by the tie word is
    // ordering by seq.
    EXPECT_LT(EventQueue::tieWord(1, (1u << EventQueue::kSlotBits) - 1),
              EventQueue::tieWord(2, 0));
    EXPECT_EQ(EventQueue::tieWord(
                  (std::uint64_t(1) << EventQueue::kSeqBits) - 1,
                  (1u << EventQueue::kSlotBits) - 1),
              ~std::uint64_t(0));
}

TEST(EventQueueDeathTest, TieWordPanicsBeyondEitherField)
{
    // The guard prepareEvent() runs, checked without 2^24 live slots
    // or 2^40 scheduled events.
    EXPECT_DEATH(EventQueue::tieWord(std::uint64_t(1) << EventQueue::kSeqBits,
                                     0),
                 "key overflow");
    EXPECT_DEATH(EventQueue::tieWord(1, 1u << EventQueue::kSlotBits),
                 "key overflow");
}

TEST(EventQueue, DigestHashesTagContentNotPointer)
{
    // Two distinct arrays with equal content must fold identically:
    // the memo is keyed by pointer, but the digest is content-based.
    static const char tag_a[] = "same.tag";
    static const char tag_b[] = "same.tag";
    auto run = [](const char *tag) {
        EventQueue eq;
        for (int i = 0; i < 10; ++i)
            eq.scheduleIn(Time::ns(i), []() {}, tag);
        eq.runAll();
        return eq.orderDigest();
    };
    EXPECT_EQ(run(tag_a), run(tag_b));
}

// ---------------------------------------------------------------------------
// The event core against a reference model: the live events in a map
// sorted by (when, seq).

namespace {

/**
 * Drives an EventQueue and its reference model side by side. seq is
 * counted the way the queue assigns it, one per scheduleAt() from 1.
 * Each event checks, when it runs, that it is the model's least
 * (when, seq) entry, folds itself into a ReferenceDigest, and may
 * reschedule itself a few times.
 */
struct ModelHarness
{
    using Key = std::pair<Time, std::uint64_t>;
    struct Live
    {
        const char *tag;
        EventHandle handle;
        Time period;          ///< reschedule this far ahead when it runs
        unsigned repeats;     ///< reschedules left
    };

    EventQueue eq;
    ReferenceDigest ref;
    std::map<Key, Live> live;
    std::uint64_t next_seq = 1;
    std::uint64_t fired = 0;
    std::uint64_t out_of_order = 0;
    EventHandle last_fired;    ///< a stale handle once its event ran

    void
    schedule(Time when, const char *tag, Time period, unsigned repeats)
    {
        const std::uint64_t seq = next_seq++;
        EventHandle h = eq.scheduleAt(
            when, [this, seq]() { fire(seq); }, tag);
        live.emplace(Key{when, seq}, Live{tag, h, period, repeats});
    }

    void
    fire(std::uint64_t seq)
    {
        ++fired;
        if (live.empty() || live.begin()->first != Key{eq.now(), seq}) {
            ++out_of_order;
            return;
        }
        const Live ev = live.begin()->second;
        live.erase(live.begin());
        ref.event(eq.now(), seq, ev.tag);
        last_fired = ev.handle;
        if (ev.repeats > 0)
            schedule(eq.now() + ev.period, ev.tag, ev.period,
                     ev.repeats - 1);
    }

    /** snapshotPending() must list exactly the model's live events. */
    void
    checkSnapshot() const
    {
        std::vector<EventQueue::PendingEvent> snap;
        eq.snapshotPending(snap);
        std::sort(snap.begin(), snap.end(),
                  [](const EventQueue::PendingEvent &a,
                     const EventQueue::PendingEvent &b) {
                      return Key{a.when, a.seq} < Key{b.when, b.seq};
                  });
        ASSERT_EQ(snap.size(), live.size());
        std::size_t i = 0;
        for (const auto &[key, ev] : live) {
            EXPECT_EQ(snap[i].when, key.first);
            EXPECT_EQ(snap[i].seq, key.second);
            EXPECT_EQ(snap[i].tag, ev.tag);
            ++i;
        }
    }
};

} // namespace

TEST(EventQueue, AgreesWithSortedReferenceModel)
{
    static const char *const kTags[] = {"wire.burst", "cpu.done", "",
                                        "nic.itr"};
    // Mostly short, repeated delays, so equal-time ties are common.
    static const Time kDelays[] = {Time(), Time::ns(1), Time::ns(1),
                                   Time::ns(2), Time::ns(5), Time::ns(40)};
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        ModelHarness m;
        Random rng(seed);
        auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
            return rng.uniformInt(lo, hi);
        };
        auto scheduleSome = [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const Time delay = pick(0, 3) == 0
                    ? Time::ps(std::int64_t(pick(0, 100000)))
                    : kDelays[pick(0, 5)];
                const bool periodic = pick(0, 3) == 0;
                m.schedule(m.eq.now() + delay, kTags[pick(0, 3)],
                           kDelays[pick(1, 5)],
                           periodic ? unsigned(pick(1, 8)) : 0);
            }
        };
        auto cancelSome = [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n && !m.live.empty(); ++i) {
                auto it = m.live.begin();
                std::advance(it, pick(0, m.live.size() - 1));
                m.eq.cancel(it->second.handle);
                m.live.erase(it);
            }
            if (pick(0, 3) == 0)
                m.eq.cancel(m.last_fired);    // stale: must be a no-op
        };
        auto runSome = [&](std::uint64_t max_events, std::int64_t max_ps) {
            if (pick(0, 1) == 0) {
                m.eq.runAll(pick(1, max_events));
            } else {
                const Time deadline =
                    m.eq.now() + Time::ps(std::int64_t(pick(0, max_ps)));
                m.eq.runUntil(deadline);
                if (!m.live.empty()) {
                    EXPECT_GT(m.live.begin()->first.first, deadline);
                }
            }
            ASSERT_EQ(m.eq.liveEvents(), m.live.size());
        };

        // Grow from one pending event to 4096 (the step bounds only
        // keep a broken queue from hanging the test)...
        m.schedule(Time::ns(1), "first", Time(), 0);
        for (unsigned step = 0; m.live.size() < 4096; ++step) {
            ASSERT_LT(step, 1000u);
            scheduleSome(pick(32, 96));
            cancelSome(pick(0, 4));
            runSome(8, 500);
        }
        m.checkSnapshot();

        // ...warp midway: every event due before the landing point
        // moves with the clock, the rest keep their absolute time or
        // move with it at random...
        std::vector<EventQueue::PendingEvent> snap;
        m.eq.snapshotPending(snap);
        const Time delta = Time::ns(50);
        const Time landing = m.eq.now() + delta;
        std::vector<std::uint32_t> shift;
        std::map<ModelHarness::Key, ModelHarness::Live> moved;
        for (const EventQueue::PendingEvent &p : snap) {
            if (p.when >= landing && pick(0, 1) == 0)
                continue;
            shift.push_back(p.key_index);
            auto it = m.live.find({p.when, p.seq});
            ASSERT_NE(it, m.live.end());
            moved.emplace(ModelHarness::Key{p.when + delta, p.seq},
                          it->second);
            m.live.erase(it);
        }
        m.live.merge(moved);
        m.eq.fluidWarp(delta, shift);
        EXPECT_EQ(m.eq.now(), landing);
        m.checkSnapshot();

        // ...and drain back down to one, then none.
        for (unsigned step = 0; m.live.size() > 1; ++step) {
            ASSERT_LT(step, 100000u);
            scheduleSome(pick(0, 4));
            cancelSome(pick(0, 2));
            runSome(256, 50000);
            if (step % 16 == 0)
                m.checkSnapshot();
        }
        m.eq.runAll();

        EXPECT_EQ(m.out_of_order, 0u);
        EXPECT_TRUE(m.live.empty());
        EXPECT_EQ(m.eq.liveEvents(), 0u);
        EXPECT_EQ(m.eq.executed(), m.fired);
        EXPECT_EQ(m.eq.orderDigest(), m.ref.d);
    }
}

TEST(EventQueue, TagLanesKeepExactOrder)
{
    // The shapes a tag's FIFO lane must get right, checked against the
    // reference model at every pop.
    static const char kDma[] = "dma.done";
    static const char kItr[] = "nic.itr";
    ModelHarness m;
    auto handleOf = [&m](std::uint64_t seq) {
        for (auto &[key, ev] : m.live)
            if (key.second == seq)
                return &ev.handle;
        ADD_FAILURE() << "seq " << seq << " is not live";
        return static_cast<EventHandle *>(nullptr);
    };
    auto cancelSeq = [&](std::uint64_t seq) {
        EventHandle *h = handleOf(seq);
        ASSERT_NE(h, nullptr);
        m.eq.cancel(*h);
        for (auto it = m.live.begin(); it != m.live.end(); ++it)
            if (it->first.second == seq) {
                m.live.erase(it);
                break;
            }
    };

    // A 512-deep in-order backlog under one tag, two keys per due time
    // (10..265 ns), like a port's DMA completions, beside two periodic
    // timers of another tag that land on the same nanoseconds. The
    // heap holds the two lane heads.
    for (int i = 0; i < 512; ++i)
        m.schedule(Time::ns(10 + i / 2), kDma, Time(), 0);
    m.schedule(Time::ns(7), kItr, Time::ns(3), 200);
    m.schedule(Time::ns(9), kItr, Time::ns(4), 200);
    EXPECT_EQ(m.eq.heapKeys(), 2u);
    m.checkSnapshot();

    // Out-of-order keys of the same tag go to the heap alone: one
    // before the lane's head, the rest tied with two lane keys each
    // (lane keys have the lower seq, so they pop first).
    m.schedule(Time::ns(5), kDma, Time(), 0);
    for (int i = 0; i < 16; ++i)
        m.schedule(Time::ns(20 + 13 * i), kDma, Time(), 0);
    EXPECT_EQ(m.eq.heapKeys(), 2u + 17u);

    // Cancel the lane's head (seq 1) and a key deep in it (seq 300).
    cancelSeq(1);
    cancelSeq(300);
    EXPECT_EQ(m.eq.liveEvents(), m.live.size());
    m.checkSnapshot();

    m.eq.runUntil(Time::ns(60));
    EXPECT_EQ(m.eq.liveEvents(), m.live.size());
    EXPECT_GT(m.live.begin()->first.first, Time::ns(60));
    m.checkSnapshot();

    // A warp while lanes are deep: shift only every other dma.done key
    // due after the landing point (and every key due before it), so
    // the tag's keys interleave differently afterwards.
    std::vector<EventQueue::PendingEvent> snap;
    m.eq.snapshotPending(snap);
    const Time delta = Time::ns(25);
    const Time landing = m.eq.now() + delta;
    std::vector<std::uint32_t> shift;
    std::map<ModelHarness::Key, ModelHarness::Live> moved;
    std::size_t kept_dma = 0;
    for (const EventQueue::PendingEvent &p : snap) {
        if (p.when >= landing && (p.tag != kDma || p.seq % 2 == 0)) {
            kept_dma += p.tag == kDma;
            continue;
        }
        shift.push_back(p.key_index);
        auto it = m.live.find({p.when, p.seq});
        ASSERT_NE(it, m.live.end());
        moved.emplace(ModelHarness::Key{p.when + delta, p.seq},
                      it->second);
        m.live.erase(it);
    }
    EXPECT_GT(kept_dma, 100u);
    EXPECT_GT(shift.size(), 100u);
    m.live.merge(moved);
    m.eq.fluidWarp(delta, shift);
    EXPECT_EQ(m.eq.now(), landing);
    m.checkSnapshot();

    // The lanes restart after the warp: a new in-order backlog behind
    // the drained keys, with one more out-of-order key and a cancel.
    const Time t = m.eq.now();
    for (int i = 0; i < 64; ++i)
        m.schedule(t + Time::ns(1 + i), kDma, Time(), 0);
    m.schedule(t + Time::ns(3), kDma, Time(), 0);
    cancelSeq(m.next_seq - 10);
    m.checkSnapshot();

    m.eq.runAll();
    EXPECT_EQ(m.out_of_order, 0u);
    EXPECT_TRUE(m.live.empty());
    EXPECT_EQ(m.eq.liveEvents(), 0u);
    EXPECT_EQ(m.eq.heapKeys(), 0u);
    EXPECT_EQ(m.eq.executed(), m.fired);
    EXPECT_EQ(m.eq.orderDigest(), m.ref.d);
}

TEST(RingBuf, FifoAcrossWraparound)
{
    RingBuf<int> rb(8);
    EXPECT_EQ(rb.capacity(), 8u);
    for (int i = 0; i < 6; ++i)
        rb.push_back(i);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(rb.front(), i);
        rb.pop_front();
    }
    // The next pushes wrap past the end of the array.
    for (int i = 6; i < 12; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), 8u);    // exactly full, no growth
    ASSERT_EQ(rb.size(), 8u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], int(4 + i));
    EXPECT_EQ(rb.front(), 4);
    EXPECT_EQ(rb.back(), 11);
}

TEST(RingBuf, GrowthAtPowerOfTwoBoundariesPreservesOrder)
{
    RingBuf<int> rb;
    EXPECT_EQ(rb.capacity(), 0u);
    // Stagger the head so every regrow starts from a wrapped layout.
    for (int i = 0; i < 5; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 5; ++i)
        rb.pop_front();
    int next = 0;
    for (std::size_t target : {std::size_t(8), std::size_t(16),
                               std::size_t(32), std::size_t(64)}) {
        while (rb.size() < target)
            rb.push_back(next++);
        EXPECT_EQ(rb.capacity(), target);
    }
    ASSERT_EQ(rb.size(), 64u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], int(i));
}

TEST(RingBuf, MoveOnlyPayloads)
{
    RingBuf<std::unique_ptr<int>> rb;
    for (int i = 0; i < 20; ++i)    // growth must move, not copy
        rb.emplace_back(std::make_unique<int>(i));
    for (int i = 0; i < 20; ++i) {
        std::unique_ptr<int> p = std::move(rb.front());
        rb.pop_front();
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, i);
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuf, ClearRetainsCapacityForReuse)
{
    RingBuf<int> rb;
    for (int i = 0; i < 100; ++i)
        rb.push_back(i);
    std::size_t cap = rb.capacity();
    EXPECT_EQ(cap, 128u);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), cap);    // storage sticks at the high-water mark
    for (int i = 0; i < 100; ++i)
        rb.push_back(i);
    EXPECT_EQ(rb.capacity(), cap);
    EXPECT_EQ(rb.front(), 0);
    EXPECT_EQ(rb.back(), 99);
}

TEST(RingBuf, ReserveRoundsUpToPowerOfTwoAndNeverShrinks)
{
    RingBuf<int> rb;
    rb.reserve(1000);
    EXPECT_EQ(rb.capacity(), 1024u);
    rb.reserve(10);
    EXPECT_EQ(rb.capacity(), 1024u);
}

TEST(RingBuf, MoveTransfersStorage)
{
    RingBuf<int> a(4);
    a.push_back(1);
    a.push_back(2);
    RingBuf<int> b(std::move(a));
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.front(), 1);
    RingBuf<int> c;
    c = std::move(b);
    EXPECT_EQ(c.size(), 2u);
    EXPECT_EQ(c.back(), 2);
}

// ---------------------------------------------------------------------------
// DeferredTimer: deadline-deferred wakeups (the event-thinning timer).
// ---------------------------------------------------------------------------

TEST(DeferredTimer, FiresExactlyAtTheArmedDeadline)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(t.deadline(), Time::us(10));
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(10));
    EXPECT_FALSE(t.armed());
}

TEST(DeferredTimer, ExtendingTheDeadlineDefersInsteadOfRescheduling)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    // Push the deadline out twice before the original event fires: the
    // pending event is reused (deferral), not cancelled + replaced.
    eq.scheduleAt(Time::us(5), [&t] { t.armAt(Time::us(20)); }, "move");
    eq.scheduleAt(Time::us(15), [&t] { t.armAt(Time::us(30)); }, "move");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(30));
    // Both stale wakeups (at 10us and 20us) were absorbed by deferral.
    EXPECT_EQ(t.deferrals(), 2u);
}

TEST(DeferredTimer, ArmingEarlierStillFiresOnTime)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(100));
    eq.scheduleAt(Time::us(1), [&t] { t.armAt(Time::us(4)); }, "move");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(4));    // never late, never at 100us
}

TEST(DeferredTimer, DisarmSuppressesTheCallback)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    int fires = 0;
    t.setCallback([&] { ++fires; });
    t.armAt(Time::us(10));
    eq.scheduleAt(Time::us(5), [&t] { t.disarm(); }, "stop");
    eq.runAll();
    EXPECT_EQ(fires, 0);
    EXPECT_FALSE(t.armed());
}

TEST(DeferredTimer, ReArmAfterDisarmWorks)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] { fired.push_back(eq.now()); });
    t.armAt(Time::us(10));
    eq.scheduleAt(Time::us(5), [&t] {
        t.disarm();
        t.armAt(Time::us(8));
    }, "restart");
    eq.runAll();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], Time::us(8));
}

TEST(DeferredTimer, ReArmingFromTheCallbackIsPeriodic)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    std::vector<Time> fired;
    t.setCallback([&] {
        fired.push_back(eq.now());
        if (fired.size() < 3)
            t.armIn(Time::us(10));
    });
    t.armAt(Time::us(10));
    eq.runAll();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], Time::us(10));
    EXPECT_EQ(fired[1], Time::us(20));
    EXPECT_EQ(fired[2], Time::us(30));
}

TEST(DeferredTimer, DestructorCancelsThePendingEvent)
{
    EventQueue eq;
    int fires = 0;
    {
        DeferredTimer t(eq, "test.timer");
        t.setCallback([&] { ++fires; });
        t.armAt(Time::us(10));
    }
    // The timer is gone; its event must not run into freed state.
    eq.runAll();
    EXPECT_EQ(fires, 0);
}

TEST(DeferredTimerDeathTest, ArmingInThePastPanics)
{
    EventQueue eq;
    DeferredTimer t(eq, "test.timer");
    t.setCallback([] {});
    eq.scheduleAt(Time::us(10), [&t] {
        EXPECT_DEATH(t.armAt(Time::us(5)), "past");
    }, "probe");
    eq.runAll();
}
