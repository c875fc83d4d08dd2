/**
 * @file
 * Tests for the conservative parallel shard engine: the schedule must
 * depend only on simulated times (identical per-island event streams
 * for any worker count), idle islands must terminate via lookahead
 * creep, and the Testbed's sharded machine must produce byte-identical
 * digests at --shards=1/2/4 — the determinism contract of DESIGN.md
 * §13.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/determinism.hpp"
#include "core/testbed.hpp"
#include "nic/wire.hpp"
#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/log.hpp"
#include "sim/shard_engine.hpp"

using namespace sriov;

namespace {

struct QuietLogs
{
    QuietLogs() { sim::setLogLevel(sim::LogLevel::Quiet); }
};
QuietLogs quiet_logs;

const nic::Wire::Params kWire{10e9, sim::Time::us(5)};

nic::Packet
makePacket(std::uint16_t tag)
{
    nic::Packet pkt;
    pkt.dst = nic::MacAddr::make(9, 1);
    pkt.src = nic::MacAddr::make(9, tag);
    pkt.bytes = nic::frame::udpFrame(64);
    return pkt;
}

struct Bouncer final : nic::WireEndpoint
{
    nic::Wire *wire = nullptr;
    nic::Packet pong;

    void
    receive(const nic::Packet &) override
    {
        wire->send(*this, pong);
    }
};

struct PingResult
{
    std::uint64_t crossings = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
};

/** One frame ping-ponging across two islands for @p sim_t. */
PingResult
runPing(unsigned workers, sim::Time sim_t)
{
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(workers);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    nic::Wire wire(eq_a, eq_b, engine, ia, ib, kWire);
    Bouncer a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = makePacket(2);
    wire.connect(a, b);
    wire.send(a, a.pong);
    engine.runUntil(sim_t);
    return {wire.delivered(), engine.executedEvents(),
            engine.foldedDigest()};
}

} // namespace

TEST(ShardEngine, PingMatchesSingleQueueSchedule)
{
    // The sharded wire computes the same analytic delivery times as the
    // thin single-queue wire, so the crossing count must be identical.
    sim::EventQueue eq;
    nic::Wire wire(eq, kWire);
    Bouncer a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = makePacket(2);
    wire.connect(a, b);
    wire.send(a, a.pong);
    eq.runUntil(sim::Time::ms(20));

    PingResult sharded = runPing(1, sim::Time::ms(20));
    EXPECT_EQ(sharded.crossings, wire.delivered());
    EXPECT_GT(sharded.crossings, 1000u);
}

TEST(ShardEngine, ScheduleInvariantAcrossWorkerCounts)
{
    PingResult w1 = runPing(1, sim::Time::ms(20));
    PingResult w2 = runPing(2, sim::Time::ms(20));
    PingResult w4 = runPing(4, sim::Time::ms(20));
    EXPECT_EQ(w1.crossings, w2.crossings);
    EXPECT_EQ(w1.crossings, w4.crossings);
    EXPECT_EQ(w1.events, w2.events);
    EXPECT_EQ(w1.events, w4.events);
    EXPECT_EQ(w1.digest, w2.digest);
    EXPECT_EQ(w1.digest, w4.digest);
}

TEST(ShardEngine, IdleIslandsTerminateAndPinClocks)
{
    // No traffic at all: termination relies purely on lookahead creep
    // (promises walking to the deadline), and both clocks must land
    // exactly on it.
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(2);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    nic::Wire wire(eq_a, eq_b, engine, ia, ib, kWire);
    Bouncer a, b;
    wire.connect(a, b);
    const sim::Time deadline = sim::Time::ms(1);
    EXPECT_EQ(engine.runUntil(deadline), 0u);
    EXPECT_EQ(eq_a.now(), deadline);
    EXPECT_EQ(eq_b.now(), deadline);
    EXPECT_GE(engine.promiseOf(ia), deadline);
    EXPECT_GE(engine.promiseOf(ib), deadline);

    // A second window re-arms the promises and terminates again.
    EXPECT_EQ(engine.runUntil(sim::Time::ms(2)), 0u);
    EXPECT_EQ(eq_a.now(), sim::Time::ms(2));
}

namespace {

struct Recorder final : nic::WireEndpoint
{
    std::vector<std::uint16_t> *order = nullptr;

    void
    receive(const nic::Packet &pkt) override
    {
        order->push_back(std::uint16_t(pkt.src.value & 0xffff));
    }
};

struct Mute final : nic::WireEndpoint
{
    void receive(const nic::Packet &) override {}
};

/** Two sender islands firing simultaneous frames at one receiver:
 *  every delivery ties in simulated time, so the arrival order is
 *  pure tie-break policy. */
std::vector<std::uint16_t>
runTieFanIn(unsigned workers)
{
    sim::EventQueue eq_a, eq_b, eq_c;
    sim::ShardEngine engine(workers);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    unsigned ic = engine.addIsland(eq_c);
    nic::Wire wac(eq_a, eq_c, engine, ia, ic, kWire);
    nic::Wire wbc(eq_b, eq_c, engine, ib, ic, kWire);
    Mute a, b;
    Recorder ca, cb;
    std::vector<std::uint16_t> order;
    ca.order = cb.order = &order;
    wac.connect(a, ca);
    wbc.connect(b, cb);
    for (unsigned i = 0; i < 50; ++i) {
        eq_a.scheduleIn(sim::Time::us(10 * i), [&wac, &a]() {
            wac.send(a, makePacket(0xaa));
        });
        eq_b.scheduleIn(sim::Time::us(10 * i), [&wbc, &b]() {
            wbc.send(b, makePacket(0xbb));
        });
    }
    engine.runUntil(sim::Time::ms(2));
    return order;
}

} // namespace

TEST(ShardEngine, TieBreakDeterministicAcrossWorkerCounts)
{
    std::vector<std::uint16_t> w1 = runTieFanIn(1);
    std::vector<std::uint16_t> w2 = runTieFanIn(2);
    std::vector<std::uint16_t> w3 = runTieFanIn(3);
    ASSERT_EQ(w1.size(), 100u);
    EXPECT_EQ(w1, w2);
    EXPECT_EQ(w1, w3);
    // Identical due times resolve by edge registration order: the a->c
    // edge was connected first, so each simultaneous pair arrives
    // a-then-b.
    EXPECT_EQ(w1[0], 0xaau);
    EXPECT_EQ(w1[1], 0xbbu);
}

namespace {

/** Which threads ran island @p i's local events: each island writes
 *  only its own list, so a wrong placement cannot race here. */
struct ThreadLog
{
    std::vector<std::vector<std::thread::id>> by_island;

    void
    tick(sim::EventQueue &eq, unsigned island)
    {
        for (unsigned k = 0; k < 20; ++k)
            eq.scheduleIn(sim::Time::us(7 * k), [this, island]() {
                by_island[island].push_back(std::this_thread::get_id());
            });
    }
};

} // namespace

TEST(ShardEngine, TwoIslandComponentStaysOnTheCallingThread)
{
    // A server slice and its client exchange promises every lookahead
    // round: at any worker count the pair runs on one thread, the
    // calling one, like --shards=1.
    for (unsigned workers : {2u, 4u}) {
        SCOPED_TRACE(workers);
        sim::EventQueue eq_a, eq_b;
        sim::ShardEngine engine(workers);
        unsigned ia = engine.addIsland(eq_a);
        unsigned ib = engine.addIsland(eq_b);
        nic::Wire wire(eq_a, eq_b, engine, ia, ib, kWire);
        Bouncer a, b;
        a.wire = b.wire = &wire;
        a.pong = b.pong = makePacket(2);
        wire.connect(a, b);
        wire.send(a, a.pong);
        ThreadLog log;
        log.by_island.resize(2);
        log.tick(eq_a, ia);
        log.tick(eq_b, ib);
        engine.runUntil(sim::Time::ms(1));
        for (const auto &ids : log.by_island) {
            ASSERT_EQ(ids.size(), 20u);
            for (std::thread::id id : ids)
                EXPECT_EQ(id, std::this_thread::get_id());
        }
    }
}

TEST(ShardEngine, HubComponentIsDealtIslandByIsland)
{
    // Two senders feeding one receiver: the receiver is a hub, so with
    // a worker per island each island runs on a thread of its own.
    sim::EventQueue eq_a, eq_b, eq_c;
    sim::ShardEngine engine(3);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    unsigned ic = engine.addIsland(eq_c);
    nic::Wire wac(eq_a, eq_c, engine, ia, ic, kWire);
    nic::Wire wbc(eq_b, eq_c, engine, ib, ic, kWire);
    Mute a, b, ca, cb;
    wac.connect(a, ca);
    wbc.connect(b, cb);
    ThreadLog log;
    log.by_island.resize(3);
    log.tick(eq_a, ia);
    log.tick(eq_b, ib);
    log.tick(eq_c, ic);
    engine.runUntil(sim::Time::ms(1));
    std::vector<std::thread::id> first;
    for (const auto &ids : log.by_island) {
        ASSERT_EQ(ids.size(), 20u);
        for (std::thread::id id : ids)
            EXPECT_EQ(id, ids.front());
        EXPECT_NE(ids.front(), std::this_thread::get_id());
        first.push_back(ids.front());
    }
    EXPECT_NE(first[0], first[1]);
    EXPECT_NE(first[0], first[2]);
    EXPECT_NE(first[1], first[2]);
}

TEST(ShardEngine, ObserverForcesSequential)
{
    struct NullObserver final : sim::EventQueue::Observer
    {
        void onSchedulePast(sim::Time, sim::Time) override {}
        void onExecute(sim::Time, sim::Time, std::uint64_t,
                       const char *) override
        {
        }
    };
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(4);
    engine.addIsland(eq_a);
    engine.addIsland(eq_b);
    EXPECT_FALSE(engine.forcesSequential());
    NullObserver obs;
    eq_a.setObserver(&obs);
    EXPECT_TRUE(engine.forcesSequential());
    eq_a.setObserver(nullptr);
    EXPECT_FALSE(engine.forcesSequential());
}

namespace {

struct Stamper final : nic::WireEndpoint
{
    const sim::EventQueue *eq = nullptr;
    std::vector<std::int64_t> at;

    void
    receive(const nic::Packet &) override
    {
        at.push_back(eq->now().picos());
    }
};

struct OverflowRun
{
    std::vector<std::int64_t> at;
    std::uint64_t dropped = 0;
};

/** Overflow the TX queue at t = 0, then offer one frame per µs while
 *  the backlog drains. @p sharded puts the receiver on its own island,
 *  so thousands of frames sit in the channel at once. */
OverflowRun
runOverflow(bool sharded)
{
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(1);
    std::unique_ptr<nic::Wire> wire;
    if (sharded) {
        unsigned ia = engine.addIsland(eq_a);
        unsigned ib = engine.addIsland(eq_b);
        wire = std::make_unique<nic::Wire>(eq_a, eq_b, engine, ia, ib,
                                           kWire);
    } else {
        wire = std::make_unique<nic::Wire>(eq_a, kWire);
    }
    Mute a;
    Stamper b;
    b.eq = sharded ? &eq_b : &eq_a;
    wire->connect(a, b);
    for (std::size_t i = 0; i < nic::Wire::kTxQueueCap + 50; ++i)
        wire->send(a, makePacket(1));
    for (unsigned k = 1; k <= 20; ++k) {
        eq_a.scheduleAt(sim::Time::us(k), [&wire, &a]() {
            wire->send(a, makePacket(1));
        });
    }
    if (sharded)
        engine.runUntil(sim::Time::ms(5));
    else
        eq_a.runUntil(sim::Time::ms(5));
    EXPECT_EQ(wire->inFlight(), 0u);
    return {b.at, wire->dropped()};
}

} // namespace

TEST(ShardEngine, OverflowBurstMatchesTheSingleIslandWire)
{
    // Both thin forms admit through one TX drop bound, so the sharded
    // wire drops the same frames and delivers the rest at the same
    // instants; only the delivery vehicle differs.
    OverflowRun one = runOverflow(false);
    OverflowRun two = runOverflow(true);
    EXPECT_GT(one.dropped, 0u);
    EXPECT_EQ(one.dropped, two.dropped);
    ASSERT_EQ(one.at.size(), nic::Wire::kTxQueueCap + 70 - one.dropped);
    EXPECT_EQ(one.at, two.at);
}

// ---------------------------------------------------------------------
// ShardChannel on its own: FIFO order, barrier-time access to recycled
// storage, bursts that never wait, storage bounded by occupancy, and a
// real two-thread producer/consumer run.
// ---------------------------------------------------------------------

namespace {

struct Msg
{
    std::uint64_t seq = 0;
};

// simlint:allow(shard-channel): tests the channel itself, no island edge
using Chan = sim::ShardChannel<Msg>;

/** Records what a channel delivers, in order. */
struct Drain
{
    std::vector<std::int64_t> dues;
    std::vector<std::uint64_t> seqs;

    static void
    sink(void *ctx, sim::Time due, const Msg &m)
    {
        auto *d = static_cast<Drain *>(ctx);
        d->dues.push_back(due.picos());
        d->seqs.push_back(m.seq);
    }
};

/** Deliver every visible message; returns how many. */
std::size_t
drainAll(Chan &ch)
{
    std::size_t n = 0;
    for (; ch.headDue() != sim::Time::max(); ++n)
        ch.deliverHead();
    return n;
}

std::vector<std::uint64_t>
iota(std::uint64_t first, std::uint64_t n)
{
    std::vector<std::uint64_t> v(n);
    for (std::uint64_t i = 0; i < n; ++i)
        v[i] = first + i;
    return v;
}

/** The channel half of Wire::fluidVisit: occupancy is an invariant,
 *  each pending due a time slot. */
void
visitChannel(sim::FluidVisitor &v, Chan &ch)
{
    const std::size_t n = ch.pendingCount();
    v.inv("chan", n);
    for (std::size_t i = 0; i < n; ++i)
        v.i64("chan_due", ch.pendingEntry(i).due_ps);
}

} // namespace

TEST(ShardChannelSpsc, DeliversInFifoOrderWithANonDecreasingHead)
{
    Chan ch;
    Drain d;
    ch.onDeliver(&Drain::sink, &d);
    EXPECT_EQ(ch.headDue(), sim::Time::max());
    // Ties included: a FIFO server can finish two frames at one instant.
    const std::int64_t dues[] = {5, 7, 7, 12, 30, 30, 31, 40};
    std::uint64_t pushed = 0;
    auto push = [&ch, &dues, &pushed]() {
        ch.push(sim::Time::ps(dues[pushed]), Msg{pushed});
        ++pushed;
    };
    // Pushes interleave with deliveries, as they do across islands.
    push();
    push();
    push();
    sim::Time last = sim::Time();
    while (ch.headDue() != sim::Time::max()) {
        const sim::Time head = ch.headDue();
        EXPECT_GE(head, last);
        last = head;
        ch.deliverHead();
        if (pushed < 8)
            push();
    }
    EXPECT_EQ(d.seqs, iota(0, 8));
    EXPECT_EQ(d.dues, std::vector<std::int64_t>(dues, dues + 8));
}

TEST(ShardChannelSpsc, PendingEntriesAfterRecyclingTakeTheWarpShift)
{
    Chan ch;
    Drain d;
    ch.onDeliver(&Drain::sink, &d);
    // Cycle the storage at depth 3 so every later push reuses a node
    // the consumer has passed.
    std::uint64_t seq = 0;
    for (int round = 0; round < 100; ++round) {
        for (int k = 0; k < 3; ++k)
            ch.push(sim::Time::ps(round), Msg{seq++});
        drainAll(ch);
    }
    const std::size_t nodes = ch.nodes();
    EXPECT_EQ(nodes, 4u);    // three in flight plus the dummy

    // A periodic population captured one period apart, as the warp
    // probe does at two barriers.
    constexpr std::int64_t kBase = 10'000, kPeriod = 1'000;
    const std::uint64_t first = seq;
    auto fill = [&ch, &seq](std::int64_t t0) {
        for (std::int64_t k = 0; k < 3; ++k)
            ch.push(sim::Time::ps(t0 + 100 * k), Msg{seq++});
    };
    fill(kBase);
    ASSERT_EQ(ch.pendingCount(), 3u);
    EXPECT_EQ(ch.pendingEntry(2).due_ps, kBase + 200);
    EXPECT_EQ(ch.pendingEntry(2).payload.seq, first + 2);
    sim::FluidVisitor older(sim::FluidVisitor::Pass::Capture);
    visitChannel(older, ch);
    drainAll(ch);
    fill(kBase + kPeriod);
    sim::FluidVisitor newer(sim::FluidVisitor::Pass::Capture);
    visitChannel(newer, ch);
    std::string why;
    ASSERT_TRUE(newer.verifyAgainst(older, nullptr, &why)) << why;
    EXPECT_EQ(ch.nodes(), nodes);

    // Warp five periods: the apply walk shifts every pending due in
    // place through pendingEntry(), and delivery sees the shift.
    sim::FluidVisitor apply(sim::FluidVisitor::Pass::Apply);
    apply.armApply(older, newer, 5);
    visitChannel(apply, ch);
    EXPECT_EQ(ch.headDue(), sim::Time::ps(kBase + 6 * kPeriod));
    d = Drain();
    EXPECT_EQ(drainAll(ch), 3u);
    const std::int64_t t = kBase + 6 * kPeriod;
    EXPECT_EQ(d.dues, (std::vector<std::int64_t>{t, t + 100, t + 200}));
    EXPECT_EQ(d.seqs, iota(first + 3, 3));
}

TEST(ShardChannelSpsc, UndeliveredBurstNeverWaitsAndKeepsOrder)
{
    // No consumer runs during the burst. At --shards=1 the consumer is
    // the producer's own thread, so a push that waited for room would
    // never return.
    constexpr std::uint64_t kBurst = 5'000;
    Chan ch;
    Drain d;
    ch.onDeliver(&Drain::sink, &d);
    for (std::uint64_t i = 0; i < kBurst; ++i)
        ch.push(sim::Time::ps(std::int64_t(i / 4)), Msg{i});
    EXPECT_EQ(ch.pendingCount(), kBurst);
    EXPECT_EQ(ch.pendingEntry(kBurst - 1).payload.seq, kBurst - 1);
    EXPECT_EQ(ch.nodes(), kBurst + 1);
    EXPECT_EQ(drainAll(ch), kBurst);
    EXPECT_EQ(d.seqs, iota(0, kBurst));
    for (std::uint64_t i = 0; i < kBurst; ++i)
        ASSERT_EQ(d.dues[i], std::int64_t(i / 4)) << "message " << i;
    // A second burst of the same size reuses the first one's storage.
    for (std::uint64_t i = 0; i < kBurst; ++i)
        ch.push(sim::Time::ps(std::int64_t(kBurst)), Msg{kBurst + i});
    EXPECT_EQ(drainAll(ch), kBurst);
    EXPECT_EQ(ch.nodes(), kBurst + 1);
}

TEST(ShardChannelSpsc, StorageStaysBoundedAtLowDepth)
{
    struct Count
    {
        std::uint64_t next = 0;
        bool in_order = true;

        static void
        sink(void *ctx, sim::Time, const Msg &m)
        {
            auto *c = static_cast<Count *>(ctx);
            c->in_order = c->in_order && m.seq == c->next;
            ++c->next;
        }
    } c;
    Chan ch;
    ch.onDeliver(&Count::sink, &c);
    constexpr std::uint64_t kCycles = 1'000'000;
    std::size_t depth = 0;
    for (std::uint64_t i = 0; i < kCycles; ++i) {
        ch.push(sim::Time::ps(std::int64_t(i)), Msg{i});
        ++depth;
        // Depth walks 1, 2, 3 and back to 0.
        for (; depth > i % 3; --depth)
            ch.deliverHead();
    }
    EXPECT_EQ(c.next, kCycles);
    EXPECT_TRUE(c.in_order);
    EXPECT_EQ(ch.nodes(), 4u);
}

TEST(ShardChannelSpsc, TwoThreadsKeepOrderAndDues)
{
    constexpr std::uint64_t kMsgs = 1'000'000;
    struct Check
    {
        std::uint64_t next = 0;
        std::int64_t last_due = 0;
        bool ok = true;
        std::atomic<std::uint64_t> delivered{0};

        static void
        sink(void *ctx, sim::Time due, const Msg &m)
        {
            auto *c = static_cast<Check *>(ctx);
            c->ok = c->ok && m.seq == c->next
                && due.picos() == std::int64_t(m.seq / 3)
                && due.picos() >= c->last_due;
            c->last_due = due.picos();
            c->delivered.store(++c->next, std::memory_order_release);
        }
    } c;
    Chan ch;
    ch.onDeliver(&Check::sink, &c);
    std::thread producer([&ch, &c]() {
        for (std::uint64_t i = 0; i < kMsgs; ++i) {
            // Test-side pacing only, to keep the queue's memory small;
            // push() itself never waits.
            while (i - c.delivered.load(std::memory_order_acquire) >= 4096)
                std::this_thread::yield();
            ch.push(sim::Time::ps(std::int64_t(i / 3)), Msg{i});
        }
    });
    while (c.next < kMsgs) {
        if (ch.headDue() != sim::Time::max())
            ch.deliverHead();
        else
            std::this_thread::yield();
    }
    producer.join();
    EXPECT_TRUE(c.ok);
    EXPECT_EQ(ch.headDue(), sim::Time::max());
    // The pacing window, the node whose delivery is still running
    // when the sink counts it, and the dummy.
    EXPECT_LE(ch.nodes(), 4096u + 2);
}

namespace {

/** Parameters of a one-port testbed at @p shards (the smallest
 *  partition at the default 1). */
core::Testbed::Params
onePort(unsigned shards = 1)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.shards = shards;
    return p;
}

/** A small sharded Testbed workload; returns its order fingerprint. */
check::RunDigest
runTestbedWorkload(unsigned shards, bool thin = true)
{
    core::Testbed::Params p;
    p.num_ports = 2;
    p.run.shards = shards;
    p.run.thin = thin;
    core::Testbed tb(p);
    for (unsigned i = 0; i < 4; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 200e6);
    }
    tb.run(sim::Time::ms(50));
    return check::RunDigest{tb.orderDigest(), tb.executedEvents()};
}

} // namespace

TEST(ShardTestbed, DigestIdenticalAcrossShardCounts)
{
    check::RunDigest s1 = runTestbedWorkload(1);
    check::RunDigest s2 = runTestbedWorkload(2);
    check::RunDigest s4 = runTestbedWorkload(4);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
    EXPECT_GT(s1.events, 10000u);
}

TEST(ShardTestbed, DigestIdenticalAcrossShardCountsUnthinned)
{
    // The shards x thin corner of the determinism matrix: exact
    // per-hop simulation sharded two ways. Thinning changes the event
    // population, so the digests here differ from the thinned test
    // above — the contract is only that both sharded runs agree with
    // the sequential run of the *same* mode.
    check::RunDigest s1 = runTestbedWorkload(1, false);
    check::RunDigest s2 = runTestbedWorkload(2, false);
    EXPECT_EQ(s1, s2);
    EXPECT_GT(s1.events, 10000u);
}

TEST(ShardTestbed, RunTwiceAuditPerShardCount)
{
    for (unsigned shards : {1u, 2u}) {
        auto result = check::DeterminismHarness::runTwice(
            [shards](unsigned) { return runTestbedWorkload(shards); });
        EXPECT_TRUE(result.match())
            << "shards=" << shards << ": " << result.toString();
    }
}

TEST(ShardTestbed, ShardedMeasurementsMatchAcrossShardCounts)
{
    // Beyond the schedule: the paper-facing numbers (throughput, CPU
    // attribution) must be bit-equal across shard counts.
    auto measure = [](unsigned shards) {
        core::Testbed tb(onePort(shards));
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 500e6);
        return tb.measure(sim::Time::ms(20), sim::Time::ms(50));
    };
    core::Testbed::Measurement m1 = measure(1);
    core::Testbed::Measurement m4 = measure(4);
    EXPECT_EQ(m1.total_goodput_bps, m4.total_goodput_bps);
    EXPECT_EQ(m1.cpu_by_tag, m4.cpu_by_tag);
}

// The builder refuses every topology the island partition cannot hold.
// Each refusal exits through sim::fatal with a message that names the
// way out, so these pin the message as well as the exit.

TEST(ShardTestbedDeathTest, VmdqNicRefusesThePartition)
{
    EXPECT_EXIT(
        {
            core::Testbed::Params p = onePort();
            p.use_vmdq_nic = true;
            core::Testbed tb(p);
        },
        ::testing::ExitedWithCode(1),
        "sharded testbed: the VMDq topology has no island partition");
}

TEST(ShardTestbedDeathTest, MultiHostNeedsThePartition)
{
    EXPECT_EXIT(
        {
            core::Testbed::Params p = onePort(0);
            p.num_hosts = 2;
            core::Testbed tb(p);
        },
        ::testing::ExitedWithCode(1),
        "multi-host testbed: the ToR relay is an island");
}

TEST(ShardTestbedDeathTest, PvGuestIsRefused)
{
    EXPECT_EXIT(
        {
            core::Testbed tb(onePort());
            tb.addGuest(vmm::DomainType::Pvm, core::Testbed::NetMode::Pv);
        },
        ::testing::ExitedWithCode(1),
        "sharded testbed: only plain SR-IOV guests are shardable");
}

TEST(ShardTestbedDeathTest, BondedGuestIsRefused)
{
    EXPECT_EXIT(
        {
            core::Testbed tb(onePort());
            tb.addGuest(vmm::DomainType::Hvm, core::Testbed::NetMode::Sriov,
                        guest::KernelVersion::v2_6_28, true);
        },
        ::testing::ExitedWithCode(1),
        "sharded testbed: only plain SR-IOV guests are shardable");
}

TEST(ShardTestbedDeathTest, Dom0TrafficIsRefused)
{
    EXPECT_EXIT(
        {
            core::Testbed tb(onePort());
            tb.dom0Net(0);
        },
        ::testing::ExitedWithCode(1),
        "sharded testbed: dom0 traffic stays inside a slice");
}

TEST(ShardTestbedDeathTest, GuestToGuestIsRefused)
{
    EXPECT_EXIT(
        {
            core::Testbed tb(onePort());
            auto &a = tb.addGuest(vmm::DomainType::Hvm,
                                  core::Testbed::NetMode::Sriov);
            auto &b = tb.addGuest(vmm::DomainType::Hvm,
                                  core::Testbed::NetMode::Sriov);
            tb.startUdpGuestToGuest(a, b, 100e6);
        },
        ::testing::ExitedWithCode(1),
        "sharded testbed: guest-to-guest traffic is not shardable");
}

TEST(ShardTestbedDeathTest, SingleQueueAccessIsRefused)
{
    EXPECT_EXIT(
        {
            core::Testbed tb(onePort());
            tb.eq();
        },
        ::testing::ExitedWithCode(1),
        "testbed: eq\\(\\) on a sharded testbed");
}
