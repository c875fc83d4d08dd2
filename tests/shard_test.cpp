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

#include <cstdint>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "core/testbed.hpp"
#include "nic/wire.hpp"
#include "sim/event_queue.hpp"
#include "sim/log.hpp"
#include "sim/shard.hpp"
#include "sim/shard_engine.hpp"
#include "sim/thinning.hpp"

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

/** A small sharded Testbed workload; returns its order fingerprint. */
check::RunDigest
runTestbedWorkload(unsigned shards)
{
    sim::ShardScope scope(shards);
    core::Testbed::Params p;
    p.num_ports = 2;
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
    sim::ThinningScope exact(false);
    check::RunDigest s1 = runTestbedWorkload(1);
    check::RunDigest s2 = runTestbedWorkload(2);
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
        sim::ShardScope scope(shards);
        core::Testbed::Params p;
        p.num_ports = 1;
        core::Testbed tb(p);
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

namespace {

/** Parameters of a one-port testbed (the smallest partition). */
core::Testbed::Params
onePort()
{
    core::Testbed::Params p;
    p.num_ports = 1;
    return p;
}

} // namespace

TEST(ShardTestbedDeathTest, VmdqNicRefusesThePartition)
{
    EXPECT_EXIT(
        {
            sim::ShardScope scope(1);
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
            sim::ShardScope scope(0);
            core::Testbed::Params p = onePort();
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
            sim::ShardScope scope(1);
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
            sim::ShardScope scope(1);
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
            sim::ShardScope scope(1);
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
            sim::ShardScope scope(1);
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
            sim::ShardScope scope(1);
            core::Testbed tb(onePort());
            tb.eq();
        },
        ::testing::ExitedWithCode(1),
        "testbed: eq\\(\\) on a sharded testbed");
}
