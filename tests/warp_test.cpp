/**
 * @file
 * Tests for the WarpCoordinator (DESIGN.md §14–15): it must actually
 * warp a steady sharded workload, the warped schedule must be the
 * exact sharded schedule (integer-derived measurements bit-equal
 * between --fluid=exact and --fluid=on), everything — digests, event
 * counts, fluid stats — must be invariant across shard counts, and
 * the legacy machine must warp through the same driver as a single
 * island whose schedule never carries a probe.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "check/determinism.hpp"
#include "core/testbed.hpp"
#include "core/warp_coordinator.hpp"
#include "obs/metric.hpp"
#include "sim/fluid.hpp"
#include "sim/log.hpp"
#include "sim/time.hpp"
#include "vmm/domain.hpp"

using namespace sriov;
using sim::FluidMode;
using sim::Time;

namespace {

struct QuietLogs
{
    QuietLogs() { sim::setLogLevel(sim::LogLevel::Quiet); }
};
QuietLogs quiet_logs;

struct WarpRun
{
    double goodput_bps = 0;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    std::uint64_t segments = 0;
    std::uint64_t elided = 0;
    Time warped;
};

/** A 2-port, 4-VM SR-IOV testbed driven for 3 simulated seconds. */
WarpRun
runSharded(unsigned shards, FluidMode mode)
{
    core::Testbed::Params p;
    p.num_ports = 2;
    p.itr = "adaptive";
    p.run.shards = shards;
    p.run.fluid = mode;
    core::Testbed tb(p);
    for (unsigned i = 0; i < 4; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, p.line_bps / 4);
    }
    auto m = tb.measure(Time::sec(1), Time::sec(3));
    WarpRun r;
    r.goodput_bps = m.total_goodput_bps;
    r.digest = tb.orderDigest();
    r.events = tb.executedEvents();
    if (const sim::FluidStats *fs = tb.fluidStats()) {
        r.segments = fs->segments;
        r.elided = fs->events_elided;
        r.warped = fs->warped;
    }
    return r;
}

} // namespace

TEST(WarpCoordinator, ShardedWarpMatchesExactScheduleByteForByte)
{
    WarpRun exact = runSharded(2, FluidMode::Exact);
    WarpRun on = runSharded(2, FluidMode::On);

    // Exact installs the per-island ledgers but no coordinator; On
    // must actually warp — and elide most of the run's events.
    EXPECT_EQ(exact.segments, 0u);
    ASSERT_GT(on.segments, 0u);
    EXPECT_GT(on.warped, Time::sec(1));
    EXPECT_GT(on.elided, on.events);

    // One shared schedule: goodput divides integer bytes by integer
    // picoseconds, so the doubles must be identical, not merely close.
    EXPECT_EQ(exact.goodput_bps, on.goodput_bps);
}

TEST(WarpCoordinator, EverythingInvariantAcrossShardCounts)
{
    WarpRun s1 = runSharded(1, FluidMode::On);
    WarpRun s2 = runSharded(2, FluidMode::On);
    WarpRun s4 = runSharded(4, FluidMode::On);
    ASSERT_GT(s1.segments, 0u);

    // The coordinator probes at quiescent barriers — no probe events —
    // so the executed sequences, their digests, and even the warp
    // decisions are pure functions of simulated time.
    EXPECT_EQ(s1.digest, s2.digest);
    EXPECT_EQ(s1.digest, s4.digest);
    EXPECT_EQ(s1.events, s2.events);
    EXPECT_EQ(s1.events, s4.events);
    EXPECT_EQ(s1.segments, s2.segments);
    EXPECT_EQ(s1.segments, s4.segments);
    EXPECT_EQ(s1.warped, s2.warped);
    EXPECT_EQ(s1.warped, s4.warped);
    EXPECT_EQ(s1.elided, s2.elided);
    EXPECT_EQ(s1.goodput_bps, s2.goodput_bps);
    EXPECT_EQ(s1.goodput_bps, s4.goodput_bps);
}

TEST(WarpCoordinator, WarpedShardedRunIsReproducible)
{
    auto result = check::DeterminismHarness::runTwice([](unsigned) {
        WarpRun r = runSharded(2, FluidMode::On);
        return check::RunDigest{r.digest, r.events};
    });
    EXPECT_TRUE(result.match()) << result.toString();
}

TEST(WarpCoordinator, ExactInstallsLedgersButNoCoordinator)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.shards = 2;
    p.run.fluid = FluidMode::Exact;
    core::Testbed tb(p);
    // Exact mode quantizes through the island ledgers (so On shares
    // its schedule) but never warps; there is nothing to coordinate.
    EXPECT_EQ(tb.warpCoordinator(), nullptr);
    EXPECT_EQ(tb.fluidStats(), nullptr);
}

TEST(WarpCoordinator, OffInstallsNothingSharded)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.shards = 2;
    core::Testbed tb(p);
    EXPECT_EQ(tb.warpCoordinator(), nullptr);
    EXPECT_EQ(tb.fluidStats(), nullptr);
}

TEST(WarpCoordinator, LegacyFluidRunsOneIsland)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.fluid = FluidMode::On;
    core::Testbed tb(p);
    // The legacy machine is the one-island case of the same driver.
    EXPECT_FALSE(tb.sharded());
    EXPECT_EQ(tb.shardEngine().islandCount(), 1u);
    EXPECT_NE(tb.warpCoordinator(), nullptr);
    EXPECT_NE(tb.fluidStats(), nullptr);
}

namespace {

/** Counts executed events whose tag starts with "fluid.". */
struct FluidTagCounter final : sim::EventQueue::ExecHook
{
    std::uint64_t events = 0;

    void
    onEventStart(Time, std::uint64_t, const char *tag) override
    {
        if (std::strncmp(tag, "fluid.", 6) == 0)
            ++events;
    }
    void onEventEnd(Time, std::uint64_t, const char *) override {}
};

} // namespace

TEST(WarpCoordinator, LegacyProbesNeverEnterTheSchedule)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.fluid = FluidMode::On;
    core::Testbed tb(p);
    FluidTagCounter counter;
    tb.eq().addExecHook(&counter);
    for (unsigned i = 0; i < 2; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, p.line_bps / 2);
    }
    tb.measure(Time::sec(1), Time::sec(3));
    tb.eq().removeExecHook(&counter);
    // Probes run at barriers between engine slices, never as events.
    ASSERT_NE(tb.fluidStats(), nullptr);
    EXPECT_GT(tb.fluidStats()->segments, 0u);
    EXPECT_EQ(counter.events, 0u);
}

namespace {

/**
 * Fig. 15's 30-VM case in miniature: one port, three HVM SR-IOV
 * guests, each sent 1472 B UDP at a third of line rate. Until the VF
 * driver's first 1 Hz ITR retune the interrupt window is the 50 us
 * start-up one, so the steady schedule repeats only every 115.35 ms.
 */
std::unique_ptr<core::Testbed>
buildMidRange(unsigned shards, FluidMode mode)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.opts = core::OptimizationSet::maskEoi();
    p.run.shards = shards;
    p.run.fluid = mode;
    auto tb = std::make_unique<core::Testbed>(p);
    for (unsigned i = 0; i < 3; ++i) {
        auto &g = tb->addGuest(vmm::DomainType::Hvm,
                               core::Testbed::NetMode::Sriov);
        tb->startUdpToGuest(g, p.line_bps / 3);
    }
    return tb;
}

/** Guest 0's received packets after an exact run to @p until. */
std::uint64_t
exactMidRangeRx(unsigned shards, Time until)
{
    auto tb = buildMidRange(shards, FluidMode::Exact);
    tb->run(until);
    return tb->guest(0).rx->rxPackets();
}

} // namespace

TEST(WarpCoordinator, LongHyperperiodWarpsBeforeTheFirstRetune)
{
    for (unsigned shards : {0u, 1u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const std::uint64_t exact_rx =
            exactMidRangeRx(shards, Time::ms(990));
        EXPECT_EQ(exact_rx, 26820u);

        auto tb = buildMidRange(shards, FluidMode::On);
        tb->run(Time::ms(990));
        // The run's own horizon bounds the probed period: certified
        // at about 0.23 s, the hyperperiod warps six whole periods
        // before the deadline.
        const sim::FluidStats &fs = *tb->fluidStats();
        EXPECT_GE(fs.segments, 1u);
        EXPECT_GE(fs.warped, Time::us(115350) * 6)
            << fs.warped.toString();
        EXPECT_EQ(tb->guest(0).rx->rxPackets(), exact_rx);
    }
}

TEST(WarpCoordinator, NoProbeStraddlesTheDriverRetune)
{
    for (unsigned shards : {0u, 1u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const std::uint64_t exact_rx =
            exactMidRangeRx(shards, Time::ms(2500));
        EXPECT_EQ(exact_rx, 67724u);

        auto tb = buildMidRange(shards, FluidMode::On);
        tb->run(Time::ms(2500));
        // The warp that lands short of the 1 s ITR sampler leaves it
        // as the horizon: no period is probed across it, where the
        // retune would reject the cycle.
        const sim::FluidStats &fs = *tb->fluidStats();
        EXPECT_GE(fs.segments, 2u);
        EXPECT_EQ(fs.rejected, 0u);
        EXPECT_EQ(tb->guest(0).rx->rxPackets(), exact_rx);
    }
}

TEST(WarpCoordinator, AWarpRestartsTheMultiplierScan)
{
    // Fig. 15's 40-VM case in miniature, observability included: four
    // guests on one port repeat every 153.8 ms before the 1 s ITR
    // retune. That probe is rejected on an f64 slot, its doubled
    // successor finds the retune too near to warp, and so the first
    // warp after the retune certifies at three times the new base
    // period.
    core::Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.opts = core::OptimizationSet::maskEoi();
    p.run.fluid = FluidMode::On;
    core::Testbed tb(p);
    for (unsigned i = 0; i < 4; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, p.line_bps / 4);
    }
    obs::MetricRegistry reg;
    tb.enableObs();
    tb.registerMetrics(reg);

    tb.run(Time::sec(2));
    const sim::FluidStats first = *tb.fluidStats();
    ASSERT_EQ(first.segments, 1u);
    EXPECT_EQ(first.rejected, 2u);
    const Time escalated =
        first.warped / std::int64_t(first.periods_warped);

    // After that warp the scan starts over at the base period.
    tb.run(Time::ms(1500));
    const sim::FluidStats &now = *tb.fluidStats();
    ASSERT_GT(now.segments, first.segments);
    EXPECT_EQ(now.rejected, first.rejected);
    const Time later =
        (now.warped - first.warped)
        / std::int64_t(now.periods_warped - first.periods_warped);
    EXPECT_EQ(escalated, later * 3)
        << escalated.toString() << " vs " << later.toString();
}

TEST(WarpCoordinator, ShiftSafeTagAllowlistIsExactAndClosed)
{
    using core::WarpCoordinator;
    // Tags whose pending events a warp may shift: closures capturing
    // only owner pointers/indices.
    for (const char *tag : {"cpu.done", "wire.burst", "netperf.emit",
                            "netperf.rto", "netperf.sample", "nic.itr",
                            "driver.itr_sample"})
        EXPECT_TRUE(WarpCoordinator::shiftSafeTag(tag)) << tag;
    // Everything else must reject the cycle — especially the
    // per-packet capture carriers.
    for (const char *tag :
         {"dma.done", "netback.batch", "wire.exact", "", "unknown"})
        EXPECT_FALSE(WarpCoordinator::shiftSafeTag(tag)) << tag;
}
