// Tests for fluid (flow-level) simulation mode: the FlowLedger's
// steadiness hysteresis and period arithmetic, the FluidVisitor
// capture/verify/apply protocol, and the equivalence contract on a
// live testbed (--fluid=exact vs --fluid=on share one schedule, so
// integer-derived measurements must agree exactly).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "core/testbed.hpp"
#include "sim/fluid.hpp"
#include "sim/time.hpp"
#include "vmm/domain.hpp"

using namespace sriov;
using sim::FlowLedger;
using sim::FluidMode;
using sim::FluidTransition;
using sim::Time;

namespace {

/** Feed @p n sends on an exact @p gap grid starting after @p from. */
Time
sendGrid(FlowLedger &l, unsigned flow, Time from, Time gap, unsigned n)
{
    Time t = from;
    for (unsigned i = 0; i < n; ++i) {
        t = t + gap;
        l.onSend(flow, t);
    }
    return t;
}

} // namespace

// ---------------------------------------------------------------------
// FlowLedger: steadiness hysteresis
// ---------------------------------------------------------------------

TEST(FlowLedger, SteadyAfterExactlyKSteadyGapsEqualGaps)
{
    FlowLedger l;
    unsigned f = l.addFlow("udp-0");
    Time g = Time::us(10);
    // First send records the origin; the second establishes the gap
    // (equal_gaps stays 0); each further equal gap counts.
    Time t = sendGrid(l, f, Time(), g, 2);
    for (unsigned k = 0; k < FlowLedger::kSteadyGaps - 1; ++k) {
        t = sendGrid(l, f, t, g, 1);
        EXPECT_FALSE(l.flowSteady(f)) << "after " << k + 2 << " gaps";
    }
    sendGrid(l, f, t, g, 1);
    EXPECT_TRUE(l.flowSteady(f));
    EXPECT_TRUE(l.allSteady());
    EXPECT_EQ(l.flowGap(f), g);
}

TEST(FlowLedger, JitteredGapRestartsTheCount)
{
    FlowLedger l;
    unsigned f = l.addFlow("udp-0");
    Time g = Time::us(10);
    Time t = sendGrid(l, f, Time(), g, FlowLedger::kSteadyGaps);
    // One late packet: the gap changes, steadiness restarts from zero.
    t = t + g + Time::ns(1);
    l.onSend(f, t);
    t = sendGrid(l, f, t, g, 1);    // new gap differs again (g vs g+1ns)
    EXPECT_FALSE(l.flowSteady(f));
    t = sendGrid(l, f, t, g, FlowLedger::kSteadyGaps);
    EXPECT_TRUE(l.flowSteady(f));
}

TEST(FlowLedger, TransitionImposesTheReentryHold)
{
    FlowLedger l;
    unsigned f = l.addFlow("udp-0");
    Time g = Time::us(10);
    Time t = sendGrid(l, f, Time(), g, 2 + FlowLedger::kSteadyGaps);
    ASSERT_TRUE(l.flowSteady(f));

    l.transition(f, FluidTransition::Drop);
    EXPECT_FALSE(l.flowSteady(f));
    EXPECT_FALSE(l.allSteady());
    EXPECT_EQ(l.transitions(FluidTransition::Drop), 1u);

    // Re-entry costs kHoldGaps (draining the hold) plus kSteadyGaps
    // (rebuilding the equal-gap count) — one gap short must not do.
    unsigned need = FlowLedger::kHoldGaps + FlowLedger::kSteadyGaps;
    t = sendGrid(l, f, t, g, need - 1);
    EXPECT_FALSE(l.flowSteady(f));
    sendGrid(l, f, t, g, 1);
    EXPECT_TRUE(l.flowSteady(f));
}

TEST(FlowLedger, EveryTransitionKindUnsteadiesAllFlows)
{
    for (unsigned k = 0; k < unsigned(FluidTransition::Count); ++k) {
        FlowLedger l;
        unsigned a = l.addFlow("a");
        unsigned b = l.addFlow("b");
        sendGrid(l, a, Time(), Time::us(5),
                 2 + FlowLedger::kSteadyGaps);
        sendGrid(l, b, Time(), Time::us(5),
                 2 + FlowLedger::kSteadyGaps);
        ASSERT_TRUE(l.allSteady());
        l.transitionAll(FluidTransition(k));
        EXPECT_FALSE(l.flowSteady(a)) << sim::fluidTransitionName(
            FluidTransition(k));
        EXPECT_FALSE(l.flowSteady(b));
        EXPECT_EQ(l.transitions(FluidTransition(k)), 1u);
        EXPECT_EQ(l.totalTransitions(), 1u);
    }
}

TEST(FlowLedger, ShardEdgeIsATransitionLikeAnyOther)
{
    // Fluid segments are per-island: a frame crossing a shard boundary
    // must break steadiness exactly like a drop does (the ledger does
    // not special-case it — this pins that).
    FlowLedger l;
    unsigned f = l.addFlow("cross");
    Time t = sendGrid(l, f, Time(), Time::us(3),
                      2 + FlowLedger::kSteadyGaps);
    ASSERT_TRUE(l.flowSteady(f));
    // simlint:allow(shard-channel): names the transition enum, no send
    l.transition(f, FluidTransition::ShardEdge);
    EXPECT_FALSE(l.flowSteady(f));
    // simlint:allow(shard-channel): names the transition enum, no send
    EXPECT_EQ(l.transitions(FluidTransition::ShardEdge), 1u);
    sendGrid(l, f, t, Time::us(3),
             FlowLedger::kHoldGaps + FlowLedger::kSteadyGaps);
    EXPECT_TRUE(l.flowSteady(f));
}

TEST(FlowLedger, EndedFlowsAreExcludedFromAllSteady)
{
    FlowLedger l;
    unsigned live = l.addFlow("live");
    unsigned dead = l.addFlow("dead");
    sendGrid(l, live, Time(), Time::us(7), 2 + FlowLedger::kSteadyGaps);
    sendGrid(l, dead, Time(), Time::us(7), 3);    // never steady
    EXPECT_FALSE(l.allSteady());
    l.endFlow(dead);
    EXPECT_TRUE(l.allSteady());
    // No live flows at all is NOT steady — nothing to certify.
    l.endFlow(live);
    EXPECT_FALSE(l.allSteady());
}

// ---------------------------------------------------------------------
// FlowLedger: period arithmetic
// ---------------------------------------------------------------------

TEST(FlowLedger, CommonPeriodIsTheLcmOfSteadyGaps)
{
    struct Case
    {
        Time gap_a, gap_b, cap, want;
    };
    const Case cases[] = {
        {Time::us(2), Time::us(3), Time::ms(10), Time::us(6)},
        // A cap below the LCM means no usable hyperperiod.
        {Time::us(2), Time::us(3), Time::us(5), Time()},
        // Coprime gaps whose LCM, 18446744076000000000 ps, overflows
        // int64: over every cap, never wrapped back under it (the
        // wrapped product reads 2.290448384 ms, which neither divides).
        {Time::ms(4), Time::ps(4611686019), Time::ms(10), Time()},
        {Time::ms(4), Time::ps(4611686019), Time::sec(10), Time()},
    };
    for (const Case &c : cases) {
        FlowLedger l;
        unsigned a = l.addFlow("a");
        unsigned b = l.addFlow("b");
        sendGrid(l, a, Time(), c.gap_a, 2 + FlowLedger::kSteadyGaps);
        sendGrid(l, b, Time(), c.gap_b, 2 + FlowLedger::kSteadyGaps);
        EXPECT_EQ(l.commonPeriod(c.cap), c.want)
            << c.gap_a.toString() << " / " << c.gap_b.toString()
            << " under " << c.cap.toString();
    }
}

TEST(FlowLedger, CommonPeriodRequiresEveryLiveFlowSteady)
{
    FlowLedger l;
    unsigned a = l.addFlow("a");
    l.addFlow("b");    // registered, never sends
    sendGrid(l, a, Time(), Time::us(2), 2 + FlowLedger::kSteadyGaps);
    EXPECT_EQ(l.commonPeriod(Time::ms(10)), Time());
}

TEST(FlowLedger, SourcePeriodIgnoresDerivedFlowsAndHolds)
{
    FlowLedger l;
    unsigned src = l.addFlow("udp", sim::FlowKind::Source);
    unsigned drv = l.addFlow("nic.raise", sim::FlowKind::Derived);
    sendGrid(l, src, Time(), Time::us(4), 2 + FlowLedger::kSteadyGaps);
    // The derived flow's incommensurate gap must not pollute the
    // source grid devices quantize onto.
    sendGrid(l, drv, Time(), Time::ns(777), 2 + FlowLedger::kSteadyGaps);
    EXPECT_EQ(l.sourcePeriod(), Time::us(4));

    // The hint survives a hysteresis hold: a transition burst (every
    // pool retuning its ITR on the same sample edge) must not blind
    // the pools that retune after the first one. Correctness rests on
    // the probe certificate, not on this hint.
    l.transition(src, FluidTransition::ItrChange);
    EXPECT_FALSE(l.flowSteady(src));
    EXPECT_EQ(l.sourcePeriod(), Time::us(4));
}

TEST(FlowLedger, GridSendsUntilMatchesBruteForceReplay)
{
    // Closed form vs the event-per-send loop it replaces.
    struct Case
    {
        std::int64_t last_ps, gap_ps, until_ps;
    };
    const Case cases[] = {
        {0, 10, 100},      {0, 10, 99},        {0, 10, 101},
        {5, 7, 5},         {5, 7, 6},          {5, 7, 12},
        {1000, 333, 9999}, {42, 1, 43},        {0, 24608000, 2000000000},
    };
    for (const Case &c : cases) {
        Time last = Time::ps(c.last_ps);
        Time gap = Time::ps(c.gap_ps);
        Time until = Time::ps(c.until_ps);
        std::uint64_t brute = 0;
        for (Time t = last + gap; t <= until; t = t + gap)
            ++brute;
        EXPECT_EQ(FlowLedger::gridSendsUntil(last, gap, until), brute)
            << "last=" << c.last_ps << " gap=" << c.gap_ps
            << " until=" << c.until_ps;
    }
    EXPECT_EQ(FlowLedger::gridSendsUntil(Time(), Time(), Time::us(1)),
              0u);
}

TEST(FlowLedger, WarpShiftsTheGridWithoutBreakingSteadiness)
{
    FlowLedger l;
    unsigned f = l.addFlow("udp-0");
    Time g = Time::us(10);
    Time t = sendGrid(l, f, Time(), g, 2 + FlowLedger::kSteadyGaps);
    ASSERT_TRUE(l.flowSteady(f));

    // A warp jumps the clock by n periods; the ledger shifts its
    // last-send instants so the next real send still measures g, not
    // a warp-length outlier that would restart the hysteresis.
    Time warp = Time::ms(50);
    l.warpBy(warp);
    l.onSend(f, t + warp + g);
    EXPECT_TRUE(l.flowSteady(f));
    EXPECT_EQ(l.flowGap(f), g);
}

// ---------------------------------------------------------------------
// FluidVisitor: capture / verify / apply
// ---------------------------------------------------------------------

namespace {

struct ToyState
{
    std::uint64_t packets = 0;
    std::int64_t credit = 0;
    double cycles = 0;
    Time deadline;
    std::uint64_t ring_size = 64;

    void
    visit(sim::FluidVisitor &v)
    {
        v.u64("packets", packets);
        v.i64("credit", credit);
        v.f64("cycles", cycles);
        v.time("deadline", deadline);
        v.inv("ring_size", ring_size);
    }

    void
    stepOnePeriod()
    {
        packets += 100;
        credit -= 3;
        cycles += 0.5;
        deadline = deadline + Time::us(2);
    }
};

} // namespace

TEST(FluidVisitor, ConstantDeltasVerify)
{
    ToyState s;
    using V = sim::FluidVisitor;
    V c0(V::Pass::Capture);
    s.visit(c0);
    s.stepOnePeriod();
    V c1(V::Pass::Capture);
    s.visit(c1);
    s.stepOnePeriod();
    V c2(V::Pass::Capture);
    s.visit(c2);

    std::string why;
    EXPECT_TRUE(c2.verifyAgainst(c1, &c0, &why)) << why;
    EXPECT_EQ(c2.slots(), 5u);
}

TEST(FluidVisitor, NonConstantDeltaIsRejectedByName)
{
    ToyState s;
    using V = sim::FluidVisitor;
    V c0(V::Pass::Capture);
    s.visit(c0);
    s.stepOnePeriod();
    V c1(V::Pass::Capture);
    s.visit(c1);
    s.stepOnePeriod();
    s.packets += 1;    // burst: second delta 101 vs first 100
    V c2(V::Pass::Capture);
    s.visit(c2);

    std::string why;
    EXPECT_FALSE(c2.verifyAgainst(c1, &c0, &why));
    EXPECT_NE(why.find("packets"), std::string::npos) << why;
}

TEST(FluidVisitor, InvariantSlotMustNotMove)
{
    ToyState s;
    using V = sim::FluidVisitor;
    V c0(V::Pass::Capture);
    s.visit(c0);
    s.stepOnePeriod();
    V c1(V::Pass::Capture);
    s.visit(c1);
    s.stepOnePeriod();
    s.ring_size = 128;    // ring resize mid-probe
    V c2(V::Pass::Capture);
    s.visit(c2);

    std::string why;
    EXPECT_FALSE(c2.verifyAgainst(c1, &c0, &why));
    EXPECT_NE(why.find("ring_size"), std::string::npos) << why;
}

TEST(FluidVisitor, ApplyWritesNPeriodsInClosedForm)
{
    ToyState s;
    using V = sim::FluidVisitor;
    V c0(V::Pass::Capture);
    s.visit(c0);
    s.stepOnePeriod();
    V c1(V::Pass::Capture);
    s.visit(c1);

    // Brute-force replay of 1000 more periods on a copy...
    ToyState replay = s;
    for (int i = 0; i < 1000; ++i)
        replay.stepOnePeriod();

    // ...must equal one closed-form apply on the original.
    V apply(V::Pass::Apply);
    apply.armApply(c0, c1, 1000);
    s.visit(apply);

    EXPECT_EQ(s.packets, replay.packets);
    EXPECT_EQ(s.credit, replay.credit);
    EXPECT_EQ(s.deadline, replay.deadline);
    EXPECT_NEAR(s.cycles, replay.cycles, 1e-9 * replay.cycles);
    EXPECT_EQ(s.ring_size, 64u);    // inv slots are never written
}

// ---------------------------------------------------------------------
// The equivalence contract on a live testbed
// ---------------------------------------------------------------------

namespace {

struct RunResult
{
    double goodput_bps = 0;
    std::uint64_t segments = 0;
    Time warped;
};

/** A small 2-VM SR-IOV testbed driven for 4 simulated seconds in fluid
 *  mode @p mode. */
RunResult
runSmallTestbed(FluidMode mode)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.run.fluid = mode;
    core::Testbed tb(p);
    for (unsigned i = 0; i < 2; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, p.line_bps / 2);
    }
    auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(3));
    RunResult r;
    r.goodput_bps = m.total_goodput_bps;
    if (const sim::FluidStats *fs = tb.fluidStats()) {
        r.segments = fs->segments;
        r.warped = fs->warped;
    }
    return r;
}

} // namespace

TEST(FluidEquivalence, WarpedRunMatchesExactScheduleByteForByte)
{
    RunResult exact = runSmallTestbed(FluidMode::Exact);
    RunResult on = runSmallTestbed(FluidMode::On);

    // Exact never warps; On must actually exercise the machinery.
    EXPECT_EQ(exact.segments, 0u);
    ASSERT_GT(on.segments, 0u);
    EXPECT_GT(on.warped, sim::Time::sec(1));

    // One shared schedule: goodput is bytes/seconds with integer
    // bytes, so the doubles must be identical, not merely close.
    EXPECT_EQ(exact.goodput_bps, on.goodput_bps);
}

TEST(FluidEquivalence, OffModeInstallsNothing)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.fluid = FluidMode::Off;
    core::Testbed tb(p);
    EXPECT_EQ(tb.warpCoordinator(), nullptr);
    EXPECT_EQ(tb.shardEngine().islandLedger(0), nullptr);
}

TEST(FluidEquivalence, LedgerBelongsToTheRunningIsland)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.run.fluid = FluidMode::Exact;
    core::Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm,
                          core::Testbed::NetMode::Sriov);
    tb.startUdpToGuest(g, p.line_bps / 2);
    // The island's ledger is the thread's ledger only while the island
    // runs: nothing is installed before or after.
    EXPECT_EQ(sim::fluidLedger(), nullptr);
    tb.run(Time::ms(10));
    EXPECT_EQ(sim::fluidLedger(), nullptr);
    const FlowLedger *l = tb.shardEngine().islandLedger(0);
    ASSERT_NE(l, nullptr);
    EXPECT_GT(l->flowCount(), 0u);
}

TEST(FluidEquivalence, ConcurrentTestbedsKeepSeparateLedgers)
{
    // Every testbed's ledgers belong to its own islands, so sweep
    // workers warp side by side (--jobs=N --fluid=on) and each case
    // matches its sequential run.
    RunResult solo = runSmallTestbed(FluidMode::On);
    ASSERT_GT(solo.segments, 0u);
    std::vector<RunResult> par(2);
    core::SweepRunner(2).run(par.size(), [&par](std::size_t i) {
        par[i] = runSmallTestbed(FluidMode::On);
    });
    for (const RunResult &r : par) {
        EXPECT_EQ(r.segments, solo.segments);
        EXPECT_EQ(r.warped, solo.warped);
        EXPECT_EQ(r.goodput_bps, solo.goodput_bps);
    }
}
