/**
 * @file
 * End-to-end integration tests through the full testbed: these assert
 * the qualitative claims of the paper's evaluation, so a regression
 * in any layer (NIC model, interrupt path, cost accounting, drivers)
 * shows up as a broken paper property.
 */

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metric.hpp"
#include "obs/pathtrace.hpp"
#include "obs/profiler.hpp"
#include "sim/log.hpp"
#include "sim/shard.hpp"
#include "sim/thinning.hpp"

using namespace sriov;
using namespace sriov::core;

namespace {

struct QuietLogs
{
    QuietLogs() { sim::setLogLevel(sim::LogLevel::Quiet); }
};
QuietLogs quiet_logs;

} // namespace

TEST(Integration, SriovGuestReachesLineRate)
{
    Testbed::Params p;
    p.num_ports = 1;
    p.opts = OptimizationSet::all();
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    tb.startUdpToGuest(g, 1e9);
    auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(3));
    // 957 Mb/s of goodput on a saturated 1 GbE line.
    EXPECT_NEAR(m.total_goodput_bps / 1e6, 957, 15);
    // The datapath bypasses dom0 entirely.
    EXPECT_LT(m.dom0_pct, 1.0);
}

TEST(Integration, MaskUnmaskAccelSlashesDom0)
{
    auto run = [](bool accel) {
        Testbed::Params p;
        p.num_ports = 1;
        p.itr = "adaptive";
        p.opts = accel ? OptimizationSet::maskOnly()
                       : OptimizationSet::none();
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov,
                              guest::KernelVersion::v2_6_18);
        tb.startUdpToGuest(g, 1e9);
        return tb.measure(sim::Time::sec(1), sim::Time::sec(3));
    };
    auto unopt = run(false);
    auto opt = run(true);
    // Paper Fig. 6: ~17% -> ~3%.
    EXPECT_GT(unopt.dom0_pct, 10.0);
    EXPECT_LT(opt.dom0_pct, 3.0);
    EXPECT_NEAR(unopt.total_goodput_bps, opt.total_goodput_bps, 20e6);
}

TEST(Integration, EoiAccelReducesXenOverhead)
{
    auto run = [](bool accel) {
        Testbed::Params p;
        p.num_ports = 1;
        p.itr = "adaptive";
        p.opts = accel ? OptimizationSet::maskEoi()
                       : OptimizationSet::maskOnly();
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 1e9);
        return tb.measure(sim::Time::sec(1), sim::Time::sec(3));
    };
    auto before = run(false);
    auto after = run(true);
    EXPECT_LT(after.xen_pct, before.xen_pct * 0.85);
}

TEST(Integration, AicAvoidsInterVmLossWhereFixedRatesDrop)
{
    auto run = [](const std::string &policy) {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskEoi();
        p.opts.aic = policy == "AIC";
        p.itr = policy;
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startUdpFromDom0(g, 2e9);
        auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
        return m.total_goodput_bps;
    };
    double rx_1k = run("1kHz");
    double rx_aic = run("AIC");
    // At 2 Gb/s offered, 1 kHz overflows the 64-packet socket buffer;
    // AIC adapts and keeps (nearly) everything.
    EXPECT_GT(rx_aic, rx_1k * 1.2);
}

TEST(Integration, TcpIsLatencySensitiveAt1kHz)
{
    auto run = [](const std::string &policy) {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskEoi();
        p.itr = policy;
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startTcpToGuest(g);
        auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
        return m.total_goodput_bps;
    };
    double bw_2k = run("2kHz");
    double bw_1k = run("1kHz");
    EXPECT_NEAR(bw_2k / 1e6, 941, 25);
    // Paper: -9.6% at 1 kHz.
    double drop = (bw_2k - bw_1k) / bw_2k;
    EXPECT_GT(drop, 0.04);
    EXPECT_LT(drop, 0.25);
}

TEST(Integration, SingleThreadNetbackSaturatesNear3p6Gbps)
{
    Testbed::Params p;
    p.num_ports = 10;
    p.opts = OptimizationSet::maskEoi();
    p.netback_threads = 1;
    Testbed tb(p);
    for (unsigned i = 0; i < 10; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Pv);
        tb.startUdpToGuest(g, 1e9);
    }
    auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
    EXPECT_NEAR(m.total_goodput_bps / 1e9, 3.6, 0.5);
}

TEST(Integration, SriovScalesWherePvDoesNot)
{
    auto run = [](Testbed::NetMode mode) {
        Testbed::Params p;
        p.num_ports = 10;
        p.opts = OptimizationSet::maskEoi();
        p.netback_threads = 4;
        Testbed tb(p);
        for (unsigned i = 0; i < 20; ++i)
            tb.addGuest(vmm::DomainType::Hvm, mode);
        for (unsigned i = 0; i < 20; ++i)
            tb.startUdpToGuest(tb.guest(i), 0.5e9);
        return tb.measure(sim::Time::sec(2), sim::Time::sec(3));
    };
    auto sriov = run(Testbed::NetMode::Sriov);
    auto pv = run(Testbed::NetMode::Pv);
    EXPECT_NEAR(sriov.total_goodput_bps / 1e9, 9.57, 0.3);
    EXPECT_LT(pv.total_goodput_bps, sriov.total_goodput_bps);
    EXPECT_GT(pv.dom0_pct, sriov.dom0_pct + 50.0);
}

TEST(Integration, HvmCostsMorePerVmThanPvmAtScale)
{
    auto run = [](vmm::DomainType type, unsigned vms) {
        Testbed::Params p;
        p.num_ports = 10;
        p.opts = OptimizationSet::maskEoi();
        p.itr = "adaptive";
        Testbed tb(p);
        for (unsigned i = 0; i < vms; ++i)
            tb.addGuest(type, Testbed::NetMode::Sriov);
        for (unsigned i = 0; i < vms; ++i)
            tb.startUdpToGuest(tb.guest(i), 1e10 / vms);
        auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
        return m.total_pct;
    };
    // Slopes from 20 to 40 VMs (throughput constant, only the per-VM
    // fixed costs grow).
    double hvm = (run(vmm::DomainType::Hvm, 40)
                  - run(vmm::DomainType::Hvm, 20))
        / 20.0;
    double pvm = (run(vmm::DomainType::Pvm, 40)
                  - run(vmm::DomainType::Pvm, 20))
        / 20.0;
    EXPECT_GT(hvm, pvm);    // paper: 2.8% vs 1.76% per VM
    EXPECT_GT(pvm, 0.0);
}

TEST(Integration, VmdqFallsBackBeyondSevenGuests)
{
    Testbed::Params p;
    p.use_vmdq_nic = true;
    p.opts = OptimizationSet::maskEoi();
    p.netback_threads = 4;
    Testbed tb(p);
    for (unsigned i = 0; i < 10; ++i)
        tb.addGuest(vmm::DomainType::Pvm, Testbed::NetMode::Vmdq);
    EXPECT_EQ(tb.vmdqBackend().queuesInUse(), 7u);
    for (unsigned i = 0; i < 10; ++i)
        tb.startUdpToGuest(tb.guest(i), 1e9);
    auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
    EXPECT_GT(m.total_goodput_bps, 4e9);
    // The three fallback guests ride the copying bridge.
    EXPECT_GT(tb.netback(0).copies(), 0u);
}

TEST(Integration, InterVmSriovIsPcieBoundNotLineBound)
{
    Testbed::Params p;
    p.num_ports = 1;
    p.opts = OptimizationSet::all();
    Testbed tb(p);
    auto &tx = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &rx = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    tb.startUdpGuestToGuest(tx, rx, 6e9, 4000);
    auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(3));
    // Above the 1 GbE line rate (internal switch), below the line's
    // 10x: bounded by the double PCIe crossing near 2.8 Gb/s.
    EXPECT_GT(m.total_goodput_bps / 1e9, 1.5);
    EXPECT_LT(m.total_goodput_bps / 1e9, 4.0);
}

TEST(Integration, NativeBaselineMatchesPaperCpu)
{
    Testbed::Params p;
    p.num_ports = 10;
    p.itr = "adaptive";
    Testbed tb(p);
    for (unsigned i = 0; i < 10; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Native,
                              Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 1e9);
    }
    auto m = tb.measure(sim::Time::sec(2), sim::Time::sec(3));
    EXPECT_NEAR(m.total_goodput_bps / 1e9, 9.57, 0.2);
    // Paper Fig. 12: native ~145% for the ten flows.
    EXPECT_NEAR(m.total_pct, 145, 30);
    EXPECT_DOUBLE_EQ(m.xen_pct, 0.0);
}

TEST(Integration, ObsHistogramsTrackCostModelConstants)
{
    Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.opts = OptimizationSet::none();
    Testbed tb(p);
    auto &hooks = tb.enableObs();
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov,
                          guest::KernelVersion::v2_6_18);
    tb.startUdpToGuest(g, 1e9);
    tb.measure(sim::Time::sec(1), sim::Time::sec(2));

    const vmm::CostModel &cm = tb.server().costs();
    // Without EOI acceleration every APIC access pays the full
    // fetch-decode-emulate exit, so the distribution collapses to a
    // single point at apic_access_emulate.
    const obs::Histogram &apic = hooks.exitCost(vmm::ExitReason::ApicAccess);
    ASSERT_GT(apic.count(), 100);
    EXPECT_DOUBLE_EQ(apic.percentile(50), cm.apic_access_emulate);
    EXPECT_DOUBLE_EQ(apic.percentile(99), cm.apic_access_emulate);

    const obs::Histogram &ext =
        hooks.exitCost(vmm::ExitReason::ExternalInterrupt);
    ASSERT_GT(ext.count(), 0);
    EXPECT_DOUBLE_EQ(ext.percentile(50), cm.extint_exit);
    EXPECT_DOUBLE_EQ(ext.percentile(99), cm.extint_exit);

    // Uncontended direct injection delivers at raise time: the latency
    // histogram is populated, and every sample is zero.
    const obs::Histogram &lat = hooks.intr_latency_us;
    ASSERT_GT(lat.count(), 100);
    EXPECT_DOUBLE_EQ(lat.max(), 0.0);
}

TEST(Integration, IntrLatencyHistogramSeesEoiDeferral)
{
    // Make the guest's per-interrupt work (500 us) outrun the fixed
    // 20 kHz ITR window (50 us): every subsequent raise lands while the
    // previous vector is still in service, so delivery is deferred to
    // EOI and the latency histogram fills with positive samples bounded
    // below by (irq work - ITR window).
    Testbed::Params p;
    p.num_ports = 1;
    p.itr = "20kHz";
    p.opts = OptimizationSet::maskEoi();
    p.costs.guest_irq_entry = 1.4e6;
    Testbed tb(p);
    auto &hooks = tb.enableObs();
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    tb.startUdpToGuest(g, 1e9);
    tb.measure(sim::Time::ms(200), sim::Time::ms(300));

    const vmm::CostModel &cm = tb.server().costs();
    double work_us = cm.guest_irq_entry / cm.cpu_hz * 1e6;
    double itr_us = 1e6 / 20e3;
    const obs::Histogram &lat = hooks.intr_latency_us;
    ASSERT_GT(lat.count(), 100);
    EXPECT_GE(lat.percentile(50), work_us - itr_us);
    EXPECT_GE(lat.percentile(99), lat.percentile(50));
    EXPECT_LE(lat.percentile(99), 2 * work_us);
}

TEST(Integration, ObservabilityDoesNotPerturbDeterminism)
{
    auto run = [](bool obs_on) {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::all();
        Testbed tb(p);
        obs::MetricRegistry reg;
        obs::SimProfiler prof;
        obs::ChromeTraceWriter trace;
        if (obs_on) {
            tb.enableObs();
            tb.registerMetrics(reg);
            prof.attach(tb.eq());
            tb.attachObsTrace(trace);
        }
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 1e9);
        auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(2));
        trace.detachAll();
        prof.detach();
        struct R
        {
            std::uint64_t digest;
            std::uint64_t executed;
            double goodput;
        };
        return R{tb.eq().orderDigest(), tb.eq().executed(),
                 m.total_goodput_bps};
    };
    auto off = run(false);
    auto on = run(true);
    // The whole obs layer is a bystander: same event order, same event
    // count, same measured result, whether it watches or not.
    EXPECT_EQ(on.digest, off.digest);
    EXPECT_EQ(on.executed, off.executed);
    EXPECT_DOUBLE_EQ(on.goodput, off.goodput);
}

TEST(Integration, GoldenDigestFig06SmokeIsPinned)
{
    // Bit-for-bit regression pin for the event-order digest: this is
    // the fig06 determinism-smoke workload (2 HVM guests, SR-IOV,
    // mask/unmask acceleration, 300 Mb/s UDP each, 200 ms). The value
    // is a pure function of the executed (when, seq, tag) sequence, so
    // any queue-internals change that alters it has reordered the
    // simulation. Re-pinned for the event-thinning layer (burst
    // wire delivery, DMA flow-through, deferred timers): the thinned
    // schedule executes ~40% fewer events by design, and the
    // thin-vs-exact equivalence is asserted on metric snapshots (see
    // ThinnedAndExactModesAgree), not on the digest.
    //
    // The partitioned machine is pinned the same way: the per-port
    // islands (--shards >= 1) and the two-host rack behind the ToR
    // relay. Cross-shard-count tests only compare partitioned runs with
    // each other, so without these rows a builder change that reorders
    // the partitioned schedule would go unnoticed. --shards=2 gives the
    // same values as --shards=1.
    struct Pin
    {
        unsigned shards;
        unsigned hosts;
        unsigned guests;
        std::uint64_t digest;
        std::uint64_t events;
    };
    const Pin pins[] = {
        {0, 1, 2, 0x113b495c442c4754ull, 44041},
        {1, 1, 2, 0x30b0da7ac1bb1aa3ull, 34288},
        {1, 2, 4, 0x241c3955027a6fa0ull, 68570},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE("shards=" + std::to_string(pin.shards)
                     + " hosts=" + std::to_string(pin.hosts));
        sim::ShardScope shards(pin.shards);
        Testbed::Params p;
        p.num_ports = 1;
        p.num_hosts = pin.hosts;
        p.opts = OptimizationSet::maskOnly();
        Testbed tb(p);
        for (unsigned i = 0; i < pin.guests; ++i) {
            auto &g = tb.addGuest(vmm::DomainType::Hvm,
                                  Testbed::NetMode::Sriov,
                                  guest::KernelVersion::v2_6_18);
            tb.startUdpToGuest(g, 300e6);
        }
        tb.run(sim::Time::ms(200));
        EXPECT_EQ(tb.orderDigest(), pin.digest);
        EXPECT_EQ(tb.executedEvents(), pin.events);
    }
}

TEST(Integration, PathTracingNeverPerturbsTheGoldenRun)
{
    // The path tracer's non-perturbation contract, held against the
    // same pinned workload as GoldenDigestFig06SmokeIsPinned: with
    // tracing off, sampled or full, the event-order digest, event
    // count and every registered metric are identical. The tracer may
    // only observe — it never schedules, never touches a metric, and
    // samples by a pure hash of the trace id.
    constexpr std::uint64_t kGoldenDigest = 0x113b495c442c4754ull;
    constexpr std::uint64_t kGoldenEvents = 44041;

    auto run = [](obs::PathTraceMode mode) {
        obs::PathTraceScope scope(mode);
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskOnly();
        Testbed tb(p);
        obs::MetricRegistry reg;
        tb.enableObs();
        tb.registerMetrics(reg);
        for (unsigned i = 0; i < 2; ++i) {
            auto &g = tb.addGuest(vmm::DomainType::Hvm,
                                  Testbed::NetMode::Sriov,
                                  guest::KernelVersion::v2_6_18);
            tb.startUdpToGuest(g, 300e6);
        }
        tb.run(sim::Time::ms(200));
        struct R
        {
            std::uint64_t digest;
            std::uint64_t executed;
            obs::MetricSnapshot snap;
            obs::PathSnapshot path;
        };
        return R{tb.eq().orderDigest(), tb.eq().executed(),
                 reg.snapshot(), tb.pathTracer().snapshot()};
    };

    auto off = run(obs::PathTraceMode::Off);
    auto sampled = run(obs::PathTraceMode::Sampled);
    auto full = run(obs::PathTraceMode::Full);

    for (const auto *r : {&off, &sampled, &full}) {
        EXPECT_EQ(r->digest, kGoldenDigest);
        EXPECT_EQ(r->executed, kGoldenEvents);
    }
    for (const auto *r : {&sampled, &full}) {
        ASSERT_EQ(r->snap.samples.size(), off.snap.samples.size());
        for (std::size_t i = 0; i < off.snap.samples.size(); ++i) {
            const obs::MetricSample &a = off.snap.samples[i];
            const obs::MetricSample &b = r->snap.samples[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.value, b.value) << a.name;
            EXPECT_EQ(a.count, b.count) << a.name;
            EXPECT_EQ(a.p50, b.p50) << a.name;
            EXPECT_EQ(a.p99, b.p99) << a.name;
        }
    }

    // Attribution runs at the fixed base rate in every mode, so the
    // path_stages block a report would carry is mode-invariant too.
    EXPECT_TRUE(off.path.hasAttribution());
    for (const auto *r : {&sampled, &full}) {
        EXPECT_EQ(r->path.completed, off.path.completed);
        EXPECT_EQ(r->path.origin_sampled, off.path.origin_sampled);
        ASSERT_EQ(r->path.stages.size(), off.path.stages.size());
        for (std::size_t i = 0; i < off.path.stages.size(); ++i) {
            EXPECT_EQ(r->path.stages[i].stage, off.path.stages[i].stage);
            EXPECT_EQ(r->path.stages[i].count, off.path.stages[i].count);
            EXPECT_EQ(r->path.stages[i].p50_us,
                      off.path.stages[i].p50_us);
            EXPECT_EQ(r->path.stages[i].p99_us,
                      off.path.stages[i].p99_us);
        }
        EXPECT_EQ(r->path.total.mean_us, off.path.total.mean_us);
    }
    // Wider export can only widen the rings, never shrink them.
    auto pushes = [](const obs::PathSnapshot &s) {
        std::uint64_t n = 0;
        for (const obs::PathCompDump &c : s.comps)
            n += c.written;
        return n;
    };
    EXPECT_GT(pushes(full.path), pushes(sampled.path));
    EXPECT_GT(pushes(sampled.path), pushes(off.path));
}

TEST(Integration, ThinnedAndExactModesAgree)
{
    // The event-thinning contract: every registered metric mutates at
    // the same simulated instant in both modes, so *mid-run* registry
    // snapshots — not just quiescent ones — are identical. The
    // workload crosses every thinned component: burst wire delivery,
    // DMA flow-through RX/TX, the lazy ITR window, the deferred RTO,
    // and the driver's ITR-retune sampler.
    auto run = [](bool thin) {
        sim::ThinningScope scope(thin);
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::all();
        Testbed tb(p);
        obs::MetricRegistry reg;
        tb.enableObs();
        tb.registerMetrics(reg);
        auto &u1 = tb.addGuest(vmm::DomainType::Hvm,
                               Testbed::NetMode::Sriov);
        auto &u2 = tb.addGuest(vmm::DomainType::Hvm,
                               Testbed::NetMode::Sriov);
        tb.startUdpToGuest(u1, 600e6);
        tb.startTcpToGuest(u2);
        std::vector<obs::MetricSnapshot> snaps;
        // Snapshot at instants that do not line up with any window or
        // RTO boundary, so ledgered stats must settle mid-flight.
        for (sim::Time t : {sim::Time::ms(73), sim::Time::ms(151),
                            sim::Time::ms(260)}) {
            tb.eq().runUntil(t);
            snaps.push_back(reg.snapshot());
        }
        return snaps;
    };
    auto thin = run(true);
    auto exact = run(false);
    ASSERT_EQ(thin.size(), exact.size());
    for (std::size_t s = 0; s < thin.size(); ++s) {
        ASSERT_EQ(thin[s].samples.size(), exact[s].samples.size());
        for (std::size_t i = 0; i < thin[s].samples.size(); ++i) {
            const obs::MetricSample &a = thin[s].samples[i];
            const obs::MetricSample &b = exact[s].samples[i];
            EXPECT_EQ(a.name, b.name);
            EXPECT_EQ(a.value, b.value) << "snapshot " << s << ": "
                                        << a.name;
            EXPECT_EQ(a.count, b.count) << a.name;
            EXPECT_EQ(a.p50, b.p50) << a.name;
            EXPECT_EQ(a.p99, b.p99) << a.name;
        }
    }
}

TEST(Integration, BothModesAreDeterministic)
{
    // Run-twice determinism in each mode: identical digests, event
    // counts and goodput. (The two modes legitimately differ from each
    // other — thinning is the point — but each must be reproducible.)
    auto run = [](bool thin) {
        sim::ThinningScope scope(thin);
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::all();
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 1e9);
        auto m = tb.measure(sim::Time::ms(100), sim::Time::ms(200));
        struct R
        {
            std::uint64_t digest;
            std::uint64_t executed;
            double goodput;
        };
        return R{tb.eq().orderDigest(), tb.eq().executed(),
                 m.total_goodput_bps};
    };
    for (bool thin : {true, false}) {
        auto a = run(thin);
        auto b = run(thin);
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.executed, b.executed);
        EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
    }
}
