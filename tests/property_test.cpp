/**
 * @file
 * Property-based tests: system-level invariants checked across
 * parameter sweeps and seeded random configurations rather than
 * single examples.
 */

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"

using namespace sriov;
using namespace sriov::core;

namespace {

struct QuietLogs
{
    QuietLogs() { sim::setLogLevel(sim::LogLevel::Quiet); }
};
QuietLogs quiet_logs;

} // namespace

/**
 * Packet conservation: every frame a client offers to a guest is
 * either delivered to the application or visible in exactly one drop
 * counter (wire TX queue, NIC ring, NIC unmatched, socket buffer) —
 * modulo the small number still in flight when the clock stops.
 *
 * The policy is a std::string, not a const char *: gtest prints a
 * pointer inside a tuple with its address, which would put an
 * ASLR-dependent number into every test ID.
 */
class Conservation
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(Conservation, EveryPacketIsDeliveredOrCounted)
{
    auto [policy, offered] = GetParam();
    Testbed::Params p;
    p.num_ports = 1;
    p.opts = OptimizationSet::maskEoi();
    p.opts.aic = policy == "AIC";
    p.itr = policy;
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &snd = tb.startUdpToGuest(g, offered);
    tb.run(sim::Time::sec(3));
    snd.stop();
    tb.run(sim::Time::ms(200));    // drain in-flight work

    std::uint64_t sent = snd.sentPackets();
    std::uint64_t delivered = g.rx->rxPackets();
    const auto &ds = g.vf->deviceStats();
    std::uint64_t dropped = tb.wire(0).dropped() + ds.rx_drop_ring.value()
        + ds.rx_drop_master.value() + ds.rx_drop_iommu.value()
        + tb.port(0).rxDropNoMatch() + g.stack->udpSocketDrops();

    EXPECT_LE(delivered + dropped, sent);
    // In-flight slack: at most a couple of interrupt batches.
    EXPECT_NEAR(double(delivered + dropped), double(sent), 300.0);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyLoad, Conservation,
    ::testing::Combine(::testing::Values("2kHz", "AIC", "1kHz"),
                       ::testing::Values(0.3e9, 1.0e9)));

/**
 * TCP stream integrity: the receiver's cumulative byte count never
 * exceeds what the sender transmitted, the sender never sees ACKs for
 * bytes it did not send, and at quiescence everything sent (minus at
 * most one window) was acknowledged.
 */
class TcpIntegrity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TcpIntegrity, NoLossNoDuplicationWithinTheWindow)
{
    Testbed::Params p;
    p.num_ports = 1;
    p.opts = OptimizationSet::maskEoi();
    p.itr = GetParam();
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &snd = tb.startTcpToGuest(g);
    tb.run(sim::Time::sec(3));
    EXPECT_LE(snd.ackedBytes(), snd.sentBytes());
    EXPECT_LE(g.rx->rxBytes(), snd.sentBytes());
    snd.stop();
    tb.run(sim::Time::ms(500));
    // Quiesced: all but at most one in-flight window acknowledged.
    EXPECT_LE(snd.sentBytes() - snd.ackedBytes(), 120832u);
    EXPECT_GT(g.rx->rxBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, TcpIntegrity,
                         ::testing::Values("20kHz", "2kHz", "1kHz"));

/**
 * CPU accounting closure: per-tag cycle totals always reconstruct the
 * servers' busy time; nothing is double-counted or lost, whatever mix
 * of guests runs.
 */
TEST(AccountingClosure, TagCyclesMatchBusyTime)
{
    Testbed::Params p;
    p.num_ports = 2;
    p.opts = OptimizationSet::maskEoi();
    Testbed tb(p);
    auto &a = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &b = tb.addGuest(vmm::DomainType::Pvm, Testbed::NetMode::Pv);
    tb.startUdpToGuest(a, 0.8e9);
    tb.startUdpToGuest(b, 0.5e9);
    tb.run(sim::Time::sec(2));

    auto &hv = tb.server();
    for (unsigned i = 0; i < hv.pcpuCount(); ++i) {
        auto snap = hv.pcpu(i).snapshot();
        double tag_cycles = 0;
        for (const auto &[tag, cycles] : snap.cycles_by_tag)
            tag_cycles += cycles;
        double busy_cycles = snap.busy.toSeconds() * hv.costs().cpu_hz;
        // Each work item quantizes its duration to integer picoseconds
        // (< 0.4 cycles at 2.8 GHz), so allow sub-ppm drift.
        EXPECT_NEAR(tag_cycles, busy_cycles,
                    std::max(100.0, busy_cycles * 1e-6))
            << "pcpu " << i;
    }
}

/**
 * IOMMU isolation: whatever buffer addresses one guest's VF is
 * programmed with, DMA can never land in another guest's memory —
 * translations resolve inside the owner's machine region or fault.
 */
TEST(IommuIsolation, VfDmaStaysInItsDomain)
{
    Testbed::Params p;
    p.num_ports = 1;
    Testbed tb(p);
    auto &a = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &b = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &hv = tb.server();

    pci::Rid rid_a = a.vf->function().rid();
    sim::Random rng(0xfeedface);
    for (int i = 0; i < 2000; ++i) {
        mem::Addr gpa = rng.uniformInt(0, (128ull << 20) - 1);
        auto r = hv.iommu().translate(rid_a, gpa, true);
        if (!r.ok())
            continue;
        std::string owner = hv.memory().ownerOf(r.mpa);
        EXPECT_EQ(owner, a.dom->name());
        EXPECT_NE(owner, b.dom->name());
    }
}

/**
 * ITR monotonicity: across the whole load range, a higher offered load
 * never yields a lower AIC interrupt frequency.
 */
TEST(AicMonotonicity, FrequencyIsNondecreasingInLoad)
{
    drivers::AicItr aic;
    double prev = 0;
    for (double pps = 0; pps <= 400e3; pps += 7e3) {
        double hz = aic.updateHz(pps, pps * 1472 * 8);
        EXPECT_GE(hz, prev - 1e-9);
        prev = hz;
    }
}

/**
 * Migration monotonicity: a larger guest never migrates faster, and
 * total pages sent always cover memory at least once.
 */
class MigrationSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MigrationSize, TotalTimeGrowsWithMemory)
{
    auto run = [](mem::Addr bytes) {
        sim::EventQueue eq;
        vmm::Hypervisor hv(eq);
        vmm::MigrationManager mm(hv);
        auto &dom = hv.createDomain("vm0", vmm::DomainType::Hvm, bytes);
        vmm::MigrationManager::Params p;
        p.background_dirty_pps = 500;
        vmm::MigrationManager::Result result{};
        bool done = false;
        mm.migrate(dom, p, nullptr, nullptr,
                   [&](const vmm::MigrationManager::Result &r) {
                       result = r;
                       done = true;
                   });
        eq.runUntil(sim::Time::sec(120));
        EXPECT_TRUE(done);
        EXPECT_GE(result.pages_sent, bytes / mem::kPageSize);
        return result.total();
    };
    mem::Addr mb = GetParam();
    sim::Time small = run(mb << 20);
    sim::Time big = run((2 * mb) << 20);
    EXPECT_GT(big, small);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MigrationSize,
                         ::testing::Values(64u, 128u, 256u));

/**
 * Direct I/O vs SR-IOV (paper Sections 1/3): assigning the whole port
 * to one guest (Direct I/O, the SR-IOV predecessor) performs like a
 * VF — SR-IOV's contribution is that seven guests get that performance
 * from one port, which Direct I/O cannot share.
 */
TEST(DirectIo, SriovMatchesDirectIoPerformanceWhileSharing)
{
    // Direct I/O: the guest drives the port's PF (pool 0) directly.
    double direct_bps = 0;
    {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskEoi();
        Testbed tb(p);
        auto &hv = tb.server();
        auto &dom = hv.createDomain("dio", vmm::DomainType::Hvm,
                                    128ull << 20);
        guest::GuestKernel kern(hv, dom);
        hv.assignDevice(dom, tb.port(0).pf());
        drivers::VfDriver::Config cfg;
        cfg.mac = Testbed::guestMac(0);
        drivers::VfDriver drv(kern, tb.port(0), nic::Pool(0), cfg);
        drv.setItrPolicy(std::make_unique<drivers::AdaptiveItr>());
        drv.init();
        guest::NetStack stack(kern);
        stack.attachDevice(drv);
        guest::StreamReceiver rx(tb.eq(), stack,
                                 guest::StreamReceiver::Proto::Udp);
        guest::UdpStreamSender snd(tb.eq(), tb.clientStack(0),
                                   Testbed::guestMac(0), 1e9);
        snd.start();
        tb.run(sim::Time::sec(1));
        rx.takeThroughputBps();
        tb.run(sim::Time::sec(2));
        direct_bps = rx.takeThroughputBps();
    }

    // SR-IOV: one of seven possible guests on the identical port.
    double sriov_bps = 0;
    {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskEoi();
        Testbed tb(p);
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              Testbed::NetMode::Sriov);
        tb.startUdpToGuest(g, 1e9);
        auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(2));
        sriov_bps = m.total_goodput_bps;
        // Sharing is preserved: six more VFs remain assignable.
        EXPECT_EQ(tb.port(0).numVfs(), 7u);
    }
    EXPECT_NEAR(direct_bps, sriov_bps, sriov_bps * 0.02);
    EXPECT_NEAR(sriov_bps / 1e6, 957, 15);
}
