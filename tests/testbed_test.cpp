/**
 * @file
 * Unit tests for the Testbed harness itself (topology construction,
 * guest wiring variants, measurement plumbing).
 */

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;
using namespace sriov::core;

namespace {

struct QuietLogs
{
    QuietLogs() { sim::setLogLevel(sim::LogLevel::Quiet); }
};
QuietLogs quiet_logs;

} // namespace

TEST(TestbedTopology, BuildsPaperConfiguration)
{
    Testbed::Params p;
    p.num_ports = 10;
    Testbed tb(p);
    EXPECT_EQ(tb.portCount(), 10u);
    for (unsigned i = 0; i < 10; ++i) {
        EXPECT_EQ(tb.port(i).numVfs(), 7u);           // Fig. 11
        EXPECT_TRUE(tb.port(i).sriovCap().vfEnabled());
    }
    // dom0: 8 VCPUs pinned per Section 6.1.
    EXPECT_EQ(tb.server().dom0().vcpuCount(), 8u);
    // The IOVM hot-added every VF into the host view.
    EXPECT_EQ(tb.iovm().hostVisibleVfs().size(), 70u);
}

TEST(TestbedTopology, VfAllocationFollowsFig11)
{
    Testbed::Params p;
    p.num_ports = 10;
    Testbed tb(p);
    // Guest i lands on port i%10 taking that port's next VF.
    for (unsigned i = 0; i < 25; ++i)
        tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    EXPECT_EQ(tb.guest(0).port, 0u);
    EXPECT_EQ(tb.guest(9).port, 9u);
    EXPECT_EQ(tb.guest(10).port, 0u);
    // Port 0 now serves guests 0, 10, 20 => VFs 0,1,2 in use.
    EXPECT_EQ(tb.guest(20).vf->pool(), tb.port(0).vfPool(2));
}

TEST(TestbedTopology, GuestMacsAreUnique)
{
    Testbed::Params p;
    p.num_ports = 2;
    Testbed tb(p);
    auto &a = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    auto &b = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    EXPECT_NE(a.mac.value, b.mac.value);
}

TEST(TestbedTopology, PvGuestGetsNetfrontAndBridge)
{
    Testbed::Params p;
    p.num_ports = 1;
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Pv);
    ASSERT_NE(g.pv, nullptr);
    EXPECT_EQ(g.vf, nullptr);
    EXPECT_TRUE(g.pv->linkUp());
    EXPECT_TRUE(tb.netback(0).connected(*g.pv));
}

TEST(TestbedTopology, BondedGuestHasThreeDevices)
{
    Testbed::Params p;
    p.num_ports = 1;
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov,
                          guest::KernelVersion::v2_6_28,
                          /*bond_vf_with_pv=*/true);
    ASSERT_NE(g.vf, nullptr);
    ASSERT_NE(g.pv, nullptr);
    ASSERT_NE(g.bond, nullptr);
    EXPECT_EQ(g.netdev, g.bond.get());
    EXPECT_EQ(g.bond->slaveCount(), 2u);
    // Both slaves share the bond MAC (fail_over_mac=none).
    EXPECT_EQ(g.vf->mac().value, g.pv->mac().value);
}

TEST(TestbedMeasurement, BreakdownSumsToTotal)
{
    Testbed::Params p;
    p.num_ports = 1;
    p.opts = OptimizationSet::all();
    Testbed tb(p);
    auto &g = tb.addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov);
    tb.startUdpToGuest(g, 1e9);
    auto m = tb.measure(sim::Time::sec(1), sim::Time::sec(2));
    double sum = 0;
    for (const auto &[tag, pct] : m.cpu_by_tag)
        sum += pct;
    EXPECT_NEAR(sum, m.total_pct, 1e-6);
    EXPECT_NEAR(m.dom0_pct + m.xen_pct + m.guests_pct, m.total_pct, 0.5);
    ASSERT_EQ(m.per_guest_bps.size(), 1u);
    EXPECT_NEAR(m.per_guest_bps[0], m.total_goodput_bps, 1.0);
}

TEST(TestbedMeasurement, Dom0NetIsCreatedOnce)
{
    Testbed::Params p;
    p.num_ports = 1;
    Testbed tb(p);
    auto &a = tb.dom0Net(0);
    auto &b = tb.dom0Net(0);
    EXPECT_EQ(&a, &b);
}
