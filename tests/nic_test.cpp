/**
 * @file
 * Unit tests for the NIC models: frames, wire, rings, L2 switch,
 * mailbox, and the SR-IOV/VMDq/plain port models.
 */

#include <gtest/gtest.h>

#include <functional>

#include "mem/iommu.hpp"
#include "nic/desc_ring.hpp"
#include "nic/l2_switch.hpp"
#include "nic/mailbox.hpp"
#include "nic/packet.hpp"
#include "nic/sriov_nic.hpp"
#include "nic/vmdq_nic.hpp"
#include "nic/wire.hpp"

using namespace sriov;
using namespace sriov::nic;

class PayloadSizes : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(PayloadSizes, UdpFrameAccounting)
{
    std::uint32_t payload = GetParam();
    Packet p;
    p.bytes = frame::udpFrame(payload);
    p.kind = Packet::Kind::Udp;
    EXPECT_EQ(p.payloadBytes(), payload);
    EXPECT_EQ(p.wireBytes(), p.bytes + frame::kPreambleIfg);
    // VLAN tags add 4 bytes on the wire.
    p.vlan = 100;
    EXPECT_EQ(p.wireBytes(), p.bytes + frame::kPreambleIfg + 4);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PayloadSizes,
                         ::testing::Values(64, 512, 1472, 2000, 4000));

TEST(Packet, LineRateGoodputMatchesPaper)
{
    // A saturated line carries payload/wire of its rate: 1472/1538 of
    // 10 Gb/s = 9.57 Gb/s, the paper's line-rate figure.
    Packet p;
    p.bytes = frame::udpFrame(frame::kMaxUdpPayload);
    double goodput = 10e9 * p.payloadBytes() / p.wireBytes();
    EXPECT_NEAR(goodput / 1e9, 9.57, 0.005);
}

TEST(MacAddr, MakeAndFormat)
{
    MacAddr m = MacAddr::make(3, 0x0102);
    EXPECT_EQ(m.toString(), "02:00:00:03:01:02");
    EXPECT_TRUE(MacAddr::broadcast().isBroadcast());
    EXPECT_FALSE(m.isBroadcast());
}

namespace {

class SinkEndpoint : public WireEndpoint
{
  public:
    std::vector<Packet> got;
    std::vector<sim::Time> at;
    sim::EventQueue *eq = nullptr;

    void
    receive(const Packet &p) override
    {
        got.push_back(p);
        if (eq)
            at.push_back(eq->now());
    }
};

Packet
udpPacket(MacAddr dst, std::uint32_t payload = 1472)
{
    Packet p;
    p.dst = dst;
    p.src = MacAddr::make(9, 9);
    p.bytes = frame::udpFrame(payload);
    p.kind = Packet::Kind::Udp;
    return p;
}

} // namespace

TEST(Wire, DeliversAfterSerializationAndPropagation)
{
    sim::EventQueue eq;
    Wire::Params wp;
    wp.line_bps = 1e9;
    wp.propagation = sim::Time::ns(500);
    Wire wire(eq, wp);
    SinkEndpoint a, b;
    b.eq = &eq;
    wire.connect(a, b);
    Packet p = udpPacket(MacAddr::make(1, 1));
    wire.send(a, p);
    eq.runAll();
    ASSERT_EQ(b.got.size(), 1u);
    // 1538 wire bytes at 1 Gb/s = 12.304 us + 0.5 us propagation.
    EXPECT_EQ(b.at[0], sim::Time::ns(12804));
}

TEST(Wire, BackToBackFramesSerialize)
{
    sim::EventQueue eq;
    Wire wire(eq);
    SinkEndpoint a, b;
    b.eq = &eq;
    wire.connect(a, b);
    wire.send(a, udpPacket(MacAddr::make(1, 1)));
    wire.send(a, udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    ASSERT_EQ(b.got.size(), 2u);
    EXPECT_EQ((b.at[1] - b.at[0]), sim::Time::ns(12304));
}

TEST(Wire, DirectionsAreIndependent)
{
    sim::EventQueue eq;
    Wire wire(eq);
    SinkEndpoint a, b;
    wire.connect(a, b);
    wire.send(a, udpPacket(MacAddr::make(1, 1)));
    wire.send(b, udpPacket(MacAddr::make(2, 2)));
    eq.runAll();
    EXPECT_EQ(a.got.size(), 1u);
    EXPECT_EQ(b.got.size(), 1u);
}

TEST(Wire, TxQueueCapDrops)
{
    sim::EventQueue eq;
    Wire wire(eq);
    SinkEndpoint a, b;
    wire.connect(a, b);
    for (std::size_t i = 0; i < Wire::kTxQueueCap + 10; ++i)
        wire.send(a, udpPacket(MacAddr::make(1, 1), 64));
    EXPECT_GT(wire.dropped(), 0u);
    eq.runAll();
    // Every frame either arrived or was counted as dropped.
    EXPECT_EQ(b.got.size() + wire.dropped(), Wire::kTxQueueCap + 10);
}

// ---------------------------------------------------------------------------
// Wire event thinning: the burst-coalesced delivery path must be
// observably identical to the exact per-hop path — same delivery
// instants, same order, same offered/delivered/dropped counts — for
// every edge case the exact model handles.
// ---------------------------------------------------------------------------

namespace {

struct WireRun
{
    std::vector<sim::Time> a_at, b_at;
    std::vector<std::uint32_t> a_bytes, b_bytes;
    std::uint64_t offered = 0, delivered = 0, dropped = 0;
};

/** Drive @p scenario(eq, wire, a, b) to quiescence in one mode. */
WireRun
runWire(bool thin,
        const std::function<void(sim::EventQueue &, Wire &, SinkEndpoint &,
                                 SinkEndpoint &)> &scenario)
{
    sim::EventQueue eq(thin);
    Wire::Params wp;
    wp.line_bps = 1e9;
    wp.propagation = sim::Time::ns(500);
    Wire wire(eq, wp);
    SinkEndpoint a, b;
    a.eq = &eq;
    b.eq = &eq;
    wire.connect(a, b);
    scenario(eq, wire, a, b);
    eq.runAll();
    WireRun r;
    for (std::size_t i = 0; i < a.got.size(); ++i) {
        r.a_at.push_back(a.at[i]);
        r.a_bytes.push_back(a.got[i].bytes);
    }
    for (std::size_t i = 0; i < b.got.size(); ++i) {
        r.b_at.push_back(b.at[i]);
        r.b_bytes.push_back(b.got[i].bytes);
    }
    r.offered = wire.offered();
    r.delivered = wire.delivered();
    r.dropped = wire.dropped();
    EXPECT_EQ(wire.inFlight(), 0u);
    return r;
}

void
expectSameRun(const WireRun &t, const WireRun &e)
{
    EXPECT_EQ(t.a_at, e.a_at);
    EXPECT_EQ(t.b_at, e.b_at);
    EXPECT_EQ(t.a_bytes, e.a_bytes);
    EXPECT_EQ(t.b_bytes, e.b_bytes);
    EXPECT_EQ(t.offered, e.offered);
    EXPECT_EQ(t.delivered, e.delivered);
    EXPECT_EQ(t.dropped, e.dropped);
}

} // namespace

TEST(WireThinning, BackToBackBurstMatchesExactMode)
{
    auto scenario = [](sim::EventQueue &eq, Wire &w, SinkEndpoint &a,
                       SinkEndpoint &) {
        // A burst of mixed-size frames sent back-to-back, plus a
        // straggler injected while the burst is still serializing.
        for (std::uint32_t payload : {64u, 1472u, 512u, 1472u, 100u})
            w.send(a, udpPacket(MacAddr::make(1, 1), payload));
        eq.scheduleAt(sim::Time::us(20), [&w, &a] {
            w.send(a, udpPacket(MacAddr::make(1, 1), 900));
        });
    };
    WireRun thin = runWire(true, scenario);
    WireRun exact = runWire(false, scenario);
    ASSERT_EQ(thin.b_at.size(), 6u);
    expectSameRun(thin, exact);
}

TEST(WireThinning, MidBurstQueueFullDropsMatchExactMode)
{
    auto scenario = [](sim::EventQueue &eq, Wire &w, SinkEndpoint &a,
                       SinkEndpoint &) {
        // Overflow the TX queue in one shot, then keep offering while
        // the backlog drains: late frames are accepted exactly when the
        // exact model's queue has space again.
        for (std::size_t i = 0; i < Wire::kTxQueueCap + 50; ++i)
            w.send(a, udpPacket(MacAddr::make(1, 1), 64));
        for (int k = 1; k <= 20; ++k) {
            eq.scheduleAt(sim::Time::us(unsigned(k)), [&w, &a] {
                w.send(a, udpPacket(MacAddr::make(1, 1), 64));
            });
        }
    };
    WireRun thin = runWire(true, scenario);
    WireRun exact = runWire(false, scenario);
    EXPECT_GT(thin.dropped, 0u);
    expectSameRun(thin, exact);
}

TEST(WireThinning, DirectionsCoalesceIndependently)
{
    auto scenario = [](sim::EventQueue &eq, Wire &w, SinkEndpoint &a,
                       SinkEndpoint &b) {
        for (int i = 0; i < 10; ++i)
            w.send(a, udpPacket(MacAddr::make(1, 1), 1472));
        for (int i = 0; i < 10; ++i)
            w.send(b, udpPacket(MacAddr::make(2, 2), 64));
        // Interleave more traffic in both directions mid-flight.
        eq.scheduleAt(sim::Time::us(30), [&w, &a, &b] {
            w.send(b, udpPacket(MacAddr::make(2, 2), 1472));
            w.send(a, udpPacket(MacAddr::make(1, 1), 64));
        });
    };
    WireRun thin = runWire(true, scenario);
    WireRun exact = runWire(false, scenario);
    ASSERT_EQ(thin.a_at.size(), 11u);
    ASSERT_EQ(thin.b_at.size(), 11u);
    expectSameRun(thin, exact);
}

TEST(WireThinning, PropagationOrderingIsPreserved)
{
    // Each frame arrives serialization + propagation after its line
    // slot; within a direction, deliveries are in FIFO order at
    // strictly increasing instants.
    auto scenario = [](sim::EventQueue &, Wire &w, SinkEndpoint &a,
                       SinkEndpoint &) {
        for (std::uint32_t payload : {1472u, 64u, 800u})
            w.send(a, udpPacket(MacAddr::make(1, 1), payload));
    };
    WireRun thin = runWire(true, scenario);
    WireRun exact = runWire(false, scenario);
    ASSERT_EQ(thin.b_at.size(), 3u);
    EXPECT_LT(thin.b_at[0], thin.b_at[1]);
    EXPECT_LT(thin.b_at[1], thin.b_at[2]);
    // First frame: 1538 wire bytes at 1 Gb/s + 500 ns propagation.
    EXPECT_EQ(thin.b_at[0], sim::Time::ns(12804));
    expectSameRun(thin, exact);
}

TEST(WireThinning, SendAtRequiresNowInExactMode)
{
    sim::EventQueue eq(/*thin=*/false);
    Wire wire(eq);
    SinkEndpoint a, b;
    wire.connect(a, b);
    // release == now degrades to send(); a future release is a
    // programming error in exact mode.
    EXPECT_TRUE(wire.sendAt(a, udpPacket(MacAddr::make(1, 1)), eq.now()));
    EXPECT_DEATH(wire.sendAt(a, udpPacket(MacAddr::make(1, 1)),
                             sim::Time::us(5)),
                 "sendAt in exact mode");
}

TEST(DescRing, PostTakeOverflow)
{
    DescRing ring(2);
    EXPECT_TRUE(ring.post(0x1000));
    EXPECT_TRUE(ring.post(0x2000));
    EXPECT_FALSE(ring.post(0x3000));    // full
    EXPECT_EQ(ring.available(), 2u);
    EXPECT_EQ(*ring.take(), 0x1000u);
    EXPECT_EQ(*ring.take(), 0x2000u);
    EXPECT_FALSE(ring.take().has_value());
    ring.countOverflow();
    EXPECT_EQ(ring.overflows(), 1u);
    EXPECT_EQ(ring.posted(), 2u);
    EXPECT_EQ(ring.consumed(), 2u);
}

TEST(DescRing, ResetEmpties)
{
    DescRing ring(4);
    ring.post(1);
    ring.post(2);
    ring.reset();
    EXPECT_TRUE(ring.empty());
}

TEST(DescRing, ResetCountsDiscardedBuffers)
{
    DescRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.post(mem::Addr(i) * 0x1000);
    (void)ring.take();
    (void)ring.take();
    ring.reset();
    EXPECT_EQ(ring.discarded(), 3u);    // posted but never consumed
    EXPECT_EQ(ring.posted(), 5u);
    EXPECT_EQ(ring.consumed(), 2u);
    EXPECT_TRUE(ring.empty());
    // The ring stays usable at full capacity after a reset.
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.post(mem::Addr(i)));
    EXPECT_FALSE(ring.post(0x9000));
    ring.reset();
    EXPECT_EQ(ring.discarded(), 11u);
}

TEST(L2Switch, ClassifiesByMacAndVlan)
{
    L2Switch l2;
    l2.setFilter(MacAddr::make(1, 1), 0, 3);
    l2.setFilter(MacAddr::make(1, 1), 7, 5);

    Packet p = udpPacket(MacAddr::make(1, 1));
    EXPECT_EQ(*l2.classify(p), 3);
    p.vlan = 7;
    EXPECT_EQ(*l2.classify(p), 5);
    p.vlan = 8;
    EXPECT_FALSE(l2.classify(p).has_value());
}

TEST(L2Switch, ClearPoolRemovesAllItsFilters)
{
    L2Switch l2;
    l2.setFilter(MacAddr::make(1, 1), 0, 3);
    l2.setFilter(MacAddr::make(1, 2), 0, 3);
    l2.setFilter(MacAddr::make(1, 3), 0, 4);
    l2.clearPool(3);
    EXPECT_EQ(l2.filterCount(), 1u);
    EXPECT_FALSE(l2.classify(udpPacket(MacAddr::make(1, 1))).has_value());
    EXPECT_TRUE(l2.classify(udpPacket(MacAddr::make(1, 3))).has_value());
}

TEST(L2Switch, ManyFiltersSurviveGrowthAndProbing)
{
    L2Switch l2;
    // Enough filters to force several grow/rehash cycles from the
    // 16-slot initial table, with colliding probe chains on the way.
    for (std::uint16_t i = 0; i < 200; ++i)
        l2.setFilter(MacAddr::make(3, i), i % 5, L2Switch::Pool(i % 7));
    EXPECT_EQ(l2.filterCount(), 200u);
    for (std::uint16_t i = 0; i < 200; ++i) {
        Packet p = udpPacket(MacAddr::make(3, i));
        p.vlan = i % 5;
        ASSERT_TRUE(l2.classify(p).has_value()) << i;
        EXPECT_EQ(*l2.classify(p), L2Switch::Pool(i % 7));
    }
    // Clear every even filter: odd ones must still resolve through
    // the tombstones left in their probe chains.
    for (std::uint16_t i = 0; i < 200; i += 2)
        l2.clearFilter(MacAddr::make(3, i), i % 5);
    EXPECT_EQ(l2.filterCount(), 100u);
    for (std::uint16_t i = 0; i < 200; ++i) {
        Packet p = udpPacket(MacAddr::make(3, i));
        p.vlan = i % 5;
        EXPECT_EQ(l2.classify(p).has_value(), i % 2 == 1) << i;
    }
}

TEST(L2Switch, ReprogramAfterClearReusesSlot)
{
    L2Switch l2;
    l2.setFilter(MacAddr::make(1, 1), 0, 3);
    l2.clearFilter(MacAddr::make(1, 1), 0);
    EXPECT_EQ(l2.filterCount(), 0u);
    EXPECT_FALSE(l2.classify(udpPacket(MacAddr::make(1, 1))).has_value());
    l2.setFilter(MacAddr::make(1, 1), 0, 5);
    EXPECT_EQ(l2.filterCount(), 1u);
    EXPECT_EQ(*l2.classify(udpPacket(MacAddr::make(1, 1))), 5);
}

TEST(L2Switch, RepeatLookupCacheFollowsMutations)
{
    L2Switch l2;
    l2.setFilter(MacAddr::make(1, 1), 0, 3);
    Packet p = udpPacket(MacAddr::make(1, 1));
    EXPECT_EQ(*l2.classify(p), 3);
    EXPECT_EQ(*l2.classify(p), 3);    // repeat: last-lookup cache path
    l2.setFilter(MacAddr::make(1, 1), 0, 4);
    EXPECT_EQ(*l2.classify(p), 4);    // move must invalidate the cache
    l2.clearFilter(MacAddr::make(1, 1), 0);
    EXPECT_FALSE(l2.classify(p).has_value());
    EXPECT_EQ(l2.lookups(), 4u);
    EXPECT_EQ(l2.matched(), 3u);
    EXPECT_EQ(l2.unmatched(), 1u);
}

TEST(L2Switch, ZeroMacZeroVlanIsProgrammable)
{
    // Key 0 must be a regular key, not a sentinel for an empty slot.
    L2Switch l2;
    l2.setFilter(MacAddr{0}, 0, 2);
    Packet p;
    p.dst = MacAddr{0};
    p.bytes = 64;
    EXPECT_EQ(*l2.classify(p), 2);
    l2.clearFilter(MacAddr{0}, 0);
    EXPECT_FALSE(l2.classify(p).has_value());
}

TEST(Mailbox, PostRingAckCycle)
{
    Mailbox mb;
    std::vector<MboxMessage::Type> got;
    mb.setDoorbell([&](const MboxMessage &m) { got.push_back(m.type); });

    MboxMessage msg;
    msg.type = MboxMessage::Type::SetMac;
    EXPECT_TRUE(mb.post(msg));
    EXPECT_TRUE(mb.busy());
    EXPECT_FALSE(mb.post(msg));    // register busy until ack
    mb.ack();
    EXPECT_TRUE(mb.post(msg));
    EXPECT_EQ(got.size(), 2u);
}

class SriovNicTest : public ::testing::Test
{
  protected:
    SriovNicTest() : nic(eq, "eth0", pci::Bdf{1, 0, 0})
    {
        map.mapRange(0, 0x100000, 256 * mem::kPageSize);
        nic.setIommu(&iommu);
        // Enable 2 VFs by programming the capability like a PF driver.
        nic.sriovCap().setNumVfs(2);
        nic.sriovCap().setVfEnable(true);
        enableMaster(nic.pf());
    }

    void
    enableMaster(pci::PciFunction &fn)
    {
        fn.config().write(pci::cfg::kCommand,
                          pci::cfg::kCmdMemEnable
                              | pci::cfg::kCmdBusMaster,
                          2);
    }

    void
    armPool(Pool pool, unsigned bufs = 32)
    {
        enableMaster(nic.functionOf(pool));
        iommu.attach(nic.functionOf(pool).rid(), map);
        for (unsigned i = 0; i < bufs; ++i)
            nic.rxRing(pool).post(i * 2048);
    }

    sim::EventQueue eq;
    SriovNic nic;
    mem::Iommu iommu;
    mem::GuestPhysMap map{"g"};
};

TEST_F(SriovNicTest, VfEnableCreatesFunctions)
{
    EXPECT_EQ(nic.numVfs(), 2u);
    EXPECT_EQ(nic.poolCount(), 3u);
    ASSERT_NE(nic.vf(0), nullptr);
    EXPECT_TRUE(nic.vf(0)->isVf());
    EXPECT_EQ(nic.vf(0)->rid(),
              nic.sriovCap().vfRid(nic.pf().rid(), 0));
    EXPECT_EQ(nic.vf(0)->deviceId(), 0x10ca);
}

TEST_F(SriovNicTest, VfDisableDestroysFunctions)
{
    bool removing_seen = false;
    nic.onVfsRemoving([&]() { removing_seen = true; });
    nic.sriovCap().setVfEnable(false);
    EXPECT_TRUE(removing_seen);
    EXPECT_EQ(nic.numVfs(), 0u);
    EXPECT_EQ(nic.poolCount(), 1u);
}

TEST_F(SriovNicTest, ClassifiedRxLandsInVfPool)
{
    armPool(nic.vfPool(0));
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    auto done = nic.drainRx(nic.vfPool(0));
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].pkt.payloadBytes(), 1472u);
    EXPECT_EQ(nic.poolStats(nic.vfPool(0)).rx_frames.value(), 1u);
}

TEST_F(SriovNicTest, UnmatchedFrameDropsWithoutDefaultPool)
{
    nic.receive(udpPacket(MacAddr::make(8, 8)));
    eq.runAll();
    EXPECT_EQ(nic.rxDropNoMatch(), 1u);
}

TEST_F(SriovNicTest, DefaultPoolCatchesUnmatched)
{
    armPool(0);
    nic.setDefaultPool(Pool(0));
    nic.receive(udpPacket(MacAddr::make(8, 8)));
    eq.runAll();
    EXPECT_EQ(nic.drainRx(0).size(), 1u);
}

TEST_F(SriovNicTest, RingDryDropsAndCounts)
{
    armPool(nic.vfPool(0), /*bufs=*/1);
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    EXPECT_EQ(nic.drainRx(nic.vfPool(0)).size(), 1u);
    EXPECT_EQ(nic.poolStats(nic.vfPool(0)).rx_drop_ring.value(), 1u);
}

TEST_F(SriovNicTest, BusMasterOffDrops)
{
    // Pool armed but bus mastering left disabled on the VF.
    iommu.attach(nic.functionOf(nic.vfPool(0)).rid(), map);
    nic.rxRing(nic.vfPool(0)).post(0);
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    EXPECT_EQ(nic.poolStats(nic.vfPool(0)).rx_drop_master.value(), 1u);
}

TEST_F(SriovNicTest, IommuFaultDrops)
{
    enableMaster(nic.functionOf(nic.vfPool(0)));
    // RID not attached to any domain: DMA must fault, not land.
    nic.rxRing(nic.vfPool(0)).post(0);
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    EXPECT_EQ(nic.poolStats(nic.vfPool(0)).rx_drop_iommu.value(), 1u);
    EXPECT_EQ(iommu.faults().value(), 1u);
}

TEST_F(SriovNicTest, ItrThrottlesInterruptRate)
{
    armPool(nic.vfPool(0), 256);
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.setItr(nic.vfPool(0), 1000);    // 1 kHz

    // MSI-X entry armed so interrupts can fire.
    auto &vf = *nic.vf(0);
    int fired = 0;
    vf.setMsiSink([&](pci::Rid, const pci::MsiMessage &) { ++fired; });
    vf.msix()->programEntry(0, pci::MsiMessage::forVector(0, 0x41));
    vf.msix()->maskEntry(0, false);
    vf.msix()->setEnable(true);

    // 100 frames over 10 ms: at 1 kHz at most ~11 interrupts.
    for (int i = 0; i < 100; ++i) {
        eq.scheduleIn(sim::Time::us(100 * i), [this]() {
            nic.receive(udpPacket(MacAddr::make(1, 1)));
        });
    }
    eq.runAll();
    EXPECT_GE(fired, 9);
    EXPECT_LE(fired, 12);
    EXPECT_EQ(nic.drainRx(nic.vfPool(0)).size(), 100u);
}

TEST_F(SriovNicTest, InternalLoopbackCrossesDmaTwice)
{
    armPool(nic.vfPool(0));
    armPool(nic.vfPool(1));
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.setPoolFilter(nic.vfPool(1), MacAddr::make(1, 2));

    std::uint64_t before = nic.dma().transfers();
    nic.transmit(nic.vfPool(0), udpPacket(MacAddr::make(1, 2)));
    eq.runAll();
    EXPECT_EQ(nic.dma().transfers() - before, 2u);    // fetch + deliver
    EXPECT_EQ(nic.drainRx(nic.vfPool(1)).size(), 1u);
    EXPECT_EQ(nic.poolStats(nic.vfPool(0)).tx_frames.value(), 1u);
}

TEST_F(SriovNicTest, TxBacklogCapDrops)
{
    armPool(nic.vfPool(0));
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    for (std::size_t i = 0; i < NicPort::kTxBacklogCap + 100; ++i)
        nic.transmit(nic.vfPool(0), udpPacket(MacAddr::make(9, 9), 64));
    EXPECT_GT(nic.poolStats(nic.vfPool(0)).tx_dropped.value(), 0u);
    eq.runAll();
}

TEST_F(SriovNicTest, MailboxPerVf)
{
    MboxMessage msg;
    msg.type = MboxMessage::Type::SetMac;
    msg.payload = 42;
    int pf_got = 0;
    nic.mailbox(0).to_pf.setDoorbell(
        [&](const MboxMessage &m) { pf_got += m.payload == 42; });
    EXPECT_TRUE(nic.mailbox(0).to_pf.post(msg));
    EXPECT_EQ(pf_got, 1);
}

TEST(VmdqNic, QueuesShareThePfRid)
{
    sim::EventQueue eq;
    VmdqNic nic(eq, "vmdq", pci::Bdf{2, 0, 0});
    EXPECT_EQ(nic.queueCount(), 8u);
    for (unsigned q = 0; q < nic.queueCount(); ++q)
        EXPECT_EQ(nic.functionOf(Pool(q)).rid(), nic.pf().rid());
}

TEST(VmdqNic, PerQueueMsixEntries)
{
    sim::EventQueue eq;
    VmdqNic nic(eq, "vmdq", pci::Bdf{2, 0, 0});
    nic.pf().config().write(pci::cfg::kCommand,
                            pci::cfg::kCmdMemEnable
                                | pci::cfg::kCmdBusMaster,
                            2);
    std::vector<std::uint8_t> vecs;
    nic.pf().setMsiSink([&](pci::Rid, const pci::MsiMessage &m) {
        vecs.push_back(m.vector());
    });
    auto &mx = *nic.pf().msix();
    mx.setEnable(true);
    for (unsigned q = 0; q < 3; ++q) {
        mx.programEntry(q, pci::MsiMessage::forVector(0, 0x40 + q));
        mx.maskEntry(q, false);
    }
    nic.rxRing(1).post(0);
    nic.setPoolFilter(1, MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::make(1, 1)));
    eq.runAll();
    ASSERT_EQ(vecs.size(), 1u);
    EXPECT_EQ(vecs[0], 0x41);
}

TEST(PlainNic, SinglePool)
{
    sim::EventQueue eq;
    PlainNic nic(eq, "eth", pci::Bdf{3, 0, 0});
    EXPECT_EQ(nic.poolCount(), 1u);
    EXPECT_EQ(&nic.functionOf(0), &nic.pf());
}

TEST_F(SriovNicTest, BroadcastWithoutFilterIsDropped)
{
    armPool(nic.vfPool(0));
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.receive(udpPacket(MacAddr::broadcast()));
    eq.runAll();
    EXPECT_EQ(nic.rxDropNoMatch(), 1u);
}

TEST_F(SriovNicTest, ReenableRebuildsVfs)
{
    nic.sriovCap().setVfEnable(false);
    EXPECT_EQ(nic.numVfs(), 0u);
    nic.sriovCap().setNumVfs(5);
    nic.sriovCap().setVfEnable(true);
    EXPECT_EQ(nic.numVfs(), 5u);
    EXPECT_EQ(nic.poolCount(), 6u);
    // Fresh VFs come up without bus mastering.
    EXPECT_FALSE(nic.vf(4)->busMasterEnabled());
}

TEST_F(SriovNicTest, VlanTaggedSteering)
{
    armPool(nic.vfPool(0));
    armPool(nic.vfPool(1));
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1), 10);
    nic.setPoolFilter(nic.vfPool(1), MacAddr::make(1, 1), 20);
    Packet p = udpPacket(MacAddr::make(1, 1));
    p.vlan = 20;
    nic.receive(p);
    eq.runAll();
    EXPECT_EQ(nic.drainRx(nic.vfPool(1)).size(), 1u);
    EXPECT_EQ(nic.rxPending(nic.vfPool(0)), 0u);
}

TEST_F(SriovNicTest, ItrZeroMeansImmediateInterrupts)
{
    armPool(nic.vfPool(0), 64);
    nic.setPoolFilter(nic.vfPool(0), MacAddr::make(1, 1));
    nic.setItr(nic.vfPool(0), 0);
    auto &vf = *nic.vf(0);
    int fired = 0;
    vf.setMsiSink([&](pci::Rid, const pci::MsiMessage &) { ++fired; });
    vf.msix()->programEntry(0, pci::MsiMessage::forVector(0, 0x41));
    vf.msix()->maskEntry(0, false);
    vf.msix()->setEnable(true);
    for (int i = 0; i < 5; ++i) {
        nic.receive(udpPacket(MacAddr::make(1, 1)));
        eq.runAll();    // complete each DMA before the next arrival
    }
    EXPECT_EQ(fired, 5);
}
