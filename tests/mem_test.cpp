/**
 * @file
 * Unit tests for the memory subsystem: machine memory, guest-physical
 * maps with dirty logging, IOMMU translation/faults, DMA engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "mem/dma_engine.hpp"
#include "mem/guest_phys_map.hpp"
#include "mem/iommu.hpp"
#include "mem/machine_memory.hpp"
#include "sim/random.hpp"

using namespace sriov;
using namespace sriov::mem;

TEST(MachineMemory, AllocatesDisjointRegions)
{
    MachineMemory mm(1 << 20);
    Addr a = mm.allocate(8192, "a");
    Addr b = mm.allocate(4096, "b");
    EXPECT_NE(a, b);
    EXPECT_GE(b, a + 8192);
    EXPECT_EQ(mm.ownerOf(a), "a");
    EXPECT_EQ(mm.ownerOf(a + 8191), "a");
    EXPECT_EQ(mm.ownerOf(b), "b");
    EXPECT_EQ(mm.ownerOf(b + 4096), "");
}

TEST(MachineMemory, RoundsToPages)
{
    MachineMemory mm(1 << 20);
    Addr a = mm.allocate(1, "tiny");
    Addr b = mm.allocate(1, "tiny2");
    EXPECT_EQ(b - a, kPageSize);
}

TEST(MachineMemoryDeathTest, ExhaustionIsFatal)
{
    MachineMemory mm(4 * kPageSize);
    mm.allocate(2 * kPageSize, "x");
    EXPECT_DEATH(mm.allocate(4 * kPageSize, "y"), "exhausted");
}

TEST(MachineMemory, PokePeek)
{
    MachineMemory mm(1 << 20);
    mm.poke64(0x1000, 0xabcd);
    EXPECT_EQ(mm.peek64(0x1000), 0xabcdu);
    EXPECT_EQ(mm.peek64(0x2000), 0u);
}

TEST(GuestPhysMap, TranslateWithinPage)
{
    GuestPhysMap m("g");
    m.mapRange(0x10000, 0x500000, 2 * kPageSize);
    EXPECT_EQ(m.translate(0x10000), 0x500000u);
    EXPECT_EQ(m.translate(0x10123), 0x500123u);
    EXPECT_EQ(m.translate(0x11000), 0x501000u);
    EXPECT_FALSE(m.translate(0x12000).has_value());
}

TEST(GuestPhysMap, UnmapRemovesPages)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, 4 * kPageSize);
    m.unmapRange(kPageSize, kPageSize);
    EXPECT_TRUE(m.translate(0).has_value());
    EXPECT_FALSE(m.translate(kPageSize).has_value());
    EXPECT_TRUE(m.translate(2 * kPageSize).has_value());
}

TEST(GuestPhysMap, UnalignedUnmapClearsEveryPageItTouches)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, 4 * kPageSize);
    // 0x800..0x17ff touches pages 0 and 1.
    m.unmapRange(0x800, kPageSize);
    EXPECT_FALSE(m.translate(0).has_value());
    EXPECT_FALSE(m.translate(kPageSize).has_value());
    EXPECT_TRUE(m.translate(2 * kPageSize).has_value());
    EXPECT_EQ(m.mappedPages(), 2u);
    // An empty range unmaps nothing, even mid-page.
    m.unmapRange(2 * kPageSize + 0x10, 0);
    EXPECT_EQ(m.mappedPages(), 2u);
    // A range reaching past the table's end stops at it.
    m.unmapRange(3 * kPageSize + 1, 64 * kPageSize);
    EXPECT_EQ(m.mappedPages(), 1u);
    EXPECT_TRUE(m.translate(2 * kPageSize).has_value());
}

TEST(GuestPhysMap, ReadOnlyMappings)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, kPageSize, /*writable=*/false);
    EXPECT_FALSE(m.writable(0));
    EXPECT_TRUE(m.translate(0).has_value());
}

TEST(GuestPhysMap, DirtyLogTracksAndDrains)
{
    GuestPhysMap m("g");
    m.mapRange(0, 0x100000, 8 * kPageSize);
    m.markDirty(0);    // log disabled: ignored
    EXPECT_EQ(m.dirtyPageCount(), 0u);

    m.enableDirtyLog();
    m.markDirty(0);
    m.markDirty(123);    // same page
    m.markDirty(2 * kPageSize);
    EXPECT_EQ(m.dirtyPageCount(), 2u);

    auto drained = m.drainDirty();
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(m.dirtyPageCount(), 0u);

    m.markDirtyRange(0, 3 * kPageSize);
    EXPECT_EQ(m.dirtyPageCount(), 3u);
    m.drainDirty();

    // A range that starts mid-page dirties every page it touches.
    m.markDirtyRange(0x800, 0x900);
    EXPECT_EQ(m.drainDirty(), (std::vector<Addr>{0, 1}));

    m.markDirty(0);
    m.disableDirtyLog();
    EXPECT_EQ(m.dirtyPageCount(), 0u);
}

class IommuTest : public ::testing::Test
{
  protected:
    IommuTest()
    {
        map.mapRange(0, 0x100000, 4 * kPageSize);
        map.mapRange(0x10000, 0x200000, kPageSize, /*writable=*/false);
        iommu.attach(0x100, map);
    }

    GuestPhysMap map{"guest"};
    Iommu iommu;
};

TEST_F(IommuTest, TranslatesAttachedRid)
{
    auto r = iommu.translate(0x100, 0x1234, false);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.mpa, 0x101234u);
}

TEST_F(IommuTest, NoContextFault)
{
    auto r = iommu.translate(0x200, 0, false);
    EXPECT_EQ(r.fault, Iommu::Fault::NoContext);
    EXPECT_EQ(iommu.faults().value(), 1u);
}

TEST_F(IommuTest, NotPresentFault)
{
    auto r = iommu.translate(0x100, 0x900000, true);
    EXPECT_EQ(r.fault, Iommu::Fault::NotPresent);
}

TEST_F(IommuTest, WriteProtectionFault)
{
    EXPECT_TRUE(iommu.translate(0x100, 0x10000, false).ok());
    auto r = iommu.translate(0x100, 0x10000, true);
    EXPECT_EQ(r.fault, Iommu::Fault::WriteProtected);
}

TEST_F(IommuTest, DmaWriteMarksDirty)
{
    map.enableDirtyLog();
    iommu.translate(0x100, 0x42, true);
    EXPECT_EQ(map.dirtyPageCount(), 1u);
    iommu.translate(0x100, 0x43, false);    // reads do not dirty
    EXPECT_EQ(map.dirtyPageCount(), 1u);
}

TEST_F(IommuTest, DetachRestoresNoContext)
{
    iommu.detach(0x100);
    EXPECT_FALSE(iommu.attached(0x100));
    EXPECT_EQ(iommu.translate(0x100, 0, false).fault,
              Iommu::Fault::NoContext);
}

TEST_F(IommuTest, TranslateRangeChecksEveryPage)
{
    // Pages 0..3 mapped; a 5-page range must fault.
    EXPECT_TRUE(iommu.translateRange(0x100, 0, 4 * kPageSize, false).ok());
    EXPECT_EQ(iommu.translateRange(0x100, 0, 5 * kPageSize, false).fault,
              Iommu::Fault::NotPresent);
    // Starting mid-page 3, one page of length reaches unmapped page 4.
    EXPECT_TRUE(iommu.translateRange(0x100, 0x3800, 0x800, false).ok());
    EXPECT_EQ(iommu.translateRange(0x100, 0x3800, 0x1000, false).fault,
              Iommu::Fault::NotPresent);
}

// ---------------------------------------------------------------------------
// Property: seeded random sequences of attach/detach (RIDs on several
// buses), map/remap/unmap (read-only pages included), translations and
// dirty-log use, checked after every step against a reference model
// built from ordered maps.
// ---------------------------------------------------------------------------

namespace {

struct RemapModel
{
    struct Page
    {
        Addr mpa_page;
        bool writable;
    };
    struct Domain
    {
        std::map<Addr, Page> pages;    // gpa page -> entry
        bool log = false;
        std::set<Addr> dirty;
    };

    std::vector<Domain> doms;
    std::map<pci::Rid, std::size_t> ctx;    // rid -> index into doms
    std::uint64_t faults = 0;
    std::uint64_t translations = 0;

    Iommu::Result
    translate(pci::Rid rid, Addr gpa, bool is_write)
    {
        ++translations;
        auto c = ctx.find(rid);
        if (c == ctx.end()) {
            ++faults;
            return {Iommu::Fault::NoContext, 0};
        }
        Domain &d = doms[c->second];
        auto p = d.pages.find(gpa / kPageSize);
        if (p == d.pages.end()) {
            ++faults;
            return {Iommu::Fault::NotPresent, 0};
        }
        if (is_write && !p->second.writable) {
            ++faults;
            return {Iommu::Fault::WriteProtected, 0};
        }
        if (is_write && d.log)
            d.dirty.insert(gpa / kPageSize);
        return {Iommu::Fault::None,
                p->second.mpa_page * kPageSize + gpa % kPageSize};
    }

    /** First address of each page [gpa, gpa + len) touches, the first
     *  fault wins; an empty range is gpa alone. */
    Iommu::Result
    translateRange(pci::Rid rid, Addr gpa, Addr len, bool is_write)
    {
        Iommu::Result first = translate(rid, gpa, is_write);
        const Addr end = gpa + std::max<Addr>(len, 1);
        for (Addr a = (gpa / kPageSize + 1) * kPageSize;
             first.ok() && a < end; a += kPageSize) {
            Iommu::Result r = translate(rid, a, is_write);
            if (!r.ok())
                return r;
        }
        return first;
    }
};

} // namespace

TEST(IommuProperty, RandomOpsMatchReferenceModel)
{
    constexpr std::size_t kDomains = 3;
    // Several buses, including the ends of both index ranges.
    const pci::Rid kRids[] = {0x0000, 0x0001, 0x00ff, 0x0100,
                              0x0108, 0x0708, 0x7f10, 0xff07};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        sim::Random rng(seed);
        std::vector<GuestPhysMap> maps;
        for (std::size_t i = 0; i < kDomains; ++i)
            maps.emplace_back("d" + std::to_string(i));
        Iommu iommu;
        RemapModel model;
        model.doms.resize(kDomains);

        auto pick = [&rng](std::uint64_t n) {
            return rng.uniformInt(0, n - 1);
        };
        // Maps land on low pages or from 1 MiB up, where domains
        // allocate; accesses also reach far past any map.
        auto mappable = [&]() -> Addr {
            return pick(3) == 0 ? 0x100000 + pick(24 * kPageSize)
                                : pick(48 * kPageSize);
        };
        auto gpa = [&]() -> Addr {
            return pick(8) == 0 ? 0xfee00000 + pick(kPageSize) : mappable();
        };
        auto expectSame = [](Iommu::Result got, Iommu::Result want) {
            EXPECT_EQ(got.fault, want.fault);
            EXPECT_EQ(got.mpa, want.mpa);
        };

        for (int step = 0; step < 1500; ++step) {
            SCOPED_TRACE(testing::Message() << "step " << step);
            const pci::Rid rid = kRids[pick(std::size(kRids))];
            const std::size_t d = pick(kDomains);
            GuestPhysMap &map = maps[d];
            RemapModel::Domain &md = model.doms[d];
            const bool is_write = pick(2) != 0;
            switch (pick(12)) {
            case 0:
                iommu.attach(rid, map);
                model.ctx[rid] = d;
                break;
            case 1:
                iommu.detach(rid);
                model.ctx.erase(rid);
                break;
            case 2:
            case 3: {
                // Page-aligned gpa and mpa; a length that may end
                // mid-page; remaps of mapped pages included.
                const Addr at = pageBase(mappable());
                const Addr mpa_page = 1 + pick(1 << 20);
                const Addr len = 1 + pick(6 * kPageSize);
                const bool writable = pick(4) != 0;
                map.mapRange(at, mpa_page * kPageSize, len, writable);
                for (Addr off = 0; off < len; off += kPageSize)
                    md.pages[(at + off) / kPageSize] = {
                        mpa_page + off / kPageSize, writable};
                break;
            }
            case 4: {
                // Unaligned starts too: every page the range touches
                // goes, and an empty range removes nothing.
                const Addr at = pick(2) == 0 ? pageBase(mappable())
                                             : mappable();
                const Addr len = pick(4 * kPageSize);
                map.unmapRange(at, len);
                for (Addr page = at / kPageSize;
                     len != 0 && page <= (at + len - 1) / kPageSize; ++page)
                    md.pages.erase(page);
                break;
            }
            case 5:
            case 6:
            case 7: {
                const Addr a = gpa();
                expectSame(iommu.translate(rid, a, is_write),
                           model.translate(rid, a, is_write));
                break;
            }
            case 8: {
                const Addr a = gpa();
                const Addr len = pick(3 * kPageSize);
                expectSame(iommu.translateRange(rid, a, len, is_write),
                           model.translateRange(rid, a, len, is_write));
                break;
            }
            case 9:
                if (pick(3) == 0) {
                    map.disableDirtyLog();
                    md.log = false;
                } else {
                    map.enableDirtyLog();
                    md.log = true;
                }
                md.dirty.clear();
                break;
            case 10: {
                const Addr a = gpa();
                const Addr len = pick(3 * kPageSize);
                map.markDirtyRange(a, len);
                for (Addr x = a; md.log && x < a + len;
                     x = (x / kPageSize + 1) * kPageSize)
                    md.dirty.insert(x / kPageSize);
                break;
            }
            case 11: {
                std::vector<Addr> want(md.dirty.begin(), md.dirty.end());
                md.dirty.clear();
                EXPECT_EQ(map.drainDirty(), want);
                break;
            }
            }

            EXPECT_EQ(iommu.faults().value(), model.faults);
            EXPECT_EQ(iommu.translations().value(), model.translations);
            for (pci::Rid r : kRids) {
                auto c = model.ctx.find(r);
                EXPECT_EQ(iommu.domainOf(r),
                          c == model.ctx.end() ? nullptr : &maps[c->second]);
            }
            for (std::size_t i = 0; i < kDomains; ++i) {
                EXPECT_EQ(maps[i].mappedPages(), model.doms[i].pages.size());
                EXPECT_EQ(maps[i].dirtyPageCount(),
                          model.doms[i].dirty.size());
            }
            if (testing::Test::HasFailure())
                return;
        }
    }
}

TEST(DmaEngine, ServiceTimeMatchesLinkRate)
{
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(1000);
    DmaEngine dma(eq, "d", p);
    // 1000 bytes at 8 Gb/s = 1 us + 1 us overhead.
    EXPECT_EQ(dma.serviceTime(1000), sim::Time::us(2));
}

TEST(DmaEngine, SerializesTransfersFifo)
{
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(0);
    DmaEngine dma(eq, "d", p);
    std::vector<int> order;
    std::vector<sim::Time> at;
    dma.transfer(1000, [&]() { order.push_back(1); at.push_back(eq.now()); });
    dma.transfer(1000, [&]() { order.push_back(2); at.push_back(eq.now()); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(at[0], sim::Time::us(1));
    EXPECT_EQ(at[1], sim::Time::us(2));
    EXPECT_EQ(dma.bytesMoved(), 2000u);
    EXPECT_EQ(dma.transfers(), 2u);
}

TEST(DmaEngine, DefaultsModelThe82576Link)
{
    sim::EventQueue eq;
    DmaEngine dma(eq, "d");
    // A 1518-byte frame takes ~0.94us overhead + ~1.81us payload: the
    // double crossing of the inter-VM path lands near 2.8 Gb/s at
    // 4000-byte messages (paper Section 6.3).
    sim::Time one = dma.serviceTime(4092);
    double inter_vm_bps = 4000 * 8 / (2 * one.toSeconds());
    EXPECT_NEAR(inter_vm_bps / 1e9, 2.8, 0.4);
}

// ---------------------------------------------------------------------------
// DmaEngine event thinning: analytic completions must match the exact
// one-transfer-in-service implementation instant for instant.
// ---------------------------------------------------------------------------

TEST(DmaEngine, ThinCompletionInstantsMatchExactMode)
{
    auto run = [](bool thin) {
        sim::EventQueue eq(thin);
        DmaEngine::Params p;
        p.link_bps = 8e9;
        p.per_dma_overhead = sim::Time::ns(100);
        DmaEngine dma(eq, "d", p);
        std::vector<sim::Time> at;
        auto submit = [&](std::uint64_t bytes) {
            dma.transfer(bytes, [&]() { at.push_back(eq.now()); });
        };
        // A backlog burst, then a transfer after the link went idle.
        submit(1000);
        submit(64);
        submit(4000);
        eq.scheduleAt(sim::Time::ms(1), [&submit] { submit(500); });
        eq.runAll();
        EXPECT_EQ(dma.bytesMoved(), 5564u);
        EXPECT_EQ(dma.transfers(), 4u);
        EXPECT_EQ(dma.busyTime(), dma.serviceTime(1000)
                                      + dma.serviceTime(64)
                                      + dma.serviceTime(4000)
                                      + dma.serviceTime(500));
        return at;
    };
    std::vector<sim::Time> thin = run(true);
    std::vector<sim::Time> exact = run(false);
    ASSERT_EQ(thin.size(), 4u);
    EXPECT_EQ(thin, exact);
}

TEST(DmaEngine, ReserveReturnsFifoCompletionInstants)
{
    sim::EventQueue eq;
    DmaEngine::Params p;
    p.link_bps = 8e9;
    p.per_dma_overhead = sim::Time::ns(0);
    DmaEngine dma(eq, "d", p);
    // Back-to-back reservations serialize on the link.
    EXPECT_EQ(dma.reserve(1000), sim::Time::us(1));
    EXPECT_EQ(dma.reserve(1000), sim::Time::us(2));
    // The backlog is visible as queue depth until instants pass.
    EXPECT_EQ(dma.queueDepth(), 1u);
    eq.scheduleAt(sim::Time::us(3), [&dma] {
        EXPECT_EQ(dma.queueDepth(), 0u);
        // The link is idle again: service restarts from now.
        EXPECT_EQ(dma.reserve(1000), sim::Time::us(4));
    });
    eq.runAll();
    EXPECT_EQ(dma.transfers(), 3u);
}

TEST(DmaEngineDeathTest, ReservePanicsInExactMode)
{
    sim::EventQueue eq(/*thin=*/false);
    DmaEngine dma(eq, "d");
    EXPECT_DEATH(dma.reserve(100), "reserve");
}
