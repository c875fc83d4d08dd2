/**
 * @file
 * Unit tests for the core layer: the IOVM (host-side VF hot-add +
 * virtual config space), optimization presets, the AIC factory, DNIS
 * orchestration, and the experiment helpers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/determinism.hpp"
#include "core/aic.hpp"
#include "core/dnis.hpp"
#include "core/experiment.hpp"
#include "core/iov_manager.hpp"
#include "core/optimizations.hpp"
#include "core/sweep_runner.hpp"
#include "core/testbed.hpp"
#include "obs/json.hpp"
#include "vmm/hotplug_controller.hpp"

using namespace sriov;
using namespace sriov::core;

class IovmRig : public ::testing::Test
{
  protected:
    IovmRig()
        : hv(eq), iovm(hv), nic(eq, "eth0", pci::Bdf{1, 0, 0}),
          dom0_kern(hv, hv.dom0()), pf(dom0_kern, nic)
    {
        nic.setIommu(&hv.iommu());
        iovm.registerNic(nic);
    }

    sim::EventQueue eq;
    vmm::Hypervisor hv;
    IovManager iovm;
    nic::SriovNic nic;
    guest::GuestKernel dom0_kern;
    drivers::PfDriver pf;
};

TEST_F(IovmRig, HotAddsVfsWhenPfEnablesThem)
{
    EXPECT_TRUE(iovm.hostVisibleVfs().empty());
    pf.enableVfs(3);
    EXPECT_EQ(iovm.hostVisibleVfs().size(), 3u);
    // VFs are reachable by RID through the root complex (hot-added)…
    EXPECT_NE(hv.rootComplex().byRid(nic.vf(0)->rid()), nullptr);
    // …but an ordinary vendor-ID scan still cannot see them.
    auto scanned = hv.rootComplex().bus(nic.pf().bdf().bus).scan();
    for (auto *fn : scanned)
        EXPECT_FALSE(fn->isVf());
}

TEST_F(IovmRig, VfDisableUnplugsCleanly)
{
    pf.enableVfs(2);
    pci::Rid rid0 = nic.vf(0)->rid();
    pf.disableVfs();
    EXPECT_TRUE(iovm.hostVisibleVfs().empty());
    EXPECT_EQ(hv.rootComplex().byRid(rid0), nullptr);
}

TEST_F(IovmRig, AssignBuildsVirtualConfigAndIommuContext)
{
    pf.enableVfs(1);
    auto &dom = hv.createDomain("vm0", vmm::DomainType::Hvm, 64 << 20);
    auto &cfg = iovm.assign(dom, nic, 0);
    EXPECT_TRUE(hv.iommu().attached(nic.vf(0)->rid()));
    EXPECT_EQ(iovm.configOf(*nic.vf(0)), &cfg);
    iovm.deassign(dom, nic, 0);
    EXPECT_FALSE(hv.iommu().attached(nic.vf(0)->rid()));
    EXPECT_EQ(iovm.configOf(*nic.vf(0)), nullptr);
}

TEST_F(IovmRig, VirtualConfigSynthesizesTrimmedFields)
{
    pf.enableVfs(1);
    auto &dom = hv.createDomain("vm0", vmm::DomainType::Hvm, 64 << 20);
    auto &cfg = iovm.assign(dom, nic, 0);
    // Vendor comes from the PF, device id from the SR-IOV capability:
    // the guest can enumerate the VF as an ordinary function.
    EXPECT_EQ(cfg.read(pci::cfg::kVendorId, 2), 0x8086u);
    EXPECT_EQ(cfg.read(pci::cfg::kDeviceId, 2), 0x10cau);
    EXPECT_EQ(cfg.read(pci::cfg::kVendorId, 4), 0x10ca8086u);
}

TEST_F(IovmRig, VirtualConfigFiltersHeaderWrites)
{
    pf.enableVfs(1);
    auto &dom = hv.createDomain("vm0", vmm::DomainType::Hvm, 64 << 20);
    auto &cfg = iovm.assign(dom, nic, 0);
    cfg.write(pci::cfg::kBar0, 0xdeadbeef, 4);
    EXPECT_EQ(cfg.deniedWrites(), 1u);
    cfg.write(pci::cfg::kCommand, pci::cfg::kCmdBusMaster, 2);
    EXPECT_TRUE(nic.vf(0)->busMasterEnabled());
}

TEST(Optimizations, PresetsComposeAsNamed)
{
    EXPECT_EQ(OptimizationSet::none().describe(), "baseline");
    EXPECT_EQ(OptimizationSet::maskOnly().describe(), "+MSI");
    EXPECT_EQ(OptimizationSet::maskEoi().describe(), "+MSI+EOI");
    EXPECT_EQ(OptimizationSet::all().describe(), "+MSI+EOI+AIC");
    auto checked = OptimizationSet::maskEoi();
    checked.eoi_accel_check = true;
    EXPECT_EQ(checked.describe(), "+MSI+EOI(chk)");
}

TEST(Optimizations, ApplyProgramsTheHypervisor)
{
    sim::EventQueue eq;
    vmm::Hypervisor hv(eq);
    OptimizationSet::none().apply(hv);
    EXPECT_FALSE(hv.opts().mask_unmask_accel);
    EXPECT_FALSE(hv.opts().eoi_accel);
    OptimizationSet::all().apply(hv);
    EXPECT_TRUE(hv.opts().mask_unmask_accel);
    EXPECT_TRUE(hv.opts().eoi_accel);
}

TEST(AicFactory, ParsesSpecs)
{
    EXPECT_EQ(makeItrPolicy("AIC")->name(), "AIC");
    EXPECT_EQ(makeItrPolicy("adaptive")->name(), "adaptive");
    EXPECT_EQ(makeItrPolicy("20kHz")->name(), "20kHz");
    auto p = makeItrPolicy("2500");
    EXPECT_DOUBLE_EQ(p->updateHz(0, 0), 2500);
}

TEST(AicFactory, FrequencyEquation)
{
    // bufs = min(64, 1024) = 64; IF = pps*r/bufs floored at lif.
    EXPECT_NEAR(aicFrequency(81200, 64, 1024, 1.2, 1000), 1522.5, 0.1);
    EXPECT_DOUBLE_EQ(aicFrequency(100, 64, 1024, 1.2, 1000), 1000);
    EXPECT_DOUBLE_EQ(aicFrequency(80000, 128, 64, 1.0, 0), 1250);
}

TEST(TableFormat, AlignsColumns)
{
    Table t({"a", "longer"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "2"});
    std::string s = t.toString();
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("yyyy"), std::string::npos);
    EXPECT_EQ(gbps(9.57e9), "9.57");
    EXPECT_EQ(cpuPct(193.42), "193.4%");
}

class DnisRig : public ::testing::Test
{
  protected:
    DnisRig()
    {
        Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::all();
        p.guest_mem = 64ull << 20;
        p.netback_threads = 2;
        tb = std::make_unique<Testbed>(p);
        g = &tb->addGuest(vmm::DomainType::Hvm, Testbed::NetMode::Sriov,
                          guest::KernelVersion::v2_6_28,
                          /*bond_vf_with_pv=*/true);
        hpc = std::make_unique<vmm::VirtualHotplugController>(*g->dom);
        slot = &hpc->addSlot("vf-slot");
        dnis = std::make_unique<Dnis>(tb->server(), tb->migration());
        dnis->manage(*g->dom, *g->vf, *g->pv, *g->bond, *slot);
    }

    std::unique_ptr<Testbed> tb;
    Testbed::Guest *g = nullptr;
    std::unique_ptr<vmm::VirtualHotplugController> hpc;
    pci::HotplugSlot *slot = nullptr;
    std::unique_ptr<Dnis> dnis;
};

TEST_F(DnisRig, RuntimeUsesTheVf)
{
    EXPECT_EQ(dnis->bond()->active(), g->vf.get());
    EXPECT_TRUE(slot->occupied());
}

TEST_F(DnisRig, FullMigrationSequence)
{
    tb->startUdpToGuest(*g, 1e9);
    tb->run(sim::Time::sec(1));

    Dnis::Params dp;
    dp.mig.background_dirty_pps = 500;
    Dnis::Report report{};
    bool done = false;
    dnis->migrate(dp, [&](const Dnis::Report &r) {
        report = r;
        done = true;
    });

    // During the switch window the bond briefly sits on the VF while
    // it quiesces; afterwards the PV NIC carries traffic.
    tb->run(dp.remove_ack_delay + dp.vf_quiesce + sim::Time::ms(50));
    EXPECT_EQ(dnis->bond()->active(), g->pv.get());
    EXPECT_FALSE(g->vf->isUp());

    tb->run(sim::Time::sec(30));
    ASSERT_TRUE(done);
    // Events in order: switch -> pv -> pause -> resume -> vf back.
    EXPECT_LT(report.switch_started, report.switched_to_pv);
    EXPECT_LT(report.switched_to_pv, report.mig.paused_at);
    EXPECT_LT(report.mig.paused_at, report.mig.resumed_at);
    EXPECT_LT(report.mig.resumed_at, report.vf_restored);
    // Bond is back on the VF with the link up.
    EXPECT_EQ(dnis->bond()->active(), g->vf.get());
    EXPECT_TRUE(g->vf->isUp());
    EXPECT_TRUE(slot->occupied());
    EXPECT_GE(dnis->bond()->failovers(), 2u);
}

TEST_F(DnisRig, ConnectivitySurvivesTheSwitch)
{
    tb->startUdpToGuest(*g, 1e9);
    tb->run(sim::Time::sec(1));

    Dnis::Params dp;
    bool done = false;
    dnis->migrate(dp, [&](const Dnis::Report &) { done = true; });
    // Wait until the PV path is active, then verify traffic flows
    // during pre-copy (the whole point of DNIS).
    tb->run(sim::Time::sec(1));
    std::uint64_t before = g->rx->rxBytes();
    tb->run(sim::Time::sec(2));
    EXPECT_GT(g->rx->rxBytes(), before);
    tb->run(sim::Time::sec(40));
    EXPECT_TRUE(done);
}

// --- SweepRunner ---------------------------------------------------------

TEST(SweepRunner, SequentialWhenJobsIsOne)
{
    SweepRunner sr(1);
    std::vector<int> order;
    sr.run(5, [&](std::size_t i) { order.push_back(int(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SweepRunner, ZeroJobsDegradesToSequential)
{
    SweepRunner sr(0);
    EXPECT_EQ(sr.jobs(), 1u);
    int calls = 0;
    sr.run(3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 3);
}

TEST(SweepRunner, ParallelCoversEveryIndexExactlyOnce)
{
    SweepRunner sr(4);
    std::vector<std::atomic<int>> hits(64);
    sr.run(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, ParallelSimulationsMatchSequentialDigests)
{
    // The determinism contract: each case is an independent simulation,
    // so its event-order digest cannot depend on which host thread (or
    // how many) ran it.
    auto runCase = [](std::size_t i) {
        core::Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskOnly();
        core::Testbed tb(p);
        for (std::size_t v = 0; v <= i % 2; ++v) {
            auto &g = tb.addGuest(vmm::DomainType::Hvm,
                                  core::Testbed::NetMode::Sriov);
            tb.startUdpToGuest(g, 200e6);
        }
        tb.run(sim::Time::ms(50));
        return check::RunDigest::of(tb.eq());
    };

    constexpr std::size_t kCases = 4;
    std::vector<check::RunDigest> seq(kCases), par(kCases);
    SweepRunner(1).run(kCases, [&](std::size_t i) { seq[i] = runCase(i); });
    SweepRunner(3).run(kCases, [&](std::size_t i) { par[i] = runCase(i); });
    for (std::size_t i = 0; i < kCases; ++i)
        EXPECT_EQ(seq[i], par[i]) << "case " << i;
}

TEST(SweepRunner, RethrowsLowestIndexError)
{
    SweepRunner sr(4);
    try {
        sr.run(8, [&](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("case-2");
            if (i == 5)
                throw std::runtime_error("case-5");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // What a sequential loop would have surfaced first.
        EXPECT_STREQ(e.what(), "case-2");
    }
}

// --- FigReport::sweep: parallel report merging ---------------------------

namespace {

/** argv for a FigReport: the program name, then @p args. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : strs(std::move(args))
    {
        strs.insert(strs.begin(), "core_test");
        for (std::string &s : strs)
            ptrs.push_back(s.data());
    }
    int argc() { return int(ptrs.size()); }
    char **argv() { return ptrs.data(); }

    std::vector<std::string> strs;
    std::vector<char *> ptrs;
};

/** Sweep 3 small cases (1..3 VMs) under @p args and return the report;
 *  each case's executed events land in @p events and the thread that
 *  ran its body in @p threads. */
std::string
sweepReportJson(std::vector<std::string> args,
                std::vector<std::uint64_t> *events = nullptr,
                std::vector<std::thread::id> *threads = nullptr)
{
    Argv a(std::move(args));
    core::FigReport fr(a.argc(), a.argv(), "figtest",
                       "sweep determinism test");
    std::vector<std::uint64_t> ev(3);
    std::vector<std::thread::id> th(3);
    fr.sweep({"1vm", "2vm", "3vm"}, [&](core::FigCase &c, std::size_t i) {
        core::Testbed::Params p;
        p.num_ports = 1;
        p.opts = OptimizationSet::maskOnly();
        core::Testbed tb(p);
        for (std::size_t v = 0; v <= i; ++v) {
            auto &g = tb.addGuest(vmm::DomainType::Hvm,
                                  core::Testbed::NetMode::Sriov);
            tb.startUdpToGuest(g, 200e6);
        }
        c.instrument(tb);
        c.drive(tb, [&]() { tb.run(sim::Time::ms(50)); });
        c.snapshot(c.label());
        c.addMetric(c.label() + ".events", double(tb.eq().executed()));
        ev[i] = tb.executedEvents();
        th[i] = std::this_thread::get_id();
    });
    if (events)
        *events = ev;
    if (threads)
        *threads = th;
    EXPECT_EQ(fr.finish(), 0);
    return fr.report().toJson();
}

} // namespace

TEST(FigCaseSweep, ParallelReportIsByteIdenticalToSequential)
{
    std::string seq = sweepReportJson({"--jobs=1"});
    std::string par = sweepReportJson({"--jobs=4"});
    EXPECT_FALSE(seq.empty());
    EXPECT_EQ(seq, par);
}

TEST(FigCaseSweep, MergePreservesDeclarationOrder)
{
    for (const char *jobs : {"--jobs=1", "--jobs=4"}) {
        Argv a({jobs});
        core::FigReport fr(a.argc(), a.argv(), "figtest", "order");
        // Workers record in whatever order; the merge must restore
        // declaration order in every section of the report.
        fr.sweep({"case0", "case1", "case2", "case3"},
                 [&](core::FigCase &c, std::size_t i) {
                     core::Testbed::Params p;
                     p.num_ports = 1;
                     core::Testbed tb(p);
                     c.instrument(tb);
                     c.snapshot(c.label());
                     c.addMetric(c.label() + ".index", double(i));
                 });
        std::string json = fr.report().toJson();
        for (const char *section : {"\"metrics\"", "\"snapshots\""}) {
            std::size_t at = json.find(section);
            ASSERT_NE(at, std::string::npos) << jobs << " " << section;
            std::size_t p0 = json.find("case0", at);
            std::size_t p1 = json.find("case1", at);
            std::size_t p2 = json.find("case2", at);
            std::size_t p3 = json.find("case3", at);
            ASSERT_NE(p0, std::string::npos) << jobs << " " << section;
            EXPECT_LT(p0, p1) << jobs << " " << section;
            EXPECT_LT(p1, p2) << jobs << " " << section;
            EXPECT_LT(p2, p3) << jobs << " " << section;
        }
    }
}

TEST(FigCaseSweep, TraceAndPerfFollowTheCaseList)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::path(::testing::TempDir()) / "figcase_sweep_trace";
    fs::remove_all(dir);
    fs::create_directories(dir);

    std::vector<std::uint64_t> events;
    std::vector<std::thread::id> threads;
    std::string traced = sweepReportJson(
        {"--out=" + dir.string(), "--trace", "--pathtrace", "--jobs=4"},
        &events, &threads);

    // --trace forces one thread: every body ran on the calling thread.
    for (const std::thread::id &t : threads)
        EXPECT_EQ(t, std::this_thread::get_id());
    // Exactly one Chrome trace, named after the bench.
    std::vector<std::string> traces;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::string name = e.path().filename().string();
        if (name.ends_with(".trace.json"))
            traces.push_back(name);
    }
    EXPECT_EQ(traces, std::vector<std::string>{"figtest.trace.json"});
    // One Perfetto file per run: every case's path-trace flows sit
    // beside the first case's CPU spans.
    std::ifstream tin(dir / "figtest.trace.json");
    std::string trace((std::istreambuf_iterator<char>(tin)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
    for (const char *proc : {"pathtrace:1vm", "pathtrace:3vm"})
        EXPECT_NE(trace.find(proc), std::string::npos) << proc;

    // One perf entry per case, in declaration order, each carrying its
    // testbed's executed events.
    std::ifstream in(dir / "figtest.perf.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto doc = obs::JsonValue::parse(text);
    ASSERT_TRUE(doc.has_value());
    const obs::JsonValue *cases = doc->find("cases");
    ASSERT_NE(cases, nullptr);
    ASSERT_EQ(cases->items.size(), 3u);
    const char *labels[] = {"1vm", "2vm", "3vm"};
    for (std::size_t i = 0; i < 3; ++i) {
        const obs::JsonValue &c = cases->items[i];
        ASSERT_NE(c.find("label"), nullptr);
        EXPECT_EQ(c.find("label")->str, labels[i]);
        ASSERT_NE(c.find("events"), nullptr);
        EXPECT_GT(events[i], 0u);
        EXPECT_EQ(std::uint64_t(c.find("events")->number), events[i]);
    }

    // Tracing changes neither the report nor what it measures.
    EXPECT_EQ(traced, sweepReportJson({"--jobs=4"}));
    fs::remove_all(dir);
}
