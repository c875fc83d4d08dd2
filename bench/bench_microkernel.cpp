/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate itself:
 * how fast the event queue, LAPIC, IOMMU and L2 classifier run. These
 * bound how much simulated traffic the figure benches can push per
 * wall-clock second.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "intr/interrupt_router.hpp"
#include "intr/lapic.hpp"
#include "mem/iommu.hpp"
#include "nic/l2_switch.hpp"
#include "nic/sriov_nic.hpp"
#include "nic/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/metric.hpp"
#include "obs/pathtrace.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace sriov;

// ---------------------------------------------------------------------
// Program-wide allocation counter. Replacing the global operator new
// in this TU interposes every heap allocation in the binary, letting
// the event-queue benches prove the inline-capture fast path performs
// zero per-event allocations (the InplaceFn contract).
// ---------------------------------------------------------------------

static std::atomic<std::uint64_t> g_heap_allocs{0};

static std::uint64_t
heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::aligned_alloc(std::size_t(a), (n + std::size_t(a) - 1)
                                                     & ~(std::size_t(a) - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return ::operator new(n, a);
}

// Every replacement delete releases through this one out-of-line call.
// Were std::free inlined into a caller, GCC would see free() applied
// to a pointer from operator new and flag the pair as mismatched
// (-Wmismatched-new-delete), though this TU pairs them by design.
[[gnu::noinline]] static void
releaseBlock(void *p) noexcept
{
    std::free(p);
}

void operator delete(void *p) noexcept { releaseBlock(p); }
void operator delete[](void *p) noexcept { releaseBlock(p); }
void operator delete(void *p, std::size_t) noexcept { releaseBlock(p); }
void operator delete[](void *p, std::size_t) noexcept { releaseBlock(p); }
void operator delete(void *p, std::align_val_t) noexcept { releaseBlock(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    releaseBlock(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    releaseBlock(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    releaseBlock(p);
}

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// Steady-state schedule→run→complete: the queue is reused across
// iterations, so slot chunks, heap storage and tag-digest caches are
// warm — the cost a long-running simulation actually pays per event,
// without the construct/teardown of the bench above.
static void
BM_EventQueueSteadyState(benchmark::State &state)
{
    sim::EventQueue eq;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSteadyState);

// Schedule+cancel churn: timers armed and disarmed without firing
// (the TCP-retransmit pattern). Each iteration arms a window, cancels
// it, then drains so cancelled heap keys are reclaimed.
static void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    sim::EventQueue eq;
    sim::EventHandle handles[64];
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            handles[i] = eq.scheduleIn(sim::Time::us(1 + i), []() {});
        for (int i = 0; i < 64; ++i)
            eq.cancel(handles[i]);
        eq.runAll();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleCancel);

// A 64-byte capture — the InplaceFn inline ceiling for a realistic
// payload (e.g. a packet descriptor). The allocs_per_event counter
// proves the inline path never touches the heap once the queue's
// storage is warm.
static void
BM_EventQueueInlineCapture(benchmark::State &state)
{
    sim::EventQueue eq;
    struct Payload
    {
        char bytes[56];
        std::uint64_t *sink;
    };
    static_assert(sizeof(Payload) == 64, "bench models a 64-byte capture");
    std::uint64_t sink = 0;
    Payload p{};
    p.sink = &sink;
    // Warm the slot chunks and event heap with one full batch so the
    // measured region only sees steady-state behaviour.
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), [p]() { *p.sink += p.bytes[0]; });
    eq.runAll();
    std::uint64_t allocs_before = heapAllocs();
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i),
                          [p]() { *p.sink += p.bytes[0]; });
        benchmark::DoNotOptimize(eq.runAll());
    }
    double events = double(state.iterations()) * 1000.0;
    state.counters["allocs_per_event"] =
        double(heapAllocs() - allocs_before) / (events > 0 ? events : 1);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueInlineCapture);

// The shape of the fluid_scale run between warps: N self-rescheduling
// timers with pairwise incommensurate periods (distinct primes of
// picoseconds near 1 us), so their phases drift and every pop reorders
// the heap, plus N/3 samplers parked about 1 s ahead, deep in the
// heap. The drains above pop time-ordered keys from a shrinking heap;
// here the heap holds a steady N + N/3 keys.
namespace {

struct PeriodicTick
{
    sim::EventQueue *eq;
    sim::Time period;
    const char *tag;

    void operator()() const { eq->scheduleIn(period, *this, tag); }
};

/** The @p n smallest primes above @p from. */
std::vector<std::int64_t>
primesAbove(std::int64_t from, int n)
{
    std::vector<std::int64_t> out;
    for (std::int64_t p = from + 1; int(out.size()) < n; ++p) {
        bool prime = p > 1;
        for (std::int64_t d = 2; prime && d * d <= p; ++d)
            prime = p % d != 0;
        if (prime)
            out.push_back(p);
    }
    return out;
}

} // namespace

static void
BM_EventQueuePeriodic(benchmark::State &state)
{
    static const char *const kTags[] = {"netperf.emit", "nic.itr",
                                        "wire.burst", "cpu.done"};
    const int n = int(state.range(0));
    sim::EventQueue eq;
    const std::vector<std::int64_t> periods = primesAbove(1'000'000, n);
    for (int i = 0; i < n; ++i) {
        PeriodicTick t{&eq, sim::Time::ps(periods[i]), kTags[i % 4]};
        eq.scheduleIn(t.period, t, t.tag);
    }
    for (int i = 0; i < n / 3; ++i) {
        PeriodicTick t{&eq, sim::Time::sec(1) + sim::Time::ps(i),
                       "driver.itr_sample"};
        eq.scheduleIn(t.period, t, t.tag);
    }
    constexpr std::uint64_t kBatch = 1000;
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.runAll(kBatch));
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueuePeriodic)->Arg(8)->Arg(128);

// The shape of the sriov_rx heap: a port's DMA engine keeps about 512
// completions pending, due in order under one tag, beside a few
// periodic timers. Each completion re-arms one a full backlog later,
// so the backlog stays 512 deep and in order. The tag's FIFO lane
// keeps all but its head out of the heap.
namespace {

constexpr int kBacklogDepth = 512;
constexpr sim::Time kBacklogGap = sim::Time::ns(1);

struct BacklogTick
{
    sim::EventQueue *eq;

    void
    operator()() const
    {
        eq->scheduleIn(kBacklogGap * kBacklogDepth, *this, "dma.done");
    }
};

/** Schedule the backlog and three periodic timers on @p eq. */
void
primeFifoBacklog(sim::EventQueue &eq)
{
    for (int i = 0; i < kBacklogDepth; ++i)
        eq.scheduleIn(kBacklogGap * (i + 1), BacklogTick{&eq}, "dma.done");
    static const char *const kTags[] = {"netperf.emit", "nic.itr",
                                        "cpu.done"};
    const std::vector<std::int64_t> periods = primesAbove(100'000, 3);
    for (int i = 0; i < 3; ++i) {
        PeriodicTick t{&eq, sim::Time::ps(periods[i]), kTags[i]};
        eq.scheduleIn(t.period, t, t.tag);
    }
}

} // namespace

static void
BM_EventQueueFifoBacklog(benchmark::State &state)
{
    sim::EventQueue eq;
    primeFifoBacklog(eq);
    constexpr std::uint64_t kBatch = 1000;
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.runAll(kBatch));
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueFifoBacklog);

static void
BM_LapicAcceptEoi(benchmark::State &state)
{
    intr::Lapic lapic;
    lapic.setDeliver([](intr::Vector) {});
    for (auto _ : state) {
        lapic.accept(0x41);
        lapic.eoi();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LapicAcceptEoi);

namespace {

// One VF driver's RX region: 1024 x 2 KiB buffers, mapped as
// Hypervisor::allocGuestBuffer maps them (a page more than the
// buffers span), from 1 MiB up where every domain's allocator starts.
constexpr mem::Addr kRxRegionGpa = 0x100000;
constexpr mem::Addr kRxRegionBytes = 1024 * 2048 + mem::kPageSize;

/** The RID of an 82576-style VF (device 0x10) on bus @p bus. */
pci::Rid
vfRid(unsigned bus)
{
    return pci::Bdf{std::uint8_t(bus), 0x10, 0}.rid();
}

} // namespace

// Seven VFs on separate buses, each with its own domain holding one RX
// region (513 pages), and DMA writes drawn across all of them.
static void
BM_IommuTranslate(benchmark::State &state)
{
    constexpr unsigned kVfs = 7;
    std::vector<mem::GuestPhysMap> doms(kVfs);
    mem::Iommu iommu;
    for (unsigned i = 0; i < kVfs; ++i) {
        doms[i].mapRange(kRxRegionGpa, mem::Addr(i + 1) << 30,
                         kRxRegionBytes);
        iommu.attach(vfRid(1 + i), doms[i]);
    }
    sim::Random rng;
    for (auto _ : state) {
        std::uint64_t r = rng.next();
        mem::Addr gpa = kRxRegionGpa + (r >> 8) % kRxRegionBytes;
        benchmark::DoNotOptimize(
            iommu.translate(vfRid(1 + unsigned(r % kVfs)), gpa, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslate);

// The hot-path cost the observability layer adds when a tap IS
// installed: one log-bucket binary search per sample.
static void
BM_HistogramRecord(benchmark::State &state)
{
    obs::Histogram h;
    sim::Random rng;
    for (auto _ : state)
        h.record(double(rng.next() % 100000) * 0.01);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

static void
BM_RegistrySnapshot(benchmark::State &state)
{
    obs::MetricRegistry reg;
    std::vector<sim::Counter> counters(64);
    for (std::size_t i = 0; i < counters.size(); ++i) {
        counters[i].inc(i);
        reg.add("server.nic0.vf" + std::to_string(i) + ".rx_frames",
                &counters[i]);
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(reg.snapshot());
    state.SetItemsProcessed(state.iterations() * counters.size());
}
BENCHMARK(BM_RegistrySnapshot);

// Per-event overhead of an attached ExecHook vs the bare queue: the
// disabled path is one null check, the enabled path two virtual calls.
namespace {

struct NoopExecHook final : sim::EventQueue::ExecHook
{
    void onEventStart(sim::Time, std::uint64_t, const char *) override {}
    void onEventEnd(sim::Time, std::uint64_t, const char *) override {}
};

} // namespace

static void
BM_EventQueueWithExecHook(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        NoopExecHook hook;
        if (state.range(0))
            eq.addExecHook(&hook);
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        benchmark::DoNotOptimize(eq.runAll());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueWithExecHook)->Arg(0)->Arg(1);

static void
BM_L2Classify(benchmark::State &state)
{
    nic::L2Switch l2;
    for (unsigned i = 0; i < 64; ++i)
        l2.setFilter(nic::MacAddr::make(1, std::uint16_t(i)), 0,
                     nic::Pool(i % 8));
    nic::Packet pkt;
    sim::Random rng;
    for (auto _ : state) {
        pkt.dst = nic::MacAddr::make(1, std::uint16_t(rng.next() % 64));
        benchmark::DoNotOptimize(l2.classify(pkt));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2Classify);

// ---------------------------------------------------------------------
// Packet hop: the full RX datapath of one SR-IOV frame — wire
// serialization, L2 classification, descriptor-ring take, IOMMU
// translation, DMA crossing, MSI-X raise, router dispatch, and a
// driver-style drain + buffer repost. This is the composite path the
// figure benches spend their time on; the flat ring buffers and
// inline event captures must keep it allocation-free once warm.
// ---------------------------------------------------------------------

namespace {

struct NullEndpoint final : nic::WireEndpoint
{
    void receive(const nic::Packet &) override {}
};

struct PacketHop
{
    static constexpr unsigned kBatch = 256;

    sim::EventQueue eq;
    nic::Wire wire;
    nic::SriovNic nic;
    mem::GuestPhysMap map{"hop"};
    mem::Iommu iommu;
    intr::InterruptRouter router;
    NullEndpoint host;
    /** Full-export path tracer riding the hop: its record() calls sit
     *  on the exact instrumented path the figure benches run, so the
     *  allocs_per_packet gate below also proves the tracer hot path
     *  allocation-free. */
    obs::PathTracer pt;
    std::uint16_t origin_comp = 0;
    std::uint16_t drv_comp = 0;
    std::uint64_t next_id = 0;
    std::vector<nic::RxCompletion> drained;
    std::uint64_t irqs = 0;
    std::uint64_t packets = 0;
    nic::Packet pkt;

    /** The hop runs in @p run's thinning and path-trace export. */
    explicit PacketHop(const obs::RunConfig &run)
        : eq(run.thin),
          wire(eq, nic::Wire::Params{10e9, sim::Time::ns(500)}),
          nic(eq, "hop0", pci::Bdf{1, 0, 0}),
          pt(obs::PathTracer::Params{.full = run.pathtrace})
    {
        wire.connect(host, nic);
        nic.attachWire(wire);
        origin_comp = pt.registerComponent("host");
        drv_comp = pt.registerComponent("drv");
        wire.setPathTracer(&pt, pt.registerComponent("wire"));
        nic.setPathTracer(&pt);
        map.mapRange(0, 0x100000, 1024 * mem::kPageSize);
        nic.setIommu(&iommu);
        iommu.attach(nic.pf().rid(), map);

        nic.pf().config().write(pci::cfg::kCommand,
                                pci::cfg::kCmdMemEnable
                                    | pci::cfg::kCmdBusMaster,
                                2);
        for (unsigned i = 0; i < 512; ++i)
            nic.rxRing(0).post(mem::Addr(i) * 2048);
        nic.setPoolFilter(0, nic::MacAddr::make(7, 1));
        nic.setItr(0, 0);    // interrupt per frame: the hop under test

        router.attachFunction(nic.pf());
        intr::Vector v =
            router.allocateAndBind([this](intr::Vector, pci::Rid) {
                ++irqs;
                nic.drainRxInto(0, drained);
                auto &ring = nic.rxRing(0);
                for (const auto &c : drained) {
                    pt.record(drv_comp, obs::PathStage::LapicDeliver,
                              c.pkt.trace_id, eq.now());
                    ring.post(c.buffer_gpa);
                    ++packets;
                }
            });
        nic.pf().msix()->programEntry(0,
                                      pci::MsiMessage::forVector(0, v));
        nic.pf().msix()->maskEntry(0, false);
        nic.pf().msix()->setEnable(true);

        pkt.dst = nic::MacAddr::make(7, 1);
        pkt.src = nic::MacAddr::make(7, 2);
        pkt.bytes = nic::frame::udpFrame(1472);
    }

    /** Push one batch of frames through the full hop and drain. */
    void
    sendBatch()
    {
        for (unsigned i = 0; i < kBatch; ++i) {
            pkt.trace_id = ++next_id;
            pt.record(origin_comp, obs::PathStage::Origin, pkt.trace_id,
                      eq.now());
            wire.send(host, pkt);
        }
        eq.runAll();
    }
};

} // namespace

// ---------------------------------------------------------------------
// Cross-shard ping: one frame bouncing between two islands over a
// sharded Wire. Every crossing pays the full conservative-sync bill —
// promise publication, floor refresh, channel push/pop — with almost
// no event work to amortize it, so this is the worst case for the
// shard engine and bounds its per-message overhead. The same topology
// on a single queue (legacy wire) is the no-sync baseline.
// ---------------------------------------------------------------------

namespace {

struct PingEnd final : nic::WireEndpoint
{
    nic::Wire *wire = nullptr;
    nic::Packet pong;

    void
    receive(const nic::Packet &) override
    {
        wire->send(*this, pong);
    }
};

constexpr nic::Wire::Params kPingWire{10e9, sim::Time::us(5)};

nic::Packet
pingPacket()
{
    nic::Packet pkt;
    pkt.dst = nic::MacAddr::make(9, 1);
    pkt.src = nic::MacAddr::make(9, 2);
    pkt.bytes = nic::frame::udpFrame(64);
    return pkt;
}

/** Bounce a frame on one queue for @p sim_t; returns crossings. */
std::uint64_t
pingLegacy(sim::Time sim_t, std::uint64_t *events)
{
    sim::EventQueue eq;
    nic::Wire wire(eq, kPingWire);
    PingEnd a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = pingPacket();
    wire.connect(a, b);
    wire.send(a, a.pong);
    eq.runUntil(sim_t);
    if (events != nullptr)
        *events = eq.executed();
    return wire.delivered();
}

/** Same topology across two islands; @p workers = engine threads.
 *  With @p warm_allocs, the first tenth of @p sim_t is a warm-up and
 *  the heap allocations of the rest are stored there. */
std::uint64_t
pingSharded(sim::Time sim_t, unsigned workers, std::uint64_t *events,
            std::uint64_t *warm_allocs = nullptr)
{
    sim::EventQueue eq_a, eq_b;
    sim::ShardEngine engine(workers);
    unsigned ia = engine.addIsland(eq_a);
    unsigned ib = engine.addIsland(eq_b);
    nic::Wire wire(eq_a, eq_b, engine, ia, ib, kPingWire);
    PingEnd a, b;
    a.wire = b.wire = &wire;
    a.pong = b.pong = pingPacket();
    wire.connect(a, b);
    wire.send(a, a.pong);
    if (warm_allocs != nullptr) {
        engine.runUntil(sim::Time::ps(sim_t.picos() / 10));
        const std::uint64_t before = heapAllocs();
        engine.runUntil(sim_t);
        *warm_allocs = heapAllocs() - before;
    } else {
        engine.runUntil(sim_t);
    }
    if (events != nullptr)
        *events = engine.executedEvents();
    return wire.delivered();
}

} // namespace

static void
BM_CrossShardPing(benchmark::State &state)
{
    // Arg 0: legacy single queue; arg 1: two islands, sequential
    // oracle. Items = wire crossings, so the per-item delta between
    // the two is the conservative-sync overhead per message.
    const bool sharded = state.range(0) != 0;
    std::uint64_t crossings = 0;
    for (auto _ : state) {
        crossings += sharded ? pingSharded(sim::Time::ms(5), 1, nullptr)
                             : pingLegacy(sim::Time::ms(5), nullptr);
    }
    state.SetItemsProcessed(std::int64_t(crossings));
}
BENCHMARK(BM_CrossShardPing)->Arg(0)->Arg(1);

static void
BM_PacketHop(benchmark::State &state)
{
    // Full export: every packet pushes ring records through the whole
    // hop, and the allocation gate must still read zero.
    PacketHop hop(obs::RunConfig{.pathtrace = true});
    hop.sendBatch();    // warm queues, rings and scratch buffers
    std::uint64_t allocs_before = heapAllocs();
    std::uint64_t pkts_before = hop.packets;
    for (auto _ : state)
        hop.sendBatch();
    std::uint64_t pkts = hop.packets - pkts_before;
    state.counters["allocs_per_packet"] =
        double(heapAllocs() - allocs_before) / (pkts ? double(pkts) : 1);
    state.SetItemsProcessed(pkts);
}
BENCHMARK(BM_PacketHop);

// ---------------------------------------------------------------------
// Perf-smoke report. With --out=<dir>, after the google-benchmark
// pass the binary times a fixed set of event-core kernels with
// steady_clock and writes microkernel.json + microkernel.perf.json so
// CI can archive events/sec over time (tools/bench_summary --perf
// folds the sidecars into BENCH_perf.json). The zero-allocation
// contract of the inline-capture path is enforced here as a hard
// failure, not just reported.
// ---------------------------------------------------------------------

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/** Time @p batches×1000 empty events through a reused queue. */
void
perfSteadyState(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), []() {});
    eq.runAll();
    std::uint64_t before = eq.executed();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i), []() {});
        eq.runAll();
    }
    double s = secondsSince(t0);
    std::uint64_t events = eq.executed() - before;
    fr.addPerf("steady-state", events, s);
    fr.report().addMetric("steady_state.events_per_sec",
                          s > 0 ? double(events) / s : 0);
}

/** Schedule+cancel churn; ops = armed-and-disarmed timers. */
void
perfScheduleCancel(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    sim::EventHandle handles[64];
    std::uint64_t ops = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 64; ++i)
            handles[i] = eq.scheduleIn(sim::Time::us(1 + i), []() {});
        for (int i = 0; i < 64; ++i)
            eq.cancel(handles[i]);
        eq.runAll();
        ops += 64;
    }
    double s = secondsSince(t0);
    fr.addPerf("schedule-cancel", ops, s);
    fr.report().addMetric("schedule_cancel.ops_per_sec",
                          s > 0 ? double(ops) / s : 0);
}

/**
 * The zero-allocation gate: 64-byte captures through a warm queue
 * must not touch the heap. Returns false (and complains) on any
 * allocation.
 */
bool
perfInlineAllocGate(core::FigReport &fr, std::uint64_t batches)
{
    sim::EventQueue eq;
    struct Payload
    {
        char bytes[56];
        std::uint64_t *sink;
    };
    std::uint64_t sink = 0;
    Payload p{};
    p.sink = &sink;
    for (int i = 0; i < 1000; ++i)
        eq.scheduleIn(sim::Time::ns(i), [p]() { *p.sink += p.bytes[0]; });
    eq.runAll();

    std::uint64_t allocs_before = heapAllocs();
    std::uint64_t before = eq.executed();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(sim::Time::ns(i),
                          [p]() { *p.sink += p.bytes[0]; });
        eq.runAll();
    }
    double s = secondsSince(t0);
    std::uint64_t events = eq.executed() - before;
    std::uint64_t allocs = heapAllocs() - allocs_before;
    fr.addPerf("inline-capture", events, s);
    fr.report().addMetric("inline_capture.events_per_sec",
                          s > 0 ? double(events) / s : 0);
    fr.report().addMetric("inline_capture.heap_allocs", double(allocs));
    if (allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "inline-capture path (%llu events); InplaceFn "
                     "inline contract broken\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(events));
        return false;
    }
    std::printf("perf-smoke: inline-capture path: 0 heap allocations "
                "over %llu events\n",
                static_cast<unsigned long long>(events));
    return true;
}

/**
 * The packet-path gate: frames through the wire→switch→ring→IRQ hop
 * must not allocate once rings and scratch buffers are warm, and the
 * rate is archived so CI can compare against the committed baseline.
 */
bool
perfPacketHop(core::FigReport &fr, std::uint64_t batches)
{
    PacketHop hop(fr.options().run());
    hop.sendBatch();    // warm-up batch absorbs one-time growth
    std::uint64_t events_before = hop.eq.executed();
    std::uint64_t pkts_before = hop.packets;
    std::uint64_t allocs_before = heapAllocs();
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = 0; b < batches; ++b)
        hop.sendBatch();
    double s = secondsSince(t0);
    std::uint64_t events = hop.eq.executed() - events_before;
    std::uint64_t pkts = hop.packets - pkts_before;
    std::uint64_t allocs = heapAllocs() - allocs_before;
    fr.addPerf("packet-hop", events, s);
    fr.report().addMetric("packet_hop.packets_per_sec",
                          s > 0 ? double(pkts) / s : 0);
    fr.report().addMetric("packet_hop.irqs", double(hop.irqs));
    fr.report().addMetric("packet_hop.heap_allocs", double(allocs));
    if (allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "packet-hop path (%llu packets); datapath "
                     "steady-state must be allocation-free\n",
                     static_cast<unsigned long long>(allocs),
                     static_cast<unsigned long long>(pkts));
        return false;
    }
    std::printf("perf-smoke: packet-hop path: 0 heap allocations over "
                "%llu packets (%.0f pkts/s)\n",
                static_cast<unsigned long long>(pkts),
                s > 0 ? double(pkts) / s : 0);
    return true;
}

/**
 * The FIFO-lane gate: with the FIFO backlog of
 * BM_EventQueueFifoBacklog pending, the heap holds only the backlog's
 * head and the three timers. Deterministic on any host, so a hard
 * failure above the bound.
 */
bool
perfFifoBacklogGate(core::FigReport &fr)
{
    constexpr std::size_t kMaxHeapKeys = 4;
    sim::EventQueue eq;
    primeFifoBacklog(eq);
    std::size_t worst = eq.heapKeys();
    for (int i = 0; i < 64; ++i) {
        eq.runAll(97);
        worst = std::max(worst, eq.heapKeys());
    }
    fr.report().addMetric("fifo_backlog.heap_keys", double(worst));
    if (worst > kMaxHeapKeys) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %zu heap keys with %llu events "
                     "pending (bound %zu); an in-order backlog must wait "
                     "in its tag's lane\n",
                     worst,
                     static_cast<unsigned long long>(eq.liveEvents()),
                     kMaxHeapKeys);
        return false;
    }
    std::printf("perf-smoke: fifo backlog: at most %zu heap keys with "
                "%llu events pending\n",
                worst, static_cast<unsigned long long>(eq.liveEvents()));
    return true;
}

/**
 * The DMA-remapping set-up gate: attaching a VF's RID and mapping one
 * VF driver's RX region into a fresh domain allocates the bus's
 * context table and the domain's page array, not a node per page.
 * Deterministic on any host, so a hard failure above the bound.
 */
bool
perfIommuMapGate(core::FigReport &fr)
{
    constexpr std::uint64_t kMaxAllocs = 4;
    mem::Iommu iommu;
    const std::uint64_t before = heapAllocs();
    mem::GuestPhysMap dom;
    iommu.attach(vfRid(1), dom);
    dom.mapRange(kRxRegionGpa, mem::Addr(1) << 30, kRxRegionBytes);
    const std::uint64_t allocs = heapAllocs() - before;
    fr.report().addMetric("iommu_map.heap_allocs", double(allocs));
    if (allocs > kMaxAllocs) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocations to attach a "
                     "RID and map %zu pages (bound %llu); DMA remapping "
                     "tables must be flat\n",
                     static_cast<unsigned long long>(allocs),
                     dom.mappedPages(),
                     static_cast<unsigned long long>(kMaxAllocs));
        return false;
    }
    std::printf("perf-smoke: iommu map: %llu heap allocations to attach a "
                "RID and map %zu pages\n",
                static_cast<unsigned long long>(allocs), dom.mappedPages());
    return true;
}

/**
 * The shard-sync gate: a frame ping-ponging between two islands pays
 * conservative sync on every crossing. The per-message overhead —
 * sharded-sequential host time minus the single-queue baseline,
 * divided by crossings — must stay under a generous ceiling, and the
 * sharded run must deliver the exact crossing count of the legacy one
 * (same simulated schedule, per DESIGN.md §13). Bounds are loose
 * because CI hosts jitter; the archived metrics carry the trend. Once
 * warm, crossings must not touch the heap: the channel recycles its
 * nodes and the engine keeps its component grouping, so any
 * allocation there is a hard failure, like packet_hop.heap_allocs.
 */
bool
perfCrossShardPing(core::FigReport &fr)
{
    const sim::Time sim_t = sim::Time::ms(200);

    std::uint64_t legacy_events = 0, shard_events = 0;
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t legacy_msgs = pingLegacy(sim_t, &legacy_events);
    double legacy_s = secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    std::uint64_t warm_allocs = 0;
    std::uint64_t shard_msgs =
        pingSharded(sim_t, 1, &shard_events, &warm_allocs);
    double shard_s = secondsSince(t0);

    fr.addPerf("xshard-ping", shard_events, shard_s);
    double msgs = double(shard_msgs ? shard_msgs : 1);
    double overhead_us = (shard_s - legacy_s) * 1e6 / msgs;
    fr.report().addMetric("xshard_ping.messages", double(shard_msgs));
    fr.report().addMetric("xshard_ping.legacy_host_s", legacy_s);
    fr.report().addMetric("xshard_ping.sharded_host_s", shard_s);
    fr.report().addMetric("xshard_ping.sync_overhead_us_per_msg",
                          overhead_us);
    fr.report().addMetric("xshard_ping.heap_allocs", double(warm_allocs));

    if (shard_msgs != legacy_msgs) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: cross-shard ping delivered "
                     "%llu crossings, single-queue baseline %llu — "
                     "the sharded wire changed the schedule\n",
                     static_cast<unsigned long long>(shard_msgs),
                     static_cast<unsigned long long>(legacy_msgs));
        return false;
    }
    if (warm_allocs != 0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: %llu heap allocation(s) on the "
                     "warm cross-shard ping; channel storage and engine "
                     "bookkeeping must be recycled\n",
                     static_cast<unsigned long long>(warm_allocs));
        return false;
    }
    // ~40k crossings over 200 simulated ms: the sync bill per message
    // is a handful of atomic ops plus a channel push/pop, i.e. well
    // under a microsecond. 25 us/message means something is pathologic
    // (a yield per crossing, floors re-derived from scratch, ...).
    if (overhead_us > 25.0) {
        std::fprintf(stderr,
                     "perf-smoke: FAIL: conservative sync costs %.2f us "
                     "per cross-shard message (bound 25 us)\n",
                     overhead_us);
        return false;
    }
    std::printf("perf-smoke: cross-shard ping: %llu crossings, sync "
                "overhead %.3f us/message (single-queue baseline "
                "%.3f us/message), 0 heap allocations once warm\n",
                static_cast<unsigned long long>(shard_msgs),
                overhead_us, legacy_s * 1e6 / msgs);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark consumes its --benchmark_* flags first;
    // FigReport's parser takes the rest and exits 2 on an unknown one.
    benchmark::Initialize(&argc, argv);
    core::FigReport fr(argc, argv, "microkernel",
                       "Simulator substrate microbenchmarks");
    if (fr.helpShown())
        return 0;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!fr.options().wantReport())
        return 0;

    perfSteadyState(fr, 2000);
    perfScheduleCancel(fr, 2000);
    bool inline_ok = perfInlineAllocGate(fr, 1000);
    bool hop_ok = perfPacketHop(fr, 400);
    bool ping_ok = perfCrossShardPing(fr);
    bool map_ok = perfIommuMapGate(fr);
    bool backlog_ok = perfFifoBacklogGate(fr);
    int rc = fr.finish();
    return inline_ok && hop_ok && ping_ok && map_ok && backlog_ok ? rc : 1;
}
