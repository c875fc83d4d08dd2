#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>

#include "check/determinism.hpp"
#include "check/invariant_checker.hpp"
#include "core/testbed.hpp"
#include "obs/metric.hpp"
#include "sim/log.hpp"

namespace perfbench {

using namespace sriov;

namespace {

/** splitmix64: the seed -> case-parameter stream. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi]. */
    unsigned
    range(unsigned lo, unsigned hi)
    {
        return lo + unsigned(next() % std::uint64_t(hi - lo + 1));
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    std::uint64_t s_;
};

constexpr double kLineBps = 1e9;

/** Wire bytes of one UDP datagram: payload + UDP/IP/Ethernet/FCS
 *  headers (46 bytes, padded to the 64-byte minimum frame) + preamble
 *  and inter-frame gap (20 bytes). */
double
udpGoodputFraction(std::uint32_t payload)
{
    double frame = std::max(double(payload) + 46.0, 64.0);
    return double(payload) / (frame + 20.0);
}

/** Guests per port when guest i lands on port i mod ports. */
std::vector<unsigned>
guestsPerPort(unsigned guests, unsigned ports)
{
    std::vector<unsigned> n(ports, 0);
    for (unsigned i = 0; i < guests; ++i)
        ++n[i % ports];
    return n;
}

/** UDP line-rate streams: each port's line split over its guests. */
void
addLineRateUdp(CaseSpec &c, unsigned guests, StreamSpec::Kind kind,
               std::uint32_t payload)
{
    unsigned ports = c.ports * c.hosts;
    std::vector<unsigned> per_port = guestsPerPort(guests, ports);
    for (unsigned i = 0; i < guests; ++i) {
        StreamSpec s;
        s.kind = kind;
        s.payload = payload;
        s.offered_bps = kLineBps / per_port[i % ports];
        c.streams.push_back(s);
    }
}

/** Offered UDP datagrams per second on one port at line rate. */
double
linePacketRate(std::uint32_t payload)
{
    return kLineBps * udpGoodputFraction(payload) / (8.0 * payload);
}

/** Warm-up + window that offer @p pkts datagrams per port at line
 *  rate: a packet budget, so a seed that picks small frames simulates
 *  a shorter horizon instead of more host work. */
void
setPacketBudget(CaseSpec &c, double pkts, std::uint32_t payload,
                double scale)
{
    double horizon = pkts / linePacketRate(payload) * scale;
    c.warmup_s = 0.2 * horizon;
    c.window_s = 0.8 * horizon;
}

/**
 * sriov_rx: per-packet SR-IOV receive on one port of the default
 * engine, fluid off. Every pass is the full 7 x 7 factorial of VM
 * count (1..7) and payload stratum (18..1472 bytes, log-spaced), each
 * case with the same packet budget. The ITR policy of each case comes
 * from a Latin square over a fixed policy multiset, so every VM count
 * and every stratum meets each policy once. The seed draws the payload
 * inside each stratum and the square's row and column order, so every
 * seed covers the same ranges with the same amount of work.
 */
Workload
sriovRx(SeedRng &rng, double scale)
{
    Workload w;
    w.name = "sriov_rx";
    constexpr unsigned kN = 7;
    const unsigned strata[kN][2] = {{18, 30},    {40, 70},   {100, 160},
                                    {220, 350},  {500, 750}, {1000, 1250},
                                    {1300, 1472}};
    const char *const itrs[kN] = {"adaptive", "adaptive", "adaptive",
                                  "20kHz",    "8kHz",     "AIC",
                                  "adaptive"};
    std::vector<unsigned> row{0, 1, 2, 3, 4, 5, 6}, col = row;
    rng.shuffle(row);
    rng.shuffle(col);
    for (unsigned v = 0; v < kN; ++v) {
        for (unsigned k = 0; k < kN; ++k) {
            CaseSpec c;
            c.ports = 1;
            c.itr = itrs[(row[v] + col[k]) % kN];
            c.aic = c.itr == "AIC";
            std::uint32_t payload = rng.range(strata[k][0], strata[k][1]);
            addLineRateUdp(c, v + 1, StreamSpec::Kind::UdpSriov, payload);
            setPacketBudget(c, 30e3, payload, scale);
            // MTU-class frames are the paper's line-rate configurations.
            // AIC retunes once per simulated second, so a sub-second
            // case measures its start-up rate, not its converged one.
            if (payload >= 1000 && !c.aic)
                c.band_goodput_bps =
                    kLineBps * udpGoodputFraction(payload);
            char label[64];
            std::snprintf(label, sizeof(label), "%uvm-%uB-%s", v + 1,
                          payload, c.itr.c_str());
            c.label = label;
            w.cases.push_back(std::move(c));
        }
    }
    rng.shuffle(w.cases);
    w.audit_case = w.cases.front();
    return w;
}

/**
 * fluid_scale: fig15-scale line-rate SR-IOV UDP over ten ports with
 * --fluid=on on the legacy engine. Every pass holds 10, 30 and 60 VMs:
 * the director warps the low and high counts almost at once, while
 * the mid count runs ~3.5 M events before its first certified warp
 * (the fig15 20-40 VM gap). MTU frames only: the payload sets the
 * flows' periods, and with them whether a warp certifies at all. The
 * mid count's cost moves with its horizon, so it is fixed; the seed
 * orders the cases and splits the other two horizons (same total).
 */
Workload
fluidScale(SeedRng &rng, double scale)
{
    Workload w;
    w.name = "fluid_scale";
    w.mode_args = {"--fluid=on"};
    const double d = double(rng.range(0, 5)) / 10.0;
    std::vector<double> outer{2.0 - d, 2.0 + d};
    rng.shuffle(outer);
    const unsigned counts[] = {10, 30, 60};
    const double windows[] = {outer[0], 2.0, outer[1]};
    for (unsigned k = 0; k < 3; ++k) {
        CaseSpec c;
        c.ports = 10;
        addLineRateUdp(c, counts[k], StreamSpec::Kind::UdpSriov, 1472);
        c.warmup_s = 1.0 * scale;
        c.window_s = windows[k] * scale;
        c.band_goodput_bps = 10 * kLineBps * udpGoodputFraction(1472);
        char label[64];
        std::snprintf(label, sizeof(label), "%uvm-%.1fs", counts[k],
                      windows[k]);
        c.label = label;
        w.cases.push_back(std::move(c));
    }
    rng.shuffle(w.cases);
    w.audit_case = w.cases.front();
    return w;
}

/**
 * rack_sharded: two hosts behind the ToR relay on the shard engine
 * with --fluid=on, over a long simulated horizon. Two cases per pass:
 * four ports per host with one VM each, and two ports per host with
 * two VMs each (the slower path to a certified warp). Every stream
 * enters from a port of the other host, so every frame crosses the
 * rack. The seed draws which remote port feeds each guest. A rack of
 * ten ports per host (81 MB resident against 35 MB) runs no code path
 * this one does not, and its host time spread twice as wide between
 * runs on a shared host.
 *
 * --shards=1 runs the islands on the calling thread. The ToR relay
 * fuses every island into one component, so more workers would split
 * it island by island and spin on each other's promise clocks: that
 * times the host scheduler, not the simulator. The island schedule,
 * and with it every simulated result, is the same at any worker count.
 */
Workload
rackSharded(SeedRng &rng, double scale)
{
    Workload w;
    w.name = "rack_sharded";
    w.mode_args = {"--shards=1", "--fluid=on"};
    constexpr unsigned kHosts = 2;
    const unsigned layouts[][2] = {{4, 1}, {2, 2}};    // ports, VMs/port
    for (unsigned k = 0; k < 2; ++k) {
        const unsigned ports = layouts[k][0];
        CaseSpec c;
        c.ports = ports;
        c.hosts = kHosts;
        unsigned vms = layouts[k][1] * ports * kHosts;
        addLineRateUdp(c, vms, StreamSpec::Kind::UdpSriov, 1472);
        unsigned shift = rng.range(0, ports - 1);
        for (unsigned i = 0; i < vms; ++i) {
            unsigned port = i % (ports * kHosts);
            unsigned h = port / ports;
            unsigned lp = (port + shift) % ports;
            c.streams[i].src_port = int(((h + 1) % kHosts) * ports + lp);
        }
        c.warmup_s = 2.0 * scale;
        c.window_s = 18.0 * scale;
        c.band_goodput_bps =
            ports * kHosts * kLineBps * udpGoodputFraction(1472);
        c.label = std::to_string(vms) + "vm-2x" + std::to_string(ports)
                  + "port-shift" + std::to_string(shift);
        w.cases.push_back(std::move(c));
    }
    w.audit_case = w.cases.front();
    return w;
}

/**
 * pv_tcp: PV netfront guests receiving UDP through netback, next to
 * SR-IOV guests receiving TCP, on one four-port host with --fluid=on.
 * TCP and netback work keep the FluidDirector probing without ever
 * warping. Every pass holds the 2 x 2 factorial of PV guests per port
 * (2, 3) and netback threads (2, 4), with one TCP guest per port. The
 * seed draws each case's UDP payload from one of two strata (paired
 * with the factorial cells as a Latin square) and deals a fixed set of
 * TCP windows over the TCP guests.
 */
Workload
pvTcp(SeedRng &rng, double scale)
{
    Workload w;
    w.name = "pv_tcp";
    w.mode_args = {"--fluid=on"};
    constexpr unsigned kPorts = 4;
    const unsigned strata[2][2] = {{1024, 1200}, {1300, 1472}};
    const unsigned diagonal = rng.range(0, 1);
    for (unsigned per_port : {2u, 3u}) {
        for (unsigned threads : {2u, 4u}) {
            CaseSpec c;
            c.ports = kPorts;
            c.netback_threads = threads;
            unsigned pv = per_port * kPorts;
            const unsigned *st =
                strata[(per_port + threads / 2 + diagonal) % 2];
            std::uint32_t payload = rng.range(st[0], st[1]);
            addLineRateUdp(c, pv, StreamSpec::Kind::UdpPv, payload);
            // UDP takes half of each port's line; the TCP guests, added
            // after the PV ones, land one per port and share the rest.
            for (StreamSpec &s : c.streams)
                s.offered_bps *= 0.5;
            std::vector<unsigned> segments{32, 48, 64, 83};
            rng.shuffle(segments);
            for (unsigned i = 0; i < kPorts; ++i) {
                StreamSpec s;
                s.kind = StreamSpec::Kind::TcpSriov;
                s.payload = 1448;
                s.window = 1448u * segments[i];
                c.streams.push_back(s);
            }
            setPacketBudget(c, 50e3, payload, scale);
            c.label = std::to_string(pv) + "pv-" + std::to_string(payload)
                      + "B+" + std::to_string(kPorts) + "tcp-nb"
                      + std::to_string(threads);
            w.cases.push_back(std::move(c));
        }
    }
    rng.shuffle(w.cases);
    w.audit_case = w.cases.front();
    return w;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

std::uint64_t
fnvFold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
snapshotHash(const obs::MetricSnapshot &snap)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const obs::MetricSample &s : snap.samples) {
        for (char ch : s.name)
            h = fnvFold(h, std::uint64_t(std::uint8_t(ch)));
        h = fnvFold(h, std::bit_cast<std::uint64_t>(s.value));
        h = fnvFold(h, std::bit_cast<std::uint64_t>(s.count));
    }
    return h;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::string suf(suffix);
    return s.size() >= suf.size()
           && s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

/** A built, started case: the testbed and the streams it drives. */
struct Built
{
    std::unique_ptr<core::Testbed> tb;
    std::vector<core::Testbed::Guest *> guests;
    std::vector<guest::UdpStreamSender *> udp;
    std::vector<guest::TcpStreamSender *> tcp;
};

Built
build(const CaseSpec &c, CaseResult *r)
{
    using Clock = std::chrono::steady_clock;
    Built b;
    core::Testbed::Params p;
    p.num_ports = c.ports;
    p.num_hosts = c.hosts;
    p.opts = core::OptimizationSet::maskEoi();
    p.opts.aic = c.aic;
    p.itr = c.itr;
    p.netback_threads = c.netback_threads;

    auto t0 = Clock::now();
    b.tb = std::make_unique<core::Testbed>(p);
    r->testbed_s = secondsSince(t0);

    t0 = Clock::now();
    for (const StreamSpec &s : c.streams) {
        auto mode = s.kind == StreamSpec::Kind::UdpPv
                        ? core::Testbed::NetMode::Pv
                        : core::Testbed::NetMode::Sriov;
        b.guests.push_back(&b.tb->addGuest(vmm::DomainType::Hvm, mode));
    }
    r->add_guest_s = secondsSince(t0);

    t0 = Clock::now();
    for (std::size_t i = 0; i < c.streams.size(); ++i) {
        const StreamSpec &s = c.streams[i];
        core::Testbed::Guest &g = *b.guests[i];
        if (s.kind == StreamSpec::Kind::TcpSriov) {
            b.tcp.push_back(&b.tb->startTcpToGuest(g, s.window, s.payload));
        } else if (s.src_port >= 0) {
            b.udp.push_back(&b.tb->startUdpToGuestFrom(
                unsigned(s.src_port), g, s.offered_bps, s.payload));
        } else {
            b.udp.push_back(
                &b.tb->startUdpToGuest(g, s.offered_bps, s.payload));
        }
    }
    r->start_s = secondsSince(t0);
    return b;
}

/**
 * Packet conservation over the case's UDP flows: every datagram a
 * netperf sender emitted was delivered to a guest socket, dropped at a
 * counted point, or is still in flight (bounded by the rings and
 * queues it can sit in). TCP flows must deliver what they have ACKed
 * and never more than they sent.
 */
void
checkConservation(const CaseSpec &c, Built &b, CaseResult *r,
                  Inject inject)
{
    core::Testbed &tb = *b.tb;
    std::uint64_t sent = 0;
    for (const guest::UdpStreamSender *s : b.udp)
        sent += s->sentPackets();
    std::uint64_t delivered = 0, drops = 0;
    std::size_t udp_flows = 0;
    for (std::size_t i = 0; i < c.streams.size(); ++i) {
        const core::Testbed::Guest &g = *b.guests[i];
        if (c.streams[i].kind == StreamSpec::Kind::TcpSriov)
            continue;
        ++udp_flows;
        delivered += g.rx->rxPackets();
        drops += g.stack->udpSocketDrops();
    }
    // The negative test's broken ledger: every datagram counted as
    // delivered twice.
    if (inject == Inject::Conservation)
        delivered += sent;
    for (unsigned i = 0; i < tb.portCount(); ++i) {
        nic::SriovNic &n = tb.port(i);
        drops += n.rxDropNoMatch();
        for (unsigned pool = 0; pool < n.poolCount(); ++pool) {
            const auto &ps = n.poolStats(nic::Pool(pool));
            drops += ps.rx_drop_ring.value() + ps.rx_drop_master.value()
                     + ps.rx_drop_iommu.value();
        }
    }
    unsigned wires = tb.portCount() * (c.hosts > 1 ? 2 : 1);
    for (unsigned i = 0; i < wires; ++i)
        drops += tb.wire(i).dropped();
    if (!tb.sharded()) {
        for (unsigned i = 0; i < tb.portCount(); ++i) {
            bool pv = false;
            for (std::size_t k = 0; k < c.streams.size(); ++k)
                pv |= c.streams[k].kind == StreamSpec::Kind::UdpPv
                      && b.guests[k]->port == i;
            if (pv)
                drops += tb.netback(i).backlogDrops();
        }
    }
    // Rings (up to 4096 descriptors per pool), socket buffers and
    // backend queues bound what can be in flight per flow.
    const std::uint64_t inflight_cap = 8192 * std::max<std::size_t>(
                                                  udp_flows, 1);
    if (delivered + drops > sent || sent - delivered - drops > inflight_cap) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "conservation: sent %llu != delivered %llu + drops "
                      "%llu + in flight (cap %llu)",
                      (unsigned long long)sent,
                      (unsigned long long)delivered,
                      (unsigned long long)drops,
                      (unsigned long long)inflight_cap);
        r->failures.emplace_back(buf);
    }

    std::size_t t = 0;
    for (std::size_t i = 0; i < c.streams.size(); ++i) {
        if (c.streams[i].kind != StreamSpec::Kind::TcpSriov)
            continue;
        const guest::TcpStreamSender &s = *b.tcp[t++];
        std::uint64_t rx = b.guests[i]->rx->rxBytes();
        if (s.ackedBytes() == 0 || s.ackedBytes() > rx
            || s.ackedBytes() > s.sentBytes()) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "tcp flow %zu: acked %llu, received %llu, "
                          "sent %llu",
                          t - 1, (unsigned long long)s.ackedBytes(),
                          (unsigned long long)rx,
                          (unsigned long long)s.sentBytes());
            r->failures.emplace_back(buf);
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"sriov_rx", "fluid_scale",
                                                "rack_sharded", "pv_tcp"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    // Each workload draws from its own stream, so adding a workload
    // never changes another's cases.
    std::uint64_t tag = 0;
    for (char ch : name)
        tag = fnvFold(tag, std::uint64_t(std::uint8_t(ch)));
    SeedRng rng(seed ^ tag);
    if (name == "sriov_rx")
        return sriovRx(rng, scale);
    if (name == "fluid_scale")
        return fluidScale(rng, scale);
    if (name == "rack_sharded")
        return rackSharded(rng, scale);
    if (name == "pv_tcp")
        return pvTcp(rng, scale);
    sim::fatal("perfbench: unknown workload '%s'", name.c_str());
}

CaseResult
runCase(const CaseSpec &c, const RunOptions &opt)
{
    CaseResult r;
    Built b = build(c, &r);
    core::Testbed &tb = *b.tb;

    LayerClock clock;
    std::vector<sim::EventQueue *> queues;
    std::unique_ptr<check::InvariantChecker> checker;
    if (opt.traced) {
        if (tb.sharded()) {
            for (unsigned i = 0; i < tb.shardEngine().islandCount(); ++i)
                queues.push_back(&tb.shardEngine().islandQueue(i));
        } else {
            queues.push_back(&tb.eq());
            // The checker needs one event stream; a sharded testbed
            // has one per island (Testbed::watchAll refuses it).
            checker = std::make_unique<check::InvariantChecker>(tb.eq());
            tb.watchAll(*checker);
        }
        for (sim::EventQueue *q : queues)
            q->addExecHook(&clock);
    }

    auto t0 = std::chrono::steady_clock::now();
    core::Testbed::Measurement m =
        tb.measure(sim::Time::seconds(c.warmup_s),
                   sim::Time::seconds(c.window_s));
    r.drive_s = secondsSince(t0);

    for (sim::EventQueue *q : queues)
        q->removeExecHook(&clock);
    if (opt.traced) {
        r.layers = clock.totals();
        if (checker) {
            checker->checkNow();
            if (!checker->ok())
                r.failures.push_back("invariants: "
                                     + checker->violations().front()
                                           .toString());
        }
    }

    for (core::Testbed::Guest *g : b.guests)
        r.pkts += g->rx ? g->rx->rxPackets() : 0;
    r.events = tb.executedEvents();
    r.order_digest = tb.orderDigest();
    r.sim_s = tb.now().toSeconds();

    obs::MetricRegistry reg;
    tb.registerMetrics(reg, "server");
    obs::MetricSnapshot snap = reg.snapshot();
    r.registry_hash = snapshotHash(snap);
    for (const obs::MetricSample &s : snap.samples) {
        if (endsWith(s.name, ".interrupts"))
            r.irqs += std::uint64_t(s.value);
        else if (endsWith(s.name, ".vm_exits"))
            r.exits += std::uint64_t(s.value);
        else if (endsWith(s.name, ".rx_drops")
                 || endsWith(s.name, ".rx_drop_no_match"))
            r.rx_drops += std::uint64_t(s.value);
        else if (s.name == "server.intr.spurious")
            r.spurious = std::uint64_t(s.value);
    }
    if (const sim::FluidStats *fs = tb.fluidStats()) {
        r.probes = fs->probes;
        r.segments = fs->segments;
        r.events_elided = fs->events_elided;
        r.warped_sim_s = fs->warped.toSeconds();
    }

    checkConservation(c, b, &r, opt.inject);
    if (c.band_goodput_bps > 0) {
        // The paper's line-rate band (fig06/fig15: +-6%).
        double rel = m.total_goodput_bps / c.band_goodput_bps - 1.0;
        if (rel < -0.06 || rel > 0.06) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "goodput %.4g Gb/s outside 6%% of line rate "
                          "%.4g Gb/s",
                          m.total_goodput_bps / 1e9,
                          c.band_goodput_bps / 1e9);
            r.failures.emplace_back(buf);
        }
    }
    return r;
}

std::string
determinismAudit(const CaseSpec &c, Inject inject)
{
    CaseSpec shrunk = c;
    shrunk.warmup_s = std::min(c.warmup_s, 0.05);
    shrunk.window_s = std::min(c.window_s, 0.1);
    std::uint64_t hashes[2] = {0, 0};
    auto result = check::DeterminismHarness::runTwice(
        [&shrunk, &hashes, inject](unsigned run) {
            CaseSpec s = shrunk;
            if (inject == Inject::Determinism && run == 1)
                s.window_s += 1e-3;
            CaseResult r = runCase(s, RunOptions{});
            hashes[run] = r.registry_hash;
            return check::RunDigest{r.order_digest, r.events};
        });
    if (!result.match())
        return "order digest: " + result.toString();
    if (hashes[0] != hashes[1])
        return "registry snapshot differs between identical runs";
    return "";
}

} // namespace perfbench
