/**
 * @file
 * perfbench_driver: runs one benchmark workload for a host-time budget
 * and prints its metrics as one JSON line (the last line of stdout).
 *
 *   perfbench_driver --workload=<name> --seed=<n> --seconds=<s>
 *                    [--trace=0|1] [--scale=<x>]
 *                    [--inject=none|conservation|determinism]
 *
 * A run first audits determinism on a shrunk case, then repeats the
 * seeded case list ("a pass") until the budget is spent, and reports
 * per-pass medians. --trace=0 prints the end-to-end metrics; --trace=1
 * spends half the budget untraced and half with the per-layer clock
 * and invariant checker installed, and prints the per-layer metrics.
 * --scale shrinks every simulated horizon (smoke tests); --inject
 * breaks one output check on purpose (negative tests).
 */

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <new>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "obs/bench_options.hpp"
#include "sim/log.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double scale = 1;
    Inject inject = Inject::None;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload=<name> --seed=<n> --seconds=<s> "
                 "[--trace=0|1] [--scale=<x>] "
                 "[--inject=none|conservation|determinism]\n",
                 why);
    std::exit(2);
}

const char *
value(const char *arg, const char *flag)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

double
number(const char *s, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = value(arg, "--workload")) {
            a.workload = v;
        } else if (const char *v = value(arg, "--seed")) {
            char *end = nullptr;
            a.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("bad value for --seed");
        } else if (const char *v = value(arg, "--seconds")) {
            a.seconds = number(v, "--seconds");
        } else if (const char *v = value(arg, "--trace")) {
            a.trace = number(v, "--trace") != 0;
        } else if (const char *v = value(arg, "--scale")) {
            a.scale = number(v, "--scale");
        } else if (const char *v = value(arg, "--inject")) {
            if (std::strcmp(v, "conservation") == 0)
                a.inject = Inject::Conservation;
            else if (std::strcmp(v, "determinism") == 0)
                a.inject = Inject::Determinism;
            else if (std::strcmp(v, "none") != 0)
                usage("bad value for --inject");
        } else {
            usage((std::string("unknown argument ") + arg).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown or missing --workload");
    if (a.seconds <= 0 || a.scale <= 0)
        usage("--seconds and --scale must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * The host-speed yardstick: a fixed, benchmark-owned kernel shaped
 * like an event core (a binary heap of timestamps plus random updates
 * into a table), timed over a 256 KiB table that stays in L2 and over
 * a 4 MiB one that does not. A shared host's speed drifts by tens of
 * percent over seconds to minutes; the kernels drift with it, while a
 * change to the simulator does not touch them. Workloads lean on the
 * core and on memory in different shares (a rack of many islands more
 * on memory), so the yardstick is the geometric mean of both kernels'
 * median times over a pass, about 7 ms on the reference host (4
 * vCPUs, shared). The 4 MiB table is mapped afresh for each reading:
 * one table kept for the whole process times its one physical page
 * placement, which moves the kernel by ~15% between processes; and it
 * is unmapped after the reading, outside the peak memory measured
 * (PeakRss). Times are reported in reference seconds: host seconds x
 * kReferenceSeconds / the yardstick of the pass, read
 * kYardstickReadings times before the first case, after the last and
 * between cases at least every kYardstickEvery seconds.
 */
constexpr double kReferenceSeconds = 0.007;
constexpr double kYardstickEvery = 0.1;
constexpr int kYardstickReadings = 2;

double
kernelSeconds(std::span<std::uint32_t> table)
{
    auto t0 = std::chrono::steady_clock::now();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        heap;
    std::uint64_t x = 88172645463325252ull, sum = 0;
    auto next = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 4096; ++i)
        heap.push(next() >> 20);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t v = heap.top();
        heap.pop();
        std::uint64_t r = next();
        sum += table[(v ^ r) & (table.size() - 1)]++;
        heap.push(v + (r >> 40));
    }
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    // Keep the loop observable so it cannot be optimized away.
    volatile std::uint64_t sink = sum;
    (void)sink;
    return s;
}

/**
 * Peak resident memory of the simulator: the process's high-water mark
 * (VmHWM) over the stretches between yardstick readings, which restart
 * the mark (clear_refs 5) once their table is unmapped. Where the mark
 * cannot be restarted, this is the whole process's peak.
 */
class PeakRss
{
  public:
    /** Fold the mark since the last resume() into the peak. */
    void
    pause()
    {
        std::ifstream status("/proc/self/status");
        std::string key;
        long kb = 0;
        while (status >> key) {
            if (key == "VmHWM:") {
                status >> kb;
                break;
            }
        }
        peak_kb_ = std::max(peak_kb_, kb);
    }

    /** Restart the mark at the current resident set. */
    void
    resume()
    {
        std::ofstream("/proc/self/clear_refs") << "5";
    }

    double
    mb()
    {
        pause();
        return double(peak_kb_) / 1024.0;
    }

  private:
    long peak_kb_ = 0;
};

PeakRss peak_rss;

/** Kernel times over the L2-resident and the 4 MiB table. */
struct Yardstick
{
    std::vector<double> cache_s, memory_s;

    void
    read()
    {
        static std::vector<std::uint32_t> cached(1u << 16);
        constexpr std::size_t kBytes = std::size_t(4) << 20;
        peak_rss.pause();
        for (int i = 0; i < kYardstickReadings; ++i) {
            void *p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            std::span<std::uint32_t> fresh(static_cast<std::uint32_t *>(p),
                                           kBytes / sizeof(std::uint32_t));
            std::fill(fresh.begin(), fresh.end(), 1u);
            cache_s.push_back(kernelSeconds(cached));
            memory_s.push_back(kernelSeconds(fresh));
            munmap(p, kBytes);
        }
        peak_rss.resume();
    }

    /** Reference seconds per host second. */
    double
    speed() const
    {
        return kReferenceSeconds
               / std::sqrt(median(cache_s) * median(memory_s));
    }
};

/** Convert a case's host times to reference seconds. */
void
scaleTimes(CaseResult &r, double speed)
{
    for (double *t : {&r.testbed_s, &r.add_guest_s, &r.start_s, &r.drive_s})
        *t *= speed;
    for (double &ns : r.layers.ns)
        ns *= speed;
}

/** Sums over the cases of one pass, in reference seconds. */
struct Pass
{
    double setup_s = 0, testbed_s = 0, add_guest_s = 0, start_s = 0;
    double run_s = 0;
    double raw_run_s = 0;    ///< host seconds, before scaling
    std::uint64_t pkts = 0, events = 0, irqs = 0, exits = 0;
    std::uint64_t rx_drops = 0, spurious = 0;
    std::uint64_t probes = 0, segments = 0, events_elided = 0;
    double warped_sim_s = 0, sim_s = 0;
    LayerTotals layers;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t result_digest = 0xcbf29ce484222325ull;
    unsigned cases = 0, failed = 0;

    void
    add(const CaseResult &r)
    {
        setup_s += r.setupSeconds();
        testbed_s += r.testbed_s;
        add_guest_s += r.add_guest_s;
        start_s += r.start_s;
        run_s += r.drive_s;
        pkts += r.pkts;
        events += r.events;
        irqs += r.irqs;
        exits += r.exits;
        rx_drops += r.rx_drops;
        spurious += r.spurious;
        probes += r.probes;
        segments += r.segments;
        events_elided += r.events_elided;
        warped_sim_s += r.warped_sim_s;
        sim_s += r.sim_s;
        layers += r.layers;
        digest = fold(fold(digest, r.order_digest), r.registry_hash);
        result_digest = fold(result_digest, r.registry_hash);
        ++cases;
        failed += r.failures.empty() ? 0 : 1;
    }

    static std::uint64_t
    fold(std::uint64_t h, std::uint64_t v)
    {
        return (h ^ v) * 0x100000001b3ull;
    }
};

/** Reference seconds per host second over the pass. */
double
speedOf(const Pass &p)
{
    return ratio(p.run_s, p.raw_run_s);
}

Pass
runPass(const Workload &w, const RunOptions &opt, unsigned index)
{
    using Clock = std::chrono::steady_clock;
    Yardstick yardstick;
    auto last_at = Clock::now();
    auto read = [&yardstick, &last_at]() {
        yardstick.read();
        last_at = Clock::now();
    };
    std::vector<CaseResult> results;
    read();
    for (const CaseSpec &c : w.cases) {
        if (std::chrono::duration<double>(Clock::now() - last_at).count()
            >= kYardstickEvery)
            read();
        results.push_back(runCase(c, opt));
    }
    read();

    const double speed = yardstick.speed();
    Pass p;
    for (std::size_t i = 0; i < results.size(); ++i) {
        CaseResult &r = results[i];
        const std::string &label = w.cases[i].label;
        p.raw_run_s += r.drive_s;
        scaleTimes(r, speed);
        if (index == 1)
            std::printf("  case %s: setup %.4f s, drive %.4f s, %llu "
                        "events, %llu pkts\n",
                        label.c_str(), r.setupSeconds(), r.drive_s,
                        (unsigned long long)r.events,
                        (unsigned long long)r.pkts);
        for (const std::string &f : r.failures)
            std::printf("FAIL %s pass %u case %s: %s\n", w.name.c_str(),
                        index, label.c_str(), f.c_str());
        p.add(r);
    }
    std::printf("pass %u%s: setup_s=%.4f run_s=%.4f (host %.4f, speed "
                "%.3f) pkts=%llu events=%llu\n",
                index, opt.traced ? " (traced)" : "", p.setup_s, p.run_s,
                p.raw_run_s, speedOf(p), (unsigned long long)p.pkts,
                (unsigned long long)p.events);
    std::fflush(stdout);
    return p;
}

/** Run passes until @p budget_s host seconds are spent (at least
 *  @p min_passes). */
std::vector<Pass>
runPasses(const Workload &w, const RunOptions &opt, double budget_s,
          unsigned min_passes, unsigned first_index)
{
    std::vector<Pass> passes;
    auto t0 = std::chrono::steady_clock::now();
    while (true) {
        passes.push_back(
            runPass(w, opt, first_index + unsigned(passes.size())));
        double spent = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        // Stop when another pass of average length would overrun.
        double per_pass = spent / double(passes.size());
        if (passes.size() >= min_passes && spent + per_pass > budget_s)
            break;
    }
    return passes;
}

template <typename F>
std::vector<double>
collect(const std::vector<Pass> &ps, F f)
{
    std::vector<double> v;
    for (const Pass &p : ps)
        v.push_back(f(p));
    return v;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};


std::vector<Metric>
endToEnd(const std::vector<Pass> &ps, double error_rate)
{
    return {
        {"pkts_per_s",
         median(collect(ps, [](const Pass &p) {
             return ratio(double(p.pkts), p.run_s);
         })),
         "1/s"},
        {"run_s", median(collect(ps, [](const Pass &p) { return p.run_s; })),
         "s"},
        {"setup_s",
         median(collect(ps, [](const Pass &p) { return p.setup_s; })), "s"},
        {"peak_rss_mb", peak_rss.mb(), "MB"},
        {"error_rate", error_rate, "ratio"},
    };
}

std::vector<Metric>
perLayer(const std::vector<Pass> &plain, const std::vector<Pass> &traced)
{
    Pass t;    // traced passes summed
    for (const Pass &p : traced) {
        t.run_s += p.run_s;
        t.pkts += p.pkts;
        t.events += p.events;
        t.irqs += p.irqs;
        t.layers += p.layers;
    }
    const Pass &one = traced.front();    // counts repeat exactly per pass
    std::vector<Pass> all = plain;
    all.insert(all.end(), traced.begin(), traced.end());

    const double pkts = double(t.pkts);
    const double drive_ns = t.run_s * 1e9;
    auto ns = [&t](TagGroup g) { return t.layers.ns[unsigned(g)]; };
    const double core_ns = drive_ns - t.layers.callbackNs();
    const double traced_run = median(
        collect(traced, [](const Pass &p) { return p.run_s; }));
    const double plain_run = median(
        collect(plain, [](const Pass &p) { return p.run_s; }));

    struct Group
    {
        TagGroup g;
        const char *prefix;
    };
    const Group groups[] = {
        {TagGroup::WireBurst, "nic.wire_burst"},
        {TagGroup::NetperfEmit, "guest.netperf_emit"},
        {TagGroup::CpuDone, "vmm.cpu_done"},
        {TagGroup::NicItr, "intr.itr"},
        {TagGroup::DmaDone, "mem.dma_done"},
        {TagGroup::Fluid, "core.fluid"},
        {TagGroup::Other, "sim.other"},
    };

    std::vector<Metric> m{
        {"nic.wire_burst_ns_per_pkt", ratio(ns(TagGroup::WireBurst), pkts),
         "ns"},
        {"guest.netperf_emit_ns_per_pkt",
         ratio(ns(TagGroup::NetperfEmit), pkts), "ns"},
        {"mem.dma_done_ns_per_pkt", ratio(ns(TagGroup::DmaDone), pkts),
         "ns"},
        {"vmm.cpu_done_ns_per_pkt", ratio(ns(TagGroup::CpuDone), pkts),
         "ns"},
        {"intr.itr_ns_per_irq", ratio(ns(TagGroup::NicItr), double(t.irqs)),
         "ns"},
        {"sim.other_ns_per_pkt", ratio(ns(TagGroup::Other), pkts), "ns"},
        {"sim.core_ns_per_event", ratio(core_ns, double(t.events)), "ns"},
        // FluidDirector probe + poll events per pass. The sharded
        // WarpCoordinator probes at barriers, outside any event, so its
        // cost lands in sim.core instead.
        {"core.fluid_probe_ns",
         ratio(ns(TagGroup::Fluid), double(traced.size())), "ns"},
        {"nic.pkts_per_irq", ratio(double(one.pkts), double(one.irqs)),
         "count"},
        {"vmm.exits_per_pkt", ratio(double(one.exits), double(one.pkts)),
         "count"},
        {"sim.events_per_pkt", ratio(double(one.events), double(one.pkts)),
         "count"},
        {"core.warp_frac", ratio(one.warped_sim_s, one.sim_s), "ratio"},
        {"core.probe_accept_frac",
         ratio(double(one.segments), double(one.probes)), "ratio"},
        {"core.events_elided", double(one.events_elided), "count"},
        {"core.setup.testbed_s",
         median(collect(all, [](const Pass &p) { return p.testbed_s; })),
         "s"},
        {"core.setup.add_guest_s",
         median(collect(all, [](const Pass &p) { return p.add_guest_s; })),
         "s"},
        {"core.setup.start_s",
         median(collect(all, [](const Pass &p) { return p.start_s; })),
         "s"},
        {"nic.rx_drops", double(one.rx_drops), "count"},
        {"intr.spurious", double(one.spurious), "count"},
        {"sim.traced_run_s", traced_run, "s"},
        {"core.trace_overhead", ratio(traced_run, plain_run), "ratio"},
    };
    // Shares of the traced drive: the tag groups' self time plus the
    // event core (everything outside callbacks) sum to 1.
    for (const Group &g : groups)
        m.push_back({std::string(g.prefix) + "_share",
                     ratio(ns(g.g), drive_ns), "ratio"});
    m.push_back({"sim.core_share", ratio(core_ns, drive_ns), "ratio"});
    return m;
}

void
printResult(bool correct, unsigned attempted, unsigned failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(), v,
                      metrics[i].unit);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    sriov::sim::setLogLevel(sriov::sim::LogLevel::Quiet);
    Args a = parseArgs(argc, argv);
    Workload w = makeWorkload(a.workload, a.seed, a.scale);

    // Engine modes come only from BenchOptions' argv flags, parsed
    // before any testbed exists.
    std::vector<std::string> mode_argv{"perfbench"};
    mode_argv.insert(mode_argv.end(), w.mode_args.begin(),
                     w.mode_args.end());
    std::vector<char *> ptrs;
    for (std::string &s : mode_argv)
        ptrs.push_back(s.data());
    sriov::obs::BenchOptions::parse(int(ptrs.size()), ptrs.data(),
                                    "perfbench");

    std::string modes;
    for (const std::string &m : w.mode_args)
        modes += " " + m;
    std::printf("perfbench: workload=%s seed=%llu cases/pass=%zu "
                "modes:%s\n",
                w.name.c_str(), (unsigned long long)a.seed, w.cases.size(),
                modes.empty() ? " default" : modes.c_str());
    for (const CaseSpec &c : w.cases)
        std::printf("  case %s: warmup %.3g s + window %.3g s simulated\n",
                    c.label.c_str(), c.warmup_s, c.window_s);

    Yardstick{}.read();    // fault the cached table in before timing
    unsigned attempted = 1, failed = 0;
    std::string audit = determinismAudit(w.audit_case, a.inject);
    if (!audit.empty()) {
        std::printf("FAIL %s determinism audit (%s): %s\n", w.name.c_str(),
                    w.audit_case.label.c_str(), audit.c_str());
        ++failed;
    }

    RunOptions plain{false, a.inject};
    std::vector<Pass> passes, traced;
    if (a.trace) {
        passes = runPasses(w, plain, a.seconds / 2, 2, 1);
        RunOptions t{true, a.inject};
        traced = runPasses(w, t, a.seconds / 2, 1,
                           unsigned(passes.size()) + 1);
    } else {
        passes = runPasses(w, plain, a.seconds, 3, 1);
    }
    for (const std::vector<Pass> *ps : {&passes, &traced}) {
        for (const Pass &p : *ps) {
            attempted += p.cases;
            failed += p.failed;
        }
    }

    const Pass &first = passes.front();
    std::printf("sim_digest %s 0x%016llx (order + registry), result "
                "0x%016llx (registry only)\n",
                w.name.c_str(), (unsigned long long)first.digest,
                (unsigned long long)first.result_digest);
    double error_rate = double(failed) / double(attempted);
    std::vector<Metric> e2e = endToEnd(passes, error_rate);
    for (const Metric &m : e2e)
        std::printf("%s %s %.6g %s\n", w.name.c_str(), m.name.c_str(),
                    m.value, m.unit);
    std::printf("%s host_run_s %.6g s at median speed %.4g (reference "
                "seconds per host second)\n",
                w.name.c_str(),
                median(collect(passes,
                               [](const Pass &p) { return p.raw_run_s; })),
                median(collect(passes, speedOf)));

    std::vector<Metric> out;
    if (a.trace) {
        out = perLayer(passes, traced);
    } else {
        // error_rate is 0 on a correct build, so the result line
        // carries it as attempted/failed instead of as a metric.
        for (const Metric &m : e2e)
            if (m.name != "error_rate")
                out.push_back(m);
    }
    printResult(failed == 0, attempted, failed, out);
    return 0;
}
