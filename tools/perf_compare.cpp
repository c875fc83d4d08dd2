/**
 * @file
 * Compare a freshly measured BENCH_perf.json against the committed
 * baseline and fail when the simulator got slower — the perf-regression
 * gate of the CI perf-smoke job.
 *
 *   perf_compare [--min-ratio=<x>] [--out=<comparison.json>]
 *                <baseline.json> <fresh.json>...
 *
 * All inputs follow schema sriov-bench-perf-summary/v1 (the output of
 * bench_summary --perf). Several fresh summaries may be given — one
 * per repetition of the bench suite — and each bench is judged on its
 * *best* (maximum) events-per-second across them: host wall clock only
 * jitters upward, so best-of-N is the low-noise estimator of the true
 * rate. For every bench present on both sides the ratio best/baseline
 * is computed; any bench below the minimum ratio fails the run.
 * Benches present on only one side are reported but never fail —
 * benches come and go across PRs.
 *
 * The minimum ratio defaults to 0.8 (CI hosts jitter; a >20% drop is a
 * real regression) and can be overridden with --min-ratio=<x>. The
 * per-bench verdicts are also written as a JSON comparison file so CI
 * can archive them as an artifact.
 *
 * Benches that report packets are additionally judged on
 * events-per-packet — a pure simulation metric with no host jitter.
 * Its failure mode is the opposite of a slow runner: if event thinning
 * or fluid warping is silently disabled, a fast machine can keep
 * events/s above the wall-clock gate while the simulator quietly does
 * several times the work per frame. Growth beyond
 * --max-epp-growth (default 1.1x) fails the run; shrinkage is fine —
 * that is an optimization landing.
 *
 * Fluid-on benches carry a third gate: --min-warp-frac (default 0 =
 * off) is a floor on the fresh summary's fluid_stats.warp_frac —
 * warped simulated seconds over
 * simulated seconds. A warp certificate that stops materialising
 * (every probe rejected) leaves results bit-identical and merely
 * makes the bench 50x slower, which a generous wall-clock ratio on a
 * fast runner can absorb; the fraction gate cannot be fooled that way.
 *
 * Each bench's peak_rss_mb (the process high-water mark, when the
 * summary carries it) is printed beside its rate and written to the
 * comparison file. It gates nothing: it is on record so a change in
 * memory shows up next to the speed it bought.
 *
 * Options come from argv only and fail closed: a threshold that is not
 * a whole number ("0,9"), and an unknown --flag, exit 2.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

using sriov::obs::JsonValue;
using sriov::obs::JsonWriter;

namespace {

constexpr const char *kSummarySchema = "sriov-bench-perf-summary/v1";

std::optional<JsonValue>
loadJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "perf_compare: cannot open %s\n",
                     path.c_str());
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = JsonValue::parseTolerant(ss.str(), &err);
    if (!doc)
        std::fprintf(stderr, "perf_compare: %s: %s\n", path.c_str(),
                     err.c_str());
    return doc;
}

double
num(const JsonValue &v, const char *k)
{
    const JsonValue *f = v.find(k);
    return f != nullptr ? f->number : 0.0;
}

struct BenchRate
{
    std::string name;
    double events_per_sec = 0.0;
    /** Simulation cost per unit workload (0 when the bench does not
     *  report packets). Unlike events/s this is a *simulation* metric
     *  with no host jitter, so it is gated tightly: if thinning or
     *  fluid warping is silently disabled, events/packet balloons even
     *  when a fast runner keeps events/s above the wall-clock gate. */
    double events_per_packet = 0.0;
    /** Simulation mode the rate was measured in. Rates are only
     *  comparable within a mode: a sharded run counts per-island
     *  events and burns multiple host cores, so judging it against a
     *  sequential baseline would be meaningless either way. Summaries
     *  without the keys predate the fields: thinning on, shards 0,
     *  fluid off. */
    bool thin = true;
    unsigned shards = 0;
    bool fluid = false;
    /** Warped simulated time over simulated time, from the summary's
     *  fluid_stats block (0 when absent). The --min-warp-frac gate
     *  judges this on the *fresh* side only: warp effectiveness is a
     *  property of the run, not a ratio against the baseline. */
    double warp_frac = 0.0;
    /** Process high-water mark in MB (0 when absent). Informational;
     *  worst-of-N across fresh repetitions. */
    double peak_rss_mb = 0.0;
};

/** Extract per-bench events/s from a perf summary; nullopt on error. */
std::optional<std::vector<BenchRate>>
loadRates(const std::string &path)
{
    auto doc = loadJson(path);
    if (!doc)
        return std::nullopt;
    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || schema->str != kSummarySchema) {
        std::fprintf(stderr, "perf_compare: %s: not a %s document\n",
                     path.c_str(), kSummarySchema);
        return std::nullopt;
    }
    std::vector<BenchRate> rates;
    const JsonValue *benches = doc->find("benches");
    if (benches != nullptr) {
        for (const JsonValue &b : benches->items) {
            const JsonValue *name = b.find("bench");
            BenchRate r;
            r.name = name != nullptr ? name->str : "?";
            r.events_per_sec = num(b, "events_per_sec");
            r.events_per_packet = num(b, "events_per_packet");
            const JsonValue *thin = b.find("thin");
            r.thin = thin == nullptr || thin->boolean;
            r.shards = unsigned(num(b, "shards"));
            const JsonValue *fluid = b.find("fluid");
            r.fluid = fluid != nullptr && fluid->boolean;
            if (const JsonValue *fs = b.find("fluid_stats"))
                r.warp_frac = num(*fs, "warp_frac");
            r.peak_rss_mb = num(b, "peak_rss_mb");
            rates.push_back(std::move(r));
        }
    }
    return rates;
}

/** Append the peak-RSS readings that are present to the current
 *  console line and comparison entry. Informational: never a verdict. */
void
printRss(JsonWriter &w, double base_mb, double fresh_mb)
{
    if (base_mb > 0)
        w.kv("baseline_peak_rss_mb", base_mb);
    if (fresh_mb > 0)
        w.kv("fresh_peak_rss_mb", fresh_mb);
    if (base_mb > 0 && fresh_mb > 0)
        std::printf(", peak RSS %.1f -> %.1f MB", base_mb, fresh_mb);
    else if (fresh_mb > 0)
        std::printf(", peak RSS %.1f MB", fresh_mb);
}

const BenchRate *
findRate(const std::vector<BenchRate> &rates, const std::string &name)
{
    for (const BenchRate &r : rates)
        if (r.name == name)
            return &r;
    return nullptr;
}

constexpr const char *kUsage =
    "usage: perf_compare [--min-ratio=<x>] [--max-epp-growth=<x>] "
    "[--min-warp-frac=<x>] [--out=<comparison.json>] "
    "<baseline.json> <fresh.json>...\n";

/** A threshold value: a finite number strtod reads in full ("0,9"
 *  does not parse), else exit 2 — a half-read value would silently
 *  loosen the gate. */
double
threshold(const char *flag, const char *s)
{
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v)) {
        std::fprintf(stderr, "perf_compare: invalid %s value '%s'\n%s",
                     flag, s, kUsage);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    double min_ratio = 0.8;
    double max_epp_growth = 1.1;
    // Fluid-on warp-effectiveness floor: 0 (the default) disables the
    // gate. When set, every *fresh* fluid-on bench must report a
    // fluid_stats.warp_frac at or above it — the failure mode this
    // catches is warping silently degrading (every probe rejected),
    // which wall-clock gates on a fast runner can miss.
    double min_warp_frac = 0.0;

    std::string out_path;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--min-ratio=", 12) == 0) {
            min_ratio = threshold("--min-ratio", a + 12);
        } else if (std::strncmp(a, "--max-epp-growth=", 17) == 0) {
            max_epp_growth = threshold("--max-epp-growth", a + 17);
        } else if (std::strncmp(a, "--min-warp-frac=", 16) == 0) {
            min_warp_frac = threshold("--min-warp-frac", a + 16);
        } else if (std::strncmp(a, "--out=", 6) == 0) {
            out_path = a + 6;
        } else if (std::strncmp(a, "--", 2) == 0) {
            std::fprintf(stderr, "perf_compare: unknown argument '%s'\n%s",
                         a, kUsage);
            return 2;
        } else {
            pos.push_back(a);
        }
    }
    if (pos.size() < 2) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    if (min_ratio <= 0 || min_ratio > 1.0) {
        std::fprintf(stderr,
                     "perf_compare: min ratio %.3f out of (0, 1]\n",
                     min_ratio);
        return 2;
    }
    if (max_epp_growth < 1.0) {
        std::fprintf(stderr,
                     "perf_compare: max epp growth %.3f below 1\n",
                     max_epp_growth);
        return 2;
    }
    if (min_warp_frac < 0 || min_warp_frac > 1.0) {
        std::fprintf(stderr,
                     "perf_compare: min warp frac %.3f out of [0, 1]\n",
                     min_warp_frac);
        return 2;
    }

    auto baseline = loadRates(pos[0]);
    if (!baseline)
        return 1;

    // Best-of-N: fold every fresh summary into one rate table, keeping
    // each bench's fastest observation.
    std::vector<BenchRate> best;
    std::size_t runs = 0;
    for (std::size_t i = 1; i < pos.size(); ++i) {
        auto fresh_i = loadRates(pos[i]);
        if (!fresh_i)
            return 1;
        ++runs;
        for (const BenchRate &r : *fresh_i) {
            bool merged = false;
            for (BenchRate &have : best) {
                if (have.name == r.name) {
                    if (have.thin != r.thin
                        || have.shards != r.shards
                        || have.fluid != r.fluid) {
                        std::fprintf(stderr,
                                     "perf_compare: %s: fresh runs "
                                     "disagree on mode "
                                     "(thin/shards/fluid) "
                                     "for %s — rerun one suite\n",
                                     pos[i], r.name.c_str());
                        return 2;
                    }
                    have.events_per_sec = std::max(have.events_per_sec,
                                                   r.events_per_sec);
                    // events/packet is deterministic across
                    // repetitions; keep the worst observation so a
                    // flaky run cannot mask growth.
                    have.events_per_packet =
                        std::max(have.events_per_packet,
                                 r.events_per_packet);
                    // Likewise the warp fraction: worst-of-N, so one
                    // healthy repetition cannot hide a degraded one.
                    have.warp_frac =
                        std::min(have.warp_frac, r.warp_frac);
                    have.peak_rss_mb =
                        std::max(have.peak_rss_mb, r.peak_rss_mb);
                    merged = true;
                    break;
                }
            }
            if (!merged)
                best.push_back(r);
        }
    }
    std::vector<BenchRate> &fresh = best;

    JsonWriter w;
    w.beginObject();
    w.kv("schema", "sriov-perf-compare/v1");
    w.kv("baseline", std::string(pos[0]));
    w.kv("fresh", std::string(pos[1]));
    w.kv("fresh_runs", std::uint64_t(runs));
    w.kv("min_ratio", min_ratio);
    w.kv("max_epp_growth", max_epp_growth);
    w.key("benches").beginArray();

    std::size_t compared = 0, failed = 0;
    for (const BenchRate &base : *baseline) {
        const BenchRate *now = findRate(fresh, base.name);
        w.beginObject();
        w.kv("bench", base.name);
        w.kv("baseline_events_per_sec", base.events_per_sec);
        if (now == nullptr) {
            w.kv("status", "missing");
            std::printf("perf_compare: %-16s missing from fresh run "
                        "(informational)\n",
                        base.name.c_str());
        } else if (base.thin != now->thin || base.shards != now->shards
                   || base.fluid != now->fluid) {
            // Never judge across simulation modes: a sharded run counts
            // per-island events on multiple host cores, a thinned run
            // coalesces deliveries, and a fluid run elides whole
            // steady-state stretches, so the events/s scales are not
            // commensurable with a differently-configured baseline.
            w.kv("fresh_events_per_sec", now->events_per_sec);
            w.kv("baseline_thin", base.thin);
            w.kv("baseline_shards", std::uint64_t(base.shards));
            w.kv("baseline_fluid", base.fluid);
            w.kv("fresh_thin", now->thin);
            w.kv("fresh_shards", std::uint64_t(now->shards));
            w.kv("fresh_fluid", now->fluid);
            w.kv("status", "mode-mismatch");
            std::printf("perf_compare: %-16s MODE MISMATCH "
                        "(baseline thin=%d shards=%u fluid=%d, fresh "
                        "thin=%d shards=%u fluid=%d) — not compared\n",
                        base.name.c_str(), int(base.thin), base.shards,
                        int(base.fluid), int(now->thin), now->shards,
                        int(now->fluid));
        } else if (base.events_per_sec <= 0) {
            w.kv("status", "no-baseline-rate");
        } else {
            double ratio = now->events_per_sec / base.events_per_sec;
            bool ok = ratio >= min_ratio;
            ++compared;
            w.kv("fresh_events_per_sec", now->events_per_sec);
            w.kv("ratio", ratio);
            // Events-per-packet gate: only when both sides report
            // packets (benches without packet counts skip it).
            bool epp_ok = true;
            double epp_ratio = 0;
            if (base.events_per_packet > 0
                && now->events_per_packet > 0) {
                epp_ratio =
                    now->events_per_packet / base.events_per_packet;
                epp_ok = epp_ratio <= max_epp_growth;
                w.kv("baseline_events_per_packet",
                     base.events_per_packet);
                w.kv("fresh_events_per_packet",
                     now->events_per_packet);
                w.kv("epp_ratio", epp_ratio);
            }
            if (!ok || !epp_ok)
                ++failed;
            w.kv("status", ok && epp_ok ? "ok" : "regressed");
            std::printf("perf_compare: %-16s %8.2f -> %8.2f M events/s "
                        "(%.2fx) %s",
                        base.name.c_str(), base.events_per_sec / 1e6,
                        now->events_per_sec / 1e6, ratio,
                        ok ? "ok" : "REGRESSED");
            if (epp_ratio > 0)
                std::printf(", %6.1f -> %6.1f ev/pkt (%.2fx) %s",
                            base.events_per_packet,
                            now->events_per_packet, epp_ratio,
                            epp_ok ? "ok" : "THINNING REGRESSED");
            printRss(w, base.peak_rss_mb, now->peak_rss_mb);
            std::printf("\n");
        }
        w.endObject();
    }
    for (const BenchRate &now : fresh) {
        if (findRate(*baseline, now.name) != nullptr)
            continue;
        w.beginObject();
        w.kv("bench", now.name);
        w.kv("fresh_events_per_sec", now.events_per_sec);
        w.kv("status", "new");
        std::printf("perf_compare: %-16s new bench at %.2f M events/s "
                    "(no baseline)",
                    now.name.c_str(), now.events_per_sec / 1e6);
        printRss(w, 0.0, now.peak_rss_mb);
        std::printf("\n");
        w.endObject();
    }
    w.endArray();

    // Warp-effectiveness floor: judged on the fresh side alone (no
    // baseline ratio — a fluid-on bench either warps most of its
    // steady horizon or the accelerator is broken), so new benches
    // and mode-mismatched ones are gated too.
    w.key("warp_gate").beginArray();
    if (min_warp_frac > 0) {
        for (const BenchRate &now : fresh) {
            if (!now.fluid)
                continue;
            bool ok = now.warp_frac >= min_warp_frac;
            w.beginObject();
            w.kv("bench", now.name);
            w.kv("warp_frac", now.warp_frac);
            w.kv("min_warp_frac", min_warp_frac);
            w.kv("status", ok ? "ok" : "degraded");
            w.endObject();
            std::printf("perf_compare: %-16s warp frac %.3f (floor "
                        "%.3f) %s\n",
                        now.name.c_str(), now.warp_frac, min_warp_frac,
                        ok ? "ok" : "WARP DEGRADED");
            if (!ok)
                ++failed;
            ++compared;
        }
    }
    w.endArray();
    w.kv("compared", std::uint64_t(compared));
    w.kv("regressed", std::uint64_t(failed));
    w.endObject();

    if (!out_path.empty()
        && !sriov::obs::writeTextFile(out_path, w.str())) {
        std::fprintf(stderr, "perf_compare: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }

    if (failed != 0) {
        std::fprintf(stderr,
                     "perf_compare: FAIL: %zu of %zu checks regressed "
                     "(events/s below %.2fx of the committed baseline, "
                     "events/packet above %.2fx of it, or warp "
                     "fraction below the %.2f floor)\n",
                     failed, compared, min_ratio, max_epp_growth,
                     min_warp_frac);
        return 1;
    }
    std::printf("perf_compare: %zu checks at or above the committed "
                "baseline (min ratio %.2f)\n",
                compared, min_ratio);
    return 0;
}
