/**
 * @file
 * Merge every bench report in a directory into one machine-readable
 * BENCH_summary.json: per-figure pass/fail plus every expectation's
 * actual/expected/delta. This is the repo-level trajectory file — one
 * line per figure of how close the simulation tracks the paper.
 *
 *   bench_summary <dir-with-figXX.json> [out.json]
 *
 * With --perf, merge the <bench>.perf.json host-performance sidecars
 * instead (schema sriov-bench-perf/v1) into BENCH_perf.json: per-bench
 * events/host-seconds/events-per-second — the repo's wall-clock
 * trajectory, tracking how fast the simulator itself runs.
 *
 *   bench_summary --perf <dir-with-*.perf.json> [out.json]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

using sriov::obs::JsonValue;
using sriov::obs::JsonWriter;

namespace {

std::optional<JsonValue>
loadJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = JsonValue::parseTolerant(ss.str(), &err);
    if (!doc)
        std::fprintf(stderr, "bench_summary: %s: %s\n", path.c_str(),
                     err.c_str());
    return doc;
}

double
num(const JsonValue &v, const char *k)
{
    const JsonValue *f = v.find(k);
    return f != nullptr ? f->number : 0.0;
}

/** Merge *.perf.json sidecars into a BENCH_perf.json trajectory. */
int
summarizePerf(const std::vector<std::string> &files,
              const std::string &out_path)
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "sriov-bench-perf-summary/v1");
    w.key("benches").beginArray();
    std::size_t benches = 0;
    double grand_events = 0, grand_wall = 0;
    for (const std::string &path : files) {
        auto doc = loadJson(path);
        if (!doc)
            return 1;
        const JsonValue *schema = doc->find("schema");
        if (schema == nullptr || schema->str != "sriov-bench-perf/v1") {
            std::fprintf(stderr,
                         "bench_summary: %s: not a perf sidecar\n",
                         path.c_str());
            continue;
        }
        const JsonValue *bench = doc->find("bench");
        const JsonValue *total = doc->find("total");
        const JsonValue *cases = doc->find("cases");
        w.beginObject();
        w.kv("bench", bench != nullptr ? bench->str : path);
        w.kv("jobs", num(*doc, "jobs"));
        // Simulation mode rides into the summary so perf_compare can
        // refuse to judge a sharded run against a sequential baseline
        // (absent keys = the pre-shard defaults: thinning on, shards 0).
        const JsonValue *thin = doc->find("thin");
        w.kv("thin", thin == nullptr || thin->boolean);
        w.kv("shards", num(*doc, "shards"));
        const JsonValue *fluid = doc->find("fluid");
        w.kv("fluid", fluid != nullptr && fluid->boolean);
        const JsonValue *fmode = doc->find("fluid_mode");
        if (fmode != nullptr && fmode->isString())
            w.kv("fluid_mode", fmode->str);
        w.kv("cases",
             double(cases != nullptr ? cases->items.size() : 0));
        if (total != nullptr) {
            w.kv("events", num(*total, "events"));
            w.kv("host_wall_s", num(*total, "host_wall_s"));
            w.kv("events_per_sec", num(*total, "events_per_sec"));
            // Simulation cost per unit workload: if thinning (or fluid
            // warping) is silently disabled, events/packet balloons even
            // when events/s looks healthy — perf_compare gates on it.
            if (num(*total, "packets") > 0) {
                w.kv("packets", num(*total, "packets"));
                w.kv("events_per_packet",
                     num(*total, "events_per_packet"));
            }
            // Process high-water mark, recorded for the trajectory;
            // perf_compare prints it and gates nothing.
            if (const JsonValue *rss = total->find("peak_rss_mb"))
                w.kv("peak_rss_mb", rss->number);
            grand_events += num(*total, "events");
            grand_wall += num(*total, "host_wall_s");
        }
        // Warp effectiveness rides into the summary so perf_compare's
        // --min-warp-frac gate can catch fluid warping silently
        // degrading (probes forever rejected -> the bench still
        // finishes, just 60x slower). Summed over the cases; the
        // fraction is warped simulated time over simulated time.
        double segments = 0, periods = 0, warped = 0, elided = 0;
        double sim_s = 0;
        bool any_fluid = false;
        if (cases != nullptr) {
            for (const JsonValue &c : cases->items) {
                sim_s += num(c, "sim_s");
                const JsonValue *fs = c.find("fluid_stats");
                if (fs == nullptr)
                    continue;
                any_fluid = true;
                segments += num(*fs, "segments");
                periods += num(*fs, "periods_warped");
                warped += num(*fs, "warped_sim_s");
                elided += num(*fs, "events_elided");
            }
        }
        if (any_fluid) {
            w.key("fluid_stats").beginObject();
            w.kv("segments", segments);
            w.kv("periods_warped", periods);
            w.kv("warped_sim_s", warped);
            if (sim_s > 0)
                w.kv("warp_frac", warped / sim_s);
            w.kv("events_elided", elided);
            w.endObject();
        }
        w.endObject();
        ++benches;
    }
    w.endArray();
    w.key("total").beginObject();
    w.kv("benches", double(benches));
    w.kv("events", grand_events);
    w.kv("host_wall_s", grand_wall);
    w.kv("events_per_sec",
         grand_wall > 0 ? grand_events / grand_wall : 0.0);
    w.endObject();
    w.endObject();

    if (!sriov::obs::writeTextFile(out_path, w.str())) {
        std::fprintf(stderr, "bench_summary: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("bench_summary: %s: %zu perf sidecars, %.0f events in "
                "%.2fs host time (%.2f M events/s)\n",
                out_path.c_str(), benches, grand_events, grand_wall,
                grand_wall > 0 ? grand_events / grand_wall / 1e6 : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool perf_mode = false;
    std::vector<const char *> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--perf") == 0)
            perf_mode = true;
        else
            pos.push_back(argv[i]);
    }
    if (pos.empty()) {
        std::fprintf(stderr,
                     "usage: bench_summary [--perf] <dir> [out.json]\n");
        return 2;
    }
    std::string dir = pos[0];
    std::string out_path =
        pos.size() > 1 ? pos[1]
                       : (perf_mode ? "BENCH_perf.json"
                                    : "BENCH_summary.json");

    std::vector<std::string> files;
    std::error_code ec;
    for (const auto &ent :
         std::filesystem::directory_iterator(dir, ec)) {
        const auto &p = ent.path();
        if (p.extension() != ".json"
            || p.string().find(".trace.") != std::string::npos
            || p.string().find(".pathtrace.") != std::string::npos
            || p.string().find(".flightrec.") != std::string::npos)
            continue;
        bool is_perf =
            p.string().find(".perf.") != std::string::npos;
        if (is_perf == perf_mode)
            files.push_back(p.string());
    }
    if (ec || files.empty()) {
        std::fprintf(stderr, "bench_summary: no %s in %s\n",
                     perf_mode ? "perf sidecars" : "reports",
                     dir.c_str());
        return 1;
    }
    std::sort(files.begin(), files.end());

    if (perf_mode)
        return summarizePerf(files, out_path);

    JsonWriter w;
    w.beginObject();
    w.kv("schema", "sriov-bench-summary/v1");
    w.key("benches").beginArray();
    std::size_t total = 0, passed = 0, figures = 0, figures_ok = 0;
    for (const std::string &path : files) {
        auto doc = loadJson(path);
        if (!doc)
            return 1;
        const JsonValue *schema = doc->find("schema");
        if (schema == nullptr
            || schema->str != sriov::obs::Report::kSchema) {
            std::fprintf(stderr, "bench_summary: %s: not a bench report\n",
                         path.c_str());
            continue;
        }
        ++figures;
        const JsonValue *bench = doc->find("bench");
        const JsonValue *all = doc->find("all_pass");
        const JsonValue *exps = doc->find("expectations");
        bool fig_ok = all != nullptr && all->boolean;
        w.beginObject();
        w.kv("bench", bench != nullptr ? bench->str : path);
        w.kv("all_pass", fig_ok);
        w.key("expectations").beginArray();
        if (exps != nullptr) {
            for (const JsonValue &e : exps->items) {
                ++total;
                const JsonValue *pass = e.find("pass");
                const JsonValue *name = e.find("name");
                if (pass != nullptr && pass->boolean)
                    ++passed;
                w.beginObject();
                w.kv("name", name != nullptr ? name->str : "");
                w.kv("actual", num(e, "actual"));
                w.kv("expected", num(e, "expected"));
                w.kv("delta_pct", num(e, "delta_pct"));
                w.kv("pass", pass != nullptr && pass->boolean);
                w.endObject();
            }
        }
        w.endArray();
        // Stage-latency attribution rides along so the trajectory file
        // shows where each figure's packet time goes, not just whether
        // the totals land in band.
        if (const JsonValue *ps = doc->find("path_stages");
            ps != nullptr && ps->isArray() && !ps->items.empty()) {
            w.key("path_stages").beginArray();
            for (const JsonValue &b : ps->items) {
                const JsonValue *label = b.find("label");
                const JsonValue *tot = b.find("total");
                w.beginObject();
                w.kv("label", label != nullptr ? label->str : "");
                if (tot != nullptr) {
                    w.kv("trails", num(*tot, "count"));
                    w.kv("total_p50_us", num(*tot, "p50_us"));
                    w.kv("total_p99_us", num(*tot, "p99_us"));
                }
                w.key("stages").beginArray();
                if (const JsonValue *stages = b.find("stages");
                    stages != nullptr) {
                    for (const JsonValue &s : stages->items) {
                        const JsonValue *sn = s.find("stage");
                        w.beginObject();
                        w.kv("stage", sn != nullptr ? sn->str : "");
                        w.kv("p50_us", num(s, "p50_us"));
                        w.kv("p99_us", num(s, "p99_us"));
                        w.kv("share_pct", num(s, "share_pct"));
                        w.endObject();
                    }
                }
                w.endArray();
                w.endObject();
            }
            w.endArray();
        }
        w.endObject();
        if (fig_ok)
            ++figures_ok;
    }
    w.endArray();
    w.kv("figures", std::uint64_t(figures));
    w.kv("figures_pass", std::uint64_t(figures_ok));
    w.kv("expectations", std::uint64_t(total));
    w.kv("expectations_pass", std::uint64_t(passed));
    w.endObject();

    if (!sriov::obs::writeTextFile(out_path, w.str())) {
        std::fprintf(stderr, "bench_summary: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("bench_summary: %s: %zu figures (%zu pass), %zu/%zu "
                "expectations in band\n",
                out_path.c_str(), figures, figures_ok, passed,
                total);
    return 0;
}
