/**
 * @file
 * Schema validator for the artifacts the observability layer emits:
 *
 *   report_check report <figXX.json> [...]     validate bench reports
 *   report_check trace  <x.trace.json> [...]   validate Chrome traces
 *   report_check perf   <x.perf.json> [...]    validate perf sidecars
 *   report_check pathtrace <x.pathtrace.json> [...]
 *                          validate packet-path trace/flightrec dumps
 *                          (span schema: trails anchored at origin,
 *                          monotone hop timestamps, known stage names,
 *                          base-sampling fraction within bounds)
 *   report_check fluid-equiv [--banded] [--band=<rel>] <ref> <fluid>
 *                          enforce the fluid equivalence contract
 *                          (DESIGN.md §14) between two figXX.json
 *                          runs: strict (default, --fluid=exact vs
 *                          --fluid=on — integer leaves byte-identical,
 *                          fp leaves within 1e-9) or --banded
 *                          (--fluid=off vs --fluid=on — workload
 *                          metrics within tolerance bands)
 *
 * Exit code 0 when every file parses, carries the required fields and
 * (for reports) every expectation is within its band; 1 otherwise.
 * CI runs this over bench/out/ so a drifting simulation or a malformed
 * writer fails the build rather than producing quietly-wrong JSON.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "check/fluid_equiv.hpp"
#include "obs/json.hpp"
#include "obs/pathtrace.hpp"
#include "obs/report.hpp"

using sriov::obs::JsonValue;

namespace {

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
fail(const std::string &path, const std::string &why)
{
    std::fprintf(stderr, "report_check: %s: %s\n", path.c_str(),
                 why.c_str());
    return false;
}

/** Shared by report path_stages blocks and pathtrace case stages:
 *  known names, causal enum order, sane numeric fields. */
bool
checkStagesArray(const std::string &path, const JsonValue &stages)
{
    int last_stage = -1;
    double share_sum = 0;
    for (const JsonValue &s : stages.items) {
        const JsonValue *name = s.find("stage");
        if (name == nullptr || !name->isString())
            return fail(path, "stage entry without name");
        auto st = sriov::obs::pathStageFromName(name->str);
        if (st == sriov::obs::PathStage::Count)
            return fail(path, "unknown stage '" + name->str + "'");
        if (int(st) <= last_stage)
            return fail(path, "stages out of causal order at '"
                                  + name->str + "'");
        last_stage = int(st);
        for (const char *k :
             {"count", "mean_us", "p50_us", "p99_us", "share_pct"}) {
            const JsonValue *v = s.find(k);
            if (v == nullptr || !v->isNumber() || v->number < 0)
                return fail(path, "stage '" + name->str
                                      + "' missing/negative '" + k + "'");
        }
        share_sum += s.find("share_pct")->number;
    }
    // Stage deltas telescope to the total, so shares sum to <= 100%
    // (short of 100 only when trails skip their final stages).
    if (share_sum > 100.5)
        return fail(path, "stage shares sum to "
                              + std::to_string(share_sum) + "% (> 100)");
    return true;
}

/** The optional path_stages block a report carries per case. */
bool
checkReportPathStages(const std::string &path, const JsonValue &blocks)
{
    if (!blocks.isArray())
        return fail(path, "path_stages is not an array");
    for (const JsonValue &b : blocks.items) {
        const JsonValue *label = b.find("label");
        if (label == nullptr || !label->isString())
            return fail(path, "path_stages entry without label");
        const JsonValue *stages = b.find("stages");
        if (stages == nullptr || !stages->isArray()
            || stages->items.empty())
            return fail(path, "path_stages '" + label->str
                                  + "' without stages");
        if (!checkStagesArray(path, *stages))
            return false;
        const JsonValue *total = b.find("total");
        if (total == nullptr || !total->isObject())
            return fail(path, "path_stages '" + label->str
                                  + "' without total");
        const JsonValue *count = total->find("count");
        if (count == nullptr || !count->isNumber() || count->number <= 0)
            return fail(path, "path_stages '" + label->str
                                  + "' total.count not positive");
    }
    return true;
}

bool
checkReport(const std::string &path)
{
    std::string text, err;
    if (!readFile(path, text))
        return fail(path, "cannot read");
    auto doc = JsonValue::parseTolerant(text, &err);
    if (!doc)
        return fail(path, "malformed JSON: " + err);

    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || !schema->isString()
        || schema->str != sriov::obs::Report::kSchema)
        return fail(path, "missing/unknown schema (want "
                              + std::string(sriov::obs::Report::kSchema)
                              + ")");
    for (const char *k : {"bench", "title"}) {
        const JsonValue *v = doc->find(k);
        if (v == nullptr || !v->isString() || v->str.empty())
            return fail(path, std::string("missing string field '") + k
                                  + "'");
    }
    const JsonValue *snaps = doc->find("snapshots");
    if (snaps == nullptr || !snaps->isArray())
        return fail(path, "missing snapshots array");
    std::size_t metrics = 0;
    for (const JsonValue &s : snaps->items) {
        const JsonValue *label = s.find("label");
        const JsonValue *m = s.find("metrics");
        if (label == nullptr || !label->isString() || m == nullptr
            || !m->isObject())
            return fail(path, "snapshot without label/metrics");
        metrics += m->members.size();
    }
    if (metrics == 0)
        return fail(path, "no metric samples in any snapshot");

    const JsonValue *exps = doc->find("expectations");
    if (exps == nullptr || !exps->isArray() || exps->items.empty())
        return fail(path, "no paper expectations recorded");
    std::size_t failed = 0;
    for (const JsonValue &e : exps->items) {
        for (const char *k : {"actual", "expected", "band_pct", "delta",
                              "delta_pct"}) {
            const JsonValue *v = e.find(k);
            if (v == nullptr || !v->isNumber())
                return fail(path, std::string("expectation missing '") + k
                                      + "'");
        }
        const JsonValue *name = e.find("name");
        const JsonValue *pass = e.find("pass");
        if (name == nullptr || !name->isString() || pass == nullptr
            || !pass->isBool())
            return fail(path, "expectation missing name/pass");
        if (!pass->boolean) {
            std::fprintf(stderr,
                         "report_check: %s: OUT OF BAND %s: actual %g vs "
                         "expected %g (+-%g%%)\n",
                         path.c_str(), name->str.c_str(),
                         e.find("actual")->number,
                         e.find("expected")->number,
                         e.find("band_pct")->number);
            ++failed;
        }
    }
    const JsonValue *all = doc->find("all_pass");
    if (all == nullptr || !all->isBool()
        || all->boolean != (failed == 0))
        return fail(path, "all_pass missing or inconsistent");
    if (const JsonValue *ps = doc->find("path_stages"); ps != nullptr) {
        if (!checkReportPathStages(path, *ps))
            return false;
    }
    if (failed != 0)
        return fail(path,
                    std::to_string(failed) + " expectation(s) out of band");
    std::printf("report_check: %s: OK (%zu snapshots, %zu expectations)\n",
                path.c_str(), snaps->items.size(), exps->items.size());
    return true;
}

bool
checkTrace(const std::string &path)
{
    std::string text, err;
    if (!readFile(path, text))
        return fail(path, "cannot read");
    auto doc = JsonValue::parseTolerant(text, &err);
    if (!doc)
        return fail(path, "malformed JSON: " + err);

    const JsonValue *events = doc->find("traceEvents");
    if (events == nullptr || !events->isArray() || events->items.empty())
        return fail(path, "missing/empty traceEvents");
    std::set<std::pair<double, double>> tracks;
    std::size_t spans = 0;
    for (const JsonValue &e : events->items) {
        const JsonValue *ph = e.find("ph");
        const JsonValue *pid = e.find("pid");
        const JsonValue *tid = e.find("tid");
        if (ph == nullptr || !ph->isString() || pid == nullptr
            || !pid->isNumber() || tid == nullptr || !tid->isNumber())
            return fail(path, "event missing ph/pid/tid");
        if (ph->str == "M")
            continue;
        tracks.insert({pid->number, tid->number});
        if (ph->str == "X") {
            ++spans;
            const JsonValue *dur = e.find("dur");
            const JsonValue *ts = e.find("ts");
            if (dur == nullptr || !dur->isNumber() || dur->number < 0
                || ts == nullptr || !ts->isNumber())
                return fail(path, "complete event missing ts/dur");
        }
    }
    if (tracks.size() < 2)
        return fail(path, "fewer than 2 tracks ("
                              + std::to_string(tracks.size()) + ")");
    // Capacity drops: the total and the per-track breakdown must agree
    // (a writer that forgets one of the two hides truncation).
    const JsonValue *dropped = doc->find("sriovDroppedEvents");
    const JsonValue *by_track = doc->find("sriovDroppedByTrack");
    if (dropped != nullptr || by_track != nullptr) {
        if (dropped == nullptr || !dropped->isNumber()
            || by_track == nullptr || !by_track->isArray()
            || by_track->items.empty())
            return fail(path, "sriovDroppedEvents/sriovDroppedByTrack "
                              "must appear together");
        double sum = 0;
        for (const JsonValue &d : by_track->items) {
            for (const char *k : {"pid", "tid", "dropped"}) {
                const JsonValue *v = d.find(k);
                if (v == nullptr || !v->isNumber())
                    return fail(path,
                                std::string("drop entry missing '") + k
                                    + "'");
            }
            sum += d.find("dropped")->number;
        }
        if (sum != dropped->number)
            return fail(path, "per-track drops sum "
                                  + std::to_string(sum)
                                  + " != sriovDroppedEvents "
                                  + std::to_string(dropped->number));
        std::fprintf(stderr,
                     "report_check: %s: note: %g event(s) dropped at "
                     "capacity across %zu track(s)\n",
                     path.c_str(), dropped->number,
                     by_track->items.size());
    }
    std::printf("report_check: %s: OK (%zu events, %zu spans, %zu "
                "tracks)\n",
                path.c_str(), events->items.size(), spans, tracks.size());
    return true;
}

bool
checkPathTrace(const std::string &path)
{
    std::string text, err;
    if (!readFile(path, text))
        return fail(path, "cannot read");
    auto doc = JsonValue::parseTolerant(text, &err);
    if (!doc)
        return fail(path, "malformed JSON: " + err);

    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || !schema->isString()
        || schema->str != "sriov-pathtrace/v1")
        return fail(path,
                    "missing/unknown schema (want sriov-pathtrace/v1)");
    const JsonValue *kind = doc->find("kind");
    if (kind == nullptr || !kind->isString()
        || (kind->str != "trace" && kind->str != "flightrec"))
        return fail(path, "kind must be 'trace' or 'flightrec'");
    const JsonValue *cases = doc->find("cases");
    if (cases == nullptr || !cases->isArray() || cases->items.empty())
        return fail(path, "missing/empty cases array");

    std::size_t trails_total = 0;
    for (const JsonValue &c : cases->items) {
        const JsonValue *label = c.find("label");
        if (label == nullptr || !label->isString())
            return fail(path, "case without label");
        const JsonValue *mode = c.find("mode");
        if (mode == nullptr || !mode->isString()
            || (mode->str != "off" && mode->str != "full"))
            return fail(path, "case '" + label->str + "': bad mode");
        for (const char *k :
             {"export_mask", "base_mask", "records", "origin_calls",
              "origin_sampled", "completed"}) {
            const JsonValue *v = c.find(k);
            if (v == nullptr || !v->isNumber() || v->number < 0)
                return fail(path, "case '" + label->str
                                      + "': missing counter '" + k + "'");
        }
        // Deterministic-hash base sampling targets 1 in (base_mask+1)
        // ids; with enough origins the realized fraction must sit
        // within a factor of 4 of that (it is a pure hash, not noise).
        const double origins = c.find("origin_calls")->number;
        const double sampled = c.find("origin_sampled")->number;
        const double base = c.find("base_mask")->number + 1;
        if (origins >= 1024) {
            const double frac = sampled / origins;
            if (frac < 1.0 / (base * 4) || frac > 4.0 / base)
                return fail(path,
                            "case '" + label->str + "': sampled fraction "
                                + std::to_string(frac)
                                + " outside [1/(4*base), 4/base]");
        }
        const JsonValue *comps = c.find("components");
        if (comps == nullptr || !comps->isArray() || comps->items.empty())
            return fail(path, "case '" + label->str + "': no components");
        for (const JsonValue &comp : comps->items) {
            const JsonValue *name = comp.find("name");
            if (name == nullptr || !name->isString() || name->str.empty())
                return fail(path, "component without name");
            for (const char *k : {"capacity", "written", "overwritten"}) {
                const JsonValue *v = comp.find(k);
                if (v == nullptr || !v->isNumber() || v->number < 0)
                    return fail(path, "component '" + name->str
                                          + "' missing '" + k + "'");
            }
        }
        const JsonValue *stages = c.find("stages");
        if (stages == nullptr || !stages->isArray())
            return fail(path, "case '" + label->str + "': no stages");
        if (!stages->items.empty()
            && !checkStagesArray(path, *stages))
            return false;
        const JsonValue *trails = c.find("trails");
        if (trails == nullptr || !trails->isArray())
            return fail(path, "case '" + label->str + "': no trails");
        for (const JsonValue &t : trails->items) {
            const JsonValue *id = t.find("id");
            const JsonValue *hops = t.find("hops");
            if (id == nullptr || !id->isString() || hops == nullptr
                || !hops->isArray() || hops->items.empty())
                return fail(path, "trail without id/hops");
            double prev = -1;
            bool first = true;
            for (const JsonValue &h : hops->items) {
                const JsonValue *stage = h.find("stage");
                const JsonValue *comp = h.find("comp");
                const JsonValue *t_ps = h.find("t_ps");
                if (stage == nullptr || !stage->isString()
                    || comp == nullptr || !comp->isString()
                    || t_ps == nullptr || !t_ps->isNumber())
                    return fail(path, "trail " + id->str
                                          + ": hop missing fields");
                if (sriov::obs::pathStageFromName(stage->str)
                    == sriov::obs::PathStage::Count)
                    return fail(path, "trail " + id->str
                                          + ": unknown stage '"
                                          + stage->str + "'");
                if (first && stage->str != "origin")
                    return fail(path, "trail " + id->str
                                          + ": does not start at origin");
                first = false;
                if (t_ps->number < prev)
                    return fail(path,
                                "trail " + id->str
                                    + ": non-monotone hop timestamps");
                prev = t_ps->number;
            }
        }
        trails_total += trails->items.size();
    }
    std::printf("report_check: %s: OK (%s, %zu cases, %zu trails)\n",
                path.c_str(), kind->str.c_str(), cases->items.size(),
                trails_total);
    return true;
}

bool
checkPerf(const std::string &path)
{
    std::string text, err;
    if (!readFile(path, text))
        return fail(path, "cannot read");
    auto doc = JsonValue::parseTolerant(text, &err);
    if (!doc)
        return fail(path, "malformed JSON: " + err);

    const JsonValue *schema = doc->find("schema");
    if (schema == nullptr || !schema->isString()
        || schema->str != "sriov-bench-perf/v1")
        return fail(path,
                    "missing/unknown schema (want sriov-bench-perf/v1)");
    const JsonValue *bench = doc->find("bench");
    if (bench == nullptr || !bench->isString() || bench->str.empty())
        return fail(path, "missing string field 'bench'");
    const JsonValue *jobs = doc->find("jobs");
    if (jobs == nullptr || !jobs->isNumber() || jobs->number < 1)
        return fail(path, "missing/invalid 'jobs'");

    const JsonValue *cases = doc->find("cases");
    if (cases == nullptr || !cases->isArray() || cases->items.empty())
        return fail(path, "missing/empty cases array");
    double sum_events = 0;
    std::size_t fluid_cases = 0;
    for (const JsonValue &c : cases->items) {
        const JsonValue *label = c.find("label");
        if (label == nullptr || !label->isString() || label->str.empty())
            return fail(path, "case without label");
        for (const char *k : {"events", "host_wall_s", "events_per_sec"}) {
            const JsonValue *v = c.find(k);
            if (v == nullptr || !v->isNumber() || v->number < 0)
                return fail(path, std::string("case missing '") + k + "'");
        }
        sum_events += c.find("events")->number;

        // Warp accounting, when present: every counter is a plain
        // non-negative number, every probe either produced a segment
        // or was rejected, and warped simulated time fits inside the
        // simulated window the case actually covered.
        const JsonValue *fs = c.find("fluid_stats");
        if (fs == nullptr)
            continue;
        ++fluid_cases;
        for (const char *k : {"segments", "probes", "rejected",
                              "periods_warped", "warped_sim_s",
                              "events_elided"}) {
            const JsonValue *v = fs->find(k);
            if (v == nullptr || !v->isNumber() || v->number < 0)
                return fail(path, std::string("fluid_stats missing '")
                                      + k + "' in case "
                                      + label->str);
        }
        double segments = fs->find("segments")->number;
        double probes = fs->find("probes")->number;
        double rejected = fs->find("rejected")->number;
        double warped = fs->find("warped_sim_s")->number;
        if (segments + rejected > probes)
            return fail(path, "fluid_stats: segments + rejected > "
                              "probes in case " + label->str);
        if (segments > 0
            && fs->find("periods_warped")->number < segments)
            return fail(path, "fluid_stats: fewer warped periods than "
                              "segments in case " + label->str);
        const JsonValue *sim_s = c.find("sim_s");
        if (sim_s != nullptr && sim_s->isNumber()
            && warped > sim_s->number * (1 + 1e-9))
            return fail(path, "fluid_stats: warped_sim_s exceeds the "
                              "simulated window in case " + label->str);
        const JsonValue *frac = fs->find("warp_frac");
        if (frac != nullptr
            && (!frac->isNumber() || frac->number < 0
                || frac->number > 1 + 1e-9))
            return fail(path, "fluid_stats: warp_frac outside [0, 1] "
                              "in case " + label->str);
    }
    const JsonValue *total = doc->find("total");
    if (total == nullptr || !total->isObject())
        return fail(path, "missing total object");
    const JsonValue *tev = total->find("events");
    if (tev == nullptr || !tev->isNumber()
        || tev->number != sum_events)
        return fail(path, "total.events inconsistent with case sum");
    const JsonValue *rss = total->find("peak_rss_mb");
    if (rss != nullptr
        && (!rss->isNumber() || !std::isfinite(rss->number)
            || rss->number <= 0))
        return fail(path, "total.peak_rss_mb not a finite positive "
                          "number");
    std::printf("report_check: %s: OK (%zu cases, %.0f events, %zu "
                "with warp stats)\n",
                path.c_str(), cases->items.size(), sum_events,
                fluid_cases);
    return true;
}

/** `report_check fluid-equiv [--banded] [--band=<rel>] <ref> <fluid>` */
int
checkFluidEquiv(int argc, char **argv)
{
    sriov::check::FluidEquivOptions opt;
    std::string ref_path, fluid_path;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--banded") {
            opt.banded = true;
        } else if (arg.rfind("--band=", 0) == 0) {
            opt.band = std::atof(arg.c_str() + 7);
        } else if (ref_path.empty()) {
            ref_path = arg;
        } else if (fluid_path.empty()) {
            fluid_path = arg;
        } else {
            std::fprintf(stderr, "fluid-equiv: unexpected arg '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (ref_path.empty() || fluid_path.empty()) {
        std::fprintf(stderr, "usage: report_check fluid-equiv "
                             "[--banded] [--band=<rel>] <ref.json> "
                             "<fluid.json>\n");
        return 2;
    }
    std::string text, err;
    if (!readFile(ref_path, text))
        return fail(ref_path, "cannot read"), 1;
    auto ref = JsonValue::parseTolerant(text, &err);
    if (!ref)
        return fail(ref_path, "malformed JSON: " + err), 1;
    if (!readFile(fluid_path, text))
        return fail(fluid_path, "cannot read"), 1;
    auto fluid = JsonValue::parseTolerant(text, &err);
    if (!fluid)
        return fail(fluid_path, "malformed JSON: " + err), 1;

    auto res = sriov::check::compareFluidReports(*ref, *fluid, opt);
    for (const std::string &v : res.violations)
        std::fprintf(stderr, "fluid-equiv: VIOLATION %s\n", v.c_str());
    if (!res.ok()) {
        std::fprintf(stderr,
                     "fluid-equiv: %s vs %s: %zu violation(s) over %zu "
                     "leaves (%s contract)\n",
                     ref_path.c_str(), fluid_path.c_str(),
                     res.violations.size(), res.compared,
                     opt.banded ? "banded" : "strict");
        return 1;
    }
    std::printf("fluid-equiv: %s vs %s: OK (%zu leaves, %zu "
                "byte-identical, %zu diagnostic skipped, %s contract)\n",
                ref_path.c_str(), fluid_path.c_str(), res.compared,
                res.exact, res.skipped,
                opt.banded ? "banded" : "strict");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc >= 2 ? argv[1] : "";
    if (mode == "fluid-equiv")
        return checkFluidEquiv(argc, argv);
    if (argc < 3
        || (mode != "report" && mode != "trace" && mode != "perf"
            && mode != "pathtrace")) {
        std::fprintf(
            stderr,
            "usage: report_check report <figXX.json> [...]\n"
            "       report_check trace <x.trace.json> [...]\n"
            "       report_check perf <x.perf.json> [...]\n"
            "       report_check pathtrace <x.pathtrace.json> [...]\n"
            "       report_check fluid-equiv [--banded] [--band=<rel>] "
            "<ref.json> <fluid.json>\n");
        return 2;
    }
    bool ok = true;
    for (int i = 2; i < argc; ++i) {
        bool one = mode == "trace" ? checkTrace(argv[i])
                   : mode == "perf" ? checkPerf(argv[i])
                   : mode == "pathtrace" ? checkPathTrace(argv[i])
                                         : checkReport(argv[i]);
        ok = one && ok;
    }
    return ok ? 0 : 1;
}
