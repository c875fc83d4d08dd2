/**
 * @file
 * Unit tests for the observability layer: histogram bucket math,
 * metric registry, JSON writer/parser round-trips, Chrome trace
 * export, bench reports and the shared bench CLI contract.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_options.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metric.hpp"
#include "obs/pathtrace.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "sim/cpu_server.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

using namespace sriov;
using namespace sriov::obs;

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundaries)
{
    Histogram h(Histogram::Params{1.0, 2.0, 4});
    ASSERT_EQ(h.bucketCount(), 4u);
    EXPECT_DOUBLE_EQ(h.bucketUpperBound(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketUpperBound(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bucketUpperBound(2), 4.0);
    EXPECT_TRUE(std::isinf(h.bucketUpperBound(3)));

    // Bounds are inclusive upper bounds; <= 0 lands in bucket 0.
    EXPECT_EQ(h.bucketIndex(-5.0), 0u);
    EXPECT_EQ(h.bucketIndex(1.0), 0u);
    EXPECT_EQ(h.bucketIndex(1.0001), 1u);
    EXPECT_EQ(h.bucketIndex(2.0), 1u);
    EXPECT_EQ(h.bucketIndex(4.0), 2u);
    EXPECT_EQ(h.bucketIndex(1e9), 3u);
}

TEST(Histogram, RecordAndSummaryStats)
{
    Histogram h(Histogram::Params{1.0, 2.0, 8});
    h.record(3.0);
    h.record(5.0);
    h.record(7.0);
    EXPECT_DOUBLE_EQ(h.count(), 3.0);
    EXPECT_DOUBLE_EQ(h.sum(), 15.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.min(), 3.0);
    EXPECT_DOUBLE_EQ(h.max(), 7.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(h.bucketIndex(3.0)), 1.0);
    EXPECT_DOUBLE_EQ(h.bucketWeight(h.bucketIndex(5.0)), 2.0);
}

TEST(Histogram, WeightedRecording)
{
    Histogram h;
    h.record(10.0, 1.13);
    h.record(20.0, 0.87);
    EXPECT_DOUBLE_EQ(h.count(), 2.0);
    EXPECT_DOUBLE_EQ(h.sum(), 10.0 * 1.13 + 20.0 * 0.87);
    // Non-positive weights are ignored.
    h.record(30.0, 0.0);
    h.record(30.0, -1.0);
    EXPECT_DOUBLE_EQ(h.count(), 2.0);
}

TEST(Histogram, PercentileExactForSingleValue)
{
    // All samples share one value: the percentile clamps to [min, max]
    // and must be exact — this is what lets the integration tests
    // assert CostModel constants through the histogram.
    Histogram h(Histogram::Params{50.0, 1.3, 48});
    for (int i = 0; i < 100; ++i)
        h.record(2500.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 2500.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 2500.0);
}

TEST(Histogram, PercentileMonotoneAndBucketAccurate)
{
    Histogram h(Histogram::Params{1.0, 2.0, 16});
    for (int i = 1; i <= 100; ++i)
        h.record(double(i));
    double p50 = h.percentile(50);
    double p99 = h.percentile(99);
    EXPECT_LE(p50, p99);
    // Accurate to one log-bucket: p50 of 1..100 is <= 64 (bucket bound
    // above 50), p99 within [max/2, max].
    EXPECT_GE(p50, 25.0);
    EXPECT_LE(p50, 64.0);
    EXPECT_GE(p99, 50.0);
    EXPECT_LE(p99, 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(5.0);
    h.reset();
    EXPECT_TRUE(h.empty());
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

// ----------------------------------------------------------- MetricRegistry

TEST(MetricRegistry, PrefixMatchesComponentBoundaries)
{
    EXPECT_TRUE(MetricRegistry::matchesPrefix("server.nic0.pf.rx", ""));
    EXPECT_TRUE(
        MetricRegistry::matchesPrefix("server.nic0.pf.rx", "server.nic0"));
    EXPECT_TRUE(MetricRegistry::matchesPrefix("server.nic0", "server.nic0"));
    EXPECT_FALSE(
        MetricRegistry::matchesPrefix("server.nic00.pf", "server.nic0"));
    EXPECT_FALSE(MetricRegistry::matchesPrefix("server", "server.nic0"));
}

TEST(MetricRegistry, AdaptsExistingStatsByRegistration)
{
    sim::Counter c;
    sim::Accumulator a;
    Histogram h;
    MetricRegistry reg;
    reg.add("srv.rx_frames", &c);
    reg.add("srv.rx_bytes", &a);
    reg.add("hist.latency", &h);
    reg.addGauge("srv.derived", []() { return 42.0; });

    // Values flow through with no re-registration.
    c.inc(7);
    a.add(1500);
    h.record(10.0);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 4u);
    EXPECT_DOUBLE_EQ(snap.value("srv.rx_frames"), 7.0);
    EXPECT_DOUBLE_EQ(snap.value("srv.rx_bytes"), 1500.0);
    EXPECT_DOUBLE_EQ(snap.value("srv.derived"), 42.0);
    const MetricSample *s = snap.find("hist.latency");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind, MetricKind::Histogram);
    EXPECT_DOUBLE_EQ(s->count, 1.0);
    EXPECT_DOUBLE_EQ(s->p50, 10.0);

    // Subtree snapshot.
    auto sub = reg.snapshot("srv");
    EXPECT_EQ(sub.samples.size(), 3u);
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_DOUBLE_EQ(snap.value("nope", -1.0), -1.0);
}

TEST(MetricRegistry, RemovePrefixDropsSubtree)
{
    sim::Counter c1, c2, c3;
    MetricRegistry reg;
    reg.add("a.b.x", &c1);
    reg.add("a.b.y", &c2);
    reg.add("a.bc", &c3);
    reg.removePrefix("a.b");
    EXPECT_FALSE(reg.contains("a.b.x"));
    EXPECT_FALSE(reg.contains("a.b.y"));
    EXPECT_TRUE(reg.contains("a.bc"));
}

TEST(MetricRegistryDeathTest, DuplicateNameAborts)
{
    sim::Counter c;
    MetricRegistry reg;
    reg.add("dup", &c);
    EXPECT_DEATH(reg.add("dup", &c), "dup");
}

// ------------------------------------------------------------------- JSON

TEST(Json, WriterParserRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.kv("name", "q\"uo\\te\n");
    w.kv("num", 1.5);
    w.kv("neg", std::int64_t(-3));
    w.kv("flag", true);
    w.key("arr").beginArray();
    w.value(1.0).value(2.0).null();
    w.endArray();
    w.endObject();

    std::string err;
    auto doc = JsonValue::parse(w.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("name")->str, "q\"uo\\te\n");
    EXPECT_DOUBLE_EQ(doc->find("num")->number, 1.5);
    EXPECT_DOUBLE_EQ(doc->find("neg")->number, -3.0);
    EXPECT_TRUE(doc->find("flag")->boolean);
    const JsonValue *arr = doc->find("arr");
    ASSERT_TRUE(arr != nullptr && arr->isArray());
    ASSERT_EQ(arr->items.size(), 3u);
    EXPECT_EQ(arr->items[2].type, JsonValue::Type::Null);
}

TEST(Json, ParserRejectsMalformed)
{
    EXPECT_FALSE(JsonValue::parse("{").has_value());
    EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
    EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
    EXPECT_FALSE(JsonValue::parse("'single'").has_value());
}

TEST(Json, TolerantParseSkipsLeadingShellNoise)
{
    // A `bench > out.json` capture under a chatty shell profile starts
    // with warning lines (conda's auto_activate_base note is the
    // canonical one); the document itself must still parse — and still
    // be validated in full.
    std::string noisy =
        "WARNING conda.cli.condarc:set_key(484): Key auto_activate_base "
        "is not a known primitive parameter.\n"
        "another stray line\n"
        "  {\"schema\": \"x/v1\", \"n\": 3}\n";
    auto doc = JsonValue::parseTolerant(noisy);
    ASSERT_TRUE(doc.has_value());
    ASSERT_NE(doc->find("n"), nullptr);
    EXPECT_EQ(doc->find("n")->number, 3.0);

    // Arrays too, and noise-free input is unchanged.
    EXPECT_TRUE(JsonValue::parseTolerant("junk\n[1, 2]").has_value());
    EXPECT_TRUE(JsonValue::parseTolerant("{\"a\": 1}").has_value());

    // Still a full parse: garbage after the document, a truncated
    // document, or no document at all are errors.
    EXPECT_FALSE(JsonValue::parseTolerant("noise\n{} trailing")
                     .has_value());
    EXPECT_FALSE(JsonValue::parseTolerant("noise\n{").has_value());
    EXPECT_FALSE(JsonValue::parseTolerant("no json here").has_value());
}

TEST(Json, NonFiniteNumbersDegradeToNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

// ----------------------------------------------------------- Chrome trace

TEST(ChromeTrace, ExportsSpansInstantsAndMetadata)
{
    ChromeTraceWriter w;
    auto cpu_track = w.track("server", "cpu0");
    auto irq_track = w.track("trace", "irq");
    w.addSpan(cpu_track, "guest-1", sim::Time::us(10), sim::Time::us(30));
    w.addInstant(irq_track, "msi", sim::Time::us(15));

    std::string err;
    auto doc = JsonValue::parse(w.toJson(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_TRUE(events != nullptr && events->isArray());

    std::set<std::pair<double, double>> tracks;
    bool saw_span = false, saw_instant = false, saw_meta = false;
    for (const JsonValue &e : events->items) {
        const std::string &ph = e.find("ph")->str;
        if (ph == "M") {
            saw_meta = true;
            continue;
        }
        tracks.insert({e.find("pid")->number, e.find("tid")->number});
        if (ph == "X") {
            saw_span = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->number, 10.0);
            EXPECT_DOUBLE_EQ(e.find("dur")->number, 20.0);
            EXPECT_EQ(e.find("name")->str, "guest-1");
        } else if (ph == "i") {
            saw_instant = true;
            EXPECT_DOUBLE_EQ(e.find("ts")->number, 15.0);
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_instant);
    EXPECT_TRUE(saw_meta);
    // Acceptance: at least two distinct (pid, tid) tracks.
    EXPECT_GE(tracks.size(), 2u);
}

TEST(ChromeTrace, CapturesCpuServerSpans)
{
    sim::EventQueue eq;
    sim::CpuServer cpu(eq, "pcpu0", 1e9);
    ChromeTraceWriter w;
    w.attachCpu(cpu, "server");
    cpu.submit(100, "xen");
    eq.runAll();
    w.detachAll();
    EXPECT_EQ(cpu.spanTap(), nullptr);
    ASSERT_GE(w.eventCount(), 1u);

    auto doc = JsonValue::parse(w.toJson());
    ASSERT_TRUE(doc.has_value());
    bool found = false;
    for (const JsonValue &e : doc->find("traceEvents")->items) {
        if (e.find("ph")->str == "X" && e.find("name")->str == "xen")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(ChromeTrace, ImportsTracerRecordsPerCategoryTracks)
{
    sim::Tracer t(16);
    t.enable(sim::TraceCat::Irq);
    t.enable(sim::TraceCat::Nic);
    t.record(sim::TraceCat::Irq, "vector 0x41");
    t.record(sim::TraceCat::Nic, "rx frame");

    ChromeTraceWriter w;
    w.importTracer(t);
    auto doc = JsonValue::parse(w.toJson());
    ASSERT_TRUE(doc.has_value());
    std::set<double> tids;
    for (const JsonValue &e : doc->find("traceEvents")->items) {
        if (e.find("ph")->str == "i")
            tids.insert(e.find("tid")->number);
    }
    EXPECT_EQ(tids.size(), 2u); // one track per category
}

TEST(ChromeTrace, DropsAtCapacityKeepingOldest)
{
    ChromeTraceWriter w(/*max_events=*/3);
    auto tr = w.track("p", "t");
    for (int i = 0; i < 5; ++i)
        w.addInstant(tr, "e" + std::to_string(i), sim::Time::us(i));
    EXPECT_EQ(w.eventCount(), 3u);
    EXPECT_EQ(w.droppedEvents(), 2u);
    auto doc = JsonValue::parse(w.toJson());
    ASSERT_TRUE(doc.has_value());
    EXPECT_NE(doc->find("sriovDroppedEvents"), nullptr);
}

// ----------------------------------------------------------------- Report

TEST(Report, JsonCarriesSnapshotsSeriesAndExpectations)
{
    sim::Counter c;
    c.inc(5);
    Histogram h;
    h.record(2.0);
    MetricRegistry reg;
    reg.add("srv.frames", &c);
    reg.add("hist.lat", &h);

    Report rep("fig99", "unit test");
    rep.setConfig("vms", 7.0);
    rep.setConfig("kernel", "2.6.28");
    rep.addSnapshot("case-a", reg);
    rep.addMetric("derived.gbps", 9.57);
    rep.addSeries("y_vs_x", {1, 2}, {10, 20});
    rep.expect("in_band", 100.0, 95.0, 10);
    rep.expect("out_of_band", 100.0, 50.0, 10);
    EXPECT_FALSE(rep.allPass());

    std::string err;
    auto doc = JsonValue::parse(rep.toJson(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("schema")->str, Report::kSchema);
    EXPECT_EQ(doc->find("bench")->str, "fig99");
    EXPECT_DOUBLE_EQ(doc->find("config")->find("vms")->number, 7.0);

    const JsonValue *snaps = doc->find("snapshots");
    ASSERT_TRUE(snaps != nullptr && snaps->items.size() == 1);
    const JsonValue *metrics = snaps->items[0].find("metrics");
    ASSERT_NE(metrics, nullptr);
    const JsonValue *hist = metrics->find("hist.lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("p99")->number, 2.0);

    const JsonValue *exps = doc->find("expectations");
    ASSERT_TRUE(exps != nullptr && exps->items.size() == 2);
    EXPECT_TRUE(exps->items[0].find("pass")->boolean);
    EXPECT_FALSE(exps->items[1].find("pass")->boolean);
    EXPECT_DOUBLE_EQ(exps->items[1].find("delta_pct")->number, 100.0);
    EXPECT_FALSE(doc->find("all_pass")->boolean);

    const JsonValue *series = doc->find("series");
    ASSERT_TRUE(series != nullptr && series->items.size() == 1);
    EXPECT_EQ(series->items[0].find("x")->items.size(), 2u);
}

TEST(Report, ZeroExpectedPassesOnlyOnExactMatch)
{
    Report rep("fig99", "t");
    EXPECT_TRUE(rep.expect("zero_ok", 0.0, 0.0, 10).pass);
    EXPECT_FALSE(rep.expect("zero_bad", 0.001, 0.0, 10).pass);
}

// ----------------------------------------------------------- BenchOptions

namespace {

BenchOptions
parseArgs(std::vector<std::string> args, const std::string &bench = "figXX")
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto &a : args)
        argv.push_back(a.data());
    return BenchOptions::parse(int(argv.size()), argv.data(), bench);
}

} // namespace

TEST(BenchOptions, DefaultsOff)
{
    auto o = parseArgs({});
    EXPECT_FALSE(o.wantReport());
    EXPECT_FALSE(o.wantTrace());
    EXPECT_FALSE(o.helpRequested());
}

TEST(BenchOptions, OutDirDerivesReportAndTracePaths)
{
    auto o = parseArgs({"--out=bench/out", "--trace=irq,nic"}, "fig06");
    EXPECT_TRUE(o.wantReport());
    EXPECT_EQ(o.reportPath(), "bench/out/fig06.json");
    EXPECT_TRUE(o.wantTrace());
    EXPECT_EQ(o.tracePath(), "bench/out/fig06.trace.json");

    sim::Tracer t;
    o.applyTraceCategories(t);
    EXPECT_TRUE(t.enabled(sim::TraceCat::Irq));
    EXPECT_TRUE(t.enabled(sim::TraceCat::Nic));
    EXPECT_FALSE(t.enabled(sim::TraceCat::Migration));
}

TEST(BenchOptions, TraceArgAsExplicitPathEnablesAll)
{
    auto o = parseArgs({"--trace=/tmp/x.json"});
    EXPECT_TRUE(o.wantTrace());
    EXPECT_EQ(o.tracePath(), "/tmp/x.json");
    sim::Tracer t;
    o.applyTraceCategories(t);
    EXPECT_TRUE(t.anyEnabled());
    EXPECT_TRUE(t.enabled(sim::TraceCat::Migration));
}

TEST(BenchOptions, UnknownArgsAreKept)
{
    auto o = parseArgs({"--custom=1", "--help"});
    EXPECT_TRUE(o.helpRequested());
    ASSERT_EQ(o.extraArgs().size(), 1u);
    EXPECT_EQ(o.extraArgs()[0], "--custom=1");
}

TEST(BenchOptions, EnvironmentFallback)
{
    ::setenv("SRIOV_BENCH_OUT", "/tmp/envout", 1);
    ::setenv("SRIOV_TRACE", "migration", 1);
    auto o = parseArgs({}, "fig20");
    ::unsetenv("SRIOV_BENCH_OUT");
    ::unsetenv("SRIOV_TRACE");
    EXPECT_EQ(o.reportPath(), "/tmp/envout/fig20.json");
    EXPECT_TRUE(o.wantTrace());
    sim::Tracer t;
    o.applyTraceCategories(t);
    EXPECT_TRUE(t.enabled(sim::TraceCat::Migration));
    EXPECT_FALSE(t.enabled(sim::TraceCat::Irq));
}

TEST(BenchOptions, AcceptsEveryDocumentedModeValue)
{
    auto o = parseArgs({"--jobs=3", "--shards=2", "--fluid=exact",
                        "--pathtrace=sampled"});
    EXPECT_EQ(o.jobs(), 3u);
    EXPECT_EQ(o.shards(), 2u);
    EXPECT_EQ(o.fluidMode(), sim::FluidMode::Exact);
    EXPECT_TRUE(o.wantPathTrace());
    EXPECT_EQ(parseArgs({"--fluid"}).fluidMode(), sim::FluidMode::On);
    EXPECT_EQ(parseArgs({"--fluid=1"}).fluidMode(), sim::FluidMode::On);
    EXPECT_EQ(parseArgs({"--fluid=0"}).fluidMode(), sim::FluidMode::Off);
    EXPECT_EQ(parseArgs({"--shards=0"}).shards(), 0u);
    EXPECT_TRUE(parseArgs({"--pathtrace"}).wantPathTrace());
    EXPECT_TRUE(parseArgs({"--pathtrace=1"}).wantPathTrace());
    EXPECT_FALSE(parseArgs({"--pathtrace=0"}).wantPathTrace());
    // parse() sets the process-wide mode switches; put the defaults back.
    EXPECT_FALSE(parseArgs({"--pathtrace=off"}).wantPathTrace());
}

// A mode value parse() does not accept, as a flag and as its environment
// fallback: each exits 2 with the flag's name and the usage text on
// stderr instead of quietly running some default mode.

TEST(BenchOptionsDeathTest, RejectsNonNumericShards)
{
    EXPECT_EXIT(parseArgs({"--shards=abc"}, "fig06"),
                ::testing::ExitedWithCode(2),
                "fig06: invalid --shards value 'abc'.*usage: fig06");
    EXPECT_EXIT(
        {
            ::setenv("SRIOV_SHARDS", "two", 1);
            parseArgs({}, "fig06");
        },
        ::testing::ExitedWithCode(2),
        "invalid --shards value 'two' \\(from SRIOV_SHARDS\\).*usage");
}

TEST(BenchOptionsDeathTest, RejectsUnknownFluidMode)
{
    EXPECT_EXIT(parseArgs({"--fluid=bogus"}, "fig06"),
                ::testing::ExitedWithCode(2),
                "fig06: invalid --fluid value 'bogus'.*usage: fig06");
    EXPECT_EXIT(
        {
            ::setenv("SRIOV_FLUID", "bogus", 1);
            parseArgs({}, "fig06");
        },
        ::testing::ExitedWithCode(2),
        "invalid --fluid value 'bogus' \\(from SRIOV_FLUID\\).*usage");
}

TEST(BenchOptionsDeathTest, RejectsUnknownPathTraceMode)
{
    EXPECT_EXIT(parseArgs({"--pathtrace=weird"}, "fig06"),
                ::testing::ExitedWithCode(2),
                "fig06: invalid --pathtrace value 'weird'.*usage: fig06");
    EXPECT_EXIT(
        {
            ::setenv("SRIOV_PATHTRACE", "weird", 1);
            parseArgs({}, "fig06");
        },
        ::testing::ExitedWithCode(2),
        "invalid --pathtrace value 'weird' \\(from SRIOV_PATHTRACE\\)"
        ".*usage");
}

TEST(BenchOptionsDeathTest, RejectsNonNumericJobs)
{
    EXPECT_EXIT(parseArgs({"--jobs=abc"}, "fig06"),
                ::testing::ExitedWithCode(2),
                "fig06: invalid --jobs value 'abc'.*usage: fig06");
    EXPECT_EXIT(
        {
            ::setenv("SRIOV_BENCH_JOBS", "abc", 1);
            parseArgs({}, "fig06");
        },
        ::testing::ExitedWithCode(2),
        "invalid --jobs value 'abc' \\(from SRIOV_BENCH_JOBS\\).*usage");
}

TEST(BenchOptionsDeathTest, RejectsZeroJobs)
{
    EXPECT_EXIT(parseArgs({"--jobs=0"}, "fig06"),
                ::testing::ExitedWithCode(2),
                "fig06: invalid --jobs value '0'.*usage: fig06");
    EXPECT_EXIT(
        {
            ::setenv("SRIOV_BENCH_JOBS", "0", 1);
            parseArgs({}, "fig06");
        },
        ::testing::ExitedWithCode(2),
        "invalid --jobs value '0' \\(from SRIOV_BENCH_JOBS\\).*usage");
}

// ------------------------------------------------------------ SimProfiler

TEST(SimProfiler, AttributesHostTimeByTag)
{
    sim::EventQueue eq;
    SimProfiler prof;
    prof.attach(eq);
    for (int i = 0; i < 10; ++i)
        eq.scheduleIn(sim::Time::ns(i), []() {}, "nic.rx");
    eq.scheduleIn(sim::Time::us(1), []() {}, "intr.timer");
    eq.runAll();
    prof.detach();
    EXPECT_EQ(eq.execHookCount(), 0u);

    EXPECT_EQ(prof.totalEvents(), 11u);
    auto tags = prof.byTag();
    ASSERT_FALSE(tags.empty());
    std::uint64_t nic = 0, intr = 0;
    for (const auto &t : tags) {
        if (t.tag == "nic.rx")
            nic = t.events;
        if (t.tag == "intr.timer")
            intr = t.events;
    }
    EXPECT_EQ(nic, 10u);
    EXPECT_EQ(intr, 1u);

    auto comps = prof.byComponent();
    bool nic_comp = false;
    for (const auto &c : comps)
        nic_comp = nic_comp || (c.tag == "nic" && c.events == 10);
    EXPECT_TRUE(nic_comp);
    EXPECT_FALSE(prof.toString().empty());
}

// ---------------------------------------------------------------- PathTrace

TEST(PathTrace, StageNamesRoundTrip)
{
    for (unsigned i = 0; i < PathTracer::kStageCount; ++i) {
        auto s = static_cast<PathStage>(i);
        EXPECT_EQ(pathStageFromName(pathStageName(s)), s);
    }
    EXPECT_EQ(pathStageFromName("no_such_stage"), PathStage::Count);
    EXPECT_STREQ(pathStageName(PathStage::Origin), "origin");
    EXPECT_STREQ(pathStageName(PathStage::GuestRx), "guest_rx");
}

TEST(PathTrace, SampleHashIsDeterministicAndBaseRateHolds)
{
    // Sampling is a pure function of the id: no state, no RNG, so two
    // testbeds (or two --jobs workers) sample the same packets.
    for (std::uint64_t id = 1; id < 100; ++id)
        EXPECT_EQ(PathTracer::sampleHash(id), PathTracer::sampleHash(id));
    std::uint64_t sampled = 0;
    constexpr std::uint64_t kIds = 1 << 16;
    for (std::uint64_t id = 1; id <= kIds; ++id)
        sampled += PathTracer::baseSampled(id) ? 1 : 0;
    // splitmix64 should keep the 1-in-64 base rate within 20%.
    const double rate = double(sampled) / double(kIds);
    EXPECT_NEAR(rate, 1.0 / 64.0, 0.2 / 64.0);
}

TEST(PathTrace, ModeControlsExportMaskOnly)
{
    {
        PathTraceScope off(PathTraceMode::Off);
        PathTracer t;
        EXPECT_EQ(t.mode(), PathTraceMode::Off);
        EXPECT_EQ(t.exportMask(), PathTracer::kBaseSampleMask);
    }
    {
        PathTraceScope sampled(PathTraceMode::Sampled);
        PathTracer t;
        EXPECT_EQ(t.exportMask(), 7u);
    }
    {
        PathTraceScope full(PathTraceMode::Full);
        PathTracer t;
        EXPECT_EQ(t.exportMask(), 0u);
    }
    EXPECT_STREQ(pathTraceModeName(PathTraceMode::Sampled), "sampled");
}

TEST(PathTrace, RingOverwritesOldestKeepingLifetimeCount)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{4, 16});
    std::uint16_t c = t.registerComponent("nic");
    for (std::uint64_t id = 1; id <= 10; ++id)
        t.record(c, PathStage::GuestTx, id, sim::Time::ns(id));

    PathSnapshot snap = t.snapshot();
    ASSERT_EQ(snap.comps.size(), 1u);
    const PathCompDump &d = snap.comps[0];
    EXPECT_EQ(d.name, "nic");
    EXPECT_EQ(d.capacity, 4u);
    EXPECT_EQ(d.written, 10u);
    ASSERT_EQ(d.records.size(), 4u);
    // Oldest-first: ids 7..10 survive, 1..6 were overwritten.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(d.records[i].trace_id, 7 + i);
    EXPECT_EQ(snap.records, 10u);
}

TEST(PathTrace, UntracedAndUnknownComponentRecordsAreIgnored)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{4, 16});
    std::uint16_t c = t.registerComponent("nic");
    t.record(c, PathStage::GuestTx, 0, sim::Time::ns(1));     // id 0
    t.record(c + 7, PathStage::GuestTx, 5, sim::Time::ns(1)); // bad comp
    EXPECT_EQ(t.recordCount(), 0u);
    EXPECT_TRUE(t.snapshot().comps[0].records.empty());
}

namespace {

/** First trace id the 1/64 base sampler accepts. */
std::uint64_t
firstBaseSampledId()
{
    std::uint64_t id = 1;
    while (!sriov::obs::PathTracer::baseSampled(id))
        ++id;
    return id;
}

} // namespace

TEST(PathTrace, AttributionChargesDeltasBetweenVisitedStages)
{
    // Attribution runs at the base rate in EVERY mode — Off included —
    // which is what lets figXX.json carry path_stages while staying
    // byte-identical across --pathtrace settings.
    PathTraceScope off(PathTraceMode::Off);
    PathTracer t(PathTracer::Params{64, 16});
    std::uint16_t c = t.registerComponent("net");
    const std::uint64_t id = firstBaseSampledId();

    t.record(c, PathStage::Origin, id, sim::Time::us(1));
    t.record(c, PathStage::GuestTx, id, sim::Time::us(3));
    t.record(c, PathStage::GuestRx, id, sim::Time::us(11));

    PathSnapshot snap = t.snapshot();
    ASSERT_TRUE(snap.hasAttribution());
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_DOUBLE_EQ(snap.total.count, 1.0);
    EXPECT_DOUBLE_EQ(snap.total.mean_us, 10.0);
    // Only visited stages appear, in causal order; each is charged the
    // time since the previous visited stage.
    ASSERT_EQ(snap.stages.size(), 2u);
    EXPECT_EQ(snap.stages[0].stage, "guest_tx");
    EXPECT_DOUBLE_EQ(snap.stages[0].mean_us, 2.0);
    EXPECT_EQ(snap.stages[1].stage, "guest_rx");
    EXPECT_DOUBLE_EQ(snap.stages[1].mean_us, 8.0);
}

TEST(PathTrace, StitchDropsHeadlessTrailsAndOrdersHops)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{8, 16});
    std::uint16_t a = t.registerComponent("net");
    std::uint16_t b = t.registerComponent("nic");

    // Packet 1: full trail, records interleaved across components.
    t.record(a, PathStage::Origin, 1, sim::Time::us(1));
    t.record(b, PathStage::GuestTx, 1, sim::Time::us(2));
    t.record(a, PathStage::GuestRx, 1, sim::Time::us(9));
    // Packet 2: head overwritten (never recorded) — must be dropped.
    t.record(b, PathStage::WireRx, 2, sim::Time::us(3));

    auto trails = stitchTrails(t.snapshot());
    ASSERT_EQ(trails.size(), 1u);
    EXPECT_EQ(trails[0].id, 1u);
    ASSERT_EQ(trails[0].hops.size(), 3u);
    EXPECT_EQ(trails[0].hops[0].stage,
              static_cast<std::uint8_t>(PathStage::Origin));
    for (std::size_t i = 1; i < trails[0].hops.size(); ++i)
        EXPECT_GE(trails[0].hops[i].when_ps,
                  trails[0].hops[i - 1].when_ps);
}

TEST(PathTrace, FlightRecorderDumpCarriesRingsAndTrails)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{8, 16});
    std::uint16_t c = t.registerComponent("nic0");
    t.record(c, PathStage::Origin, 3, sim::Time::us(1));
    t.record(c, PathStage::GuestRx, 3, sim::Time::us(5));
    t.mark(c, PathStage::LapicDeliver, sim::Time::us(4));

    std::string dump = t.dumpText();
    EXPECT_NE(dump.find("pathtrace flight recorder"), std::string::npos);
    EXPECT_NE(dump.find("ring nic0"), std::string::npos);
    EXPECT_NE(dump.find("origin@"), std::string::npos);
    EXPECT_NE(dump.find("guest_rx@"), std::string::npos);
    EXPECT_EQ(t.snapshot().marks, 1u);
}

TEST(PathTrace, WritePathTraceFileRoundTripsThroughParser)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{8, 16});
    std::uint16_t c = t.registerComponent("nic");
    t.record(c, PathStage::Origin, 1, sim::Time::us(1));
    t.record(c, PathStage::GuestRx, 1, sim::Time::us(2));

    std::vector<std::pair<std::string, PathSnapshot>> cases;
    cases.emplace_back("case0", t.snapshot());
    std::string path = "obs_test_pathtrace_tmp.json";
    ASSERT_TRUE(writePathTraceFile(path, "figXX", "trace", cases));

    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = JsonValue::parse(ss.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("schema")->str, "sriov-pathtrace/v1");
    EXPECT_EQ(doc->find("kind")->str, "trace");
    ASSERT_EQ(doc->find("cases")->items.size(), 1u);
    const JsonValue &c0 = doc->find("cases")->items[0];
    EXPECT_EQ(c0.find("label")->str, "case0");
    EXPECT_EQ(c0.find("mode")->str, "full");
    std::remove(path.c_str());
}

TEST(PathTrace, ExportPathFlowsEmitsBoundSlices)
{
    PathTraceScope full(PathTraceMode::Full);
    PathTracer t(PathTracer::Params{8, 16});
    std::uint16_t a = t.registerComponent("net");
    std::uint16_t b = t.registerComponent("nic");
    t.record(a, PathStage::Origin, 1, sim::Time::us(1));
    t.record(b, PathStage::WireRx, 1, sim::Time::us(2));
    t.record(a, PathStage::GuestRx, 1, sim::Time::us(3));

    ChromeTraceWriter w;
    exportPathFlows(w, "case0", t.snapshot());
    std::string json = w.toJson();
    // One 'X' slice per hop plus the flow binding ('s'/'t'/'f').
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("origin"), std::string::npos);
    EXPECT_NE(json.find("wire_rx"), std::string::npos);
}
