#include "core/experiment.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

#include "core/sweep_runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

namespace sriov::core {

namespace {

// Host wall-time of a bench drive for the .perf.json sidecars —
// deliberately outside simulated time, and never fed back into it.
double
// simlint:allow(no-wallclock): measures the host, not the simulation
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               // simlint:allow(no-wallclock): host-side timing only
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The process's resident-set high-water mark in MB (Linux reports
 *  ru_maxrss in KiB). Host-side, like the wall time. */
double
peakRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace

obs::MetricRegistry &
FigCase::instrument(Testbed &tb)
{
    reg_ = obs::MetricRegistry();
    tb_ = &tb;
    tb.enableObs();
    tb.registerMetrics(reg_);
    return reg_;
}

void
FigCase::snapshot(const std::string &label, const std::string &prefix)
{
    snaps_.push_back(Snap{label, reg_.snapshot(prefix)});
    // Path-tracer capture rides along under the same label; snapshots
    // are values, so parallel sweep workers stay thread-confined and
    // the merge reproduces the sequential byte stream.
    if (tb_)
        path_snaps_.emplace_back(label, tb_->pathSnapshot());
}

void
FigCase::addMetric(const std::string &name, double value)
{
    metrics_.emplace_back(name, value);
}

void
FigCase::drive(Testbed &tb, const std::function<void()> &fn)
{
    if (trace_ != nullptr)
        tb.attachObsTrace(*trace_);
    std::uint64_t before = tb.executedEvents();
    sim::Time s0 = tb.now();
    // simlint:allow(no-wallclock): host-side perf sidecar timing only
    auto t0 = std::chrono::steady_clock::now();
    fn();
    wall_s_ += secondsSince(t0);
    events_ += tb.executedEvents() - before;
    sim_s_ += double((tb.now() - s0).picos()) * 1e-12;
    // Warp stats are cumulative per testbed;
    // the last drive's view covers every earlier drive of the case.
    if (const sim::FluidStats *fs = tb.fluidStats())
        fluid_ = *fs;
    if (trace_ == nullptr)
        return;
    trace_->detachAll();
    trace_ = nullptr;
}

FigReport::FigReport(int argc, char **argv, const std::string &fig,
                     const std::string &title,
                     const std::vector<std::string> &flags)
    : opts_(obs::BenchOptions::parse(argc, argv, fig, flags)),
      rep_(fig, title)
{
    if (opts_.helpRequested()) {
        std::fputs(obs::BenchOptions::usage(fig, flags).c_str(), stdout);
        return;
    }
    rep_.setConfig("fig", fig);
    rep_.setConfig("title", title);
}

void
FigReport::sweep(const std::vector<std::string> &labels,
                 const std::function<void(FigCase &, std::size_t)> &body)
{
    std::vector<FigCase> cases(labels.begin(), labels.end());
    unsigned jobs = opts_.jobs();
    if (opts_.wantTrace() && !trace_done_ && !cases.empty()) {
        if (jobs > 1) {
            std::fprintf(stderr, "note: --trace forces --jobs=1 (the "
                                 "trace captures the first case)\n");
        }
        jobs = 1;
        trace_done_ = true;
        cases.front().trace_ = &trace_;
    }
    SweepRunner(jobs).run(cases.size(),
                          [&](std::size_t i) { body(cases[i], i); });
    for (FigCase &c : cases) {
        for (FigCase::Snap &s : c.snaps_)
            rep_.addSnapshot(s.label, std::move(s.data));
        // The report block reads only the base-rate attribution, which
        // is identical with the export on or off — figXX.json stays
        // byte-identical across --pathtrace=off/full.
        for (auto &[label, snap] : c.path_snaps_) {
            rep_.addPathStages(label, snap);
            path_cases_.emplace_back(label, std::move(snap));
        }
        for (const auto &[name, value] : c.metrics_)
            rep_.addMetric(name, value);
        perf_.push_back(CasePerf{c.label_, c.events_, c.packets_, c.wall_s_,
                                 c.sim_s_, c.fluid_});
    }
}

void
FigReport::expect(const std::string &name, double actual, double expected,
                  double band_pct)
{
    rep_.expect(name, actual, expected, band_pct);
}

void
FigReport::addPerf(const std::string &label, std::uint64_t events,
                   double wall_s)
{
    perf_.push_back(CasePerf{label, events, 0, wall_s, 0.0, {}});
}

bool
FigReport::writePerfSidecar(const std::string &path) const
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("schema", "sriov-bench-perf/v1");
    w.kv("bench", opts_.bench());
    w.kv("jobs", std::uint64_t(opts_.jobs()));
    w.kv("thin", opts_.run().thin);
    w.kv("shards", std::uint64_t(opts_.run().shards));
    w.kv("fluid", opts_.run().fluid != sim::FluidMode::Off);
    w.kv("fluid_mode", opts_.fluidModeName());
    std::uint64_t total_events = 0;
    std::uint64_t total_packets = 0;
    double total_wall = 0;
    double total_sim = 0;
    w.key("cases").beginArray();
    for (const CasePerf &p : perf_) {
        w.beginObject();
        w.kv("label", p.label);
        w.kv("events", p.events);
        w.kv("host_wall_s", p.wall_s);
        if (p.sim_s > 0)
            w.kv("sim_s", p.sim_s);
        w.kv("events_per_sec",
             p.wall_s > 0 ? double(p.events) / p.wall_s : 0.0);
        if (p.packets > 0) {
            w.kv("packets", p.packets);
            w.kv("events_per_packet",
                 double(p.events) / double(p.packets));
        }
        if (p.fluid.probes > 0) {
            double warped = double(p.fluid.warped.picos()) * 1e-12;
            w.key("fluid_stats").beginObject();
            w.kv("segments", p.fluid.segments);
            w.kv("probes", p.fluid.probes);
            w.kv("rejected", p.fluid.rejected);
            w.kv("periods_warped", p.fluid.periods_warped);
            w.kv("warped_sim_s", warped);
            if (p.sim_s > 0)
                w.kv("warp_frac", warped / p.sim_s);
            w.kv("events_elided", p.fluid.events_elided);
            w.endObject();
        }
        w.endObject();
        total_events += p.events;
        total_packets += p.packets;
        total_wall += p.wall_s;
        total_sim += p.sim_s;
    }
    w.endArray();
    w.key("total").beginObject();
    w.kv("events", total_events);
    w.kv("host_wall_s", total_wall);
    if (total_sim > 0)
        w.kv("sim_s", total_sim);
    w.kv("events_per_sec",
         total_wall > 0 ? double(total_events) / total_wall : 0.0);
    if (total_packets > 0) {
        w.kv("packets", total_packets);
        w.kv("events_per_packet",
             double(total_events) / double(total_packets));
    }
    w.kv("peak_rss_mb", peakRssMb());
    w.endObject();
    w.endObject();

    return obs::writeTextFile(path, w.str());
}

void
FigReport::writeTrace()
{
    const bool flows = opts_.run().pathtrace && !path_cases_.empty();
    const std::string path = opts_.tracePath();
    if (path.empty() || !(trace_done_ || flows))
        return;
    if (flows) {
        // The flows get a budget of their own beside the CPU spans,
        // which usually fill theirs.
        trace_.addBudget(obs::ChromeTraceWriter::kDefaultMaxEvents);
        for (const auto &[label, snap] : path_cases_)
            obs::exportPathFlows(trace_, label, snap);
    }
    if (trace_.writeTo(path)) {
        std::printf("trace: wrote %s (%zu events, %zu tracks)\n",
                    path.c_str(), trace_.eventCount(), trace_.trackCount());
    } else {
        std::fprintf(stderr, "trace: FAILED to write %s\n", path.c_str());
    }
}

void
FigReport::writePathArtifacts()
{
    if (path_cases_.empty())
        return;
    // Requested export: the full trail/ring dump (its Perfetto flows
    // went into the trace).
    if (opts_.run().pathtrace) {
        std::string path = opts_.pathtracePath();
        if (obs::writePathTraceFile(path, opts_.bench(), "trace",
                                    path_cases_)) {
            std::printf("pathtrace: wrote %s (%zu cases)\n", path.c_str(),
                        path_cases_.size());
        } else {
            std::fprintf(stderr, "pathtrace: FAILED to write %s\n",
                         path.c_str());
        }
    }
    // Flight recorder: a report out of band dumps the always-on
    // low-rate trails, whatever the export mode.
    if (!rep_.allPass()) {
        std::string path = opts_.flightrecPath();
        if (obs::writePathTraceFile(path, opts_.bench(), "flightrec",
                                    path_cases_)) {
            std::printf("flightrec: report out of band, wrote %s\n",
                        path.c_str());
        } else {
            std::fprintf(stderr, "flightrec: FAILED to write %s\n",
                         path.c_str());
        }
    }
}

int
FigReport::finish()
{
    writeTrace();
    if (!opts_.wantReport())
        return 0;
    std::string path = opts_.reportPath();
    if (!rep_.writeTo(path)) {
        std::fprintf(stderr, "report: FAILED to write %s\n", path.c_str());
        return 1;
    }
    std::printf("report: wrote %s (%zu snapshots, %zu expectations%s)\n",
                path.c_str(), rep_.snapshotCount(),
                rep_.expectationCount(),
                rep_.allPass() ? "" : ", some out of band");
    writePathArtifacts();
    if (!perf_.empty()) {
        std::string ppath = opts_.perfPath();
        if (!writePerfSidecar(ppath)) {
            std::fprintf(stderr, "perf: FAILED to write %s\n",
                         ppath.c_str());
            return 1;
        }
        std::printf("perf: wrote %s (%zu cases)\n", ppath.c_str(),
                    perf_.size());
    }
    return 0;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
Table::toString() const
{
    std::vector<std::size_t> w(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        w[c] = headers_[c].size();
    for (const auto &r : rows_) {
        for (std::size_t c = 0; c < r.size() && c < w.size(); ++c)
            w[c] = std::max(w[c], r[c].size());
    }
    auto fmtRow = [&](const std::vector<std::string> &r) {
        std::string line;
        for (std::size_t c = 0; c < w.size(); ++c) {
            std::string cell = c < r.size() ? r[c] : "";
            line += cell;
            line.append(w[c] - cell.size() + 2, ' ');
        }
        line += "\n";
        return line;
    };
    std::string out = fmtRow(headers_);
    std::size_t total = 0;
    for (auto x : w)
        total += x + 2;
    out += std::string(total, '-') + "\n";
    for (const auto &r : rows_)
        out += fmtRow(r);
    return out;
}

void
Table::print() const
{
    std::fputs(toString().c_str(), stdout);
}

std::string
gbps(double bps)
{
    return Table::num(bps / 1e9, 2);
}

std::string
cpuPct(double pct)
{
    return Table::num(pct, 1) + "%";
}

void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace sriov::core
