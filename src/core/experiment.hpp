/**
 * @file
 * Bench recording and presentation helpers shared by the benchmark
 * binaries: the declared-case sweep behind every report, and fixed
 * width tables matching the rows/series the paper's figures report.
 */

#ifndef SRIOV_CORE_EXPERIMENT_HPP
#define SRIOV_CORE_EXPERIMENT_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "obs/bench_options.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/report.hpp"

namespace sriov::core {

/**
 * Thread-confined recorder for one case of FigReport::sweep().
 *
 * The body of a parallel sweep cannot touch the shared FigReport, so
 * each case instruments its testbed into its own registry, snapshots
 * into its own storage and records its own metrics; sweep() merges
 * them when every case has finished. drive() additionally records host
 * wall time and executed events for the perf sidecar
 * (<bench>.perf.json), which is the one artefact that legitimately
 * differs between --jobs values.
 */
class FigCase
{
  public:
    explicit FigCase(std::string label) : label_(std::move(label)) {}

    const std::string &label() const { return label_; }

    /**
     * Enable @p tb's latency/cost taps and register its metric tree in
     * a fresh registry (valid until the next instrument() call).
     */
    obs::MetricRegistry &instrument(Testbed &tb);

    /** Snapshot the registry — and the instrumented testbed's path
     *  tracer — under @p label. */
    void snapshot(const std::string &label,
                  const std::string &prefix = "");

    /** Record a report metric. */
    void addMetric(const std::string &name, double value);

    /**
     * Run @p fn, accumulating wall time and @p tb's executed events.
     * Under --trace, the first drive of the sweep's first case draws
     * @p tb (CPU work spans + tagged events, one event track per
     * island) into the run's Chrome trace, which finish() writes.
     */
    void drive(Testbed &tb, const std::function<void()> &fn);

    /** Count simulated packets handled by the drive (the perf sidecar
     *  reports events-per-packet, the thinning figure of merit). */
    void addPackets(std::uint64_t n) { packets_ += n; }

  private:
    friend class FigReport;

    struct Snap
    {
        std::string label;
        obs::MetricSnapshot data;
    };

    std::string label_;
    obs::MetricRegistry reg_;
    Testbed *tb_ = nullptr;    ///< last instrument()-ed testbed
    std::vector<Snap> snaps_;
    /** Path-tracer snapshots, one per snapshot() call, same labels. */
    std::vector<std::pair<std::string, obs::PathSnapshot>> path_snaps_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::uint64_t events_ = 0;
    std::uint64_t packets_ = 0;
    double wall_s_ = 0;
    double sim_s_ = 0;
    /** Warp stats after the last drive (all-zero when fluid off). */
    sim::FluidStats fluid_;
    /** The run's Chrome trace, for the next drive only; null when it
     *  runs untraced. */
    obs::ChromeTraceWriter *trace_ = nullptr;
};

/**
 * One-stop bench instrumentation: owns the BenchOptions and the Report,
 * runs the bench's declared case list, and writes the artifacts. A
 * figXX binary wires the whole observability layer with:
 *
 *   core::FigReport fr(argc, argv, "fig06", "SR-IOV mask/unmask");
 *   if (fr.helpShown()) return 0;
 *   std::vector<double> dom0(labels.size());
 *   fr.sweep(labels, [&](core::FigCase &c, std::size_t i) {
 *       core::Testbed tb(params[i]);
 *       ...
 *       c.instrument(tb);
 *       core::Testbed::Measurement m;
 *       c.drive(tb, [&] { m = tb.measure(warmup, window); });
 *       c.snapshot(c.label());
 *       dom0[i] = m.dom0_pct;
 *   });
 *   fr.expect("dom0_pct_7vm_opt", dom0.back(), 3.0, 150);
 *   ...
 *   return fr.finish();
 */
class FigReport
{
  public:
    /** @p flags: the bench's own `--name=<value>` flags, kept in
     *  options().extraArgs(); any other unknown argument exits 2. */
    FigReport(int argc, char **argv, const std::string &fig,
              const std::string &title,
              const std::vector<std::string> &flags = {});

    /** True when --help was requested; usage is already printed. */
    bool helpShown() const { return opts_.helpRequested(); }

    obs::BenchOptions &options() { return opts_; }
    obs::Report &report() { return rep_; }

    /**
     * Run the bench's cases: one FigCase per entry of @p labels, and
     * @p body(case, index) for each on core::SweepRunner with --jobs
     * threads. Under --trace the sweep runs on one thread and the trace
     * captures the first case's first FigCase::drive().
     *
     * Determinism contract: a body writes only to its FigCase and to
     * per-index storage. When every case has finished, sweep() merges
     * each case's snapshots, path snapshots, metrics and perf entry
     * into the report in declaration order, so the report is
     * byte-identical whatever --jobs says. Work that reads other cases
     * (tables, derived values, expect()) runs after sweep() returns.
     */
    void sweep(const std::vector<std::string> &labels,
               const std::function<void(FigCase &, std::size_t)> &body);

    /** Shorthand for report().expect(...). */
    void expect(const std::string &name, double actual, double expected,
                double band_pct);

    /**
     * Record a host-performance entry for the perf sidecar directly,
     * for benches that time their own kernels (bench_microkernel)
     * instead of driving a Testbed through sweep().
     */
    void addPerf(const std::string &label, std::uint64_t events,
                 double wall_s);

    /**
     * Write the Chrome trace, the report and the <bench>.perf.json
     * host-performance sidecar, as requested; returns the process exit
     * code.
     */
    int finish();

  private:
    struct CasePerf
    {
        std::string label;
        std::uint64_t events = 0;
        std::uint64_t packets = 0;
        double wall_s = 0;
        /** Simulated seconds covered by the drive — the denominator of
         *  the warp fraction (warped_sim_s / sim_s) in the sidecar. */
        double sim_s = 0;
        /** Warp stats for the sidecar (zero when off). */
        sim::FluidStats fluid;
    };

    bool writePerfSidecar(const std::string &path) const;
    void writeTrace();
    void writePathArtifacts();

    obs::BenchOptions opts_;
    obs::Report rep_;
    std::vector<CasePerf> perf_;
    /** Per-snapshot path-tracer captures, for the pathtrace/flightrec
     *  artifacts (report path_stages blocks are added as they land). */
    std::vector<std::pair<std::string, obs::PathSnapshot>> path_cases_;
    /** The run's one Perfetto file (<bench>.trace.json): the first
     *  case's CPU spans under --trace, then every case's path-trace
     *  flows under --pathtrace. */
    obs::ChromeTraceWriter trace_;
    bool trace_done_ = false;
};

/** Simple fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p prec decimals. */
    static std::string num(double v, int prec = 2);

    std::string toString() const;
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Gbit/s with 2 decimals, e.g. "9.57". */
std::string gbps(double bps);
/** Percent of one CPU, e.g. "193.4%". */
std::string cpuPct(double pct);

/** Print a figure banner ("=== Fig. 6 ... ==="). */
void banner(const std::string &title);

} // namespace sriov::core

#endif // SRIOV_CORE_EXPERIMENT_HPP
