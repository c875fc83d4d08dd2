/**
 * @file
 * Small presentation helpers shared by the benchmark binaries: fixed
 * width tables matching the rows/series the paper's figures report.
 */

#ifndef SRIOV_CORE_EXPERIMENT_HPP
#define SRIOV_CORE_EXPERIMENT_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.hpp"
#include "obs/bench_options.hpp"
#include "obs/report.hpp"

namespace sriov::core {

/**
 * Thread-confined recorder for one sweep case.
 *
 * A parallel sweep (core::SweepRunner) cannot let worker threads touch
 * the shared FigReport, so each case instruments its testbed into its
 * own registry, snapshots into its own storage, and the bench merges
 * the finished cases into the report *in declaration order* with
 * FigReport::mergeCase() — making the report byte-identical to a
 * sequential run. drive() additionally records host wall time and
 * executed events for the perf sidecar (<bench>.perf.json), which is
 * the one artefact that legitimately differs between --jobs values.
 */
class FigCase
{
  public:
    explicit FigCase(std::string label) : label_(std::move(label)) {}

    const std::string &label() const { return label_; }

    /** Per-case analogue of FigReport::instrument(). */
    obs::MetricRegistry &instrument(Testbed &tb);

    /** Per-case analogue of FigReport::snapshot(). */
    void snapshot(const std::string &label,
                  const std::string &prefix = "");

    /** Per-case analogue of report().addMetric(). */
    void addMetric(const std::string &name, double value);

    /** Run @p fn, accumulating wall time and @p tb's executed events. */
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
    /** Director stats after the last drive (all-zero when fluid off). */
    sim::FluidStats fluid_;
};

/**
 * One-stop bench instrumentation: owns the BenchOptions, the Report
 * and a MetricRegistry, and scopes an optional Chrome-trace capture.
 * A figXX binary wires the whole observability layer with:
 *
 *   core::FigReport fr(argc, argv, "fig06", "SR-IOV mask/unmask");
 *   if (fr.helpShown()) return 0;
 *   ...
 *   auto &reg = fr.instrument(tb);             // per representative case
 *   fr.captureTrace(tb, [&] { m = tb.measure(w, t); });
 *   fr.snapshot("7-VM-opt");
 *   fr.report().expect("dom0_pct_opt", m.dom0_pct, 3.0, 50);
 *   ...
 *   return fr.finish();
 */
class FigReport
{
  public:
    FigReport(int argc, char **argv, const std::string &fig,
              const std::string &title);

    /** True when --help was requested; usage is already printed. */
    bool helpShown() const { return opts_.helpRequested(); }

    obs::BenchOptions &options() { return opts_; }
    obs::Report &report() { return rep_; }

    /**
     * Instrument @p tb for this report: enables its latency/cost taps
     * and registers its metric tree in a fresh registry (valid until
     * the next instrument() call — benches build one testbed per case).
     */
    obs::MetricRegistry &instrument(Testbed &tb);

    /** Snapshot the last instrument()-ed registry under @p label. */
    void snapshot(const std::string &label,
                  const std::string &prefix = "");

    /**
     * Run @p drive; on the first call with --trace set, capture it as
     * a Chrome trace of @p tb (CPU work spans + tagged events, one
     * event track per island) and write the file. Every call also
     * times the drive and records @p tb's executed events for the perf
     * sidecar; the entry is labelled by the next snapshot() call.
     */
    void captureTrace(Testbed &tb, const std::function<void()> &drive);

    /**
     * Threads to hand core::SweepRunner: --jobs, forced to 1 when a
     * trace was requested (the trace captures the first case).
     */
    unsigned sweepJobs() const;

    /**
     * Sequential-path drive for a sweep case: captures the Chrome
     * trace through @p c when tracing is on (only possible with
     * sweepJobs() == 1), a plain timed drive otherwise. Safe to call
     * from SweepRunner workers, where tracing is off by construction.
     */
    void caseDrive(FigCase &c, Testbed &tb,
                   const std::function<void()> &fn);

    /**
     * Fold a completed case into the report: snapshots, metrics, and
     * its perf entry, in the order recorded. Call sequentially, in
     * case-declaration order, after SweepRunner::run() returns.
     */
    void mergeCase(FigCase &c);

    /** Shorthand for report().expect(...). */
    void expect(const std::string &name, double actual, double expected,
                double band_pct);

    /**
     * Record a host-performance entry for the perf sidecar directly,
     * for benches that time their own kernels (bench_microkernel)
     * instead of driving a Testbed through captureTrace()/caseDrive().
     */
    void addPerf(const std::string &label, std::uint64_t events,
                 double wall_s);

    /** Attribute @p n simulated packets to the most recent perf entry
     *  (for benches using captureTrace() rather than FigCase). */
    void notePackets(std::uint64_t n);

    /**
     * Write the report (and the <bench>.perf.json host-performance
     * sidecar) if requested; returns the process exit code.
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

    /** Run @p drive with a Chrome trace of @p tb attached and write
     *  the trace file; later calls of captureTrace()/caseDrive() run
     *  untraced. */
    void traceDrive(Testbed &tb, const std::function<void()> &drive);
    void notePerf(const std::string &label, std::uint64_t events,
                  double wall_s, std::uint64_t packets = 0);
    bool writePerfSidecar(const std::string &path) const;
    /** Stash (and report) one path-tracer snapshot under @p label. */
    void notePathSnapshot(const std::string &label,
                          obs::PathSnapshot snap);
    void writePathArtifacts();

    obs::BenchOptions opts_;
    obs::Report rep_;
    obs::MetricRegistry reg_;
    Testbed *last_tb_ = nullptr;    ///< last instrument()-ed testbed
    std::vector<CasePerf> perf_;
    /** Per-snapshot path-tracer captures, for the pathtrace/flightrec
     *  artifacts (report path_stages blocks are added as they land). */
    std::vector<std::pair<std::string, obs::PathSnapshot>> path_cases_;
    bool last_perf_unlabelled_ = false;
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
