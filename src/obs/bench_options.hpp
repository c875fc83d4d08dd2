/**
 * @file
 * BenchOptions: the shared CLI/environment contract of the bench
 * executables.
 *
 * Every bench/figXX accepts:
 *   --out=<dir>    write a machine-readable report (figXX.json) there
 *   --trace=<arg>  capture a Chrome trace_event JSON. <arg> is either
 *                  a comma-separated tracer category list (irq, nic,
 *                  driver, backend, migration, all) — the file then
 *                  lands next to the report as figXX.trace.json — or
 *                  an explicit output path (all categories).
 *   --jobs=<n>     run independent sweep cases on <n> host threads
 *                  (core::SweepRunner; default 1 = sequential, and
 *                  reports are byte-identical either way)
 *   --help         print usage and exit
 * with environment fallbacks SRIOV_BENCH_OUT, SRIOV_TRACE and
 * SRIOV_BENCH_JOBS so CI can turn on reporting without touching each
 * invocation.
 */

#ifndef SRIOV_OBS_BENCH_OPTIONS_HPP
#define SRIOV_OBS_BENCH_OPTIONS_HPP

#include <string>
#include <vector>

#include "sim/fluid.hpp"
#include "sim/trace.hpp"

namespace sriov::obs {

class BenchOptions
{
  public:
    /**
     * Parse argv (and the environment). Unknown arguments are kept in
     * extraArgs() for bench-specific handling. A value that --jobs,
     * --shards, --fluid or --pathtrace (or its environment fallback)
     * does not accept is an error: parse() names the flag, prints the
     * usage text to stderr and exits 2. @p bench is the figure name
     * ("fig06") used to derive the report path.
     */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &bench);

    /** Usage text for --help. */
    static std::string usage(const std::string &bench);

    const std::string &bench() const { return bench_; }

    bool wantReport() const { return !out_dir_.empty(); }
    const std::string &outDir() const { return out_dir_; }

    /** "<out_dir>/<bench>.json" (empty when reporting is off). */
    std::string reportPath() const;

    bool wantTrace() const { return trace_requested_; }
    /** Explicit path, or "<out|.>/<bench>.trace.json" when derived. */
    std::string tracePath() const;

    /** Host threads for embarrassingly-parallel sweep cases (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** --no-thin: exact event-per-hop mode (parse() applies it to the
     *  global sim::setThinning switch before any testbed exists). */
    bool noThin() const { return no_thin_; }

    /** --fluid[=on|exact|off] (env SRIOV_FLUID): flow-level fluid
     *  mode — the testbed installs a core::WarpCoordinator that warps
     *  over provably periodic steady-state stretches instead of
     *  simulating every packet event (DESIGN.md §14). "exact" runs
     *  the same fluid schedule without warping (the equivalence
     *  reference). Off by default; --fluid=off preserves reports
     *  bit-for-bit. parse() applies it to the global
     *  sim::setFluidMode switch before any testbed exists. Composes
     *  with --jobs=N and --shards=N (DESIGN.md §15). */
    bool fluid() const { return fluid_mode_ != sim::FluidMode::Off; }
    sim::FluidMode fluidMode() const { return fluid_mode_; }
    /** "off" | "exact" | "on" — for the perf sidecar. */
    const char *fluidModeName() const;

    /** --shards=<n> (env SRIOV_SHARDS): island-partitioned testbeds
     *  run by the conservative shard engine on up to <n> worker
     *  threads (0 = one single-queue island). parse() applies it to
     *  the global sim::setShardCount switch before any testbed exists;
     *  reports are byte-identical for every n >= 1. */
    unsigned shards() const { return shards_; }

    /** "<out_dir>/<bench>.perf.json" (empty when reporting is off). */
    std::string perfPath() const;

    /** --pathtrace=off|sampled|full (env SRIOV_PATHTRACE); parse()
     *  applies it to obs::setPathTraceMode before any testbed exists. */
    bool wantPathTrace() const { return pathtrace_requested_; }
    /** "<out_dir>/<bench>.pathtrace.json" (empty when reporting off). */
    std::string pathtracePath() const;
    /** "<out_dir>/<bench>.pathtrace.trace.json" — Perfetto flows. */
    std::string pathtraceFlowsPath() const;
    /** "<out_dir>/<bench>.flightrec.json" — post-mortem dump. */
    std::string flightrecPath() const;

    /** Enable the requested categories on @p t. */
    void applyTraceCategories(sim::Tracer &t) const;

    bool helpRequested() const { return help_; }

    const std::vector<std::string> &extraArgs() const { return extra_; }

  private:
    void parseTraceArg(const std::string &arg);

    std::string bench_;
    std::string out_dir_;
    std::string trace_path_;
    std::vector<sim::TraceCat> cats_;
    unsigned jobs_ = 1;
    unsigned shards_ = 0;
    bool no_thin_ = false;
    sim::FluidMode fluid_mode_ = sim::FluidMode::Off;
    bool trace_requested_ = false;
    bool pathtrace_requested_ = false;
    bool all_cats_ = false;
    bool help_ = false;
    std::vector<std::string> extra_;
};

} // namespace sriov::obs

#endif // SRIOV_OBS_BENCH_OPTIONS_HPP
