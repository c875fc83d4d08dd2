/**
 * @file
 * BenchOptions: the shared CLI/environment contract of the bench
 * executables.
 *
 * Every bench/figXX accepts:
 *   --out=<dir>    write a machine-readable report (figXX.json) there
 *   --trace[=1|0]  capture a Chrome trace_event JSON of the first case
 *                  (CPU work spans and tagged events) as
 *                  <out|.>/figXX.trace.json
 *   --jobs=<n>     run independent sweep cases on <n> host threads
 *                  (core::SweepRunner; default 1 = sequential, and
 *                  reports are byte-identical either way)
 *   --help         print usage and exit
 * with environment fallbacks SRIOV_BENCH_OUT, SRIOV_TRACE and
 * SRIOV_BENCH_JOBS so CI can turn on reporting without touching each
 * invocation. Any other argument exits 2, unless the bench declared
 * it to parse() (bench_longrun's --hosts=<n>).
 */

#ifndef SRIOV_OBS_BENCH_OPTIONS_HPP
#define SRIOV_OBS_BENCH_OPTIONS_HPP

#include <string>
#include <vector>

#include "sim/fluid.hpp"

namespace sriov::obs {

class BenchOptions
{
  public:
    /**
     * Parse argv (and the environment). @p flags names the bench's own
     * `--name=<value>` flags ("--hosts"); those arguments are kept in
     * extraArgs() for the bench to read. Any other unknown argument,
     * and a value that --trace, --jobs, --shards, --fluid or
     * --pathtrace (or its environment fallback) does not accept, is an
     * error: parse() names it, prints the usage text to stderr and
     * exits 2. @p bench is the figure name ("fig06") used to derive
     * the report path.
     */
    static BenchOptions parse(int argc, char **argv,
                              const std::string &bench,
                              const std::vector<std::string> &flags = {});

    /** Usage text for --help: one line per declared flag in @p flags
     *  (as passed to parse()), then the shared flags. */
    static std::string usage(const std::string &bench,
                             const std::vector<std::string> &flags = {});

    const std::string &bench() const { return bench_; }

    bool wantReport() const { return !out_dir_.empty(); }
    const std::string &outDir() const { return out_dir_; }

    /** "<out_dir>/<bench>.json" (empty when reporting is off). */
    std::string reportPath() const;

    /** --trace[=1|0] (env SRIOV_TRACE). */
    bool wantTrace() const { return trace_requested_; }
    /** "<out|.>/<bench>.trace.json" (empty when tracing is off). */
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

    bool helpRequested() const { return help_; }

    const std::vector<std::string> &extraArgs() const { return extra_; }

    /** The declared flag @p flag as a count >= 1 (the last one given
     *  wins), @p dflt when absent; any other value exits 2 like a bad
     *  mode value. */
    unsigned countArg(const std::string &flag, unsigned dflt) const;

  private:
    std::string bench_;
    std::string out_dir_;
    unsigned jobs_ = 1;
    unsigned shards_ = 0;
    bool no_thin_ = false;
    sim::FluidMode fluid_mode_ = sim::FluidMode::Off;
    bool trace_requested_ = false;
    bool pathtrace_requested_ = false;
    bool help_ = false;
    /** The bench's declared flags, for the usage countArg() prints. */
    std::vector<std::string> flags_;
    std::vector<std::string> extra_;
};

} // namespace sriov::obs

#endif // SRIOV_OBS_BENCH_OPTIONS_HPP
