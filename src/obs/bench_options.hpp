/**
 * @file
 * BenchOptions: the shared command line of the bench executables, and
 * RunConfig, the run mode it selects for every testbed.
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
 * plus the RunConfig flags (--no-thin, --shards, --fluid, --pathtrace).
 * Options come from argv only; the environment is not read. Any other
 * argument exits 2, unless the bench declared it to parse()
 * (bench_longrun's --hosts=<n>).
 */

#ifndef SRIOV_OBS_BENCH_OPTIONS_HPP
#define SRIOV_OBS_BENCH_OPTIONS_HPP

#include <string>
#include <vector>

#include "sim/fluid.hpp"

namespace sriov::obs {

/**
 * How one testbed runs. A core::Testbed owns its copy
 * (Testbed::Params::run) and hands each island's share to what it
 * builds: the thinning bit to the island's sim::EventQueue, the export
 * switch to its PathTracer. No component reads a process-wide mode, so
 * testbeds with different configs can run side by side.
 */
struct RunConfig
{
    /** Coalesced event schedule; --no-thin clears it (DESIGN.md §10). */
    bool thin = true;
    /** --shards=<n>: 0 = one island; n >= 1 = per-port islands run by
     *  the shard engine on up to n threads (DESIGN.md §13). */
    unsigned shards = 0;
    /** --fluid=off|exact|on (DESIGN.md §14). */
    sim::FluidMode fluid = sim::FluidMode::Off;
    /** --pathtrace: every path tracer keeps every trail and the bench
     *  writes the pathtrace artifacts (DESIGN.md §12). */
    bool pathtrace = false;
};

/**
 * The RunConfig the last BenchOptions::parse() read (the defaults
 * before any parse). A default-constructed core::Testbed::Params
 * copies it, so a bench's testbeds follow its flags.
 */
RunConfig defaultRunConfig();

class BenchOptions
{
  public:
    /**
     * Parse argv. @p flags names the bench's own `--name=<value>` flags
     * ("--hosts"); those arguments are kept in extraArgs() for the
     * bench to read. Any other unknown argument, and a value that
     * --trace, --jobs, --shards, --fluid or --pathtrace does not
     * accept, is an error: parse() names it, prints the usage text to
     * stderr and exits 2. @p bench is the figure name ("fig06") used
     * to derive the report path. The parsed run() becomes the
     * defaultRunConfig().
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

    /** --trace[=1|0]. */
    bool wantTrace() const { return trace_requested_; }
    /** "<out|.>/<bench>.trace.json" under --trace; "<out>/..." when
     *  only --pathtrace has flows to write; empty otherwise. */
    std::string tracePath() const;

    /** Host threads for embarrassingly-parallel sweep cases (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** The run mode: --no-thin, --shards, --fluid and --pathtrace. */
    const RunConfig &run() const { return run_; }
    /** "off" | "exact" | "on" — for the perf sidecar. */
    const char *fluidModeName() const;

    /** "<out_dir>/<bench>.perf.json" (empty when reporting is off). */
    std::string perfPath() const;

    /** "<out_dir>/<bench>.pathtrace.json" (empty when reporting off). */
    std::string pathtracePath() const;
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
    RunConfig run_;
    bool trace_requested_ = false;
    bool help_ = false;
    /** The bench's declared flags, for the usage countArg() prints. */
    std::vector<std::string> flags_;
    std::vector<std::string> extra_;
};

} // namespace sriov::obs

#endif // SRIOV_OBS_BENCH_OPTIONS_HPP
