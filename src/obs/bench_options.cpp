#include "obs/bench_options.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/pathtrace.hpp"
#include "sim/fluid.hpp"
#include "sim/shard.hpp"
#include "sim/thinning.hpp"

namespace sriov::obs {

namespace {

/** "--out=dir" → "dir"; nullptr when @p arg isn't @p flag. */
const char *
matchFlag(const char *arg, const char *flag)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
}

bool
parseCat(const std::string &name, sim::TraceCat *out)
{
    if (name == "irq") { *out = sim::TraceCat::Irq; return true; }
    if (name == "nic") { *out = sim::TraceCat::Nic; return true; }
    if (name == "driver") { *out = sim::TraceCat::Driver; return true; }
    if (name == "backend") { *out = sim::TraceCat::Backend; return true; }
    if (name == "migration") {
        *out = sim::TraceCat::Migration;
        return true;
    }
    return false;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(list.substr(pos));
            break;
        }
        out.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** "--jobs" values: anything unparsable or zero degrades to 1. */
unsigned
parseJobs(const char *s)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0' || v == 0)
        return 1;
    return static_cast<unsigned>(v);
}

/** "--shards" values: unparsable degrades to 0 (legacy engine). */
unsigned
parseShards(const char *s)
{
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0')
        return 0;
    return static_cast<unsigned>(v);
}

/** "--fluid" values: bare "--fluid", "1" and "on" warp; "exact" runs
 *  the fluid schedule without warping; "off"/"0" (and unknown
 *  strings) keep the seed schedule. */
sim::FluidMode
parseFluid(const char *s)
{
    if (s == nullptr || *s == '\0' || std::strcmp(s, "1") == 0
        || std::strcmp(s, "on") == 0)
        return sim::FluidMode::On;
    if (std::strcmp(s, "exact") == 0)
        return sim::FluidMode::Exact;
    return sim::FluidMode::Off;
}

/** "--pathtrace" values; unknown strings degrade to Off. "--pathtrace"
 *  with no value (or "1") means full. */
PathTraceMode
parsePathTraceMode(const char *s, bool *requested)
{
    *requested = true;
    if (s == nullptr || *s == '\0' || std::strcmp(s, "1") == 0
        || std::strcmp(s, "full") == 0)
        return PathTraceMode::Full;
    if (std::strcmp(s, "sampled") == 0)
        return PathTraceMode::Sampled;
    if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0)
        *requested = false;
    return PathTraceMode::Off;
}

} // namespace

void
BenchOptions::parseTraceArg(const std::string &arg)
{
    trace_requested_ = true;
    if (arg.empty() || arg == "1") {
        all_cats_ = true;
        return;
    }
    // A pure category list ("irq,nic") selects what to trace; anything
    // else ("out/fig.trace.json") is the output path, all categories.
    std::vector<sim::TraceCat> cats;
    bool all = false;
    for (const std::string &tok : splitCommas(arg)) {
        sim::TraceCat c;
        if (tok == "all") {
            all = true;
        } else if (parseCat(tok, &c)) {
            cats.push_back(c);
        } else {
            trace_path_ = arg;
            all_cats_ = true;
            return;
        }
    }
    cats_ = std::move(cats);
    all_cats_ = all;
}

BenchOptions
BenchOptions::parse(int argc, char **argv, const std::string &bench)
{
    BenchOptions o;
    o.bench_ = bench;

    if (const char *env = std::getenv("SRIOV_BENCH_OUT");
        env != nullptr && *env != '\0')
        o.out_dir_ = env;
    if (const char *env = std::getenv("SRIOV_TRACE");
        env != nullptr && *env != '\0')
        o.parseTraceArg(env);
    if (const char *env = std::getenv("SRIOV_BENCH_JOBS");
        env != nullptr && *env != '\0')
        o.jobs_ = parseJobs(env);
    if (const char *env = std::getenv("SRIOV_NO_THIN");
        env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0)
        o.no_thin_ = true;
    if (const char *env = std::getenv("SRIOV_SHARDS");
        env != nullptr && *env != '\0')
        o.shards_ = parseShards(env);
    if (const char *env = std::getenv("SRIOV_FLUID");
        env != nullptr && *env != '\0')
        o.fluid_mode_ = parseFluid(env);
    PathTraceMode pt_mode = PathTraceMode::Off;
    if (const char *env = std::getenv("SRIOV_PATHTRACE");
        env != nullptr && *env != '\0')
        pt_mode = parsePathTraceMode(env, &o.pathtrace_requested_);

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = matchFlag(arg, "--out")) {
            o.out_dir_ = v;
        } else if (const char *v = matchFlag(arg, "--jobs")) {
            o.jobs_ = parseJobs(v);
        } else if (const char *v = matchFlag(arg, "--trace")) {
            o.parseTraceArg(v);
        } else if (std::strcmp(arg, "--trace") == 0) {
            o.parseTraceArg("");
        } else if (std::strcmp(arg, "--no-thin") == 0) {
            o.no_thin_ = true;
        } else if (const char *v = matchFlag(arg, "--shards")) {
            o.shards_ = parseShards(v);
        } else if (const char *v = matchFlag(arg, "--fluid")) {
            o.fluid_mode_ = parseFluid(v);
        } else if (std::strcmp(arg, "--fluid") == 0) {
            o.fluid_mode_ = sim::FluidMode::On;
        } else if (const char *v = matchFlag(arg, "--pathtrace")) {
            pt_mode = parsePathTraceMode(v, &o.pathtrace_requested_);
        } else if (std::strcmp(arg, "--pathtrace") == 0) {
            pt_mode = parsePathTraceMode(nullptr,
                                         &o.pathtrace_requested_);
        } else if (std::strcmp(arg, "--help") == 0
                   || std::strcmp(arg, "-h") == 0) {
            o.help_ = true;
        } else {
            o.extra_.emplace_back(arg);
        }
    }
    // Must happen before any testbed is built: components sample the
    // global switches at construction.
    sim::setThinning(!o.no_thin_);
    sim::setShardCount(o.shards_);
    sim::setFluidMode(o.fluid_mode_);
    setPathTraceMode(pt_mode);
    return o;
}

std::string
BenchOptions::usage(const std::string &bench)
{
    return "usage: " + bench + " [options]\n"
           "  --out=<dir>    write " + bench + ".json report into <dir>\n"
           "                 (env fallback: SRIOV_BENCH_OUT)\n"
           "  --trace[=<arg>] capture a Chrome trace_event JSON; <arg>\n"
           "                 is a category list (irq,nic,driver,\n"
           "                 backend,migration,all) or an output path\n"
           "                 (env fallback: SRIOV_TRACE)\n"
           "  --jobs=<n>     run independent sweep cases on <n> host\n"
           "                 threads; results and reports are identical\n"
           "                 to --jobs=1, just faster\n"
           "                 (env fallback: SRIOV_BENCH_JOBS)\n"
           "  --no-thin      exact event-per-hop simulation instead of\n"
           "                 the default burst-coalesced event thinning;\n"
           "                 reports are byte-identical, runs slower\n"
           "                 (env fallback: SRIOV_NO_THIN)\n"
           "  --shards=<n>   partition the testbed into per-port islands\n"
           "                 run by the conservative shard engine on up\n"
           "                 to <n> worker threads (0 = legacy engine,\n"
           "                 the default; n=1 = sequential oracle).\n"
           "                 Reports are byte-identical for every n >= 1\n"
           "                 (env fallback: SRIOV_SHARDS)\n"
           "  --fluid[=on|exact|off]\n"
           "                 hybrid fluid/packet mode: warp over\n"
           "                 provably periodic steady-state stretches\n"
           "                 instead of simulating each packet event.\n"
           "                 \"exact\" runs the same fluid schedule\n"
           "                 with every event (equivalence reference:\n"
           "                 integer counters match \"on\" exactly;\n"
           "                 see DESIGN.md §14). Off by default;\n"
           "                 composes with --jobs and --shards\n"
           "                 (env fallback: SRIOV_FLUID)\n"
           "  --pathtrace[=off|sampled|full]\n"
           "                 causal packet-path tracing: writes " + bench
               + ".pathtrace.json\n"
           "                 (+ .pathtrace.trace.json Perfetto flows)\n"
           "                 next to the report. Non-perturbing: the\n"
           "                 report and event digest are byte-identical\n"
           "                 in every mode (env fallback:\n"
           "                 SRIOV_PATHTRACE)\n"
           "  --help         this text\n";
}

const char *
BenchOptions::fluidModeName() const
{
    switch (fluid_mode_) {
    case sim::FluidMode::Off: break;
    case sim::FluidMode::Exact: return "exact";
    case sim::FluidMode::On: return "on";
    }
    return "off";
}

std::string
BenchOptions::reportPath() const
{
    if (out_dir_.empty())
        return "";
    std::string p = out_dir_;
    if (p.back() != '/')
        p += '/';
    return p + bench_ + ".json";
}

std::string
BenchOptions::perfPath() const
{
    if (out_dir_.empty())
        return "";
    std::string p = out_dir_;
    if (p.back() != '/')
        p += '/';
    return p + bench_ + ".perf.json";
}

std::string
BenchOptions::pathtracePath() const
{
    if (out_dir_.empty())
        return "";
    std::string p = out_dir_;
    if (p.back() != '/')
        p += '/';
    return p + bench_ + ".pathtrace.json";
}

std::string
BenchOptions::pathtraceFlowsPath() const
{
    if (out_dir_.empty())
        return "";
    std::string p = out_dir_;
    if (p.back() != '/')
        p += '/';
    return p + bench_ + ".pathtrace.trace.json";
}

std::string
BenchOptions::flightrecPath() const
{
    if (out_dir_.empty())
        return "";
    std::string p = out_dir_;
    if (p.back() != '/')
        p += '/';
    return p + bench_ + ".flightrec.json";
}

std::string
BenchOptions::tracePath() const
{
    if (!trace_requested_)
        return "";
    if (!trace_path_.empty())
        return trace_path_;
    std::string dir = out_dir_.empty() ? std::string(".") : out_dir_;
    if (dir.back() != '/')
        dir += '/';
    return dir + bench_ + ".trace.json";
}

void
BenchOptions::applyTraceCategories(sim::Tracer &t) const
{
    if (all_cats_ || cats_.empty()) {
        t.enableAll();
        return;
    }
    for (sim::TraceCat c : cats_)
        t.enable(c);
}

} // namespace sriov::obs
