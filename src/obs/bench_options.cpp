#include "obs/bench_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

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

/** A decimal count: digits only, no sign, no overflow. */
bool
parseCount(const char *s, unsigned *out)
{
    if (*s == '\0')
        return false;
    unsigned long long v = 0;
    for (const char *c = s; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return false;
        v = v * 10 + unsigned(*c - '0');
        if (v > std::numeric_limits<unsigned>::max())
            return false;
    }
    *out = unsigned(v);
    return true;
}

/** "--jobs" values: a count >= 1. */
bool
parseJobs(const char *s, unsigned *out)
{
    return parseCount(s, out) && *out >= 1;
}

/** "--fluid" values: bare "--fluid", "1" and "on" warp; "exact" runs
 *  the fluid schedule without warping; "off"/"0" keep the seed
 *  schedule. */
bool
parseFluid(const char *s, sim::FluidMode *out)
{
    if (*s == '\0' || std::strcmp(s, "1") == 0 || std::strcmp(s, "on") == 0)
        *out = sim::FluidMode::On;
    else if (std::strcmp(s, "exact") == 0)
        *out = sim::FluidMode::Exact;
    else if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0)
        *out = sim::FluidMode::Off;
    else
        return false;
    return true;
}

/** "--pathtrace" values: bare "--pathtrace", "1" and "full" keep every
 *  trail; "sampled"; "off"/"0" turn the export off. */
bool
parsePathTraceMode(const char *s, PathTraceMode *out, bool *requested)
{
    *requested = true;
    if (*s == '\0' || std::strcmp(s, "1") == 0
        || std::strcmp(s, "full") == 0) {
        *out = PathTraceMode::Full;
    } else if (std::strcmp(s, "sampled") == 0) {
        *out = PathTraceMode::Sampled;
    } else if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) {
        *out = PathTraceMode::Off;
        *requested = false;
    } else {
        return false;
    }
    return true;
}

/** A set, non-empty environment variable, else nullptr. */
const char *
envValue(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
}

/** A mode value that does not parse is an error, not a default: name
 *  the flag (and the variable it came from), print the usage text and
 *  exit 2. */
[[noreturn]] void
rejectValue(const std::string &bench, const char *flag, const char *value,
            const char *env)
{
    std::fprintf(stderr, "%s: invalid %s value '%s'", bench.c_str(), flag,
                 value);
    if (env != nullptr)
        std::fprintf(stderr, " (from %s)", env);
    std::fprintf(stderr, "\n%s", BenchOptions::usage(bench).c_str());
    std::exit(2);
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

    if (const char *env = envValue("SRIOV_BENCH_OUT"))
        o.out_dir_ = env;
    if (const char *env = envValue("SRIOV_TRACE"))
        o.parseTraceArg(env);
    if (const char *env = envValue("SRIOV_BENCH_JOBS");
        env != nullptr && !parseJobs(env, &o.jobs_))
        rejectValue(bench, "--jobs", env, "SRIOV_BENCH_JOBS");
    if (const char *env = envValue("SRIOV_NO_THIN");
        env != nullptr && std::strcmp(env, "0") != 0)
        o.no_thin_ = true;
    if (const char *env = envValue("SRIOV_SHARDS");
        env != nullptr && !parseCount(env, &o.shards_))
        rejectValue(bench, "--shards", env, "SRIOV_SHARDS");
    if (const char *env = envValue("SRIOV_FLUID");
        env != nullptr && !parseFluid(env, &o.fluid_mode_))
        rejectValue(bench, "--fluid", env, "SRIOV_FLUID");
    PathTraceMode pt_mode = PathTraceMode::Off;
    if (const char *env = envValue("SRIOV_PATHTRACE");
        env != nullptr
        && !parsePathTraceMode(env, &pt_mode, &o.pathtrace_requested_))
        rejectValue(bench, "--pathtrace", env, "SRIOV_PATHTRACE");

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = matchFlag(arg, "--out")) {
            o.out_dir_ = v;
        } else if (const char *v = matchFlag(arg, "--jobs")) {
            if (!parseJobs(v, &o.jobs_))
                rejectValue(bench, "--jobs", v, nullptr);
        } else if (const char *v = matchFlag(arg, "--trace")) {
            o.parseTraceArg(v);
        } else if (std::strcmp(arg, "--trace") == 0) {
            o.parseTraceArg("");
        } else if (std::strcmp(arg, "--no-thin") == 0) {
            o.no_thin_ = true;
        } else if (const char *v = matchFlag(arg, "--shards")) {
            if (!parseCount(v, &o.shards_))
                rejectValue(bench, "--shards", v, nullptr);
        } else if (const char *v = matchFlag(arg, "--fluid")) {
            if (!parseFluid(v, &o.fluid_mode_))
                rejectValue(bench, "--fluid", v, nullptr);
        } else if (std::strcmp(arg, "--fluid") == 0) {
            o.fluid_mode_ = sim::FluidMode::On;
        } else if (const char *v = matchFlag(arg, "--pathtrace")) {
            if (!parsePathTraceMode(v, &pt_mode, &o.pathtrace_requested_))
                rejectValue(bench, "--pathtrace", v, nullptr);
        } else if (std::strcmp(arg, "--pathtrace") == 0) {
            parsePathTraceMode("", &pt_mode, &o.pathtrace_requested_);
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
           "                 to <n> worker threads (0 = one island,\n"
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
