#include "obs/bench_options.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace sriov::obs {

namespace {

/** What a default-constructed core::Testbed::Params copies: written
 *  only by BenchOptions::parse(), before the bench builds a testbed. */
RunConfig g_default_run;

/** "--out=dir" → "dir"; nullptr when @p arg isn't @p flag. */
const char *
matchFlag(const char *arg, const char *flag)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
        return arg + n + 1;
    return nullptr;
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

/** "--trace" values: bare "--trace" and "1" capture; "0" does not. */
bool
parseTrace(const char *s, bool *out)
{
    if (*s == '\0' || std::strcmp(s, "1") == 0)
        *out = true;
    else if (std::strcmp(s, "0") == 0)
        *out = false;
    else
        return false;
    return true;
}

/** "--jobs" (and a bench's own count flag) values: a count >= 1. */
bool
parsePositive(const char *s, unsigned *out)
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
 *  trail; "off"/"0" turn the export off. */
bool
parsePathTrace(const char *s, bool *out)
{
    if (*s == '\0' || std::strcmp(s, "1") == 0
        || std::strcmp(s, "full") == 0)
        *out = true;
    else if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0)
        *out = false;
    else
        return false;
    return true;
}

/** A mode value that does not parse is an error, not a default: name
 *  the flag, print the usage text and exit 2. */
[[noreturn]] void
rejectValue(const std::string &bench, const std::vector<std::string> &flags,
            const char *flag, const char *value)
{
    std::fprintf(stderr, "%s: invalid %s value '%s'\n%s", bench.c_str(),
                 flag, value, BenchOptions::usage(bench, flags).c_str());
    std::exit(2);
}

/** An argument neither BenchOptions nor the bench declares. */
[[noreturn]] void
rejectArg(const std::string &bench, const std::vector<std::string> &flags,
          const char *arg)
{
    std::fprintf(stderr, "%s: unknown argument '%s'\n%s", bench.c_str(),
                 arg, BenchOptions::usage(bench, flags).c_str());
    std::exit(2);
}

/** True when @p arg is `<flag>=<value>` for one of @p flags. */
bool
declared(const std::vector<std::string> &flags, const char *arg)
{
    for (const std::string &f : flags) {
        if (matchFlag(arg, f.c_str()) != nullptr)
            return true;
    }
    return false;
}

} // namespace

RunConfig
defaultRunConfig()
{
    return g_default_run;
}

BenchOptions
BenchOptions::parse(int argc, char **argv, const std::string &bench,
                    const std::vector<std::string> &flags)
{
    BenchOptions o;
    o.bench_ = bench;
    o.flags_ = flags;
    RunConfig &run = o.run_;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (const char *v = matchFlag(arg, "--out")) {
            o.out_dir_ = v;
        } else if (const char *v = matchFlag(arg, "--jobs")) {
            if (!parsePositive(v, &o.jobs_))
                rejectValue(bench, flags, "--jobs", v);
        } else if (const char *v = matchFlag(arg, "--trace")) {
            if (!parseTrace(v, &o.trace_requested_))
                rejectValue(bench, flags, "--trace", v);
        } else if (std::strcmp(arg, "--trace") == 0) {
            o.trace_requested_ = true;
        } else if (std::strcmp(arg, "--no-thin") == 0) {
            run.thin = false;
        } else if (const char *v = matchFlag(arg, "--shards")) {
            if (!parseCount(v, &run.shards))
                rejectValue(bench, flags, "--shards", v);
        } else if (const char *v = matchFlag(arg, "--fluid")) {
            if (!parseFluid(v, &run.fluid))
                rejectValue(bench, flags, "--fluid", v);
        } else if (std::strcmp(arg, "--fluid") == 0) {
            run.fluid = sim::FluidMode::On;
        } else if (const char *v = matchFlag(arg, "--pathtrace")) {
            if (!parsePathTrace(v, &run.pathtrace))
                rejectValue(bench, flags, "--pathtrace", v);
        } else if (std::strcmp(arg, "--pathtrace") == 0) {
            run.pathtrace = true;
        } else if (std::strcmp(arg, "--help") == 0
                   || std::strcmp(arg, "-h") == 0) {
            o.help_ = true;
        } else if (declared(flags, arg)) {
            o.extra_.emplace_back(arg);
        } else {
            rejectArg(bench, flags, arg);
        }
    }
    g_default_run = run;
    return o;
}

std::string
BenchOptions::usage(const std::string &bench,
                    const std::vector<std::string> &flags)
{
    // The bench's own flags first; countArg() is their one reader, so
    // each takes a count.
    std::string own;
    for (const std::string &f : flags) {
        std::string line = "  " + f + "=<n>";
        line.append(line.size() < 17 ? 17 - line.size() : 1, ' ');
        own += line + "a count >= 1 (" + bench + " only)\n";
    }
    return "usage: " + bench + " [options]\n" + own
           + "  --out=<dir>    write " + bench + ".json report into <dir>\n"
           "  --trace[=1|0]  capture a Chrome trace_event JSON of the\n"
           "                 first case (CPU work spans and tagged\n"
           "                 events) as <out|.>/" + bench + ".trace.json\n"
           "  --jobs=<n>     run independent sweep cases on <n> host\n"
           "                 threads; results and reports are identical\n"
           "                 to --jobs=1, just faster\n"
           "  --no-thin      exact event-per-hop simulation instead of\n"
           "                 the default burst-coalesced event thinning;\n"
           "                 reports are byte-identical, runs slower\n"
           "  --shards=<n>   partition the testbed into per-port islands\n"
           "                 run by the conservative shard engine on up\n"
           "                 to <n> worker threads (0 = one island,\n"
           "                 the default; n=1 = sequential oracle).\n"
           "                 Reports are byte-identical for every n >= 1\n"
           "  --fluid[=on|exact|off]\n"
           "                 hybrid fluid/packet mode: warp over\n"
           "                 provably periodic steady-state stretches\n"
           "                 instead of simulating each packet event.\n"
           "                 \"exact\" runs the same fluid schedule\n"
           "                 with every event (equivalence reference:\n"
           "                 integer counters match \"on\" exactly;\n"
           "                 see DESIGN.md §14). Off by default;\n"
           "                 composes with --jobs and --shards\n"
           "  --pathtrace[=off|full]\n"
           "                 causal packet-path tracing: writes " + bench
               + ".pathtrace.json\n"
           "                 next to the report and its Perfetto flows\n"
           "                 into " + bench + ".trace.json. Non-perturbing:\n"
           "                 the report and event digest are\n"
           "                 byte-identical either way\n"
           "  --help         this text\n";
}

unsigned
BenchOptions::countArg(const std::string &flag, unsigned dflt) const
{
    unsigned n = dflt;
    for (const std::string &a : extra_) {
        const char *v = matchFlag(a.c_str(), flag.c_str());
        if (v != nullptr && !parsePositive(v, &n))
            rejectValue(bench_, flags_, flag.c_str(), v);
    }
    return n;
}

const char *
BenchOptions::fluidModeName() const
{
    switch (run_.fluid) {
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
    if (!trace_requested_ && !(run_.pathtrace && wantReport()))
        return "";
    std::string dir = out_dir_.empty() ? std::string(".") : out_dir_;
    if (dir.back() != '/')
        dir += '/';
    return dir + bench_ + ".trace.json";
}

} // namespace sriov::obs
