#include "check/fluid_equiv.hpp"

#include <cmath>
#include <cstdio>

namespace sriov::check {

namespace {

bool
pathContains(const std::string &path, const char *needle)
{
    return path.find(needle) != std::string::npos;
}

bool
isIntegral(double v)
{
    return std::nearbyint(v) == v && std::fabs(v) < 9.0e15;
}

double
relDiff(double a, double b)
{
    double mag = std::max(std::fabs(a), std::fabs(b));
    if (mag == 0)
        return 0;
    return std::fabs(a - b) / mag;
}

void
violate(FluidEquivResult &r, const std::string &path, const char *what,
        double a, double b)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s: %s (ref %.17g, fluid %.17g)",
                  path.c_str(), what, a, b);
    r.violations.push_back(buf);
}

} // namespace

FluidMetricClass
classifyFluidMetric(const std::string &path, bool integral)
{
    // Simulation-process diagnostics, not modelled-system state:
    //  - path_stages: the tracer never sees packets inside a warped
    //    span, so trail counts and the latency estimates over the
    //    sampled population legitimately differ;
    //  - warp stats and host timings, when embedded.
    if (pathContains(path, "/path_stages")
        || pathContains(path, "fluid_stats")
        || pathContains(path, "host_wall"))
        return FluidMetricClass::Diagnostic;
    // Expectation deltas are derived from 'actual' (already compared)
    // by subtraction against a constant — near zero, a relative band
    // on them is meaningless. 'actual' carries the real comparison.
    if (pathContains(path, "/delta") || pathContains(path, "/delta_pct"))
        return FluidMetricClass::Diagnostic;
    // Interrupt-latency observations ride on the sampled population
    // too (the deferred-timer raise instants are schedule state, but
    // each observation is made per-event): histogram shape metrics
    // under snapshots stay comparable; nothing to exclude here.
    if (pathContains(path, "goodput") || pathContains(path, "throughput")
        || pathContains(path, "gbps"))
        return integral ? FluidMetricClass::Exact : FluidMetricClass::F64;
    if (integral)
        return FluidMetricClass::Exact;
    return FluidMetricClass::F64;
}

namespace {

/** Per-leaf band when comparing off-vs-on: throughput is tight,
 *  slopes (differences of differences across the band) get 3x. */
double
bandFor(const std::string &path, const FluidEquivOptions &opt)
{
    if (pathContains(path, "goodput") || pathContains(path, "gbps")
        || pathContains(path, "throughput"))
        return opt.goodput_band;
    if (pathContains(path, "per_vm") || pathContains(path, "slope"))
        return 3 * opt.band;
    return opt.band;
}

void
compareNode(const obs::JsonValue &a, const obs::JsonValue &b,
            const std::string &path, const FluidEquivOptions &opt,
            FluidEquivResult &r)
{
    using Type = obs::JsonValue::Type;
    if (pathContains(path, "/path_stages")
        || pathContains(path, "fluid_stats")) {
        ++r.skipped;
        return;
    }
    if (a.type != b.type) {
        violate(r, path, "type mismatch", a.number, b.number);
        return;
    }
    switch (a.type) {
    case Type::Object: {
        if (a.members.size() != b.members.size()) {
            violate(r, path, "member count mismatch",
                    double(a.members.size()), double(b.members.size()));
            return;
        }
        // Expectations and series are positional arrays of named
        // objects; fold the name into the path so per-metric band
        // rules (bandFor) can see it.
        std::string base = path;
        if (const obs::JsonValue *n = a.find("name");
            n != nullptr && n->isString())
            base += ":" + n->str;
        else if (const obs::JsonValue *l = a.find("label");
                 l != nullptr && l->isString())
            base += ":" + l->str;
        for (std::size_t i = 0; i < a.members.size(); ++i) {
            if (a.members[i].first != b.members[i].first) {
                violate(r, base + "/" + a.members[i].first,
                        "key mismatch", 0, 0);
                return;
            }
            compareNode(a.members[i].second, b.members[i].second,
                        base + "/" + a.members[i].first, opt, r);
        }
        return;
    }
    case Type::Array: {
        if (a.items.size() != b.items.size()) {
            violate(r, path, "array length mismatch",
                    double(a.items.size()), double(b.items.size()));
            return;
        }
        for (std::size_t i = 0; i < a.items.size(); ++i)
            compareNode(a.items[i], b.items[i],
                        path + "/" + std::to_string(i), opt, r);
        return;
    }
    case Type::Number: {
        ++r.compared;
        const bool integral = isIntegral(a.number) && isIntegral(b.number);
        switch (classifyFluidMetric(path, integral)) {
        case FluidMetricClass::Diagnostic:
            --r.compared;
            ++r.skipped;
            return;
        case FluidMetricClass::Exact:
            if (opt.banded) {
                if (relDiff(a.number, b.number) > bandFor(path, opt))
                    violate(r, path, "outside band", a.number, b.number);
                return;
            }
            ++r.exact;
            if (a.number != b.number)
                violate(r, path, "integer leaf not identical", a.number,
                        b.number);
            return;
        case FluidMetricClass::F64:
            if (opt.banded) {
                if (relDiff(a.number, b.number) > bandFor(path, opt))
                    violate(r, path, "outside band", a.number, b.number);
                return;
            }
            if (relDiff(a.number, b.number) > opt.f64_rel)
                violate(r, path, "fp leaf beyond epsilon", a.number,
                        b.number);
            return;
        case FluidMetricClass::Banded:
            if (relDiff(a.number, b.number) > bandFor(path, opt))
                violate(r, path, "outside band", a.number, b.number);
            return;
        }
        return;
    }
    case Type::String:
        if (a.str != b.str)
            violate(r, path, "string mismatch", 0, 0);
        return;
    case Type::Bool:
        if (a.boolean != b.boolean)
            violate(r, path, "bool mismatch", a.boolean ? 1 : 0,
                    b.boolean ? 1 : 0);
        return;
    case Type::Null:
        return;
    }
}

} // namespace

FluidEquivResult
compareFluidReports(const obs::JsonValue &ref, const obs::JsonValue &fluid,
                    const FluidEquivOptions &opt)
{
    FluidEquivResult r;
    compareNode(ref, fluid, "", opt, r);
    return r;
}

} // namespace sriov::check
