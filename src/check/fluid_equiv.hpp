/**
 * @file
 * The fluid equivalence contract, as an executable check.
 *
 * Fluid mode (DESIGN.md §14) promises that warping over certified
 * periodic stretches does not change what the simulation *measures*.
 * The promise has two strengths, matching the two report comparisons
 * CI runs:
 *
 *  - strict  (--fluid=exact vs --fluid=on): the two runs share one
 *    event schedule, so every integer-valued metric leaf must be
 *    byte-identical — a warp adds the measured per-period delta n
 *    times, which for integers is exactly what n more simulated
 *    periods would have added. Floating-point leaves may differ only
 *    by accumulation order (one fused delta versus millions of small
 *    adds), bounded by a tight relative epsilon.
 *
 *  - banded  (--fluid=off vs --fluid=on): the fluid schedule itself
 *    differs from the seed schedule (devices snap their timer windows
 *    onto the send grid so a hyperperiod exists), so workload metrics
 *    are held to tolerance bands instead: throughput within a
 *    fraction of a percent, CPU/interrupt-derived metrics within a
 *    few percent.
 *
 * Some report sections are diagnostics of the *simulation process*
 * rather than of the modelled system and are excluded from both
 * comparisons: path-tracer trail counts (packets inside a warped span
 * are never traced — that is the point), perf sidecar host timings,
 * and the warp coordinator's own stats.
 */

#ifndef SRIOV_CHECK_FLUID_EQUIV_HPP
#define SRIOV_CHECK_FLUID_EQUIV_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace sriov::check {

/** Which promise a metric leaf falls under. */
enum class FluidMetricClass
{
    Exact,      ///< integer-valued: byte-identical under strict
    F64,        ///< float-valued: accumulation-order epsilon
    Banded,     ///< schedule-dependent: tolerance band only
    Diagnostic, ///< simulation-process metadata: never compared
};

struct FluidEquivOptions
{
    /** Strict (exact-vs-on) or banded (off-vs-on) comparison. */
    bool banded = false;
    /** Relative epsilon for F64 leaves under strict comparison. */
    double f64_rel = 1e-9;
    /** Relative band for throughput/goodput leaves when banded. */
    double goodput_band = 0.005;
    /** Relative band for everything else when banded. The window
     *  quantization moves a device's interrupt rate by up to half a
     *  send-grid per window (~5%), and share-of-CPU metrics amplify
     *  that; 8% covers the worst observed case with margin. */
    double band = 0.08;
};

struct FluidEquivResult
{
    std::size_t compared = 0;  ///< numeric leaves checked
    std::size_t exact = 0;     ///< held to byte-identity
    std::size_t skipped = 0;   ///< diagnostic leaves excluded
    std::vector<std::string> violations;

    bool ok() const { return violations.empty(); }
};

/**
 * Classify a report leaf by its JSON path (slash-separated, e.g.
 * "/snapshots/0/metrics/server.vm3.vm_exits/value"). @p integral is
 * whether both observed values are whole numbers — counters surface
 * as integral doubles through the metric registry.
 */
FluidMetricClass classifyFluidMetric(const std::string &path,
                                     bool integral);

/**
 * Compare two parsed figXX.json reports under the fluid contract.
 * @p ref is the reference run (--fluid=exact for strict mode,
 * --fluid=off for banded), @p fluid the --fluid=on run. Structural
 * mismatches (missing keys, different array lengths) outside
 * diagnostic sections are violations too.
 */
FluidEquivResult compareFluidReports(const obs::JsonValue &ref,
                                     const obs::JsonValue &fluid,
                                     const FluidEquivOptions &opt);

} // namespace sriov::check

#endif // SRIOV_CHECK_FLUID_EQUIV_HPP
