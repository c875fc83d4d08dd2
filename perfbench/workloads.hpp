/**
 * @file
 * The benchmark's workloads: seeded case lists built on core::Testbed
 * through its public API, one case runner, and the output checks.
 *
 * A workload is a list of cases. Each case is one Testbed: a topology,
 * a set of guests with one netperf stream each, and a simulated
 * warm-up + measurement window. The seed picks every free parameter
 * (payload sizes, VM counts, ITR policy, horizons) inside fixed
 * strata, so every seed does about the same amount of host work while
 * the inputs differ. Modes (fluid, shards) are selected by the
 * BenchOptions argv flags of the workload, never by the sim::set*
 * globals directly.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "layer_trace.hpp"

namespace perfbench {

/** One guest and the netperf stream that targets it. */
struct StreamSpec
{
    enum class Kind { UdpSriov, UdpPv, TcpSriov };
    Kind kind = Kind::UdpSriov;
    std::uint32_t payload = 1472;
    /** UDP offered load in wire bits/s (unused for TCP). */
    double offered_bps = 0;
    /** TCP window in bytes (unused for UDP). */
    std::uint32_t window = 120832;
    /** Client port the stream enters from; -1 = the guest's own. */
    int src_port = -1;
};

struct CaseSpec
{
    std::string label;
    unsigned ports = 1;
    unsigned hosts = 1;
    std::string itr = "adaptive";
    bool aic = false;
    unsigned netback_threads = 4;
    std::vector<StreamSpec> streams;
    double warmup_s = 0.5;
    double window_s = 1.0;
    /** Expected total UDP goodput (bit/s) when the case runs at line
     *  rate; 0 = no goodput band for this case. */
    double band_goodput_bps = 0;
};

struct Workload
{
    std::string name;
    /** BenchOptions flags selecting the workload's engine modes. */
    std::vector<std::string> mode_args;
    std::vector<CaseSpec> cases;
    /** The case the determinism audit shrinks and runs twice. */
    CaseSpec audit_case;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Generate @p name's case list from @p seed. @p scale multiplies every
 * simulated horizon (1 = the benchmark's size; the smoke test uses a
 * tiny scale). Fatal on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      double scale);

/** Deliberately broken checks, for the benchmark's negative tests. */
enum class Inject { None, Conservation, Determinism };

struct CaseResult
{
    /** Host seconds of the set-up spans and of the timed drive. */
    double testbed_s = 0;
    double add_guest_s = 0;
    double start_s = 0;
    double drive_s = 0;
    double setupSeconds() const { return testbed_s + add_guest_s + start_s; }

    std::uint64_t pkts = 0;      ///< delivered to guest sockets
    std::uint64_t events = 0;    ///< executed simulator events
    std::uint64_t irqs = 0;      ///< NIC pool interrupts raised
    std::uint64_t exits = 0;     ///< dom0 + guest VM exits
    std::uint64_t rx_drops = 0;  ///< NIC pool + no-match drops
    std::uint64_t spurious = 0;  ///< spurious interrupts (router)
    /** FluidStats (zero when nothing warps). */
    std::uint64_t probes = 0;
    std::uint64_t segments = 0;
    std::uint64_t events_elided = 0;
    double warped_sim_s = 0;
    double sim_s = 0;

    /** Order digest and registry snapshot hash of the finished run. */
    std::uint64_t order_digest = 0;
    std::uint64_t registry_hash = 0;

    /** Output checks: empty = passed. */
    std::vector<std::string> failures;

    /** Per-layer host time (traced runs only). */
    LayerTotals layers;
};

struct RunOptions
{
    bool traced = false;
    Inject inject = Inject::None;
};

/** Build, drive, measure and check one case. */
CaseResult runCase(const CaseSpec &c, const RunOptions &opt);

/**
 * Run @p c's shrunk audit case twice and compare order digests and
 * registry hashes. Returns "" when they match, else a description.
 */
std::string determinismAudit(const CaseSpec &c, Inject inject);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
