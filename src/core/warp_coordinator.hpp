/**
 * @file
 * WarpCoordinator: the control loop of fluid (flow-level) mode.
 *
 * The ledgers (sim/fluid.hpp) say *when* the testbed looks periodic;
 * the coordinator proves it and cashes it in. It drives a ShardEngine
 * in bounded runUntil() slices and probes only at the *barriers*
 * between them: every island clock pinned to the same instant, no
 * worker thread running, every cross-island message due at or before
 * the barrier delivered. The legacy machine is the one-island case — a
 * single EventQueue with no edges — and runs through the same loop.
 *
 * Once every island ledger is steady with a global hyperperiod P (the
 * LCM of the per-island periods), a cycle takes three full state walks
 * S0, S1, S2 exactly P apart. S1 must repeat S0's slot sequence (same
 * components, same ring depths); S2 must show every slot's second
 * per-period delta equal to its first (integers exactly, doubles to a
 * relative epsilon). That is the periodicity certificate: the schedule
 * provably satisfies S(t + P) = shift_P(S(t)) over the probed window,
 * with the deltas *measured*, not modeled. In sharded builds the walk
 * covers every cross-island channel's in-flight messages too
 * (occupancy is an invariant slot, each due instant a time-point
 * slot), and edge periods need no separate term: every cross-island
 * stream registers as a flow on its receiving island's ledger.
 *
 * Each island's pending event heap is classified against the same
 * certificate. Every event pending at S2 must either match an S1
 * event of the same tag at the same relative due-time (periodic: its
 * heap key is shifted by n*P, allowed only for shiftSafeTag() tags) or
 * be the *same* event (same seq, same absolute due-time) still waiting
 * (absolute: left in place, and bounding the warp so it never lands in
 * the past). Anything else rejects the cycle.
 *
 * A successful cycle warps at the barrier: every slot += n * delta
 * (channel dues included), each island's clock and periodic events +=
 * n * P, the ledgers' send marks += n * P, and the engine's promise
 * and floor clocks in lockstep. Because the probes never enter an
 * island's schedule, slicing a run executes the identical per-island
 * event sequences as one big runUntil — warped runs stay byte-identical
 * across shard counts, and exact vs on share one schedule. A period is
 * probed only when 2 + kMinPeriods of it fit before both the deadline
 * and the earliest event the last cycle found waiting in place (a 1 Hz
 * driver sampler, say), so the hyperperiods worth probing reach as far
 * as the run does. On rejection the coordinator escalates the period
 * to m * P (interacting grids often only repeat at a small multiple)
 * and finally backs off exponentially; a warp restarts the scan at
 * m = 1. Transitions reported to a ledger (drops, RTOs, ITR
 * changes, VM churn...) drop the testbed back to exact per-packet
 * simulation automatically: the ledger goes unsteady and no cycle
 * starts until the hysteresis hold expires.
 */

#ifndef SRIOV_CORE_WARP_COORDINATOR_HPP
#define SRIOV_CORE_WARP_COORDINATOR_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/shard_engine.hpp"

namespace sriov::core {

class WarpCoordinator
{
  public:
    /** Global state walk: every island's components, build order,
     *  including cross-island channel contents. MUST be pure
     *  visitation — no scheduling, no sends, no ledger updates. */
    using StateWalk = std::function<void(sim::FluidVisitor &)>;

    /** Extra warp gate, checked after verification: return false to
     *  refuse (e.g. CPU work whose closures captured packets is in
     *  flight — sim::CpuServer::hasWorkTagged). Null = always allow. */
    using WarpGate = std::function<bool()>;

    /**
     * The engine's islands must already carry their ledgers
     * (ShardEngine::setIslandLedger) — the coordinator reads them for
     * steadiness and shifts them on a warp, but owns none of them.
     */
    WarpCoordinator(sim::ShardEngine &engine, StateWalk walk,
                    WarpGate gate);

    WarpCoordinator(const WarpCoordinator &) = delete;
    WarpCoordinator &operator=(const WarpCoordinator &) = delete;

    /**
     * Drive every island to @p deadline, warping over certified
     * periodic stretches. Equivalent to engine.runUntil(deadline) in
     * every observable counter (the exact-vs-on contract); only the
     * number of executed events differs.
     */
    void runUntil(sim::Time deadline);

    const sim::FluidStats &stats() const { return stats_; }

    /** Diagnostics: why the most recent cycle failed ("" if none). */
    const std::string &lastReject() const { return last_reject_; }

    /**
     * Tags whose pending events may be shifted by a whole number of
     * periods: their callbacks capture only owner pointers/indices, so
     * re-executing them later reproduces the shifted schedule. Tags
     * carrying per-packet captures (dma.done, exact-mode wire events,
     * netback grant batches) are deliberately absent — a cycle that
     * finds one pending rejects. Exposed for tests.
     */
    static bool shiftSafeTag(const char *tag);

  private:
    sim::Time now() const;
    /** Every island ledger steady (empty islands vacuously so), and at
     *  least one island has live flows. */
    bool ledgersSteady() const;
    /** LCM of the per-island hyperperiods; Time() when unsteady or
     *  over @p cap, the longest period the run's horizon can warp. */
    sim::Time globalPeriod(sim::Time cap) const;
    /** Run one three-capture cycle from the current barrier. Returns
     *  true if a warp was applied (state advanced past the probes). */
    bool probeCycle(sim::Time deadline, sim::Time period);
    /** Classify @p island's pending events; lowers abs_bound_ to every
     *  event still waiting in place. */
    bool classifyIsland(unsigned island, sim::Time period,
                        std::string *why);
    void reject(std::string why);

    sim::ShardEngine &engine_;
    StateWalk walk_;
    WarpGate gate_;
    sim::FluidStats stats_;

    unsigned mult_ = 1;
    unsigned consecutive_rejects_ = 0;
    sim::Time backoff_until_;
    /** Earliest event the last classification found waiting in place
     *  (max() when none, or once the clock has passed it). A probe
     *  straddling it would see its schedule change, so no cycle may
     *  need to run past it. */
    sim::Time abs_bound_ = sim::Time::max();
    std::string last_reject_;

    /** Per-cycle scratch (index = engine island index). */
    std::unique_ptr<sim::FluidVisitor> s0_, s1_, s2_;
    std::vector<std::vector<sim::EventQueue::PendingEvent>> e1_, e2_;
    std::vector<std::vector<std::uint32_t>> shift_keys_;
};

} // namespace sriov::core

#endif // SRIOV_CORE_WARP_COORDINATOR_HPP
