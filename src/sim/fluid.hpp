/**
 * @file
 * Fluid (flow-level) simulation mode: the mode, the state-visitation
 * protocol and the per-flow steadiness ledger.
 *
 * Event thinning (sim::EventQueue::thin()) removes events *within* a
 * burst; fluid mode removes the bursts themselves. When every flow of a
 * testbed has settled into an exactly periodic schedule (CBR senders
 * on a fixed grid, the ITR raise pattern locked to it), the simulation
 * state S(t) satisfies S(t + P) = shift_P(S(t)) for the flow-group
 * hyperperiod P: every monotone counter advances by a constant
 * per-period delta and every embedded time-point advances by exactly
 * P. A fluid segment exploits that: measure the per-period delta of
 * every mutable scalar over two consecutive probe periods, verify the
 * two deltas are identical (the periodicity certificate), then advance
 * the whole simulation n periods in closed form — counters += n * d,
 * time-points += n * P, pending periodic events shifted by n * P —
 * without executing the O(n * packets) events in between.
 *
 * Because the applied deltas are the *measured exact* per-period
 * behavior, cumulative counts at segment boundaries are byte-identical
 * to the exact schedule by construction (DESIGN.md section 14 lists
 * the declared-exact vs tolerance-banded metric classes; the residual
 * approximation is floating-point cycle accumulators, whose per-period
 * deltas are verified to a relative epsilon rather than bit-equality).
 *
 * The mode is a field of each testbed's run configuration
 * (obs::RunConfig::fluid, set by --fluid): a testbed in Exact or On
 * gives every island a FlowLedger, and only On installs the
 * core::WarpCoordinator. Off, the default, keeps the golden fig06
 * digest bit-for-bit because nothing in the schedule changes.
 */

#ifndef SRIOV_SIM_FLUID_HPP
#define SRIOV_SIM_FLUID_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace sriov::sim {

/**
 * The fluid mode is three-valued:
 *
 *  - Off:   the seed schedule, untouched. Reports and the event-order
 *           digest are bit-for-bit those of a build without fluid.
 *  - Exact: the *fluid schedule* (devices snap their timer windows
 *           onto the send grid so a hyperperiod exists — see
 *           SriovNic::setItr), simulated event by event. No probes,
 *           no warps.
 *  - On:    the same fluid schedule, with the core::WarpCoordinator
 *           warping over certified periodic stretches.
 *
 * Exact exists to make the equivalence contract testable: On and
 * Exact share one schedule, so every integer counter must agree
 * byte-for-byte between them (warps add the *measured* per-period
 * delta n times) — any difference is a fluid bug, not model noise.
 * Off vs On differs by the window quantization itself and is held to
 * tolerance bands instead (DESIGN.md §14).
 */
enum class FluidMode : std::uint8_t { Off, Exact, On };

/**
 * The state-visitation protocol of a fluid segment.
 *
 * Components expose their mutable numeric state through
 * `fluidVisit(FluidVisitor &)`: one call per scalar, in a
 * deterministic order, covering every counter, accumulator and
 * embedded time-point that the simulation mutates on the datapath.
 * The visitor runs in one of three passes:
 *
 *  - Capture: record (name, value) of every slot.
 *  - Verify: compare three captures taken exactly one period apart —
 *    each slot's two consecutive deltas must match (integers exactly,
 *    doubles to kF64RelEps), and the slot *sequence* (names + count)
 *    must be identical, which pins ring sizes and tag-table layouts.
 *  - Apply: add n * delta to every slot, writing through the same
 *    references (inv() slots are verify-only and never written).
 *
 * Class collapse: a time-point that advances by exactly P per period
 * is indistinguishable from a counter whose per-period delta happens
 * to be P picoseconds, so one linear-slot class covers both. Slots
 * whose value must not change (ring payload sizes, LAPIC state words)
 * verify as delta == 0 automatically; use inv() for values only
 * reachable by copy.
 */
class FluidVisitor
{
  public:
    enum class Pass : std::uint8_t { Capture, Apply };

    explicit FluidVisitor(Pass pass) : pass_(pass) {}

    /** @name Slot visitation (call once per scalar, stable order). @{ */
    void u64(const char *name, std::uint64_t &v);
    void i64(const char *name, std::int64_t &v);
    void f64(const char *name, double &v);
    // simlint:allow(no-wallclock): visits a sim::Time slot, not libc time()
    void time(const char *name, Time &v);
    /** Verify-only slot: value must be identical across captures. */
    void inv(const char *name, std::uint64_t v);
    /** @} */

    Pass pass() const { return pass_; }
    std::size_t slots() const { return names_.size(); }

    /**
     * Verify this capture against @p prev taken exactly one period
     * earlier: slot sequences must match and, when @p prev2 (two
     * periods earlier) is given, each slot's consecutive deltas must
     * agree. On failure returns false and names the first offending
     * slot in @p why.
     */
    bool verifyAgainst(const FluidVisitor &prev, const FluidVisitor *prev2,
                       std::string *why) const;

    /**
     * Arm an Apply-pass visitor: deltas = (@p newer - @p older) scaled
     * by @p periods. The two captures must already have passed
     * verifyAgainst(). The next fluidVisit() walk with this visitor
     * writes the scaled deltas through.
     */
    void armApply(const FluidVisitor &older, const FluidVisitor &newer,
                  std::int64_t periods);

    static constexpr double kF64RelEps = 1e-9;

  private:
    union SlotValue
    {
        std::int64_t i;
        double f;
    };

    enum class Kind : std::uint8_t { I64, F64, Inv };

    void push(const char *name, Kind k, SlotValue v);

    Pass pass_;
    std::vector<const char *> names_;
    std::vector<Kind> kinds_;
    std::vector<SlotValue> vals_;
    /** Apply pass: per-slot scaled delta, indexed like names_. */
    std::vector<SlotValue> deltas_;
    std::size_t cursor_ = 0;
};

/**
 * Why a flow left (or never reached) steady state — the transition
 * catalogue of DESIGN.md section 14. Every kind forces the ledger out
 * of steady state and (in a running segment) ends it at the exact
 * per-packet schedule.
 */
enum class FluidTransition : std::uint8_t
{
    Drop,          ///< any loss/drop decision (ring dry, queue cap, socket)
    Rto,           ///< TCP retransmission timeout fired
    ItrChange,     ///< ITR coalescing window re-programmed to a new value
    RingEdge,      ///< descriptor ring hit full/empty outside the band
    RateChange,    ///< sender rate re-programmed or stream stopped
    // simlint:allow(shard-channel): names the transition kind, no send
    ShardEdge,     ///< frame crossed a shard boundary (fluid is per-island)
    VmChurn,       ///< guest attached/detached/shutdown mid-run
    Count
};

const char *fluidTransitionName(FluidTransition t);

/**
 * What a ledger flow tracks. Source flows are sender emission grids —
 * the timebase everything else locks to; derived flows are periodic
 * device processes that ride on top of them (interrupt-raise streams,
 * whose cadence the driver quantizes onto the source grid under fluid
 * mode). Both participate in commonPeriod(); only sources define the
 * quantization grid sourcePeriod() reports.
 */
enum class FlowKind : std::uint8_t { Source, Derived };

/**
 * Per-flow steadiness ledger.
 *
 * Senders register one flow per (stack, VF, direction) stream and
 * report every send instant; components report transitions. A flow is
 * steady once kSteadyGaps consecutive inter-send gaps are exactly
 * equal and no transition has been reported for kHoldGaps further
 * gaps (the re-entry hysteresis). The ledger is pure bookkeeping —
 * the WarpCoordinator combines liveSteady() + commonPeriod() with its
 * own two-period state-delta verification before warping anything.
 */
class FlowLedger
{
  public:
    /** Consecutive identical gaps required to call a flow steady. */
    static constexpr unsigned kSteadyGaps = 8;
    /** Extra identical gaps required after a transition (hysteresis). */
    static constexpr unsigned kHoldGaps = 16;

    /** Register a flow; returns its id. @p name is for diagnostics. */
    unsigned addFlow(std::string name, FlowKind kind = FlowKind::Source);

    std::size_t flowCount() const { return flows_.size(); }
    const std::string &flowName(unsigned flow) const;

    /** A packet left the flow's source at @p now. */
    void onSend(unsigned flow, Time now);

    /**
     * The flow's stream stopped for good (sender stop()). Ended flows
     * are excluded from allSteady()/commonPeriod() — without this a
     * stopped flow's hysteresis hold could never expire (holds only
     * count down on sends) and would block fluid mode for the rest of
     * the run.
     */
    void endFlow(unsigned flow);

    /** A transition happened on @p flow (unsteady + hysteresis hold). */
    void transition(unsigned flow, FluidTransition t);

    /** A transition not attributable to one flow (unsteadies all). */
    void transitionAll(FluidTransition t);

    /** Steady: enough identical gaps and the hysteresis hold expired. */
    bool flowSteady(unsigned flow) const;
    bool allSteady() const;

    /** Flows not ended. */
    std::size_t liveFlows() const;

    /**
     * Every live flow is steady — vacuously true with none live. The
     * coordinator uses this per-island form: an idle island (no flows)
     * must not veto a global warp. allSteady() is the strict form,
     * false for an empty ledger.
     */
    bool liveSteady() const;

    /** The flow's locked inter-send gap (Time() when not steady). */
    Time flowGap(unsigned flow) const;

    /**
     * The common hyperperiod of all steady flows: every flow's gap
     * must divide it and it must not exceed @p cap, which the caller
     * derives from how much run is left to warp (LCM blowup between
     * incommensurate grids means no fluid segment). Time() when any
     * flow is unsteady or no common period <= cap exists.
     */
    Time commonPeriod(Time cap) const;

    /**
     * The common grid of the *source* flows only (sender emission
     * gaps), ignoring derived flows. This is what devices quantize
     * their own cadence to (NicPort snaps ITR windows onto it) so the
     * full commonPeriod() stays small. Time() when any live source
     * flow is unsteady, none exist, or the LCM exceeds @p cap.
     */
    Time sourcePeriod(Time cap = Time::ms(1)) const;

    /**
     * The simulation clock jumped forward by @p delta (a fluid warp):
     * shift every flow's last-send instant so the next onSend() still
     * measures the true grid gap instead of a warp-length outlier.
     */
    void warpBy(Time delta);

    /**
     * lcm(@p acc, @p gap) if it is at most @p cap, else Time() (also
     * for a @p gap that is not positive); an empty fold (@p acc =
     * Time()) yields @p gap under the same cap. Divides by the gcd and
     * compares against cap / gap before it multiplies, so grids whose
     * LCM would overflow int64 picoseconds read as over the cap
     * instead of wrapping back under it.
     */
    static Time boundedLcm(Time acc, Time gap, Time cap);

    /** Transitions observed, by kind (for tests and reports). */
    std::uint64_t transitions(FluidTransition t) const;
    std::uint64_t totalTransitions() const;

    /**
     * Brute-force helper for tests and closed-form validation: the
     * number of grid sends a steady flow with gap @p gap and last send
     * at @p last emits in the half-open interval (@p last, @p until].
     */
    static std::uint64_t gridSendsUntil(Time last, Time gap, Time until);

  private:
    struct Flow
    {
        std::string name;
        Time last_send;
        Time gap;                 ///< last observed inter-send gap
        unsigned equal_gaps = 0;  ///< consecutive gaps equal to gap
        unsigned hold = 0;        ///< gaps still to observe post-transition
        FlowKind kind = FlowKind::Source;
        bool has_send = false;
        bool ended = false;       ///< stream stopped; excluded from steady
    };

    std::vector<Flow> flows_;
    std::uint64_t by_kind_[std::size_t(FluidTransition::Count)] = {};
};

/**
 * The ledger of the island executing on the calling thread; null
 * outside a run and whenever fluid is off (one load + branch per
 * report site, all off the steady-state fast path). sim::ShardEngine
 * installs an island's ledger (ShardEngine::setIslandLedger) around
 * everything that island executes, so every datapath send and
 * transition lands in the ledger of the island owning the component,
 * and concurrent testbeds (sweep workers, parallel islands) never
 * share one. Components re-resolve it on every call and cache only
 * their flow id. Reports made outside a run (testbed construction,
 * stream start) are not observed: a flow registers at its first send
 * inside a run.
 */
FlowLedger *fluidLedger();

/** RAII guard: @p l is the calling thread's ledger for a scope. */
class ThreadLedgerScope
{
  public:
    explicit ThreadLedgerScope(FlowLedger *l);
    ~ThreadLedgerScope();
    ThreadLedgerScope(const ThreadLedgerScope &) = delete;
    ThreadLedgerScope &operator=(const ThreadLedgerScope &) = delete;

  private:
    FlowLedger *prev_;
};

/** Report a non-flow-attributable transition to the installed ledger
 *  (no-op when none is installed). */
inline void
fluidTransitionAll(FluidTransition t)
{
    if (FlowLedger *l = fluidLedger())
        l->transitionAll(t);
}

/** Aggregate accounting of fluid segments (per testbed, for sidecars). */
struct FluidStats
{
    std::uint64_t segments = 0;        ///< successful warps
    std::uint64_t probes = 0;          ///< verification attempts
    std::uint64_t rejected = 0;        ///< probes that failed to verify
    std::uint64_t periods_warped = 0;  ///< sum of n over all segments
    Time warped;                       ///< simulated time skipped
    std::uint64_t events_elided = 0;   ///< estimated events not executed
};

} // namespace sriov::sim

#endif // SRIOV_SIM_FLUID_HPP
