/**
 * @file
 * InvariantChecker: runtime enforcement of simulator invariants.
 *
 * The paper's figures hinge on precise interrupt/DMA event ordering; a
 * stale-event or tie-break bug in the event queue silently corrupts
 * every reproduced curve. The checker hooks into the EventQueue (as
 * its Observer) and polls registered components (descriptor rings, L2
 * switches, wires, LAPICs, the interrupt router) for invariants that
 * must hold at any instant:
 *
 *  - no event is scheduled in the past and now() never moves backward;
 *  - no events leak past the end of a run-to-quiescence experiment;
 *  - descriptor-ring head/tail accounting: posted == consumed +
 *    discarded + available, available <= capacity;
 *  - packet conservation on wires: offered == delivered + dropped +
 *    in-flight (and in-flight == 0 at quiescence);
 *  - L2 switch lookup accounting: lookups == matched + unmatched;
 *  - no MSI delivery from a function whose vector is masked/disabled;
 *  - no EOI without an in-service vector.
 *
 * Violations are collected (not fatal) so negative tests can assert
 * them; report() renders all violations plus the attached path
 * tracer's flight-recorder dump for post-mortem context.
 */

#ifndef SRIOV_CHECK_INVARIANT_CHECKER_HPP
#define SRIOV_CHECK_INVARIANT_CHECKER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "intr/interrupt_router.hpp"
#include "intr/lapic.hpp"
#include "nic/desc_ring.hpp"
#include "nic/l2_switch.hpp"
#include "nic/wire.hpp"
#include "obs/pathtrace.hpp"
#include "pci/function.hpp"
#include "sim/event_queue.hpp"

namespace sriov::check {

enum class Invariant : unsigned
{
    SchedulePast = 0,   ///< scheduleAt() with when < now()
    TimeRegression,     ///< an event executed before the current time
    EventLeak,          ///< live events left at expectQuiesced()
    RingAccounting,     ///< posted != consumed + discarded + available
    RingOverflow,       ///< drops on a ring watched as must-not-drop
    PacketConservation, ///< wire offered != delivered + dropped + flight
    SwitchAccounting,   ///< lookups != matched + unmatched
    MaskedDelivery,     ///< MSI reached the router from a masked vector
    SpuriousEoi,        ///< EOI with no in-service vector
    Count,
};

const char *invariantName(Invariant inv);

struct Violation
{
    Invariant inv;
    sim::Time when;     ///< queue time at detection
    std::string detail;

    std::string toString() const;
};

class InvariantChecker : public sim::EventQueue::Observer
{
  public:
    /** Installs itself as @p eq's observer. */
    explicit InvariantChecker(sim::EventQueue &eq);
    ~InvariantChecker() override;

    InvariantChecker(const InvariantChecker &) = delete;
    InvariantChecker &operator=(const InvariantChecker &) = delete;

    /** @name Component registration. @{ */
    void watchRing(std::string name, const nic::DescRing &ring,
                   bool must_not_drop = false);
    void watchWire(std::string name, const nic::Wire &wire);
    void watchSwitch(std::string name, const nic::L2Switch &sw);
    void watchLapic(std::string name, const intr::Lapic &lapic);
    /** Installs the router's delivery tap (one checker per router). */
    void watchRouter(intr::InterruptRouter &router);
    /** Functions whose mask state the router tap validates, by RID. */
    void watchFunction(const pci::PciFunction &fn);
    /** Must be called before a watched function is destroyed (VFs on
     *  VF-disable, hot-unplug). */
    void unwatchFunction(const pci::PciFunction &fn);
    /** Flight recorder: report() appends @p pt's sampled packet
     *  trails and stage attribution for post-mortem context. */
    void attachPathTracer(const obs::PathTracer *pt) { pathtrace_ = pt; }
    /** @} */

    /** Poll every watched component's instantaneous invariants. */
    void checkNow();

    /**
     * End of a run-to-quiescence experiment: checkNow() plus event
     * leaks and wire in-flight emptiness. Not for deadline-bounded
     * runs, which legitimately leave periodic timers live.
     */
    void expectQuiesced();

    bool ok() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const { return violations_; }
    std::size_t count(Invariant inv) const;
    /** All violations plus the flight-recorder dump, for post-mortem. */
    std::string report() const;
    void clearViolations() { violations_.clear(); }

    /** sim::EventQueue::Observer */
    void onSchedulePast(sim::Time when, sim::Time now) override;
    void onExecute(sim::Time when, sim::Time now, std::uint64_t seq,
                   const char *tag) override;

  private:
    struct WatchedRing
    {
        std::string name;
        const nic::DescRing *ring;
        bool must_not_drop;
        std::uint64_t seen_overflows = 0;
    };

    struct WatchedWire
    {
        std::string name;
        const nic::Wire *wire;
    };

    struct WatchedSwitch
    {
        std::string name;
        const nic::L2Switch *sw;
    };

    struct WatchedLapic
    {
        std::string name;
        const intr::Lapic *lapic;
        std::uint64_t seen_spurious = 0;
    };

    void violate(Invariant inv, std::string detail);
    void onRouterDelivery(pci::Rid source, const pci::MsiMessage &msg);
    void checkRing(WatchedRing &w);
    void checkWire(const WatchedWire &w, bool quiesced);
    void checkSwitch(const WatchedSwitch &w);
    void checkLapic(WatchedLapic &w);

    sim::EventQueue &eq_;
    std::vector<WatchedRing> rings_;
    std::vector<WatchedWire> wires_;
    std::vector<WatchedSwitch> switches_;
    std::vector<WatchedLapic> lapics_;
    std::vector<const pci::PciFunction *> functions_;
    std::vector<Violation> violations_;
    const obs::PathTracer *pathtrace_ = nullptr;
};

} // namespace sriov::check

#endif // SRIOV_CHECK_INVARIANT_CHECKER_HPP
