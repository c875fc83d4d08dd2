/**
 * @file
 * CpuServer: a FIFO work-conserving server modelling one hardware
 * thread (SMT context) of the testbed machine.
 *
 * All CPU consumption in the simulation — guest packet processing,
 * hypervisor VM-exit handling, device-model emulation, netback packet
 * copies — is expressed as work items submitted to a CpuServer. The
 * server executes items one at a time at its clock rate, so saturation
 * (e.g. the single-threaded netback of Section 6.5) appears naturally
 * as queueing delay, and per-component CPU utilization is simply the
 * accumulated busy time of the servers a component runs on.
 *
 * Work is attributed to string tags ("guest", "xen", "dom0", ...) so
 * benches can report the same breakdowns the paper's figures use.
 */

#ifndef SRIOV_SIM_CPU_SERVER_HPP
#define SRIOV_SIM_CPU_SERVER_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/ring_buf.hpp"
#include "sim/time.hpp"

namespace sriov::sim {

/** Snapshot of a server's cycle accounting, for windowed utilization. */
struct CpuSnapshot
{
    Time busy;
    Time when;
    std::map<std::string, double> cycles_by_tag;
};

class CpuServer
{
  public:
    /**
     * Observation tap for executed work spans (obs::ChromeTraceWriter
     * draws them as per-CPU track slices). Called at work completion
     * with the service interval [start, end]; charge()-d work is
     * instantaneous and produces no span. One tap per server; the tap
     * must outlive the server or be detached first. Disabled cost: one
     * branch per completed work item.
     */
    class SpanTap
    {
      public:
        virtual ~SpanTap() = default;

        virtual void onCpuSpan(const CpuServer &cpu, const std::string &tag,
                               Time start, Time end) = 0;
    };

    CpuServer(EventQueue &eq, std::string name, double hz);

    CpuServer(const CpuServer &) = delete;
    CpuServer &operator=(const CpuServer &) = delete;

    const std::string &name() const { return name_; }
    double hz() const { return hz_; }

    /**
     * Submit @p cycles of work attributed to @p tag. @p on_done (may be
     * empty) runs when the work completes, i.e. after queueing plus
     * service time.
     */
    void submit(double cycles, std::string_view tag,
                InplaceFn on_done = {});

    /**
     * Account @p cycles as consumed instantly (no serialization, no
     * completion latency). Used for fine-grained costs that are small
     * relative to the event granularity, where modelling queueing would
     * add nothing but events.
     */
    void charge(double cycles, std::string_view tag);

    /** Number of work items waiting (excluding the one in service). */
    std::size_t queueDepth() const { return queue_.size(); }
    bool busyNow() const { return in_service_; }

    /** Cumulative busy time since construction. */
    Time busyTime() const { return busy_; }

    CpuSnapshot snapshot() const;

    /**
     * Utilization in [0,1] over the window between @p before and now.
     * Greater than 1 is impossible for submit()-ed work but charge()-d
     * work can oversubscribe; callers treat >1 as saturation.
     */
    double utilizationSince(const CpuSnapshot &before) const;

    /** Cycles consumed under @p tag since @p before. */
    double cyclesSince(const CpuSnapshot &before,
                       const std::string &tag) const;

    void setSpanTap(SpanTap *t) { span_tap_ = t; }
    SpanTap *spanTap() const { return span_tap_; }

    /** Fluid-mode state walk (sim/fluid.hpp): busy time and per-tag
     *  cycles are linear per period; in-flight work is phase-invariant. */
    void fluidVisit(FluidVisitor &v);

    /**
     * Is any queued or in-service item attributed to one of the @p n
     * @p tags? A fluid warp shifts every visited time-point but cannot
     * rewrite values captured inside completion closures, so the warp
     * coordinator refuses to warp while work whose closure captures
     * per-packet data (netback's grant-copy batches) is in flight.
     */
    bool hasWorkTagged(const char *const *tags, std::size_t n) const;

  private:
    struct Work
    {
        double cycles;
        std::string tag;
        InplaceFn on_done;
        Time start;
    };

    void startNext();
    void finishCurrent();
    /** Accumulator cell for @p tag (creates it on first use). */
    double &tagCycles(std::string_view tag);

    EventQueue &eq_;
    std::string name_;
    double hz_;
    RingBuf<Work> queue_;
    /**
     * The item in service. Kept as a member so the completion event
     * captures only `this` (8 bytes inline in InplaceFn) instead of
     * moving the tag string and completion closure into the event —
     * the server is strictly FIFO, so at most one item is in service.
     */
    Work current_;
    bool in_service_ = false;
    Time busy_;
    /**
     * Per-tag cycle accounting. A server sees a handful of distinct
     * tags over a whole run, but charges one on every packet — a flat
     * array scanned linearly (plus a last-hit cache, since bursts
     * charge the same tag repeatedly) beats a std::map node walk.
     * snapshot() converts to a map on the cold query path.
     */
    std::vector<std::pair<std::string, double>> cycles_by_tag_;
    std::size_t last_tag_idx_ = 0;
    SpanTap *span_tap_ = nullptr;
};

} // namespace sriov::sim

#endif // SRIOV_SIM_CPU_SERVER_HPP
