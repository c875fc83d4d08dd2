/**
 * @file
 * Outside-in per-layer host-time trace: an EventQueue::ExecHook that
 * brackets every event callback with a steady clock and charges its
 * self time to the event's tag. Tags are grouped into the layer they
 * enter (see layer_map.json for the tag -> ledger-stage map).
 *
 * Installed on tb.eq() or, for a sharded testbed, on every island
 * queue (which makes the shard engine run the islands sequentially on
 * the calling thread, so one hook is never entered concurrently).
 */

#ifndef PERFBENCH_LAYER_TRACE_HPP
#define PERFBENCH_LAYER_TRACE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"

namespace perfbench {

/** The layer an event tag enters. */
enum class TagGroup : unsigned
{
    WireBurst,      ///< "wire.burst": wire, L2, ring take, IOMMU, DMA reserve
    NetperfEmit,    ///< "netperf.emit": the sender's TX path
    CpuDone,        ///< "cpu.done": vmm, guest, drivers, netback work
    NicItr,         ///< "nic.itr": MSI-X raise, router, LAPIC, inject
    DmaDone,        ///< "dma.done": DMA completion
    Fluid,          ///< "fluid.*": FluidDirector probes and polls
    Other,          ///< every other tag (timers, samplers, ...)
    Count,
};

constexpr unsigned kTagGroups = unsigned(TagGroup::Count);

TagGroup groupOfTag(const char *tag);

/** Host nanoseconds and event counts per tag group. */
struct LayerTotals
{
    std::array<double, kTagGroups> ns{};
    std::array<std::uint64_t, kTagGroups> events{};

    double callbackNs() const;
    LayerTotals &operator+=(const LayerTotals &o);
};

class LayerClock final : public sriov::sim::EventQueue::ExecHook
{
  public:
    void onEventStart(sriov::sim::Time, std::uint64_t,
                      const char *) override
    {
        start_ = Clock::now();
    }

    void onEventEnd(sriov::sim::Time, std::uint64_t,
                    const char *tag) override
    {
        const auto dt = Clock::now() - start_;
        Slot &s = slotFor(tag);
        s.ns += std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count());
        ++s.events;
    }

    /** Fold the per-tag slots into per-group totals. */
    LayerTotals totals() const;

  private:
    using Clock = std::chrono::steady_clock;

    struct Slot
    {
        const char *tag = nullptr;
        std::uint64_t ns = 0;
        std::uint64_t events = 0;
    };

    Slot &slotFor(const char *tag);

    Clock::time_point start_;
    /** Tag literals are few; a linear scan behind a last-hit cache is
     *  cheaper than hashing. */
    std::vector<Slot> slots_;
    std::size_t last_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_LAYER_TRACE_HPP
