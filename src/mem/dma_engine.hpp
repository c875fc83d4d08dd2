/**
 * @file
 * DmaEngine: a PCIe link as a FIFO bandwidth server.
 *
 * Each NIC hangs off one link. A transfer costs a fixed per-DMA
 * overhead (descriptor fetch, doorbell, TLP framing) plus payload time
 * at the link's effective data rate. Inter-VM traffic on an SR-IOV
 * port crosses the link twice (memory → NIC FIFO → memory), which is
 * what caps it near 2.8 Gb/s in paper Section 6.3.
 *
 * Thin mode (the queue's default, sim::EventQueue::thin()): the FIFO is
 * strict and service times are deterministic, so each transfer's
 * completion instant is known at submit time — the completion callback is
 * scheduled directly at that instant (one event per transfer, no
 * start/finish bookkeeping events), and reserve() exposes the instant
 * to callers that can settle their own accounting analytically and
 * need no completion event at all. Exact mode (--no-thin) keeps the
 * reference one-transfer-in-service implementation.
 */

#ifndef SRIOV_MEM_DMA_ENGINE_HPP
#define SRIOV_MEM_DMA_ENGINE_HPP

#include <cstdint>
#include <string>

#include "obs/pathtrace.hpp"
#include "sim/event_queue.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/ring_buf.hpp"
#include "sim/stats.hpp"

namespace sriov::mem {

class DmaEngine
{
  public:
    struct Params
    {
        /**
         * Effective payload rate of the link in bits/s. Default models
         * a PCIe Gen1 x4 port (82576) after TLP overhead: ~6.7 Gb/s.
         */
        double link_bps = 6.7e9;
        /** Fixed per-transfer cost (descriptor + doorbell latency). */
        sim::Time per_dma_overhead = sim::Time::ns(940);
    };

    DmaEngine(sim::EventQueue &eq, std::string name, Params p);
    DmaEngine(sim::EventQueue &eq, std::string name);

    const std::string &name() const { return name_; }
    const Params &params() const { return params_; }

    /**
     * Queue a transfer of @p bytes; @p on_done fires when the payload
     * has fully crossed the link.
     */
    void transfer(std::uint64_t bytes, sim::InplaceFn on_done);

    /**
     * transfer() that also stamps the path tracer for packet
     * @p trace_id with @p stage at the completion instant — the same
     * simulated time in thin and exact mode, so attribution stays
     * mode-invariant.
     */
    void transfer(std::uint64_t bytes, std::uint64_t trace_id,
                  obs::PathStage stage, sim::InplaceFn on_done);

    /**
     * Thin-mode only: account a transfer of @p bytes and return its
     * completion instant without scheduling any event. The caller owns
     * making every externally visible effect appear at the returned
     * time (ledgers settled on read, timed hand-over to the wire).
     */
    sim::Time reserve(std::uint64_t bytes);

    /** reserve() that stamps the tracer at the returned instant. */
    sim::Time reserve(std::uint64_t bytes, std::uint64_t trace_id,
                      obs::PathStage stage);

    /** Attach the path tracer; DMA completions stamp @p comp. */
    void
    setPathTracer(obs::PathTracer *pt, std::uint16_t comp)
    {
        pt_ = pt;
        pt_comp_ = comp;
    }

    /** Is the analytic path active (reserve() usable)? */
    bool thin() const { return thin_; }

    /** Time one transfer of @p bytes takes in isolation. */
    sim::Time serviceTime(std::uint64_t bytes) const;

    std::uint64_t bytesMoved() const { return bytes_moved_.value(); }
    std::uint64_t transfers() const { return transfers_.value(); }
    sim::Time busyTime() const { return busy_; }
    /** Transfers waiting behind the one in service. */
    std::size_t queueDepth() const;

    /** Fluid-mode state walk (sim/fluid.hpp): totals and the link
     *  busy-until horizon are linear per period; queued work aligns
     *  slot-wise by FIFO position. */
    void fluidVisit(sim::FluidVisitor &v);

  private:
    struct Xfer
    {
        std::uint64_t bytes;
        sim::InplaceFn on_done;
        std::uint64_t trace_id = 0;
        obs::PathStage stage = obs::PathStage::Count;
    };

    void startNext();
    void finishCurrent();

    sim::EventQueue &eq_;
    std::string name_;
    Params params_;
    bool thin_;
    sim::RingBuf<Xfer> queue_;
    /**
     * Completion of the transfer in service. Kept as a member so the
     * completion event captures only `this` (inline in the event slot)
     * instead of moving the closure into the event; the link is
     * strictly FIFO, so at most one transfer is in service.
     */
    sim::InplaceFn current_done_;
    std::uint64_t current_trace_ = 0;
    obs::PathStage current_stage_ = obs::PathStage::Count;
    bool in_service_ = false;
    obs::PathTracer *pt_ = nullptr;
    std::uint16_t pt_comp_ = 0;
    /** Thin mode: when the link frees up after all accepted work. */
    sim::Time free_at_;
    /**
     * Thin mode: start instants of accepted transfers, pending until
     * their start passes — queueDepth() counts the un-started suffix
     * and lazily pops the settled prefix (hence mutable).
     */
    mutable sim::RingBuf<sim::Time> starts_;
    sim::Time busy_;
    sim::Counter bytes_moved_;
    sim::Counter transfers_;
};

} // namespace sriov::mem

#endif // SRIOV_MEM_DMA_ENGINE_HPP
