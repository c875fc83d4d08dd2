#include "mem/dma_engine.hpp"

#include <algorithm>
#include <utility>

#include "sim/log.hpp"

namespace sriov::mem {

DmaEngine::DmaEngine(sim::EventQueue &eq, std::string name, Params p)
    : eq_(eq), name_(std::move(name)), params_(p),
      thin_(eq.thin())
{
    if (params_.link_bps <= 0)
        sim::fatal("DmaEngine %s: bad link rate", name_.c_str());
}

DmaEngine::DmaEngine(sim::EventQueue &eq, std::string name)
    : DmaEngine(eq, std::move(name), Params{})
{
}

sim::Time
DmaEngine::serviceTime(std::uint64_t bytes) const
{
    return params_.per_dma_overhead
        + sim::Time::transfer(double(bytes) * 8.0, params_.link_bps);
}

// simlint: hot
sim::Time
DmaEngine::reserve(std::uint64_t bytes)
{
    if (!thin_)
        sim::panic("DmaEngine %s: reserve() in exact mode", name_.c_str());
    sim::Time start = std::max(free_at_, eq_.now());
    sim::Time t = serviceTime(bytes);
    // Same accounting the exact path does at service start; these
    // totals are only read at quiescence, where both modes agree.
    busy_ += t;
    bytes_moved_.inc(bytes);
    transfers_.inc();
    // Settle the started prefix here too, not just in queueDepth():
    // an RX-only workload never asks for the depth, and the ring must
    // stay bounded by the in-flight high-water mark, not grow by one
    // entry per transfer forever.
    while (!starts_.empty() && starts_.front() <= eq_.now())
        starts_.pop_front();
    // RingBuf grows only to the burst high-water mark at warm-up;
    // steady state is a masked store (the bench operator-new gate
    // enforces zero allocs at runtime; this makes the waiver explicit).
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    starts_.push_back(start);
    free_at_ = start + t;
    return free_at_;
}

// simlint: hot
sim::Time
DmaEngine::reserve(std::uint64_t bytes, std::uint64_t trace_id,
                   obs::PathStage stage)
{
    sim::Time done_at = reserve(bytes);
    if (pt_)
        pt_->record(pt_comp_, stage, trace_id, done_at);
    return done_at;
}

// simlint: hot
void
DmaEngine::transfer(std::uint64_t bytes, std::uint64_t trace_id,
                    obs::PathStage stage, sim::InplaceFn on_done)
{
    if (thin_) {
        sim::Time done_at = reserve(bytes, trace_id, stage);
        eq_.scheduleAt(done_at, std::move(on_done), "dma.done");
        return;
    }
    // Exact mode stamps at completion (finishCurrent), which lands on
    // the same simulated instant thin mode computes analytically.
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    queue_.push_back(Xfer{bytes, std::move(on_done), trace_id, stage});
    if (!in_service_)
        startNext();
}

// simlint: hot
void
DmaEngine::transfer(std::uint64_t bytes, sim::InplaceFn on_done)
{
    if (thin_) {
        sim::Time done_at = reserve(bytes);
        eq_.scheduleAt(done_at, std::move(on_done), "dma.done");
        return;
    }
    // RingBuf grows only to the burst high-water mark at warm-up;
    // steady state is a masked store (the bench operator-new gate
    // enforces zero allocs at runtime; this makes the waiver explicit).
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    queue_.push_back(Xfer{bytes, std::move(on_done)});
    if (!in_service_)
        startNext();
}

void
DmaEngine::fluidVisit(sim::FluidVisitor &v)
{
    bytes_moved_.fluidVisit(v, "dma.bytes");
    transfers_.fluidVisit(v, "dma.xfers");
    v.time("dma.busy", busy_);
    v.time("dma.free_at", free_at_);
    // Settle the started prefix first so the ring's content depends
    // only on the phase, not on when queueDepth() was last asked.
    while (!starts_.empty() && starts_.front() <= eq_.now())
        starts_.pop_front();
    v.inv("dma.starts", starts_.size());
    for (std::size_t i = 0; i < starts_.size(); ++i)
        v.time("dma.start", starts_[i]);
    // Exact-mode FIFO (empty under thinning).
    v.inv("dma.in_service", in_service_ ? 1 : 0);
    if (in_service_) {
        v.u64("dma.cur_trace", current_trace_);
        v.inv("dma.cur_stage", std::uint64_t(current_stage_));
    }
    v.inv("dma.qdepth", queue_.size());
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        v.inv("dma.q_bytes", queue_[i].bytes);
        v.u64("dma.q_trace", queue_[i].trace_id);
    }
}

std::size_t
DmaEngine::queueDepth() const
{
    if (!thin_)
        return queue_.size();
    // Transfers whose service has not begun; settle the started prefix.
    while (!starts_.empty() && starts_.front() <= eq_.now())
        starts_.pop_front();
    return starts_.size();
}

// simlint: hot
void
DmaEngine::startNext()
{
    if (queue_.empty()) {
        in_service_ = false;
        return;
    }
    in_service_ = true;
    Xfer x = std::move(queue_.front());
    queue_.pop_front();
    sim::Time t = serviceTime(x.bytes);
    busy_ += t;
    bytes_moved_.inc(x.bytes);
    transfers_.inc();
    current_done_ = std::move(x.on_done);
    current_trace_ = x.trace_id;
    current_stage_ = x.stage;
    eq_.scheduleIn(t, [this]() { finishCurrent(); }, "dma.done");
}

// simlint: hot
void
DmaEngine::finishCurrent()
{
    // Move the completion out first: it may queue more transfers
    // (reentrancy), and startNext() overwrites current_done_.
    sim::InplaceFn done = std::move(current_done_);
    if (pt_ && current_stage_ != obs::PathStage::Count)
        pt_->record(pt_comp_, current_stage_, current_trace_, eq_.now());
    current_trace_ = 0;
    current_stage_ = obs::PathStage::Count;
    if (done)
        done();
    startNext();
}

} // namespace sriov::mem
