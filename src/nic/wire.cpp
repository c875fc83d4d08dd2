#include "nic/wire.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::nic {

Wire::Wire(sim::EventQueue &eq, Params p)
    : params_(p), thin_(eq.thin()), eq_side_{&eq, &eq}
{
    if (params_.line_bps <= 0)
        sim::fatal("wire: bad line rate");
}

Wire::Wire(sim::EventQueue &eq) : Wire(eq, Params{}) {}

Wire::Wire(sim::EventQueue &eq_a, sim::EventQueue &eq_b,
           sim::ShardEngine &engine, unsigned island_a, unsigned island_b,
           Params p)
    : params_(p), thin_(eq_a.thin()), sharded_(true),
      eq_side_{&eq_a, &eq_b}
{
    if (params_.line_bps <= 0)
        sim::fatal("wire: bad line rate");
    if (params_.propagation <= sim::Time())
        sim::fatal("wire: sharded wire needs positive propagation "
                   "(it is the engine lookahead)");
    // The channel grows with its occupancy, which the TX drop bound
    // caps: at most kTxQueueCap un-started frames, plus the started
    // ones still within one serialization + propagation of delivery.
    for (unsigned d = 0; d < 2; ++d) {
        dirs_[d].chan = std::make_unique<sim::ShardChannel<ShardMsg>>();
        dirs_[d].ref = DirRef{this, d};
        dirs_[d].chan->onDeliver(&Wire::deliverShard, &dirs_[d].ref);
    }
    engine.connect(*dirs_[0].chan, island_a, island_b,
                   params_.propagation);
    engine.connect(*dirs_[1].chan, island_b, island_a,
                   params_.propagation);
}

void
Wire::connect(WireEndpoint &a, WireEndpoint &b)
{
    end_a_ = &a;
    end_b_ = &b;
    dirs_[0].to = &b;    // a -> b
    dirs_[1].to = &a;    // b -> a
}

void
Wire::fluidVisit(sim::FluidVisitor &v)
{
    for (unsigned dir = 0; dir < 2; ++dir) {
        Direction &d = dirs_[dir];
        offered_[dir].fluidVisit(v, "wire.offered");
        dropped_[dir].fluidVisit(v, "wire.dropped");
        delivered_[dir].fluidVisit(v, "wire.delivered");
        v.time("wire.line_free_at", d.line_free_at);
        v.inv("wire.drain_armed", d.drain_armed ? 1 : 0);
        v.inv("wire.busy", d.busy ? 1 : 0);
        v.inv("wire.q", d.q.size());
        for (std::size_t i = 0; i < d.q.size(); ++i)
            fluidVisitPacket(v, "wire.q_pkt", d.q[i]);
        v.inv("wire.fl", d.fl.size());
        for (std::size_t i = 0; i < d.fl.size(); ++i) {
            InFlight &f = d.fl[i];
            fluidVisitPacket(v, "wire.fl_pkt", f.pkt);
            v.time("wire.fl_deliver", f.deliver_at);
        }
        v.inv("wire.starts", d.starts.size());
        for (std::size_t i = 0; i < d.starts.size(); ++i)
            v.time("wire.start", d.starts[i]);
        if (d.chan != nullptr) {
            // Cross-island channel contents. Only legal at a quiescent
            // barrier (no producer/consumer running): each in-flight
            // message's due instant is a time-point slot — a steady
            // flow's channel population is periodic, so occupancy is
            // invariant and every due shifts by exactly one period —
            // and its frame aligns by FIFO position like any ring.
            const std::size_t n = d.chan->pendingCount();
            v.inv("wire.chan", n);
            for (std::size_t i = 0; i < n; ++i) {
                auto &e = d.chan->pendingEntry(i);
                v.i64("wire.chan_due", e.due_ps);
                fluidVisitPacket(v, "wire.chan_pkt", e.payload.pkt);
            }
        }
    }
}

unsigned
Wire::dirOf(WireEndpoint &from) const
{
    if (&from == end_a_)
        return 0;
    if (&from == end_b_)
        return 1;
    sim::panic("wire: send from unconnected endpoint");
}

// simlint: hot
bool
Wire::send(WireEndpoint &from, const Packet &pkt)
{
    const unsigned dir = dirOf(from);
    if (thin_)
        return sendAt(from, pkt, senderEq(dir).now());

    Direction &d = dirs_[dir];
    offered_[dir].inc();
    if (d.q.size() >= kTxQueueCap) {
        dropped_[dir].inc();
        return false;
    }
    // RingBuf grows only to the burst high-water mark at warm-up;
    // steady state is a masked store (the bench operator-new gate
    // enforces zero allocs at runtime; this makes the waiver explicit).
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    d.q.push_back(pkt);
    if (!d.busy)
        startNext(dir);
    return true;
}

// simlint: hot
bool
Wire::sendAt(WireEndpoint &from, const Packet &pkt, sim::Time release)
{
    unsigned dir = dirOf(from);
    if (!thin_) {
        // Exact mode has no early hand-over; callers there invoke
        // send() at the release instant instead.
        if (release != senderEq(dir).now())
            sim::panic("wire: sendAt in exact mode");
        return send(from, pkt);
    }
    sim::Time due;
    if (!admit(dir, pkt, release, &due))
        return false;
    if (sharded_) {
        pushShard(dir, pkt, due);
        return true;
    }
    Direction &d = dirs_[dir];
    // RingBuf grows only to the burst high-water mark at warm-up;
    // steady state is a masked store (the bench operator-new gate
    // enforces zero allocs at runtime; this makes the waiver explicit).
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    d.fl.push_back(InFlight{pkt, due});
    if (!d.drain_armed) {
        d.drain_armed = true;
        senderEq(dir).scheduleAt(due, [this, dir]() { drain(dir); },
                                 "wire.burst");
    }
    return true;
}

// simlint: hot
bool
Wire::admit(unsigned dir, const Packet &pkt, sim::Time release,
            sim::Time *due)
{
    Direction &d = dirs_[dir];
    offered_[dir].inc();

    // TX-queue occupancy as of `release`: accepted frames whose
    // serialization has not started by then. Releases are monotone per
    // direction, so start instants at or before `release` can never
    // count against a later check either — prune them.
    while (!d.starts.empty() && d.starts.front() <= release)
        d.starts.pop_front();
    if (d.starts.size() >= kTxQueueCap) {
        dropped_[dir].inc();
        return false;
    }

    sim::Time start = std::max(d.line_free_at, release);
    sim::Time ser =
        sim::Time::transfer(double(pkt.wireBytes()) * 8.0, params_.line_bps);
    d.line_free_at = start + ser;
    // Future-valued stamp: `start` is the instant exact mode's
    // startNext() would run, so the recorded time is mode-invariant.
    if (pt_side_[dir])
        pt_side_[dir]->record(pt_comp_side_[dir], obs::PathStage::WireTx,
                              pkt.trace_id, start);
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    d.starts.push_back(start);
    *due = d.line_free_at + params_.propagation;
    return true;
}

// simlint: hot
void
Wire::pushShard(unsigned dir, const Packet &pkt, sim::Time due)
{
    // The conservative-sync contract: nothing may cross an island
    // boundary due earlier than the sender's current instant plus the
    // edge lookahead (here: the propagation delay). A violation would
    // silently corrupt the parallel schedule, so it is fatal, not a
    // drop. Holds by construction: due = start + ser + prop and
    // start >= release >= now().
    if (due < senderEq(dir).now() + params_.propagation)
        sim::panic("wire: cross-shard send violates lookahead "
                   "(due %s < now %s + propagation)",
                   due.toString().c_str(),
                   senderEq(dir).now().toString().c_str());
    dirs_[dir].chan->push(due, ShardMsg{pkt});
}

// simlint: fluid-settle
void
Wire::deliverShard(void *ctx, sim::Time due, const ShardMsg &msg)
{
    // Runs on the *receiving* island's thread with that island's clock
    // already advanced to `due` by the engine.
    auto *r = static_cast<const DirRef *>(ctx);
    Wire &w = *r->wire;
    const unsigned dir = r->dir;
    const unsigned rx = dir ^ 1u;    // receiver side of direction dir
    w.delivered_[dir].inc();
    if (sim::FlowLedger *l = sim::fluidLedger()) {
        // The edge traffic pattern as a steadiness certificate input:
        // a steady sender's analytic delivery instants are themselves
        // exactly periodic, so each cross-island stream registers as a
        // Source flow on the *receiving* island's ledger — the island
        // that never sees the sender directly still locks its device
        // cadence (ITR windows) onto the arrival grid, and the global
        // hyperperiod covers the edge period by construction.
        Direction &d = w.dirs_[dir];
        const std::uint64_t key =
            (std::uint64_t(msg.pkt.kind) << 32) | msg.pkt.flow;
        int id = -1;
        for (const auto &[k, fid] : d.rx_flows) {
            if (k == key) {
                id = fid;
                break;
            }
        }
        if (id < 0) {
            // simlint:allow(hot-path-alloc): first frame of a stream only
            id = int(l->addFlow("wire.rx-" + std::to_string(key),
                                sim::FlowKind::Source));
            d.rx_flows.emplace_back(key, id);
        }
        l->onSend(unsigned(id), due);
    }
    if (w.pt_side_[rx])
        w.pt_side_[rx]->record(w.pt_comp_side_[rx],
                               obs::PathStage::WireRx,
                               msg.pkt.trace_id, due);
    w.dirs_[dir].to->receive(msg.pkt);
}

// simlint: hot
void
Wire::drain(unsigned dir)
{
    Direction &d = dirs_[dir];
    sim::EventQueue &eq = senderEq(dir);
    // Deliver everything due (deliver_at is monotone per direction);
    // receive() may reentrantly append, which lands at the back.
    while (!d.fl.empty() && d.fl.front().deliver_at <= eq.now()) {
        Packet pkt = std::move(d.fl.front().pkt);
        d.fl.pop_front();
        delivered_[dir].inc();
        if (pt_side_[dir ^ 1u])
            pt_side_[dir ^ 1u]->record(pt_comp_side_[dir ^ 1u],
                                       obs::PathStage::WireRx,
                                       pkt.trace_id, eq.now());
        d.to->receive(pkt);
    }
    if (!d.fl.empty()) {
        eq.scheduleAt(d.fl.front().deliver_at,
                      [this, dir]() { drain(dir); }, "wire.burst");
    } else {
        d.drain_armed = false;
    }
}

// simlint: hot
void
Wire::startNext(unsigned dir)
{
    Direction &d = dirs_[dir];
    if (d.q.empty()) {
        d.busy = false;
        return;
    }
    d.busy = true;
    Packet pkt = std::move(d.q.front());
    d.q.pop_front();
    sim::EventQueue &eq = senderEq(dir);
    if (pt_side_[dir])
        pt_side_[dir]->record(pt_comp_side_[dir], obs::PathStage::WireTx,
                              pkt.trace_id, eq.now());
    sim::Time ser =
        sim::Time::transfer(double(pkt.wireBytes()) * 8.0, params_.line_bps);
    // The receiver sees the frame after serialization + propagation;
    // the line is free for the next frame after serialization alone.
    // Sharded exact mode hands the frame to the channel at
    // serialization end — propagation is exactly the lookahead the
    // engine was registered with, so the push always clears the guard.
    eq.scheduleIn(ser, [this, dir, pkt = std::move(pkt)]() mutable {
        if (sharded_) {
            pushShard(dir, pkt,
                      senderEq(dir).now() + params_.propagation);
        } else {
            sim::EventQueue &deq = senderEq(dir);
            deq.scheduleIn(params_.propagation,
                           [this, dir, pkt = std::move(pkt)]() {
                delivered_[dir].inc();
                if (pt_side_[dir ^ 1u])
                    pt_side_[dir ^ 1u]->record(
                        pt_comp_side_[dir ^ 1u], obs::PathStage::WireRx,
                        pkt.trace_id, senderEq(dir).now());
                dirs_[dir].to->receive(pkt);
            }, "wire.deliver");
        }
        startNext(dir);
    }, "wire.serialized");
}

} // namespace sriov::nic
