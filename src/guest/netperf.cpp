#include "guest/netperf.hpp"

#include <algorithm>
#include <string>

#include "sim/fluid.hpp"
#include "sim/log.hpp"

namespace sriov::guest {

UdpStreamSender::UdpStreamSender(sim::EventQueue &eq, NetStack &stack,
                                 nic::MacAddr dst, double offered_bps,
                                 std::uint32_t payload, std::uint32_t flow)
    : eq_(eq), stack_(stack), dst_(dst), offered_bps_(offered_bps),
      payload_(payload), flow_(flow)
{
    if (offered_bps <= 0)
        sim::fatal("UdpStreamSender: non-positive offered load");
    recomputeGap();
}

void
UdpStreamSender::recomputeGap()
{
    nic::Packet probe;
    probe.bytes = nic::frame::udpFrame(payload_);
    double wire_bits = double(probe.wireBytes()) * 8.0;
    gap_ = sim::Time::transfer(wire_bits, offered_bps_);
}

void
UdpStreamSender::start()
{
    if (running_)
        return;
    running_ = true;
    emit();
}

// simlint: fluid-settle
void
UdpStreamSender::stop()
{
    running_ = false;
    if (sim::FlowLedger *l = sim::fluidLedger();
        l != nullptr && fluid_flow_ >= 0) {
        l->transition(unsigned(fluid_flow_),
                      sim::FluidTransition::RateChange);
        l->endFlow(unsigned(fluid_flow_));
    }
}

// simlint: fluid-settle
void
UdpStreamSender::setOfferedBps(double bps)
{
    offered_bps_ = bps;
    recomputeGap();
    if (sim::FlowLedger *l = sim::fluidLedger();
        l != nullptr && fluid_flow_ >= 0)
        l->transition(unsigned(fluid_flow_),
                      sim::FluidTransition::RateChange);
}

// simlint: fluid-settle
void
UdpStreamSender::emit()
{
    if (!running_)
        return;
    stack_.sendUdp(dst_, payload_, flow_);
    sent_bytes_ += payload_;
    sent_packets_.inc();
    if (sim::FlowLedger *l = sim::fluidLedger()) {
        // Lazy registration: the island's ledger is only installed
        // while the island runs, so the first send it observes claims
        // the flow id.
        if (fluid_flow_ < 0)
            fluid_flow_ =
                int(l->addFlow("udp-" + std::to_string(flow_)));
        l->onSend(unsigned(fluid_flow_), eq_.now());
    }
    eq_.scheduleIn(gap_, [this]() { emit(); }, "netperf.emit");
}

TcpStreamSender::TcpStreamSender(sim::EventQueue &eq, NetStack &stack,
                                 nic::MacAddr dst,
                                 std::uint32_t window_bytes,
                                 std::uint32_t payload, std::uint32_t flow)
    : eq_(eq), stack_(stack), dst_(dst), window_(window_bytes),
      payload_(payload), flow_(flow), thin_(eq.thin()),
      rto_timer_(eq, "netperf.rto")
{
    stack_.setAckListener([this](std::uint64_t cum) { onAck(cum); });
    rto_timer_.setCallback([this]() { onRto(); });
}

void
TcpStreamSender::start()
{
    if (running_)
        return;
    running_ = true;
    rto_origin_ = eq_.now();
    pump();
    armRto();
}

// simlint: fluid-settle
void
TcpStreamSender::stop()
{
    running_ = false;
    rto_timer_.disarm();
    if (sim::FlowLedger *l = sim::fluidLedger();
        l != nullptr && fluid_flow_ >= 0) {
        l->transition(unsigned(fluid_flow_),
                      sim::FluidTransition::RateChange);
        l->endFlow(unsigned(fluid_flow_));
    }
}

/** First grid point origin + k*kRto strictly after now. */
sim::Time
TcpStreamSender::nextRtoDeadline() const
{
    std::int64_t elapsed = (eq_.now() - rto_origin_).picos();
    std::int64_t period = kRto.picos();
    std::int64_t k = elapsed / period + 1;
    return rto_origin_ + kRto * k;
}

void
TcpStreamSender::armRto()
{
    if (!running_)
        return;
    if (thin_) {
        // Deadline-deferred: the timer only runs while data is
        // outstanding. Skipped grid points are no-ops in the exact
        // model too — with nothing in flight no ACK can arrive, so
        // acked_ (and hence acked_at_last_rto_) cannot change.
        if (next_seq_ > acked_ && !rto_timer_.armed()) {
            acked_at_last_rto_ = acked_;
            rto_timer_.armAt(nextRtoDeadline());
        }
        return;
    }
    eq_.scheduleIn(kRto, [this]() {
        if (!running_)
            return;
        onRto();
        armRto();
    }, "netperf.rto");
}

// simlint: fluid-settle
void
TcpStreamSender::onRto()
{
    bool outstanding = next_seq_ > acked_;
    bool stalled = acked_ == acked_at_last_rto_;
    if (outstanding && stalled) {
        // Go-back-N: rewind to the last acknowledged byte. The
        // rewound bytes will be re-sent, so their pending RTT
        // samples are ambiguous (Karn) — drop them.
        if (sim::FlowLedger *l = sim::fluidLedger();
            l != nullptr && fluid_flow_ >= 0)
            l->transition(unsigned(fluid_flow_),
                          sim::FluidTransition::Rto);
        retx_.inc();
        next_seq_ = acked_;
        sent_times_.clear();
        pump();
    }
    acked_at_last_rto_ = acked_;
    if (thin_ && running_ && next_seq_ > acked_)
        rto_timer_.armAt(nextRtoDeadline());
}

// simlint: fluid-settle
void
TcpStreamSender::pump()
{
    if (!running_)
        return;
    while (next_seq_ - acked_ + payload_ <= window_) {
        next_seq_ += payload_;
        if (!stack_.sendTcpSegment(dst_, payload_, flow_, next_seq_)) {
            next_seq_ -= payload_;
            break;
        }
        if (sim::FlowLedger *l = sim::fluidLedger()) {
            if (fluid_flow_ < 0)
                fluid_flow_ =
                    int(l->addFlow("tcp-" + std::to_string(flow_)));
            l->onSend(unsigned(fluid_flow_), eq_.now());
        }
        if (rtt_tap_ != nullptr) {
            // Bound the tracker at the window: a stalled flow stops
            // reclaiming entries, so shed the oldest sample instead of
            // growing for the rest of the run.
            if (sent_times_.size() >= rttTrackerCap())
                sent_times_.pop_front();
            sent_times_.emplace_back(next_seq_, eq_.now());
        }
    }
    if (thin_)
        armRto();    // re-arm after going idle (no-op when armed)
}

void
TcpStreamSender::onAck(std::uint64_t cum)
{
    acked_ = std::max(acked_, cum);
    if (rtt_tap_ != nullptr) {
        while (!sent_times_.empty() && sent_times_.front().first <= cum) {
            sim::Time rtt = eq_.now() - sent_times_.front().second;
            rtt_tap_->record(rtt.toSeconds() * 1e6);
            sent_times_.pop_front();
        }
    }
    pump();
}

StreamReceiver::StreamReceiver(sim::EventQueue &eq, NetStack &stack,
                               Proto proto)
    : eq_(eq), proto_(proto), sample_timer_(eq, "netperf.sample")
{
    auto fn = [this](std::uint64_t bytes, std::size_t pkts) {
        onBytes(bytes, pkts);
    };
    if (proto == Proto::Udp)
        stack.setUdpReceiver(fn);
    else
        stack.setTcpReceiver(fn);
    sample_timer_.setCallback([this]() {
        timeline_.record(eq_.now(), sample_window_.take(eq_.now()));
        sample_timer_.armIn(sample_dt_);
    });
}

void
StreamReceiver::onBytes(std::uint64_t bytes, std::size_t packets)
{
    rx_bytes_ += bytes;
    rx_packets_ += packets;
    window_.add(double(bytes) * 8.0);
    sample_window_.add(double(bytes) * 8.0);
}

double
StreamReceiver::takeThroughputBps()
{
    return window_.take(eq_.now());
}

void
StreamReceiver::sampleEvery(sim::Time dt)
{
    sample_dt_ = dt;
    sample_window_.take(eq_.now());
    sample_timer_.armIn(dt);
}

} // namespace sriov::guest
