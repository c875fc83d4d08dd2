#include "drivers/vf_driver.hpp"

#include "sim/fluid.hpp"
#include "sim/log.hpp"

namespace sriov::drivers {

VfDriver::VfDriver(guest::GuestKernel &kern, nic::NicPort &nic,
                   nic::Pool pool, Config cfg)
    : kern_(kern), nic_(nic), pool_(pool), cfg_(std::move(cfg)),
      itr_(std::make_unique<StaticItr>(2000)),
      sample_timer_(kern.hv().eq(), "driver.itr_sample")
{
    sample_timer_.setCallback([this]() { onItrSample(); });
}

VfDriver::~VfDriver()
{
    if (up_)
        shutdown();
}

void
VfDriver::setItrPolicy(std::unique_ptr<ItrPolicy> p)
{
    itr_ = std::move(p);
    if (up_)
        nic_.setItr(pool_, itr_->updateHz(0, 0));
}

void
VfDriver::init()
{
    if (up_)
        return;
    pci::PciFunction &fn = nic_.functionOf(pool_);

    // Enable memory decoding + bus mastering through config space.
    std::uint16_t cmd = fn.config().read(pci::cfg::kCommand, 2);
    fn.config().write(pci::cfg::kCommand,
                      cmd | pci::cfg::kCmdMemEnable
                          | pci::cfg::kCmdBusMaster,
                      2);

    // Allocate and post the RX buffers (guest-physical addresses; the
    // IOMMU remaps them at DMA time).
    mem::Addr base =
        kern_.allocBuffer(mem::Addr(cfg_.rx_buffers) * cfg_.buf_bytes);
    auto &ring = nic_.rxRing(pool_);
    for (std::size_t i = 0; i < cfg_.rx_buffers; ++i) {
        if (!ring.post(base + i * cfg_.buf_bytes))
            break;
    }

    kern_.attachDeviceIrq(fn, *this);
    registerMac();
    installPfEventHandler();
    nic_.setItr(pool_, itr_->updateHz(0, 0));
    up_ = true;
    sample_timer_.armIn(cfg_.sample_period);
}

void
VfDriver::installPfEventHandler()
{
    auto *sriov = dynamic_cast<nic::SriovNic *>(&nic_);
    if (!sriov || pool_ == 0)
        return;
    sriov->mailbox(pool_ - 1).to_vf.setDoorbell(
        [this](const nic::MboxMessage &msg) { handlePfEvent(msg); });
}

void
VfDriver::handlePfEvent(const nic::MboxMessage &msg)
{
    // PF -> VF notifications (paper Section 4.2): link changes,
    // impending global reset, impending PF driver removal.
    pf_events_.inc();
    auto *sriov = dynamic_cast<nic::SriovNic *>(&nic_);
    auto &mbox = sriov->mailbox(pool_ - 1).to_vf;
    switch (msg.type) {
      case nic::MboxMessage::Type::LinkChange:
        phys_link_ = msg.payload != 0;
        sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
        break;
      case nic::MboxMessage::Type::PfReset:
      case nic::MboxMessage::Type::PfRemoval:
        // The device under us is going away: quiesce immediately.
        mbox.ack();
        shutdown();
        return;
      default:
        break;
    }
    mbox.ack();
}

void
VfDriver::stopRx()
{
    if (!up_)
        return;
    sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
    kern_.detachDeviceIrq(nic_.functionOf(pool_));
}

void
VfDriver::shutdown()
{
    if (!up_)
        return;
    sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
    up_ = false;
    sample_timer_.disarm();
    pci::PciFunction &fn = nic_.functionOf(pool_);
    kern_.detachDeviceIrq(fn);
    unregisterMac();
    std::uint16_t cmd = fn.config().read(pci::cfg::kCommand, 2);
    fn.config().write(pci::cfg::kCommand,
                      cmd & ~(pci::cfg::kCmdBusMaster
                              | pci::cfg::kCmdMemEnable),
                      2);
    nic_.rxRing(pool_).reset();
}

void
VfDriver::registerMac()
{
    auto *sriov = dynamic_cast<nic::SriovNic *>(&nic_);
    if (sriov && pool_ > 0) {
        // A VF may not program filters itself: ask the PF driver.
        nic::MboxMessage msg;
        msg.type = nic::MboxMessage::Type::SetMac;
        msg.payload = cfg_.mac.value;
        if (!sriov->mailbox(pool_ - 1).to_pf.post(msg))
            sim::warn("%s: mailbox busy during MAC registration",
                      cfg_.name.c_str());
    } else {
        nic_.setPoolFilter(pool_, cfg_.mac);
    }
}

void
VfDriver::unregisterMac()
{
    auto *sriov = dynamic_cast<nic::SriovNic *>(&nic_);
    if (sriov && pool_ > 0) {
        nic::MboxMessage msg;
        msg.type = nic::MboxMessage::Type::Reset;
        msg.payload = 0;
        sriov->mailbox(pool_ - 1).to_pf.post(msg);
    } else {
        nic_.l2().clearPool(pool_);
    }
}

bool
VfDriver::transmit(const nic::Packet &pkt)
{
    if (!up_)
        return false;
    nic_.transmit(pool_, pkt);
    return true;
}

// simlint: hot
double
VfDriver::irqTop()
{
    nic_.drainRxInto(pool_, pending_);
    if (pt_) {
        const sim::Time now = kern_.hv().eq().now();
        for (const auto &c : pending_)
            pt_->record(pt_comp_, obs::PathStage::LapicDeliver,
                        c.pkt.trace_id, now);
    }
    return double(pending_.size()) * kern_.hv().costs().guest_per_packet;
}

void
VfDriver::irqBottom()
{
    if (pending_.empty())
        return;
    auto &ring = nic_.rxRing(pool_);
    up_batch_.clear();
    up_batch_.reserve(pending_.size());
    for (const auto &c : pending_) {
        ring.post(c.buffer_gpa);    // recycle the buffer
        up_batch_.push_back(c.pkt);
        period_pkts_ += 1;
        period_bits_ += double(c.pkt.payloadBytes()) * 8.0;
    }
    pending_.clear();
    deliverUp(up_batch_);
}

void
VfDriver::fluidVisit(sim::FluidVisitor &v)
{
    v.inv("vf.up", (up_ ? 1u : 0u) | (phys_link_ ? 2u : 0u));
    sample_timer_.fluidVisit(v);
    pf_events_.fluidVisit(v, "vf.pf_events");
    v.f64("vf.period_pkts", period_pkts_);
    v.f64("vf.period_bits", period_bits_);
    v.inv("vf.pending", pending_.size());
    for (auto &c : pending_)
        nic::fluidVisitPacket(v, "vf.pending_pkt", c.pkt);
}

void
VfDriver::onItrSample()
{
    if (!up_)
        return;
    double secs = cfg_.sample_period.toSeconds();
    double hz = itr_->updateHz(period_pkts_ / secs, period_bits_ / secs);
    nic_.setItr(pool_, hz);
    period_pkts_ = 0;
    period_bits_ = 0;
    sample_timer_.armIn(cfg_.sample_period);
}

} // namespace sriov::drivers
