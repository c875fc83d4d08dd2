#include "core/dnis.hpp"

#include "sim/log.hpp"

namespace sriov::core {

Dnis::Dnis(vmm::Hypervisor &hv, vmm::MigrationManager &mm)
    : hv_(hv), mm_(mm)
{
}

void
Dnis::manage(vmm::Domain &dom, drivers::VfDriver &vf,
             drivers::NetfrontDriver &pv, guest::BondingDriver &bond,
             pci::HotplugSlot &slot)
{
    dom_ = &dom;
    vf_ = &vf;
    pv_ = &pv;
    bond_ = &bond;
    slot_ = &slot;
    // Seat the VF in its virtual slot before listening, so the initial
    // insert does not retrigger driver init.
    if (!slot.occupied())
        slot.insert(vf.function());
    slot.setListener(this);
    // Runtime: the VF carries the traffic.
    bond.setActive(vf);
}

void
Dnis::migrate(const Params &p, std::function<void(const Report &)> done)
{
    if (!dom_)
        sim::fatal("DNIS: migrate() before manage()");
    params_ = p;
    done_ = std::move(done);
    report_ = Report{};
    report_.switch_started = hv_.eq().now();

    // Step 1: the migration manager signals virtual hot removal; the
    // "real" migration starts once the guest has ejected the VF.
    slot_->requestRemoval([this]() {
        mm_.migrate(
            *dom_, params_.mig, /*on_pause=*/nullptr,
            /*on_resume=*/
            [this]() {
                // Step 4: virtual hot add on the target platform.
                hv_.eq().scheduleIn(params_.hot_add_delay, [this]() {
                    slot_->insert(vf_->function());
                });
            },
            [this](const vmm::MigrationManager::Result &r) {
                report_.mig = r;
                // done_ fires once the VF is restored (hotAdded).
            });
    });
}

void
Dnis::removeRequested(pci::PciFunction &)
{
    // Guest side: the ACPI event takes a moment to surface; then the
    // bonding driver quiesces the VF and fails over to the PV NIC.
    hv_.eq().scheduleIn(params_.remove_ack_delay, [this]() {
        vf_->stopRx();    // frames pile into the ring, then drop
        hv_.eq().scheduleIn(params_.vf_quiesce, [this]() {
            vf_->shutdown();           // filter cleared -> PV path live
            bond_->setActive(*pv_);
            report_.switched_to_pv = hv_.eq().now();
            slot_->eject();            // hardware stickiness gone
        });
    });
}

void
Dnis::hotAdded(pci::PciFunction &)
{
    // Target platform: bring the (possibly different) VF back up and
    // switch the bond to it for runtime performance.
    vf_->init();
    bond_->setActive(*vf_);
    report_.vf_restored = hv_.eq().now();
    if (done_) {
        auto cb = std::move(done_);
        done_ = nullptr;
        cb(report_);
    }
}

} // namespace sriov::core
