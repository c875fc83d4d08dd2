#include "nic/sriov_nic.hpp"

#include "sim/log.hpp"

namespace sriov::nic {

NicPort::NicPort(sim::EventQueue &eq, std::string name, pci::Bdf pf_bdf,
                 Params p, unsigned num_pools)
    : eq_(eq), name_(std::move(name)), params_(p),
      thin_(eq.thin()), dma_(eq, name_ + ".dma", p.dma)
{
    auto pf = std::make_unique<pci::PciFunction>(
        pf_bdf, p.vendor_id, p.pf_device_id, 0x020000,
        pci::PciFunction::Kind::Physical);
    pf->declareBar(0, 128 * 1024);
    pf->addMsix(10, 3);
    pf_ = &addFunction(std::move(pf));
    resizePools(num_pools);
}

NicPort::~NicPort() = default;

// simlint: fluid-settle
void
NicPort::resizePools(unsigned n)
{
    while (pools_.size() < n) {
        Pool idx = Pool(pools_.size());
        auto ps = std::make_unique<PoolState>(eq_, params_.rx_ring_size);
        ps->itr_timer.setCallback([this, idx]() { itrExpired(idx); });
        pools_.push_back(std::move(ps));
    }
    while (pools_.size() > n) {
        // The pool's raise stream dies with it; a stale ledger flow
        // would otherwise hold its last gap forever and wedge (or
        // falsely satisfy) the all-steady predicate.
        if (pools_.back()->fluid_flow >= 0) {
            if (sim::FlowLedger *l = sim::fluidLedger())
                l->endFlow(unsigned(pools_.back()->fluid_flow));
        }
        pools_.pop_back();
    }
    for (auto &ps : pools_) {
        if (ps->itr_hz == 0.0)
            ps->itr_hz = params_.default_itr_hz;
    }
    // Pool topology changed (VF enable/disable): any running fluid
    // segment is built over the old slot sequence.
    sim::fluidTransitionAll(sim::FluidTransition::VmChurn);
}

NicPort::PoolState &
NicPort::poolState(Pool pool)
{
    if (pool >= pools_.size())
        sim::panic("%s: pool %u out of range", name_.c_str(), pool);
    return *pools_[pool];
}

const NicPort::PoolState &
NicPort::poolState(Pool pool) const
{
    if (pool >= pools_.size())
        sim::panic("%s: pool %u out of range", name_.c_str(), pool);
    return *pools_[pool];
}

DescRing &
NicPort::rxRing(Pool pool)
{
    return poolState(pool).ring;
}

std::vector<RxCompletion>
NicPort::drainRx(Pool pool)
{
    std::vector<RxCompletion> out;
    drainRxInto(pool, out);
    return out;
}

// simlint: hot
void
NicPort::drainRxInto(Pool pool, std::vector<RxCompletion> &out)
{
    PoolState &ps = poolState(pool);
    out.clear();
    // Drivers pass a reusable scratch vector: after the first batch it
    // holds its high-water capacity and these calls stop allocating.
    // simlint:allow(hot-path-alloc): reusable caller scratch vector
    out.reserve(ps.completed.size());
    // `completed` is sorted by readiness; thin mode may hold frames
    // whose DMA has not finished yet — they stay behind.
    while (!ps.completed.empty()
           && ps.completed.front().ready <= eq_.now()) {
        // simlint:allow(hot-path-alloc): reusable caller scratch vector
        out.push_back(std::move(ps.completed.front().rc));
        ps.completed.pop_front();
    }
}

std::size_t
NicPort::rxPending(Pool pool) const
{
    const PoolState &ps = poolState(pool);
    sim::Time now = eq_.now();
    std::size_t lo = 0, hi = ps.completed.size();
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (ps.completed[mid].ready > now)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

// simlint: fluid-settle
void
NicPort::setItr(Pool pool, double hz)
{
    if (hz < 0)
        sim::fatal("%s: negative ITR", name_.c_str());
    PoolState &ps = poolState(pool);
    if (ps.itr_hz != hz)
        sim::fluidTransitionAll(sim::FluidTransition::ItrChange);
    ps.itr_hz = hz;

    // Fluid mode (the running island has a ledger only then): snap the
    // throttle window onto the sender emission grid. 1/hz is an
    // arbitrary picosecond value, so the raise cadence it induces is
    // incommensurate with the send grid and the combined schedule has
    // no usable hyperperiod; rounding the window to the nearest whole
    // number of grid ticks (at most a half-tick perturbation, and only
    // when that stays within 2x of the asked window) gives the
    // coordinator a finite period to verify against.
    // Interrupt-rate-derived metrics are tolerance-banded under fluid
    // for exactly this reason (DESIGN.md section 14).
    sim::Time prev_window = ps.itr_window;
    ps.itr_window = sim::Time();
    sim::FlowLedger *l = hz > 0 ? sim::fluidLedger() : nullptr;
    sim::Time grid = l != nullptr ? l->sourcePeriod() : sim::Time();
    if (grid > sim::Time()) {
        std::int64_t w = sim::Time::seconds(1.0 / hz).picos();
        std::int64_t g = grid.picos();
        std::int64_t k = std::max<std::int64_t>(1, (w + g / 2) / g);
        if (k * g <= 2 * w)
            ps.itr_window = sim::Time::ps(k * g);
    }
    if (ps.itr_window != prev_window)
        sim::fluidTransitionAll(sim::FluidTransition::ItrChange);
}

double
NicPort::itr(Pool pool) const
{
    return poolState(pool).itr_hz;
}

sim::Time
NicPort::itrWindow(const PoolState &ps) const
{
    return ps.itr_window > sim::Time() ? ps.itr_window
                                       : sim::Time::seconds(1.0 / ps.itr_hz);
}

// simlint: fluid-settle
void
NicPort::noteRaise(PoolState &ps, Pool pool)
{
    sim::FlowLedger *l = sim::fluidLedger();
    if (l == nullptr)
        return;
    if (ps.fluid_flow < 0) {
        ps.fluid_flow = int(l->addFlow(
            name_ + ".raise" + std::to_string(pool), sim::FlowKind::Derived));
    }
    l->onSend(unsigned(ps.fluid_flow), eq_.now());
}

void
NicPort::setPoolFilter(Pool pool, MacAddr mac, std::uint16_t vlan)
{
    l2_.setFilter(mac, vlan, pool);
}

void
NicPort::fluidVisit(sim::FluidVisitor &v)
{
    dma_.fluidVisit(v);
    drop_no_match_.fluidVisit(v, "port.drop_no_match");
    for (auto &psp : pools_) {
        PoolState &ps = *psp;
        settleStats(ps);
        ps.ring.fluidVisit(v);
        v.inv("pool.enabled", ps.enabled ? 1 : 0);
        v.f64("pool.itr_hz", ps.itr_hz);
        v.inv("pool.itr_window", std::uint64_t(ps.itr_window.picos()));
        v.inv("pool.throttle_armed", ps.throttle_armed ? 1 : 0);
        v.inv("pool.intr_pending", ps.intr_pending ? 1 : 0);
        v.time("pool.armed_until", ps.armed_until);
        ps.itr_timer.fluidVisit(v);
        v.inv("pool.real_inflight", ps.real_inflight);
        v.inv("pool.completed", ps.completed.size());
        for (std::size_t i = 0; i < ps.completed.size(); ++i) {
            PendingRx &pr = ps.completed[i];
            fluidVisitPacket(v, "pool.rx_pkt", pr.rc.pkt);
            v.time("pool.rx_ready", pr.ready);
            v.inv("pool.rx_stamped", pr.raise_stamped ? 1 : 0);
        }
        v.inv("pool.rx_ledger", ps.rx_ledger.size());
        for (std::size_t i = 0; i < ps.rx_ledger.size(); ++i) {
            v.time("pool.rxl_at", ps.rx_ledger[i].at);
            v.inv("pool.rxl_bytes", ps.rx_ledger[i].bytes);
        }
        v.inv("pool.tx_ledger", ps.tx_ledger.size());
        for (std::size_t i = 0; i < ps.tx_ledger.size(); ++i) {
            v.time("pool.txl_at", ps.tx_ledger[i].at);
            v.inv("pool.txl_bytes", ps.tx_ledger[i].bytes);
        }
        ps.stats.rx_frames.fluidVisit(v, "pool.rx_frames");
        ps.stats.rx_bytes.fluidVisit(v, "pool.rx_bytes");
        ps.stats.rx_drop_ring.fluidVisit(v, "pool.rx_drop_ring");
        ps.stats.rx_drop_master.fluidVisit(v, "pool.rx_drop_master");
        ps.stats.rx_drop_iommu.fluidVisit(v, "pool.rx_drop_iommu");
        ps.stats.tx_frames.fluidVisit(v, "pool.tx_frames");
        ps.stats.tx_bytes.fluidVisit(v, "pool.tx_bytes");
        ps.stats.tx_dropped.fluidVisit(v, "pool.tx_dropped");
        ps.stats.interrupts.fluidVisit(v, "pool.interrupts");
    }
}

void
NicPort::setPathTracer(obs::PathTracer *pt)
{
    pt_ = pt;
    if (pt == nullptr)
        return;
    pt_comp_ = pt->registerComponent(name_);
    dma_.setPathTracer(pt, pt->registerComponent(name_ + ".dma"));
}

// simlint: hot
void
NicPort::settleStats(PoolState &ps) const
{
    sim::Time now = eq_.now();
    while (!ps.rx_ledger.empty() && ps.rx_ledger.front().at <= now) {
        ps.stats.rx_frames.inc();
        ps.stats.rx_bytes.inc(ps.rx_ledger.front().bytes);
        ps.rx_ledger.pop_front();
    }
    while (!ps.tx_ledger.empty() && ps.tx_ledger.front().at <= now) {
        ps.stats.tx_frames.inc();
        ps.stats.tx_bytes.inc(ps.tx_ledger.front().bytes);
        ps.tx_ledger.pop_front();
    }
}

// simlint: hot
void
NicPort::stampRaise(PoolState &ps)
{
    if (!pt_)
        return;
    const sim::Time now = eq_.now();
    for (std::size_t i = 0; i < ps.completed.size(); ++i) {
        PendingRx &e = ps.completed[i];
        if (e.ready > now)
            break;      // ready-sorted: the rest are still in flight
        if (e.raise_stamped)
            continue;
        e.raise_stamped = true;
        pt_->record(pt_comp_, obs::PathStage::MsixRaise,
                    e.rc.pkt.trace_id, now);
    }
}

const NicPort::PoolStats &
NicPort::poolStats(Pool pool) const
{
    if (pool >= pools_.size())
        sim::panic("%s: pool %u out of range", name_.c_str(), pool);
    // unique_ptr does not propagate constness: settle the ledgers so
    // a mid-run reader sees each frame's stats at its exact DMA time.
    PoolState &ps = *pools_[pool];
    settleStats(ps);
    return ps.stats;
}

// simlint: hot
void
NicPort::receive(const Packet &pkt)
{
    auto pool = l2_.classify(pkt);
    if (!pool)
        pool = default_pool_;
    if (!pool) {
        drop_no_match_.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        return;
    }
    if (pt_)
        pt_->record(pt_comp_, obs::PathStage::L2Classify, pkt.trace_id,
                    eq_.now());
    deliverToPool(*pool, pkt);
}

// simlint: hot
void
NicPort::deliverToPool(Pool pool, const Packet &pkt)
{
    PoolState &ps = poolState(pool);
    pci::PciFunction &fn = poolFunction(pool);

    if (!ps.enabled || !fn.busMasterEnabled()) {
        ps.stats.rx_drop_master.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        return;
    }
    auto buf = ps.ring.take();
    if (!buf) {
        ps.ring.countOverflow();
        ps.stats.rx_drop_ring.inc();
        sim::fluidTransitionAll(sim::FluidTransition::RingEdge);
        return;
    }
    if (pt_)
        pt_->record(pt_comp_, obs::PathStage::RingTake, pkt.trace_id,
                    eq_.now());
    mem::Addr gpa = *buf;
    if (iommu_) {
        auto r = iommu_->translate(fn.rid(), gpa, /*is_write=*/true);
        if (!r.ok()) {
            ps.stats.rx_drop_iommu.inc();
            sim::fluidTransitionAll(sim::FluidTransition::Drop);
            return;
        }
        if (pt_)
            pt_->record(pt_comp_, obs::PathStage::IommuXlate,
                        pkt.trace_id, eq_.now());
    }
    if (thin_) {
        settleStats(ps);    // keeps the ledger ring short and hot
        sim::Time c =
            // simlint:allow(hot-path-alloc): reserves link time, not memory
            dma_.reserve(pkt.bytes, pkt.trace_id, obs::PathStage::RxDma);
        // Early completion: when the frame completes strictly inside
        // the current ITR window, the exact model would only set
        // intr_pending at c — every visible effect is reproducible
        // without an event (stats ledgered at c, frame queued with
        // ready=c, window expiry woken by the deferred timer). The
        // strict `<` matters: no drain can run at c, so queueing the
        // frame ahead of time is unobservable. The real_inflight gate
        // keeps `completed` ready-sorted across the two push paths.
        if (c < ps.armed_until && ps.real_inflight == 0) {
            // RingBuf grows only to the burst high-water mark at
            // warm-up; steady state is a masked store (the bench
            // operator-new gate enforces zero allocs at runtime).
            // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
            ps.completed.push_back(PendingRx{RxCompletion{pkt, gpa}, c});
            // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
            ps.rx_ledger.push_back(StatDelta{c, pkt.bytes});
            ps.intr_pending = true;
            ps.itr_timer.armAt(ps.armed_until);
            return;
        }
        ++ps.real_inflight;
        eq_.scheduleAt(c, [this, pool, pkt, gpa]() {
            finishRx(pool, pkt, gpa);
        }, "dma.done");
        return;
    }
    dma_.transfer(pkt.bytes, pkt.trace_id, obs::PathStage::RxDma,
                  [this, pool, pkt, gpa]() {
        finishRx(pool, pkt, gpa);
    });
}

// simlint: hot
void
NicPort::finishRx(Pool pool, const Packet &pkt, mem::Addr gpa)
{
    PoolState &p = poolState(pool);
    if (p.real_inflight > 0)
        --p.real_inflight;
    // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
    p.completed.push_back(PendingRx{RxCompletion{pkt, gpa}, eq_.now()});
    p.stats.rx_frames.inc();
    p.stats.rx_bytes.inc(pkt.bytes);
    requestInterrupt(pool);
}

// simlint: hot
void
NicPort::requestInterrupt(Pool pool)
{
    PoolState &ps = poolState(pool);
    if (thin_) {
        if (eq_.now() < ps.armed_until) {
            ps.intr_pending = true;
            ps.itr_timer.armAt(ps.armed_until);
            return;
        }
        ps.stats.interrupts.inc();
        stampRaise(ps);
        noteRaise(ps, pool);
        signalPool(pool);
        if (ps.itr_hz > 0) {
            // Lazy throttle window: no expiry event unless a deferred
            // raise actually needs one (itr_timer armed on demand).
            ps.armed_until = eq_.now() + itrWindow(ps);
        }
        return;
    }
    if (ps.throttle_armed) {
        ps.intr_pending = true;
        return;
    }
    ps.stats.interrupts.inc();
    stampRaise(ps);
    noteRaise(ps, pool);
    signalPool(pool);
    if (ps.itr_hz <= 0)
        return;
    ps.throttle_armed = true;
    eq_.scheduleIn(itrWindow(ps), [this, pool]() {
        // Pools can shrink (VF disable) while a timer is in flight.
        if (pool >= pools_.size())
            return;
        PoolState &p = *pools_[pool];
        p.throttle_armed = false;
        if (p.intr_pending) {
            p.intr_pending = false;
            requestInterrupt(pool);
        }
    }, "nic.itr");
}

void
NicPort::itrExpired(Pool pool)
{
    PoolState &ps = poolState(pool);
    if (ps.intr_pending) {
        ps.intr_pending = false;
        requestInterrupt(pool);
    }
}

// simlint: hot
void
NicPort::transmit(Pool pool, const Packet &pkt)
{
    PoolState &ps = poolState(pool);
    pci::PciFunction &fn = poolFunction(pool);
    if (!fn.busMasterEnabled()) {
        ps.stats.rx_drop_master.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        return;
    }
    // TX descriptor ring is finite: drop when the DMA engine is this
    // far behind (an open-loop UDP sender outrunning the PCIe link).
    if (dma_.queueDepth() > kTxBacklogCap) {
        ps.stats.tx_dropped.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
        return;
    }
    if (pt_)
        pt_->record(pt_comp_, obs::PathStage::GuestTx, pkt.trace_id,
                    eq_.now());
    if (thin_) {
        // Flow-through: a wire-bound frame needs no completion event —
        // TX stats are ledgered at the DMA-done instant c and the wire
        // takes the frame with release=c. Classification moves from c
        // to now, a window in which filter reprogramming is assumed
        // quiescent (control-plane changes during line-rate TX);
        // local/unmatched frames keep the exact-time completion event.
        auto local = l2_.classify(pkt);
        if (!local && wire_ != nullptr) {
            settleStats(ps);    // keeps the ledger ring short and hot
            // simlint:allow(hot-path-alloc): reserves link time, not memory
            sim::Time c = dma_.reserve(pkt.bytes, pkt.trace_id,
                                       obs::PathStage::TxDma);
            // simlint:allow(hot-path-alloc): RingBuf warm-up growth only
            ps.tx_ledger.push_back(StatDelta{c, pkt.bytes});
            wire_->sendAt(*this, pkt, c);
            return;
        }
        // simlint:allow(hot-path-alloc): reserves link time, not memory
        sim::Time c = dma_.reserve(pkt.bytes, pkt.trace_id,
                                   obs::PathStage::TxDma);
        eq_.scheduleAt(c, [this, pool, pkt]() { finishTx(pool, pkt); },
                       "dma.done");
        return;
    }
    // Fetch the frame from memory across the PCIe link, then route.
    dma_.transfer(pkt.bytes, pkt.trace_id, obs::PathStage::TxDma,
                  [this, pool, pkt]() { finishTx(pool, pkt); });
}

// simlint: hot
void
NicPort::finishTx(Pool pool, const Packet &pkt)
{
    PoolState &p = poolState(pool);
    p.stats.tx_frames.inc();
    p.stats.tx_bytes.inc(pkt.bytes);
    auto local = l2_.classify(pkt);
    if (local) {
        // Internal switch: loop back through a second DMA crossing.
        // (Wire-bound frames are L2Classify-stamped at the receiving
        // port instead; the thin TX fast path never reaches here, so
        // stamping an unmatched classification would diverge by mode.)
        if (pt_)
            pt_->record(pt_comp_, obs::PathStage::L2Classify,
                        pkt.trace_id, eq_.now());
        deliverToPool(*local, pkt);
    } else if (wire_) {
        wire_->send(*this, pkt);
    } else {
        drop_no_match_.inc();
        sim::fluidTransitionAll(sim::FluidTransition::Drop);
    }
}

SriovNic::SriovNic(sim::EventQueue &eq, std::string name, pci::Bdf pf_bdf,
                   SriovParams p)
    : NicPort(eq, std::move(name), pf_bdf, p.port, /*num_pools=*/1), sp_(p)
{
    pci::SriovCapability::Params cp;
    cp.total_vfs = p.total_vfs;
    cp.initial_vfs = p.total_vfs;
    cp.vf_device_id = p.vf_device_id;
    sriov_cap_ = std::make_unique<pci::SriovCapability>(pf_->config(),
                                                        pf_->caps(), cp);
    sriov_cap_->onVfEnable([this](bool en, std::uint16_t n) {
        vfEnableChanged(en, n);
    });
}

SriovNic::SriovNic(sim::EventQueue &eq, std::string name, pci::Bdf pf_bdf)
    : SriovNic(eq, std::move(name), pf_bdf, SriovParams{})
{
}

void
SriovNic::vfEnableChanged(bool enabled, std::uint16_t num_vfs)
{
    if (enabled) {
        if (num_vfs > sp_.total_vfs)
            sim::fatal("%s: NumVFs %u > TotalVFs %u", name_.c_str(), num_vfs,
                       sp_.total_vfs);
        for (unsigned i = 0; i < num_vfs; ++i) {
            pci::Rid rid = sriov_cap_->vfRid(pf_->rid(), i);
            auto vf = std::make_unique<pci::PciFunction>(
                pci::Bdf::fromRid(rid), sp_.port.vendor_id,
                sp_.vf_device_id, 0x020000, pci::PciFunction::Kind::Virtual);
            vf->declareBar(0, 16 * 1024);
            // 82576 VF: rx, tx, mailbox vectors.
            vf->addMsix(3, 3);
            vfs_.push_back(&addFunction(std::move(vf)));
            mailboxes_.push_back(std::make_unique<VfMailbox>());
        }
        resizePools(1 + num_vfs);
    } else {
        if (vfs_removing_)
            vfs_removing_();
        for (pci::PciFunction *vf : vfs_)
            removeFunction(*vf);
        vfs_.clear();
        mailboxes_.clear();
        for (unsigned p = 1; p < poolCount(); ++p)
            l2_.clearPool(Pool(p));
        resizePools(1);
    }
    if (vfs_changed_)
        vfs_changed_();
}

pci::PciFunction *
SriovNic::vf(unsigned i)
{
    return i < vfs_.size() ? vfs_[i] : nullptr;
}

VfMailbox &
SriovNic::mailbox(unsigned vf_index)
{
    return *mailboxes_.at(vf_index);
}

pci::PciFunction &
SriovNic::poolFunction(Pool pool)
{
    if (pool == 0)
        return *pf_;
    unsigned i = pool - 1;
    if (i >= vfs_.size())
        sim::panic("%s: pool %u has no VF", name_.c_str(), pool);
    return *vfs_[i];
}

void
SriovNic::signalPool(Pool pool)
{
    // Vector 0 carries RX (and, in this model, TX-completion) events.
    poolFunction(pool).signalMsix(0);
}

} // namespace sriov::nic
