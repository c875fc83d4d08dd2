#include "core/testbed.hpp"

#include "check/invariant_checker.hpp"
#include "sim/log.hpp"

namespace sriov::core {

Testbed::Testbed(Params p) : params_(std::move(p))
{
    if (sim::shardCount() != 0)
        buildSharded();
    else
        buildLegacy();
    if (sim::fluidEnabled())
        buildFluid();
}

/**
 * The top-of-rack relay: one island owning the ToR end of every wire.
 * Forwarding is a static MAC table filled at build time (client NICs)
 * and at addGuest (guest VF MACs) — a lookup and a re-send on the
 * destination's downlink, no learning, no flooding. Deterministic by
 * construction: the table is keyed by MAC value and the relay runs on
 * its own EventQueue like any other island.
 */
struct Testbed::TorRelay
{
    /** The ToR-side endpoint of one attached wire. */
    struct Port final : nic::WireEndpoint
    {
        TorRelay *tor = nullptr;

        void
        receive(const nic::Packet &pkt) override
        {
            tor->forward(pkt);
        }
    };

    /** A downlink: the wire and the ToR endpoint sends leave from. */
    struct Link
    {
        nic::Wire *wire = nullptr;
        Port *end = nullptr;
    };

    sim::EventQueue eq;
    obs::PathTracer pt;
    unsigned index = 0;    ///< engine island index (registered last)
    std::vector<std::unique_ptr<Port>> ports;
    std::map<std::uint64_t, Link> route;
    /** Per global port: the downlink toward that port's server NIC. */
    std::vector<Link> server_down;
    /** Frames for a MAC nobody registered (conservation check). */
    std::uint64_t unroutable_drops = 0;

    Port &
    addPort()
    {
        ports.push_back(std::make_unique<Port>());
        ports.back()->tor = this;
        return *ports.back();
    }

    void
    addRoute(nic::MacAddr mac, nic::Wire &wire, Port &end)
    {
        route[mac.value] = Link{&wire, &end};
    }

    void
    forward(const nic::Packet &pkt)
    {
        auto it = route.find(pkt.dst.value);
        if (it == route.end()) {
            ++unroutable_drops;
            return;
        }
        it->second.wire->send(*it->second.end, pkt);
    }
};

void
Testbed::buildLegacy()
{
    if (params_.num_hosts > 1)
        sim::fatal("multi-host testbed: the ToR relay is an island "
                   "(use --shards=N)");

    // One island, no edges: the engine just runs the single queue.
    engine_ = std::make_unique<sim::ShardEngine>(1);
    engine_->addIsland(eq_);

    // First thing built: components created below register with it.
    pathtrace_ = std::make_unique<obs::PathTracer>();

    vmm::Hypervisor::MachineParams mp;
    server_ = std::make_unique<vmm::Hypervisor>(eq_, params_.costs, mp);
    client_ = std::make_unique<vmm::Hypervisor>(eq_, params_.costs, mp);
    params_.opts.apply(*server_);

    iovm_ = std::make_unique<IovManager>(*server_);
    migration_ = std::make_unique<vmm::MigrationManager>(*server_);
    dom0_kern_ = std::make_unique<guest::GuestKernel>(
        *server_, server_->dom0(), guest::KernelVersion::v2_6_28);

    unsigned nports = params_.use_vmdq_nic ? 1 : params_.num_ports;
    double line = params_.use_vmdq_nic ? 10e9 : params_.line_bps;

    for (unsigned i = 0; i < nports; ++i) {
        // Server-side NIC for this port.
        nic::NicPort *server_end = nullptr;
        if (params_.use_vmdq_nic) {
            nic::VmdqNic::VmdqParams vp;
            vmdq_nic_ = std::make_unique<nic::VmdqNic>(
                eq_, "vmdq0", pci::Bdf{1, 0, 0}, vp);
            vmdq_nic_->setIommu(&server_->iommu());
            server_->rootComplex().plug(vmdq_nic_->pf());
            vmdq_backend_ = std::make_unique<drivers::VmdqBackend>(
                *dom0_kern_, *vmdq_nic_, drivers::VmdqBackend::Config{});
            server_end = vmdq_nic_.get();
        } else {
            nic::SriovNic::SriovParams sp;
            sp.total_vfs = std::uint16_t(params_.vfs_per_port);
            // One bus per port so the VF RID windows (PF RID + 0x80 +
            // 2*i) can never collide across ports.
            auto nic = std::make_unique<nic::SriovNic>(
                eq_, "eth_p" + std::to_string(i),
                pci::Bdf{std::uint8_t(1 + i), 0, 0}, sp);
            nic->setIommu(&server_->iommu());
            iovm_->registerNic(*nic);
            auto pf = std::make_unique<drivers::PfDriver>(*dom0_kern_,
                                                          *nic);
            pf->enableVfs(params_.vfs_per_port);
            server_end = nic.get();
            ports_.push_back(std::move(nic));
            pf_drivers_.push_back(std::move(pf));
        }

        // Wire + client-side machine port.
        nic::Wire::Params wp;
        wp.line_bps = line;
        wires_.push_back(std::make_unique<nic::Wire>(eq_, wp));

        ClientPort cp;
        // The client machine is not under test: give its adapters a
        // fast PCIe path so they never bound the experiment.
        nic::PlainNic::Params cnp;
        cnp.dma.link_bps = 16e9;
        cnp.dma.per_dma_overhead = sim::Time::ns(100);
        cp.nic = std::make_unique<nic::PlainNic>(
            eq_, "cli_p" + std::to_string(i),
            pci::Bdf{std::uint8_t(1 + i), 0, 0}, cnp);
        client_->rootComplex().plug(cp.nic->pf());
        cp.dom = &client_->createDomain("cli" + std::to_string(i),
                                        vmm::DomainType::Native,
                                        64ull << 20);
        cp.kern = std::make_unique<guest::GuestKernel>(*client_, *cp.dom);
        drivers::VfDriver::Config dcfg;
        dcfg.name = "cli_eth" + std::to_string(i);
        dcfg.mac = nic::MacAddr::make(2, std::uint16_t(i + 1));
        cp.drv = std::make_unique<drivers::NativeDriver>(*cp.kern, *cp.nic,
                                                         nic::Pool(0),
                                                         dcfg);
        cp.drv->setItrPolicy(std::make_unique<drivers::AdaptiveItr>());
        cp.drv->init();
        cp.stack = std::make_unique<guest::NetStack>(*cp.kern);
        cp.stack->attachDevice(*cp.drv);
        wires_.back()->connect(*server_end, *cp.nic);
        server_end->attachWire(*wires_.back());
        cp.nic->attachWire(*wires_.back());

        // Path-tracer wiring for this port's whole chain. Registration
        // order is the build order, so component ids (and every
        // artifact built from them) are reproducible.
        obs::PathTracer *pt = pathtrace_.get();
        server_end->setPathTracer(pt);
        wires_.back()->setPathTracer(
            pt, pt->registerComponent("wire" + std::to_string(i)));
        cp.nic->setPathTracer(pt);
        cp.drv->setPathTracer(
            pt,
            pt->registerComponent("cli" + std::to_string(i) + ".drv"));
        cp.stack->setPathTracer(
            pt,
            pt->registerComponent("cli" + std::to_string(i) + ".net"));

        client_ports_.push_back(std::move(cp));
    }

    // Auxiliary delivery marks: every MSI reaching a router drops a
    // trace_id-0 record, so flight-recorder dumps show interrupt
    // activity interleaved with packet trails. Pure observation — the
    // tap neither schedules nor mutates.
    auto tapRouter = [this](intr::InterruptRouter &r, const char *name) {
        std::uint16_t comp = pathtrace_->registerComponent(name);
        r.addDeliveryTap(
            [this, comp](pci::Rid, const pci::MsiMessage &) {
                pathtrace_->mark(comp, obs::PathStage::LapicDeliver,
                                 eq_.now());
            });
    };
    tapRouter(server_->router(), "server.intr");
    tapRouter(client_->router(), "client.intr");
}

void
Testbed::buildSharded()
{
    if (params_.use_vmdq_nic)
        sim::fatal("sharded testbed: the VMDq topology has no island "
                   "partition (use --shards=0)");

    engine_ = std::make_unique<sim::ShardEngine>(sim::shardCount());

    vmm::Hypervisor::MachineParams mp;
    // Multi-host racks replicate the whole per-port structure: global
    // port g = host * num_ports + local port, every name and BDF keyed
    // by g so nothing collides across hosts.
    const unsigned nports = params_.num_ports * params_.num_hosts;

    // Server slices register first so engine island order — the digest
    // fold order — is slices 0..P-1, clients P..2P-1, fixed by the
    // partition rather than the worker count.
    for (unsigned i = 0; i < nports; ++i) {
        Island s;
        s.eq = std::make_unique<sim::EventQueue>();
        s.pt = std::make_unique<obs::PathTracer>();
        s.pt->setShardHalf(true);
        s.hv = std::make_unique<vmm::Hypervisor>(*s.eq, params_.costs,
                                                 mp);
        params_.opts.apply(*s.hv);
        s.iovm = std::make_unique<IovManager>(*s.hv);
        s.dom0 = std::make_unique<guest::GuestKernel>(
            *s.hv, s.hv->dom0(), guest::KernelVersion::v2_6_28);
        s.index = engine_->addIsland(*s.eq);
        slices_.push_back(std::move(s));
    }
    for (unsigned i = 0; i < nports; ++i) {
        Island c;
        c.eq = std::make_unique<sim::EventQueue>();
        c.pt = std::make_unique<obs::PathTracer>();
        c.pt->setShardHalf(true);
        c.hv = std::make_unique<vmm::Hypervisor>(*c.eq, params_.costs,
                                                 mp);
        c.index = engine_->addIsland(*c.eq);
        client_islands_.push_back(std::move(c));
    }

    // The ToR relay island registers after every host island so the
    // digest fold order stays slices, clients, ToR for any host count.
    if (params_.num_hosts > 1) {
        tor_ = std::make_unique<TorRelay>();
        tor_->pt.setShardHalf(true);
        tor_->index = engine_->addIsland(tor_->eq);
    }

    for (unsigned i = 0; i < nports; ++i) {
        Island &sl = slices_[i];
        Island &cl = client_islands_[i];

        nic::SriovNic::SriovParams sp;
        sp.total_vfs = std::uint16_t(params_.vfs_per_port);
        auto nic = std::make_unique<nic::SriovNic>(
            *sl.eq, "eth_p" + std::to_string(i),
            pci::Bdf{std::uint8_t(1 + i), 0, 0}, sp);
        nic->setIommu(&sl.hv->iommu());
        sl.iovm->registerNic(*nic);
        auto pf = std::make_unique<drivers::PfDriver>(*sl.dom0, *nic);
        pf->enableVfs(params_.vfs_per_port);
        nic::NicPort *server_end = nic.get();
        ports_.push_back(std::move(nic));
        pf_drivers_.push_back(std::move(pf));

        // The wire is the island boundary: its sharded form pushes
        // (due, frame) messages between the two queues with the
        // propagation delay as engine lookahead. The sharded testbed
        // strings a 1 km run (5 us) instead of the legacy 100 m patch
        // cable: conservative sync advances islands at most one
        // lookahead per round trip, and 500 ns would drown the run in
        // sync rounds. Identical for every shard count >= 1, so
        // byte-identity holds; throughput and CPU figures don't see
        // propagation (open-loop senders), only path latency does.
        nic::Wire::Params wp;
        wp.line_bps = params_.line_bps;
        wp.propagation = sim::Time::us(5);
        nic::Wire *srv_wire = nullptr;    // the wire at the server NIC
        nic::Wire *cli_wire = nullptr;    // the wire at the client NIC
        TorRelay::Port *tor_srv = nullptr;
        TorRelay::Port *tor_cli = nullptr;
        if (tor_) {
            // Two hops through the rack: server port g <-> ToR and
            // ToR <-> client port g, each its own full-duplex wire with
            // the same 5 us lookahead. The relay re-serializes at line
            // rate, so a steady stream stays steady — just offset by
            // one store-and-forward latency.
            wires_.push_back(std::make_unique<nic::Wire>(
                *sl.eq, tor_->eq, *engine_, sl.index, tor_->index, wp));
            srv_wire = wires_.back().get();
            tor_srv = &tor_->addPort();
            wires_.push_back(std::make_unique<nic::Wire>(
                *cl.eq, tor_->eq, *engine_, cl.index, tor_->index, wp));
            cli_wire = wires_.back().get();
            tor_cli = &tor_->addPort();
        } else {
            wires_.push_back(std::make_unique<nic::Wire>(
                *sl.eq, *cl.eq, *engine_, sl.index, cl.index, wp));
            srv_wire = cli_wire = wires_.back().get();
        }

        ClientPort cp;
        nic::PlainNic::Params cnp;
        cnp.dma.link_bps = 16e9;
        cnp.dma.per_dma_overhead = sim::Time::ns(100);
        cp.nic = std::make_unique<nic::PlainNic>(
            *cl.eq, "cli_p" + std::to_string(i),
            pci::Bdf{std::uint8_t(1 + i), 0, 0}, cnp);
        cl.hv->rootComplex().plug(cp.nic->pf());
        cp.dom = &cl.hv->createDomain("cli" + std::to_string(i),
                                      vmm::DomainType::Native,
                                      64ull << 20);
        cp.kern = std::make_unique<guest::GuestKernel>(*cl.hv, *cp.dom);
        drivers::VfDriver::Config dcfg;
        dcfg.name = "cli_eth" + std::to_string(i);
        dcfg.mac = nic::MacAddr::make(2, std::uint16_t(i + 1));
        cp.drv = std::make_unique<drivers::NativeDriver>(
            *cp.kern, *cp.nic, nic::Pool(0), dcfg);
        cp.drv->setItrPolicy(std::make_unique<drivers::AdaptiveItr>());
        cp.drv->init();
        cp.stack = std::make_unique<guest::NetStack>(*cp.kern);
        cp.stack->attachDevice(*cp.drv);
        if (tor_) {
            srv_wire->connect(*server_end, *tor_srv);
            cli_wire->connect(*cp.nic, *tor_cli);
            server_end->attachWire(*srv_wire);
            cp.nic->attachWire(*cli_wire);
            // Routes: the client NIC's MAC answers on its uplink; the
            // guests behind this port register in addGuest against the
            // server downlink recorded here.
            tor_->addRoute(dcfg.mac, *cli_wire, *tor_cli);
            tor_->server_down.push_back(
                TorRelay::Link{srv_wire, tor_srv});
        } else {
            srv_wire->connect(*server_end, *cp.nic);
            server_end->attachWire(*srv_wire);
            cp.nic->attachWire(*srv_wire);
        }

        // Each island stamps into its own tracer (shard-half mode);
        // pathSnapshot() joins the halves by trace id. Registration
        // order per tracer is build order, as in the legacy build.
        server_end->setPathTracer(sl.pt.get());
        if (tor_) {
            srv_wire->setShardPathTracers(
                sl.pt.get(),
                sl.pt->registerComponent("wire" + std::to_string(i)
                                         + ".s"),
                &tor_->pt,
                tor_->pt.registerComponent("wire" + std::to_string(i)
                                           + ".s"));
            cli_wire->setShardPathTracers(
                cl.pt.get(),
                cl.pt->registerComponent("wire" + std::to_string(i)
                                         + ".c"),
                &tor_->pt,
                tor_->pt.registerComponent("wire" + std::to_string(i)
                                           + ".c"));
        } else {
            srv_wire->setShardPathTracers(
                sl.pt.get(),
                sl.pt->registerComponent("wire" + std::to_string(i)),
                cl.pt.get(),
                cl.pt->registerComponent("wire" + std::to_string(i)));
        }
        cp.nic->setPathTracer(cl.pt.get());
        cp.drv->setPathTracer(
            cl.pt.get(),
            cl.pt->registerComponent("cli" + std::to_string(i)
                                     + ".drv"));
        cp.stack->setPathTracer(
            cl.pt.get(),
            cl.pt->registerComponent("cli" + std::to_string(i)
                                     + ".net"));

        client_ports_.push_back(std::move(cp));

        auto tapRouter = [](Island &isl, const char *name) {
            std::uint16_t comp = isl.pt->registerComponent(name);
            obs::PathTracer *pt = isl.pt.get();
            sim::EventQueue *q = isl.eq.get();
            isl.hv->router().addDeliveryTap(
                [pt, q, comp](pci::Rid, const pci::MsiMessage &) {
                    pt->mark(comp, obs::PathStage::LapicDeliver,
                             q->now());
                });
        };
        tapRouter(sl, "server.intr");
        tapRouter(cl, "client.intr");
    }
}

// simlint: fluid-settle
void
Testbed::buildFluid()
{
    // Every island gets its own ledger — in Exact mode too, so the
    // window quantization the senders and NICs derive from it is the
    // same whether or not the coordinator later warps (On and Exact
    // share a schedule, the byte-identity contract).
    const unsigned isles = engine_->islandCount();
    island_ledgers_.reserve(isles);
    for (unsigned i = 0; i < isles; ++i) {
        island_ledgers_.push_back(std::make_unique<sim::FlowLedger>());
        engine_->setIslandLedger(i, island_ledgers_.back().get());
    }
    if (sim::fluidMode() != sim::FluidMode::On)
        return;
    // CPU work submitted by netback captures whole frame batches in
    // its completion closures — state a warp cannot rewrite — so the
    // coordinator refuses to warp while any is in flight. (A sharded
    // build refuses PV guests, so there the gate is only a safety net.)
    auto gate = [this]() {
        static const char *const opaque[] = {"dom0-netback"};
        auto idle = [](vmm::Hypervisor &hv) {
            for (unsigned i = 0; i < hv.pcpuCount(); ++i) {
                if (hv.pcpu(i).hasWorkTagged(opaque, 1))
                    return false;
            }
            return true;
        };
        if (!sharded())
            return idle(*server_) && idle(*client_);
        for (Island &s : slices_) {
            if (!idle(*s.hv))
                return false;
        }
        for (Island &c : client_islands_) {
            if (!idle(*c.hv))
                return false;
        }
        return true;
    };
    coordinator_ = std::make_unique<WarpCoordinator>(
        *engine_, [this](sim::FluidVisitor &v) { fluidVisit(v); },
        std::move(gate));
}

Testbed::~Testbed() = default;

sim::EventQueue &
Testbed::eq()
{
    if (sharded())
        sim::fatal("testbed: eq() on a sharded testbed (one queue per "
                   "island; use run()/orderDigest()/executedEvents())");
    return eq_;
}

vmm::Hypervisor &
Testbed::server()
{
    if (sharded())
        sim::fatal("testbed: server() on a sharded testbed (one "
                   "hypervisor per slice)");
    return *server_;
}

vmm::Hypervisor &
Testbed::client()
{
    if (sharded())
        sim::fatal("testbed: client() on a sharded testbed (one "
                   "hypervisor per client island)");
    return *client_;
}

IovManager &
Testbed::iovm()
{
    if (sharded())
        sim::fatal("testbed: iovm() on a sharded testbed (one manager "
                   "per slice)");
    return *iovm_;
}

vmm::MigrationManager &
Testbed::migration()
{
    if (sharded())
        sim::fatal("sharded testbed: migration crosses slices (use "
                   "--shards=0)");
    return *migration_;
}

guest::GuestKernel &
Testbed::dom0Kernel()
{
    if (sharded())
        sim::fatal("testbed: dom0Kernel() on a sharded testbed (one "
                   "dom0 per slice)");
    return *dom0_kern_;
}

obs::PathTracer &
Testbed::pathTracer()
{
    if (sharded())
        sim::fatal("testbed: pathTracer() on a sharded testbed (use "
                   "pathSnapshot())");
    return *pathtrace_;
}

const obs::PathTracer &
Testbed::pathTracer() const
{
    if (sharded())
        sim::fatal("testbed: pathTracer() on a sharded testbed (use "
                   "pathSnapshot())");
    return *pathtrace_;
}

void
Testbed::run(sim::Time dt)
{
    // With the coordinator installed the run is sliced into exact
    // stretches and closed-form warps; without it, one engine run.
    if (coordinator_)
        coordinator_->runUntil(now() + dt);
    else
        engine_->runUntil(now() + dt);
}

sim::Time
Testbed::now() const
{
    if (sharded())
        return slices_.front().eq->now();
    return eq_.now();
}

std::uint64_t
Testbed::executedEvents() const
{
    return engine_->executedEvents();
}

std::uint64_t
Testbed::orderDigest() const
{
    return sharded() ? engine_->foldedDigest() : eq_.orderDigest();
}

obs::PathSnapshot
Testbed::pathSnapshot() const
{
    if (!sharded())
        return pathtrace_->snapshot();
    std::vector<const obs::PathTracer *> parts;
    parts.reserve(slices_.size() + client_islands_.size() + 1);
    for (const Island &s : slices_)
        parts.push_back(s.pt.get());
    for (const Island &c : client_islands_)
        parts.push_back(c.pt.get());
    if (tor_)
        parts.push_back(&tor_->pt);
    return obs::PathTracer::mergeShards(parts);
}

nic::NicPort &
Testbed::serverNic(unsigned port)
{
    if (params_.use_vmdq_nic)
        return *vmdq_nic_;
    return *ports_.at(port);
}

std::unique_ptr<drivers::ItrPolicy>
Testbed::makeGuestItr() const
{
    if (params_.opts.aic) {
        drivers::AicItr::Params ap;
        ap.ap_bufs = params_.ap_bufs;
        return std::make_unique<drivers::AicItr>(ap);
    }
    return makeItrPolicy(params_.itr);
}

drivers::NetbackDriver &
Testbed::netback(unsigned port)
{
    if (sharded())
        sim::fatal("sharded testbed: PV netback couples dom0 and "
                   "guests (use --shards=0)");
    auto it = netbacks_.find(port);
    if (it == netbacks_.end()) {
        drivers::NetbackDriver::Config cfg;
        cfg.num_threads = params_.netback_threads;
        auto nb = std::make_unique<drivers::NetbackDriver>(*dom0_kern_,
                                                           cfg);
        nb->attachPhysical(serverNic(port));
        it = netbacks_.emplace(port, std::move(nb)).first;
    }
    return *it->second;
}

Testbed::Guest &
Testbed::addGuest(vmm::DomainType type, NetMode mode,
                  guest::KernelVersion kv, bool bond_vf_with_pv)
{
    if (sharded() && (mode != NetMode::Sriov || bond_vf_with_pv))
        sim::fatal("sharded testbed: only plain SR-IOV guests are "
                   "shardable (use --shards=0)");

    unsigned idx = unsigned(guests_.size());
    unsigned port = params_.use_vmdq_nic ? 0 : idx % portCount();

    // The machine context the guest builds against: its port's server
    // slice in sharded mode, the single server machine otherwise.
    vmm::Hypervisor &hv = sharded() ? *slices_[port].hv : *server_;
    obs::PathTracer &pt = sharded() ? *slices_[port].pt : *pathtrace_;
    IovManager &iovmgr = sharded() ? *slices_[port].iovm : *iovm_;

    auto g = std::make_unique<Guest>();
    g->mac = guestMac(idx);
    g->port = port;
    g->mode = mode;
    if (tor_) {
        tor_->addRoute(g->mac, *tor_->server_down.at(port).wire,
                       *tor_->server_down.at(port).end);
    }
    g->dom = &hv.createDomain("vm" + std::to_string(idx), type,
                              params_.guest_mem);
    g->kern = std::make_unique<guest::GuestKernel>(hv, *g->dom, kv);
    g->stack = std::make_unique<guest::NetStack>(*g->kern);
    g->stack->setUdpSocketCapacity(params_.ap_bufs);
    g->stack->setPathTracer(
        &pt,
        pt.registerComponent("vm" + std::to_string(idx) + ".net"));

    switch (mode) {
      case NetMode::Sriov: {
        nic::SriovNic &nic = *ports_.at(port);
        unsigned vf_index = next_vf_on_port_[port]++;
        if (vf_index >= nic.numVfs())
            sim::fatal("port %u out of VFs", port);
        iovmgr.assign(*g->dom, nic, vf_index);
        drivers::VfDriver::Config cfg;
        cfg.name = "eth0";
        cfg.mac = g->mac;
        g->vf = std::make_unique<drivers::VfDriver>(
            *g->kern, nic, nic.vfPool(vf_index), cfg);
        g->vf->setItrPolicy(makeGuestItr());
        g->vf->setPathTracer(
            &pt,
            pt.registerComponent("vm" + std::to_string(idx) + ".drv"));
        g->vf->init();
        g->netdev = g->vf.get();
        break;
      }
      case NetMode::Pv: {
        g->pv = std::make_unique<drivers::NetfrontDriver>(*g->kern, "eth0",
                                                          g->mac);
        netback(port).connectGuest(*g->pv);
        g->netdev = g->pv.get();
        break;
      }
      case NetMode::Vmdq: {
        g->pv = std::make_unique<drivers::NetfrontDriver>(*g->kern, "eth0",
                                                          g->mac);
        if (!vmdq_backend_ || !vmdq_backend_->assignQueue(*g->pv)) {
            // Out of hardware queues: conventional PV bridge fallback.
            netback(port).connectGuest(*g->pv);
        } else {
            // TX still rides the software bridge.
            g->pv->setBackend(&netback(port));
            netback(port).connectGuest(*g->pv);
        }
        g->netdev = g->pv.get();
        break;
      }
    }

    if (bond_vf_with_pv) {
        if (!g->vf)
            sim::fatal("bonding requires an SR-IOV guest");
        g->pv = std::make_unique<drivers::NetfrontDriver>(
            *g->kern, "eth_pv", g->mac);
        netback(port).connectGuest(*g->pv);
        g->bond = std::make_unique<guest::BondingDriver>("bond0");
        g->bond->addSlave(*g->vf);
        g->bond->addSlave(*g->pv);
        g->netdev = g->bond.get();
    }

    g->stack->attachDevice(*g->netdev);
    if (ObsHooks *oh = obsFor(port))
        installDomainObs(*oh, *g->dom);
    guests_.push_back(std::move(g));
    return *guests_.back();
}

guest::UdpStreamSender &
Testbed::startUdpToGuest(Guest &g, double offered_bps,
                         std::uint32_t payload)
{
    return startUdpToGuestFrom(g.port, g, offered_bps, payload);
}

guest::UdpStreamSender &
Testbed::startUdpToGuestFrom(unsigned client_port, Guest &g,
                             double offered_bps, std::uint32_t payload)
{
    sim::EventQueue &rx_eq = sharded() ? *slices_[g.port].eq : eq_;
    sim::EventQueue &tx_eq =
        sharded() ? *client_islands_[client_port].eq : eq_;
    if (client_port != g.port && !tor_)
        sim::fatal("cross-port stream needs the ToR relay "
                   "(Params.num_hosts > 1)");
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            rx_eq, *g.stack, guest::StreamReceiver::Proto::Udp);
    }
    auto &cs = *client_ports_.at(client_port).stack;
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        tx_eq, cs, g.mac, offered_bps, payload,
        std::uint32_t(guests_.size())));
    udp_senders_.back()->start();
    return *udp_senders_.back();
}

guest::TcpStreamSender &
Testbed::startTcpToGuest(Guest &g, std::uint32_t window,
                         std::uint32_t payload)
{
    sim::EventQueue &rx_eq = sharded() ? *slices_[g.port].eq : eq_;
    sim::EventQueue &tx_eq = sharded() ? *client_islands_[g.port].eq : eq_;
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            rx_eq, *g.stack, guest::StreamReceiver::Proto::Tcp);
    }
    auto &cs = *client_ports_.at(g.port).stack;
    tcp_senders_.push_back(std::make_unique<guest::TcpStreamSender>(
        tx_eq, cs, g.mac, window, payload));
    if (obs_)
        tcp_senders_.back()->setRttTap(&obs_->tcp_rtt_us);
    tcp_senders_.back()->start();
    return *tcp_senders_.back();
}

guest::NetStack &
Testbed::dom0Net(unsigned port)
{
    if (sharded())
        sim::fatal("sharded testbed: dom0 traffic stays inside a "
                   "slice and is not shardable (use --shards=0)");
    auto it = dom0_ports_.find(port);
    if (it == dom0_ports_.end()) {
        Dom0Port dp;
        drivers::VfDriver::Config cfg;
        cfg.name = "dom0_eth" + std::to_string(port);
        cfg.mac = nic::MacAddr::make(3, std::uint16_t(port + 1));
        dp.drv = std::make_unique<drivers::VfDriver>(
            *dom0_kern_, serverNic(port), nic::Pool(0), cfg);
        dp.drv->setItrPolicy(std::make_unique<drivers::AdaptiveItr>());
        dp.drv->setPathTracer(
            pathtrace_.get(),
            pathtrace_->registerComponent("dom0_eth"
                                          + std::to_string(port)
                                          + ".drv"));
        dp.drv->init();
        dp.stack = std::make_unique<guest::NetStack>(*dom0_kern_);
        dp.stack->attachDevice(*dp.drv);
        dp.stack->setPathTracer(
            pathtrace_.get(),
            pathtrace_->registerComponent("dom0_eth"
                                          + std::to_string(port)
                                          + ".net"));
        it = dom0_ports_.emplace(port, std::move(dp)).first;
    }
    return *it->second.stack;
}

guest::UdpStreamSender &
Testbed::startUdpFromDom0(Guest &g, double offered_bps,
                          std::uint32_t payload)
{
    if (sharded())
        sim::fatal("sharded testbed: dom0 senders are not shardable "
                   "(use --shards=0)");
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            eq_, *g.stack, guest::StreamReceiver::Proto::Udp);
    }
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        eq_, dom0Net(g.port), g.mac, offered_bps, payload, 9000));
    udp_senders_.back()->start();
    return *udp_senders_.back();
}

guest::UdpStreamSender &
Testbed::startUdpGuestToGuest(Guest &from, Guest &to, double offered_bps,
                              std::uint32_t payload)
{
    if (sharded())
        sim::fatal("sharded testbed: guest-to-guest traffic is not "
                   "shardable (use --shards=0)");
    if (!to.rx) {
        to.rx = std::make_unique<guest::StreamReceiver>(
            eq_, *to.stack, guest::StreamReceiver::Proto::Udp);
    }
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        eq_, *from.stack, to.mac, offered_bps, payload, 9001));
    udp_senders_.back()->start();
    return *udp_senders_.back();
}

Testbed::Measurement
Testbed::measure(sim::Time warmup, sim::Time window)
{
    run(warmup);
    // One utilization snapshot per hypervisor: the single server
    // machine, or every server slice (index-aligned with slices_).
    std::vector<vmm::Hypervisor::UtilSnapshot> snaps;
    if (sharded()) {
        snaps.reserve(slices_.size());
        for (Island &s : slices_)
            snaps.push_back(s.hv->snapshot());
    } else {
        snaps.push_back(server_->snapshot());
    }
    for (auto &g : guests_) {
        if (g->rx)
            g->rx->takeThroughputBps();    // re-mark the window
    }
    run(window);

    Measurement m;
    m.seconds = window.toSeconds();
    for (auto &g : guests_) {
        double bps = g->rx ? g->rx->takeThroughputBps() : 0.0;
        m.per_guest_bps.push_back(bps);
        m.total_goodput_bps += bps;
    }
    if (sharded()) {
        // Every slice machine has the legacy server's CPU complement,
        // so summing per-slice percentages keeps the legacy scale
        // (port work that shared 16 pCPUs now adds across slices).
        for (std::size_t k = 0; k < slices_.size(); ++k) {
            for (const auto &[tag, pct] :
                 slices_[k].hv->cpuPercentByTag(snaps[k]))
                m.cpu_by_tag[tag] += pct;
        }
    } else {
        m.cpu_by_tag = server_->cpuPercentByTag(snaps[0]);
    }
    for (const auto &[tag, pct] : m.cpu_by_tag) {
        m.total_pct += pct;
        if (tag == "xen") {
            m.xen_pct += pct;
        } else if (tag.rfind("dom0", 0) == 0) {
            m.dom0_pct += pct;
        } else if (tag.rfind("vm", 0) == 0) {
            m.guests_pct += pct;
        }
    }
    return m;
}

Testbed::ObsHooks::ObsHooks()
    // Bucket layouts are tuned to each quantity's range: delivery
    // latency spans sub-µs HVM injection to 10 ms paused-domain
    // retries; exit costs run from ~10² cycles to the slow emulate
    // paths; ring occupancy is bounded by the 1024-deep ring.
    : intr_latency_us(obs::Histogram::Params{0.125, 1.5, 48}),
      ring_occupancy(obs::Histogram::Params{1.0, 2.0, 14}),
      tcp_rtt_us(obs::Histogram::Params{10.0, 1.5, 40})
{
    exit_cost_cycles.reserve(unsigned(vmm::ExitReason::Count));
    for (unsigned i = 0; i < unsigned(vmm::ExitReason::Count); ++i) {
        exit_cost_cycles.emplace_back(
            obs::Histogram::Params{50.0, 1.3, 48});
    }
}

Testbed::ObsHooks &
Testbed::enableObs()
{
    if (sharded()) {
        // One ObsHooks set per server slice: histogram inserts are
        // island-local, so workers never share a tap. The TCP RTT tap
        // is the one cross-island hook (sender on the client island,
        // histogram on a slice) and is skipped in sharded mode.
        if (!slices_.front().obs) {
            for (std::size_t i = 0; i < slices_.size(); ++i) {
                Island &s = slices_[i];
                s.obs = std::make_unique<ObsHooks>();
                s.hv->setIntrLatencyHistogram(&s.obs->intr_latency_us);
                installDomainObs(*s.obs, s.hv->dom0());
                installRingObs(*s.obs, *ports_[i]);
            }
            for (auto &g : guests_)
                installDomainObs(*slices_[g->port].obs, *g->dom);
        }
        return *slices_.front().obs;
    }
    if (obs_)
        return *obs_;
    obs_ = std::make_unique<ObsHooks>();
    server_->setIntrLatencyHistogram(&obs_->intr_latency_us);
    installDomainObs(*obs_, server_->dom0());
    for (auto &g : guests_)
        installDomainObs(*obs_, *g->dom);
    for (auto &p : ports_)
        installRingObs(*obs_, *p);
    if (vmdq_nic_)
        installRingObs(*obs_, *vmdq_nic_);
    for (auto &s : tcp_senders_)
        s->setRttTap(&obs_->tcp_rtt_us);
    return *obs_;
}

void
Testbed::installDomainObs(ObsHooks &obs, vmm::Domain &dom)
{
    for (unsigned r = 0; r < unsigned(vmm::ExitReason::Count); ++r) {
        dom.exits().setCostTap(vmm::ExitReason(r),
                               &obs.exit_cost_cycles[r]);
    }
}

void
Testbed::installRingObs(ObsHooks &obs, nic::NicPort &nic)
{
    // Taps live on the rings; VF disable destroys ring and tap
    // together, so nothing dangles (the histograms outlive the NIC).
    for (unsigned p = 0; p < nic.poolCount(); ++p)
        nic.rxRing(nic::Pool(p)).setOccupancyTap(&obs.ring_occupancy);
}

namespace {

/** Metric-path component from an exit-reason name ("I/O" has a '/'). */
std::string
metricName(const char *s)
{
    std::string out(s);
    for (char &c : out) {
        if (c == '/' || c == '.')
            c = '_';
    }
    return out;
}

} // namespace

void
Testbed::registerMetrics(obs::MetricRegistry &reg, const std::string &prefix)
{
    using Reg = obs::MetricRegistry;
    auto path = [&prefix](const std::string &rest) {
        return Reg::join(prefix, rest);
    };

    // eq.executed is deliberately NOT a metric: it counts simulator
    // events, which event thinning changes by design. It lives in the
    // figXX.perf.json sidecar instead, keeping figXX.json reports
    // byte-identical between thinned and --no-thin runs (CI diffs
    // them).
    if (sharded()) {
        // Per-slice routers: export the slice sum so the metric keeps
        // its legacy meaning (all server-side deliveries).
        reg.addGauge(path("intr.delivered"), [this]() {
            double v = 0;
            for (const Island &s : slices_)
                v += double(s.hv->router().deliveredCounter().value());
            return v;
        });
        reg.addGauge(path("intr.spurious"), [this]() {
            double v = 0;
            for (const Island &s : slices_)
                v += double(s.hv->router().spuriousCounter().value());
            return v;
        });
    } else {
        reg.add(path("intr.delivered"),
                &server_->router().deliveredCounter());
        reg.add(path("intr.spurious"),
                &server_->router().spuriousCounter());
    }

    // Pool statistics register as bounds-checking gauges: VF disable
    // shrinks the pool vector, and a gauge re-resolves per snapshot.
    struct Field
    {
        const char *suffix;
        std::function<double(const nic::NicPort::PoolStats &)> get;
    };
    static const Field kFields[] = {
        {"rx_frames",
         [](const auto &s) { return double(s.rx_frames.value()); }},
        {"rx_bytes",
         [](const auto &s) { return double(s.rx_bytes.value()); }},
        {"rx_drops",
         [](const auto &s) {
             return double(s.rx_drop_ring.value()
                           + s.rx_drop_master.value()
                           + s.rx_drop_iommu.value());
         }},
        {"tx_frames",
         [](const auto &s) { return double(s.tx_frames.value()); }},
        {"tx_bytes",
         [](const auto &s) { return double(s.tx_bytes.value()); }},
        {"tx_dropped",
         [](const auto &s) { return double(s.tx_dropped.value()); }},
        {"interrupts",
         [](const auto &s) { return double(s.interrupts.value()); }},
    };

    auto addPort = [&](nic::NicPort &nic, const std::string &nic_name) {
        reg.addGauge(path(nic_name + ".rx_drop_no_match"),
                     [&nic]() { return double(nic.rxDropNoMatch()); });
        for (unsigned p = 0; p < nic.poolCount(); ++p) {
            std::string pool_name =
                p == 0 ? "pf" : "vf" + std::to_string(p - 1);
            for (const Field &f : kFields) {
                reg.addGauge(
                    path(nic_name + "." + pool_name + "." + f.suffix),
                    [&nic, p, get = &f.get]() {
                        if (p >= nic.poolCount())
                            return 0.0;
                        return (*get)(nic.poolStats(nic::Pool(p)));
                    });
            }
        }
    };
    for (unsigned i = 0; i < portCount(); ++i)
        addPort(*ports_[i], "nic" + std::to_string(i));
    if (vmdq_nic_)
        addPort(*vmdq_nic_, "vmdq");

    auto addDomain = [&](vmm::Domain &dom, const std::string &name) {
        reg.addGauge(path(name + ".vm_exits"),
                     [&dom]() { return dom.exits().totalCount(); });
        reg.addGauge(path(name + ".vm_exit_cycles"),
                     [&dom]() { return dom.exits().totalCycles(); });
    };
    if (sharded()) {
        reg.addGauge(path("dom0.vm_exits"), [this]() {
            double v = 0;
            for (const Island &s : slices_)
                v += double(s.hv->dom0().exits().totalCount());
            return v;
        });
        reg.addGauge(path("dom0.vm_exit_cycles"), [this]() {
            double v = 0;
            for (const Island &s : slices_)
                v += double(s.hv->dom0().exits().totalCycles());
            return v;
        });
    } else {
        addDomain(server_->dom0(), "dom0");
    }
    for (std::size_t g = 0; g < guests_.size(); ++g) {
        std::string name = "vm" + std::to_string(g);
        addDomain(*guests_[g]->dom, name);
        reg.addGauge(path(name + ".rx_bytes"), [this, g]() {
            const auto &gg = *guests_.at(g);
            return gg.rx ? double(gg.rx->rxBytes()) : 0.0;
        });
        reg.addGauge(path(name + ".rx_packets"), [this, g]() {
            const auto &gg = *guests_.at(g);
            return gg.rx ? double(gg.rx->rxPackets()) : 0.0;
        });
    }

    if (sharded()) {
        // One histogram block per slice ("hist.s3.*"): merging
        // log-bucketed histograms would lose counts, and the per-slice
        // form is still byte-stable across shard counts.
        for (std::size_t k = 0; k < slices_.size(); ++k) {
            const Island &s = slices_[k];
            if (!s.obs)
                continue;
            std::string hp = "hist.s" + std::to_string(k) + ".";
            reg.add(path(hp + "intr_latency_us"),
                    &s.obs->intr_latency_us);
            reg.add(path(hp + "ring_occupancy"),
                    &s.obs->ring_occupancy);
            for (unsigned r = 0; r < unsigned(vmm::ExitReason::Count);
                 ++r) {
                reg.add(path(hp + "exit_cost."
                             + metricName(vmm::exitReasonName(
                                 vmm::ExitReason(r)))),
                        &s.obs->exit_cost_cycles[r]);
            }
        }
    } else if (obs_) {
        reg.add(path("hist.intr_latency_us"), &obs_->intr_latency_us);
        reg.add(path("hist.ring_occupancy"), &obs_->ring_occupancy);
        reg.add(path("hist.tcp_rtt_us"), &obs_->tcp_rtt_us);
        for (unsigned r = 0; r < unsigned(vmm::ExitReason::Count); ++r) {
            reg.add(path("hist.exit_cost."
                         + metricName(
                             vmm::exitReasonName(vmm::ExitReason(r)))),
                    &obs_->exit_cost_cycles[r]);
        }
    }
}

void
Testbed::attachObsTrace(obs::ChromeTraceWriter &w)
{
    if (sharded()) {
        // Attaching installs queue observers, so the next run degrades
        // to the sequential schedule — same results, full trace.
        for (std::size_t i = 0; i < slices_.size(); ++i) {
            const std::string si = std::to_string(i);
            w.attachEventQueue(*slices_[i].eq, "sim.s" + si);
            vmm::Hypervisor &hv = *slices_[i].hv;
            for (unsigned c = 0; c < hv.pcpuCount(); ++c)
                w.attachCpu(hv.pcpu(c), "server.s" + si);
        }
        for (std::size_t i = 0; i < client_islands_.size(); ++i) {
            const std::string si = std::to_string(i);
            w.attachEventQueue(*client_islands_[i].eq, "sim.c" + si);
            vmm::Hypervisor &hv = *client_islands_[i].hv;
            for (unsigned c = 0; c < hv.pcpuCount(); ++c)
                w.attachCpu(hv.pcpu(c), "client.s" + si);
        }
        return;
    }
    w.attachEventQueue(eq_, "sim");
    for (unsigned i = 0; i < server_->pcpuCount(); ++i)
        w.attachCpu(server_->pcpu(i), "server");
    for (unsigned i = 0; i < client_->pcpuCount(); ++i)
        w.attachCpu(client_->pcpu(i), "client");
}

Testbed::ObsHooks *
Testbed::obsFor(unsigned port)
{
    if (sharded())
        return slices_.at(port).obs.get();
    return obs_.get();
}

void
Testbed::fluidVisit(sim::FluidVisitor &v)
{
    if (sharded()) {
        // Sharded walk, island build order (slices then clients, the
        // engine index order) — only legal at a quiescent barrier:
        // wires_ includes the cross-island channels' in-flight frames.
        // The partition is fixed for every shard count >= 1, so the
        // slot sequence — and with it every warp decision — is
        // byte-identical across shard counts.
        for (Island &s : slices_) {
            s.hv->fluidVisit(v);
            s.dom0->fluidVisit(v);
        }
        for (Island &c : client_islands_)
            c.hv->fluidVisit(v);
        for (auto &n : ports_)
            n->fluidVisit(v);
        for (auto &w : wires_)
            w->fluidVisit(v);
        // The ToR relay is stateless between wire hops; its drop
        // counter is the only scalar (zero-delta when nothing is
        // misrouted, and any misroute mid-probe rightly fails the
        // certificate).
        if (tor_)
            v.u64("tor.unroutable", tor_->unroutable_drops);
        for (auto &pf : pf_drivers_)
            pf->fluidVisit(v);
        for (ClientPort &cp : client_ports_) {
            cp.nic->fluidVisit(v);
            cp.kern->fluidVisit(v);
            cp.drv->fluidVisit(v);
            cp.stack->fluidVisit(v);
        }
        for (auto &gp : guests_) {
            Guest &g = *gp;
            g.kern->fluidVisit(v);
            g.stack->fluidVisit(v);
            if (g.vf)
                g.vf->fluidVisit(v);
            if (g.rx)
                g.rx->fluidVisit(v);
        }
        for (auto &s : udp_senders_)
            s->fluidVisit(v);
        for (auto &s : tcp_senders_)
            s->fluidVisit(v);
        for (Island &s : slices_) {
            if (!s.obs)
                continue;
            s.obs->intr_latency_us.fluidVisit(v, "obs.intr_latency");
            for (auto &h : s.obs->exit_cost_cycles)
                h.fluidVisit(v, "obs.exit_cost");
            s.obs->ring_occupancy.fluidVisit(v, "obs.ring_occupancy");
        }
        return;
    }
    // Build order, so the slot sequence is reproducible run to run.
    server_->fluidVisit(v);
    client_->fluidVisit(v);
    dom0_kern_->fluidVisit(v);
    for (auto &n : ports_)
        n->fluidVisit(v);
    if (vmdq_nic_)
        vmdq_nic_->fluidVisit(v);
    for (auto &w : wires_)
        w->fluidVisit(v);
    for (auto &pf : pf_drivers_)
        pf->fluidVisit(v);
    for (auto &[port, nb] : netbacks_)
        nb->fluidVisit(v);
    if (vmdq_backend_)
        vmdq_backend_->fluidVisit(v);
    for (ClientPort &cp : client_ports_) {
        cp.nic->fluidVisit(v);
        cp.kern->fluidVisit(v);
        cp.drv->fluidVisit(v);
        cp.stack->fluidVisit(v);
    }
    for (auto &[port, dp] : dom0_ports_) {
        dp.drv->fluidVisit(v);
        dp.stack->fluidVisit(v);
    }
    for (auto &gp : guests_) {
        Guest &g = *gp;
        g.kern->fluidVisit(v);
        g.stack->fluidVisit(v);
        if (g.vf)
            g.vf->fluidVisit(v);
        if (g.pv)
            g.pv->fluidVisit(v);
        if (g.bond)
            g.bond->fluidVisit(v);
        if (g.rx)
            g.rx->fluidVisit(v);
    }
    for (auto &s : udp_senders_)
        s->fluidVisit(v);
    for (auto &s : tcp_senders_)
        s->fluidVisit(v);
    if (obs_) {
        obs_->intr_latency_us.fluidVisit(v, "obs.intr_latency");
        for (auto &h : obs_->exit_cost_cycles)
            h.fluidVisit(v, "obs.exit_cost");
        obs_->ring_occupancy.fluidVisit(v, "obs.ring_occupancy");
        obs_->tcp_rtt_us.fluidVisit(v, "obs.tcp_rtt");
    }
    // Deliberately unvisited: the path tracer (trails have gaps over
    // warped spans by design), migration and the IOV manager (control
    // plane — any churn they cause reports a transition and ends the
    // segment at the exact schedule).
}

void
Testbed::watchAll(check::InvariantChecker &chk)
{
    if (sharded())
        sim::fatal("sharded testbed: watchAll() is single-stream; run "
                   "the invariant checker with --shards=0");
    for (unsigned i = 0; i < portCount(); ++i) {
        nic::SriovNic &p = *ports_[i];
        std::string pn = "port" + std::to_string(i);
        chk.watchSwitch(pn + ".l2", p.l2());
        for (unsigned pool = 0; pool < p.poolCount(); ++pool) {
            chk.watchRing(pn + ".pool" + std::to_string(pool) + ".rx",
                          p.rxRing(nic::Pool(pool)));
        }
        chk.watchFunction(p.pf());
    }
    if (vmdq_nic_) {
        chk.watchSwitch("vmdq.l2", vmdq_nic_->l2());
        for (unsigned q = 0; q < vmdq_nic_->poolCount(); ++q) {
            chk.watchRing("vmdq.q" + std::to_string(q) + ".rx",
                          vmdq_nic_->rxRing(nic::Pool(q)));
        }
        chk.watchFunction(vmdq_nic_->pf());
    }
    for (std::size_t i = 0; i < wires_.size(); ++i)
        chk.watchWire("wire" + std::to_string(i), *wires_[i]);
    chk.watchRouter(server_->router());
    chk.watchRouter(client_->router());
    for (const ClientPort &cp : client_ports_) {
        if (cp.nic)
            chk.watchFunction(cp.nic->pf());
    }
    auto watchDomainLapics = [&chk](vmm::Domain &dom,
                                    const std::string &name) {
        for (unsigned v = 0; v < dom.vcpuCount(); ++v) {
            chk.watchLapic(name + ".vcpu" + std::to_string(v),
                           dom.vcpu(v).vlapic().chip());
        }
    };
    watchDomainLapics(server_->dom0(), "dom0");
    for (std::size_t g = 0; g < guests_.size(); ++g) {
        if (guests_[g]->dom != nullptr) {
            watchDomainLapics(*guests_[g]->dom,
                              "guest" + std::to_string(g));
        }
    }
    // Violation reports carry the flight recorder's packet trails.
    chk.attachPathTracer(pathtrace_.get());
}

} // namespace sriov::core
