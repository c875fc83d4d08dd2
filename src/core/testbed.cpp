#include "core/testbed.hpp"

#include "check/invariant_checker.hpp"
#include "sim/log.hpp"

namespace sriov::core {

Testbed::Testbed(Params p) : params_(std::move(p))
{
    build();
    if (sim::fluidEnabled())
        buildFluid();
}

/**
 * The top-of-rack relay: one island owning the ToR end of every wire.
 * Forwarding is a static MAC table filled at build time (client NICs)
 * and at addGuest (guest VF MACs) — a lookup and a re-send on the
 * destination's downlink, no learning, no flooding. Deterministic by
 * construction: the table is keyed by MAC value and the relay runs on
 * its own island like any other.
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

    unsigned island = 0;    ///< engine island index (the last one)
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
Testbed::build()
{
    // The partition: one island for the whole machine, or (--shards)
    // a server slice and a client island per port, plus the ToR relay
    // island for a rack.
    const bool parted = sim::shardCount() != 0;
    if (parted && params_.use_vmdq_nic)
        sim::fatal("sharded testbed: the VMDq topology has no island "
                   "partition (use --shards=0)");
    if (!parted && params_.num_hosts > 1)
        sim::fatal("multi-host testbed: the ToR relay is an island "
                   "(use --shards=N)");
    // Multi-host racks replicate the whole per-port structure: global
    // port g = host * num_ports + local port, every name and BDF keyed
    // by g so nothing collides across hosts.
    const unsigned nports =
        params_.use_vmdq_nic ? 1 : params_.num_ports * params_.num_hosts;
    const unsigned machines = parted ? nports : 1;
    const unsigned islands =
        parted ? 2 * machines + (params_.num_hosts > 1 ? 1 : 0) : 1;

    // Island order is the digest fold order: slices 0..P-1, clients
    // P..2P-1, then the ToR — fixed by the partition, not the worker
    // count. Tracers exist before any component, so registration order
    // (and every artifact built from it) is build order. On a partition
    // each island stamps into its own tracer in shard-half mode, and
    // pathSnapshot() joins the halves by trace id.
    engine_ = std::make_unique<sim::ShardEngine>(
        parted ? sim::shardCount() : 1);
    for (unsigned k = 0; k < islands; ++k) {
        queues_.push_back(std::make_unique<sim::EventQueue>());
        tracers_.push_back(std::make_unique<obs::PathTracer>());
        tracers_.back()->setShardHalf(parted);
        engine_->addIsland(*queues_.back());
    }
    if (params_.num_hosts > 1) {
        tor_ = std::make_unique<TorRelay>();
        tor_->island = islands - 1;
    }

    // Every hypervisor (servers, then clients) before any server-side
    // software: the single-island build order the golden digest pins.
    vmm::Hypervisor::MachineParams mp;
    auto addMachine = [&](std::vector<Machine> &list, unsigned island) {
        Machine m;
        m.island = island;
        m.eq = queues_[island].get();
        m.pt = tracers_[island].get();
        m.hv = std::make_unique<vmm::Hypervisor>(*m.eq, params_.costs, mp);
        list.push_back(std::move(m));
    };
    for (unsigned k = 0; k < machines; ++k)
        addMachine(servers_, k);
    for (unsigned k = 0; k < machines; ++k)
        addMachine(clients_, parted ? machines + k : 0);
    for (Machine &s : servers_) {
        params_.opts.apply(*s.hv);
        s.iovm = std::make_unique<IovManager>(*s.hv);
        s.dom0 = std::make_unique<guest::GuestKernel>(
            *s.hv, s.hv->dom0(), guest::KernelVersion::v2_6_28);
    }
    migration_ = std::make_unique<vmm::MigrationManager>(*servers_.front().hv);

    const double line = params_.use_vmdq_nic ? 10e9 : params_.line_bps;
    for (unsigned i = 0; i < nports; ++i) {
        Machine &sv = serverOf(i);
        Machine &cl = clientOf(i);
        const std::string pi = std::to_string(i);

        // Server-side NIC for this port.
        nic::NicPort *server_end = nullptr;
        if (params_.use_vmdq_nic) {
            nic::VmdqNic::VmdqParams vp;
            vmdq_nic_ = std::make_unique<nic::VmdqNic>(
                *sv.eq, "vmdq0", pci::Bdf{1, 0, 0}, vp);
            vmdq_nic_->setIommu(&sv.hv->iommu());
            sv.hv->rootComplex().plug(vmdq_nic_->pf());
            vmdq_backend_ = std::make_unique<drivers::VmdqBackend>(
                *sv.dom0, *vmdq_nic_, drivers::VmdqBackend::Config{});
            server_end = vmdq_nic_.get();
        } else {
            nic::SriovNic::SriovParams sp;
            sp.total_vfs = std::uint16_t(params_.vfs_per_port);
            // One bus per port so the VF RID windows (PF RID + 0x80 +
            // 2*i) can never collide across ports.
            auto nic = std::make_unique<nic::SriovNic>(
                *sv.eq, "eth_p" + pi, pci::Bdf{std::uint8_t(1 + i), 0, 0},
                sp);
            nic->setIommu(&sv.hv->iommu());
            sv.iovm->registerNic(*nic);
            auto pf = std::make_unique<drivers::PfDriver>(*sv.dom0, *nic);
            pf->enableVfs(params_.vfs_per_port);
            server_end = nic.get();
            ports_.push_back(std::move(nic));
            pf_drivers_.push_back(std::move(pf));
        }

        // The port's wire. In a rack it is two hops through the ToR,
        // server port g <-> ToR and ToR <-> client port g, each its own
        // full-duplex wire; the relay re-serializes at line rate, so a
        // steady stream stays steady, just offset by one
        // store-and-forward latency.
        nic::Wire *srv_wire = nullptr;    // the wire at the server NIC
        nic::Wire *cli_wire = nullptr;    // the wire at the client NIC
        TorRelay::Port *tor_srv = nullptr;
        TorRelay::Port *tor_cli = nullptr;
        if (tor_) {
            srv_wire = &addWire(sv.island, tor_->island, line);
            tor_srv = &tor_->addPort();
            cli_wire = &addWire(cl.island, tor_->island, line);
            tor_cli = &tor_->addPort();
        } else {
            srv_wire = cli_wire = &addWire(sv.island, cl.island, line);
        }

        // Client-side machine port.
        ClientPort cp;
        // The client machine is not under test: give its adapters a
        // fast PCIe path so they never bound the experiment.
        nic::PlainNic::Params cnp;
        cnp.dma.link_bps = 16e9;
        cnp.dma.per_dma_overhead = sim::Time::ns(100);
        cp.nic = std::make_unique<nic::PlainNic>(
            *cl.eq, "cli_p" + pi, pci::Bdf{std::uint8_t(1 + i), 0, 0}, cnp);
        cl.hv->rootComplex().plug(cp.nic->pf());
        cp.dom = &cl.hv->createDomain("cli" + pi, vmm::DomainType::Native,
                                      64ull << 20);
        cp.kern = std::make_unique<guest::GuestKernel>(*cl.hv, *cp.dom);
        drivers::VfDriver::Config dcfg;
        dcfg.name = "cli_eth" + pi;
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
            // Routes: the client NIC's MAC answers on its uplink; the
            // guests behind this port register in addGuest against the
            // server downlink recorded here.
            tor_->addRoute(dcfg.mac, *cli_wire, *tor_cli);
            tor_->server_down.push_back(TorRelay::Link{srv_wire, tor_srv});
        } else {
            srv_wire->connect(*server_end, *cp.nic);
        }
        server_end->attachWire(*srv_wire);
        cp.nic->attachWire(*cli_wire);

        // Path-tracer wiring for this port's whole chain.
        server_end->setPathTracer(sv.pt);
        if (tor_) {
            traceWire(*srv_wire, sv.island, tor_->island,
                      "wire" + pi + ".s");
            traceWire(*cli_wire, cl.island, tor_->island,
                      "wire" + pi + ".c");
        } else {
            traceWire(*srv_wire, sv.island, cl.island, "wire" + pi);
        }
        cp.nic->setPathTracer(cl.pt);
        cp.drv->setPathTracer(cl.pt,
                              cl.pt->registerComponent("cli" + pi + ".drv"));
        cp.stack->setPathTracer(
            cl.pt, cl.pt->registerComponent("cli" + pi + ".net"));

        client_ports_.push_back(std::move(cp));
    }

    // Auxiliary delivery marks: every MSI reaching a router drops a
    // trace_id-0 record, so flight-recorder dumps show interrupt
    // activity interleaved with packet trails. Pure observation — the
    // tap neither schedules nor mutates.
    auto tapRouter = [](Machine &m, const char *name) {
        std::uint16_t comp = m.pt->registerComponent(name);
        obs::PathTracer *pt = m.pt;
        sim::EventQueue *q = m.eq;
        m.hv->router().addDeliveryTap(
            [pt, q, comp](pci::Rid, const pci::MsiMessage &) {
                pt->mark(comp, obs::PathStage::LapicDeliver, q->now());
            });
    };
    for (Machine &s : servers_)
        tapRouter(s, "server.intr");
    for (Machine &c : clients_)
        tapRouter(c, "client.intr");
}

nic::Wire &
Testbed::addWire(unsigned island_a, unsigned island_b, double line_bps)
{
    nic::Wire::Params wp;
    wp.line_bps = line_bps;
    if (island_a == island_b) {
        wires_.push_back(
            std::make_unique<nic::Wire>(*queues_[island_a], wp));
        return *wires_.back();
    }
    // Across islands the wire is the engine edge: it pushes (due,
    // frame) messages between the two queues with the propagation
    // delay as lookahead. Conservative sync advances islands at most
    // one lookahead per round trip, and the 100 m patch cable's 500 ns
    // would drown the run in sync rounds, so a partition strings a
    // 1 km run (5 us) instead. The partition is the same for every
    // shard count >= 1, so byte-identity holds; throughput and CPU
    // figures don't see propagation (open-loop senders), only path
    // latency does.
    wp.propagation = sim::Time::us(5);
    wires_.push_back(std::make_unique<nic::Wire>(
        *queues_[island_a], *queues_[island_b], *engine_, island_a,
        island_b, wp));
    return *wires_.back();
}

void
Testbed::traceWire(nic::Wire &w, unsigned island_a, unsigned island_b,
                   const std::string &name)
{
    obs::PathTracer *a = tracers_[island_a].get();
    if (island_a == island_b) {
        w.setPathTracer(a, a->registerComponent(name));
        return;
    }
    obs::PathTracer *b = tracers_[island_b].get();
    w.setShardPathTracers(a, a->registerComponent(name), b,
                          b->registerComponent(name));
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
    // coordinator refuses to warp while any is in flight. (A partition
    // refuses PV guests, so there the gate is only a safety net.)
    auto gate = [this]() {
        static const char *const opaque[] = {"dom0-netback"};
        auto idle = [](std::vector<Machine> &machines) {
            for (Machine &m : machines) {
                for (unsigned i = 0; i < m.hv->pcpuCount(); ++i) {
                    if (m.hv->pcpu(i).hasWorkTagged(opaque, 1))
                        return false;
                }
            }
            return true;
        };
        return idle(servers_) && idle(clients_);
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
    return *queues_.front();
}

vmm::Hypervisor &
Testbed::server()
{
    if (sharded())
        sim::fatal("testbed: server() on a sharded testbed (one "
                   "hypervisor per slice)");
    return *servers_.front().hv;
}

vmm::Hypervisor &
Testbed::client()
{
    if (sharded())
        sim::fatal("testbed: client() on a sharded testbed (one "
                   "hypervisor per client island)");
    return *clients_.front().hv;
}

IovManager &
Testbed::iovm()
{
    if (sharded())
        sim::fatal("testbed: iovm() on a sharded testbed (one manager "
                   "per slice)");
    return *servers_.front().iovm;
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
    return *servers_.front().dom0;
}

const obs::PathTracer &
Testbed::pathTracer() const
{
    if (sharded())
        sim::fatal("testbed: pathTracer() on a sharded testbed (use "
                   "pathSnapshot())");
    return *tracers_.front();
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
    return queues_.front()->now();
}

std::uint64_t
Testbed::executedEvents() const
{
    return engine_->executedEvents();
}

std::uint64_t
Testbed::orderDigest() const
{
    return sharded() ? engine_->foldedDigest()
                     : queues_.front()->orderDigest();
}

obs::PathSnapshot
Testbed::pathSnapshot() const
{
    if (!sharded())
        return tracers_.front()->snapshot();
    std::vector<const obs::PathTracer *> parts;
    parts.reserve(tracers_.size());
    for (const auto &pt : tracers_)
        parts.push_back(pt.get());
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
        auto nb = std::make_unique<drivers::NetbackDriver>(
            *servers_.front().dom0, cfg);
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

    // The server machine the guest builds against.
    Machine &sv = serverOf(port);
    vmm::Hypervisor &hv = *sv.hv;
    obs::PathTracer &pt = *sv.pt;

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
        sv.iovm->assign(*g->dom, nic, vf_index);
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
    if (sv.obs)
        installDomainObs(*sv.obs, *g->dom);
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
    if (client_port != g.port && !tor_)
        sim::fatal("cross-port stream needs the ToR relay "
                   "(Params.num_hosts > 1)");
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            *serverOf(g.port).eq, *g.stack,
            guest::StreamReceiver::Proto::Udp);
    }
    auto &cs = *client_ports_.at(client_port).stack;
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        *clientOf(client_port).eq, cs, g.mac, offered_bps, payload,
        std::uint32_t(guests_.size())));
    udp_senders_.back()->start();
    return *udp_senders_.back();
}

guest::TcpStreamSender &
Testbed::startTcpToGuest(Guest &g, std::uint32_t window,
                         std::uint32_t payload)
{
    Machine &sv = serverOf(g.port);
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            *sv.eq, *g.stack, guest::StreamReceiver::Proto::Tcp);
    }
    auto &cs = *client_ports_.at(g.port).stack;
    tcp_senders_.push_back(std::make_unique<guest::TcpStreamSender>(
        *clientOf(g.port).eq, cs, g.mac, window, payload));
    // On a partition the RTT tap would cross islands (sender on the
    // client island, histogram on the slice): a single island only.
    if (!sharded() && sv.obs)
        tcp_senders_.back()->setRttTap(&sv.obs->tcp_rtt_us);
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
        Machine &sv = servers_.front();
        const std::string name = "dom0_eth" + std::to_string(port);
        Dom0Port dp;
        drivers::VfDriver::Config cfg;
        cfg.name = name;
        cfg.mac = nic::MacAddr::make(3, std::uint16_t(port + 1));
        dp.drv = std::make_unique<drivers::VfDriver>(
            *sv.dom0, serverNic(port), nic::Pool(0), cfg);
        dp.drv->setItrPolicy(std::make_unique<drivers::AdaptiveItr>());
        dp.drv->setPathTracer(sv.pt,
                              sv.pt->registerComponent(name + ".drv"));
        dp.drv->init();
        dp.stack = std::make_unique<guest::NetStack>(*sv.dom0);
        dp.stack->attachDevice(*dp.drv);
        dp.stack->setPathTracer(sv.pt,
                                sv.pt->registerComponent(name + ".net"));
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
    sim::EventQueue &eq = *queues_.front();
    if (!g.rx) {
        g.rx = std::make_unique<guest::StreamReceiver>(
            eq, *g.stack, guest::StreamReceiver::Proto::Udp);
    }
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        eq, dom0Net(g.port), g.mac, offered_bps, payload, 9000));
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
    sim::EventQueue &eq = *queues_.front();
    if (!to.rx) {
        to.rx = std::make_unique<guest::StreamReceiver>(
            eq, *to.stack, guest::StreamReceiver::Proto::Udp);
    }
    udp_senders_.push_back(std::make_unique<guest::UdpStreamSender>(
        eq, *from.stack, to.mac, offered_bps, payload, 9001));
    udp_senders_.back()->start();
    return *udp_senders_.back();
}

Testbed::Measurement
Testbed::measure(sim::Time warmup, sim::Time window)
{
    run(warmup);
    // One utilization snapshot per server machine.
    std::vector<vmm::Hypervisor::UtilSnapshot> snaps;
    snaps.reserve(servers_.size());
    for (Machine &s : servers_)
        snaps.push_back(s.hv->snapshot());
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
    // Every slice has the whole server's CPU complement, so summing
    // per-slice percentages keeps the single machine's scale (port
    // work that shared 16 pCPUs adds across slices).
    for (std::size_t k = 0; k < servers_.size(); ++k) {
        for (const auto &[tag, pct] :
             servers_[k].hv->cpuPercentByTag(snaps[k]))
            m.cpu_by_tag[tag] += pct;
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
    // One histogram set per server machine: inserts stay island-local,
    // so workers never share a tap.
    if (!servers_.front().obs) {
        for (Machine &s : servers_) {
            s.obs = std::make_unique<ObsHooks>();
            s.hv->setIntrLatencyHistogram(&s.obs->intr_latency_us);
            installDomainObs(*s.obs, s.hv->dom0());
        }
        for (auto &g : guests_)
            installDomainObs(*serverOf(g->port).obs, *g->dom);
        for (unsigned i = 0; i < portCount(); ++i)
            installRingObs(*serverOf(i).obs, *ports_[i]);
        if (vmdq_nic_)
            installRingObs(*servers_.front().obs, *vmdq_nic_);
        if (!sharded()) {
            for (auto &s : tcp_senders_)
                s->setRttTap(&servers_.front().obs->tcp_rtt_us);
        }
    }
    return *servers_.front().obs;
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
    //
    // Interrupt totals: the server's own counters on a single island;
    // on a partition, gauges summing the slice routers (all server-side
    // deliveries either way, but reports print each metric's kind).
    if (sharded()) {
        reg.addGauge(path("intr.delivered"), [this]() {
            double v = 0;
            for (const Machine &s : servers_)
                v += double(s.hv->router().deliveredCounter().value());
            return v;
        });
        reg.addGauge(path("intr.spurious"), [this]() {
            double v = 0;
            for (const Machine &s : servers_)
                v += double(s.hv->router().spuriousCounter().value());
            return v;
        });
    } else {
        vmm::Hypervisor &hv = *servers_.front().hv;
        reg.add(path("intr.delivered"), &hv.router().deliveredCounter());
        reg.add(path("intr.spurious"), &hv.router().spuriousCounter());
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
    // dom0 sums the server machines' dom0s (one, or one per slice).
    reg.addGauge(path("dom0.vm_exits"), [this]() {
        double v = 0;
        for (const Machine &s : servers_)
            v += s.hv->dom0().exits().totalCount();
        return v;
    });
    reg.addGauge(path("dom0.vm_exit_cycles"), [this]() {
        double v = 0;
        for (const Machine &s : servers_)
            v += s.hv->dom0().exits().totalCycles();
        return v;
    });
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

    // One histogram block per server machine: "hist.*" on a single
    // island, "hist.s3.*" per slice — merging log-bucketed histograms
    // would lose counts, and the per-slice form is still byte-stable
    // across shard counts. Only a single island has the TCP RTT one.
    for (std::size_t k = 0; k < servers_.size(); ++k) {
        const Machine &s = servers_[k];
        if (!s.obs)
            continue;
        const std::string hp =
            sharded() ? "hist.s" + std::to_string(k) + "." : "hist.";
        reg.add(path(hp + "intr_latency_us"), &s.obs->intr_latency_us);
        reg.add(path(hp + "ring_occupancy"), &s.obs->ring_occupancy);
        if (!sharded())
            reg.add(path(hp + "tcp_rtt_us"), &s.obs->tcp_rtt_us);
        for (unsigned r = 0; r < unsigned(vmm::ExitReason::Count); ++r) {
            reg.add(path(hp + "exit_cost."
                         + metricName(
                             vmm::exitReasonName(vmm::ExitReason(r)))),
                    &s.obs->exit_cost_cycles[r]);
        }
    }
}

void
Testbed::attachObsTrace(obs::ChromeTraceWriter &w)
{
    // Track names: one "sim" queue with "server" and "client" CPUs on a
    // single island; per island "sim.s<i>"/"sim.c<i>" queues and
    // "server.s<i>"/"client.s<i>" CPUs on a partition. There, attaching
    // installs queue observers, so the next run degrades to the
    // sequential schedule — same results, full trace.
    if (!sharded())
        w.attachEventQueue(*queues_.front(), "sim");
    auto attach = [&](std::vector<Machine> &machines, const char *role,
                      const char *queue) {
        for (std::size_t i = 0; i < machines.size(); ++i) {
            std::string track = role;
            if (sharded()) {
                const std::string si = std::to_string(i);
                w.attachEventQueue(*machines[i].eq, queue + si);
                track += ".s" + si;
            }
            vmm::Hypervisor &hv = *machines[i].hv;
            for (unsigned c = 0; c < hv.pcpuCount(); ++c)
                w.attachCpu(hv.pcpu(c), track);
        }
    };
    attach(servers_, "server", "sim.s");
    attach(clients_, "client", "sim.c");
}

void
Testbed::fluidVisit(sim::FluidVisitor &v)
{
    // Build order, so the slot sequence is reproducible run to run. The
    // partition is fixed for every shard count >= 1, so there the slot
    // sequence — and with it every warp decision — is byte-identical
    // across shard counts. On a partition the walk is only legal at a
    // quiescent barrier: wires_ includes the cross-island channels'
    // in-flight frames.
    for (Machine &s : servers_)
        s.hv->fluidVisit(v);
    for (Machine &c : clients_)
        c.hv->fluidVisit(v);
    for (Machine &s : servers_)
        s.dom0->fluidVisit(v);
    for (auto &n : ports_)
        n->fluidVisit(v);
    if (vmdq_nic_)
        vmdq_nic_->fluidVisit(v);
    for (auto &w : wires_)
        w->fluidVisit(v);
    // The ToR relay is stateless between wire hops; its drop counter
    // is the only scalar (zero-delta when nothing is misrouted, and any
    // misroute mid-probe rightly fails the certificate).
    if (tor_)
        v.u64("tor.unroutable", tor_->unroutable_drops);
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
    for (Machine &s : servers_) {
        if (!s.obs)
            continue;
        s.obs->intr_latency_us.fluidVisit(v, "obs.intr_latency");
        for (auto &h : s.obs->exit_cost_cycles)
            h.fluidVisit(v, "obs.exit_cost");
        s.obs->ring_occupancy.fluidVisit(v, "obs.ring_occupancy");
        if (!sharded())
            s.obs->tcp_rtt_us.fluidVisit(v, "obs.tcp_rtt");
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
    chk.watchRouter(servers_.front().hv->router());
    chk.watchRouter(clients_.front().hv->router());
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
    watchDomainLapics(servers_.front().hv->dom0(), "dom0");
    for (std::size_t g = 0; g < guests_.size(); ++g) {
        if (guests_[g]->dom != nullptr) {
            watchDomainLapics(*guests_[g]->dom,
                              "guest" + std::to_string(g));
        }
    }
    // Violation reports carry the flight recorder's packet trails.
    chk.attachPathTracer(tracers_.front().get());
}

} // namespace sriov::core
