/**
 * @file
 * Testbed: the paper's experimental setup in a box (Section 6.1).
 *
 * Builds two machines:
 *  - "server": dual quad-core Xeon 5500 (16 SMT threads @ 2.8 GHz,
 *    12 GiB), Xen-3.4-like hypervisor, dom0 with 8 VCPUs pinned to
 *    threads 0–7, and ten 82576-like 1 GbE SR-IOV ports (7 VFs each,
 *    Fig. 11's allocation) — or a single 10 GbE VMDq NIC for §6.6.
 *  - "client": an identical native machine running the netperf peers,
 *    one per port, directly connected.
 *
 * Guests are added with a domain type (HVM/PVM/Native), an attachment
 * mode (SR-IOV VF / PV split driver / VMDq queue), and a kernel
 * version; guest i lands on port i mod num_ports, taking that port's
 * next VF — exactly VF_{7j+n} of the paper.
 *
 * One builder lays the machines out over a partition into islands
 * (each an EventQueue and a path tracer), chosen by Params::run.shards
 * (DESIGN.md §13):
 *  - shards == 0: one island holds one server and one client
 *    machine — every port, guest and wire on one queue.
 *  - shards >= 1: every port becomes a server slice (its own
 *    hypervisor, dom0 kernel and IOV manager, owning that port's NIC,
 *    PF driver and guests) and a client island (hypervisor, netperf
 *    peer); a rack (Params::num_hosts > 1) adds one top-of-rack relay
 *    island. Island order is fixed (slices 0..P-1, clients P..2P-1,
 *    then the ToR), so orderDigest()/pathSnapshot() are byte-identical
 *    for every shard count >= 1.
 * A sim::ShardEngine runs the islands on up to `shards` worker
 * threads (one island: just the queue). Wires are the only
 * cross-island edges, and their propagation delay follows from the
 * partition: 500 ns (a 100 m patch cable) inside an island, 5 us
 * between islands, where it is the engine's lookahead. Only the SR-IOV
 * UDP/TCP netperf topology is partitioned; PV/VMDq/netback, dom0
 * traffic, guest-to-guest, bonding and migration need intra-host
 * coupling and refuse --shards. Slice hypervisors do not contend
 * across ports, so partitioned results are compared across shard
 * counts, never against --shards=0.
 */

#ifndef SRIOV_CORE_TESTBED_HPP
#define SRIOV_CORE_TESTBED_HPP

#include <map>
#include <memory>
#include <vector>

#include "core/aic.hpp"
#include "core/iov_manager.hpp"
#include "core/warp_coordinator.hpp"
#include "core/optimizations.hpp"
#include "drivers/native_driver.hpp"
#include "drivers/netback.hpp"
#include "drivers/pf_driver.hpp"
#include "drivers/vmdq_driver.hpp"
#include "guest/bonding.hpp"
#include "guest/netperf.hpp"
#include "nic/vmdq_nic.hpp"
#include "obs/bench_options.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/histogram.hpp"
#include "obs/metric.hpp"
#include "obs/pathtrace.hpp"
#include "sim/shard_engine.hpp"
#include "vmm/migration.hpp"

namespace sriov::check {
class InvariantChecker;
}

namespace sriov::core {

class Testbed
{
  public:
    enum class NetMode { Sriov, Pv, Vmdq };

    struct Params
    {
        unsigned num_ports = 10;
        /**
         * Hosts in the rack (partitioned builds only; a single island
         * refuses > 1).
         * Each host is a full server replica — num_ports ports, their
         * slices and client islands — and every wire runs through one
         * top-of-rack relay island that forwards frames by a static
         * MAC table, so any client port can reach any host's guest.
         * Global port g = host * num_ports + local port.
         */
        unsigned num_hosts = 1;
        double line_bps = 1e9;
        unsigned vfs_per_port = 7;
        vmm::CostModel costs{};
        OptimizationSet opts{};
        /** VF-driver ITR policy; "AIC" wins when opts.aic is set. */
        std::string itr = "adaptive";
        unsigned netback_threads = 4;
        bool use_vmdq_nic = false;     ///< single 82598 instead of ports
        mem::Addr guest_mem = 128ull << 20;
        std::size_t ap_bufs = guest::SocketBuffer::kDefaultApBufs;
        /** How this testbed runs: thinning, partition, fluid mode and
         *  path-trace export. Defaults to the bench's flags (see
         *  obs::defaultRunConfig()). */
        obs::RunConfig run = obs::defaultRunConfig();
    };

    struct Guest
    {
        vmm::Domain *dom = nullptr;
        std::unique_ptr<guest::GuestKernel> kern;
        std::unique_ptr<guest::NetStack> stack;
        std::unique_ptr<drivers::VfDriver> vf;
        std::unique_ptr<drivers::NetfrontDriver> pv;
        std::unique_ptr<guest::BondingDriver> bond;
        std::unique_ptr<guest::StreamReceiver> rx;
        nic::MacAddr mac;
        unsigned port = 0;
        NetMode mode = NetMode::Sriov;

        /** The device the stack is attached to. */
        guest::NetDevice *netdev = nullptr;
    };

    explicit Testbed(Params p);
    ~Testbed();

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    /** @name Infrastructure access.
     *
     * eq()/server()/client()/iovm()/migration()/dom0Kernel() address
     * the single-island machine and are fatal on a partitioned
     * testbed — partition-neutral code goes through
     * run()/measure()/orderDigest()/pathSnapshot(). A run driven on
     * eq() directly bypasses the engine: no fluid ledger observes it
     * and nothing warps.
     * @{ */
    sim::EventQueue &eq();
    vmm::Hypervisor &server();
    vmm::Hypervisor &client();
    IovManager &iovm();
    vmm::MigrationManager &migration();
    /** Partitioned into per-port islands (run.shards >= 1). */
    bool sharded() const { return queues_.size() > 1; }
    /** The engine running the islands (just one without --shards). */
    sim::ShardEngine &shardEngine() { return *engine_; }
    const Params &params() const { return params_; }
    unsigned portCount() const { return unsigned(ports_.size()); }
    nic::SriovNic &port(unsigned i) { return *ports_.at(i); }
    nic::VmdqNic &vmdqNic() { return *vmdq_nic_; }
    nic::Wire &wire(unsigned i) { return *wires_.at(i); }
    drivers::PfDriver &pfDriver(unsigned i) { return *pf_drivers_.at(i); }
    drivers::NetbackDriver &netback(unsigned port);
    drivers::VmdqBackend &vmdqBackend() { return *vmdq_backend_; }
    guest::GuestKernel &dom0Kernel();
    /** @} */

    /** @name Guests. @{ */
    Guest &addGuest(vmm::DomainType type, NetMode mode,
                    guest::KernelVersion kv = guest::KernelVersion::v2_6_28,
                    bool bond_vf_with_pv = false);
    std::size_t guestCount() const { return guests_.size(); }
    Guest &guest(std::size_t i) { return *guests_.at(i); }
    /** @} */

    /** @name Workloads (client netperf toward a guest). @{ */
    guest::UdpStreamSender &startUdpToGuest(Guest &g, double offered_bps,
                                            std::uint32_t payload = 1472);
    /** Same stream, sourced from an explicit client port — on a
     *  multi-host testbed a port of *another* host sends through the
     *  ToR relay (the cross-host path). */
    guest::UdpStreamSender &startUdpToGuestFrom(
        unsigned client_port, Guest &g, double offered_bps,
        std::uint32_t payload = 1472);
    guest::TcpStreamSender &startTcpToGuest(
        Guest &g, std::uint32_t window = 120832,
        std::uint32_t payload = 1448);
    /** dom0's own interface on a port's PF pool (inter-VM tests). */
    guest::NetStack &dom0Net(unsigned port);
    /** The client machine's stack on a port (custom workloads). */
    guest::NetStack &clientStack(unsigned port)
    {
        return *client_ports_.at(port).stack;
    }
    /** A UDP sender running *in dom0* toward a guest (Fig. 10). */
    guest::UdpStreamSender &startUdpFromDom0(Guest &g, double offered_bps,
                                             std::uint32_t payload = 1472);
    /** A UDP sender in one guest toward another (Figs. 13/14). */
    guest::UdpStreamSender &startUdpGuestToGuest(
        Guest &from, Guest &to, double offered_bps,
        std::uint32_t payload = 1472);
    /** @} */

    /** @name Running and measuring (mode-independent). @{ */
    void run(sim::Time dt);
    /** Current simulated time (all island clocks agree between runs). */
    sim::Time now() const;
    /** Events executed so far, summed over the islands. */
    std::uint64_t executedEvents() const;
    /** Order fingerprint: the single queue's digest, or the engine's
     *  fold of per-island digests in island order. Identical across
     *  shard counts >= 1 (a different value from --shards=0's). */
    std::uint64_t orderDigest() const;
    /** Path-tracer capture: the single tracer's snapshot, or the
     *  deterministic merge of all island tracers. */
    obs::PathSnapshot pathSnapshot() const;

    struct Measurement
    {
        double seconds = 0;
        double total_goodput_bps = 0;
        std::vector<double> per_guest_bps;
        std::map<std::string, double> cpu_by_tag;
        double dom0_pct = 0;      ///< incl. device models & backends
        double xen_pct = 0;
        double guests_pct = 0;
        double total_pct = 0;
    };

    /** Run @p warmup, then measure over @p window. */
    Measurement measure(sim::Time warmup, sim::Time window);
    /** @} */

    /**
     * @name Observability (src/obs).
     *
     * All instrumentation is pure observation: no events are added or
     * re-tagged, so the EventQueue's order digest is identical with
     * observability on, off, or absent.
     * @{
     */

    /** The latency/cost distributions an instrumented testbed keeps. */
    struct ObsHooks
    {
        ObsHooks();

        /** MSI raise → guest handler entry, µs (§4.1 delivery path). */
        obs::Histogram intr_latency_us;
        /** Per-exit cost in cycles, one histogram per reason (Fig. 7). */
        std::vector<obs::Histogram> exit_cost_cycles;
        /** RX-ring occupancy seen by each arriving frame (§5.3). */
        obs::Histogram ring_occupancy;
        /** TCP segment send → cumulative ACK, µs. */
        obs::Histogram tcp_rtt_us;

        obs::Histogram &exitCost(vmm::ExitReason r)
        {
            return exit_cost_cycles.at(unsigned(r));
        }
    };

    /**
     * Turn on the latency/cost taps (idempotent), one histogram set
     * per server machine: interrupt-delivery latency on its
     * hypervisor, VM-exit cost on its dom0 and every guest (current
     * and future), RX-ring occupancy on every pool of its ports, and —
     * on a single island only, where sender and histogram share a
     * queue — TCP RTT on every netperf TCP sender. Returns the first
     * server machine's set.
     */
    ObsHooks &enableObs();

    /**
     * Register the testbed's statistics in @p reg under @p prefix
     * ("server" gives the paper-style "server.nic0.vf3.rx_drops"
     * hierarchy). Pool and guest values register as bounds-checking
     * gauges — VF disable may destroy the underlying objects, and a
     * gauge re-resolves at snapshot time instead of dangling.
     */
    void registerMetrics(obs::MetricRegistry &reg,
                         const std::string &prefix = "server");

    /**
     * Draw this testbed in @p w: each island queue's tagged events on
     * its own track plus one track per server/client CPU. Detach by
     * destroying @p w (or w.detachAll()) before the testbed dies.
     */
    void attachObsTrace(obs::ChromeTraceWriter &w);

    /**
     * The single island's causal packet-path tracer (fatal on a
     * partitioned testbed; use pathSnapshot()). Every island has one,
     * wired into its datapath components at construction;
     * Params::run.pathtrace decides how much it keeps. Snapshot it
     * after a run for attribution/trails.
     */
    const obs::PathTracer &pathTracer() const;

    /** @} */

    /**
     * @name Fluid (flow-level) mode (sim/fluid.hpp,
     * core/warp_coordinator.hpp).
     *
     * With Params::run.fluid Exact or On every island gets its
     * own FlowLedger, which is the executing thread's fluidLedger()
     * while that island runs: senders and NIC raise streams feed it.
     * In FluidMode::On a WarpCoordinator drives the engine: run() goes
     * through it, and certified periodic stretches warp every island,
     * ledger and cross-island channel in lockstep at run barriers
     * (DESIGN.md §14–15).
     * @{
     */

    /** Full fluid state walk over every component (pure visitation;
     *  the exact order is the build order, so slot sequences are
     *  reproducible across runs). On a partition the walk also covers
     *  the cross-island channels and is only legal at a barrier. */
    void fluidVisit(sim::FluidVisitor &v);

    /** The warp coordinator (null unless FluidMode::On). */
    WarpCoordinator *warpCoordinator() { return coordinator_.get(); }

    /** The coordinator's warp statistics; null when nothing warps. */
    const sim::FluidStats *fluidStats() const
    {
        return coordinator_ ? &coordinator_->stats() : nullptr;
    }

    /** @} */

    /**
     * Register the testbed's components with an invariant checker:
     * every port's L2 switch and RX rings, every wire, both machines'
     * interrupt routers, the PF functions, and all current guests'
     * virtual LAPICs. Call after the fleet is built. VF functions are
     * NOT auto-watched — their lifetime ends at VF-disable; watch them
     * explicitly (and unwatchFunction before disabling) if needed.
     */
    void watchAll(check::InvariantChecker &chk);

    static nic::MacAddr guestMac(unsigned idx)
    {
        return nic::MacAddr::make(1, std::uint16_t(idx + 1));
    }

  private:
    struct ClientPort
    {
        std::unique_ptr<nic::PlainNic> nic;
        vmm::Domain *dom = nullptr;
        std::unique_ptr<guest::GuestKernel> kern;
        std::unique_ptr<drivers::NativeDriver> drv;
        std::unique_ptr<guest::NetStack> stack;
    };

    struct Dom0Port
    {
        std::unique_ptr<drivers::VfDriver> drv;
        std::unique_ptr<guest::NetStack> stack;
    };

    /**
     * One machine of the partition: the server (or one port's server
     * slice) or the client (or one port's client island). A machine
     * runs on one island's queue and stamps into that island's tracer;
     * server machines also own the IOV manager, dom0 kernel and, once
     * enableObs() ran, the histogram set their ports and guests feed.
     */
    struct Machine
    {
        unsigned island = 0;    ///< engine island index
        sim::EventQueue *eq = nullptr;
        obs::PathTracer *pt = nullptr;
        std::unique_ptr<vmm::Hypervisor> hv;
        std::unique_ptr<IovManager> iovm;            ///< server only
        std::unique_ptr<guest::GuestKernel> dom0;    ///< server only
        std::unique_ptr<ObsHooks> obs;               ///< server only
    };

    nic::NicPort &serverNic(unsigned port);
    std::unique_ptr<drivers::ItrPolicy> makeGuestItr() const;
    void installDomainObs(ObsHooks &obs, vmm::Domain &dom);
    void installRingObs(ObsHooks &obs, nic::NicPort &nic);
    void build();
    void buildFluid();
    /** A full-duplex wire between two islands (the same one allowed). */
    nic::Wire &addWire(unsigned island_a, unsigned island_b,
                       double line_bps);
    /** Register @p w as component @p name with both ends' tracers. */
    void traceWire(nic::Wire &w, unsigned island_a, unsigned island_b,
                   const std::string &name);
    /** The machines a port belongs to: the only ones on a single
     *  island, the port's own slice and client island otherwise. */
    Machine &serverOf(unsigned port)
    {
        return servers_.at(sharded() ? port : 0);
    }
    Machine &clientOf(unsigned port)
    {
        return clients_.at(sharded() ? port : 0);
    }

    Params params_;
    /** One queue and one path tracer per engine island, in island
     *  order. Declared first so they outlive (are destroyed after)
     *  every component bound to them. */
    std::vector<std::unique_ptr<sim::EventQueue>> queues_;
    std::vector<std::unique_ptr<obs::PathTracer>> tracers_;
    /** One server and one client machine per port on a partition, one
     *  of each on a single island. Declared before the components so
     *  the hypervisors outlive the NICs, drivers and guests on them. */
    std::vector<Machine> servers_;
    std::vector<Machine> clients_;
    /** Multi-host builds: the top-of-rack relay (per-wire endpoints and
     *  the static MAC table) running on the last island. */
    struct TorRelay;
    std::unique_ptr<TorRelay> tor_;
    /** The conservative engine running the islands. */
    std::unique_ptr<sim::ShardEngine> engine_;
    /** Fluid builds: one ledger per engine island, installed via
     *  setIslandLedger so the datapath reports into the owning
     *  island's ledger. Components never hold ledger pointers (they
     *  re-resolve per call), so the ledgers only need to outlive the
     *  runs, not the components. */
    // simlint:allow(fluid-boundary): possession only; settled in .cpp
    std::vector<std::unique_ptr<sim::FlowLedger>> island_ledgers_;
    std::unique_ptr<vmm::MigrationManager> migration_;
    std::vector<std::unique_ptr<nic::SriovNic>> ports_;
    std::unique_ptr<nic::VmdqNic> vmdq_nic_;
    std::vector<std::unique_ptr<nic::Wire>> wires_;
    std::vector<std::unique_ptr<drivers::PfDriver>> pf_drivers_;
    std::map<unsigned, std::unique_ptr<drivers::NetbackDriver>> netbacks_;
    std::unique_ptr<drivers::VmdqBackend> vmdq_backend_;
    std::vector<ClientPort> client_ports_;
    std::map<unsigned, Dom0Port> dom0_ports_;
    std::vector<std::unique_ptr<Guest>> guests_;
    std::vector<std::unique_ptr<guest::UdpStreamSender>> udp_senders_;
    std::vector<std::unique_ptr<guest::TcpStreamSender>> tcp_senders_;
    std::map<unsigned, unsigned> next_vf_on_port_;
    /** Warp coordinator (FluidMode::On only). Declared last so it is
     *  destroyed before the components its state walk references. */
    std::unique_ptr<WarpCoordinator> coordinator_;
};

} // namespace sriov::core

#endif // SRIOV_CORE_TESTBED_HPP
