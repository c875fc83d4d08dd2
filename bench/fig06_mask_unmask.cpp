/**
 * @file
 * Fig. 6 — CPU utilization and throughput of SR-IOV with a 64-bit
 * RHEL5U1 (Linux 2.6.18) HVM guest on one 1 GbE port, 1–7 VMs,
 * before and after the interrupt mask/unmask acceleration (§5.1).
 *
 * Paper result: throughput flat at line rate in every case; dom0 CPU
 * grows from ~17% (1 VM) to ~30% (7 VMs) unoptimized, and collapses
 * to ~3% with the acceleration.
 */

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;

namespace {

struct Row
{
    unsigned vms;
    bool opt;
    double gbps;
    double dom0;
    double xen;
    double guests;
};

Row
runCase(core::FigCase &c, unsigned vms, bool opt)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.opts = opt ? core::OptimizationSet::maskOnly()
                 : core::OptimizationSet::none();
    core::Testbed tb(p);

    double per_guest = p.line_bps / vms;
    for (unsigned i = 0; i < vms; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov,
                              guest::KernelVersion::v2_6_18);
        tb.startUdpToGuest(g, per_guest);
    }
    c.instrument(tb);
    core::Testbed::Measurement m;
    c.drive(tb,
            [&]() { m = tb.measure(sim::Time::sec(2), sim::Time::sec(5)); });
    std::uint64_t pkts = 0;
    for (std::size_t i = 0; i < tb.guestCount(); ++i)
        if (tb.guest(i).rx)
            pkts += tb.guest(i).rx->rxPackets();
    c.addPackets(pkts);
    const std::string &label = c.label();
    c.snapshot(label);
    c.addMetric(label + ".goodput_gbps", m.total_goodput_bps / 1e9);
    c.addMetric(label + ".dom0_pct", m.dom0_pct);
    return Row{vms, opt, m.total_goodput_bps / 1e9, m.dom0_pct, m.xen_pct,
               m.guests_pct};
}

/**
 * Determinism smoke: a shrunk 2-VM configuration run twice must give
 * identical event-order digests, or every curve below is suspect.
 * Aborts (sim::fatal) on mismatch.
 */
void
determinismSmoke()
{
    auto digest = check::DeterminismHarness::audit("fig06-smoke", [](unsigned) {
        core::Testbed::Params p;
        p.num_ports = 1;
        p.opts = core::OptimizationSet::maskOnly();
        core::Testbed tb(p);
        for (unsigned i = 0; i < 2; ++i) {
            auto &g = tb.addGuest(vmm::DomainType::Hvm,
                                  core::Testbed::NetMode::Sriov,
                                  guest::KernelVersion::v2_6_18);
            tb.startUdpToGuest(g, 300e6);
        }
        tb.run(sim::Time::ms(200));
        return check::RunDigest{tb.orderDigest(), tb.executedEvents()};
    });
    std::printf("determinism smoke: OK (%s)\n", digest.toString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "fig06",
                       "SR-IOV mask/unmask acceleration: throughput and "
                       "CPU vs VM count (Fig. 6)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 6: SR-IOV, RHEL5U1 (2.6.18) HVM, 1 GbE port, "
                 "MSI mask/unmask acceleration");
    determinismSmoke();
    fr.report().setConfig("guest_kernel", "2.6.18");
    fr.report().setConfig("ports", 1.0);
    fr.report().setConfig("measure_s", 5.0);

    // The 14 (optimization × VM-count) cells.
    std::vector<std::string> labels;
    for (bool opt : {false, true}) {
        for (unsigned n = 1; n <= 7; ++n) {
            char label[32];
            std::snprintf(label, sizeof(label), "%u-VM%s", n,
                          opt ? "-opt" : "");
            labels.emplace_back(label);
        }
    }
    std::vector<Row> rows(labels.size());
    fr.sweep(labels, [&](core::FigCase &c, std::size_t i) {
        rows[i] = runCase(c, unsigned(i % 7) + 1, i >= 7);
    });

    core::Table t({"case", "throughput(Gb/s)", "dom0 CPU", "Xen CPU",
                   "guest CPU"});
    std::vector<double> vm_axis, dom0_unopt, dom0_opt;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        t.addRow({labels[i], core::Table::num(r.gbps, 3),
                  core::cpuPct(r.dom0), core::cpuPct(r.xen),
                  core::cpuPct(r.guests)});
        (r.opt ? dom0_opt : dom0_unopt).push_back(r.dom0);
        if (!r.opt)
            vm_axis.push_back(double(r.vms));
        // Paper: line rate in every configuration.
        fr.expect(labels[i] + ".goodput_gbps", r.gbps, 0.957, 10);
        if (r.vms == 7) {
            fr.expect(r.opt ? "dom0_pct_7vm_opt" : "dom0_pct_7vm_unopt",
                      r.dom0, r.opt ? 3.0 : 30.0, r.opt ? 150 : 60);
        }
    }
    fr.report().addSeries("dom0_pct_unopt_vs_vms", vm_axis, dom0_unopt);
    fr.report().addSeries("dom0_pct_opt_vs_vms", vm_axis, dom0_opt);
    t.print();
    std::printf("\npaper: dom0 17%%..30%% unoptimized, ~3%% optimized; "
                "throughput flat at line rate\n");
    return fr.finish();
}
