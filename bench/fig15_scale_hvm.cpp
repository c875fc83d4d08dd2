/**
 * @file
 * Fig. 15 — SR-IOV scalability with HVM guests: 10..60 VMs over ten
 * 1 GbE ports (VF_{7j+n} allocation of Fig. 11), UDP_STREAM RX.
 *
 * Paper result: aggregate throughput stays at the 9.57 Gb/s line rate
 * from 10 to 60 VMs; each additional guest costs ~2.8% CPU.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;

namespace {

struct Point
{
    unsigned vms;
    double gbps;
    double total;
    double guests;
    double xen;
    double dom0;
};

Point
runScale(core::FigCase &c, unsigned vms, vmm::DomainType type)
{
    core::Testbed::Params p;
    p.num_ports = 10;
    p.opts = core::OptimizationSet::maskEoi();
    // Scalability runs use the driver's adaptive moderation (see
    // DESIGN.md: at these per-VM rates AIC's formula would sit at its
    // lif floor, decoupling the slope from the coalescing policy).
    p.itr = "adaptive";
    core::Testbed tb(p);

    for (unsigned i = 0; i < vms; ++i)
        tb.addGuest(type, core::Testbed::NetMode::Sriov);
    // n/10 guests share each port; netperf pairs split the line.
    double per_guest = p.line_bps / (vms / 10);
    for (unsigned i = 0; i < vms; ++i)
        tb.startUdpToGuest(tb.guest(i), per_guest);
    c.instrument(tb);

    core::Testbed::Measurement m;
    c.drive(tb, [&]() {
        m = tb.measure(sim::Time::sec(2), sim::Time::sec(4));
    });
    std::uint64_t pkts = 0;
    for (std::size_t i = 0; i < tb.guestCount(); ++i)
        if (tb.guest(i).rx)
            pkts += tb.guest(i).rx->rxPackets();
    c.addPackets(pkts);
    if (vms == 60)
        c.snapshot("60-VM");
    return Point{vms, m.total_goodput_bps / 1e9, m.total_pct,
                 m.guests_pct, m.xen_pct, m.dom0_pct};
}

} // namespace

int
runScaleBench(int argc, char **argv, const char *fig,
              vmm::DomainType type, const char *title, const char *expect,
              double slope_expected)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, fig, title);
    if (fr.helpShown())
        return 0;
    core::banner(title);
    fr.report().setConfig("ports", 10.0);
    fr.report().setConfig("measure_s", 4.0);

    const std::vector<unsigned> counts{10u, 20u, 30u, 40u, 50u, 60u};
    std::vector<std::string> labels;
    for (unsigned n : counts)
        labels.push_back(std::to_string(n) + "vm");
    std::vector<Point> pts(counts.size());
    fr.sweep(labels, [&](core::FigCase &c, std::size_t i) {
        pts[i] = runScale(c, counts[i], type);
    });

    core::Table t({"VMs", "throughput(Gb/s)", "total CPU", "guest", "Xen",
                   "dom0"});
    std::vector<double> vm_axis, cpu_total, bw_gbps;
    double first = 0, last = 0;
    unsigned n_first = 0, n_last = 0;
    for (const Point &pt : pts) {
        unsigned n = pt.vms;
        if (n_first == 0) {
            first = pt.total;
            n_first = n;
        }
        last = pt.total;
        n_last = n;
        vm_axis.push_back(double(n));
        cpu_total.push_back(pt.total);
        bw_gbps.push_back(pt.gbps);
        t.addRow({core::Table::num(n, 0), core::Table::num(pt.gbps, 2),
                  core::cpuPct(pt.total), core::cpuPct(pt.guests),
                  core::cpuPct(pt.xen), core::cpuPct(pt.dom0)});
        // Paper: line rate throughout the sweep.
        fr.expect(std::to_string(n) + "vm.goodput_gbps", pt.gbps, 9.57,
                  6);
    }
    double slope = (last - first) / double(n_last - n_first);
    fr.report().addSeries("total_cpu_pct_vs_vms", vm_axis, cpu_total);
    fr.report().addSeries("goodput_gbps_vs_vms", vm_axis, bw_gbps);
    // Pinned to the *modeled* slope, not the paper's (printed below for
    // comparison): the model charges only interrupt-path work per VM,
    // so its absolute slope is ~3.5x smaller while every qualitative
    // relation holds — see EXPERIMENTS.md, Figs. 15/16 notes.
    fr.expect("cpu_pct_per_vm", slope, slope_expected, 30);
    t.print();
    std::printf("\nmeasured slope: %.2f%% CPU per additional VM   "
                "(paper: %s)\n",
                slope, expect);
    return fr.finish();
}

#ifndef FIG16_PVM
int
main(int argc, char **argv)
{
    return runScaleBench(argc, argv, "fig15", vmm::DomainType::Hvm,
                         "Fig. 15: SR-IOV scalability, HVM, 10-60 VMs, "
                         "aggregate 10 GbE",
                         "2.8% per VM, line rate throughout", 0.78);
}
#endif
