/**
 * @file
 * Fig. 14 — PV NIC inter-VM communication: packets are grant-copied
 * guest-to-guest by the netback CPU, which runs at memory speed and
 * beats the double-PCIe-crossing of SR-IOV — at a much higher CPU
 * cost (§6.3).
 *
 * Paper result: ~4.3 Gb/s at 1500 B, rising with message size, with
 * far more CPU than SR-IOV; SR-IOV wins on throughput per CPU.
 */

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "fig14",
                       "PV NIC inter-VM UDP, message-size sweep "
                       "(Fig. 14)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 14: PV NIC inter-VM UDP, message size sweep");
    fr.report().setConfig("measure_s", 4.0);
    fr.report().setConfig("netback_threads", 2.0);

    const std::vector<std::uint32_t> payloads{1500u, 2000u, 2500u, 3000u,
                                              3500u, 4000u};
    std::vector<std::string> labels;
    for (std::uint32_t payload : payloads)
        labels.push_back(std::to_string(payload) + "B");
    std::vector<core::Testbed::Measurement> ms(payloads.size());
    fr.sweep(labels, [&](core::FigCase &c, std::size_t i) {
        core::Testbed::Params p;
        p.num_ports = 1;
        p.opts = core::OptimizationSet::all();
        p.netback_threads = 2;
        core::Testbed tb(p);

        auto &tx = tb.addGuest(vmm::DomainType::Hvm,
                               core::Testbed::NetMode::Pv);
        auto &rx = tb.addGuest(vmm::DomainType::Hvm,
                               core::Testbed::NetMode::Pv);
        tb.startUdpGuestToGuest(tx, rx, 8e9, payloads[i]);
        c.instrument(tb);

        c.drive(tb, [&]() {
            ms[i] = tb.measure(sim::Time::sec(2), sim::Time::sec(4));
        });
        if (payloads[i] == 1500u)
            c.snapshot(c.label());
    });

    core::Table t({"msg size(B)", "RX BW(Gb/s)", "total CPU", "dom0 CPU",
                   "Gb/s per 100% CPU"});
    std::vector<double> size_axis, bw_gbps;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const core::Testbed::Measurement &m = ms[i];
        double cpu = m.total_pct;
        size_axis.push_back(double(payloads[i]));
        bw_gbps.push_back(m.total_goodput_bps / 1e9);
        if (payloads[i] == 1500u) {
            // Paper: ~4.3 Gb/s at 1500 B.
            fr.expect("gbps_1500B", m.total_goodput_bps / 1e9, 4.3, 15);
        }
        t.addRow({core::Table::num(payloads[i], 0),
                  core::gbps(m.total_goodput_bps), core::cpuPct(cpu),
                  core::cpuPct(m.dom0_pct),
                  core::Table::num(m.total_goodput_bps / 1e9
                                       / (cpu / 100.0),
                                   2)});
    }
    fr.report().addSeries("rx_gbps_vs_msg_bytes", size_axis, bw_gbps);
    t.print();
    std::printf("\npaper: ~4.3 Gb/s with more CPU than SR-IOV; "
                "SR-IOV has better throughput per CPU\n");
    return fr.finish();
}
