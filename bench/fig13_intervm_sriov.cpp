/**
 * @file
 * Fig. 13 — SR-IOV inter-VM communication on a single port: packets
 * switch inside the NIC and cross the PCIe link twice (memory -> NIC
 * FIFO -> memory), so throughput is bounded by the slow PCIe bus, not
 * the physical line (§6.3).
 *
 * Paper result: up to 2.8 Gb/s, rising with message size (1500 ->
 * 4000 bytes); better throughput-per-CPU than the PV counterpart.
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
    core::FigReport fr(argc, argv, "fig13",
                       "SR-IOV inter-VM UDP, message-size sweep "
                       "(Fig. 13)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 13: SR-IOV inter-VM UDP, single port, message "
                 "size sweep");
    fr.report().setConfig("measure_s", 4.0);

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
        core::Testbed tb(p);

        auto &tx = tb.addGuest(vmm::DomainType::Hvm,
                               core::Testbed::NetMode::Sriov);
        auto &rx = tb.addGuest(vmm::DomainType::Hvm,
                               core::Testbed::NetMode::Sriov);
        // Offer more than the PCIe path can carry; it saturates.
        tb.startUdpGuestToGuest(tx, rx, 6e9, payloads[i]);
        c.instrument(tb);

        c.drive(tb, [&]() {
            ms[i] = tb.measure(sim::Time::sec(2), sim::Time::sec(4));
        });
        if (payloads[i] == 4000u)
            c.snapshot(c.label());
    });

    core::Table t({"msg size(B)", "RX BW(Gb/s)", "total CPU",
                   "Gb/s per 100% CPU"});
    std::vector<double> size_axis, bw_gbps;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        const core::Testbed::Measurement &m = ms[i];
        double cpu = m.total_pct;
        size_axis.push_back(double(payloads[i]));
        bw_gbps.push_back(m.total_goodput_bps / 1e9);
        if (payloads[i] == 4000u) {
            // Paper: peaks at ~2.8 Gb/s (PCIe-bound).
            fr.expect("peak_gbps_4000B", m.total_goodput_bps / 1e9, 2.8,
                      15);
        }
        t.addRow({core::Table::num(payloads[i], 0),
                  core::gbps(m.total_goodput_bps), core::cpuPct(cpu),
                  core::Table::num(m.total_goodput_bps / 1e9
                                       / (cpu / 100.0),
                                   2)});
    }
    fr.report().addSeries("rx_gbps_vs_msg_bytes", size_axis, bw_gbps);
    t.print();
    std::printf("\npaper: up to 2.8 Gb/s (PCIe-bound, two DMA "
                "crossings); throughput/CPU better than PV\n");
    return fr.finish();
}
