/**
 * @file
 * Fig. 12 — impact of the MSI, EOI and AIC optimizations at aggregate
 * 10 GbE (10 VMs on ten 1 GbE ports, one VF each), against the native
 * baseline (10 VF drivers + PF drivers in one bare-metal OS).
 *
 * Paper result: line rate (9.57 Gb/s) in every configuration; CPU
 * falls 499% -> 227% with MSI acceleration on a 2.6.18 guest; a
 * 2.6.28 guest saves a further 23 points with EOI acceleration and 24
 * with AIC, landing at 193% vs 145% native.
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

struct Case
{
    const char *label;
    guest::KernelVersion kv;
    vmm::DomainType type;
    core::OptimizationSet opts;
    std::string itr;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "fig12",
                       "Optimization impact at aggregate 10 GbE "
                       "(Fig. 12)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 12: optimization impact at aggregate 10 GbE "
                 "(10 VMs x 1 GbE, UDP_STREAM RX)");
    fr.report().setConfig("ports", 10.0);
    fr.report().setConfig("vms", 10.0);
    fr.report().setConfig("measure_s", 5.0);

    std::vector<Case> cases;
    cases.push_back({"2.6.18 HVM baseline", guest::KernelVersion::v2_6_18,
                     vmm::DomainType::Hvm, core::OptimizationSet::none(),
                     "adaptive"});
    cases.push_back({"2.6.18 HVM +MSI", guest::KernelVersion::v2_6_18,
                     vmm::DomainType::Hvm,
                     core::OptimizationSet::maskOnly(), "adaptive"});
    cases.push_back({"2.6.28 HVM baseline", guest::KernelVersion::v2_6_28,
                     vmm::DomainType::Hvm,
                     core::OptimizationSet::maskOnly(), "adaptive"});
    cases.push_back({"2.6.28 HVM +EOI", guest::KernelVersion::v2_6_28,
                     vmm::DomainType::Hvm, core::OptimizationSet::maskEoi(),
                     "adaptive"});
    Case all{"2.6.28 HVM +EOI+AIC", guest::KernelVersion::v2_6_28,
             vmm::DomainType::Hvm, core::OptimizationSet::all(), "AIC"};
    cases.push_back(all);
    cases.push_back({"native (10 VF drivers)",
                     guest::KernelVersion::v2_6_28, vmm::DomainType::Native,
                     core::OptimizationSet::maskEoi(), "adaptive"});
    // Extra row beyond the paper: the native floor under the *same*
    // interrupt moderation as the AIC guests, for an apples-to-apples
    // comparison (the paper's native row runs the driver default).
    Case native_aic{"native +AIC (fair floor)",
                    guest::KernelVersion::v2_6_28, vmm::DomainType::Native,
                    core::OptimizationSet::all(), "AIC"};
    cases.push_back(native_aic);

    std::vector<std::string> labels;
    for (const auto &c : cases)
        labels.emplace_back(c.label);
    std::vector<core::Testbed::Measurement> ms(cases.size());
    fr.sweep(labels, [&](core::FigCase &fc, std::size_t i) {
        const Case &c = cases[i];
        core::Testbed::Params p;
        p.num_ports = 10;
        p.opts = c.opts;
        p.itr = c.itr;
        core::Testbed tb(p);
        for (unsigned v = 0; v < 10; ++v) {
            auto &g = tb.addGuest(c.type, core::Testbed::NetMode::Sriov,
                                  c.kv);
            tb.startUdpToGuest(g, p.line_bps);
        }
        fc.instrument(tb);
        core::Testbed::Measurement &m = ms[i];
        fc.drive(tb, [&]() {
            m = tb.measure(sim::Time::sec(2), sim::Time::sec(5));
        });
        fc.snapshot(c.label);
        fc.addMetric(std::string(c.label) + ".goodput_gbps",
                     m.total_goodput_bps / 1e9);
        fc.addMetric(std::string(c.label) + ".total_cpu_pct", m.total_pct);
    });

    core::Table t({"configuration", "throughput(Gb/s)", "total CPU",
                   "guest", "Xen", "dom0"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::string &label = labels[i];
        const core::Testbed::Measurement &m = ms[i];
        // Paper: line rate in every configuration.
        fr.expect(label + ".goodput_gbps", m.total_goodput_bps / 1e9, 9.57,
                  5);
        if (label == "2.6.18 HVM baseline")
            fr.expect("baseline_total_cpu_pct", m.total_pct, 499, 20);
        if (label == "2.6.18 HVM +MSI")
            fr.expect("msi_total_cpu_pct", m.total_pct, 227, 20);
        t.addRow({label, core::gbps(m.total_goodput_bps),
                  core::cpuPct(m.total_pct), core::cpuPct(m.guests_pct),
                  core::cpuPct(m.xen_pct), core::cpuPct(m.dom0_pct)});
    }
    t.print();
    std::printf("\npaper: 499%% -> 227%% (MSI, 2.6.18); 2.6.28: -23 pts "
                "(EOI), -24 pts (AIC) -> 193%%; native 145%%; all at "
                "9.57 Gb/s\n");
    return fr.finish();
}
