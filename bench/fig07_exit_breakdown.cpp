/**
 * @file
 * Fig. 7 — virtualization overhead per second by VM-exit event for a
 * single HVM guest (Linux 2.6.28) receiving at 1 GbE line rate, with
 * and without virtual EOI acceleration (§5.2).
 *
 * Paper result: APIC-access exits are ~139M of ~154M cycles/s (90%);
 * EOI writes are 47% of APIC-access exits; acceleration cuts the EOI
 * emulation from 8.4 K to 2.5 K cycles and total overhead to ~111M.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;

namespace {

/** What one EOI setting leaves behind for the printout and bands. */
struct Result
{
    std::string table;
    double apic_pct;
    double mcycles_per_s;
    double cyc_per_eoi;
};

Result
runCase(core::FigCase &c, bool eoi_accel)
{
    core::Testbed::Params p;
    p.num_ports = 1;
    p.itr = "adaptive";
    p.opts = eoi_accel ? core::OptimizationSet::maskEoi()
                       : core::OptimizationSet::maskOnly();
    core::Testbed tb(p);

    auto &g = tb.addGuest(vmm::DomainType::Hvm,
                          core::Testbed::NetMode::Sriov);
    tb.startUdpToGuest(g, p.line_bps);
    c.instrument(tb);

    sim::Time window = sim::Time::sec(5);
    c.drive(tb, [&]() {
        tb.run(sim::Time::sec(2));
        g.dom->exits().reset();
        tb.run(window);
    });

    double secs = window.toSeconds();
    auto &ex = g.dom->exits();
    core::Table t({"VM-exit reason", "exits/s", "Mcycles/s", "cyc/exit"});
    for (unsigned i = 0; i < unsigned(vmm::ExitReason::Count); ++i) {
        auto r = vmm::ExitReason(i);
        if (ex.count(r) == 0)
            continue;
        t.addRow({vmm::exitReasonName(r),
                  core::Table::num(ex.count(r) / secs, 0),
                  core::Table::num(ex.cycles(r) / secs / 1e6, 1),
                  core::Table::num(ex.cycles(r) / ex.count(r), 0)});
    }
    t.addRow({"TOTAL", core::Table::num(ex.totalCount() / secs, 0),
              core::Table::num(ex.totalCycles() / secs / 1e6, 1), ""});

    double apic_pct = 100.0 * ex.cycles(vmm::ExitReason::ApicAccess)
        / ex.totalCycles();
    c.snapshot(c.label());
    const auto &cm = tb.server().costs();
    double mcycles = ex.totalCycles() / secs / 1e6;
    c.addMetric(c.label() + ".total_mcycles_per_s", mcycles);
    c.addMetric(c.label() + ".apic_pct", apic_pct);
    return Result{t.toString(), apic_pct, mcycles,
                  eoi_accel ? cm.eoi_accelerated : cm.apic_access_emulate};
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "fig07",
                       "Virtualization overhead per second by VM-exit "
                       "event (Fig. 7)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 7: virtualization overhead per second by VM-exit "
                 "event (1 VM, 1 GbE, 2.6.28 HVM)");
    fr.report().setConfig("guest_kernel", "2.6.28");
    fr.report().setConfig("measure_s", 5.0);
    const std::vector<std::string> labels{"eoi-off", "eoi-on"};
    std::vector<Result> res(labels.size());
    fr.sweep(labels, [&](core::FigCase &c, std::size_t i) {
        res[i] = runCase(c, i == 1);
    });
    for (std::size_t i = 0; i < res.size(); ++i) {
        const Result &r = res[i];
        bool eoi_accel = i == 1;
        std::printf("\n-- EOI acceleration %s --\n",
                    eoi_accel ? "ON" : "OFF");
        std::fputs(r.table.c_str(), stdout);
        std::printf("APIC-access share of overhead: %.0f%%  "
                    "(paper: 90%% before acceleration; EOI = 47%% of APIC "
                    "exits)\n",
                    r.apic_pct);
        // Paper: 154M cycles/s unaccelerated, 111M accelerated; EOI
        // emulation 8.4K cycles -> 2.5K.
        fr.expect(labels[i] + ".total_mcycles_per_s", r.mcycles_per_s,
                  eoi_accel ? 111 : 154, 25);
        fr.expect(labels[i] + ".cyc_per_eoi", r.cyc_per_eoi,
                  eoi_accel ? 2500 : 8400, 1);
    }
    std::printf("\npaper: 154M cycles/s -> 111M with EOI acceleration "
                "(8.4K -> 2.5K cycles per EOI)\n");
    return fr.finish();
}
