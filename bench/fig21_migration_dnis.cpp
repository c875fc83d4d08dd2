/**
 * @file
 * Fig. 21 — migrating an HVM guest running netperf over SR-IOV with
 * DNIS: the VF is virtually hot-removed at migration start, the bond
 * fails over to the PV NIC (≈0.6 s outage while the interface
 * switches), the "real" migration proceeds as if the guest never had
 * a VF, and a virtual hot-add restores the VF on the target.
 *
 * Paper result: pre-migration dom0 CPU ≈ 0 (SR-IOV datapath bypasses
 * it); extra 0.6 s service dip at 4.5 s; stop-and-copy down at
 * ~10.3 s, restored ~11.8 s — on par with the PV driver.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/dnis.hpp"
#include "vmm/hotplug_controller.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/log.hpp"

using namespace sriov;

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "fig21",
                       "Live migration of an SR-IOV guest with DNIS "
                       "(Fig. 21)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 21: migrating an HVM guest running netperf over "
                 "SR-IOV with DNIS");
    fr.report().setConfig("guest_mem_mb", 640.0);
    fr.report().setConfig("migrate_at_s", 4.5);

    core::Testbed::Params p;
    p.num_ports = 1;
    p.opts = core::OptimizationSet::all();
    p.guest_mem = 640ull << 20;
    p.netback_threads = 2;
    core::Testbed tb(p);

    auto &g = tb.addGuest(vmm::DomainType::Hvm,
                          core::Testbed::NetMode::Sriov,
                          guest::KernelVersion::v2_6_28,
                          /*bond_vf_with_pv=*/true);
    tb.startUdpToGuest(g, p.line_bps);
    g.rx->sampleEvery(sim::Time::ms(500));

    vmm::VirtualHotplugController hpc(*g.dom);
    auto &slot = hpc.addSlot("vf-slot");
    core::Dnis dnis(tb.server(), tb.migration());
    dnis.manage(*g.dom, *g.vf, *g.pv, *g.bond, slot);

    core::Dnis::Report report{};
    bool done = false;
    tb.eq().scheduleAt(sim::Time::seconds(4.5), [&dnis, &report, &done]() {
        core::Dnis::Params dp;
        dnis.migrate(dp, [&report, &done](const core::Dnis::Report &r) {
            report = r;
            done = true;
        });
    });

    std::printf("\n%-8s %-18s %-10s\n", "t(s)", "netperf(Mb/s)",
                "dom0 CPU");
    auto snap = tb.server().snapshot();
    std::vector<double> dom0_series;
    fr.sweep({"post-migration"}, [&](core::FigCase &c, std::size_t) {
        c.instrument(tb);
        c.drive(tb, [&]() {
            for (int step = 0; step < 36; ++step) {
                tb.run(sim::Time::ms(500));
                auto tags = tb.server().cpuPercentByTag(snap);
                double dom0 = 0;
                for (const auto &[tag, pct] : tags) {
                    if (tag.rfind("dom0", 0) == 0)
                        dom0 += pct;
                }
                dom0_series.push_back(dom0);
                snap = tb.server().snapshot();
            }
        });
        if (done)
            c.snapshot(c.label());
    });
    const auto &tl = g.rx->timeline().samples();
    for (std::size_t i = 0; i < tl.size() && i < dom0_series.size(); ++i) {
        std::printf("%-8.1f %-18.0f %-10.1f\n",
                    tl[i].first.toSeconds(), tl[i].second / 1e6,
                    dom0_series[i]);
    }

    if (done) {
        std::printf("\nDNIS: hot-remove signalled %.1f s, bond on PV "
                    "%.1f s (switch outage %.2f s), service down %.1f s "
                    "-> restored %.1f s (downtime %.2f s), VF restored "
                    "%.1f s\n",
                    report.switch_started.toSeconds(),
                    report.switched_to_pv.toSeconds(),
                    (report.switched_to_pv - report.switch_started)
                        .toSeconds(),
                    report.mig.paused_at.toSeconds(),
                    report.mig.resumed_at.toSeconds(),
                    report.mig.downtime().toSeconds(),
                    report.vf_restored.toSeconds());
        std::printf("bond failovers: %llu, frames dropped on inactive "
                    "slave: %llu\n",
                    static_cast<unsigned long long>(g.bond->failovers()),
                    static_cast<unsigned long long>(
                        g.bond->inactiveRxDropped()));
        std::vector<double> t_axis, mbps;
        for (const auto &[when, bps] : tl) {
            t_axis.push_back(when.toSeconds());
            mbps.push_back(bps / 1e6);
        }
        fr.report().addSeries("netperf_mbps_vs_s", t_axis, mbps);
        std::vector<double> step_axis;
        for (std::size_t i = 0; i < dom0_series.size(); ++i)
            step_axis.push_back(0.5 * double(i + 1));
        fr.report().addSeries("dom0_pct_vs_s", step_axis, dom0_series);
        // Paper: ~0.6 s failover dip; down ~10.3 s, restored ~11.8 s.
        fr.expect("switch_outage_s",
                  (report.switched_to_pv - report.switch_started)
                      .toSeconds(),
                  0.6, 50);
        fr.expect("paused_at_s", report.mig.paused_at.toSeconds(), 10.3,
                  15);
        fr.expect("resumed_at_s", report.mig.resumed_at.toSeconds(),
                  11.8, 15);
    } else {
        std::printf("\nDNIS migration did not complete in the window\n");
    }
    std::printf("paper: extra ~0.6 s dip at 4.5 s; down ~10.3 s, "
                "restored ~11.8 s; dom0 ~0%% before migration\n");
    int rc = fr.finish();
    return done ? rc : 1;
}
