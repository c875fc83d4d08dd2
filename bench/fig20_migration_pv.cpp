/**
 * @file
 * Fig. 20 — live migration of an HVM guest whose netperf stream rides
 * the PV network driver (1 GbE, single port).
 *
 * Paper result: pre-migration, dom0 burns significant CPU servicing
 * the PV path; migration starts at t=4.5 s; the service shuts down at
 * ~10.4 s for the stop-and-copy and is restored at ~11.8 s on the
 * target.
 */

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
    core::FigReport fr(argc, argv, "fig20",
                       "Live migration of an HVM guest over the PV NIC "
                       "(Fig. 20)");
    if (fr.helpShown())
        return 0;
    core::banner("Fig. 20: migrating an HVM guest running netperf over "
                 "the PV network driver");
    fr.report().setConfig("guest_mem_mb", 640.0);
    fr.report().setConfig("migrate_at_s", 4.5);

    core::Testbed::Params p;
    p.num_ports = 1;
    p.opts = core::OptimizationSet::maskEoi();
    p.guest_mem = 640ull << 20;
    p.netback_threads = 2;
    core::Testbed tb(p);

    auto &g = tb.addGuest(vmm::DomainType::Hvm,
                          core::Testbed::NetMode::Pv);
    tb.startUdpToGuest(g, p.line_bps);
    g.rx->sampleEvery(sim::Time::ms(500));

    vmm::MigrationManager::Params mp;
    vmm::MigrationManager::Result result{};
    bool done = false;
    tb.eq().scheduleAt(sim::Time::seconds(4.5), [&tb, &g, &mp, &result,
                                                 &done]() {
        tb.migration().migrate(
            *g.dom, mp, nullptr, nullptr,
            [&result, &done](const vmm::MigrationManager::Result &r) {
                result = r;
                done = true;
            });
    });

    // Step through the run, sampling dom0 CPU alongside the series.
    std::printf("\n%-8s %-18s %-10s\n", "t(s)", "netperf(Mb/s)",
                "dom0 CPU");
    auto snap = tb.server().snapshot();
    std::vector<double> dom0_series;
    fr.sweep({"post-migration"}, [&](core::FigCase &c, std::size_t) {
        c.instrument(tb);
        c.drive(tb, [&]() {
            for (int step = 0; step < 32; ++step) {
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
        std::printf("\nmigration: started 4.5 s, service down %.1f s -> "
                    "restored %.1f s (downtime %.2f s, %u pre-copy "
                    "rounds, %llu pages)\n",
                    result.paused_at.toSeconds(),
                    result.resumed_at.toSeconds(),
                    result.downtime().toSeconds(), result.rounds,
                    static_cast<unsigned long long>(result.pages_sent));
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
        // Paper: service down ~10.4 s, restored ~11.8 s.
        fr.expect("paused_at_s", result.paused_at.toSeconds(), 10.4, 15);
        fr.expect("resumed_at_s", result.resumed_at.toSeconds(), 11.8,
                  15);
    } else {
        std::printf("\nmigration did not complete within the window\n");
    }
    std::printf("paper: service down ~10.4 s, restored ~11.8 s\n");
    int rc = fr.finish();
    return done ? rc : 1;
}
