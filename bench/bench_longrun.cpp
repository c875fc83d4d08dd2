/**
 * @file
 * bench_longrun — the accelerator-composition showcase: 60+ simulated
 * seconds of multi-host steady UDP traffic in single-digit host
 * seconds.
 *
 * The scalability figures measure 4 s windows because per-packet
 * simulation makes longer horizons expensive: fig15's sweep executes
 * ~70 M events for 24 simulated seconds. Fluid mode changes that
 * economics — once every flow is steady the warp machinery elides
 * whole hyperperiods at a time, so simulated duration is nearly free
 * until the next transition. Sharding changes it along the other
 * axis: islands execute in parallel during the stretches that *are*
 * simulated. This bench is sized so neither accelerator alone is
 * comfortable: with --hosts=4 it builds a 4-host rack (20 HVM VMs per
 * host, every stream crossing the top-of-rack relay from a client
 * port of the *previous* host) and runs it for 60 simulated seconds.
 * Only --shards=N --fluid=on composes warping with parallel execution
 * (DESIGN.md §15); run it that way to see the point. With the flags
 * off it is simply a long, honest soak test.
 *
 * Usage beyond the standard BenchOptions flags:
 *   --hosts=<n>   rack size, a count >= 1 (default 1; n > 1 needs
 *                 --shards>=1); any other value exits 2
 *
 * The report asserts conservation over the whole hour-scale horizon:
 * line-rate goodput on every host throughout, and a warp fraction
 * >= 90% when fluid is enabled.
 */

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "sim/fluid.hpp"
#include "sim/log.hpp"

using namespace sriov;

int
main(int argc, char **argv)
{
    sim::setLogLevel(sim::LogLevel::Quiet);
    core::FigReport fr(argc, argv, "longrun",
                       "60 simulated seconds, 20 HVM VMs per host, "
                       "fluid warp x shards",
                       {"--hosts"});
    if (fr.helpShown())
        return 0;
    const unsigned hosts = fr.options().countArg("--hosts", 1);

    constexpr unsigned kVmsPerHost = 20;
    constexpr unsigned kPortsPerHost = 10;
    constexpr double kSimSeconds = 60.0;
    const unsigned vms = kVmsPerHost * hosts;
    core::banner("longrun: " + std::to_string(hosts) + " host(s), "
                 + std::to_string(vms) + " VMs / "
                 + std::to_string(kPortsPerHost * hosts)
                 + " ports, 60 simulated seconds");
    fr.report().setConfig("hosts", double(hosts));
    fr.report().setConfig("vms", double(vms));
    fr.report().setConfig("sim_seconds", kSimSeconds);

    core::Testbed::Params p;
    p.num_ports = kPortsPerHost;
    p.num_hosts = hosts;
    p.opts = core::OptimizationSet::maskEoi();
    p.itr = "adaptive";
    core::Testbed tb(p);
    const unsigned ports = kPortsPerHost * hosts;
    const double per_guest = p.line_bps / (kVmsPerHost / kPortsPerHost);
    for (unsigned i = 0; i < vms; ++i) {
        auto &g = tb.addGuest(vmm::DomainType::Hvm,
                              core::Testbed::NetMode::Sriov);
        if (hosts > 1) {
            // Cross-host: the stream for a guest on host h enters the
            // rack at the same local port of host h-1 and crosses the
            // ToR — no frame takes the intra-host shortcut.
            unsigned h = g.port / kPortsPerHost;
            unsigned lp = g.port % kPortsPerHost;
            unsigned src = ((h + hosts - 1) % hosts) * kPortsPerHost
                           + lp;
            tb.startUdpToGuestFrom(src, g, per_guest);
        } else {
            tb.startUdpToGuest(g, per_guest);
        }
    }

    core::Testbed::Measurement m;
    fr.sweep({"60s"}, [&](core::FigCase &c, std::size_t) {
        c.instrument(tb);
        c.drive(tb, [&]() {
            m = tb.measure(sim::Time::sec(2),
                           sim::Time::sec(kSimSeconds - 2));
        });
        c.snapshot(c.label());
    });

    double warped_s = 0;
    std::uint64_t elided = 0, segments = 0;
    if (const sim::FluidStats *fs = tb.fluidStats()) {
        warped_s = double(fs->warped.picos()) * 1e-12;
        elided = fs->events_elided;
        segments = fs->segments;
    }
    double warp_pct = 100.0 * warped_s / kSimSeconds;
    fr.report().addMetric("warped_sim_s", warped_s);
    fr.report().addMetric("warp_pct", warp_pct);
    fr.report().addMetric("segments", double(segments));
    fr.report().addMetric("events_elided", double(elided));

    // Line-rate goodput per port, scaled by the rack size.
    fr.expect("goodput_gbps", m.total_goodput_bps / 1e9,
              0.957 * ports, 6);
    if (fr.options().run().fluid == sim::FluidMode::On) {
        // The point of the bench: nearly the whole steady horizon is
        // warped, not simulated. 90% leaves room for the probe duty
        // cycle and the per-second retune boundaries.
        fr.expect("warp_pct", warp_pct, 95.0, 6);
    }

    std::printf("\n%.0f simulated seconds, %u host(s), %u VMs: goodput "
                "%.2f Gb/s, %.1f%% warped (%llu segments, %llu events "
                "elided)\n",
                kSimSeconds, hosts, vms, m.total_goodput_bps / 1e9,
                warp_pct, static_cast<unsigned long long>(segments),
                static_cast<unsigned long long>(elided));
    return fr.finish();
}
