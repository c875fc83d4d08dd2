#include "vmm/migration.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::vmm {

sim::Time
MigrationManager::copyTime(const Params &p, std::uint64_t pages) const
{
    double bits = double(pages) * mem::kPageSize * 8.0;
    return sim::Time::transfer(bits, p.link_bps);
}

void
MigrationManager::migrate(Domain &dom, const Params &p, Callback on_pause,
                          Callback on_resume, DoneFn on_done)
{
    if (in_progress_)
        sim::fatal("migration already in progress");
    in_progress_ = true;

    Session s;
    s.dom = &dom;
    s.p = p;
    s.on_pause = std::move(on_pause);
    s.on_resume = std::move(on_resume);
    s.on_done = std::move(on_done);
    s.result.started = hv_.eq().now();
    s.total_pages = dom.memBytes() / mem::kPageSize;

    dom.gpmap().enableDirtyLog();
    sim::inform("migration of %s: %llu pages over %.2f Gb/s",
                dom.name().c_str(),
                static_cast<unsigned long long>(s.total_pages),
                p.link_bps / 1e9);
    sendRound(std::move(s), s.total_pages, 1);
}

void
MigrationManager::sendRound(Session s, std::uint64_t pages, unsigned round)
{
    sim::Time dur = copyTime(s.p, pages);
    s.result.rounds = round;
    s.result.pages_sent += pages;

    // The migration helper burns dom0 CPU mapping/sending pages;
    // spread the charge across the round so utilization sampling sees
    // a sustained load, not a spike.
    double total_cycles = double(pages) * hv_.costs().migrate_per_page;
    auto slices = std::max<std::int64_t>(
        1, dur.picos() / sim::Time::ms(100).picos());
    for (std::int64_t i = 0; i < slices; ++i) {
        hv_.eq().scheduleIn(dur * i / slices, [this, total_cycles,
                                               slices]() {
            hv_.dom0Cpu(0).charge(total_cycles / double(slices),
                                  "dom0-migr");
        });
    }

    hv_.eq().scheduleIn(dur, [this, s = std::move(s), pages, round,
                              dur]() mutable {
        Domain &dom = *s.dom;
        // Pages dirtied while this round was in flight: tracked dirty
        // log (DMA-into-guest, grant copies) plus background activity.
        std::uint64_t tracked = dom.gpmap().drainDirty().size();
        std::uint64_t background = std::uint64_t(
            s.p.background_dirty_pps * dur.toSeconds());
        std::uint64_t dirty =
            std::min<std::uint64_t>(tracked + background,
                                    s.p.working_set_pages);
        dirty = std::min<std::uint64_t>(dirty, s.total_pages);

        bool converged = dirty <= s.p.downtime_threshold_pages;
        bool exhausted = round >= s.p.max_rounds;
        // Pre-copy must make progress: if the round sent fewer pages
        // than got redirtied, iterating further cannot converge.
        bool diverging = round > 1 && dirty >= pages;
        if (converged || exhausted || diverging) {
            stopAndCopy(std::move(s), dirty);
        } else {
            sendRound(std::move(s), dirty, round + 1);
        }
    });
}

void
MigrationManager::stopAndCopy(Session s, std::uint64_t dirty_pages)
{
    Domain &dom = *s.dom;
    dom.pause();
    s.result.paused_at = hv_.eq().now();
    if (s.on_pause)
        s.on_pause();

    sim::Time down = copyTime(s.p, dirty_pages) + s.p.resume_overhead;
    s.result.pages_sent += dirty_pages;
    hv_.dom0Cpu(0).charge(double(dirty_pages) * hv_.costs().migrate_per_page,
                          "dom0-migr");

    hv_.eq().scheduleIn(down, [this, s = std::move(s)]() mutable {
        Domain &dom = *s.dom;
        dom.gpmap().disableDirtyLog();
        dom.resume();
        s.result.resumed_at = hv_.eq().now();
        in_progress_ = false;
        if (s.on_resume)
            s.on_resume();
        if (s.on_done)
            s.on_done(s.result);
    });
}

} // namespace sriov::vmm
