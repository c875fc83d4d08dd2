#include "obs/chrome_trace.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace sriov::obs {

namespace {

/** trace_event timestamps are microseconds; keep sub-µs as fraction. */
double
psToUs(std::int64_t ps)
{
    return double(ps) / 1e6;
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::size_t max_events)
    : max_events_(max_events)
{}

ChromeTraceWriter::~ChromeTraceWriter()
{
    detachAll();
}

ChromeTraceWriter::Track
ChromeTraceWriter::track(const std::string &process, const std::string &thread)
{
    auto [pit, pnew] = pids_.try_emplace(process, int(pids_.size()) + 1);
    (void)pnew;
    int pid = pit->second;
    auto [tit, tnew] =
        tids_.try_emplace({pid, thread}, int(tids_.size()) + 1);
    (void)tnew;
    return Track{pid, tit->second};
}

void
ChromeTraceWriter::push(Event e)
{
    if (events_.size() >= max_events_) {
        ++dropped_;
        ++dropped_by_track_[{e.pid, e.tid}];
        return;
    }
    events_.push_back(std::move(e));
}

void
ChromeTraceWriter::addSpan(Track t, std::string name, sim::Time start,
                           sim::Time end)
{
    if (end < start)
        end = start;
    push(Event{'X', t.pid, t.tid, std::move(name), start.picos(),
               (end - start).picos()});
}

void
ChromeTraceWriter::addInstant(Track t, std::string name, sim::Time when)
{
    push(Event{'i', t.pid, t.tid, std::move(name), when.picos(), 0});
}

void
ChromeTraceWriter::addFlow(Track t, std::string name,
                           std::uint64_t flow_id, char phase,
                           sim::Time when)
{
    if (phase != 's' && phase != 't' && phase != 'f')
        return;
    push(Event{phase, t.pid, t.tid, std::move(name), when.picos(), 0,
               flow_id});
}

void
ChromeTraceWriter::attachCpu(sim::CpuServer &cpu, const std::string &process)
{
    cpu_tracks_[&cpu] = track(process, cpu.name());
    cpu.setSpanTap(this);
    if (std::find(attached_cpus_.begin(), attached_cpus_.end(), &cpu)
        == attached_cpus_.end())
        attached_cpus_.push_back(&cpu);
}

void
ChromeTraceWriter::attachEventQueue(sim::EventQueue &eq,
                                    const std::string &process)
{
    Track t = track(process, "events");
    for (const auto &tap : queue_taps_) {
        if (&tap->queue == &eq) {
            tap->track = t;
            return;
        }
    }
    queue_taps_.push_back(std::make_unique<QueueTap>(*this, eq, t));
    eq.addExecHook(queue_taps_.back().get());
}

void
ChromeTraceWriter::detachAll()
{
    for (sim::CpuServer *cpu : attached_cpus_) {
        if (cpu->spanTap() == this)
            cpu->setSpanTap(nullptr);
    }
    attached_cpus_.clear();
    for (const auto &tap : queue_taps_)
        tap->queue.removeExecHook(tap.get());
    queue_taps_.clear();
}

void
ChromeTraceWriter::onCpuSpan(const sim::CpuServer &cpu, const std::string &tag,
                             sim::Time start, sim::Time end)
{
    auto it = cpu_tracks_.find(&cpu);
    if (it == cpu_tracks_.end())
        return;
    addSpan(it->second, tag.empty() ? std::string("work") : tag, start, end);
}

void
ChromeTraceWriter::QueueTap::onEventEnd(sim::Time when, std::uint64_t seq,
                                        const char *tag)
{
    (void)seq;
    // One instant per executed event would swamp the viewer and the
    // buffer; only tagged events (interrupts, timers, migration steps)
    // are interesting enough to mark.
    if (tag == nullptr || *tag == '\0')
        return;
    writer.addInstant(track, tag, when);
}

std::string
ChromeTraceWriter::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata first: name the process and thread rows.
    for (const auto &[name, pid] : pids_) {
        w.beginObject();
        w.key("ph").value("M");
        w.key("pid").value(std::int64_t(pid));
        w.key("tid").value(std::int64_t(0));
        w.key("name").value("process_name");
        w.key("args");
        w.beginObject();
        w.key("name").value(name);
        w.endObject();
        w.endObject();
    }
    for (const auto &[key, tid] : tids_) {
        w.beginObject();
        w.key("ph").value("M");
        w.key("pid").value(std::int64_t(key.first));
        w.key("tid").value(std::int64_t(tid));
        w.key("name").value("thread_name");
        w.key("args");
        w.beginObject();
        w.key("name").value(key.second);
        w.endObject();
        w.endObject();
    }

    for (const Event &e : events_) {
        w.beginObject();
        w.key("ph").value(std::string(1, e.phase));
        w.key("pid").value(std::int64_t(e.pid));
        w.key("tid").value(std::int64_t(e.tid));
        w.key("name").value(e.name);
        w.key("ts").value(psToUs(e.ts_ps));
        if (e.phase == 'X') {
            w.key("dur").value(psToUs(e.dur_ps));
        } else if (e.phase == 'i') {
            w.key("s").value("t");
        } else if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
            w.key("cat").value("pathtrace");
            w.key("id").value(std::uint64_t(e.flow_id));
            if (e.phase != 's')
                w.key("bp").value("e"); // bind to the enclosing slice
        }
        w.endObject();
    }

    w.endArray();
    w.key("displayTimeUnit").value("ns");
    if (dropped_ > 0) {
        w.key("sriovDroppedEvents").value(std::uint64_t(dropped_));
        // Reverse the interning maps so each drop count carries its
        // human-readable (process, thread) track name.
        std::map<int, std::string> pname;
        for (const auto &[name, pid] : pids_)
            pname[pid] = name;
        std::map<std::pair<int, int>, std::string> tname;
        for (const auto &[key, tid] : tids_)
            tname[{key.first, tid}] = key.second;
        w.key("sriovDroppedByTrack").beginArray();
        for (const auto &[trk, n] : dropped_by_track_) {
            w.beginObject();
            w.key("pid").value(std::int64_t(trk.first));
            w.key("tid").value(std::int64_t(trk.second));
            auto pit = pname.find(trk.first);
            w.key("process").value(pit != pname.end() ? pit->second
                                                      : std::string());
            auto tit = tname.find(trk);
            w.key("thread").value(tit != tname.end() ? tit->second
                                                     : std::string());
            w.key("dropped").value(std::uint64_t(n));
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    return w.str();
}

bool
ChromeTraceWriter::writeTo(const std::string &path) const
{
    return writeTextFile(path, toJson());
}

} // namespace sriov::obs
