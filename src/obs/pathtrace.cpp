#include "obs/pathtrace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

namespace sriov::obs {

namespace {

constexpr const char *kStageNames[] = {
    "origin",      "guest_tx",   "tx_dma",     "wire_tx",
    "wire_rx",     "l2_classify", "ring_take",  "iommu_xlate",
    "rx_dma",      "msix_raise", "lapic_deliver", "guest_rx",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0])
                  == PathTracer::kStageCount,
              "stage name table out of sync with PathStage");

double
psToUs(std::int64_t ps)
{
    return double(ps) * 1e-6;
}

PathStageStat
statFor(PathStage s, const Histogram &h)
{
    PathStageStat st;
    st.stage = pathStageName(s);
    st.count = h.count();
    st.sum_us = h.sum();
    st.mean_us = h.mean();
    st.p50_us = h.percentile(50);
    st.p99_us = h.percentile(99);
    return st;
}

} // namespace

const char *
pathStageName(PathStage s)
{
    auto i = static_cast<unsigned>(s);
    return i < PathTracer::kStageCount ? kStageNames[i] : "invalid";
}

PathStage
pathStageFromName(std::string_view name)
{
    for (unsigned i = 0; i < PathTracer::kStageCount; ++i) {
        if (name == kStageNames[i])
            return static_cast<PathStage>(i);
    }
    return PathStage::Count;
}

PathTracer::PathTracer(Params p)
    : export_mask_(p.full ? 0 : kBaseSampleMask),
      ring_capacity_(std::max<std::size_t>(1, p.ring_capacity)),
      slot_mask_(0),
      total_hist_(0.125, 1.5, 48)
{
    // Round the slot table to a power of two so the index is a mask.
    std::size_t slots = 1;
    while (slots < std::max<std::size_t>(2, p.slots))
        slots <<= 1;
    slot_mask_ = slots - 1;
    slots_.resize(slots);
    for (auto &h : stage_hist_)
        h = Histogram(0.125, 1.5, 48);
}

std::uint16_t
PathTracer::registerComponent(std::string name)
{
    Ring r;
    r.name = std::move(name);
    r.buf.resize(ring_capacity_);
    rings_.push_back(std::move(r));
    return std::uint16_t(rings_.size() - 1);
}

std::uint64_t
PathTracer::sampleHash(std::uint64_t id)
{
    // splitmix64 finalizer: deterministic, stateless, well mixed even
    // for sequential ids. No wallclock, no RNG — simlint-clean.
    std::uint64_t z = id + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// simlint: hot
void
PathTracer::push(std::uint16_t comp, std::uint64_t id, PathStage stage,
                 sim::Time when)
{
    Ring &r = rings_[comp];
    PathRecord &rec = r.buf[r.written % ring_capacity_];
    rec.trace_id = id;
    rec.when_ps = when.picos();
    rec.comp = comp;
    rec.stage = std::uint8_t(stage);
    ++r.written;
}

// simlint: hot
void
PathTracer::stamp(std::uint64_t h, PathStage stage, std::uint64_t id,
                  sim::Time when)
{
    // Attribution table: direct-mapped on hash bits above the sampling
    // mask. A slot lives from Origin to GuestRx; stage deltas are
    // derived only at finalize time from the stored per-stage
    // timestamps, which carry the same values in thin and exact event
    // modes — so the histograms (and the path_stages report block) are
    // byte-identical across modes even though the stamp call order is
    // not.
    Slot &s = slots_[(h >> 6) & slot_mask_];
    const unsigned i = static_cast<unsigned>(stage);
    if (stage == PathStage::Origin) {
        ++origin_sampled_;
        if (s.id != 0 && s.id != id)
            ++evicted_;
        s.id = id;
        s.present = 1u;
        s.when[0] = when.picos();
        return;
    }
    if (s.id != id) {
        if (!shard_half_) {
            ++orphans_;
            return;
        }
        // Half-tracer: this island first sees the packet mid-path (it
        // crossed a wire boundary upstream). Adopt the slot as a
        // partial trail; mergeShards() joins it with the Origin half.
        if (s.id != 0)
            ++evicted_;
        s.id = id;
        s.present = 0;
    }
    s.when[i] = when.picos();
    s.present |= (1u << i);
    if (stage == PathStage::GuestRx && !shard_half_) {
        finalize(s);
        s.id = 0;
        s.present = 0;
    }
}

// simlint: hot
void
PathTracer::finalize(Slot &s)
{
    ++completed_;
    const std::int64_t t0 = s.when[0];
    total_hist_.record(psToUs(s.when[kStageCount - 1] - t0));
    std::int64_t prev = t0;
    for (unsigned i = 1; i < kStageCount; ++i) {
        if ((s.present & (1u << i)) == 0)
            continue;
        stage_hist_[i].record(psToUs(s.when[i] - prev));
        prev = s.when[i];
    }
}

PathSnapshot
PathTracer::snapshot() const
{
    PathSnapshot snap;
    snap.mode = export_mask_ == 0 ? "full" : "off";
    snap.export_mask = export_mask_;
    snap.base_mask = kBaseSampleMask;
    snap.records = records_;
    snap.marks = marks_;
    snap.origin_calls = origin_calls_;
    snap.origin_sampled = origin_sampled_;
    snap.completed = completed_;
    snap.evicted = evicted_;
    snap.orphans = orphans_;
    snap.comps.reserve(rings_.size());
    for (const Ring &r : rings_) {
        PathCompDump d;
        d.name = r.name;
        d.capacity = ring_capacity_;
        d.written = r.written;
        const std::uint64_t kept =
            std::min<std::uint64_t>(r.written, ring_capacity_);
        d.records.reserve(std::size_t(kept));
        for (std::uint64_t k = r.written - kept; k < r.written; ++k)
            d.records.push_back(r.buf[k % ring_capacity_]);
        snap.comps.push_back(std::move(d));
    }
    for (unsigned i = 1; i < kStageCount; ++i) {
        if (stage_hist_[i].empty())
            continue;
        snap.stages.push_back(
            statFor(static_cast<PathStage>(i), stage_hist_[i]));
    }
    snap.total = statFor(PathStage::Count, total_hist_);
    snap.total.stage = "total";
    return snap;
}

std::string
PathTracer::dumpText() const
{
    return pathSnapshotDump(snapshot());
}

PathSnapshot
PathTracer::mergeShards(const std::vector<const PathTracer *> &parts)
{
    PathSnapshot snap;
    if (parts.empty())
        return snap;
    snap.mode = parts[0]->export_mask_ == 0 ? "full" : "off";
    snap.export_mask = parts[0]->export_mask_;
    snap.base_mask = kBaseSampleMask;

    // Counters sum; component rings concatenate in parts order with
    // the records' comp field re-based onto the merged comps index.
    for (const PathTracer *p : parts) {
        snap.records += p->records_;
        snap.marks += p->marks_;
        snap.origin_calls += p->origin_calls_;
        snap.origin_sampled += p->origin_sampled_;
        snap.evicted += p->evicted_;
        snap.orphans += p->orphans_;
        const std::uint16_t base = std::uint16_t(snap.comps.size());
        for (const Ring &r : p->rings_) {
            PathCompDump d;
            d.name = r.name;
            d.capacity = p->ring_capacity_;
            d.written = r.written;
            const std::uint64_t kept =
                std::min<std::uint64_t>(r.written, p->ring_capacity_);
            d.records.reserve(std::size_t(kept));
            for (std::uint64_t k = r.written - kept; k < r.written;
                 ++k) {
                PathRecord rec = r.buf[k % p->ring_capacity_];
                rec.comp = std::uint16_t(rec.comp + base);
                d.records.push_back(rec);
            }
            snap.comps.push_back(std::move(d));
        }
    }

    // Join the attribution halves by trace id (first part wins a stage
    // both halves somehow stamped), then finalize completed trails in
    // ascending-id order — a total order independent of islands and
    // worker interleaving — into fresh histograms.
    std::map<std::uint64_t, Slot> joined;
    for (const PathTracer *p : parts) {
        for (const Slot &s : p->slots_) {
            if (s.id == 0)
                continue;
            Slot &m = joined[s.id];
            m.id = s.id;
            for (unsigned i = 0; i < kStageCount; ++i) {
                if ((s.present & (1u << i)) != 0
                    && (m.present & (1u << i)) == 0) {
                    m.when[i] = s.when[i];
                    m.present |= (1u << i);
                }
            }
        }
    }
    Histogram total(0.125, 1.5, 48);
    std::array<Histogram, kStageCount> stage_h;
    for (auto &h : stage_h)
        h = Histogram(0.125, 1.5, 48);
    const std::uint32_t need =
        1u | (1u << (kStageCount - 1));    // Origin and GuestRx
    for (auto &[id, s] : joined) {
        (void)id;
        if ((s.present & need) != need)
            continue;
        ++snap.completed;
        const std::int64_t t0 = s.when[0];
        total.record(psToUs(s.when[kStageCount - 1] - t0));
        std::int64_t prev = t0;
        for (unsigned i = 1; i < kStageCount; ++i) {
            if ((s.present & (1u << i)) == 0)
                continue;
            stage_h[i].record(psToUs(s.when[i] - prev));
            prev = s.when[i];
        }
    }
    for (unsigned i = 1; i < kStageCount; ++i) {
        if (stage_h[i].empty())
            continue;
        snap.stages.push_back(
            statFor(static_cast<PathStage>(i), stage_h[i]));
    }
    snap.total = statFor(PathStage::Count, total);
    snap.total.stage = "total";
    return snap;
}

std::vector<PathTrail>
stitchTrails(const PathSnapshot &snap)
{
    std::map<std::uint64_t, PathTrail> by_id;
    for (const PathCompDump &c : snap.comps) {
        for (const PathRecord &r : c.records) {
            if (r.trace_id == 0)
                continue;
            PathTrail &t = by_id[r.trace_id];
            t.id = r.trace_id;
            t.hops.push_back(r);
        }
    }
    std::vector<PathTrail> trails;
    trails.reserve(by_id.size());
    for (auto &[id, t] : by_id) {
        (void)id;
        std::sort(t.hops.begin(), t.hops.end(),
                  [](const PathRecord &a, const PathRecord &b) {
                      if (a.when_ps != b.when_ps)
                          return a.when_ps < b.when_ps;
                      return a.stage < b.stage;
                  });
        // A trail whose head was overwritten in some ring can no
        // longer be anchored; keep only trails that begin at Origin.
        if (t.hops.front().stage != std::uint8_t(PathStage::Origin))
            continue;
        trails.push_back(std::move(t));
    }
    std::sort(trails.begin(), trails.end(),
              [](const PathTrail &a, const PathTrail &b) {
                  if (a.hops.front().when_ps != b.hops.front().when_ps)
                      return a.hops.front().when_ps
                             < b.hops.front().when_ps;
                  return a.id < b.id;
              });
    return trails;
}

std::string
pathSnapshotDump(const PathSnapshot &snap)
{
    std::ostringstream os;
    os << "--- pathtrace flight recorder (mode=" << snap.mode
       << ", base 1/" << (snap.base_mask + 1) << ") ---\n";
    os << "records=" << snap.records << " marks=" << snap.marks
       << " origins=" << snap.origin_sampled << "/" << snap.origin_calls
       << " completed=" << snap.completed << " evicted=" << snap.evicted
       << " orphans=" << snap.orphans << "\n";
    for (const PathCompDump &c : snap.comps) {
        if (c.written == 0)
            continue;
        os << "ring " << c.name << ": written=" << c.written
           << " kept=" << c.records.size() << "/" << c.capacity << "\n";
    }
    auto trails = stitchTrails(snap);
    os << "trails stitched: " << trails.size() << "\n";
    for (const PathTrail &t : trails) {
        char idbuf[32];
        std::snprintf(idbuf, sizeof idbuf, "0x%016" PRIx64, t.id);
        os << "  " << idbuf << ":";
        for (const PathRecord &r : t.hops) {
            os << " "
               << pathStageName(static_cast<PathStage>(r.stage)) << "@"
               << sim::Time::ps(r.when_ps).toString();
        }
        os << "\n";
    }
    return os.str();
}

namespace {

void
writeStageStat(JsonWriter &w, const PathStageStat &st, double share_pct)
{
    w.beginObject();
    w.kv("stage", st.stage);
    w.kv("count", st.count);
    w.kv("mean_us", st.mean_us);
    w.kv("p50_us", st.p50_us);
    w.kv("p99_us", st.p99_us);
    w.kv("share_pct", share_pct);
    w.endObject();
}

} // namespace

bool
writePathTraceFile(
    const std::string &path, const std::string &bench, const char *kind,
    const std::vector<std::pair<std::string, PathSnapshot>> &cases)
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "sriov-pathtrace/v1");
    w.kv("bench", bench);
    w.kv("kind", kind);
    w.key("cases").beginArray();
    for (const auto &[label, snap] : cases) {
        w.beginObject();
        w.kv("label", label);
        w.kv("mode", snap.mode);
        w.kv("export_mask", snap.export_mask);
        w.kv("base_mask", snap.base_mask);
        w.kv("records", snap.records);
        w.kv("marks", snap.marks);
        w.kv("origin_calls", snap.origin_calls);
        w.kv("origin_sampled", snap.origin_sampled);
        w.kv("completed", snap.completed);
        w.kv("evicted", snap.evicted);
        w.kv("orphans", snap.orphans);
        w.key("components").beginArray();
        for (const PathCompDump &c : snap.comps) {
            w.beginObject();
            w.kv("name", c.name);
            w.kv("capacity", std::uint64_t(c.capacity));
            w.kv("written", c.written);
            w.kv("overwritten",
                 c.written > c.capacity
                     ? c.written - std::uint64_t(c.capacity)
                     : 0);
            w.endObject();
        }
        w.endArray();
        const double total_sum = snap.total.sum_us;
        w.key("stages").beginArray();
        for (const PathStageStat &st : snap.stages)
            writeStageStat(w, st,
                           total_sum > 0
                               ? st.sum_us / total_sum * 100.0
                               : 0.0);
        w.endArray();
        w.key("total").beginObject();
        w.kv("count", snap.total.count);
        w.kv("mean_us", snap.total.mean_us);
        w.kv("p50_us", snap.total.p50_us);
        w.kv("p99_us", snap.total.p99_us);
        w.endObject();
        w.key("trails").beginArray();
        for (const PathTrail &t : stitchTrails(snap)) {
            char idbuf[32];
            std::snprintf(idbuf, sizeof idbuf, "0x%016" PRIx64, t.id);
            w.beginObject();
            w.kv("id", idbuf);
            w.key("hops").beginArray();
            for (const PathRecord &r : t.hops) {
                w.beginObject();
                w.kv("stage",
                     pathStageName(static_cast<PathStage>(r.stage)));
                w.kv("comp", snap.comps[r.comp].name);
                w.kv("t_ps", std::int64_t(r.when_ps));
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return writeTextFile(path, w.str());
}

void
exportPathFlows(ChromeTraceWriter &w, const std::string &label,
                const PathSnapshot &snap)
{
    auto trails = stitchTrails(snap);
    for (const PathTrail &t : trails) {
        for (std::size_t i = 0; i < t.hops.size(); ++i) {
            const PathRecord &r = t.hops[i];
            const sim::Time at = sim::Time::ps(r.when_ps);
            // One slice per hop, lasting until the next hop (the last
            // hop gets a token 1 ns so the viewer can render it).
            const sim::Time end =
                i + 1 < t.hops.size()
                    ? sim::Time::ps(t.hops[i + 1].when_ps)
                    : at + sim::Time::ns(1);
            auto track = w.track("pathtrace:" + label,
                                 snap.comps[r.comp].name);
            w.addSpan(track,
                      pathStageName(static_cast<PathStage>(r.stage)),
                      at, end);
            const char phase = i == 0 ? 's'
                               : i + 1 == t.hops.size() ? 'f'
                                                        : 't';
            w.addFlow(track, "pkt", t.id, phase, at);
        }
    }
}

} // namespace sriov::obs
