/**
 * @file
 * Causal per-packet path tracing.
 *
 * Every packet gets a compact trace id at origin (the sending net
 * stack); each datapath stage boundary — guest TX, DMA, wire, L2
 * classify, RX ring take, IOMMU translate, MSI-X raise, LAPIC deliver,
 * guest RX — appends a fixed-size (trace_id, stage, sim_time) record
 * into a per-component bounded ring. The hot path is allocation-free
 * (rings, attribution slots and histograms are sized at construction)
 * and sampling is a pure hash of the trace id, so the tracer is
 * non-perturbing by construction: it never schedules events, never
 * touches a metric, and never consults wallclock or a RNG. CI holds it
 * to that: the golden fig06 digest and every figXX.json report must be
 * byte-identical with the full export on and off.
 *
 * Three consumers sit on the raw records:
 *  - a stitcher that reconstructs per-packet trails and exports them
 *    as Perfetto flow events through ChromeTraceWriter;
 *  - a stage-latency attribution table (per-stage p50/p99 and
 *    share-of-total), fed at a fixed 1/64 base sampling rate whether
 *    or not the full export is on, so the path_stages block in
 *    figXX.json is byte-identical either way;
 *  - an always-on flight recorder: the last-N per-component rings are
 *    dumped whenever the InvariantChecker trips or a bench report goes
 *    out of band, so every failure ships its own post-mortem.
 */

#ifndef SRIOV_OBS_PATHTRACE_HPP
#define SRIOV_OBS_PATHTRACE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "sim/time.hpp"

namespace sriov::obs {

/**
 * Datapath stage boundaries, in causal order for the canonical
 * client -> wire -> NIC -> guest RX path. A trail need not visit every
 * stage (loopback skips the wire, PV paths skip the IOMMU); attribution
 * charges the time since the previous *visited* stage.
 */
enum class PathStage : std::uint8_t
{
    Origin,         ///< net stack assigned the trace id (send call)
    GuestTx,        ///< NIC accepted the frame for transmit
    TxDma,          ///< TX descriptor DMA completed
    WireTx,         ///< frame started serializing onto the wire
    WireRx,         ///< frame delivered at the far wire end
    L2Classify,     ///< embedded L2 switch picked the target pool
    RingTake,       ///< RX descriptor taken from the pool ring
    IommuXlate,     ///< DMA address translated by the IOMMU
    RxDma,          ///< RX payload DMA completed
    MsixRaise,      ///< MSI-X interrupt raised for the completion
    LapicDeliver,   ///< driver ISR drained the completion
    GuestRx,        ///< guest net stack consumed the packet
    Count
};

/** Stable lowercase name ("wire_rx") used in JSON artifacts. */
const char *pathStageName(PathStage s);

/** Parse a pathStageName back; returns Count for unknown names. */
PathStage pathStageFromName(std::string_view name);

/** One fixed-size ring record. trace_id 0 marks an auxiliary record
 *  (component activity not tied to one packet, e.g. an MSI delivery
 *  observed at the interrupt router). */
struct PathRecord
{
    std::uint64_t trace_id = 0;
    std::int64_t when_ps = 0;
    std::uint16_t comp = 0;
    std::uint8_t stage = 0;
};

/** Per-stage latency summary captured in a snapshot. */
struct PathStageStat
{
    std::string stage;
    double count = 0;
    double sum_us = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
};

/** One component's bounded ring, oldest record first. */
struct PathCompDump
{
    std::string name;
    std::size_t capacity = 0;
    std::uint64_t written = 0;      ///< lifetime pushes (>= records.size())
    std::vector<PathRecord> records;
};

/**
 * A value-type snapshot of a tracer: counters, ring contents and the
 * attribution table. Captured per sweep case (worker-thread confined)
 * and merged in declaration order, so artifacts built from snapshots
 * are byte-identical whatever --jobs says.
 */
struct PathSnapshot
{
    std::string mode;               ///< "full" or "off" (Params::full)
    std::uint64_t export_mask = 0;  ///< id kept when (hash & mask) == 0
    std::uint64_t base_mask = 0;    ///< attribution/flight-recorder mask
    std::uint64_t records = 0;      ///< record() calls with a trace id
    std::uint64_t marks = 0;        ///< mark() calls (aux records)
    std::uint64_t origin_calls = 0; ///< Origin stamps offered
    std::uint64_t origin_sampled = 0; ///< Origin stamps base-sampled
    std::uint64_t completed = 0;    ///< trails finalized at GuestRx
    std::uint64_t evicted = 0;      ///< slots reclaimed by a new Origin
    std::uint64_t orphans = 0;      ///< stamps with no live slot
    std::vector<PathCompDump> comps;
    std::vector<PathStageStat> stages; ///< visited stages, causal order
    PathStageStat total;            ///< origin -> guest RX latency
    bool hasAttribution() const { return total.count > 0; }
};

/** A stitched per-packet trail: every ring record for one trace id,
 *  time-ordered, beginning at Origin. */
struct PathTrail
{
    std::uint64_t id = 0;
    std::vector<PathRecord> hops;
};

/**
 * The tracer. One per testbed (worker-thread confined under --jobs);
 * components hold a pointer plus a component id from
 * registerComponent() and stamp stage boundaries with record().
 *
 * Register every component before traffic starts: registration
 * allocates the ring storage, record() never allocates.
 */
class PathTracer
{
  public:
    static constexpr unsigned kStageCount =
        static_cast<unsigned>(PathStage::Count);
    /** Base sampling: 1 in 64 trace ids feed attribution and the
     *  flight recorder, with the full export on or off. */
    static constexpr std::uint64_t kBaseSampleMask = 63;

    struct Params
    {
        std::size_t ring_capacity = 512; ///< records kept per component
        std::size_t slots = 4096;        ///< attribution table (pow-2)
        /** Full export (--pathtrace): every traced packet's records go
         *  into the rings and the bench writes the pathtrace artifacts.
         *  Off, the rings keep the flight-recorder rate only. Either
         *  way attribution runs at the base rate, so the export
         *  cannot change a report byte. */
        bool full = false;
    };

    PathTracer() : PathTracer(Params{}) {}
    explicit PathTracer(Params p);

    PathTracer(const PathTracer &) = delete;
    PathTracer &operator=(const PathTracer &) = delete;

    /** Add a component ring; the returned id tags its records. */
    std::uint16_t registerComponent(std::string name);

    /** splitmix64 finalizer: the deterministic sampling hash. */
    static std::uint64_t sampleHash(std::uint64_t id);
    /** Does @p id feed attribution + the flight recorder? */
    static bool
    baseSampled(std::uint64_t id)
    {
        return (sampleHash(id) & kBaseSampleMask) == 0;
    }

    /**
     * Stamp a stage boundary for packet @p id at simulated time
     * @p when. Ignores id 0 (untraced). Alloc-free; safe to call from
     * simlint-hot functions.
     */
    // simlint: hot
    void
    record(std::uint16_t comp, PathStage stage, std::uint64_t id,
           sim::Time when)
    {
        if (id == 0 || comp >= rings_.size())
            return;
        ++records_;
        const std::uint64_t h = sampleHash(id);
        if ((h & export_mask_) == 0)
            push(comp, id, stage, when);
        if (stage == PathStage::Origin)
            ++origin_calls_;
        if ((h & kBaseSampleMask) != 0)
            return;
        stamp(h, stage, id, when);
    }

    /** Auxiliary component record (trace id 0), always kept. */
    // simlint: hot
    void
    mark(std::uint16_t comp, PathStage stage, sim::Time when)
    {
        if (comp >= rings_.size())
            return;
        ++marks_;
        push(comp, 0, stage, when);
    }

    std::uint64_t exportMask() const { return export_mask_; }
    std::uint64_t recordCount() const { return records_; }
    std::uint64_t completedCount() const { return completed_; }

    /**
     * Sharded-island half-tracer mode (DESIGN.md §13). An island sees
     * only its part of a packet's path, so a stamp for an id the
     * tracer never saw an Origin for *adopts* the slot as a partial
     * trail instead of counting an orphan, and GuestRx defers
     * finalization: slots stay live until mergeShards() joins the
     * halves by trace id. Set once, before traffic.
     */
    void setShardHalf(bool on) { shard_half_ = on; }
    bool shardHalf() const { return shard_half_; }

    /**
     * Join per-island half tracers into one snapshot: counters summed
     * and component rings concatenated in @p parts order (record comp
     * ids re-based), attribution slots joined by trace id and
     * finalized in ascending-id order into fresh histograms. The
     * result depends only on the tracers' contents — i.e. on the
     * island partition, not the worker count — so artifacts built from
     * it are byte-identical from --shards=1 to --shards=N.
     */
    static PathSnapshot
    mergeShards(const std::vector<const PathTracer *> &parts);

    /** Capture counters, rings and attribution as a value. */
    PathSnapshot snapshot() const;

    /** Human-readable post-mortem dump (counters + stitched trails). */
    std::string dumpText() const;

  private:
    struct Ring
    {
        std::string name;
        std::vector<PathRecord> buf;
        std::uint64_t written = 0;
    };

    struct Slot
    {
        std::uint64_t id = 0;
        std::uint32_t present = 0;
        std::array<std::int64_t, kStageCount> when{};
    };

    void push(std::uint16_t comp, std::uint64_t id, PathStage stage,
              sim::Time when);
    void stamp(std::uint64_t h, PathStage stage, std::uint64_t id,
               sim::Time when);
    void finalize(Slot &s);

    bool shard_half_ = false;
    std::uint64_t export_mask_;
    std::size_t ring_capacity_;
    std::size_t slot_mask_;
    std::vector<Ring> rings_;
    std::vector<Slot> slots_;
    std::array<Histogram, kStageCount> stage_hist_;
    Histogram total_hist_;
    std::uint64_t records_ = 0;
    std::uint64_t marks_ = 0;
    std::uint64_t origin_calls_ = 0;
    std::uint64_t origin_sampled_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t evicted_ = 0;
    std::uint64_t orphans_ = 0;
};

/** Reconstruct per-packet trails from a snapshot's rings: records
 *  grouped by trace id, time-ordered, trails sorted by first stamp.
 *  Trails whose head was overwritten (no Origin) are dropped. */
std::vector<PathTrail> stitchTrails(const PathSnapshot &snap);

/** Render one snapshot as the post-mortem text block appended to
 *  InvariantChecker reports. */
std::string pathSnapshotDump(const PathSnapshot &snap);

/**
 * Write figXX.pathtrace.json / figXX.flightrec.json (schema
 * sriov-pathtrace/v1, kind "trace" or "flightrec"): per case the
 * counters, component rings, stitched trails and stage table.
 */
bool writePathTraceFile(
    const std::string &path, const std::string &bench,
    const char *kind,
    const std::vector<std::pair<std::string, PathSnapshot>> &cases);

class ChromeTraceWriter;

/** Export one case's stitched trails as per-stage slices bound by
 *  Perfetto flow events ('s'/'t'/'f') on the given writer. */
void exportPathFlows(ChromeTraceWriter &w, const std::string &label,
                     const PathSnapshot &snap);

} // namespace sriov::obs

#endif // SRIOV_OBS_PATHTRACE_HPP
