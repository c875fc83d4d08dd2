/**
 * @file
 * Wire: a full-duplex point-to-point Ethernet link.
 *
 * Each direction is an independent FIFO serializing frames at the line
 * rate (wireBytes() includes preamble + IFG, so a saturated 10 GbE
 * line yields exactly the paper's 9.57 Gb/s of UDP goodput). Endpoints
 * implement WireEndpoint::receive().
 *
 * Two timing implementations share the same model:
 *
 *  - Exact (--no-thin): one "wire.serialized" event per frame pops the
 *    next frame off the queue, one "wire.deliver" event hands it to
 *    the receiver — the reference FIFO server.
 *
 *  - Thin (default): start and delivery times are computed
 *    analytically at send time (start_i = max(finish_{i-1}, release_i),
 *    both monotone per direction) and a single per-direction
 *    "wire.burst" drain event walks the in-flight ring, delivering
 *    each frame at its exact timestamp. Per-frame accounting, the
 *    TX-queue drop bound and delivery times are identical; only the
 *    number of simulator events changes.
 *
 * The wire is also the simulator's only legal shard boundary
 * (DESIGN.md §13). Constructed in sharded form, its two ends live on
 * different islands: the sender half admits frames exactly as the
 * single-island thin form does (line_free_at, and a ring of un-started
 * frames' start instants for the TX drop bound) and pushes
 * (due, frame) messages into a sim::ShardChannel; the receiving
 * island's engine delivers each frame at exactly its due instant — the
 * same analytic timestamps thinning already computes, so the channel
 * *replaces* the drain event rather than adding a layer. Propagation
 * delay is the engine lookahead: every message is due at least one
 * propagation after the instant its send executed, which the send path
 * asserts (sim::panic on violation — it would break conservative
 * sync, not just accuracy).
 */

#ifndef SRIOV_NIC_WIRE_HPP
#define SRIOV_NIC_WIRE_HPP

#include <utility>
#include <vector>

#include "nic/packet.hpp"
#include "obs/pathtrace.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring_buf.hpp"
#include "sim/shard_engine.hpp"
#include "sim/stats.hpp"

namespace sriov::nic {

class WireEndpoint
{
  public:
    virtual ~WireEndpoint() = default;

    /** A frame fully arrived from the line. */
    virtual void receive(const Packet &pkt) = 0;
};

class Wire
{
  public:
    struct Params
    {
        double line_bps = 1e9;
        sim::Time propagation = sim::Time::ns(500);
    };

    Wire(sim::EventQueue &eq, Params p);
    Wire(sim::EventQueue &eq);

    /**
     * Sharded construction: endpoint a (the first argument of
     * connect()) lives on island @p island_a whose queue is @p eq_a,
     * endpoint b on @p island_b / @p eq_b. Registers one channel per
     * direction with @p engine, lookahead = the propagation delay.
     */
    Wire(sim::EventQueue &eq_a, sim::EventQueue &eq_b,
         sim::ShardEngine &engine, unsigned island_a, unsigned island_b,
         Params p);

    double lineRate() const { return params_.line_bps; }
    bool sharded() const { return sharded_; }

    /** Connect the two ends. Must be called before traffic flows. */
    void connect(WireEndpoint &a, WireEndpoint &b);

    /**
     * Transmit @p pkt from endpoint @p from toward the other end.
     * Frames queue behind in-flight ones (FIFO per direction). Returns
     * false (and counts a drop) if the TX queue is beyond its cap —
     * senders are expected to pace themselves.
     */
    bool send(WireEndpoint &from, const Packet &pkt);

    /**
     * Thin-mode form: hand the frame over now but have it reach the
     * line at @p release >= now() (the analytically known DMA-complete
     * time). Queueing, the drop bound and the delivery time are
     * evaluated as of @p release, so the outcome matches an exact-mode
     * send() issued at that instant. Successive releases per direction
     * must be monotone (they come from one FIFO DMA engine).
     */
    bool sendAt(WireEndpoint &from, const Packet &pkt, sim::Time release);

    std::uint64_t
    delivered() const
    {
        return delivered_[0].value() + delivered_[1].value();
    }
    std::uint64_t
    dropped() const
    {
        return dropped_[0].value() + dropped_[1].value();
    }
    /** Frames accepted by send() (conservation: at quiescence,
     *  offered == delivered + dropped and nothing is queued). */
    std::uint64_t
    offered() const
    {
        return offered_[0].value() + offered_[1].value();
    }
    /** Frames in flight: queued, serializing/propagating, or (sharded)
     *  sitting undelivered in a cross-island channel. */
    std::uint64_t inFlight() const
    {
        return offered() - dropped() - delivered();
    }

    static constexpr std::size_t kTxQueueCap = 4096;

    /** Attach the path tracer: accepted frames stamp WireTx at their
     *  serialization start, deliveries stamp WireRx. Both stamps land
     *  in @p pt (the single-tracer, single-island form). */
    void
    setPathTracer(obs::PathTracer *pt, std::uint16_t comp)
    {
        pt_side_[0] = pt_side_[1] = pt;
        pt_comp_side_[0] = pt_comp_side_[1] = comp;
    }

    /** Sharded form: WireTx/WireRx stamps land in the tracer of the
     *  island doing the stamping (side 0 = endpoint a's island). */
    void
    setShardPathTracers(obs::PathTracer *pt_a, std::uint16_t comp_a,
                        obs::PathTracer *pt_b, std::uint16_t comp_b)
    {
        pt_side_[0] = pt_a;
        pt_side_[1] = pt_b;
        pt_comp_side_[0] = comp_a;
        pt_comp_side_[1] = comp_b;
    }

    /** Fluid-mode state walk (sim/fluid.hpp): counters and serializer
     *  horizons are linear; in-flight frames align by FIFO position. */
    void fluidVisit(sim::FluidVisitor &v);

  private:
    /** A frame accepted in thin mode, timestamped analytically. */
    struct InFlight
    {
        Packet pkt;
        sim::Time deliver_at;    ///< receiver sees the frame
    };

    /** Cross-island message: the due time rides in the channel. */
    struct ShardMsg
    {
        Packet pkt;
    };

    struct DirRef
    {
        Wire *wire = nullptr;
        unsigned dir = 0;
    };

    struct Direction
    {
        WireEndpoint *to = nullptr;
        // Exact mode: frames waiting to serialize.
        sim::RingBuf<Packet> q;
        bool busy = false;
        // Thin mode: start instants of accepted frames that may not
        // have begun serializing (the TX-queue drop bound, kept on the
        // sender side in both forms) and the serializer horizon.
        sim::RingBuf<sim::Time> starts;
        sim::Time line_free_at;    ///< when the serializer goes idle
        // Single island: accepted frames not yet delivered.
        sim::RingBuf<InFlight> fl;
        bool drain_armed = false;
        // Sharded: the channel toward the receiving island.
        std::unique_ptr<sim::ShardChannel<ShardMsg>> chan;
        DirRef ref;
        /** Receiver-side stream -> ledger flow id: each cross-island
         *  stream's delivery instants register as a Source flow on the
         *  receiving island's ledger (the edge grid certificate). */
        std::vector<std::pair<std::uint64_t, int>> rx_flows;
    };

    void startNext(unsigned dir);
    void drain(unsigned dir);
    unsigned dirOf(WireEndpoint &from) const;
    /** Thin admission: count the offer, apply the TX drop bound as of
     *  @p release and, if accepted, book the serializer and set
     *  @p due to the delivery instant. */
    bool admit(unsigned dir, const Packet &pkt, sim::Time release,
               sim::Time *due);
    void pushShard(unsigned dir, const Packet &pkt, sim::Time due);
    static void deliverShard(void *ctx, sim::Time due,
                             const ShardMsg &msg);

    /** The queue a direction's *sender* half runs on. */
    sim::EventQueue &senderEq(unsigned dir) { return *eq_side_[dir]; }
    const sim::EventQueue &
    senderEq(unsigned dir) const
    {
        return *eq_side_[dir];
    }

    Params params_;
    bool thin_;
    bool sharded_ = false;
    sim::EventQueue *eq_side_[2];    ///< [0]=a's island, [1]=b's
    Direction dirs_[2];
    WireEndpoint *end_a_ = nullptr;
    WireEndpoint *end_b_ = nullptr;
    // Per direction so a sharded wire's two islands never share a
    // counter: offered/dropped belong to the sender half, delivered to
    // the receiver half. The accessors sum both directions.
    sim::Counter delivered_[2];
    sim::Counter dropped_[2];
    sim::Counter offered_[2];
    obs::PathTracer *pt_side_[2] = {nullptr, nullptr};
    std::uint16_t pt_comp_side_[2] = {0, 0};
};

} // namespace sriov::nic

#endif // SRIOV_NIC_WIRE_HPP
