#include "core/warp_coordinator.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/log.hpp"

namespace sriov::core {

namespace {

/** Exact-execution slice while waiting for steadiness. Coarse on
 *  purpose: with workers > 1 every engine.runUntil() spawns and joins
 *  threads, so sub-ms slices would drown the run in scheduling
 *  overhead. Off the ms grid so a barrier never lands exactly on a
 *  schedule instant while the ledgers are still settling. */
constexpr sim::Time kPollChunk = sim::Time::us(997);
/** Base back-off after a rejected cycle, doubling per consecutive
 *  rejection up to kMaxBackoffShift times. */
constexpr sim::Time kBackoff = sim::Time::ms(5);
constexpr unsigned kMaxBackoffShift = 6;
/** Period-multiplier scan bound (m * P for m = 1..kMaxMult). */
constexpr unsigned kMaxMult = 8;
/** Smallest warp worth applying (in periods). */
constexpr std::int64_t kMinPeriods = 2;

} // namespace

bool
WarpCoordinator::shiftSafeTag(const char *tag)
{
    // Callbacks under these tags capture only owner pointers and
    // indices, never per-packet state, so firing them n periods later
    // reproduces the shifted schedule exactly. Notable exclusions:
    // "dma.done" and the exact-mode wire events capture a Packet, and
    // netback's CPU batches capture frame vectors (gated separately
    // via WarpGate) — any of those pending rejects the cycle.
    static const char *const kSafe[] = {
        "cpu.done",          // CpuServer completion (captures this)
        "wire.burst",        // thin-mode wire drain (this + direction)
        "netperf.emit",      // CBR sender tick (captures this)
        "netperf.rto",       // TCP RTO deferred timer (captures this)
        "netperf.sample",    // receiver rate sampling (captures this)
        "nic.itr",           // ITR window expiry (this + pool index)
        "driver.itr_sample", // driver retune timer (captures this)
    };
    for (const char *s : kSafe) {
        if (std::strcmp(tag, s) == 0)
            return true;
    }
    return false;
}

WarpCoordinator::WarpCoordinator(sim::ShardEngine &engine, StateWalk walk,
                                 WarpGate gate)
    : engine_(engine), walk_(std::move(walk)), gate_(std::move(gate))
{
    if (engine_.islandCount() == 0)
        sim::fatal("warp coordinator: engine has no islands");
}

sim::Time
WarpCoordinator::now() const
{
    // At a barrier every island clock is pinned to the same instant;
    // island 0 speaks for all of them.
    return const_cast<sim::ShardEngine &>(engine_).islandQueue(0).now();
}

bool
WarpCoordinator::ledgersSteady() const
{
    // liveSteady() (not allSteady()) per ledger: an island whose flows
    // all ended — or that never had any, like a slice whose port hosts
    // no guests — is vacuously steady and must not veto the global
    // warp. At least one island has to be carrying live traffic,
    // though, or there is nothing to certify against.
    std::size_t live = 0;
    for (unsigned i = 0; i < engine_.islandCount(); ++i) {
        const sim::FlowLedger *l = engine_.islandLedger(i);
        if (l == nullptr)
            continue;
        if (!l->liveSteady())
            return false;
        live += l->liveFlows();
    }
    return live > 0;
}

sim::Time
WarpCoordinator::globalPeriod(sim::Time cap) const
{
    // Global hyperperiod: LCM of the per-island hyperperiods. Edge
    // traffic needs no separate term — every cross-island stream's
    // delivery grid is registered as a flow on the receiving island
    // (nic::Wire::deliverShard), so each edge period already divides
    // both endpoint islands' periods.
    sim::Time lcm;
    for (unsigned i = 0; i < engine_.islandCount(); ++i) {
        const sim::FlowLedger *l = engine_.islandLedger(i);
        if (l == nullptr || l->liveFlows() == 0)
            continue;
        // An unsteady island's Time() fails the fold too.
        lcm = sim::FlowLedger::boundedLcm(lcm, l->commonPeriod(cap), cap);
        if (lcm == sim::Time())
            return sim::Time();
    }
    return lcm;
}

void
WarpCoordinator::runUntil(sim::Time deadline)
{
    while (true) {
        const sim::Time t = now();
        if (t >= deadline)
            break;
        if (t > abs_bound_)
            abs_bound_ = sim::Time::max(); // it has fired
        if (t >= backoff_until_ && ledgersSteady()) {
            // A cycle runs two exact periods and then warps at least
            // kMinPeriods more, all before the deadline and before
            // the event the last cycle saw waiting in place (which
            // would change the schedule under a straddling probe).
            const sim::Time cap =
                (std::min(deadline, abs_bound_) - t) / (2 + kMinPeriods);
            const sim::Time base = globalPeriod(cap);
            if (base > sim::Time()) {
                // Restart the scan once the multiple outgrows the
                // horizon: the base may shrink again after a retune.
                if (base.picos() > cap.picos() / mult_)
                    mult_ = 1;
                if (probeCycle(deadline, base * mult_))
                    mult_ = 1;
                continue;
            }
        }
        // Not warpable from here: execute an exact slice and
        // re-evaluate at the next barrier. While backing off there is
        // no point stopping earlier than the back-off horizon.
        sim::Time target = t + kPollChunk;
        if (backoff_until_ > target)
            target = backoff_until_;
        engine_.runUntil(std::min(target, deadline));
    }
    // Pin every island (and the engine's floors) to the deadline even
    // when a warp already landed us exactly on it.
    engine_.runUntil(deadline);
}

bool
WarpCoordinator::probeCycle(sim::Time deadline, sim::Time period)
{
    stats_.probes++;
    const unsigned isles = engine_.islandCount();
    const sim::Time t0 = now();

    s0_ = std::make_unique<sim::FluidVisitor>(
        sim::FluidVisitor::Pass::Capture);
    walk_(*s0_);

    engine_.runUntil(t0 + period);
    if (!ledgersSteady()) {
        reject("transition reported mid-cycle");
        return false;
    }
    s1_ = std::make_unique<sim::FluidVisitor>(
        sim::FluidVisitor::Pass::Capture);
    walk_(*s1_);
    std::string why;
    if (!s1_->verifyAgainst(*s0_, nullptr, &why)) {
        reject(std::move(why));
        return false;
    }
    e1_.assign(isles, {});
    for (unsigned i = 0; i < isles; ++i)
        engine_.islandQueue(i).snapshotPending(e1_[i]);
    const std::uint64_t exec_s1 = engine_.executedEvents();

    engine_.runUntil(t0 + period + period);
    if (!ledgersSteady()) {
        reject("transition reported mid-cycle");
        return false;
    }
    s2_ = std::make_unique<sim::FluidVisitor>(
        sim::FluidVisitor::Pass::Capture);
    walk_(*s2_);
    if (!s2_->verifyAgainst(*s1_, s0_.get(), &why)) {
        reject(std::move(why));
        return false;
    }
    e2_.assign(isles, {});
    shift_keys_.assign(isles, {});
    abs_bound_ = sim::Time::max();
    for (unsigned i = 0; i < isles; ++i) {
        engine_.islandQueue(i).snapshotPending(e2_[i]);
        if (!classifyIsland(i, period, &why)) {
            reject(std::move(why));
            return false;
        }
    }

    const sim::Time t2 = now();
    const std::int64_t np = period.picos();
    const std::int64_t n =
        (std::min(deadline, abs_bound_) - t2).picos() / np;
    if (n < kMinPeriods) {
        reject("warp horizon too near");
        return false;
    }
    if (gate_ && !gate_()) {
        reject("opaque CPU work in flight");
        return false;
    }

    // Probes are not events: the second period ran simulation events
    // only.
    const std::uint64_t per_period = engine_.executedEvents() - exec_s1;
    sim::FluidVisitor apply(sim::FluidVisitor::Pass::Apply);
    apply.armApply(*s1_, *s2_, n);
    walk_(apply);
    const sim::Time delta = sim::Time::ps(n * np);
    for (unsigned i = 0; i < isles; ++i) {
        if (sim::FlowLedger *l = engine_.islandLedger(i))
            l->warpBy(delta);
        // No schedule/cancel since snapshotPending() (the walk is pure
        // visitation), so the S2 key indices are still valid.
        engine_.islandQueue(i).fluidWarp(delta, shift_keys_[i]);
    }
    engine_.fluidWarp(delta);

    stats_.segments++;
    stats_.periods_warped += std::uint64_t(n);
    stats_.warped = stats_.warped + delta;
    stats_.events_elided += per_period * std::uint64_t(n);
    consecutive_rejects_ = 0;
    last_reject_.clear();
    s0_.reset();
    s1_.reset();
    s2_.reset();
    e1_.clear();
    e2_.clear();
    return true;
}

bool
WarpCoordinator::classifyIsland(unsigned island, sim::Time period,
                                std::string *why)
{
    // Both barriers are exactly one period apart, so a periodic
    // process pends at the same relative offset in e1 and e2. An event
    // with the same seq at the same due time is the *same* event still
    // waiting (seqs are unique, so a periodic successor is never
    // mistaken for its predecessor); anything else rejects.
    const sim::Time t2 = engine_.islandQueue(island).now();
    const sim::Time t1 = t2 - period;

    std::unordered_map<std::uint64_t, sim::Time> still;
    still.reserve(e1_[island].size());
    std::map<std::pair<std::string_view, std::int64_t>, int> rel1;
    for (const auto &e : e1_[island]) {
        still.emplace(e.seq, e.when);
        rel1[{std::string_view(e.tag), (e.when - t1).picos()}]++;
    }

    for (const auto &e : e2_[island]) {
        auto s = still.find(e.seq);
        if (s != still.end() && s->second == e.when) {
            abs_bound_ = std::min(abs_bound_, e.when);
            continue;
        }
        auto r = rel1.find({std::string_view(e.tag),
                            (e.when - t2).picos()});
        if (r != rel1.end() && r->second > 0) {
            --r->second;
            if (!shiftSafeTag(e.tag)) {
                *why = std::string("periodic event '") + e.tag
                    + "' carries opaque captures";
                return false;
            }
            shift_keys_[island].push_back(e.key_index);
            continue;
        }
        *why = std::string("unmatched pending event '") + e.tag + "'";
        return false;
    }
    return true;
}

void
WarpCoordinator::reject(std::string why)
{
    stats_.rejected++;
    last_reject_ = std::move(why);
    s0_.reset();
    s1_.reset();
    s2_.reset();
    e1_.clear();
    e2_.clear();
    shift_keys_.clear();
    if (mult_ < kMaxMult) {
        // Interacting grids often repeat only at a small multiple of
        // the base hyperperiod: scan upward before backing off.
        ++mult_;
        return;
    }
    mult_ = 1;
    unsigned shift = std::min(consecutive_rejects_, kMaxBackoffShift);
    ++consecutive_rejects_;
    backoff_until_ =
        now() + sim::Time::ps(kBackoff.picos() << shift);
}

} // namespace sriov::core
