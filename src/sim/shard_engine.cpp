#include "sim/shard_engine.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "sim/fluid.hpp"
#include "sim/log.hpp"

namespace sriov::sim {

namespace {

constexpr std::int64_t kPsMax = std::numeric_limits<std::int64_t>::max();

std::int64_t
satAdd(std::int64_t a, std::int64_t b)
{
    return (a > kPsMax - b) ? kPsMax : a + b;
}

std::uint64_t
foldBytes(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

ShardEngine::ShardEngine(unsigned workers)
    : workers_(workers == 0 ? 1 : workers)
{
}

ShardEngine::~ShardEngine() = default;

unsigned
ShardEngine::addIsland(EventQueue &eq)
{
    Island isl;
    isl.eq = &eq;
    isl.promise = std::make_unique<Promise>();
    islands_.push_back(std::move(isl));
    comps_.clear();
    units_.clear();
    return unsigned(islands_.size() - 1);
}

void
ShardEngine::connect(ShardEdge &edge, unsigned from, unsigned to,
                     Time lookahead)
{
    if (from >= islands_.size() || to >= islands_.size())
        fatal("shard engine: connect to unregistered island");
    if (from == to)
        fatal("shard engine: self edge (keep it island-local)");
    if (lookahead <= Time())
        fatal("shard engine: lookahead must be positive");
    InEdge e;
    e.edge = &edge;
    e.src_promise = &islands_[from].promise->v;
    e.from = from;
    e.lookahead_ps = lookahead.picos();
    islands_[to].in.push_back(e);
    comps_.clear();
    units_.clear();
}

Time
ShardEngine::promiseOf(unsigned island) const
{
    return Time::ps(
        islands_.at(island).promise->v.load(std::memory_order_acquire));
}

void
// simlint:allow(fluid-boundary): possession hand-off, no mutation
ShardEngine::setIslandLedger(unsigned island, FlowLedger *ledger)
{
    islands_.at(island).ledger = ledger;
}

// simlint:allow(fluid-boundary): possession hand-off, no mutation
FlowLedger *
ShardEngine::islandLedger(unsigned island) const
{
    return islands_.at(island).ledger;
}

EventQueue &
ShardEngine::islandQueue(unsigned island)
{
    return *islands_.at(island).eq;
}

void
ShardEngine::fluidWarp(Time delta)
{
    const std::int64_t d = delta.picos();
    for (Island &isl : islands_) {
        const std::int64_t p =
            isl.promise->v.load(std::memory_order_relaxed);
        if (p > 0 && p < kPsMax)
            isl.promise->v.store(satAdd(p, d),
                                 std::memory_order_relaxed);
        for (InEdge &e : isl.in) {
            if (e.floor_ps > 0 && e.floor_ps < kPsMax)
                e.floor_ps = satAdd(e.floor_ps, d);
        }
    }
}

bool
ShardEngine::forcesSequential() const
{
    for (const Island &isl : islands_) {
        if (isl.eq->observer() != nullptr
            || isl.eq->execHookCount() != 0) {
            return true;
        }
    }
    return false;
}

std::uint64_t
ShardEngine::executedEvents() const
{
    std::uint64_t n = 0;
    for (const Island &isl : islands_)
        n += isl.eq->executed();
    return n;
}

std::uint64_t
ShardEngine::foldedDigest() const
{
    // FNV-1a over the per-island digests, folded in island-index
    // order: the partition is fixed for every shard count, so this is
    // the sharded run's order fingerprint.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Island &isl : islands_)
        h = foldBytes(h, isl.eq->orderDigest());
    return h;
}

std::uint64_t
ShardEngine::advanceIsland(Island &isl, Time deadline, bool *moved)
{
    // Everything this slice executes — local events and the delivery
    // cascades of channel heads — reports fluid sends/transitions into
    // the owning island's ledger via the thread-local override.
    ThreadLedgerScope ledger_scope(isl.ledger);
    EventQueue &eq = *isl.eq;
    const std::int64_t dl = deadline.picos();
    std::uint64_t n = 0;

    for (;;) {
        const std::int64_t t_local = eq.nextEventTime().picos();

        // Refresh every inbound floor. Promise first, channel second:
        // see the header's memory-ordering argument for why an empty
        // probe then makes promise + lookahead a safe floor.
        std::int64_t min_floor = kPsMax;
        int best = -1;
        std::int64_t best_due = kPsMax;
        for (std::size_t i = 0; i < isl.in.size(); ++i) {
            InEdge &e = isl.in[i];
            const std::int64_t p =
                e.src_promise->load(std::memory_order_acquire);
            const Time head = e.edge->headDue();
            std::int64_t f;
            if (head != Time::max()) {
                f = head.picos();
                e.nonempty = true;
                if (f < best_due) {    // strict: earlier edge wins ties
                    best = int(i);
                    best_due = f;
                }
            } else {
                f = satAdd(p, e.lookahead_ps);
                e.nonempty = false;
            }
            if (f > e.floor_ps) {
                e.floor_ps = f;
                if (moved != nullptr)
                    *moved = true;
            }
            min_floor = std::min(min_floor, e.floor_ps);
        }

        // Publish the promise before executing anything: a lower bound
        // on this island's next execution time, so everything it sends
        // from here on is due at or after promise + edge lookahead.
        // Capped at the deadline, which keeps floors finite and makes
        // "floor > deadline" the done condition.
        const std::int64_t promise =
            std::min(std::min(t_local, min_floor), dl);
        if (promise > isl.promise->v.load(std::memory_order_relaxed)) {
            isl.promise->v.store(promise, std::memory_order_release);
            if (moved != nullptr)
                *moved = true;
        }

        // Message-first on due == local-event ties; among edges the
        // registration order breaks due ties deterministically.
        if (best >= 0 && best_due <= std::min(t_local, dl)) {
            bool safe = true;
            for (std::size_t j = 0; j < isl.in.size(); ++j) {
                if (int(j) == best)
                    continue;
                const InEdge &o = isl.in[j];
                if (o.floor_ps > best_due)
                    continue;
                // A nonempty later edge may tie (we win by index); an
                // empty edge at the floor might still produce an
                // equal-due message, so wait for its floor to pass.
                if (o.nonempty && o.floor_ps == best_due
                    && int(j) > best) {
                    continue;
                }
                safe = false;
                break;
            }
            if (safe) {
                eq.advanceTo(Time::ps(best_due));
                isl.in[best].edge->deliverHead();
                ++n;
                continue;
            }
        }

        // Local events strictly below the horizon (and at most the
        // deadline). min_floor <= best_due whenever a head is visible,
        // so the tie rule above is never bypassed.
        const std::int64_t bound = std::min(min_floor, satAdd(dl, 1));
        if (t_local < bound) {
            const std::uint64_t k = eq.runBefore(Time::ps(bound));
            n += k;
            if (k > 0)
                continue;
            break;    // defensive: nothing live below the bound
        }

        // Blocked. Done once both the local queue and every floor have
        // passed the deadline (messages due later stay queued for the
        // next run, like frames still in flight at a window edge).
        if (t_local > dl && min_floor > dl) {
            isl.done = true;
            eq.runUntil(deadline);    // executes nothing; pins now()
        }
        break;
    }
    return n;
}

const std::vector<std::vector<unsigned>> &
ShardEngine::components()
{
    if (!comps_.empty())
        return comps_;
    // Component structure: islands connected by edges must exchange
    // promises every lookahead round, so a component is the natural
    // scheduling unit — splitting one across workers turns each creep
    // round into cross-core cache traffic (or worse, a scheduler
    // wait), and sweeping all components round-robin on one thread
    // evicts each pair's working set between rounds. Components are
    // keyed by their least island index; the grouping affects wall
    // clock only — the schedule depends on simulated times alone.
    // The topology is fixed once runs start, so this is computed once.
    std::vector<unsigned> comp(islands_.size());
    for (std::size_t i = 0; i < comp.size(); ++i)
        comp[i] = unsigned(i);
    auto root = [&comp](unsigned i) {
        while (comp[i] != i) {
            comp[i] = comp[comp[i]];
            i = comp[i];
        }
        return i;
    };
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        for (const InEdge &e : islands_[i].in) {
            unsigned a = root(unsigned(i));
            unsigned b = root(e.from);
            if (a != b)
                comp[std::max(a, b)] = std::min(a, b);
        }
    }
    std::vector<int> slot(islands_.size(), -1);
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        unsigned r = root(unsigned(i));
        if (slot[r] < 0) {
            slot[r] = int(comps_.size());
            comps_.emplace_back();
        }
        comps_[std::size_t(slot[r])].push_back(unsigned(i));
    }
    return comps_;
}

bool
ShardEngine::hasHub(const std::vector<unsigned> &group) const
{
    for (unsigned i : group) {
        const std::vector<InEdge> &in = islands_[i].in;
        for (const InEdge &e : in) {
            if (e.from != in.front().from)
                return true;
        }
    }
    return false;
}

const std::vector<std::vector<unsigned>> &
ShardEngine::placementUnits()
{
    if (!units_.empty())
        return units_;
    // Whole components, unless there are fewer components than
    // workers: then a component with a hub island (fed by more than
    // one other island: the ToR relay) is dealt island by island,
    // since its leaves share nothing but the hub. Any other component
    // stays whole, because splitting a server slice from its client
    // only turns every lookahead round into cross-core traffic.
    const std::vector<std::vector<unsigned>> &comps = components();
    for (const std::vector<unsigned> &group : comps) {
        if (comps.size() < workers_ && hasHub(group)) {
            for (unsigned i : group)
                units_.push_back({i});
        } else {
            units_.push_back(group);
        }
    }
    return units_;
}

std::uint64_t
ShardEngine::runUntil(Time deadline)
{
    if (islands_.empty())
        return 0;
    const std::uint64_t before = executedEvents();

    for (Island &isl : islands_) {
        isl.done = false;
        // Re-arm: the island clock (== the previous deadline) is a
        // safe promise for everything it may still send.
        const std::int64_t now = isl.eq->now().picos();
        if (now > isl.promise->v.load(std::memory_order_relaxed))
            isl.promise->v.store(now, std::memory_order_relaxed);
    }

    const std::vector<std::vector<unsigned>> &comps = components();
    const std::vector<std::vector<unsigned>> &units = placementUnits();
    const unsigned w =
        unsigned(std::min<std::size_t>(workers_, units.size()));
    if (w <= 1 || forcesSequential()) {
        // Sequential oracle: same merge loop, calling thread, one
        // component at a time until it stalls (for a self-contained
        // component, that means done) so each pair's lookahead creep
        // runs in cache instead of being interleaved with every other
        // component's. The schedule depends only on simulated times,
        // so this executes the identical per-island sequences as any
        // worker count.
        for (;;) {
            bool all_done = true;
            for (const std::vector<unsigned> &group : comps) {
                for (;;) {
                    bool group_done = true;
                    bool progress = false;
                    for (unsigned i : group) {
                        Island &isl = islands_[i];
                        if (isl.done)
                            continue;
                        bool moved = false;
                        progress |=
                            advanceIsland(isl, deadline, &moved) > 0
                            || moved;
                        group_done = group_done && isl.done;
                    }
                    if (group_done)
                        break;
                    all_done = false;
                    if (!progress)
                        break;    // waits on another component
                }
            }
            if (all_done)
                break;
        }
    } else {
        // Deterministic round-robin of units over workers. Per-port
        // server/client pairs then share nothing, and the speedup is
        // bounded only by their balance; a split hub component's
        // islands sync across workers through promises and floors,
        // which are cross-thread safe, and the idle/yield loop below
        // absorbs the waits.
        std::vector<std::vector<unsigned>> owned(w);
        for (std::size_t u = 0; u < units.size(); ++u) {
            for (unsigned i : units[u])
                owned[u % w].push_back(i);
        }

        std::vector<std::thread> threads;
        threads.reserve(w);
        for (unsigned t = 0; t < w; ++t) {
            threads.emplace_back([this, deadline,
                                  mine = std::move(owned[t])]() {
                unsigned idle = 0;
                for (;;) {
                    bool all_done = true;
                    bool progress = false;
                    for (unsigned i : mine) {
                        Island &isl = islands_[i];
                        if (isl.done)
                            continue;
                        bool moved = false;
                        progress |=
                            advanceIsland(isl, deadline, &moved) > 0
                            || moved;
                        all_done = all_done && isl.done;
                    }
                    if (all_done)
                        return;
                    // Promise/floor movement counts as progress: a
                    // creep round executes nothing but must not be
                    // mistaken for "stuck". Yield only on sustained
                    // stillness (waiting on another worker's island —
                    // only possible for a cross-worker component).
                    if (progress)
                        idle = 0;
                    else if (++idle >= 16)
                        std::this_thread::yield();
                }
            });
        }
        for (std::thread &th : threads)
            th.join();
    }
    return executedEvents() - before;
}

} // namespace sriov::sim
