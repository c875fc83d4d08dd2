#include "sim/fluid.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "sim/log.hpp"

namespace sriov::sim {

namespace {
/** The executing island's ledger (ThreadLedgerScope); null outside. */
thread_local FlowLedger *t_fluid_ledger = nullptr;
} // namespace

FlowLedger *
fluidLedger()
{
    return t_fluid_ledger;
}

ThreadLedgerScope::ThreadLedgerScope(FlowLedger *l) : prev_(t_fluid_ledger)
{
    t_fluid_ledger = l;
}

ThreadLedgerScope::~ThreadLedgerScope()
{
    t_fluid_ledger = prev_;
}

// ---------------------------------------------------------------------
// FluidVisitor

void
FluidVisitor::push(const char *name, Kind k, SlotValue v)
{
    if (pass_ == Pass::Capture) {
        names_.push_back(name);
        kinds_.push_back(k);
        vals_.push_back(v);
    }
}

void
FluidVisitor::u64(const char *name, std::uint64_t &v)
{
    if (pass_ == Pass::Apply) {
        // Deltas are signed; u64 counters only ever grow, but the
        // arithmetic is two's-complement safe either way.
        v = std::uint64_t(std::int64_t(v) + deltas_[cursor_++].i);
        return;
    }
    push(name, Kind::I64, SlotValue{.i = std::int64_t(v)});
}

void
FluidVisitor::i64(const char *name, std::int64_t &v)
{
    if (pass_ == Pass::Apply) {
        v += deltas_[cursor_++].i;
        return;
    }
    push(name, Kind::I64, SlotValue{.i = v});
}

void
FluidVisitor::f64(const char *name, double &v)
{
    if (pass_ == Pass::Apply) {
        v += deltas_[cursor_++].f;
        return;
    }
    SlotValue s;
    s.f = v;
    push(name, Kind::F64, s);
}

void
FluidVisitor::time(const char *name, Time &v)
{
    if (pass_ == Pass::Apply) {
        v = Time::ps(v.picos() + deltas_[cursor_++].i);
        return;
    }
    push(name, Kind::I64, SlotValue{.i = v.picos()});
}

void
FluidVisitor::inv(const char *name, std::uint64_t v)
{
    if (pass_ == Pass::Apply) {
        ++cursor_; // never written
        return;
    }
    push(name, Kind::Inv, SlotValue{.i = std::int64_t(v)});
}

namespace {

bool
f64DeltaEqual(double d1, double d2)
{
    if (d1 == d2)
        return true;
    double mag = std::max(std::fabs(d1), std::fabs(d2));
    return std::fabs(d1 - d2) <= mag * FluidVisitor::kF64RelEps;
}

} // namespace

bool
FluidVisitor::verifyAgainst(const FluidVisitor &prev,
                            const FluidVisitor *prev2,
                            std::string *why) const
{
    auto fail = [&](std::size_t i, const char *what) {
        if (why != nullptr) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "slot %zu (%s): %s", i,
                          i < names_.size() ? names_[i] : "?", what);
            *why = buf;
        }
        return false;
    };
    if (names_.size() != prev.names_.size()
        || (prev2 != nullptr && names_.size() != prev2->names_.size()))
        return fail(names_.size(), "slot count changed between probes");
    for (std::size_t i = 0; i < names_.size(); ++i) {
        // Literal pointers: equal names at equal positions means the
        // same component emitted the same slot — ring sizes and visit
        // topology are pinned by this.
        if (names_[i] != prev.names_[i]
            || (prev2 != nullptr && names_[i] != prev2->names_[i]))
            return fail(i, "slot sequence changed between probes");
        if (kinds_[i] != prev.kinds_[i])
            return fail(i, "slot kind changed between probes");
        if (prev2 == nullptr)
            continue;
        switch (kinds_[i]) {
        case Kind::I64: {
            std::int64_t d1 = prev.vals_[i].i - prev2->vals_[i].i;
            std::int64_t d2 = vals_[i].i - prev.vals_[i].i;
            if (d1 != d2)
                return fail(i, "per-period delta not constant");
            break;
        }
        case Kind::F64: {
            double d1 = prev.vals_[i].f - prev2->vals_[i].f;
            double d2 = vals_[i].f - prev.vals_[i].f;
            if (!f64DeltaEqual(d1, d2))
                return fail(i, "per-period fp delta not constant");
            break;
        }
        case Kind::Inv:
            if (vals_[i].i != prev.vals_[i].i
                || vals_[i].i != prev2->vals_[i].i)
                return fail(i, "invariant slot changed");
            break;
        }
    }
    return true;
}

void
FluidVisitor::armApply(const FluidVisitor &older, const FluidVisitor &newer,
                       std::int64_t periods)
{
    if (older.names_.size() != newer.names_.size())
        fatal("fluid: armApply over mismatched captures");
    pass_ = Pass::Apply;
    names_ = newer.names_;
    kinds_ = newer.kinds_;
    deltas_.resize(newer.vals_.size());
    for (std::size_t i = 0; i < newer.vals_.size(); ++i) {
        switch (newer.kinds_[i]) {
        case Kind::I64:
            deltas_[i].i =
                (newer.vals_[i].i - older.vals_[i].i) * periods;
            break;
        case Kind::F64:
            deltas_[i].f =
                (newer.vals_[i].f - older.vals_[i].f) * double(periods);
            break;
        case Kind::Inv:
            deltas_[i].i = 0;
            break;
        }
    }
    cursor_ = 0;
}

// ---------------------------------------------------------------------
// FlowLedger

const char *
fluidTransitionName(FluidTransition t)
{
    switch (t) {
    case FluidTransition::Drop: return "drop";
    case FluidTransition::Rto: return "rto";
    case FluidTransition::ItrChange: return "itr-change";
    case FluidTransition::RingEdge: return "ring-edge";
    case FluidTransition::RateChange: return "rate-change";
    // simlint:allow(shard-channel): names the transition kind, no send
    case FluidTransition::ShardEdge: return "shard-edge";
    case FluidTransition::VmChurn: return "vm-churn";
    case FluidTransition::Count: break;
    }
    return "?";
}

unsigned
FlowLedger::addFlow(std::string name, FlowKind kind)
{
    Flow f;
    f.name = std::move(name);
    f.kind = kind;
    flows_.push_back(std::move(f));
    return unsigned(flows_.size() - 1);
}

const std::string &
FlowLedger::flowName(unsigned flow) const
{
    return flows_.at(flow).name;
}

void
FlowLedger::onSend(unsigned flow, Time now)
{
    Flow &f = flows_.at(flow);
    if (!f.has_send) {
        f.has_send = true;
        f.last_send = now;
        return;
    }
    Time gap = now - f.last_send;
    f.last_send = now;
    if (gap == f.gap && gap > Time()) {
        if (f.hold > 0)
            --f.hold;
        else if (f.equal_gaps < kSteadyGaps)
            ++f.equal_gaps;
    } else {
        f.gap = gap;
        f.equal_gaps = 0;
    }
}

void
FlowLedger::endFlow(unsigned flow)
{
    flows_.at(flow).ended = true;
}

void
FlowLedger::transition(unsigned flow, FluidTransition t)
{
    Flow &f = flows_.at(flow);
    f.equal_gaps = 0;
    f.hold = kHoldGaps;
    by_kind_[std::size_t(t)]++;
}

void
FlowLedger::transitionAll(FluidTransition t)
{
    for (Flow &f : flows_) {
        f.equal_gaps = 0;
        f.hold = kHoldGaps;
    }
    by_kind_[std::size_t(t)]++;
}

bool
FlowLedger::flowSteady(unsigned flow) const
{
    const Flow &f = flows_.at(flow);
    return !f.ended && f.hold == 0 && f.equal_gaps >= kSteadyGaps
        && f.gap > Time();
}

std::size_t
FlowLedger::liveFlows() const
{
    std::size_t live = 0;
    for (const Flow &f : flows_) {
        if (!f.ended)
            ++live;
    }
    return live;
}

bool
FlowLedger::liveSteady() const
{
    for (unsigned i = 0; i < flows_.size(); ++i) {
        if (!flows_[i].ended && !flowSteady(i))
            return false;
    }
    return true;
}

bool
FlowLedger::allSteady() const
{
    std::size_t live = 0;
    for (unsigned i = 0; i < flows_.size(); ++i) {
        if (flows_[i].ended)
            continue;
        ++live;
        if (!flowSteady(i))
            return false;
    }
    return live > 0;
}

Time
FlowLedger::flowGap(unsigned flow) const
{
    return flowSteady(flow) ? flows_.at(flow).gap : Time();
}

Time
FlowLedger::commonPeriod(Time cap) const
{
    if (!allSteady())
        return Time();
    Time lcm;
    for (const Flow &f : flows_) {
        if (f.ended)
            continue;
        lcm = boundedLcm(lcm, f.gap, cap);
        if (lcm == Time())
            return Time();
    }
    return lcm;
}

Time
FlowLedger::sourcePeriod(Time cap) const
{
    Time lcm;
    for (const Flow &f : flows_) {
        if (f.ended || f.kind != FlowKind::Source)
            continue;
        // The last observed gap is used even while the flow sits in a
        // hysteresis hold: this is only a quantization *hint* (devices
        // snap their windows onto it), and a transition burst — e.g.
        // every pool retuning its ITR on the same 1 Hz sample edge —
        // must not blind the pools that retune after the first one.
        // Correctness never rests on it: the probe certificate checks
        // the real schedule. A flow with no gap yet fails the fold.
        lcm = boundedLcm(lcm, f.gap, cap);
        if (lcm == Time())
            return Time();
    }
    return lcm;
}

Time
FlowLedger::boundedLcm(Time acc, Time gap, Time cap)
{
    // lcm = (acc / gcd) * gap, so it fits the cap exactly when the
    // quotient fits cap / gap; an empty fold has quotient 1.
    const std::int64_t g = gap.picos();
    const std::int64_t q =
        acc > Time() ? acc.picos() / std::gcd(acc.picos(), g) : 1;
    if (g <= 0 || q > cap.picos() / g)
        return Time();
    return Time::ps(q * g);
}

void
FlowLedger::warpBy(Time delta)
{
    for (Flow &f : flows_) {
        if (f.has_send)
            f.last_send = f.last_send + delta;
    }
}

std::uint64_t
FlowLedger::transitions(FluidTransition t) const
{
    return by_kind_[std::size_t(t)];
}

std::uint64_t
FlowLedger::totalTransitions() const
{
    std::uint64_t n = 0;
    for (std::uint64_t v : by_kind_)
        n += v;
    return n;
}

std::uint64_t
FlowLedger::gridSendsUntil(Time last, Time gap, Time until)
{
    if (gap <= Time() || until <= last)
        return 0;
    return std::uint64_t((until - last).picos() / gap.picos());
}

} // namespace sriov::sim
