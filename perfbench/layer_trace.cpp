#include "layer_trace.hpp"

#include <cstring>

namespace perfbench {

TagGroup
groupOfTag(const char *tag)
{
    if (tag == nullptr)
        return TagGroup::Other;
    if (std::strcmp(tag, "wire.burst") == 0)
        return TagGroup::WireBurst;
    if (std::strcmp(tag, "netperf.emit") == 0)
        return TagGroup::NetperfEmit;
    if (std::strcmp(tag, "cpu.done") == 0)
        return TagGroup::CpuDone;
    if (std::strcmp(tag, "nic.itr") == 0)
        return TagGroup::NicItr;
    if (std::strcmp(tag, "dma.done") == 0)
        return TagGroup::DmaDone;
    if (std::strncmp(tag, "fluid.", 6) == 0)
        return TagGroup::Fluid;
    return TagGroup::Other;
}

double
LayerTotals::callbackNs() const
{
    double sum = 0;
    for (double v : ns)
        sum += v;
    return sum;
}

LayerTotals &
LayerTotals::operator+=(const LayerTotals &o)
{
    for (unsigned i = 0; i < kTagGroups; ++i) {
        ns[i] += o.ns[i];
        events[i] += o.events[i];
    }
    return *this;
}

LayerClock::Slot &
LayerClock::slotFor(const char *tag)
{
    if (last_ < slots_.size() && slots_[last_].tag == tag)
        return slots_[last_];
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].tag == tag) {
            last_ = i;
            return slots_[i];
        }
    }
    last_ = slots_.size();
    slots_.push_back(Slot{tag, 0, 0});
    return slots_.back();
}

LayerTotals
LayerClock::totals() const
{
    LayerTotals t;
    for (const Slot &s : slots_) {
        unsigned g = unsigned(groupOfTag(s.tag));
        t.ns[g] += double(s.ns);
        t.events[g] += s.events;
    }
    return t;
}

} // namespace perfbench
