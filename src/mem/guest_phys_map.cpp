#include "mem/guest_phys_map.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace sriov::mem {

void
GuestPhysMap::mapRange(Addr gpa, Addr mpa, Addr len, bool writable)
{
    if (gpa % kPageSize || mpa % kPageSize)
        sim::panic("%s: unaligned mapping", name_.c_str());
    if (len == 0)
        return;
    const Addr first = pageOf(gpa);
    const Addr end = pageOf(gpa + len - 1) + 1;
    if (end > table_.size())
        table_.resize(end);
    const Entry bits = kPresent | (writable ? kWritable : 0);
    for (Addr page = first; page < end; ++page) {
        mapped_ += (table_[page] & kPresent) ? 0 : 1;
        table_[page] = (pageOf(mpa) + page - first) << 2 | bits;
    }
}

void
GuestPhysMap::unmapRange(Addr gpa, Addr len)
{
    if (len == 0)
        return;
    // Every page the range touches, like mapRange(); past the table's
    // end nothing is mapped.
    const Addr end = std::min<Addr>(pageOf(gpa + len - 1) + 1, table_.size());
    for (Addr page = pageOf(gpa); page < end; ++page) {
        if (table_[page] & kPresent) {
            table_[page] = 0;
            --mapped_;
        }
    }
}

// simlint: hot
std::optional<Addr>
GuestPhysMap::translate(Addr gpa) const
{
    const Entry e = entry(gpa);
    if (!(e & kPresent))
        return std::nullopt;
    return (e >> 2) * kPageSize + gpa % kPageSize;
}

bool
GuestPhysMap::writable(Addr gpa) const
{
    return entry(gpa) & kWritable;
}

void
GuestPhysMap::enableDirtyLog()
{
    dirty_log_ = true;
    dirty_.clear();
}

void
GuestPhysMap::disableDirtyLog()
{
    dirty_log_ = false;
    dirty_.clear();
}

void
GuestPhysMap::markDirty(Addr gpa)
{
    if (dirty_log_)
        dirty_.insert(pageOf(gpa));
}

void
GuestPhysMap::markDirtyRange(Addr gpa, Addr len)
{
    if (!dirty_log_ || len == 0)
        return;
    for (Addr page = pageOf(gpa); page <= pageOf(gpa + len - 1); ++page)
        dirty_.insert(page);
}

std::vector<Addr>
GuestPhysMap::drainDirty()
{
    // The only place dirty_'s contents are walked: snapshot and sort,
    // so hash order cannot reach a caller.
    // simlint:allow(no-unordered-iteration): sorted before it escapes
    std::vector<Addr> out(dirty_.begin(), dirty_.end());
    dirty_.clear();
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace sriov::mem
