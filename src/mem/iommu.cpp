#include "mem/iommu.hpp"

#include "sim/log.hpp"

namespace sriov::mem {

void
Iommu::attach(pci::Rid rid, GuestPhysMap &domain)
{
    auto &ctx = root_[rid >> 8];
    if (!ctx)
        ctx = std::make_unique<ContextTable>();
    (*ctx)[rid & 0xff] = &domain;
}

void
Iommu::detach(pci::Rid rid)
{
    if (auto &ctx = root_[rid >> 8])
        (*ctx)[rid & 0xff] = nullptr;
}

// simlint: hot
Iommu::Result
Iommu::translate(pci::Rid rid, Addr gpa, bool is_write)
{
    translations_.inc();
    GuestPhysMap *dom = domainOf(rid);
    if (!dom) {
        faults_.inc();
        return Result{Fault::NoContext, 0};
    }
    auto mpa = dom->translate(gpa);
    if (!mpa) {
        faults_.inc();
        return Result{Fault::NotPresent, 0};
    }
    if (is_write) {
        if (!dom->writable(gpa)) {
            faults_.inc();
            return Result{Fault::WriteProtected, 0};
        }
        dom->markDirty(gpa);
    }
    return Result{Fault::None, *mpa};
}

Iommu::Result
Iommu::translateRange(pci::Rid rid, Addr gpa, Addr len, bool is_write)
{
    // Every page the range touches, a partial last page included; an
    // empty range checks gpa's page.
    const Result first = translate(rid, gpa, is_write);
    const Addr last = pageOf(gpa + (len ? len - 1 : 0));
    for (Addr page = pageOf(gpa) + 1; first.ok() && page <= last; ++page) {
        Result r = translate(rid, page * kPageSize, is_write);
        if (!r.ok())
            return r;
    }
    return first;
}

} // namespace sriov::mem
