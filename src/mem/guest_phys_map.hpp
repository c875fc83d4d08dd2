/**
 * @file
 * GuestPhysMap: a guest-physical → machine-physical page table.
 *
 * The same structure serves three roles: the EPT-like second-level
 * translation for an HVM guest, the IOMMU page table indexed by the
 * guest's VF RID (paper Section 2 — "RID is used to index the IOMMU
 * page table, so that different VMs can use different page tables"),
 * and the dirty-page log driving pre-copy live migration.
 *
 * The table is flat, like the hardware's: one word per guest page,
 * indexed by guest page number. Domains bump-allocate guest-physical
 * pages upward from 1 MiB (vmm::Domain::allocGuestPages), so the array
 * is dense. Only mapRange() grows it; a lookup past its end is a miss.
 */

#ifndef SRIOV_MEM_GUEST_PHYS_MAP_HPP
#define SRIOV_MEM_GUEST_PHYS_MAP_HPP

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "mem/machine_memory.hpp"

namespace sriov::mem {

class GuestPhysMap
{
  public:
    explicit GuestPhysMap(std::string name = "guest")
        : name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

    /** Map [gpa, gpa+len) to [mpa, mpa+len); page aligned. */
    void mapRange(Addr gpa, Addr mpa, Addr len, bool writable = true);
    void unmapRange(Addr gpa, Addr len);

    /** Translate one address. std::nullopt on unmapped. */
    std::optional<Addr> translate(Addr gpa) const;
    bool writable(Addr gpa) const;

    std::size_t mappedPages() const { return mapped_; }

    /** @name Dirty logging (pre-copy migration). @{ */
    void enableDirtyLog();
    void disableDirtyLog();
    bool dirtyLogEnabled() const { return dirty_log_; }
    void markDirty(Addr gpa);
    void markDirtyRange(Addr gpa, Addr len);
    std::size_t dirtyPageCount() const { return dirty_.size(); }
    /**
     * Returns the dirty pages (sorted ascending) and clears the log —
     * one pre-copy round. Sorted so that consumers iterating the
     * snapshot (page send order, reports) are deterministic; the
     * internal set's hash order never escapes this class.
     */
    std::vector<Addr> drainDirty();
    /** @} */

  private:
    /** Machine page number << 2 | writable << 1 | present. */
    using Entry = std::uint64_t;
    static constexpr Entry kPresent = 1;
    static constexpr Entry kWritable = 2;

    /** @p gpa's entry; 0 (not present) past the end of the table. */
    Entry
    entry(Addr gpa) const
    {
        const Addr page = pageOf(gpa);
        return page < table_.size() ? table_[page] : 0;
    }

    std::string name_;
    std::vector<Entry> table_;    // indexed by gpa page
    std::size_t mapped_ = 0;      // present entries
    bool dirty_log_ = false;
    std::unordered_set<Addr> dirty_;           // gpa pages
};

} // namespace sriov::mem

#endif // SRIOV_MEM_GUEST_PHYS_MAP_HPP
