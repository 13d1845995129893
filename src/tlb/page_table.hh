/**
 * @file
 * Page table with SLIP extensions (Sections 3.1 and 4.2).
 *
 * Each PTE carries, in otherwise-ignored bits of the 64 b x86-64
 * format: the page's 3 b L2 SLIP, 3 b L3 SLIP, and the 1 b
 * sampling/stable state. PTEs live in a reserved physical region (8
 * per 64 B line) so page walks travel through the cache hierarchy.
 */

#ifndef SLIP_TLB_PAGE_TABLE_HH
#define SLIP_TLB_PAGE_TABLE_HH

#include <array>
#include <cstddef>

#include "cache/line.hh"
#include "mem/types.hh"
#include "util/flat_map.hh"

namespace slip {

/** The SLIP-relevant contents of one page-table entry. */
struct Pte
{
    PolicyPair policies;    ///< 6 b of SLIP codes (L2, L3)
    bool sampling = true;   ///< Section 4.2 page state
    bool dirty = false;     ///< SLIP bits changed since last writeback

    /** Times the page's SLIP was recomputed (for inspection). */
    std::uint32_t updates = 0;
};

/**
 * Functional page table; PTEs are created on first touch.
 *
 * pte() first checks a small direct-mapped cache of recent pages that
 * points straight at PageMap's reference-stable values, so the common
 * repeat lookup skips the hash probe. The cache is mutable lookup
 * state: one thread owns it (the serial loop or the pipeline's merge
 * stage; a full-front front end only calls pteLine), and the table is
 * non-copyable so no copy can keep pointers into another's map.
 */
class PageTable
{
  public:
    /**
     * @param default_policies initial SLIP codes for unseen pages
     *        (the Default SLIP, set by the system at construction)
     * @param pte_region_base  line address of the PTE region
     */
    explicit PageTable(PolicyPair default_policies = PolicyPair{},
                       Addr pte_region_base_line = Addr{1} << 45)
        : _defaultPolicies(default_policies), _base(pte_region_base_line)
    {}

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /** The PTE of @p page (created in the sampling state on demand). */
    Pte &
    pte(Addr page)
    {
        Recent &r = _recent[page & (kRecent - 1)];
        if (r.pte != nullptr && r.page == page)
            return *r.pte;
        Pte &p = _map.getOrCreate(page, [this] {
            Pte fresh;
            fresh.policies = _defaultPolicies;
            return fresh;
        });
        r = Recent{page, &p};
        return p;
    }

    /** Line address of the PTE line for @p page (8 PTEs per line). */
    Addr pteLine(Addr page) const { return _base + page / 8; }

    std::size_t pagesTouched() const { return _map.size(); }

  private:
    static constexpr std::size_t kRecent = 256;

    /** One direct-mapped entry; pte == nullptr marks it empty. */
    struct Recent
    {
        Addr page = 0;
        Pte *pte = nullptr;
    };

    PolicyPair _defaultPolicies;
    Addr _base;
    PageMap<Pte> _map;
    std::array<Recent, kRecent> _recent{};
};

} // namespace slip

#endif // SLIP_TLB_PAGE_TABLE_HH
