/**
 * @file
 * Per-line metadata for a cache level.
 *
 * Beyond the usual tag/valid/dirty, each line carries the 12 b of SLIP
 * metadata the paper budgets (Section 4.3, Figure 7): the 3 b SLIP codes
 * for both lower levels (copied alongside the line so eviction decisions
 * never re-probe the TLB) and a 6 b insertion timestamp TL used for
 * online reuse-distance measurement. One flag holds LRU-PEA's demoted
 * state.
 */

#ifndef SLIP_CACHE_LINE_HH
#define SLIP_CACHE_LINE_HH

#include <cstdint>

#include "mem/types.hh"

namespace slip {

/** Index of the two SLIP-managed levels in per-line policy storage. */
enum SlipLevelIndex : unsigned { kSlipL2 = 0, kSlipL3 = 1 };

/** The pair of 3 b SLIP codes a line carries (L2 policy, L3 policy). */
struct PolicyPair
{
    std::uint8_t code[2] = {0, 0};

    bool
    operator==(const PolicyPair &o) const
    {
        return code[0] == o.code[0] && code[1] == o.code[1];
    }
};

/**
 * One cache line's bookkeeping state, 16 bytes. Replacement state (the
 * LRU stamp or RRIP rrpv) is not here: the level keeps it as one word
 * per way beside its tags (CacheLevel, DESIGN.md §5d).
 */
struct CacheLine
{
    Addr tag = 0;            ///< full line address (tag ∪ index)
    bool valid = false;
    bool dirty = false;

    PolicyPair policies;     ///< 6 b of SLIP codes (both levels)
    std::uint8_t tl = 0;     ///< 6 b insertion/last-access timestamp

    bool demoted = false;    ///< LRU-PEA priority-eviction flag

    /**
     * Hits since insertion, saturating at 255. Only min(hitCount, 3)
     * is ever read (the Figure 1 reuse histogram), so saturation is
     * exact.
     */
    std::uint8_t hitCount = 0;

    /** Clear everything (an invalidation). */
    void
    invalidate()
    {
        valid = false;
        dirty = false;
        tl = 0;
        demoted = false;
        hitCount = 0;
        policies = PolicyPair{};
    }
};

static_assert(sizeof(CacheLine) == 16,
              "CacheLine grew: per-way replacement state belongs in "
              "CacheLevel's word array");

} // namespace slip

#endif // SLIP_CACHE_LINE_HH
