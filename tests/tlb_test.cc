/**
 * @file
 * Tests for the TLB and the SLIP-extended page table.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <unordered_map>

#include "tlb/page_table.hh"
#include "tlb/tlb.hh"
#include "util/random.hh"

namespace slip {
namespace {

TEST(TlbTest, MissThenHit)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(100));
    Addr evicted = 0;
    EXPECT_FALSE(tlb.insert(100, evicted));
    EXPECT_TRUE(tlb.lookup(100));
    EXPECT_EQ(tlb.accesses(), 2u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbTest, LruEviction)
{
    Tlb tlb(2);
    Addr evicted = 0;
    tlb.lookup(1);
    tlb.insert(1, evicted);
    tlb.lookup(2);
    tlb.insert(2, evicted);
    tlb.lookup(1);  // refresh page 1; page 2 becomes LRU
    tlb.lookup(3);
    EXPECT_TRUE(tlb.insert(3, evicted));
    EXPECT_EQ(evicted, 2u);
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_FALSE(tlb.lookup(2));
}

TEST(TlbTest, InvalidateAndFlush)
{
    Tlb tlb(8);
    Addr ev = 0;
    for (Addr p = 0; p < 4; ++p) {
        tlb.lookup(p);
        tlb.insert(p, ev);
    }
    EXPECT_TRUE(tlb.invalidate(2));
    EXPECT_FALSE(tlb.lookup(2));
    tlb.flush();
    EXPECT_EQ(tlb.flushes(), 1u);
    for (Addr p = 0; p < 4; ++p)
        EXPECT_FALSE(tlb.lookup(p));
}

TEST(TlbTest, MissRate)
{
    Tlb tlb(64);
    Addr ev = 0;
    for (Addr p = 0; p < 10; ++p) {
        tlb.lookup(p);
        tlb.insert(p, ev);
    }
    for (Addr p = 0; p < 10; ++p)
        tlb.lookup(p);
    EXPECT_DOUBLE_EQ(tlb.missRate(), 0.5);
    tlb.resetStats();
    EXPECT_EQ(tlb.accesses(), 0u);
}

TEST(PageTableTest, FreshPagesSampleWithDefaults)
{
    PolicyPair defaults;
    defaults.code[kSlipL2] = 4;
    defaults.code[kSlipL3] = 4;
    PageTable pt(defaults);
    const Pte &pte = pt.pte(42);
    EXPECT_TRUE(pte.sampling);
    EXPECT_FALSE(pte.dirty);
    EXPECT_EQ(pte.policies.code[kSlipL2], 4);
    EXPECT_EQ(pt.pagesTouched(), 1u);
}

TEST(PageTableTest, UpdatesPersist)
{
    PageTable pt;
    Pte &pte = pt.pte(7);
    pte.policies.code[kSlipL2] = 1;
    pte.sampling = false;
    pte.dirty = true;
    const Pte &again = pt.pte(7);
    EXPECT_EQ(again.policies.code[kSlipL2], 1);
    EXPECT_FALSE(again.sampling);
    EXPECT_TRUE(again.dirty);
}

/** pte() answers from its recent-page cache with the very object the
 *  map holds: over a random page sequence long enough to grow the map
 *  several times, every page keeps the address it got on first touch
 *  and the updates made through it. */
TEST(PageTableTest, RecentPageCacheReturnsMapObjects)
{
    PageTable pt;
    Random rng(7);
    std::unordered_map<Addr, Pte *> first;
    for (int i = 0; i < 200000; ++i) {
        // Mostly a hot set that aliases in the cache, sometimes a page
        // from a range wide enough to force map growth.
        const Addr page = rng.oneIn(4) ? rng.below(20000)
                                       : rng.below(512) * 256;
        Pte &pte = pt.pte(page);
        const auto [it, fresh] = first.emplace(page, &pte);
        ASSERT_EQ(it->second, &pte) << "page " << page;
        if (!fresh)
            ASSERT_EQ(pte.updates, static_cast<std::uint32_t>(page))
                << "page " << page;
        pte.updates = static_cast<std::uint32_t>(page);
    }
    EXPECT_EQ(pt.pagesTouched(), first.size());
    EXPECT_GT(first.size(), 8u * 1024);  // several grows past 1024
}

/** The cache points into the table's own map, so a copy would keep
 *  pointers into another table's values. */
static_assert(!std::is_copy_constructible_v<PageTable>);
static_assert(!std::is_copy_assignable_v<PageTable>);

TEST(PageTableTest, PteLinePacking)
{
    PageTable pt(PolicyPair{}, Addr{1} << 45);
    // 8 PTEs per 64 B line.
    EXPECT_EQ(pt.pteLine(0), pt.pteLine(7));
    EXPECT_NE(pt.pteLine(7), pt.pteLine(8));
}

} // namespace
} // namespace slip
