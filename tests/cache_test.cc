/**
 * @file
 * Tests for the cache substrate: lookup/install/move/evict mechanics,
 * replacement over way masks, the movement queue, reuse-distance
 * timestamps, and energy accounting.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/cache_level.hh"
#include "cache/level_controller.hh"
#include "energy/energy_params.hh"
#include "util/random.hh"

namespace slip {
namespace {

CacheLevelConfig
smallL2()
{
    CacheLevelConfig cfg;
    cfg.name = "L2";
    cfg.sizeBytes = 256 * 1024;
    cfg.ways = 16;
    cfg.energy = tech45nm().l2;
    return cfg;
}

TEST(CacheLevelTest, Geometry)
{
    CacheLevel l2(smallL2());
    EXPECT_EQ(l2.numSets(), 256u);
    EXPECT_EQ(l2.numWays(), 16u);
    EXPECT_EQ(l2.numLines(), 4096u);
}

TEST(CacheLevelTest, MissThenInstallThenHit)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x1234;
    auto r = l2.lookup(line, AccessClass::Demand);
    EXPECT_FALSE(r.hit);

    const unsigned set = l2.setIndex(line);
    const unsigned way =
        l2.chooseVictim(set, l2.sublevelMask(0, kNumSublevels));
    l2.installLine(set, way, line, false, PolicyPair{},
                   InsertClass::Default);

    r = l2.lookup(line, AccessClass::Demand);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.way, way);
    EXPECT_EQ(l2.stats().demandAccesses, 2u);
    EXPECT_EQ(l2.stats().demandHits, 1u);
    EXPECT_EQ(l2.stats().insertions, 1u);
}

TEST(CacheLevelTest, InstallChargesMovementEnergy)
{
    CacheLevel l2(smallL2());
    const Addr line = 64;  // set 64, maps to some set
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 0, line, false, PolicyPair{},
                   InsertClass::Default);
    // Way 0 is sublevel 0: 21 pJ write + 1 pJ metadata.
    EXPECT_DOUBLE_EQ(
        l2.stats().energyPj[static_cast<unsigned>(EnergyCat::Movement)],
        21.0);
    EXPECT_DOUBLE_EQ(
        l2.stats().energyPj[static_cast<unsigned>(EnergyCat::Metadata)],
        1.0);
}

TEST(CacheLevelTest, HitChargesWayEnergyAndLatency)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x40;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 10, line, false, PolicyPair{},
                   InsertClass::Default);  // way 10 = sublevel 2
    auto r = l2.lookup(line, AccessClass::Demand);
    ASSERT_TRUE(r.hit);
    const Cycles lat = l2.recordHit(r.setIndex, r.way, false,
                                    AccessClass::Demand, false);
    EXPECT_EQ(lat, 8u);  // sublevel 2 latency
    const double acc =
        l2.stats().energyPj[static_cast<unsigned>(EnergyCat::Access)];
    // Way 10 is in row 2 of the linear model (< sublevel-2 mean).
    EXPECT_GT(acc, 33.0);
    EXPECT_LT(acc, 60.0);
    EXPECT_EQ(l2.stats().sublevelHits[2], 1u);
}

TEST(CacheLevelTest, WritebackOnDirtyEvict)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x99;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 3, line, true, PolicyPair{},
                   InsertClass::Default);
    const Eviction ev = l2.evictLine(set, 3);
    EXPECT_EQ(ev.lineAddr, line);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(l2.stats().writebacks, 1u);
    EXPECT_FALSE(l2.peek(line).hit);
}

TEST(CacheLevelTest, CleanEvictNoWriteback)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x99;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 3, line, false, PolicyPair{},
                   InsertClass::Default);
    const Eviction ev = l2.evictLine(set, 3);
    EXPECT_FALSE(ev.dirty);
    EXPECT_EQ(l2.stats().writebacks, 0u);
}

TEST(CacheLevelTest, MoveLinePreservesContents)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x77;
    const unsigned set = l2.setIndex(line);
    PolicyPair pol;
    pol.code[0] = 5;
    l2.installLine(set, 1, line, true, pol, InsertClass::Other);
    l2.moveLine(set, 1, 9);
    EXPECT_FALSE(l2.lineAt(set, 1).valid);
    const CacheLine &moved = l2.lineAt(set, 9);
    EXPECT_TRUE(moved.valid);
    EXPECT_EQ(moved.tag, line);
    EXPECT_TRUE(moved.dirty);
    EXPECT_EQ(moved.policies.code[0], 5);
    EXPECT_EQ(l2.stats().movements, 1u);
    // Port blocked for read (way 1: 4 cyc) + write (way 9: 8 cyc).
    EXPECT_EQ(l2.stats().portBusyCycles, 12u);
}

TEST(CacheLevelTest, SwapLines)
{
    CacheLevel l2(smallL2());
    const unsigned set = 5;
    const Addr a = 5, b = 5 + 256;  // both map to set 5
    l2.installLine(set, 0, a, false, PolicyPair{}, InsertClass::Default);
    l2.installLine(set, 12, b, true, PolicyPair{}, InsertClass::Default);
    l2.swapLines(set, 0, 12);
    EXPECT_EQ(l2.lineAt(set, 0).tag, b);
    EXPECT_EQ(l2.lineAt(set, 12).tag, a);
    EXPECT_TRUE(l2.lineAt(set, 0).dirty);
    EXPECT_EQ(l2.stats().movements, 2u);
}

TEST(CacheLevelTest, InvalidateRemovesLine)
{
    CacheLevel l2(smallL2());
    const Addr line = 0xABC;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 2, line, false, PolicyPair{},
                   InsertClass::Default);
    EXPECT_TRUE(l2.invalidate(line));
    EXPECT_FALSE(l2.peek(line).hit);
    EXPECT_FALSE(l2.invalidate(line));
    EXPECT_EQ(l2.stats().invalidations, 1u);
}

TEST(CacheLevelTest, SublevelMasks)
{
    CacheLevel l2(smallL2());
    EXPECT_EQ(l2.sublevelMask(0, 1), 0x000Fu);
    EXPECT_EQ(l2.sublevelMask(1, 2), 0x00F0u);
    EXPECT_EQ(l2.sublevelMask(2, 3), 0xFF00u);
    EXPECT_EQ(l2.sublevelMask(0, 3), 0xFFFFu);
    EXPECT_EQ(l2.sublevelMask(1, 3), 0xFFF0u);
}

TEST(CacheLevelTest, VictimPrefersInvalid)
{
    CacheLevel l2(smallL2());
    const unsigned set = 0;
    // Fill ways 0..2 of sublevel 0 only.
    for (unsigned w = 0; w < 3; ++w)
        l2.installLine(set, w, Addr(w) * 256, false, PolicyPair{},
                       InsertClass::Default);
    EXPECT_EQ(l2.chooseVictim(set, l2.sublevelMask(0, 1)), 3u);
}

TEST(CacheLevelTest, VictimIsLruWithinMask)
{
    CacheLevel l2(smallL2());
    const unsigned set = 0;
    for (unsigned w = 0; w < 16; ++w)
        l2.installLine(set, w, Addr(w) * 256, false, PolicyPair{},
                       InsertClass::Default);
    // Touch everything except way 5 (so way 5 is LRU overall).
    for (unsigned w = 0; w < 16; ++w) {
        if (w == 5)
            continue;
        l2.recordHit(set, w, false, AccessClass::Demand, false);
    }
    EXPECT_EQ(l2.chooseVictim(set, 0xFFFF), 5u);
    // Restricted to sublevel 2 (ways 8-15), way 5 is excluded; the LRU
    // of ways 8..15 was touched in order, so way 8 is oldest.
    EXPECT_EQ(l2.chooseVictim(set, l2.sublevelMask(2, 3)), 8u);
}

TEST(CacheLevelTest, PreferDemotedVictim)
{
    CacheLevel l2(smallL2());
    const unsigned set = 0;
    for (unsigned w = 0; w < 4; ++w)
        l2.installLine(set, w, Addr(w) * 256, false, PolicyPair{},
                       InsertClass::Default);
    l2.lineAt(set, 2).demoted = true;
    // Way 0 is the plain LRU, but demoted way 2 has priority.
    EXPECT_EQ(l2.chooseVictim(set, l2.sublevelMask(0, 1), true), 2u);
}

TEST(CacheLevelTest, TimestampWrapAndReuseDistance)
{
    CacheLevel l2(smallL2());
    // 4C = 16384 accesses; 6-bit TL -> granularity 256.
    const std::uint8_t tl0 = l2.tlNow();
    EXPECT_EQ(tl0, 0);
    for (int i = 0; i < 600; ++i)
        l2.lookup(Addr(i) + 0x100000, AccessClass::Demand);
    // ~600 accesses later the distance from tl0 is ~600 (quantized
    // down to a multiple of 256 at the stamp side).
    const std::uint64_t rd = l2.reuseDistance(tl0);
    EXPECT_GE(rd, 512u);
    EXPECT_LE(rd, 600u);
    EXPECT_EQ(l2.rdBin(rd), 0u);  // < 1024 lines (64 KB)
}

TEST(CacheLevelTest, RdBins)
{
    CacheLevel l2(smallL2());
    EXPECT_EQ(l2.sublevelCumLines(0), 1024u);
    EXPECT_EQ(l2.sublevelCumLines(1), 2048u);
    EXPECT_EQ(l2.sublevelCumLines(2), 4096u);
    EXPECT_EQ(l2.rdBin(0), 0u);
    EXPECT_EQ(l2.rdBin(1023), 0u);
    EXPECT_EQ(l2.rdBin(1024), 1u);
    EXPECT_EQ(l2.rdBin(2047), 1u);
    EXPECT_EQ(l2.rdBin(2048), 2u);
    EXPECT_EQ(l2.rdBin(4095), 2u);
    EXPECT_EQ(l2.rdBin(4096), 3u);
    EXPECT_EQ(l2.rdBin(1u << 20), 3u);
}

TEST(CacheLevelTest, ReuseHistogramOnEviction)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x31;
    const unsigned set = l2.setIndex(line);
    l2.installLine(set, 0, line, false, PolicyPair{},
                   InsertClass::Default);
    // Two hits, then evict: NR = 2 bucket.
    l2.recordHit(set, 0, false, AccessClass::Demand, false);
    l2.recordHit(set, 0, false, AccessClass::Demand, false);
    l2.evictLine(set, 0);
    EXPECT_EQ(l2.stats().reuseHistogram[2], 1u);

    // Re-insert, 5 hits, evict: NR > 2 bucket.
    l2.installLine(set, 0, line, false, PolicyPair{},
                   InsertClass::Default);
    for (int i = 0; i < 5; ++i)
        l2.recordHit(set, 0, false, AccessClass::Demand, false);
    l2.evictLine(set, 0);
    EXPECT_EQ(l2.stats().reuseHistogram[3], 1u);
}

/** The 8-bit hit counter saturates instead of wrapping: a line hit
 *  300 times (past 255 and past 256 + 3) still lands in NR > 2, on
 *  eviction and on invalidation alike. */
TEST(CacheLevelTest, HitCountSaturates)
{
    CacheLevel l2(smallL2());
    const Addr line = 0x31;
    const unsigned set = l2.setIndex(line);
    for (int round = 0; round < 2; ++round) {
        l2.installLine(set, 0, line, false, PolicyPair{},
                       InsertClass::Default);
        for (int i = 0; i < 300; ++i)
            l2.recordHit(set, 0, false, AccessClass::Demand, false);
        EXPECT_EQ(l2.lineAt(set, 0).hitCount, 255u);
        if (round == 0)
            l2.evictLine(set, 0);
        else
            EXPECT_TRUE(l2.invalidate(line));
    }
    EXPECT_EQ(l2.stats().reuseHistogram[3], 2u);
    EXPECT_EQ(l2.stats().reuseHistogram[0], 0u);
}

/** Reference LRU rank: ascending scan, minimum stamp, "<=" so the
 *  highest way wins a tie. */
unsigned
referenceLruVictim(const std::vector<std::uint64_t> &stamps,
                   std::uint32_t mask)
{
    unsigned best = ~0u;
    std::uint64_t best_stamp = ~0ull;
    for (unsigned w = 0; w < stamps.size(); ++w) {
        if (((mask >> w) & 1) && stamps[w] <= best_stamp) {
            best_stamp = stamps[w];
            best = w;
        }
    }
    return best;
}

TEST(ReplacementTest, PackedLruVictimMatchesReferenceScan)
{
    Random rng(42);
    for (unsigned ways : {8u, 16u, 32u}) {
        SCOPED_TRACE(ways);
        const std::uint32_t full =
            ways == 32 ? ~0u : (1u << ways) - 1;
        std::vector<std::uint64_t> stamps(ways);
        for (int trial = 0; trial < 20000; ++trial) {
            // Narrow stamp ranges make ties; wide ones reach the top
            // of the supported 2^59 range.
            const std::uint64_t range =
                trial % 2 ? 8 : (std::uint64_t{1} << 59) - 1;
            for (auto &st : stamps)
                st = rng.below(range);
            std::uint32_t mask = 0;
            while (mask == 0)
                mask = static_cast<std::uint32_t>(rng.next()) & full;
            ASSERT_EQ(ReplacementPolicy::lruVictim(stamps.data(), ways,
                                                   mask),
                      referenceLruVictim(stamps, mask))
                << "mask 0x" << std::hex << mask;
        }
    }
}

TEST(CacheLevelTest, MovementQueueDisabledNoEnergy)
{
    CacheLevelConfig cfg = smallL2();
    cfg.movementQueueEnabled = false;
    cfg.slipMetadataEnabled = false;
    CacheLevel l2(cfg);
    l2.lookup(0x1, AccessClass::Demand);
    EXPECT_DOUBLE_EQ(
        l2.stats().energyPj[static_cast<unsigned>(EnergyCat::Other)],
        0.0);
    l2.installLine(l2.setIndex(1), 0, 1, false, PolicyPair{},
                   InsertClass::Default);
    EXPECT_DOUBLE_EQ(
        l2.stats().energyPj[static_cast<unsigned>(EnergyCat::Metadata)],
        0.0);
}

TEST(CacheLevelTest, CheckInvariantsPasses)
{
    CacheLevel l2(smallL2());
    for (Addr a = 0; a < 1000; ++a) {
        const unsigned set = l2.setIndex(a);
        const unsigned way = l2.chooseVictim(set, 0xFFFF);
        if (l2.lineAt(set, way).valid)
            l2.evictLine(set, way);
        l2.installLine(set, way, a, false, PolicyPair{},
                       InsertClass::Default);
    }
    l2.checkInvariants();
}

TEST(BaselineControllerTest, FillEvictsLruAcrossAllWays)
{
    CacheLevel l2(smallL2());
    BaselineController ctrl(l2, kSlipL2);
    PageCtx ctx;
    std::vector<Eviction> evs;
    // 17 lines into one set: the first inserted (and untouched) line
    // must be the one displaced.
    for (unsigned i = 0; i < 17; ++i)
        ctrl.fill(Addr(i) * 256, false, ctx, evs);
    EXPECT_EQ(evs.size(), 1u);
    EXPECT_EQ(evs[0].lineAddr, 0u);
    EXPECT_FALSE(l2.peek(0).hit);
    EXPECT_TRUE(l2.peek(16 * 256).hit);
}

TEST(BaselineControllerTest, AccessReportsRdBinWhenSampling)
{
    CacheLevel l2(smallL2());
    BaselineController ctrl(l2, kSlipL2);
    PageCtx ctx;
    ctx.collectRd = true;
    std::vector<Eviction> evs;
    ctrl.fill(0x10, false, ctx, evs);
    auto res = ctrl.access(0x10, false, ctx, AccessClass::Demand);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.rdBin, 0);  // immediate reuse
    ctx.collectRd = false;
    res = ctrl.access(0x10, false, ctx, AccessClass::Demand);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.rdBin, -1);
}

TEST(MovementQueueTest, OccupancyAndStalls)
{
    MovementQueue mq(2, 0.3);
    EXPECT_DOUBLE_EQ(mq.lookup(), 0.3);
    EXPECT_EQ(mq.push(10), 0u);
    EXPECT_EQ(mq.push(10), 0u);
    EXPECT_EQ(mq.push(10), 10u);  // full -> stall
    EXPECT_EQ(mq.fullStalls(), 1u);
    EXPECT_EQ(mq.peakOccupancy(), 2u);
    mq.drainAll();
    EXPECT_EQ(mq.push(10), 0u);
    EXPECT_EQ(mq.movements(), 4u);
}

} // namespace
} // namespace slip
