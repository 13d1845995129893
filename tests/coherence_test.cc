/**
 * @file
 * Coherence-lite tests: the per-way sharer words of the shared LLC,
 * write-invalidate back-invalidations into the private levels, the
 * sharer-filtered back-invalidation on LLC evictions, the
 * `coherence` energy-cause bin, and byte-identity of the pipelined
 * run's merge-side invalidation replay.
 *
 * The canonical scenarios cannot reach the cross-core invalidation
 * path — their workload generators place each core 4 TB apart (see
 * makeMixSource), so no line is ever shared. These tests drive the
 * System with hand-written AccessSources whose cores deliberately
 * collide on a small line set.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mem/trace.hh"
#include "obs/energy_ledger.hh"
#include "obs/metrics.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"

namespace slip {
namespace {

/**
 * Deterministic generator over a small region every core touches:
 * a strided walk with a per-core phase and a write every third
 * reference, so cores continuously write-ping-pong the same lines
 * through their private L1/L2 copies. Slot k of the walk sits at
 * base + k * stride; core c starts @p phase slots ahead per core
 * (a multiple of 7 puts core c exactly phase / 7 references ahead
 * on the same slot sequence).
 */
class SharedRegionSource : public AccessSource
{
  public:
    SharedRegionSource(unsigned core, std::uint64_t lines,
                       Addr base = Addr{1} << 34, std::uint64_t phase = 3,
                       std::uint64_t stride = kLineSize)
        : _core(core), _lines(lines), _base(base), _phase(phase),
          _stride(stride)
    {}

    bool
    next(MemAccess &out) override
    {
        const std::uint64_t i = _n++;
        const std::uint64_t line = (i * 7 + _core * _phase) % _lines;
        out.addr = _base + line * _stride;
        out.type = (i % 3 == 0) ? AccessType::Write
                                : AccessType::Read;
        return true;
    }

  private:
    unsigned _core;
    std::uint64_t _lines;
    Addr _base;
    std::uint64_t _phase;
    std::uint64_t _stride;
    std::uint64_t _n = 0;
};

/** Private L1+L2 chains under a shared coherent sliced LLC. */
SystemConfig
sharedConfig(unsigned cores, unsigned slices)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.seed = 7;

    const auto level = [](const char *name, std::uint64_t size,
                          const char *energy) {
        LevelSpec l;
        l.name = name;
        l.sizeBytes = size;
        l.ways = 8;
        l.inclusive = Tri::Off;
        l.energy = energy;
        l.sublevelWays = {2, 2, 4};
        l.waysPerRow = 2;
        return l;
    };
    cfg.hierarchy.levels.push_back(level("l1", 32 * 1024, "l1"));
    cfg.hierarchy.levels.push_back(level("l2", 128 * 1024, "l2"));
    LevelSpec llc = level("llc", 1024 * 1024, "l3");
    llc.isPrivate = false;
    llc.slices = slices;
    llc.coherent = true;
    llc.inclusive = Tri::On;
    cfg.hierarchy.levels.push_back(llc);
    return cfg;
}

/**
 * sharedConfig with an LLC far smaller than the cores' shared
 * footprint: 8 KB L1s and 32 KB L2s under a 64 KB two-slice LLC, so
 * the LLC keeps evicting lines that private levels still hold.
 */
SystemConfig
pressureConfig(unsigned cores)
{
    SystemConfig cfg = sharedConfig(cores, 2);
    cfg.hierarchy.levels[0].sizeBytes = 8 * 1024;
    cfg.hierarchy.levels[1].sizeBytes = 32 * 1024;
    cfg.hierarchy.levels[2].sizeBytes = 64 * 1024;
    return cfg;
}

/** Run @p cores colliding sources and return the full stats dump. */
std::string
runSharing(const SystemConfig &cfg, unsigned run_threads,
           std::uint64_t refs, std::uint64_t lines = 512,
           std::uint64_t phase = 3)
{
    SystemConfig c = cfg;
    c.runThreads = run_threads;
    System sys(c);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < c.numCores; ++i) {
        owned.push_back(std::make_unique<SharedRegionSource>(
            i, lines, Addr{1} << 34, phase));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, refs, refs / 4);
    std::ostringstream os;
    dumpStats(sys, os);
    return os.str();
}

TEST(CoherenceLiteTest, TrueSharingInvalidatesPrivateCopies)
{
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < 2; ++i) {
        owned.push_back(
            std::make_unique<SharedRegionSource>(i, 512));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, 30000, 10000);
    sys.checkInvariants();

    ASSERT_TRUE(sys.coherenceEnabled());
    // Every demand write probes the directory.
    EXPECT_GT(sys.coherenceWriteProbes(), 0u);
    // Colliding write streams must knock copies out of the other
    // core's private levels, and some of those copies are dirty.
    EXPECT_GT(sys.coherenceInvalidations(), 0u);
    EXPECT_GT(sys.coherenceDirtyWritebacks(), 0u);
    // The invalidations land in the private levels' own counters.
    std::uint64_t priv_inv = 0;
    for (unsigned lvl = 0; lvl < 2; ++lvl)
        for (unsigned c = 0; c < 2; ++c)
            priv_inv += sys.level(lvl, c).stats().invalidations;
    EXPECT_GE(priv_inv, sys.coherenceInvalidations());
}

TEST(CoherenceLiteTest, DisjointCoresNeverInvalidate)
{
    // Cores in disjoint address regions (the canonical-scenario
    // layout): the directory still takes write probes, but no line
    // ever has a second sharer, so zero invalidations.
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    SharedRegionSource s0(0, 512, Addr{1} << 34);
    SharedRegionSource s1(1, 512, Addr{1} << 42);
    std::vector<AccessSource *> sources{&s0, &s1};
    sys.run(sources, 20000, 5000);

    EXPECT_GT(sys.coherenceWriteProbes(), 0u);
    EXPECT_EQ(sys.coherenceInvalidations(), 0u);
    EXPECT_EQ(sys.coherenceDirtyWritebacks(), 0u);
}

TEST(CoherenceLiteTest, PipelinedRunReplaysInvalidationsIdentically)
{
    // The pipelined run's byte-identity contract must hold under *true
    // sharing*, where merge-side replay of coherenceDemand is the
    // only thing keeping the pipelined run deterministic: write
    // ping-pong in a roomy LLC, and the four cores walking one
    // sequence four references apart under LLC pressure, where
    // evictions with several sharer bits drive the filtered
    // back-invalidation (MultiSharerEvictionsBackInvalidateEverySharer
    // shows they occur).
    struct Case
    {
        const char *name;
        SystemConfig cfg;
        std::uint64_t lines;
        std::uint64_t phase;
    };
    const Case cases[] = {
        {"write_ping_pong", sharedConfig(4, 4), 512, 3},
        {"multi_sharer_evictions", pressureConfig(4), 4096, 28},
    };
    for (const Case &k : cases) {
        const std::string serial =
            runSharing(k.cfg, 1, 25000, k.lines, k.phase);
        for (unsigned rt : {2u, 4u})
            EXPECT_EQ(serial,
                      runSharing(k.cfg, rt, 25000, k.lines, k.phase))
                << k.name << ": --run-threads " << rt
                << " diverged from serial under cross-core sharing";
    }
}

TEST(CoherenceLiteTest, LedgerPartitionsEnergyIncludingCoherence)
{
    obs::setMetricsEnabled(true);
    SystemConfig cfg = sharedConfig(2, 2);
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned i = 0; i < 2; ++i) {
        owned.push_back(
            std::make_unique<SharedRegionSource>(i, 512));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, 30000, 10000);

    // The coherence bin carries the directory/invalidate traffic...
    const unsigned kCoh =
        static_cast<unsigned>(obs::EnergyCause::Coherence);
    double coherence_pj = 0;
    for (unsigned i = 0; i < sys.numLevels(); ++i)
        coherence_pj += sys.combinedLevelStats(i).causePj[kCoh];
    EXPECT_GT(coherence_pj, 0.0);

    // ...and the per-cause ledger still partitions each level's
    // golden energy total exactly (the accounting identity
    // slip-report validate enforces, with the new bin included).
    for (unsigned i = 0; i < sys.numLevels(); ++i) {
        const double pj = sys.levelEnergyPj(i);
        EXPECT_NEAR(obs::ledgerTotal(sys.levelLedger(i)), pj,
                    1e-9 * (pj + 1))
            << sys.levelName(i);
    }
    obs::setMetricsEnabled(false);
}

TEST(CoherenceLiteTest, ResetStatsClearsCountersKeepsDirectory)
{
    SystemConfig cfg = sharedConfig(2, 1);
    System sys(cfg);
    SharedRegionSource s0(0, 512), s1(1, 512);
    std::vector<AccessSource *> sources{&s0, &s1};
    sys.run(sources, 20000, 5000);
    ASSERT_GT(sys.coherenceInvalidations(), 0u);

    sys.resetStats();
    EXPECT_EQ(sys.coherenceWriteProbes(), 0u);
    EXPECT_EQ(sys.coherenceInvalidations(), 0u);
    EXPECT_EQ(sys.coherenceDirtyWritebacks(), 0u);
}

/** What a scan of the private levels against the LLC finds. */
struct HolderScan
{
    std::uint64_t held = 0;      ///< valid private copies
    std::uint64_t pteHeld = 0;   ///< ...of page-walk (PTE) lines
    std::uint64_t orphans = 0;   ///< absent from their home slice
    std::uint64_t unnamed = 0;   ///< present, but without the bit
};

/** Check every private copy against its home slice's sharer word. */
HolderScan
scanHolders(const System &sys)
{
    const unsigned llc = sys.numLevels() - 1;
    const unsigned slices = sys.levelSlices(llc);
    HolderScan scan;
    for (unsigned j = 0; j < llc; ++j) {
        for (unsigned c = 0; c < sys.levelUnits(j); ++c) {
            const CacheLevel &unit = sys.levelUnit(j, c);
            for (unsigned set = 0; set < unit.numSets(); ++set) {
                for (unsigned w = 0; w < unit.numWays(); ++w) {
                    const CacheLine &ln = unit.lineAt(set, w);
                    if (!ln.valid)
                        continue;
                    ++scan.held;
                    if (ln.tag >= Addr{1} << 45)
                        ++scan.pteHeld;
                    const CacheLevel &home =
                        sys.levelUnit(llc, ln.tag & (slices - 1));
                    const LookupResult lr = home.peek(ln.tag);
                    if (!lr.hit)
                        ++scan.orphans;
                    else if (!((home.sharers(lr.setIndex, lr.way) >> c) &
                               1))
                        ++scan.unnamed;
                }
            }
        }
    }
    return scan;
}

TEST(CoherenceLiteTest, PageWalkFillsRegisterTheirCore)
{
    // Page walks bring PTE lines into the private L2s without a
    // demand access. Spread the cores over thousands of pages so the
    // 64-entry TLBs keep missing and the small LLC keeps evicting
    // PTE lines the L2s still hold: only a fill-side sharer bit lets
    // the filtered back-invalidation reach those copies.
    SystemConfig cfg = pressureConfig(2);
    ASSERT_TRUE(cfg.modelPageWalks);
    System sys(cfg);
    constexpr std::uint64_t kPageStride = 4096 + kLineSize;
    SharedRegionSource s0(0, 4096, Addr{1} << 34, 3, kPageStride);
    SharedRegionSource s1(1, 4096, Addr{1} << 34, 3, kPageStride);
    std::vector<AccessSource *> sources{&s0, &s1};
    sys.run(sources, 20000, 5000);
    sys.checkInvariants();

    EXPECT_GT(sys.tlb(0).misses(), 10000u);
    const HolderScan scan = scanHolders(sys);
    EXPECT_GT(scan.pteHeld, 0u) << "no PTE line reached a private level";
    EXPECT_EQ(scan.orphans, 0u)
        << "a private level holds lines its inclusive LLC dropped";
    EXPECT_EQ(scan.unnamed, 0u)
        << "a private holder is missing from its line's sharer word";
}

TEST(CoherenceLiteTest, MultiSharerEvictionsBackInvalidateEverySharer)
{
    // Two cores walk the same 4096-line sequence four references
    // apart, so most lines gain both cores as sharers before the
    // 1024-line LLC evicts them. The LLC is baseline (lines never
    // move between ways), so a slot whose line changes between two
    // references saw that line leave; its sharer word from the
    // previous reference is a lower bound of the word it left with.
    const SystemConfig cfg = pressureConfig(2);
    System sys(cfg);
    SharedRegionSource s0(0, 4096, Addr{1} << 34, 28);
    SharedRegionSource s1(1, 4096, Addr{1} << 34, 28);
    SharedRegionSource *src[2] = {&s0, &s1};
    const unsigned llc = sys.numLevels() - 1;

    struct Slot
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t sharers = 0;
    };
    std::vector<Slot> prev;
    std::uint64_t multi_sharer_evictions = 0;
    for (unsigned step = 0; step < 30000; ++step) {
        const unsigned core = step % 2;
        MemAccess acc;
        ASSERT_TRUE(src[core]->next(acc));
        sys.access(core, acc);

        std::size_t k = 0;
        for (unsigned u = 0; u < sys.levelUnits(llc); ++u) {
            const CacheLevel &slice = sys.levelUnit(llc, u);
            for (unsigned set = 0; set < slice.numSets(); ++set) {
                for (unsigned w = 0; w < slice.numWays(); ++w, ++k) {
                    const CacheLine &ln = slice.lineAt(set, w);
                    Slot now;
                    now.tag = ln.tag;
                    now.valid = ln.valid;
                    now.sharers = ln.valid ? slice.sharers(set, w) : 0;
                    if (k < prev.size() && prev[k].valid &&
                        (!now.valid || now.tag != prev[k].tag) &&
                        std::popcount(prev[k].sharers) >= 2)
                        ++multi_sharer_evictions;
                    if (k < prev.size())
                        prev[k] = now;
                    else
                        prev.push_back(now);
                }
            }
        }
    }
    sys.checkInvariants();
    EXPECT_GT(multi_sharer_evictions, 100u);
    EXPECT_GT(sys.coherenceInvalidations(), 0u);

    const HolderScan scan = scanHolders(sys);
    EXPECT_GT(scan.held, 0u);
    EXPECT_EQ(scan.orphans, 0u);
    EXPECT_EQ(scan.unnamed, 0u);
}

// ---------------------------------------------------------------------
// Hierarchy validation for the sharing topology.

TEST(CoherenceSpecTest, ValidSharedCoherentHierarchyResolves)
{
    const SystemConfig cfg = sharedConfig(4, 8);
    EXPECT_EQ(cfg.hierarchy.validate(), "");
}

TEST(CoherenceSpecTest, RejectsIllFormedSharingTopologies)
{
    const SystemConfig good = sharedConfig(2, 2);

    HierarchySpec h = good.hierarchy;
    h.levels[2].coherent = false;
    h.levels[1].coherent = true;  // coherent on a private level
    EXPECT_NE(h.validate().find("requires a shared level"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[2].inclusive = Tri::Off;  // coherent but non-inclusive
    EXPECT_NE(h.validate().find("must be inclusive"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[1].slices = 4;  // sliced private level
    EXPECT_NE(h.validate().find("requires a shared level"),
              std::string::npos);

    h = good.hierarchy;
    h.levels[2].slices = 3;  // non-power-of-two slicing
    EXPECT_NE(h.validate().find("power of two"), std::string::npos);

    h = good.hierarchy;
    h.levels[1].isPrivate = false;  // coherent level not first shared
    EXPECT_NE(h.validate().find("first shared level"),
              std::string::npos);
}

} // namespace
} // namespace slip
