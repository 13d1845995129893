/**
 * @file
 * Golden-reference regression tests: every SPEC-suite workload is
 * simulated under the Baseline and Slip policies at a reduced
 * reference length and the full stats dump is compared byte-for-byte
 * against fixtures checked into tests/golden/.
 *
 * The fixtures were generated from the tree *before* the hot-path
 * rewrite of the per-access simulation loop, so these tests are the
 * proof that the rewrite changed no simulated outcome. When a
 * behaviour change is intentional, regenerate with
 *
 *   SLIP_GOLDEN_REGEN=1 ./tests/golden_stats_test
 *
 * and commit the updated fixtures together with the change that
 * explains them (see EXPERIMENTS.md, "Profiling and regression
 * fixtures").
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

#ifndef SLIP_GOLDEN_DIR
#error "SLIP_GOLDEN_DIR must point at tests/golden"
#endif

namespace slip {
namespace {

/** Reduced reference counts: large enough to exercise sampling-state
 *  transitions, TLB pressure, and both EOUs; small enough that all 28
 *  runs finish in seconds. */
constexpr std::uint64_t kGoldenRefs = 40000;
constexpr std::uint64_t kGoldenWarmup = 40000;

/** tests/golden/<benchmark>.<policy>[.<repl>].txt; LRU has no suffix. */
std::string
fixturePath(const std::string &benchmark, PolicyKind policy,
            ReplKind repl = ReplKind::Lru)
{
    std::string path = std::string(SLIP_GOLDEN_DIR) + "/" + benchmark +
                       "." + policyName(policy);
    if (repl != ReplKind::Lru)
        path += std::string(".") + replCliName(repl);
    return path + ".txt";
}

/** FNV-1a, printed on mismatch so CI logs identify fixture versions. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
simulate(const std::string &benchmark, PolicyKind policy,
         unsigned run_threads = 1, ReplKind repl = ReplKind::Lru)
{
    SystemConfig cfg;
    cfg.policy = policy;
    cfg.runThreads = run_threads;
    cfg.repl = repl;
    // As `slip-sim --repl rrip`: the Section 7 variant pairs RRIP
    // with the randomized sublevel victim.
    cfg.randomSublevelVictim = repl == ReplKind::Rrip;
    auto w = makeSpecWorkload(benchmark);
    System sys(cfg);
    sys.run({w.get()}, kGoldenRefs, kGoldenWarmup);
    std::ostringstream os;
    dumpStats(sys, os);
    return os.str();
}

/** Line-by-line diff capped at @p max_lines reported differences. */
std::string
readableDiff(const std::string &want, const std::string &got,
             unsigned max_lines = 12)
{
    std::istringstream ws(want), gs(got);
    std::string wl, gl, out;
    unsigned lineno = 0, shown = 0;
    while (shown < max_lines) {
        const bool wok = static_cast<bool>(std::getline(ws, wl));
        const bool gok = static_cast<bool>(std::getline(gs, gl));
        ++lineno;
        if (!wok && !gok)
            break;
        if (!wok)
            wl = "<end of fixture>";
        if (!gok)
            gl = "<end of output>";
        if (wl != gl) {
            out += "  line " + std::to_string(lineno) + ":\n";
            out += "    fixture: " + wl + "\n";
            out += "    got:     " + gl + "\n";
            ++shown;
        }
        if (!wok || !gok)
            break;
    }
    return out.empty() ? std::string("  (no line differences?)") : out;
}

using GoldenCase = std::tuple<std::string, PolicyKind, ReplKind>;

class GoldenStatsTest : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(GoldenStatsTest, MatchesFixture)
{
    const auto &[benchmark, policy, repl] = GetParam();
    const std::string path = fixturePath(benchmark, policy, repl);
    const std::string got = simulate(benchmark, policy, 1, repl);

    if (std::getenv("SLIP_GOLDEN_REGEN")) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os.good()) << "cannot write fixture " << path;
        os << got;
        ASSERT_TRUE(os.good()) << "short write to " << path;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good())
        << "missing fixture " << path
        << " — run SLIP_GOLDEN_REGEN=1 ./tests/golden_stats_test";
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string want = buf.str();

    EXPECT_EQ(want, got)
        << "stats dump diverged from golden fixture " << path << "\n"
        << "  fixture fnv1a: " << std::hex << fnv1a(want) << "\n"
        << "  output  fnv1a: " << fnv1a(got) << std::dec << "\n"
        << readableDiff(want, got);

    // The pipelined run (--run-threads) is an execution strategy, not
    // a configuration: every fixture must also hold at 4 threads.
    const std::string piped = simulate(benchmark, policy, 4, repl);
    EXPECT_EQ(want, piped)
        << "run_threads=4 diverged from the serial dump for " << path
        << "\n"
        << readableDiff(want, piped);
}

/**
 * Every workload under Baseline and SLIP with LRU (the evaluation's
 * replacement), plus the other replacement paths on soplex: RRIP under
 * Baseline and SLIP (aging, bimodal insertion and the randomized
 * sublevel victim), random replacement under SLIP, and LRU-PEA under
 * RRIP, whose demoted-line preference has no recency to rank by and
 * so takes the highest demoted way. The non-LRU fixtures were
 * generated before replacement state moved out of CacheLine.
 */
std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (const auto &b : specBenchmarks())
        for (PolicyKind p : {PolicyKind::Baseline, PolicyKind::Slip})
            cases.emplace_back(b, p, ReplKind::Lru);
    cases.emplace_back("soplex", PolicyKind::Baseline, ReplKind::Rrip);
    cases.emplace_back("soplex", PolicyKind::Slip, ReplKind::Rrip);
    cases.emplace_back("soplex", PolicyKind::Slip, ReplKind::Random);
    cases.emplace_back("soplex", PolicyKind::LruPea, ReplKind::Rrip);
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<GoldenCase> &info)
{
    const auto &[benchmark, policy, repl] = info.param;
    std::string n = benchmark + "_" + policyName(policy);
    if (repl != ReplKind::Lru)
        n += std::string("_") + replCliName(repl);
    for (char &c : n)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

INSTANTIATE_TEST_SUITE_P(SpecSuite, GoldenStatsTest,
                         ::testing::ValuesIn(goldenCases()), caseName);

/** The suite must cover exactly the paper's 14 workloads; a new
 *  benchmark must come with a fixture. */
TEST(GoldenStatsTest, CoversFourteenWorkloads)
{
    EXPECT_EQ(specBenchmarks().size(), 14u);
}

// ---------------------------------------------------------------------
// Trace ingestion goldens
// ---------------------------------------------------------------------

/** Run @p cores cores built by @p make, dump the stats. */
std::string
simulateSources(
    unsigned cores, unsigned run_threads,
    const std::function<std::unique_ptr<AccessSource>(unsigned)> &make,
    std::uint64_t refs, std::uint64_t warmup)
{
    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.runThreads = run_threads;
    System sys(cfg);
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
    for (unsigned c = 0; c < cores; ++c) {
        owned.push_back(make(c));
        sources.push_back(owned.back().get());
    }
    sys.run(sources, refs, warmup);
    std::ostringstream os;
    dumpStats(sys, os);
    return os.str();
}

#ifdef SLIP_HAVE_ZLIB
/**
 * The checked-in compressed capture of the soplex generator
 * (tests/golden/soplex_capture.trc2.gz, warmup + measured references)
 * replayed through the `trace:` workload scheme must reproduce the
 * *generator's* golden fixture byte-for-byte — the fixture doubles as
 * a decoder regression (any SLIPTRC2/gzip decode change shows up as a
 * stats diff) and as the checked-in proof that capture-then-replay is
 * an identity. SLIP_GOLDEN_REGEN=1 re-captures it.
 */
TEST(TraceGoldenTest, CompressedCaptureReplaysToSoplexFixture)
{
    const std::string trace =
        std::string(SLIP_GOLDEN_DIR) + "/soplex_capture.trc2.gz";

    if (std::getenv("SLIP_GOLDEN_REGEN")) {
        const std::string err = captureWorkloadTrace(
            "soplex", 1, kGoldenRefs + kGoldenWarmup, 0, trace);
        ASSERT_EQ(err, "");
        GTEST_SKIP() << "regenerated " << trace;
    }

    ASSERT_TRUE(std::filesystem::exists(trace))
        << "missing fixture " << trace
        << " — run SLIP_GOLDEN_REGEN=1 ./tests/golden_stats_test";

    std::ifstream is(fixturePath("soplex", PolicyKind::Baseline),
                     std::ios::binary);
    ASSERT_TRUE(is.good());
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string want = buf.str();

    const auto makeCore = [&](unsigned c) {
        return makeMixSource("trace:" + trace, c);
    };
    const std::string got = simulateSources(1, 1, makeCore,
                                            kGoldenRefs, kGoldenWarmup);
    EXPECT_EQ(want, got)
        << "trace replay diverged from the generator fixture\n"
        << readableDiff(want, got);

    const std::string piped = simulateSources(
        1, 4, makeCore, kGoldenRefs, kGoldenWarmup);
    EXPECT_EQ(want, piped)
        << "run_threads=4 trace replay diverged\n"
        << readableDiff(want, piped);
}
#endif

/**
 * Metamorphic identity: capturing a synthetic workload and replaying
 * the capture through `trace:` yields byte-identical stats to running
 * the generator directly — single-core and multicore (per-core
 * demux), plain and gzip, serial and pipelined.
 */
class TraceMetamorphicTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TraceMetamorphicTest, CaptureReplayIsIdentity)
{
    const unsigned cores = GetParam();
    const std::uint64_t refs = 20000, warmup = 20000;

    const std::string reference = simulateSources(
        cores, 1,
        [&](unsigned c) { return makeMixSource("gcc", c, 0); }, refs,
        warmup);

    std::vector<std::string> paths;
    paths.push_back(
        (std::filesystem::temp_directory_path() /
         ("slip_meta_" + std::to_string(cores) + "c_" +
          std::to_string(::getpid()) + ".trc2"))
            .string());
#ifdef SLIP_HAVE_ZLIB
    paths.push_back(paths[0] + ".gz");
#endif
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        ASSERT_EQ(captureWorkloadTrace("gcc", cores, refs + warmup, 0,
                                       path),
                  "");
        const auto makeCore = [&](unsigned c) {
            return makeMixSource("trace:" + path, c);
        };
        const std::string replayed =
            simulateSources(cores, 1, makeCore, refs, warmup);
        EXPECT_EQ(reference, replayed)
            << "trace replay diverged from the generator\n"
            << readableDiff(reference, replayed);
        const std::string piped =
            simulateSources(cores, 4, makeCore, refs, warmup);
        EXPECT_EQ(reference, piped)
            << "pipelined trace replay diverged\n"
            << readableDiff(reference, piped);
        std::filesystem::remove(path);
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, TraceMetamorphicTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return std::to_string(i.param) + "core";
                         });

} // namespace
} // namespace slip
