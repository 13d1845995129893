/**
 * @file
 * slip-perfbench: one workload of the ns/ref benchmark in one process.
 *
 * Drives the simulator from outside through its public API only and
 * prints a single JSON line: host timings, exact per-layer counts
 * taken at a fixed checkpoint, and the stats digest that run.py
 * gates against digests.json. README.md explains each workload.
 *
 *   slip-perfbench --workload W --seed N --seconds S [--traced]
 *                  [--trace-file F] [--spans OUT] [--scratch DIR]
 *   slip-perfbench --capture OUT --seed N --refs R
 *
 * --run-threads overrides a single-run workload's thread count (the
 * digests of multicore4_pipelined are recorded serially).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.hh"
#include "mem/trace_io.hh"
#include "perf/perf_counters.hh"
#include "scenario/scenario.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "sweep/run_result.hh"
#include "sweep/sweep_runner.hh"
#include "util/logging.hh"
#include "workloads/spec_suite.hh"
#include "workloads/trace_workload.hh"

using namespace slip;

namespace {

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank quantile (q in [0, 1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

double
perKref(double n, double refs)
{
    return refs > 0 ? 1000.0 * n / refs : 0.0;
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

// ---------------------------------------------------------------------
// Benchmark-side spans (traced run only): kept in memory, written once
// at exit.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    int parent = -1;
};

class Spans
{
  public:
    bool on = false;

    int
    open(const std::string &name, int parent)
    {
        if (!on)
            return -1;
        _v.push_back({name, nowNs(), 0, parent});
        return static_cast<int>(_v.size()) - 1;
    }
    void
    close(int id)
    {
        if (id >= 0)
            _v[id].end = nowNs();
    }
    void
    add(const std::string &name, std::uint64_t start, std::uint64_t end,
        int parent)
    {
        if (on)
            _v.push_back({name, start, end, parent});
    }
    /** Summed duration of spans named @p name whose parent is one of
     * the spans named @p parent_name. */
    double
    childNs(const std::string &name, const std::string &parent_name) const
    {
        double ns = 0;
        for (const Span &s : _v)
            if (s.name == name && s.parent >= 0 &&
                _v[s.parent].name == parent_name)
                ns += static_cast<double>(s.end - s.start);
        return ns;
    }
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        os << "{\"spans\":[";
        for (std::size_t i = 0; i < _v.size(); ++i) {
            const Span &s = _v[i];
            os << (i ? ",\n" : "\n") << "{\"id\":" << i
               << ",\"name\":\"" << s.name << "\",\"start_ns\":"
               << s.start << ",\"end_ns\":" << s.end
               << ",\"parent\":" << s.parent << "}";
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    std::vector<Span> _v;
};

/** Times each nextBatch pull of the wrapped source as a span under
 * the current window (the trace decode layer). */
class SpannedSource : public AccessSource
{
  public:
    SpannedSource(AccessSource &inner, Spans &spans, const int &parent)
        : _inner(inner), _spans(spans), _parent(parent)
    {}
    bool next(MemAccess &out) override { return _inner.next(out); }
    std::size_t
    nextBatch(MemAccess *out, std::size_t max) override
    {
        if (!_spans.on)
            return _inner.nextBatch(out, max);
        const int id = _spans.open("next_batch", _parent);
        const std::size_t n = _inner.nextBatch(out, max);
        _spans.close(id);
        return n;
    }
    void reset() override { _inner.reset(); }

  private:
    AccessSource &_inner;
    Spans &_spans;
    const int &_parent;
};

/** Calibration-normalised duration: @p raw_ns scaled by the nominal
 * over the mean of the kernel times measured right before and after
 * it. */
double
normalised(double raw_ns, double cal_before, double cal_after)
{
    return raw_ns * perfbench::kCalNominalNs /
           (0.5 * (cal_before + cal_after));
}

struct Result
{
    std::map<std::string, double> m;
    std::vector<std::string> errors;
    std::string digest;
    std::vector<std::string> runDigests;
    std::uint64_t attempted = 0;
};

// ---------------------------------------------------------------------
// Single-System workloads: soplex_trace_slip, shared16_coherent,
// multicore4_pipelined.
// ---------------------------------------------------------------------

struct SingleSpec
{
    Scenario scenario;         ///< cores and warm-up of the workload
    std::string scenarioPath;  ///< reloaded on every set-up when set
    unsigned runThreads = 1;
    std::uint64_t warmupPerCore = 0;
    std::uint64_t windowPerCore = 0;  ///< multiple of 256
    unsigned checkWindows = 0;        ///< digest/count checkpoint
    /** Measured windows per --seconds: the reference host's rate,
     * so a run does the same work on every commit. */
    double windowsPerSecond = 0;
    unsigned setups = 5;              ///< set-up repetitions
    std::string traceFile;            ///< replayed (looping) when set
};

struct Instance
{
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<AccessSource>> owned;
    std::vector<AccessSource *> sources;
};

Instance
build(const SingleSpec &spec, Spans &spans, const int &parent,
      std::uint64_t seed)
{
    Scenario sc = spec.scenario;
    if (!spec.scenarioPath.empty()) {
        const std::string err = loadScenarioFile(spec.scenarioPath, sc);
        if (!err.empty())
            fatal("%s", err.c_str());
        sc.workloadSeed = seed;
    }
    SystemConfig cfg = scenarioSystemConfig(sc);
    cfg.runThreads = spec.runThreads;
    Instance in;
    in.sys = std::make_unique<System>(cfg);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        if (!spec.traceFile.empty()) {
            std::string err;
            auto ts = TraceSource::open(spec.traceFile, c, true, &err);
            if (!ts)
                fatal("%s", err.c_str());
            in.owned.push_back(std::move(ts));
            in.owned.push_back(std::make_unique<SpannedSource>(
                *in.owned.back(), spans, parent));
        } else {
            const std::string &w = sc.workloads.size() == 1
                                        ? sc.workloads[0]
                                        : sc.workloads[c];
            in.owned.push_back(makeMixSource(w, c, sc.workloadSeed));
        }
        in.sources.push_back(in.owned.back().get());
    }
    return in;
}

/** Exact counts of the checkpointed end state. */
void
layerCounts(System &sys, double refs, Result &r)
{
    const unsigned last = sys.numLevels() - 1;
    const CacheLevelStats l1 = sys.combinedLevelStats(0);
    const CacheLevelStats l2 = sys.combinedLevelStats(1);
    const CacheLevelStats llc = sys.combinedLevelStats(last);
    double tlb_misses = 0, movements = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        tlb_misses += static_cast<double>(sys.tlb(c).misses());
    for (unsigned i = 0; i < sys.numLevels(); ++i)
        movements +=
            static_cast<double>(sys.combinedLevelStats(i).movements);
    double slice_max = 0, slice_sum = 0;
    for (unsigned u = 0; u < sys.levelUnits(last); ++u) {
        const CacheLevelStats &s = sys.levelUnit(last, u).stats();
        const double a =
            static_cast<double>(s.demandAccesses + s.metadataAccesses);
        slice_max = std::max(slice_max, a);
        slice_sum += a;
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    r.m["tlb.miss_per_kref"] = perKref(tlb_misses, refs);
    r.m["rd.metadata_per_kref"] = perKref(d(l2.metadataAccesses), refs);
    r.m["slip.eou_ops_per_kref"] = perKref(d(sys.eouOperations()), refs);
    r.m["slip.l2_bypass_ratio"] =
        ratio(d(l2.bypasses), d(l2.bypasses + l2.insertions));
    r.m["slip.movements_per_kref"] = perKref(movements, refs);
    r.m["cache.l1_miss_ratio"] =
        ratio(d(l1.demandMisses()), d(l1.demandAccesses));
    r.m["cache.l2_demand_per_kref"] = perKref(d(l2.demandAccesses), refs);
    r.m["cache.llc_demand_per_kref"] =
        perKref(d(llc.demandAccesses), refs);
    r.m["cache.llc_miss_ratio"] =
        ratio(d(llc.demandMisses()), d(llc.demandAccesses));
    r.m["cache.llc_slice_imbalance"] =
        ratio(slice_max, slice_sum / sys.levelUnits(last));
    r.m["dram.lines_per_kref"] =
        perKref(sys.dram().totalTrafficLines(), refs);
    r.m["coherence.write_probes_per_kref"] =
        perKref(d(sys.coherenceWriteProbes()), refs);
    r.m["coherence.invalidations_per_kref"] =
        perKref(d(sys.coherenceInvalidations()), refs);
    r.m["coherence.dirty_wb_per_kref"] =
        perKref(d(sys.coherenceDirtyWritebacks()), refs);
    r.m["model.ipc"] = ratio(sys.instructions(), sys.totalCycles());
    r.m["model.pj_per_ref"] = ratio(sys.fullSystemEnergyPj(), refs);

    // Invariants that hold at every seed.
    if (l1.demandHits > l1.demandAccesses ||
        llc.demandHits > llc.demandAccesses)
        r.errors.push_back("hits exceed accesses");
    if (!sys.coherenceEnabled() &&
        (sys.coherenceWriteProbes() || sys.coherenceInvalidations()))
        r.errors.push_back("coherence traffic without a coherent level");
}

/** Host ns per measured ref of each profiled phase (traced run; all
 * zero untraced), summed over threads. */
void
phaseMetrics(const perf::PhaseTotals &pt, double refs, Result &r)
{
    auto ns = [&](perf::Phase p) {
        return double(pt.ns[static_cast<unsigned>(p)]);
    };
    r.m["workloads.gen_ns_per_ref"] = ns(perf::Phase::WorkloadGen) / refs;
    r.m["tlb.ns_per_ref"] = ns(perf::Phase::Tlb) / refs;
    r.m["rd.ns_per_ref"] = ns(perf::Phase::RdProfile) / refs;
    r.m["slip.eou_ns_per_ref"] = ns(perf::Phase::Eou) / refs;
    r.m["cache.walk_ns_per_ref"] = ns(perf::Phase::CacheWalk) / refs;
    r.m["pipeline.front_ns_per_ref"] = ns(perf::Phase::FrontEnd) / refs;
    r.m["pipeline.shared_stage_ns_per_ref"] =
        ns(perf::Phase::SharedStage) / refs;
    r.m["pipeline.queue_full_share"] =
        ratio(ns(perf::Phase::QueueFull), ns(perf::Phase::FrontEnd));
    r.m["pipeline.queue_empty_share"] =
        ratio(ns(perf::Phase::QueueEmpty), ns(perf::Phase::SharedStage));
}

void
runSingle(const SingleSpec &spec, std::uint64_t seed, double seconds,
          bool traced, Spans &spans, Result &r)
{
    // Sweep layers do not run here.
    for (const char *k :
         {"sweep.run_s_p50", "sweep.run_s_max", "sweep.pool_busy_share",
          "sweep.executed", "sweep.cache_hits",
          "result_cache.warm_load_ms_per_run"})
        r.m[k] = 0.0;
    int parent = -1;
    const std::uint64_t ncores = spec.scenario.cores;

    // Set-up, repeated; the median repetition is reported and the
    // last instance is measured.
    Instance in;
    std::vector<double> setup_s, construct_s, warmup_s;
    double cal = perfbench::calibrateNs(spec.runThreads);
    for (unsigned k = 0; k < spec.setups; ++k) {
        in = Instance();  // tear down outside the timed section
        const int sid = spans.open("setup", -1);
        parent = spans.open("construct", sid);
        const std::uint64_t t0 = nowNs();
        in = build(spec, spans, parent, seed);
        const std::uint64_t t1 = nowNs();
        spans.close(parent);
        parent = spans.open("warmup", sid);
        in.sys->run(in.sources, 0, spec.warmupPerCore);
        const std::uint64_t t2 = nowNs();
        spans.close(parent);
        spans.close(sid);
        const double cal_after = perfbench::calibrateNs(spec.runThreads);
        const double scale = normalised(1.0, cal, cal_after);
        cal = cal_after;
        construct_s.push_back(1e-9 * scale * double(t1 - t0));
        warmup_s.push_back(1e-9 * scale * double(t2 - t1));
        setup_s.push_back(construct_s.back() + warmup_s.back());
    }
    {
        std::size_t mid = 0;
        const double med = quantile(setup_s, 0.5);
        for (std::size_t k = 0; k < setup_s.size(); ++k)
            if (setup_s[k] == med)
                mid = k;
        r.m["setup_s"] = setup_s[mid];
        r.m["setup.construct_s"] = construct_s[mid];
        r.m["setup.warmup_s"] = warmup_s[mid];
    }

    // Measured windows.
    perf::reset();
    perf::setEnabled(traced);
    const double win_refs = double(spec.windowPerCore * ncores);
    std::vector<double> norm_ns, raw_ns, cals;
    const int mid_span = spans.open("measure", -1);
    // The traced twin only needs medians and the checkpoint: half the
    // work keeps the pair inside the run's time budget.
    const std::size_t windows = std::max<std::size_t>(
        spec.checkWindows,
        static_cast<std::size_t>(seconds * spec.windowsPerSecond *
                                     (traced ? 0.5 : 1.0) +
                                 0.5));
    while (norm_ns.size() < windows) {
        parent = spans.open("window", mid_span);
        const std::uint64_t t0 = nowNs();
        in.sys->run(in.sources, spec.windowPerCore, 0);
        const std::uint64_t t1 = nowNs();
        spans.close(parent);
        const double cal_after = perfbench::calibrateNs(spec.runThreads);
        raw_ns.push_back(double(t1 - t0));
        norm_ns.push_back(normalised(raw_ns.back(), cal, cal_after));
        cals.push_back(cal_after);
        cal = cal_after;
        if (norm_ns.size() == spec.checkWindows) {
            perf::setEnabled(false);
            std::ostringstream os;
            dumpStats(*in.sys, os);
            r.digest = hex64(fnv1a(os.str()));
            layerCounts(*in.sys, win_refs * spec.checkWindows, r);
            perf::setEnabled(traced);
        }
    }
    spans.close(mid_span);
    perf::setEnabled(false);

    const double n = double(norm_ns.size());
    r.attempted = norm_ns.size();
    r.m["ns_per_ref"] = median(norm_ns) / win_refs;
    r.m["host.raw_ns_per_ref"] = median(raw_ns) / win_refs;
    r.m["host.ns_per_ref_p90"] = quantile(norm_ns, 0.9) / win_refs;
    r.m["host.windows"] = n;
    r.m["host.cal_slowdown"] = median(cals) / perfbench::kCalNominalNs;

    phaseMetrics(perf::snapshot(), n * win_refs, r);
    r.m["mem.decode_ns_per_ref"] =
        spans.childNs("next_batch", "window") / (n * win_refs);
}

// ---------------------------------------------------------------------
// fig09_sweep_cold: the 14 x 5 Figure 9 plan on a 4-job SweepRunner,
// each sweep against a fresh private cache directory.
// ---------------------------------------------------------------------

constexpr unsigned kSweepJobs = 4;
constexpr std::uint64_t kSweepRefs = 50'000;
constexpr double kSweepPassesPerSecond = 0.9;

std::vector<RunSpec>
fig09Plan()
{
    SweepOptions opts;
    opts.refs = kSweepRefs;
    opts.warmup = kSweepRefs;
    opts.runThreads = 1;
    std::vector<RunSpec> plan;
    for (const auto &b : specBenchmarks())
        for (PolicyKind pk :
             {PolicyKind::Baseline, PolicyKind::NuRapid,
              PolicyKind::LruPea, PolicyKind::Slip, PolicyKind::SlipAbp})
            plan.push_back(RunSpec::single(b, pk, opts));
    return plan;
}

struct SweepPass
{
    double wallNs = 0;
    double firstDoneNs = 0;
    SweepRunner::Stats stats;
    std::vector<SweepRunner::RunRecord> records;
    std::vector<RunResult> results;
    std::size_t failed = 0;
};

SweepPass
sweepOnce(const std::vector<RunSpec> &plan, const std::string &cache_dir,
          Spans &spans, const std::string &span_name)
{
    SweepPass p;
    const int sid = spans.open(span_name, -1);
    const std::uint64_t t0 = nowNs();
    std::uint64_t first_done = 0;
    {
        SweepRunner runner(kSweepJobs, ResultCache(cache_dir));
        // Serialized by the runner; the calling thread touches the
        // spans again only after the runner is gone.
        runner.setProgress([&](const SweepRunner::RunRecord &rec) {
            const std::uint64_t t = nowNs();
            if (!first_done)
                first_done = t;
            spans.add("run:" + rec.label,
                      t - static_cast<std::uint64_t>(rec.seconds * 1e9),
                      t, sid);
        });
        std::vector<std::shared_future<RunResult>> futs;
        for (const RunSpec &s : plan)
            futs.push_back(runner.enqueue(s));
        for (auto &f : futs) {
            try {
                p.results.push_back(f.get());
            } catch (const std::exception &) {
                p.results.emplace_back();
                ++p.failed;
            }
        }
        runner.wait();
        p.stats = runner.stats();
        p.records = runner.records();
    }
    const std::uint64_t t1 = nowNs();
    spans.close(sid);
    p.wallNs = double(t1 - t0);
    p.firstDoneNs = double(first_done - t0);
    return p;
}

void
runSweep(const std::string &scratch, double seconds, bool traced,
         Spans &spans, Result &r)
{
    const std::vector<RunSpec> plan = fig09Plan();
    const double refs = double(plan.size() * kSweepRefs);
    // Layers a RunResult does not expose, or that the plan's serial,
    // private, unsliced classic runs never exercise; result_cache is
    // measured by the traced run only.
    for (const char *k :
         {"mem.decode_ns_per_ref", "cache.l1_miss_ratio",
          "coherence.write_probes_per_kref",
          "coherence.invalidations_per_kref",
          "coherence.dirty_wb_per_kref", "setup.construct_s",
          "setup.warmup_s", "result_cache.warm_load_ms_per_run"})
        r.m[k] = 0.0;
    r.m["cache.llc_slice_imbalance"] = 1.0;
    std::vector<double> ns_per_ref, raw_ns_per_ref, first_s, cals;
    std::vector<SweepPass> passes;
    perf::reset();
    perf::setEnabled(traced);
    // Whole passes at the reference host's rate, at least two; half as
    // many in the traced twin.
    const std::size_t npasses = std::max<std::size_t>(
        2, static_cast<std::size_t>(seconds * kSweepPassesPerSecond *
                                        (traced ? 0.5 : 1.0) +
                                    0.5));
    double cal = perfbench::calibrateNs(kSweepJobs);
    unsigned k = 0;
    do {
        const std::string dir =
            scratch + "/sweep_cache_" + std::to_string(k++);
        std::filesystem::remove_all(dir);
        SweepPass p = sweepOnce(plan, dir, spans, "sweep");
        std::filesystem::remove_all(dir);
        const double cal_after = perfbench::calibrateNs(kSweepJobs);
        const double scale = normalised(1.0, cal, cal_after);
        cals.push_back(cal_after);
        cal = cal_after;
        raw_ns_per_ref.push_back(p.wallNs / refs);
        ns_per_ref.push_back(scale * p.wallNs / refs);
        first_s.push_back(scale * 1e-9 * p.firstDoneNs);
        passes.push_back(std::move(p));
    } while (passes.size() < npasses);
    perf::setEnabled(false);
    const perf::PhaseTotals pt = perf::snapshot();

    // Digest of every RunResult, in plan order; every pass must agree
    // with the first and be fully cold.
    const SweepPass &p0 = passes.front();
    std::string all;
    for (const RunResult &res : p0.results) {
        const std::string s = runResultToString(res);
        r.runDigests.push_back(hex64(fnv1a(s)));
        all += s;
    }
    r.digest = hex64(fnv1a(all));
    std::size_t failed_runs = 0;
    for (const SweepPass &p : passes) {
        failed_runs += p.failed;
        for (std::size_t i = 0; i < p.results.size(); ++i)
            if (p.results[i] != p0.results[i])
                ++failed_runs;
        if (p.stats.executed != plan.size() || p.stats.cacheHits != 0)
            r.errors.push_back("sweep pass was not fully cold");
    }
    if (failed_runs)
        r.errors.push_back(std::to_string(failed_runs) +
                           " sweep runs failed or disagreed");
    r.attempted = passes.size() * plan.size();

    r.m["ns_per_ref"] = median(ns_per_ref);
    r.m["setup_s"] = median(first_s);
    r.m["host.raw_ns_per_ref"] = median(raw_ns_per_ref);
    r.m["host.ns_per_ref_p90"] = quantile(ns_per_ref, 0.9);
    r.m["host.windows"] = double(passes.size());
    r.m["host.cal_slowdown"] = median(cals) / perfbench::kCalNominalNs;

    // Exact counts, summed over the plan's results.
    double tlb = 0, eou = 0, meta = 0, byp = 0, ins = 0, mov = 0,
           l2d = 0, llcd = 0, llcm = 0, dram = 0, instr = 0, cyc = 0,
           pj = 0;
    for (const RunResult &res : p0.results) {
        tlb += res.tlbMisses;
        eou += res.eouOps;
        meta += double(res.l2.metadataAccesses);
        byp += double(res.l2.bypasses);
        ins += double(res.l2.insertions);
        mov += double(res.l2.movements + res.l3.movements);
        l2d += double(res.l2.demandAccesses);
        llcd += double(res.l3.demandAccesses);
        llcm += double(res.l3.demandMisses());
        dram += res.dramTrafficLines;
        instr += res.instructions;
        cyc += res.cycles;
        pj += res.fullSystemPj;
    }
    r.m["tlb.miss_per_kref"] = perKref(tlb, refs);
    r.m["rd.metadata_per_kref"] = perKref(meta, refs);
    r.m["slip.eou_ops_per_kref"] = perKref(eou, refs);
    r.m["slip.l2_bypass_ratio"] = ratio(byp, byp + ins);
    r.m["slip.movements_per_kref"] = perKref(mov, refs);
    r.m["cache.l2_demand_per_kref"] = perKref(l2d, refs);
    r.m["cache.llc_demand_per_kref"] = perKref(llcd, refs);
    r.m["cache.llc_miss_ratio"] = ratio(llcm, llcd);
    r.m["dram.lines_per_kref"] = perKref(dram, refs);
    r.m["model.ipc"] = ratio(instr, cyc);
    r.m["model.pj_per_ref"] = ratio(pj, refs);

    // Pool shape of the passes (host times: read from the traced run).
    std::vector<double> run_s;
    double busy = 0;
    for (const SweepPass &p : passes)
        for (const auto &rec : p.records) {
            run_s.push_back(rec.seconds);
            busy += rec.seconds;
        }
    double wall = 0;
    for (const SweepPass &p : passes)
        wall += p.wallNs * 1e-9;
    r.m["sweep.run_s_p50"] = median(run_s);
    r.m["sweep.run_s_max"] = quantile(run_s, 1.0);
    r.m["sweep.pool_busy_share"] = ratio(busy, kSweepJobs * wall);
    r.m["sweep.executed"] = double(p0.stats.executed);
    r.m["sweep.cache_hits"] = double(p0.stats.cacheHits);
    phaseMetrics(pt, refs * double(passes.size()), r);

    // Warm replay of the same plan from a populated cache.
    if (traced) {
        const std::string dir = scratch + "/sweep_cache_warm";
        std::filesystem::remove_all(dir);
        sweepOnce(plan, dir, spans, "sweep_fill");
        const SweepPass warm = sweepOnce(plan, dir, spans, "sweep_warm");
        std::filesystem::remove_all(dir);
        if (warm.stats.cacheHits != plan.size())
            r.errors.push_back("warm replay missed the cache");
        for (std::size_t i = 0; i < warm.results.size(); ++i)
            if (warm.results[i] != p0.results[i])
                r.errors.push_back("cached result differs: " +
                                   plan[i].label());
        r.m["result_cache.warm_load_ms_per_run"] =
            1e-6 * warm.wallNs / double(plan.size());
    }
}

// ---------------------------------------------------------------------

SingleSpec
workloadSpec(const std::string &name, const std::string &trace_file,
             std::uint64_t seed)
{
    SingleSpec s;
    if (name == "soplex_trace_slip") {
        if (trace_file.empty())
            fatal("soplex_trace_slip needs --trace-file");
        s.scenario.name = name;
        s.scenario.policy = "slip+abp";
        s.scenario.cores = 1;
        s.scenario.workloads = {"trace:" + trace_file};
        s.traceFile = trace_file;
        s.warmupPerCore = 500'000;
        s.windowPerCore = 256 * 256;
        s.checkWindows = 8;
        s.windowsPerSecond = 19;
    } else if (name == "shared16_coherent") {
        s.scenarioPath = "scenarios/hier3_shared16.json";
        s.windowPerCore = 256 * 4;
        s.checkWindows = 16;
        s.windowsPerSecond = 18;
    } else if (name == "multicore4_pipelined") {
        s.scenarioPath = "scenarios/hier3_multicore4.json";
        s.runThreads = 2;
        // Its pipelined warm-up is short and noisy; more repetitions
        // steady the median.
        s.setups = 9;
        s.windowPerCore = 256 * 64;
        s.checkWindows = 8;
        s.windowsPerSecond = 24;
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    if (!s.scenarioPath.empty()) {
        const std::string err =
            loadScenarioFile(s.scenarioPath, s.scenario);
        if (!err.empty())
            fatal("%s", err.c_str());
        s.scenario.workloadSeed = seed;
        s.warmupPerCore = s.scenario.warmup;
    }
    return s;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o;
}

void
printResult(const Result &r, const std::string &workload,
            std::uint64_t seed, bool traced)
{
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"traced\":%s,\"build_type\":\"%s\",\"digest\":\"%s\","
                "\"attempted\":%" PRIu64 ",\"errors\":[",
                workload.c_str(), seed, traced ? "true" : "false",
                PERFBENCH_BUILD_TYPE, r.digest.c_str(), r.attempted);
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "",
                    jsonEscape(r.errors[i]).c_str());
    std::printf("],\"run_digests\":[");
    for (std::size_t i = 0; i < r.runDigests.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "", r.runDigests[i].c_str());
    std::printf("],\"metrics\":{");
    bool first = true;
    for (const auto &[k, v] : r.m) {
        std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_file, spans_path, capture;
    std::string scratch = ".";
    std::uint64_t seed = 1, capture_refs = 0;
    unsigned run_threads = 0;  // 0 = the workload's own
    double seconds = 10;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = val();
        else if (a == "--seed")
            seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--traced")
            traced = true;
        else if (a == "--trace-file")
            trace_file = val();
        else if (a == "--spans")
            spans_path = val();
        else if (a == "--scratch")
            scratch = val();
        else if (a == "--capture")
            capture = val();
        else if (a == "--refs")
            capture_refs = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--run-threads")
            run_threads =
                unsigned(std::strtoul(val().c_str(), nullptr, 10));
        else
            fatal("unknown option '%s'", a.c_str());
    }

    if (!capture.empty()) {
        const std::string err = captureWorkloadTrace(
            "soplex", 1, capture_refs, seed, capture);
        if (!err.empty())
            fatal("%s", err.c_str());
        return 0;
    }

    Spans spans;
    spans.on = traced;
    Result r;
    if (workload == "fig09_sweep_cold")
        runSweep(scratch, seconds, traced, spans, r);
    else {
        SingleSpec spec = workloadSpec(workload, trace_file, seed);
        if (run_threads)
            spec.runThreads = run_threads;
        runSingle(spec, seed, seconds, traced, spans, r);
    }
    r.m["peak_rss_mb"] = peakRssMb();
    if (traced && !spans_path.empty() && !spans.write(spans_path))
        r.errors.push_back("cannot write spans to " + spans_path);
    printResult(r, workload, seed, traced);
    return 0;
}
