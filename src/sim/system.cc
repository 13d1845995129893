#include "sim/system.hh"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/perf_counters.hh"
#include "sim/policy_registry.hh"
#include "util/check.hh"
#include "util/logging.hh"

namespace slip {

SystemConfig::SystemConfig() : tech(tech45nm()) {}

namespace {

/** Default SLIP codes for unseen pages. */
PolicyPair
defaultPolicies()
{
    PolicyPair p;
    p.code[kSlipL2] = SlipPolicy::defaultCode(kNumSublevels);
    p.code[kSlipL3] = SlipPolicy::defaultCode(kNumSublevels);
    return p;
}

/** Page context of a PTE or metadata line: always the Default SLIP. */
PageCtx
metadataCtx()
{
    PageCtx ctx;
    ctx.policies = defaultPolicies();
    ctx.useDefault = true;
    return ctx;
}

} // namespace

System::System(const SystemConfig &cfg)
    : _cfg(cfg),
      _samplingAlways(cfg.samplingMode == SamplingMode::Always),
      _l1RefPj(cfg.l1HitsPerMiss * cfg.tech.l1AccessPj),
      _rdBlockPages(cfg.rdBlockPages), _dram(cfg.tech),
      _pageTable(defaultPolicies()), _metadata(cfg.rdBinBits),
      _sampling(cfg.nsamp, cfg.nstab,
                cfg.samplingMode == SamplingMode::TimeBased,
                cfg.seed * 977 + 13)
{
    slip_assert(cfg.numCores >= 1, "at least one core required");

    HierarchyDefaults defs;
    defs.policy = policyCliName(cfg.policy);
    defs.topology = cfg.topology;
    defs.repl = cfg.repl;
    defs.randomVictim = cfg.randomSublevelVictim;
    defs.inclusiveLast = cfg.inclusiveL3;
    defs.tech = &cfg.tech;
    std::string err;
    std::vector<ResolvedLevel> resolved =
        resolveHierarchy(cfg.hierarchy, defs, &err);
    if (resolved.empty())
        fatal("invalid hierarchy: %s", err.c_str());
    _l1Latency = resolved[0].energy.baselineLatency;

    // Build every level from the same path: one CacheLevel per unit
    // plus a registry-resolved controller. SLIP-managed levels claim
    // reuse-distance slots in order.
    for (std::size_t i = 0; i < resolved.size(); ++i) {
        const ResolvedLevel &spec = resolved[i];
        const LevelPolicyInfo *pol = findLevelPolicy(spec.policy);
        if (!pol)
            fatal("level %zu ('%s'): unknown policy '%s'", i,
                  spec.name.c_str(), spec.policy.c_str());

        Level lvl;
        lvl.spec = spec;
        lvl.abp = pol->abp;
        // Non-SLIP controllers receive the would-be slot of their
        // level so their derived RNG streams match the classic
        // layout (level 1 -> 0, deeper levels -> 1).
        unsigned ctrl_slot =
            i == 0 ? 0
                   : std::min<unsigned>(static_cast<unsigned>(i) - 1,
                                        kMaxSlipLevels - 1);
        if (pol->slip) {
            slip_assert(i > 0, "level 0 cannot be SLIP-managed");
            if (_slipLevels.size() >= kMaxSlipLevels)
                fatal("level %zu ('%s'): more than %u SLIP-managed "
                      "levels (line/page metadata holds %u RD slots)",
                      i, spec.name.c_str(), kMaxSlipLevels,
                      kMaxSlipLevels);
            lvl.slot = static_cast<int>(_slipLevels.size());
            ctrl_slot = static_cast<unsigned>(lvl.slot);
            _slipLevels.push_back(static_cast<unsigned>(i));
            _isSlip = true;
        }

        LevelPolicyArgs args;
        args.randomSublevelVictim = spec.randomVictim;
        args.systemSeed = cfg.seed;

        // Shared levels have one unit per address-interleaved slice
        // (one total when unsliced), private levels one per core. A
        // slice holds sizeBytes/slices and skips the slice-select
        // bits when indexing sets, so the S slices together behave
        // like the monolithic array partitioned by line % S.
        const unsigned nunits =
            spec.shared ? spec.slices : cfg.numCores;
        for (unsigned u = 0; u < nunits; ++u) {
            CacheLevelConfig c;
            c.name = spec.shared
                         ? (spec.slices > 1
                                ? spec.name + ".s" + std::to_string(u)
                                : spec.name)
                         : spec.name + "." + std::to_string(u);
            c.sizeBytes = spec.sizeBytes / (spec.shared ? spec.slices
                                                        : 1);
            c.ways = spec.ways;
            c.topology = spec.topology;
            c.energy = spec.energy;
            c.sublevelWays = spec.sublevelWays;
            c.waysPerRow = spec.waysPerRow;
            c.setShift = spec.shared ? exactLog2(spec.slices) : 0;
            c.repl = spec.repl;
            c.movementQueueEnabled = pol->movementQueue;
            c.slipMetadataEnabled = pol->slip;
            c.trackSharers = spec.coherent;
            c.movementQueuePj = cfg.tech.movementQueuePj;
            c.seed = cfg.seed * spec.seedMul + spec.seedAdd + u;
            lvl.units.push_back(std::make_unique<CacheLevel>(c));
            lvl.ctrls.push_back(
                pol->make(*lvl.units.back(), ctrl_slot, args));
        }
        lvl.evs.resize(nunits);
        if (spec.coherent) {
            slip_assert(_coherentLevel < 0,
                        "at most one coherent level");
            slip_assert(cfg.numCores <= 64,
                        "coherence-lite sharer masks track at most 64 "
                        "cores, got %u", cfg.numCores);
            _coherentLevel = static_cast<int>(i);
        }
        _levels.push_back(std::move(lvl));
    }

    for (unsigned c = 0; c < cfg.numCores; ++c)
        _cores.push_back(std::make_unique<Core>(cfg.tlbEntries));

    // EOUs: each SLIP-managed level's unit sees the next level's mean
    // access energy as the miss cost; the outermost sees the DRAM
    // line energy (Equation 4).
    for (unsigned slot = 0; slot < _slipLevels.size(); ++slot) {
        const unsigned li = _slipLevels[slot];
        Level &lvl = _levels[li];
        SlipEnergyModelParams m;
        const CacheTopology &topo = lvl.units[0]->topology();
        for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
            m.sublevelEnergy[sl] = topo.sublevelEnergy(sl);
            m.sublevelWays[sl] = topo.sublevelWays(sl);
        }
        m.nextLevelEnergy =
            li + 1 < _levels.size()
                ? _levels[li + 1].units[0]->topology().meanAccessEnergy()
                : _dram.lineEnergy();
        m.includeInsertion = cfg.eouIncludeInsertion;
        // An inclusive level must never fully bypass (Section 4.3).
        _eous.push_back(std::make_unique<Eou>(
            SlipEnergyModel(m), lvl.abp && !lvl.spec.inclusive));
    }

    _epochLvlBase.assign(_levels.size() - 1, obs::EnergyLedger{});
    _epochLvlHitsBase.assign(_levels.size() - 1, 0);

    // Private-prefix / shared-suffix boundary for the pipelined run:
    // the first shared level, valid only when every deeper level is
    // shared too (else numLevels(), meaning "no clean boundary").
    _firstShared = static_cast<unsigned>(_levels.size());
    for (unsigned i = 0; i < _levels.size(); ++i) {
        if (_levels[i].spec.shared) {
            _firstShared = i;
            break;
        }
    }
    for (unsigned i = _firstShared; i < _levels.size(); ++i) {
        if (!_levels[i].spec.shared) {
            _firstShared = static_cast<unsigned>(_levels.size());
            break;
        }
    }
    // resolveHierarchy guarantees the coherent level is the first
    // shared one with a clean private-prefix/shared-suffix split —
    // coherenceDemand's sweep over levels [0, _coherentLevel) relies
    // on every one of them being private.
    SLIP_CHECK(_coherentLevel < 0 ||
               static_cast<unsigned>(_coherentLevel) == _firstShared);

    // Post-construction hierarchy sanity (resolveHierarchy validated
    // the spec; these state what the built System relies on).
    SLIP_CHECK(_slipLevels.size() <= kMaxSlipLevels);
    SLIP_CHECK(_eous.size() == _slipLevels.size());
    SLIP_CHECK(_firstShared <= _levels.size());
    SLIP_CHECK_EXPENSIVE(
        if (_firstShared < _levels.size())
            for (unsigned i = 0; i < _levels.size(); ++i)
                SLIP_CHECK_MSG(_levels[i].spec.shared ==
                                   (i >= _firstShared),
                               "level %u breaks the private-prefix / "
                               "shared-suffix boundary at %u", i,
                               _firstShared));
}

System::~System() = default;

PageCtx
System::pageCtx(Addr page)
{
    PageCtx ctx;
    ctx.page = page;
    if (!_isSlip) {
        ctx.policies = defaultPolicies();
        return ctx;
    }
    const Pte &pte = _pageTable.pte(rdBlock(page));
    ctx.policies = pte.policies;
    if (_samplingAlways) {
        ctx.collectRd = true;
        ctx.useDefault = false;
    } else {
        ctx.collectRd = pte.sampling;
        ctx.useDefault = pte.sampling;
    }
    return ctx;
}

void
System::recordRd(const PageCtx &ctx, int slot, int bin)
{
    perf::ScopedPhase profile_scope(perf::Phase::RdProfile);
    if (slot < 0 || !ctx.collectRd || !_isSlip || bin < 0)
        return;
    // Only sampling pages reach here, so this is off the hot path.
    static obs::Counter &records_ctr = obs::counter("rd.records");
    records_ctr.add();
    _metadata.page(rdBlock(ctx.page))
        .dist[slot]
        .record(static_cast<unsigned>(bin));
}

Cycles
System::tlbMissShared(unsigned core_id, const pipe::FrontRef &fr,
                      unsigned boundary)
{
    Cycles lat = 0;
    const Addr page = fr.page;
    const Addr block = rdBlock(page);
    Pte &pte = _pageTable.pte(block);

    // Page walk: the PTE line is fetched through the hierarchy. This
    // exists in every configuration, so it is demand traffic. A
    // full-front front end already walked the private levels: the
    // walk continues from the boundary only if it missed them all,
    // and the writebacks its fills captured follow it.
    if (_cfg.modelPageWalks &&
        (boundary == 0 || (fr.flags & pipe::kRefPteShared)))
        lat += fetch(core_id, _pageTable.pteLine(page), metadataCtx(),
                     Fetch::Pte, std::max(boundary, 1u), nullptr);
    for (unsigned k = 0; k < fr.nPteWb; ++k)
        writebackToLevel(_firstShared, core_id, fr.wb[k], nullptr);

    if (_isSlip) {
        const Addr mline = _metadata.metadataLine(block);
        if (_samplingAlways) {
            // Pre-sampling design: fetch the distribution and rerun
            // the EOU on every TLB miss (Section 4.1's traffic
            // problem, the tbl_sampling_traffic ablation).
            lat += metadataAccess(core_id, mline, false,
                                  AccessClass::Metadata);
            const PageMetadata &md = _metadata.page(block);
            PolicyPair fresh = pte.policies;
            {
                perf::ScopedPhase eou_scope(perf::Phase::Eou);
                for (unsigned s = 0; s < _slipLevels.size(); ++s)
                    fresh.code[s] = _eous[s]->optimize(md.dist[s].bins());
            }
            if (obs::traceEnabled())
                obs::emit(obs::EventKind::EouDecision, block,
                          fresh.code[0], fresh.code[1]);
            if (!(fresh == pte.policies)) {
                pte.policies = fresh;
                pte.dirty = true;
                ++pte.updates;
                if (obs::traceEnabled())
                    obs::emit(obs::EventKind::TlbUpdate, block, 1,
                              pte.updates);
            }
            for (unsigned li : _slipLevels)
                _levels[li].unit(core_id, mline).chargeEnergy(
                    EnergyCat::Other, obs::EnergyCause::EouOp,
                    _cfg.tech.eouOpPj);
            lat += 1;  // TLB blocked for the policy update
            pte.sampling = true;
        } else {
            const bool was_sampling = pte.sampling;
            const bool now_sampling = _sampling.transition(was_sampling);
            if (was_sampling) {
                // Distribution metadata is only fetched for sampling
                // pages (Section 4.2).
                lat += metadataAccess(core_id, mline, false,
                                      AccessClass::Metadata);
            }
            if (was_sampling && !now_sampling) {
                // Transition to stable: recompute the page's SLIPs.
                const PageMetadata &md = _metadata.page(block);
                PolicyPair fresh = pte.policies;
                {
                    perf::ScopedPhase eou_scope(perf::Phase::Eou);
                    for (unsigned s = 0; s < _slipLevels.size(); ++s)
                        fresh.code[s] =
                            _eous[s]->optimize(md.dist[s].bins());
                }
                if (obs::traceEnabled())
                    obs::emit(obs::EventKind::EouDecision, block,
                              fresh.code[0], fresh.code[1]);
                if (!(fresh == pte.policies)) {
                    pte.policies = fresh;
                    pte.dirty = true;
                }
                ++pte.updates;
                for (unsigned li : _slipLevels)
                    _levels[li].unit(core_id, mline).chargeEnergy(
                        EnergyCat::Other, obs::EnergyCause::EouOp,
                        _cfg.tech.eouOpPj);
                lat += 1;  // TLB blocked for the policy update
            }
            if (was_sampling != now_sampling && obs::traceEnabled())
                obs::emit(obs::EventKind::TlbUpdate, block,
                          now_sampling ? 1 : 0, pte.updates);
            pte.sampling = now_sampling;
        }
    }
    return lat;
}

void
System::tlbEvictShared(unsigned core_id, Addr evicted)
{
    Pte &epte = _pageTable.pte(rdBlock(evicted));
    if (_isSlip && epte.sampling && !_samplingAlways) {
        // Write the evicted page's distribution back (off the
        // critical path of the missing access).
        metadataAccess(core_id,
                       _metadata.metadataLine(rdBlock(evicted)),
                       true, AccessClass::Metadata);
    }
    if (epte.dirty && _cfg.modelPageWalks) {
        metadataAccess(core_id, _pageTable.pteLine(evicted), true,
                       AccessClass::Demand);
        epte.dirty = false;
    }
}

Cycles
System::metadataAccess(unsigned core_id, Addr line, bool is_write,
                       AccessClass cls)
{
    if (!is_write)
        return fetch(core_id, line, metadataCtx(),
                     cls == AccessClass::Metadata ? Fetch::Metadata
                                                  : Fetch::Pte,
                     1, nullptr);

    // Non-allocating write-through: update in place where cached,
    // otherwise send the small record straight to DRAM.
    for (unsigned i = 1; i < _levels.size(); ++i) {
        CacheLevel &unit = _levels[i].unit(core_id, line);
        const LookupResult lr = unit.lookup(line, cls);
        if (lr.hit)
            return unit.recordWriteback(lr.setIndex, lr.way);
    }
    if (cls == AccessClass::Metadata)
        _dram.metadataAccess(_metadata.recordBits());
    else
        _dram.access(true);
    return _dram.latency();
}

Cycles
System::fetch(unsigned core_id, Addr line, const PageCtx &ctx,
              Fetch kind, unsigned from, pipe::FrontRef *front)
{
    // Metadata fetches only exist under SLIP, which never runs its
    // private levels on a front end (fullFrontEligible).
    SLIP_CHECK(!front || kind != Fetch::Metadata);
    const unsigned end = front ? _firstShared : numLevels();
    const AccessClass cls = kind == Fetch::Metadata ? AccessClass::Metadata
                                                    : AccessClass::Demand;
    Cycles lat = 0;
    unsigned hit_at = end;
    for (unsigned i = from; i < end; ++i) {
        Level &lvl = _levels[i];
        AccessResult r =
            lvl.ctrl(core_id, line).access(line, false, ctx, cls);
        if (kind == Fetch::Demand)
            recordRd(ctx, lvl.slot,
                     r.hit ? r.rdBin : static_cast<int>(kNumSublevels));
        if (r.hit) {
            lat += r.latency;
            hit_at = i;
            break;
        }
        lat += lvl.unit(core_id, line).topology().baselineLatency();
    }
    if (hit_at == end) {
        if (front)
            front->flags |= kind == Fetch::Demand ? pipe::kRefDemandShared
                                                  : pipe::kRefPteShared;
        else if (kind == Fetch::Metadata)
            lat += _dram.metadataAccess(kLineSize * 8);
        else
            lat += _dram.access(false);
    }
    // Fill the missed levels deepest first. On a front end these
    // private fills run before the merge stage's shared fills — the
    // reverse of the serial order — but neither side reads the
    // other's state, and the shared-bound writebacks they capture are
    // replayed after the shared fills, where serial produces them.
    for (unsigned i = hit_at; i-- > from;)
        fillLevel(i, core_id, line, false, ctx, front);

    // A line the coherence point (or DRAM below it) served into this
    // core's private levels makes the core a sharer. Page-walk and
    // distribution-metadata lines count too: the back-invalidation
    // filter in drainEvictions must reach every private holder. A
    // demand line also fills level 0 after this returns
    // (demandAccess); that fill cannot displace it from the inclusive
    // coherent level, so registering it here covers the L1 copy.
    if (_coherentLevel >= 0) {
        const unsigned coh = static_cast<unsigned>(_coherentLevel);
        const unsigned first_filled = kind == Fetch::Demand ? 0 : from;
        if (first_filled < coh && hit_at >= coh)
            if (std::uint64_t *word = sharerWord(core_id, line))
                *word |= std::uint64_t{1} << core_id;
    }
    return lat;
}

std::uint64_t *
System::sharerWord(unsigned core_id, Addr line)
{
    CacheLevel &home =
        _levels[static_cast<unsigned>(_coherentLevel)].unit(core_id, line);
    const LookupResult lr = home.peek(line);
    // Inclusion: a line any private level holds or just received is
    // present at its home slice.
    SLIP_CHECK_MSG(lr.hit, "coherent level lost included line %llx",
                   static_cast<unsigned long long>(line));
    return lr.hit ? &home.sharers(lr.setIndex, lr.way) : nullptr;
}

void
System::fillLevel(unsigned i, unsigned core_id, Addr line, bool dirty,
                  const PageCtx &ctx, pipe::FrontRef *front)
{
    Level &lvl = _levels[i];
    const unsigned u = lvl.unitIndex(core_id, line);
    lvl.ctrls[u]->fill(line, dirty, ctx, lvl.evs[u]);
    drainEvictions(i, core_id, u, front);
}

void
System::writebackToLevel(unsigned i, unsigned core_id, Addr line,
                         pipe::FrontRef *front)
{
    if (front && i >= _firstShared) {
        // Crossing the private/shared boundary on a front end: capture
        // the line for the merge stage (fullFrontEligible bounds the
        // count).
        slip_assert(front->nWb < pipe::kMaxFrontWb,
                    "front-end writeback capture overflow");
        front->wb[front->nWb++] = line;
        return;
    }
    PageCtx ctx = pageCtx(pageOfLine(line));
    ctx.collectRd = false;  // writebacks are not demand reuse

    CacheLevel &unit = _levels[i].unit(core_id, line);
    const LookupResult lr = unit.lookup(line, AccessClass::Demand);
    if (lr.hit) {
        unit.recordWriteback(lr.setIndex, lr.way);
        return;
    }
    fillLevel(i, core_id, line, true, ctx, front);
}

void
System::drainEvictions(unsigned i, unsigned core_id, unsigned u,
                       pipe::FrontRef *front)
{
    Level &lvl = _levels[i];
    std::vector<Eviction> &evs = lvl.evs[u];
    const bool last = i + 1 == _levels.size();
    for (const Eviction &ev : evs) {
        bool dirty = ev.dirty;
        if (lvl.spec.inclusive) {
            // Back-invalidate upper-level copies; a dirty copy there
            // must reach the next level since this entry is gone. A
            // private level's upper levels are private too, so on a
            // front end this touches only the worker's own core.
            const bool coherent = static_cast<int>(i) == _coherentLevel;
            // Holder coverage (DESIGN.md §5c): the coherent level's
            // sharer word names every private unit holding the line,
            // so the filtered sweep below misses no copy.
            SLIP_CHECK_EXPENSIVE(
                if (coherent)
                    for (unsigned j = 0; j < i; ++j)
                        for (unsigned c = 0; c < _levels[j].units.size();
                             ++c)
                            SLIP_CHECK_MSG(
                                !_levels[j].units[c]->peek(ev.lineAddr).hit ||
                                    ((ev.sharers >> c) & 1),
                                "level %u unit %u holds line %llx "
                                "without its sharer bit", j, c,
                                static_cast<unsigned long long>(
                                    ev.lineAddr)));
            for (unsigned j = 0; j < i; ++j) {
                Level &upper = _levels[j];
                if (upper.spec.shared) {
                    bool d = false;
                    upper.unit(core_id, ev.lineAddr)
                        .invalidate(ev.lineAddr, &d);
                    dirty = dirty || d;
                } else if (coherent) {
                    // Only the sharers can hold the line, in ascending
                    // core order. A skipped unit still pays the
                    // movement-queue probe that every invalidation
                    // sweep charges on levels with a queue.
                    const bool mq =
                        upper.units[0]->config().movementQueueEnabled;
                    for (unsigned c = 0; c < upper.units.size(); ++c) {
                        if ((ev.sharers >> c) & 1) {
                            bool d = false;
                            upper.units[c]->invalidate(ev.lineAddr, &d);
                            dirty = dirty || d;
                        } else if (mq) {
                            upper.units[c]->probeMovementQueue();
                        }
                    }
                } else if (lvl.spec.shared) {
                    // Shared level evicting: any core may hold it.
                    for (auto &unit : upper.units) {
                        bool d = false;
                        unit->invalidate(ev.lineAddr, &d);
                        dirty = dirty || d;
                    }
                } else {
                    bool d = false;
                    upper.units[core_id]->invalidate(ev.lineAddr, &d);
                    dirty = dirty || d;
                }
            }
            // Inclusivity post-condition: no copy remains in any unit
            // the sweep above was responsible for.
            SLIP_CHECK_EXPENSIVE(
                for (unsigned j = 0; j < i; ++j) {
                    const Level &upper = _levels[j];
                    if (upper.spec.shared) {
                        SLIP_CHECK(!upper.unit(core_id, ev.lineAddr)
                                        .peek(ev.lineAddr)
                                        .hit);
                    } else if (lvl.spec.shared) {
                        for (const auto &unit : upper.units)
                            SLIP_CHECK(!unit->peek(ev.lineAddr).hit);
                    } else {
                        SLIP_CHECK(!upper.units[core_id]
                                        ->peek(ev.lineAddr)
                                        .hit);
                    }
                });
        }
        if (dirty) {
            // A front end only drains private levels, never the last.
            SLIP_CHECK(!front || !last);
            if (last)
                _dram.access(true);
            else
                writebackToLevel(i + 1, core_id, ev.lineAddr, front);
        }
    }
    evs.clear();
}

void
System::access(unsigned core_id, const MemAccess &acc)
{
    slip_assert(core_id < _cores.size(), "core %u out of range",
                core_id);
    pipe::FrontRef fr;
    frontAccess(core_id, acc, fr, 0);
    mergeRef(core_id, fr, 0);
}

void
System::frontAccess(unsigned core_id, const MemAccess &acc,
                    pipe::FrontRef &fr, unsigned boundary)
{
    Core &core = *_cores[core_id];
    if (_cfg.contextSwitchInterval &&
        ++core.stats.accessesSinceSwitch >=
            _cfg.contextSwitchInterval) {
        core.tlb.flush();
        core.stats.accessesSinceSwitch = 0;
    }
    fr.page = pageAddr(acc.addr);
    fr.line = lineAddr(acc.addr);
    if (acc.isWrite())
        fr.flags |= pipe::kRefWrite;
    if (!core.tlb.lookup(fr.page)) {
        fr.flags |= pipe::kRefTlbMiss;
        // The private prefix of the page walk; mergeRef finishes it.
        if (boundary > 0 && _cfg.modelPageWalks)
            fr.frontLat += fetch(core_id, _pageTable.pteLine(fr.page),
                                 metadataCtx(), Fetch::Pte, 1, &fr);
        fr.nPteWb = fr.nWb;
        // The insert precedes the merge-side miss work, but no TLB
        // operation happens in between, so the TLB ends in the state
        // serial order leaves; the displacement rides in the descriptor.
        Addr evicted = 0;
        if (core.tlb.insert(fr.page, evicted)) {
            fr.flags |= pipe::kRefTlbEvict;
            fr.evictedPage = evicted;
        }
    }
    if (boundary > 0)
        fr.frontLat += demandAccess(core_id, fr, &fr);
}

Cycles
System::demandAccess(unsigned core_id, pipe::FrontRef &fr,
                     pipe::FrontRef *front)
{
    // Level 0 is always private and baseline (resolveHierarchy).
    const PageCtx ctx = pageCtx(fr.page);
    const bool is_write = (fr.flags & pipe::kRefWrite) != 0;
    // The L1-hit traffic each simulated reference stands for (the
    // generators emit the post-L1 stream; see SystemConfig).
    _levels[0].units[core_id]->chargeEnergy(
        EnergyCat::Access, obs::EnergyCause::DemandHit, _l1RefPj);
    const PageCtx l1ctx;  // the innermost level is SLIP-agnostic
    if (_levels[0]
            .ctrls[core_id]
            ->access(fr.line, is_write, l1ctx, AccessClass::Demand)
            .hit) {
        fr.flags |= pipe::kRefL1Hit;
        return 0;
    }
    const Cycles lat = fetch(core_id, fr.line, ctx, Fetch::Demand, 1,
                             front);
    fillLevel(0, core_id, fr.line, is_write, ctx, front);
    return lat;
}

void
System::mergeRef(unsigned core_id, pipe::FrontRef &fr, unsigned boundary)
{
    // The shared-level work runs in the order serial produces it: PTE
    // walk, PTE writebacks, demand walk, demand writebacks.
    SLIP_CHECK_MSG(fr.nPteWb <= fr.nWb && fr.nWb <= pipe::kMaxFrontWb,
                   "merge descriptor writeback counts out of range "
                   "(%u pte, %u total)", fr.nPteWb, fr.nWb);
    Core &core = *_cores[core_id];
    ++_accessTick;
    Cycles stall = fr.frontLat;

    if (fr.flags & pipe::kRefTlbMiss) {
        perf::ScopedPhase tlb_scope(perf::Phase::Tlb);
        stall += tlbMissShared(core_id, fr, boundary);
        if (fr.flags & pipe::kRefTlbEvict)
            tlbEvictShared(core_id, fr.evictedPage);
    }

    perf::ScopedPhase walk_scope(perf::Phase::CacheWalk);
    if (boundary == 0)
        stall += demandAccess(core_id, fr, nullptr);
    else if (fr.flags & pipe::kRefDemandShared)
        stall += fetch(core_id, fr.line, pageCtx(fr.page), Fetch::Demand,
                       boundary, nullptr);
    for (unsigned k = fr.nPteWb; k < fr.nWb; ++k)
        writebackToLevel(_firstShared, core_id, fr.wb[k], nullptr);
    if (fr.flags & pipe::kRefL1Hit)
        ++core.stats.l1Hits;

    // Coherence-lite bookkeeping runs merge-side, so a pipelined run
    // replays it in serial reference order (byte-identity with
    // --run-threads 1).
    if (_coherentLevel >= 0)
        coherenceDemand(core_id, fr.line,
                        (fr.flags & pipe::kRefWrite) != 0);

    ++core.stats.accesses;
    core.stats.memStallCycles += static_cast<double>(stall);

    if (_cfg.epochIntervalRefs != 0 &&
        ++_epochAccesses >= _cfg.epochIntervalRefs)
        rollEpoch();
}

void
System::coherenceDemand(unsigned core_id, Addr line, bool is_write)
{
    // Coherence-lite (DESIGN.md §5c): the directory is the sharer
    // word of the line's way in the coherent level. Directory traffic
    // is background mesh traffic: it charges energy to the Coherence
    // cause bin but adds no demand latency.
    if (!is_write) {
        // Read sharing needs no directory update: the fill that
        // brought the line into this core's private levels registered
        // the core (fetch), and a bit is cleared only together with
        // the core's copies.
        SLIP_CHECK_EXPENSIVE(if (const std::uint64_t *word =
                                     sharerWord(core_id, line))
                                 SLIP_CHECK_MSG(
                                     (*word >> core_id) & 1,
                                     "reader %u of line %llx is not a "
                                     "sharer", core_id,
                                     static_cast<unsigned long long>(
                                         line)));
        return;
    }

    // Write: one directory probe at the home slice, then invalidate
    // every other sharer's private copies in ascending core order.
    static obs::Counter &probes_ctr =
        obs::counter("coherence.write_probes");
    static obs::Counter &inval_ctr =
        obs::counter("coherence.invalidations");
    probes_ctr.add();
    ++_cohWriteProbes;
    Level &lvl = _levels[static_cast<unsigned>(_coherentLevel)];
    CacheLevel &slice = lvl.unit(core_id, line);
    slice.chargeEnergy(EnergyCat::Metadata, obs::EnergyCause::Coherence,
                       slice.topology().metadataEnergy());

    std::uint64_t *mask = sharerWord(core_id, line);
    if (!mask)
        return;
    const std::uint64_t self = std::uint64_t{1} << core_id;
    const std::uint64_t others = *mask & ~self;
    bool any_dirty = false;
    for (unsigned c = 0; c < _cores.size() && (others >> c) != 0; ++c) {
        if (!(others & (std::uint64_t{1} << c)))
            continue;
        bool dirty = false;
        for (unsigned j = 0;
             j < static_cast<unsigned>(_coherentLevel); ++j) {
            // Every level above the coherence point is private
            // (validated in resolveHierarchy), so the sharer's copy
            // can only live in its own per-core units.
            CacheLevel &priv = *_levels[j].units[c];
            priv.chargeEnergy(EnergyCat::Metadata,
                              obs::EnergyCause::Coherence,
                              priv.topology().metadataEnergy());
            bool d = false;
            priv.invalidate(line, &d);
            dirty = dirty || d;
        }
        inval_ctr.add();
        ++_cohInvalidations;
        any_dirty = any_dirty || dirty;
    }
    if (any_dirty) {
        // A peer's dirty copy folds into the coherence point (present:
        // sharerWord found it) before the writer proceeds.
        static obs::Counter &wb_ctr =
            obs::counter("coherence.dirty_writebacks");
        const LookupResult lr = slice.peek(line);
        slice.recordWriteback(lr.setIndex, lr.way);
        wb_ctr.add();
        ++_cohDirtyWritebacks;
    }
    *mask = self;  // write-invalidate leaves the writer sole sharer
}

obs::EnergyLedger
System::levelLedger(unsigned i) const
{
    obs::EnergyLedger sum{};
    for (const auto &unit : _levels[i].units)
        obs::ledgerMerge(sum, unit->stats().causePj);
    return sum;
}

void
System::rollEpoch()
{
    obs::EpochRecord rec;
    rec.index = _epochIndex++;
    rec.endTick = _accessTick;
    rec.accesses = _epochAccesses;
    _epochAccesses = 0;

    const double l1_pj = l1EnergyPj();
    const double dram_pj = _dram.energyPj();
    const std::uint64_t eou_ops = eouOperations();

    std::uint64_t hits_delta_sum = 0;
    for (unsigned i = 1; i < numLevels(); ++i) {
        const obs::EnergyLedger ledger = levelLedger(i);
        std::uint64_t hits = 0;
        for (const auto &unit : _levels[i].units)
            hits += unit->stats().demandHits;

        // The epoch deltas subtract monotone accumulators; a backwards
        // step means a stats reset raced the epoch bases.
        SLIP_CHECK_MSG(hits >= _epochLvlHitsBase[i - 1],
                       "level %u demand-hit counter went backwards "
                       "across an epoch", i);
        obs::LevelEpoch le;
        le.name = _levels[i].spec.name;
        for (std::size_t c = 0; c < obs::kNumEnergyCauses; ++c) {
            SLIP_CHECK(ledger[c] >= _epochLvlBase[i - 1][c]);
            le.pj[c] = ledger[c] - _epochLvlBase[i - 1][c];
        }
        le.demandHits = hits - _epochLvlHitsBase[i - 1];
        hits_delta_sum += le.demandHits;
        rec.levels.push_back(std::move(le));

        _epochLvlBase[i - 1] = ledger;
        _epochLvlHitsBase[i - 1] = hits;
    }
    rec.eouOps = eou_ops - _epochEouBase;
    rec.l1Pj = l1_pj - _epochL1Base;
    rec.dramPj = dram_pj - _epochDramBase;

    _epochEouBase = eou_ops;
    _epochL1Base = l1_pj;
    _epochDramBase = dram_pj;

    if (obs::traceEnabled())
        obs::emit(obs::EventKind::EpochRollover, rec.index, rec.accesses,
                  hits_delta_sum);
    if (_epochSink)
        _epochSink->records.push_back(rec);
}

void
System::run(const std::vector<AccessSource *> &sources,
            std::uint64_t accesses_per_core,
            std::uint64_t warmup_per_core)
{
    slip_assert(sources.size() == _cores.size(),
                "need one source per core");
    perf::ScopedPhase run_scope(perf::Phase::Run);
    // Bind trace emits (including those from NUCA controllers, which
    // have no System reference) to this run's pid and tick. The
    // pipelined merge stage runs on this thread, so the binding
    // covers every emit in both modes.
    obs::RunTraceScope trace_scope(_tracePid, &_accessTick);

    // The ledger-sums check below only holds when the cause bins were
    // live for every chargeEnergy in the measured window.
    [[maybe_unused]] const bool metrics_on = obs::metricsEnabled();

    const unsigned nthreads = std::max(1u, _cfg.runThreads);
    if (nthreads > 1) {
        const unsigned nworkers =
            std::min<unsigned>(static_cast<unsigned>(_cores.size()),
                               nthreads - 1);
        const unsigned boundary = fullFrontEligible() ? _firstShared : 0;
        runWindowPipelined(sources, warmup_per_core, nworkers, boundary);
        if (warmup_per_core > 0)
            resetStats();
        runWindowPipelined(sources, accesses_per_core, nworkers,
                           boundary);
    } else {
        runWindow(sources, warmup_per_core);
        if (warmup_per_core > 0)
            resetStats();
        runWindow(sources, accesses_per_core);
    }
    // Close the final partial epoch so the series accounts every pJ of
    // the measured window.
    if (_cfg.epochIntervalRefs != 0 && _epochAccesses > 0)
        rollEpoch();

    // Slice hot-spotting: publish each NUCA slice's access count so a
    // --metrics-json snapshot shows the interleave balance
    // ("llc.s0.accesses", "llc.s1.accesses", ...).
    if (obs::metricsEnabled()) {
        for (const Level &lvl : _levels) {
            if (!lvl.spec.shared || lvl.spec.slices <= 1)
                continue;
            for (const auto &unit : lvl.units)
                obs::gauge(unit->name() + ".accesses")
                    .set(static_cast<std::int64_t>(
                        unit->stats().demandAccesses +
                        unit->stats().metadataAccesses));
        }
    }

    // Energy attribution contract: with metrics on, every pJ entering
    // a golden energyPj accumulator was paired with a ledger cause-bin
    // add (CacheLevel::chargeEnergy), so per level the cause bins must
    // sum to the golden total. Skipped if metrics were off at either
    // end of the run — the bins would legitimately lag the totals.
    SLIP_CHECK_EXPENSIVE(
        if (metrics_on && obs::metricsEnabled()) {
            for (unsigned i = 0; i < numLevels(); ++i) {
                const CacheLevelStats s = combinedLevelStats(i);
                double golden = 0.0;
                for (unsigned k = 0; k < s.energyPj.size(); ++k)
                    golden += s.energyPj[k];
                const double attributed = obs::ledgerTotal(s.causePj);
                const double tol =
                    1e-9 * std::max(1.0, std::max(std::abs(golden),
                                                  std::abs(attributed)));
                SLIP_CHECK_MSG(std::abs(golden - attributed) <= tol,
                               "level %u ledger cause bins (%.6f pJ) do "
                               "not sum to the golden energy total "
                               "(%.6f pJ)", i, attributed, golden);
            }
        });
    // Full shadow-array / tag-store consistency sweep over every unit.
    SLIP_CHECK_EXPENSIVE(checkInvariants());
}

void
System::runWindow(const std::vector<AccessSource *> &sources,
                  std::uint64_t accesses_per_core)
{
    // Pull references in chunks — one virtual call per core per chunk
    // instead of per reference — then replay them in the same
    // index-major, core-minor order the per-reference loop used.
    // Generators only hold per-core state, so chunked generation
    // produces the identical per-core streams.
    constexpr std::size_t kChunk = 256;
    const unsigned ncores = static_cast<unsigned>(_cores.size());
    std::vector<std::vector<MemAccess>> buf(
        ncores, std::vector<MemAccess>(kChunk));
    std::vector<std::size_t> got(ncores, 0);

    std::uint64_t remaining = accesses_per_core;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, remaining));
        {
            perf::ScopedPhase gen_scope(perf::Phase::WorkloadGen);
            for (unsigned c = 0; c < ncores; ++c)
                got[c] = sources[c]->nextBatch(buf[c].data(), n);
        }
        for (std::size_t i = 0; i < n; ++i)
            for (unsigned c = 0; c < ncores; ++c)
                if (i < got[c])
                    access(c, buf[c][i]);
        remaining -= n;
    }
}

bool
System::fullFrontEligible() const
{
    // Running the private levels on the front-end threads is only
    // byte-identical to serial when nothing on a private level's path
    // can observe or mutate shared state out of order:
    //  - non-SLIP policies only: no page-table/metadata/sampling
    //    state on the private walk, no reuse-distance records, and
    //    PTEs never go dirty (no evicted-PTE writebacks to reorder);
    //  - no epoch accounting or sink (rollEpoch reads every level
    //    mid-run) and no tracing (private-level emits would fire on
    //    front threads, outside the run's trace binding);
    //  - private-prefix / shared-suffix layout with at least one
    //    level on each side of the boundary;
    //  - no shared level inclusive (its back-invalidations reach
    //    into other cores' private levels; an inclusive private
    //    level only reaches its own core's levels above it);
    //  - the per-reference shared-bound writeback fan-out must fit
    //    the descriptor: one chain per private fill of the PTE and
    //    demand walks plus the level-0 fill chain.
    if (_isSlip)
        return false;
    if (_cfg.epochIntervalRefs != 0 || _epochSink)
        return false;
    if (obs::traceEnabled())
        return false;
    const unsigned nlevels = static_cast<unsigned>(_levels.size());
    if (_firstShared < 1 || _firstShared >= nlevels)
        return false;
    for (unsigned i = _firstShared; i < nlevels; ++i)
        if (_levels[i].spec.inclusive)
            return false;
    // Coherence is subsumed by the inclusive check above (a coherent
    // level must resolve inclusive), but keep the direct test so the
    // TLB-front guarantee survives if that coupling ever loosens:
    // coherenceDemand invalidates private levels from the merge stage,
    // which must not race a front end walking them.
    if (_coherentLevel >= 0)
        return false;
    if (2 * _firstShared + 2 > pipe::kMaxFrontWb)
        return false;
    return true;
}

void
System::runWindowPipelined(const std::vector<AccessSource *> &sources,
                           std::uint64_t accesses_per_core,
                           unsigned nworkers, unsigned boundary)
{
    if (accesses_per_core == 0)
        return;
    constexpr std::size_t kChunk = 256;
    const unsigned ncores = static_cast<unsigned>(_cores.size());

    // One SPSC ring per core. Capacity must cover at least one full
    // chunk: a worker produces its cores' chunks back to back while
    // the merge stage consumes index-major across all cores, so with
    // less slack the producer could fill one queue while the consumer
    // starves on another the same worker has not produced yet.
    std::vector<std::unique_ptr<pipe::SpscQueue>> queues;
    queues.reserve(ncores);
    for (unsigned c = 0; c < ncores; ++c)
        queues.push_back(
            std::make_unique<pipe::SpscQueue>(2 * kChunk));

    // Worker w owns cores {c : c % nworkers == w}: the front-end of
    // each core (source, TLB, private levels) has a single owner, so
    // per-core state needs no locking.
    std::vector<std::thread> workers;
    workers.reserve(nworkers);
    for (unsigned w = 0; w < nworkers; ++w) {
        workers.emplace_back([&, w] {
            perf::ScopedPhase front_scope(perf::Phase::FrontEnd);
            std::vector<MemAccess> buf(kChunk);
            std::uint64_t remaining = accesses_per_core;
            while (remaining > 0) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(kChunk, remaining));
                for (unsigned c = w; c < ncores; c += nworkers) {
                    std::size_t got;
                    {
                        perf::ScopedPhase gen_scope(
                            perf::Phase::WorkloadGen);
                        got = sources[c]->nextBatch(buf.data(), n);
                    }
                    for (std::size_t i = 0; i < n; ++i) {
                        pipe::FrontRef fr;
                        if (i < got) {
                            fr.flags |= pipe::kRefPresent;
                            frontAccess(c, buf[i], fr, boundary);
                        }
                        // Absent slots still cross the queue so the
                        // merge stays aligned with the serial chunk
                        // interleave when a source runs dry.
                        queues[c]->push(fr);
                    }
                }
                remaining -= n;
            }
        });
    }

    // Merge stage on the calling thread: pop index-major, core-minor
    // — the serial interleave — and finish each reference.
    {
        perf::ScopedPhase shared_scope(perf::Phase::SharedStage);
        pipe::FrontRef fr;
        std::uint64_t remaining = accesses_per_core;
        while (remaining > 0) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(kChunk, remaining));
            for (std::size_t i = 0; i < n; ++i) {
                for (unsigned c = 0; c < ncores; ++c) {
                    queues[c]->pop(fr);
                    if (fr.flags & pipe::kRefPresent)
                        mergeRef(c, fr, boundary);
                }
            }
            remaining -= n;
        }
    }

    for (auto &t : workers)
        t.join();
}

CacheLevelStats
System::combinedLevelStats(unsigned i) const
{
    CacheLevelStats sum;
    for (const auto &unit : _levels[i].units) {
        const CacheLevelStats &s = unit->stats();
        sum.demandAccesses += s.demandAccesses;
        sum.demandHits += s.demandHits;
        sum.metadataAccesses += s.metadataAccesses;
        sum.metadataHits += s.metadataHits;
        for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
            sum.sublevelHits[sl] += s.sublevelHits[sl];
            sum.sublevelInsertions[sl] += s.sublevelInsertions[sl];
        }
        sum.insertions += s.insertions;
        sum.bypasses += s.bypasses;
        for (unsigned k = 0; k < sum.insertClass.size(); ++k)
            sum.insertClass[k] += s.insertClass[k];
        sum.movements += s.movements;
        sum.writebacks += s.writebacks;
        sum.invalidations += s.invalidations;
        for (unsigned k = 0; k < 4; ++k)
            sum.reuseHistogram[k] += s.reuseHistogram[k];
        for (unsigned k = 0; k < sum.energyPj.size(); ++k)
            sum.energyPj[k] += s.energyPj[k];
        obs::ledgerMerge(sum.causePj, s.causePj);
        sum.portBusyCycles += s.portBusyCycles;
    }
    return sum;
}

double
System::levelEnergyPj(unsigned i) const
{
    double e = 0.0;
    for (const auto &unit : _levels[i].units)
        e += unit->stats().totalEnergyPj();
    return e;
}

double
System::fullSystemEnergyPj() const
{
    double e = instructions() * _cfg.tech.corePjPerInstr;
    for (unsigned i = 0; i < numLevels(); ++i)
        e += levelEnergyPj(i);
    return e + _dram.energyPj();
}

double
System::instructions() const
{
    double accesses = 0.0;
    for (const auto &core : _cores)
        accesses += static_cast<double>(core->stats.accesses);
    return accesses * _cfg.instrPerAccess;
}

double
System::coreCycles(unsigned core_id) const
{
    const Core &core = *_cores[core_id];
    const double instr =
        static_cast<double>(core.stats.accesses) * _cfg.instrPerAccess;
    const double base = instr / _cfg.issueWidth;
    const double stalls = _cfg.stallFactor * core.stats.memStallCycles;
    double busy = 0.0;
    for (unsigned i = 1; i < numLevels(); ++i) {
        const Level &lvl = _levels[i];
        double pb;
        if (lvl.spec.shared) {
            // All slices serve all cores: contention is the whole
            // level's port occupancy spread across the cores.
            pb = 0.0;
            for (const auto &unit : lvl.units)
                pb += static_cast<double>(
                    unit->stats().portBusyCycles);
            pb /= _cfg.numCores;
        } else
            pb = static_cast<double>(
                lvl.units[core_id]->stats().portBusyCycles);
        busy += pb;
    }
    const double contention = _cfg.portContentionFactor * busy;
    return base + stalls + contention;
}

double
System::totalCycles() const
{
    double worst = 0.0;
    for (unsigned c = 0; c < _cores.size(); ++c)
        worst = std::max(worst, coreCycles(c));
    return worst;
}

std::uint64_t
System::eouOperations() const
{
    std::uint64_t ops = 0;
    for (const auto &eou : _eous)
        ops += eou->operations();
    return ops;
}

void
System::resetStats()
{
    for (auto &lvl : _levels)
        for (auto &unit : lvl.units)
            unit->resetStats();
    for (auto &core : _cores) {
        core->tlb.resetStats();
        core->stats = CoreStats{};
    }
    _dram.resetStats();
    for (auto &eou : _eous)
        eou->resetStats();

    // Coherence counters restart with the measurement window; the
    // sharer words are line state of the coherent level, not stats,
    // and survive the reset just like the tag arrays.
    _cohWriteProbes = 0;
    _cohInvalidations = 0;
    _cohDirtyWritebacks = 0;

    // Restart epoch accounting so the series covers exactly the
    // post-warm-up measurement window (warm-up epochs are discarded).
    _epochAccesses = 0;
    _epochIndex = 0;
    _epochLvlBase.assign(_levels.size() - 1, obs::EnergyLedger{});
    _epochLvlHitsBase.assign(_levels.size() - 1, 0);
    _epochL1Base = 0.0;
    _epochDramBase = 0.0;
    _epochEouBase = 0;
    if (_epochSink)
        _epochSink->records.clear();
}

void
System::checkInvariants() const
{
    for (const auto &lvl : _levels)
        for (const auto &unit : lvl.units)
            unit->checkInvariants();
}

} // namespace slip
