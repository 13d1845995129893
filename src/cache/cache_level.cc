#include "cache/cache_level.hh"

#include <algorithm>
#include <bit>
#include <cctype>

#include "util/check.hh"
#include "util/logging.hh"

namespace slip {

namespace {

/** Metric prefix of a level: "L2.0" -> "l2", "L3" -> "l3". */
std::string
levelTag(const std::string &name)
{
    std::string tag;
    for (char c : name) {
        if (c == '.')
            break;
        tag += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    }
    return tag.empty() ? std::string("cache") : tag;
}

} // namespace

CacheLevel::CacheLevel(const CacheLevelConfig &cfg)
    : _cfg(cfg),
      _topo(cfg.topology, cfg.energy, cfg.ways, cfg.sublevelWays,
            cfg.waysPerRow),
      _repl(cfg.repl, cfg.seed),
      _mq(cfg.movementQueueEntries, cfg.movementQueuePj)
{
    slip_assert(cfg.sizeBytes % (std::uint64_t(cfg.ways) * kLineSize) ==
                    0,
                "size not divisible by ways*linesize");
    _sets = static_cast<unsigned>(cfg.sizeBytes /
                                  (std::uint64_t(cfg.ways) * kLineSize));
    slip_assert(isPowerOf2(_sets), "set count %u not a power of two",
                _sets);
    _setMask = _sets - 1;
    _lines.resize(std::size_t(_sets) * cfg.ways);
    _tags.assign(_lines.size(), kNoTag);
    _validMask.assign(_sets, 0);
    _replWords.assign(_lines.size(), 0);
    if (cfg.trackSharers)
        _sharers.assign(_lines.size(), 0);

    // T wraps every 4C accesses; TL is the top timestampBits of T.
    _timeWrap = 4 * numLines();
    const unsigned time_bits = exactLog2(_timeWrap);
    slip_assert(time_bits >= cfg.timestampBits,
                "timestamp wider than wrapped counter");
    _tlShift = time_bits - cfg.timestampBits;

    // Sublevel way-mask and cumulative-capacity tables, so the
    // per-access queries are lookups instead of nested loops.
    std::uint32_t cum_mask = 0;
    unsigned way = 0;
    std::uint64_t cum_ways = 0;
    for (unsigned sl = 0; sl < kNumSublevels; ++sl) {
        _slMaskCum[sl] = cum_mask;
        for (unsigned i = 0; i < _topo.sublevelWays(sl); ++i, ++way)
            cum_mask |= 1u << way;
        cum_ways += _topo.sublevelWays(sl);
        _slCumLines[sl] = cum_ways * _sets;
    }
    _slMaskCum[kNumSublevels] = cum_mask;

    // All cores' levels with the same tag share one process-wide
    // instrument, matching the perf-counter aggregation model.
    const std::string tag = levelTag(cfg.name);
    _ctrInsertions = &obs::counter(tag + ".insertions");
    _ctrMovements = &obs::counter(tag + ".movements");
    _ctrWritebacks = &obs::counter(tag + ".writebacks");
    _ctrInvalidations = &obs::counter(tag + ".invalidations");
}

LookupResult
CacheLevel::lookup(Addr line, AccessClass cls)
{
    _time = (_time + 1) & (_timeWrap - 1);

    if (cls == AccessClass::Demand)
        ++_stats.demandAccesses;
    else
        ++_stats.metadataAccesses;

    probeMovementQueue();
    LookupResult res = peek(line);
    if (res.hit) {
        if (cls == AccessClass::Demand)
            ++_stats.demandHits;
        else
            ++_stats.metadataHits;
    }
    return res;
}

LookupResult
CacheLevel::peek(Addr line) const
{
    LookupResult res;
    res.setIndex = setIndex(line);
    const Addr *tags = &_tags[std::size_t(res.setIndex) * _cfg.ways];
    // Invalid ways carry kNoTag, which no simulated line can equal,
    // so this is a branch-predictable straight scan the compiler can
    // vectorize; first match in ascending way order, as before.
    for (unsigned w = 0; w < _cfg.ways; ++w) {
        if (tags[w] == line) {
            res.hit = true;
            res.way = w;
            return res;
        }
    }
    return res;
}

Cycles
CacheLevel::recordHit(unsigned set, unsigned way, bool is_write,
                      AccessClass cls, bool update_metadata)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "hit on invalid line");
    _repl.onHit(_replWords[std::size_t(set) * _cfg.ways + way]);
    ln.hitCount += ln.hitCount != 0xff;  // saturate
    if (is_write)
        ln.dirty = true;

    if (cls == AccessClass::Demand)
        ++_stats.sublevelHits[_topo.sublevelOf(way)];

    // Distribution-metadata line reads are charged to the Metadata
    // category so the access/movement split of Figure 11 stays clean.
    if (cls == AccessClass::Metadata)
        chargeEnergy(EnergyCat::Metadata, obs::EnergyCause::MetadataRead,
                     _topo.wayAccessEnergy(way));
    else
        chargeEnergy(EnergyCat::Access, obs::EnergyCause::DemandHit,
                     _topo.wayAccessEnergy(way));
    if (update_metadata && _cfg.slipMetadataEnabled) {
        // Read TL, write back the new timestamp (12 b metadata line).
        chargeMetadata();
        ln.tl = tlNow();
    }
    return _topo.wayLatency(way);
}

std::uint32_t
CacheLevel::sublevelMask(unsigned sl_begin, unsigned sl_end) const
{
    slip_assert(sl_begin < sl_end && sl_end <= kNumSublevels,
                "bad sublevel range [%u,%u)", sl_begin, sl_end);
    return _slMaskCum[sl_end] & ~_slMaskCum[sl_begin];
}

unsigned
CacheLevel::chooseVictim(unsigned set, std::uint32_t way_mask,
                         bool prefer_demoted)
{
    slip_assert(way_mask != 0, "empty way mask");
    // An invalid way in the mask wins outright under every policy,
    // lowest way first, found with one bit test on the shadow mask;
    // the policies below only ever rank valid ways.
    const std::uint32_t inv = way_mask & ~_validMask[set];
    if (inv)
        return static_cast<unsigned>(std::countr_zero(inv));
    std::uint64_t *words = &_replWords[std::size_t(set) * _cfg.ways];

    if (prefer_demoted) {
        std::uint32_t demoted = 0;
        const CacheLine *lines = &lineAt(set, 0);
        for (std::uint32_t m = way_mask; m; m &= m - 1) {
            const int w = std::countr_zero(m);
            if (lines[w].demoted)
                demoted |= 1u << w;
        }
        // Only LRU ranks recency; under RRIP or random replacement all
        // demoted lines rank equal and the highest way goes first.
        if (demoted)
            return _repl.kind() == ReplKind::Lru
                       ? ReplacementPolicy::lruVictim(words, _cfg.ways,
                                                      demoted)
                       : 31u - static_cast<unsigned>(
                                   std::countl_zero(demoted));
    }
    return _repl.victim(words, _cfg.ways, way_mask);
}

void
CacheLevel::installLine(unsigned set, unsigned way, Addr line_addr,
                        bool dirty, PolicyPair policies, InsertClass cls)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(!ln.valid, "installing over a valid line");
    slip_assert(setIndex(line_addr) == set, "line/set mismatch");

    slip_assert(line_addr != ~Addr{0}, "line address is the shadow "
                "sentinel");
    ln.tag = line_addr;
    ln.valid = true;
    ln.dirty = dirty;
    ln.policies = policies;
    ln.tl = tlNow();
    ln.hitCount = 0;
    ln.demoted = false;
    _repl.onInsert(_replWords[std::size_t(set) * _cfg.ways + way]);
    syncShadow(set, way);
    if (!_sharers.empty())
        _sharers[std::size_t(set) * _cfg.ways + way] = 0;

    ++_stats.insertions;
    ++_stats.insertClass[static_cast<unsigned>(cls)];
    ++_stats.sublevelInsertions[_topo.sublevelOf(way)];
    _ctrInsertions->add();

    // The fill write plus the 12 b metadata copy travelling with it.
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Fill,
                 _topo.wayAccessEnergy(way));
    if (_cfg.slipMetadataEnabled)
        chargeMetadata();
}

Cycles
CacheLevel::moveLine(unsigned set, unsigned from, unsigned to)
{
    CacheLine &src = lineAt(set, from);
    CacheLine &dst = lineAt(set, to);
    slip_assert(src.valid, "moving an invalid line");
    slip_assert(!dst.valid, "moving onto a valid line");

    dst = src;
    src.invalidate();
    const std::size_t base = std::size_t(set) * _cfg.ways;
    _repl.onInsert(_replWords[base + to]);
    syncShadow(set, from);
    syncShadow(set, to);
    if (!_sharers.empty()) {
        _sharers[base + to] = _sharers[base + from];
        _sharers[base + from] = 0;
    }

    ++_stats.movements;
    _ctrMovements->add();
    const double pj = _topo.wayAccessEnergy(from) +
                      _topo.wayAccessEnergy(to);
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Move, pj);
    if (_cfg.slipMetadataEnabled)
        chargeMetadata();  // the 12 b metadata moves with the line

    // The port is blocked for the read and the write of the movement.
    const Cycles busy = _topo.wayLatency(from) + _topo.wayLatency(to);
    _stats.portBusyCycles += busy;
    return _mq.push(busy);
}

Cycles
CacheLevel::recordWriteback(unsigned set, unsigned way)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "writeback into invalid line");
    _repl.onHit(_replWords[std::size_t(set) * _cfg.ways + way]);
    ln.dirty = true;
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Writeback,
                 _topo.wayAccessEnergy(way));
    return _topo.wayLatency(way);
}

Cycles
CacheLevel::swapLines(unsigned set, unsigned a, unsigned b)
{
    slip_assert(a != b, "swapping a way with itself");
    CacheLine &la = lineAt(set, a);
    CacheLine &lb = lineAt(set, b);
    slip_assert(la.valid && lb.valid, "swapping invalid lines");

    std::swap(la, lb);
    const std::size_t base = std::size_t(set) * _cfg.ways;
    _repl.onInsert(_replWords[base + a]);
    _repl.onInsert(_replWords[base + b]);
    syncShadow(set, a);
    syncShadow(set, b);
    if (!_sharers.empty())
        std::swap(_sharers[base + a], _sharers[base + b]);

    _stats.movements += 2;
    _ctrMovements->add(2);
    const double pj = 2.0 * (_topo.wayAccessEnergy(a) +
                             _topo.wayAccessEnergy(b));
    chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Move, pj);
    if (_cfg.slipMetadataEnabled) {
        chargeMetadata();
        chargeMetadata();
    }

    const Cycles busy =
        2 * (_topo.wayLatency(a) + _topo.wayLatency(b));
    _stats.portBusyCycles += busy;
    Cycles stall = _mq.push(busy / 2);
    stall += _mq.push(busy / 2);
    return stall;
}

Eviction
CacheLevel::evictLine(unsigned set, unsigned way)
{
    CacheLine &ln = lineAt(set, way);
    slip_assert(ln.valid, "evicting an invalid line");

    Eviction ev;
    ev.lineAddr = ln.tag;
    ev.dirty = ln.dirty;
    ev.policies = ln.policies;
    if (!_sharers.empty()) {
        std::uint64_t &word = _sharers[std::size_t(set) * _cfg.ways + way];
        ev.sharers = word;
        word = 0;
    }

    ++_stats.reuseHistogram[std::min<std::uint32_t>(ln.hitCount, 3)];
    if (ln.dirty) {
        ++_stats.writebacks;
        _ctrWritebacks->add();
        // Reading the dirty line out for the writeback.
        chargeEnergy(EnergyCat::Movement, obs::EnergyCause::Writeback,
                     _topo.wayAccessEnergy(way));
    }
    ln.invalidate();
    syncShadow(set, way);
    SLIP_CHECK(!peek(ev.lineAddr).hit);
    return ev;
}

bool
CacheLevel::invalidate(Addr line, bool *was_dirty)
{
    probeMovementQueue();
    LookupResult res = peek(line);
    if (!res.hit)
        return false;
    CacheLine &ln = lineAt(res.setIndex, res.way);
    if (was_dirty)
        *was_dirty = ln.dirty;
    ++_stats.reuseHistogram[std::min<std::uint32_t>(ln.hitCount, 3)];
    ln.invalidate();
    syncShadow(res.setIndex, res.way);
    if (!_sharers.empty())
        _sharers[std::size_t(res.setIndex) * _cfg.ways + res.way] = 0;
    SLIP_CHECK(!peek(line).hit);
    ++_stats.invalidations;
    _ctrInvalidations->add();
    return true;
}

std::uint64_t
CacheLevel::reuseDistance(std::uint8_t tl) const
{
    const std::uint64_t stamped = std::uint64_t(tl) << _tlShift;
    return (_time + _timeWrap - stamped) % _timeWrap;
}

std::uint64_t
CacheLevel::sublevelCumLines(unsigned sl) const
{
    slip_assert(sl < kNumSublevels, "sublevel %u out of range", sl);
    return _slCumLines[sl];
}

unsigned
CacheLevel::rdBin(std::uint64_t rd) const
{
    for (unsigned sl = 0; sl < kNumSublevels; ++sl)
        if (rd < _slCumLines[sl])
            return sl;
    return kNumSublevels;
}

void
CacheLevel::resetStats()
{
    _stats = CacheLevelStats{};
    _mq.resetStats();
}

void
CacheLevel::checkInvariants() const
{
    for (unsigned s = 0; s < _sets; ++s) {
        for (unsigned w = 0; w < _cfg.ways; ++w) {
            const CacheLine &ln = lineAt(s, w);
            slip_assert(((_validMask[s] >> w) & 1) == (ln.valid ? 1u : 0u),
                        "valid shadow out of sync at (%u, %u)", s, w);
            slip_assert(_tags[std::size_t(s) * _cfg.ways + w] ==
                            (ln.valid ? ln.tag : kNoTag),
                        "tag shadow out of sync at (%u, %u)", s, w);
            if (!ln.valid) {
                slip_assert(_sharers.empty() ||
                                sharers(s, w) == 0,
                            "invalid way (%u, %u) keeps sharers", s, w);
                continue;
            }
            slip_assert(setIndex(ln.tag) == s,
                        "line 0x%llx stored in wrong set %u",
                        static_cast<unsigned long long>(ln.tag), s);
            // No duplicate tags within a set.
            for (unsigned w2 = w + 1; w2 < _cfg.ways; ++w2) {
                const CacheLine &other = lineAt(s, w2);
                slip_assert(!other.valid || other.tag != ln.tag,
                            "duplicate line 0x%llx in set %u",
                            static_cast<unsigned long long>(ln.tag), s);
            }
        }
    }
}

} // namespace slip
