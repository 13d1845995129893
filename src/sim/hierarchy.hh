/**
 * @file
 * Declarative description of the cache hierarchy.
 *
 * A HierarchySpec is an ordered vector of LevelSpecs, innermost
 * first; System builds one CacheLevel (per core for private levels,
 * one shared unit otherwise) plus a policy controller for every
 * entry, so 2-, 3-, and 4-level hierarchies all come from the same
 * code path. Most LevelSpec fields are tri-state/empty "inherit"
 * markers resolved against the system-wide knobs (policy, topology,
 * replacement, inclusiveness), which keeps the classic Table 1
 * configuration expressible as an empty spec and makes scenario
 * files that spell out the defaults key-compatible with programmatic
 * configs.
 *
 * SLIP-managed levels consume a reuse-distance slot: per-page
 * metadata holds kMaxSlipLevels distributions (12 bits of line
 * metadata, Section 4.4), so at most two levels of any hierarchy may
 * run a SLIP-family policy.
 */

#ifndef SLIP_SIM_HIERARCHY_HH
#define SLIP_SIM_HIERARCHY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "energy/energy_params.hh"
#include "energy/topology.hh"
#include "mem/types.hh"

namespace slip {

/** RD slots available in line/page metadata (PolicyPair::code). */
constexpr unsigned kMaxSlipLevels = 2;

/** Inherit-or-override marker for boolean level knobs. */
enum class Tri : std::uint8_t { Inherit, Off, On };

/** One level of the hierarchy (innermost = index 0). */
struct LevelSpec
{
    /** Stats/metric label ("l1", "l2", ...): also the obs counter
     * prefix and the stats-dump key, so it must be unique, non-empty,
     * and free of '.' and whitespace. */
    std::string name;

    std::uint64_t sizeBytes = 0;
    unsigned ways = 0;

    /** One unit per core (true) or a single shared unit (false). */
    bool isPrivate = true;

    /**
     * Address-interleaved banking of a shared level: the line address
     * selects one of @c slices independent units (low line-address
     * bits), each sized sizeBytes/slices. 1 keeps the monolithic
     * shared array; private levels must stay at 1.
     */
    unsigned slices = 1;

    /**
     * Coherence-lite (shared levels only): keep a sharer word per
     * way of the level as its directory and write-invalidate other
     * cores' private copies on demand writes. Requires the level to
     * resolve inclusive so the directory stays a superset of the
     * private levels above it.
     */
    bool coherent = false;

    /** Back-invalidate upper levels on eviction; Inherit maps the
     * last level to SystemConfig::inclusiveL3 and others to Off. */
    Tri inclusive = Tri::Inherit;

    /** Controller registry key; "" inherits the system policy
     * (level 0 always resolves to "baseline"). */
    std::string policy;

    /** Topology CLI key ("way"/"set"/"htree"/"ring"); "" inherits. */
    std::string topology;

    /** Replacement CLI key ("lru"/"rrip"/"random"); "" inherits. */
    std::string repl;

    /** Randomized sublevel victim choice (Section 7). */
    Tri randomVictim = Tri::Inherit;

    /** Energy/latency source: "l1" (uniform, from TechParams
     * l1AccessPj + this latency), "l2", "l3", or "" for the
     * positional default (first="l1", last="l3", middle="l2"). */
    std::string energy;

    /** Baseline latency for "l1"-style uniform energy blocks. */
    Cycles latency = 4;

    std::array<unsigned, kNumSublevels> sublevelWays{4, 4, 8};
    unsigned waysPerRow = 4;

    /**
     * Per-level RNG stream derivation: unit seed =
     * system seed * seedMul + seedAdd (+ core index for private
     * levels). 0/0 selects the positional default, which reproduces
     * the classic per-level streams (101/151/31+7).
     */
    std::uint64_t seedMul = 0;
    std::uint64_t seedAdd = 0;
};

/** The whole hierarchy, innermost level first. */
struct HierarchySpec
{
    std::vector<LevelSpec> levels;

    bool empty() const { return levels.empty(); }

    /**
     * Canonical cache-key fragment. An empty spec serializes as the
     * classic() spec, so legacy configs, programmatic specs, and
     * scenario files describing the same hierarchy share keys.
     */
    std::string key() const;

    /**
     * Structural validation (config-independent): level count, name
     * hygiene, power-of-two sizes/ways, sublevel partitions, level-0
     * constraints. Returns "" when valid, else a message naming the
     * offending level.
     */
    std::string validate() const;

    /** The paper's Table 1 three-level hierarchy, knobs inherited. */
    static HierarchySpec classic();
};

bool operator==(const LevelSpec &a, const LevelSpec &b);
bool operator==(const HierarchySpec &a, const HierarchySpec &b);

/** System-wide knobs a spec's inherit markers resolve against. */
struct HierarchyDefaults
{
    std::string policy;        ///< policyCliName(cfg.policy)
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    ReplKind repl = ReplKind::Lru;
    bool randomVictim = false;
    bool inclusiveLast = false;  ///< cfg.inclusiveL3
    const TechParams *tech = nullptr;
};

/** A LevelSpec with every inherit marker resolved. */
struct ResolvedLevel
{
    std::string name;
    std::uint64_t sizeBytes = 0;
    unsigned ways = 0;
    bool shared = false;
    unsigned slices = 1;
    bool coherent = false;
    bool inclusive = false;
    std::string policy;        ///< controller registry key
    TopologyKind topology = TopologyKind::HierBusWayInterleaved;
    ReplKind repl = ReplKind::Lru;
    bool randomVictim = false;
    LevelEnergyParams energy;
    std::array<unsigned, kNumSublevels> sublevelWays{4, 4, 8};
    unsigned waysPerRow = 4;
    std::uint64_t seedMul = 0;
    std::uint64_t seedAdd = 0;
};

/**
 * Resolve @p spec (or classic() when empty) against @p defs.
 * On error returns an empty vector and sets @p err.
 */
std::vector<ResolvedLevel>
resolveHierarchy(const HierarchySpec &spec, const HierarchyDefaults &defs,
                 std::string *err);

} // namespace slip

#endif // SLIP_SIM_HIERARCHY_HH
