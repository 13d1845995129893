/**
 * @file
 * Replacement policies that select a victim from an arbitrary subset of
 * ways (a SLIP chunk, a NuRAPID d-group, an LRU-PEA bankcluster).
 *
 * SLIP is orthogonal to replacement (Section 3.1): the underlying policy
 * only answers "which line in this way mask should be displaced?". The
 * evaluation uses LRU; an RRIP-family policy (Section 7's DRRIP
 * adaptation) and a random policy are provided as well.
 *
 * A policy keeps no per-line state of its own. Each way has one 64-bit
 * replacement word, stored by the cache level beside its tags: the LRU
 * stamp or the RRIP rrpv (unused by random replacement). The level
 * prefers invalid ways itself, so victim() only ranks valid ways.
 */

#ifndef SLIP_CACHE_REPLACEMENT_HH
#define SLIP_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <string>

#include "util/random.hh"

namespace slip {

/** Which replacement family a cache level uses. */
enum class ReplKind {
    Lru,     ///< exact least-recently-used (the paper's evaluation)
    Rrip,    ///< SRRIP-style re-reference interval prediction (§7)
    Random,  ///< random victim (sanity baseline)
};

/** Canonical CLI/scenario key ("lru", "rrip", "random"). */
const char *replCliName(ReplKind kind);

/** Parse a CLI/scenario replacement key; false on unknown names. */
bool parseReplKind(const std::string &v, ReplKind &out);

/**
 * Victim selection over a way mask, on per-way replacement words.
 *
 * LRU: the word is a stamp from a per-level clock, so stamps of valid
 * lines are unique. RRIP: the word is the rrpv; insertion is SRRIP
 * with a bimodal (BRRIP-style) component, i.e. the static-dueling
 * simplification of DRRIP, and victim search and aging are confined
 * to the candidate mask, which is exactly the §7 per-sublevel-metadata
 * adaptation. Random: uniform over the mask.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(ReplKind kind, std::uint64_t seed)
        : _kind(kind), _rng(seed)
    {}

    ReplKind kind() const { return _kind; }

    /** A line was referenced. */
    void
    onHit(std::uint64_t &word)
    {
        if (_kind == ReplKind::Lru)
            word = ++_clock;
        else if (_kind == ReplKind::Rrip)
            word = 0;
    }

    /** A line was (re)inserted or moved into a way. */
    void
    onInsert(std::uint64_t &word)
    {
        if (_kind == ReplKind::Lru) {
            word = ++_clock;
        } else if (_kind == ReplKind::Rrip) {
            // Mostly "long" re-reference interval; occasionally
            // "distant" for thrash resistance.
            word = _rng.oneIn(kBimodalOneIn) ? kMaxRrpv : kMaxRrpv - 1;
        }
    }

    /**
     * Choose a victim among the ways set in @p way_mask, which must be
     * nonzero and name only valid ways.
     *
     * @param words the set's replacement words (RRIP ages them)
     * @param ways  associativity (at most 32)
     */
    unsigned victim(std::uint64_t *words, unsigned ways,
                    std::uint32_t way_mask);

    /**
     * The least-recent way of @p way_mask by stamp, as a branch-free
     * masked minimum over (stamp, 31 - way) keys: on equal stamps the
     * highest way wins. Stamps must stay below 2^59.
     */
    static unsigned
    lruVictim(const std::uint64_t *words, unsigned ways,
              std::uint32_t way_mask)
    {
        std::uint64_t best = ~std::uint64_t{0};
        for (unsigned w = 0; w < ways; ++w) {
            const std::uint64_t key = (words[w] << 5) | (31 - w);
            const std::uint64_t cand =
                ((way_mask >> w) & 1) ? key : ~std::uint64_t{0};
            best = cand < best ? cand : best;
        }
        return 31 - static_cast<unsigned>(best & 31);
    }

  private:
    static constexpr std::uint64_t kMaxRrpv = 3;  ///< 2 b rrpv: distant
    static constexpr std::uint64_t kBimodalOneIn = 32;

    ReplKind _kind;
    std::uint64_t _clock = 0;  ///< LRU stamp source
    Random _rng;
};

} // namespace slip

#endif // SLIP_CACHE_REPLACEMENT_HH
