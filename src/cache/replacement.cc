#include "cache/replacement.hh"

#include <bit>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace slip {

const char *
replCliName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Lru:
        return "lru";
      case ReplKind::Rrip:
        return "rrip";
      case ReplKind::Random:
        return "random";
    }
    return "?";
}

bool
parseReplKind(const std::string &v, ReplKind &out)
{
    if (v == "lru")
        out = ReplKind::Lru;
    else if (v == "rrip")
        out = ReplKind::Rrip;
    else if (v == "random")
        out = ReplKind::Random;
    else
        return false;
    return true;
}

unsigned
ReplacementPolicy::victim(std::uint64_t *words, unsigned ways,
                          std::uint32_t way_mask)
{
    slip_assert(way_mask != 0 && (ways == 32 || way_mask >> ways == 0),
                "victim mask 0x%x empty or wider than %u ways", way_mask,
                ways);
    switch (_kind) {
      case ReplKind::Lru:
        return lruVictim(words, ways, way_mask);
      case ReplKind::Rrip:
        // Search for a distant (rrpv == max) line; age the candidates
        // and retry until one appears. Aging is confined to the mask
        // so each sublevel keeps independent RRIP metadata (§7).
        for (;;) {
            for (std::uint32_t m = way_mask; m; m &= m - 1) {
                const int w = std::countr_zero(m);
                if (words[w] >= kMaxRrpv)
                    return static_cast<unsigned>(w);
            }
            for (std::uint32_t m = way_mask; m; m &= m - 1)
                ++words[std::countr_zero(m)];
        }
      case ReplKind::Random: {
        std::uint32_t m = way_mask;
        for (auto pick = _rng.below(popCount(way_mask)); pick; --pick)
            m &= m - 1;
        return static_cast<unsigned>(std::countr_zero(m));
      }
    }
    panic("unknown replacement kind");
}

} // namespace slip
