/**
 * @file
 * Generic set-associative tag array with true-LRU replacement, shared by
 * the L1 instruction cache (64 B lines), L1 data cache (32 B lines), the
 * unified L2 (128 B lines), the directory data caches of the
 * conventional machine models, and — with one set — the fully
 * associative bypass buffers of SMTp.
 */

#ifndef SMTP_CACHE_CACHE_ARRAY_HPP
#define SMTP_CACHE_CACHE_ARRAY_HPP

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "snap/snap.hpp"

namespace smtp
{

/** Line permission state; L1s only use Inv/Sh/Mod (writable == Mod). */
enum class LineState : std::uint8_t
{
    Inv,
    Sh,   ///< Read-only.
    Ex,   ///< Writable, memory up to date (eager-exclusive grant).
    Mod,  ///< Writable and dirty.
};

constexpr bool
writable(LineState s)
{
    return s == LineState::Ex || s == LineState::Mod;
}

struct CacheLine
{
    Addr addr = invalidAddr;        ///< Line-aligned address.
    LineState state = LineState::Inv;
    bool protocolLine = false;      ///< Belongs to the protocol thread.
    std::uint64_t lruStamp = 0;

    bool valid() const { return state != LineState::Inv; }
};

class CacheArray
{
  public:
    CacheArray(std::size_t size_bytes, unsigned line_bytes, unsigned ways)
        : lineBytes_(line_bytes), ways_(ways),
          sets_(static_cast<unsigned>(size_bytes / line_bytes / ways)),
          lines_(static_cast<std::size_t>(sets_) * ways)
    {
        SMTP_ASSERT(isPow2(line_bytes) && isPow2(sets_),
                    "cache geometry must be power of two");
    }

    unsigned lineBytes() const { return lineBytes_; }
    unsigned numSets() const { return sets_; }
    unsigned numWays() const { return ways_; }

    Addr
    align(Addr a) const
    {
        return a & ~static_cast<Addr>(lineBytes_ - 1);
    }

    unsigned
    setIndexOf(Addr a) const
    {
        return static_cast<unsigned>((a / lineBytes_) & (sets_ - 1));
    }

    /** Find the valid line holding @p a; nullptr on miss. No LRU touch. */
    CacheLine *
    find(Addr a)
    {
        Addr la = align(a);
        CacheLine *base = &lines_[static_cast<std::size_t>(setIndexOf(a)) *
                                  ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].addr == la)
                return &base[w];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr a) const
    {
        return const_cast<CacheArray *>(this)->find(a);
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine *line) { line->lruStamp = ++stamp_; }

    /**
     * Pick the victim frame for a fill of @p a: an invalid way if one
     * exists, else the LRU line of the set. Caller handles eviction of
     * the returned line if it is valid.
     */
    CacheLine *
    victimFor(Addr a)
    {
        CacheLine *base = &lines_[static_cast<std::size_t>(setIndexOf(a)) *
                                  ways_];
        CacheLine *victim = &base[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid())
                return &base[w];
            if (base[w].lruStamp < victim->lruStamp)
                victim = &base[w];
        }
        return victim;
    }

    /** Iterate all valid lines (tests, invariant checkers). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &line : lines_) {
            if (line.valid())
                fn(line);
        }
    }

    /** Number of valid application (non-protocol) lines in @p a's set. */
    unsigned
    validAppLinesInSet(Addr a) const
    {
        const CacheLine *base =
            &lines_[static_cast<std::size_t>(setIndexOf(a)) * ways_];
        unsigned n = 0;
        for (unsigned w = 0; w < ways_; ++w)
            n += base[w].valid() && !base[w].protocolLine;
        return n;
    }

    void
    invalidateAll()
    {
        for (auto &line : lines_)
            line = CacheLine{};
    }

    template <class Ar>
    void
    io(Ar &ar)
    {
        ar.u64(stamp_);
        ar.fixed(lines_,
                 "cache geometry mismatch (config hash should have "
                 "caught this)",
                 [](Ar &a, CacheLine &l) {
                     a.u64(l.addr);
                     a.u8(l.state, LineState::Mod,
                          "corrupt snapshot: cache line state out of "
                          "range");
                     a.b(l.protocolLine);
                     a.u64(l.lruStamp);
                 });
    }

  private:
    unsigned lineBytes_;
    unsigned ways_;
    unsigned sets_;
    std::vector<CacheLine> lines_;
    std::uint64_t stamp_ = 0;
};

} // namespace smtp

#endif // SMTP_CACHE_CACHE_ARRAY_HPP
