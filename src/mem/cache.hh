/**
 * @file
 * A set-associative cache with per-line MESI state and LRU
 * replacement. Purely a tag/state store — data lives in the
 * MemoryImage — so the class models hit/miss behaviour, coherence
 * state transitions and victim selection.
 */

#ifndef REMAP_MEM_CACHE_HH
#define REMAP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace remap::mem
{

/** MESI coherence states. */
enum class Mesi : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Geometry and latency of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 8 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    /** Access latency in core cycles (hit time). */
    Cycle latency = 2;
};

/** Tag/state store for one cache. */
class Cache
{
  public:
    /**
     * One cache line's bookkeeping, packed into 16 bytes: the line
     * number (addr >> log2(lineBytes)) and the MESI state share one
     * 64-bit word, the state in the two low bits that line alignment
     * frees (so line numbers take 62 bits for any lineBytes >= 4).
     */
    class Line
    {
      public:
        Mesi state() const { return static_cast<Mesi>(state_); }
        void setState(Mesi s) { state_ = static_cast<std::uint8_t>(s); }

      private:
        friend class Cache;
        std::uint64_t state_ : 2 = 0;
        std::uint64_t lineNum_ : 62 = 0;
        std::uint64_t lruStamp_ = 0;
    };
    static_assert(sizeof(Line) == 16, "a tag line is 16 bytes");

    explicit Cache(const CacheParams &params);

    /** Hit time in core cycles. */
    Cycle latency() const { return params_.latency; }
    /** Line size in bytes. */
    unsigned lineBytes() const { return params_.lineBytes; }
    /** Line-aligned base address of @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~Addr(lineMask_); }

    /**
     * Find the line holding @p addr.
     * @return pointer into the tag store, or nullptr on miss.
     *         Updates LRU on hit.
     */
    Line *lookup(Addr addr);

    /** Const lookup with no LRU update (for snoops and tests). */
    const Line *probe(Addr addr) const;

    /**
     * Replicate @p n consecutive pure hits on @p addr: advance the
     * LRU clock and the line's stamp as n lookup() calls would and
     * credit n hits. The line must be resident — callers use this to
     * bulk-account re-probes of a line a prior access just hit.
     */
    void accountRepeatedHits(Addr addr, std::uint64_t n);

    /**
     * Allocate a line for @p addr, evicting LRU if needed.
     *
     * @param[out] victim_addr line address of the evicted line
     * @param[out] victim_state state the victim was in (Invalid when
     *             no victim was evicted)
     * @return the (re)allocated line, state set to Invalid; caller
     *         sets the new coherence state.
     */
    Line *allocate(Addr addr, Addr *victim_addr, Mesi *victim_state);

    /** Invalidate the line holding @p addr if present.
     *  @return the state it was in (Invalid if absent). */
    Mesi invalidate(Addr addr);

    /** Downgrade M/E to Shared if present; @return previous state. */
    Mesi downgradeToShared(Addr addr);

    /** Number of valid (non-Invalid) lines currently resident. */
    std::size_t residentLines() const;

    /** Stats group for reporting. */
    StatGroup &stats() { return statGroup_; }

    /** Serialize valid lines (sparse), the LRU clock and the stats.
     *  Canonical: invalid lines are not written, so two caches with
     *  identical resident contents serialize identically regardless
     *  of stale bookkeeping left in invalid ways. */
    void save(snap::Serializer &s) const;
    /** Restore into a cache of identical geometry; invalid lines are
     *  reset to the default-constructed state. A saved tag that is
     *  not line-aligned fails the stream (its low bits would alias
     *  the packed state). */
    void restore(snap::Deserializer &d);

    /** @{ @name Access statistics, maintained by the MemSystem. */
    StatCounter hits;
    StatCounter misses;
    StatCounter evictions;
    StatCounter writebacks;
    StatCounter snoopInvalidations;
    /** @} */

    /** Always 0: the MRU way prediction they counted is gone. They
     *  exist only because perfbench/traced.cc still reads them, and
     *  go when that file is rewritten (ROADMAP item 3). */
    StatCounter mruHits;
    StatCounter mruMisses;

  private:
    /** First way of @p line_num's set in the set-major tag store. */
    std::size_t setBase(std::uint64_t line_num) const
    {
        return (line_num & setMask_) * params_.assoc;
    }
    /** The resident way holding @p line_num, or nullptr. */
    const Line *find(std::uint64_t line_num) const;

    CacheParams params_;
    unsigned lineShift_;  ///< log2(lineBytes)
    Addr lineMask_;       ///< lineBytes - 1
    std::uint64_t setMask_; ///< number of sets - 1 (a power of two)
    std::vector<Line> lines_;  ///< (setMask_ + 1) * assoc, set-major
    std::uint64_t lruClock_ = 0;
    StatGroup statGroup_;
};

} // namespace remap::mem

#endif // REMAP_MEM_CACHE_HH
