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
    /** A power of two with 2 + bit_width(assoc - 1) <= log2(lineBytes):
     *  a tag line keeps the MESI state and the way's recency age in
     *  the low bits a line-aligned address frees (64-byte lines allow
     *  up to 16 ways). */
    unsigned lineBytes = 64;
    /** Access latency in core cycles (hit time). */
    Cycle latency = 2;
};

/** Tag/state store for one cache. */
class Cache
{
  public:
    /**
     * One cache line's bookkeeping in one 64-bit word: the line
     * address (addr & ~(lineBytes - 1)) | recency age << 2 | MESI
     * state. The age is the way's rank in its set, 0 for the most
     * recently used; the ages of a set's ways are always a
     * permutation of 0..assoc-1, invalid ways included.
     */
    class Line
    {
      public:
        Mesi state() const { return static_cast<Mesi>(word_ & stateMask); }
        void
        setState(Mesi s)
        {
            word_ = (word_ & ~stateMask) | static_cast<std::uint64_t>(s);
        }

      private:
        friend class Cache;
        static constexpr std::uint64_t stateMask = 3;
        static constexpr unsigned ageShift = 2;
        std::uint64_t word_ = 0;
    };
    static_assert(sizeof(Line) == 8, "a tag line is 8 bytes");

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
     *         Makes the line the most recent on hit.
     */
    Line *lookup(Addr addr);

    /** Const lookup with no LRU update (for snoops and tests). */
    const Line *probe(Addr addr) const;

    /**
     * Replicate @p n consecutive pure hits on @p addr: make the line
     * the most recent, as n lookup() calls would, and credit n hits.
     * The line must be resident — callers use this to bulk-account
     * re-probes of a line a prior access just hit.
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

    /** Serialize valid lines (sparse) and the stats. Canonical: each
     *  valid line carries its rank among the valid ways of its set,
     *  and invalid lines are not written, so two caches with
     *  identical resident contents and recency order serialize
     *  identically regardless of stale bookkeeping left in invalid
     *  ways. */
    void save(snap::Serializer &s) const;
    /** Restore into a cache of identical geometry. Each set's valid
     *  ways take ages 0.. in saved rank order and its invalid ways
     *  the older ages in way order. Lines out of tag-store order, a
     *  saved tag that is not line-aligned (its low bits would alias
     *  the packed age and state), an Invalid state, a rank >= assoc
     *  or a rank repeated within a set fail the stream. */
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
    /** First way of @p addr's set in the set-major tag store. */
    std::size_t
    setBase(Addr addr) const
    {
        return ((addr >> lineShift_) & setMask_) * params_.assoc;
    }
    /** Make every way invalid, each set's ways aged in way order. */
    void clearWays();
    /** The way of @p set holding @p addr's line validly, or assoc. */
    unsigned findWay(const Line *set, Addr addr) const;
    /** Make @p way the most recent of @p set: every younger way ages
     *  by one. */
    void touch(Line *set, unsigned way);

    CacheParams params_;
    unsigned lineShift_;  ///< log2(lineBytes)
    Addr lineMask_;       ///< lineBytes - 1
    std::uint64_t setMask_; ///< number of sets - 1 (a power of two)
    std::uint64_t ageMask_; ///< age field of a tag line, in place
    std::vector<Line> lines_;  ///< (setMask_ + 1) * assoc, set-major
    StatGroup statGroup_;
};

} // namespace remap::mem

#endif // REMAP_MEM_CACHE_HH
