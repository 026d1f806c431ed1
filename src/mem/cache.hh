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
    /** One cache line's bookkeeping. */
    struct Line
    {
        Addr tag = 0;
        Mesi state = Mesi::Invalid;
        std::uint64_t lruStamp = 0;
    };

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

    /** Drop every line (used on thread migration / region reset). */
    void flushAll();

    /** Number of valid (non-Invalid) lines currently resident. */
    std::size_t residentLines() const;

    /** Stats group for reporting. */
    StatGroup &stats() { return statGroup_; }

    /** Fast-path telemetry group (MRU way prediction): reported in
     *  the stats "sim" subtree, never snapshot-serialized. */
    StatGroup &metaStats() { return metaGroup_; }

    /** Serialize valid lines (sparse), the LRU clock and the stats.
     *  Canonical: invalid lines are not written, so two caches with
     *  identical resident contents serialize identically regardless
     *  of stale bookkeeping left in invalid ways. */
    void save(snap::Serializer &s) const;
    /** Restore into a cache of identical geometry; invalid lines are
     *  reset to the default-constructed state. */
    void restore(snap::Deserializer &d);

    /** @{ @name Access statistics, maintained by the MemSystem. */
    StatCounter hits;
    StatCounter misses;
    StatCounter evictions;
    StatCounter writebacks;
    StatCounter snoopInvalidations;
    /** @} */

    /** @{ @name MRU way-prediction telemetry (meta-stats; hits on
     * walk-found lines count as mru_misses). Not serialized. */
    StatCounter mruHits;
    StatCounter mruMisses;
    /** @} */

  private:
    std::size_t setIndex(Addr addr) const;

    CacheParams params_;
    std::size_t numSets_;
    Addr lineMask_;
    std::vector<Line> lines_;  ///< numSets_ * assoc, set-major
    std::uint64_t lruClock_ = 0;
    /**
     * Per-set MRU way, the lookup() fast path: the predicted way is
     * verified by tag+state before use, so a stale prediction only
     * costs the full set walk it would have done anyway — never a
     * wrong result. Derived state: reset by flushAll()/restore(),
     * disabled entirely by REMAP_NO_MRU=1 (read at construction).
     */
    std::vector<std::uint8_t> mruWay_;
    bool mruEnabled_ = true;
    StatGroup statGroup_;
    StatGroup metaGroup_;
};

} // namespace remap::mem

#endif // REMAP_MEM_CACHE_HH
