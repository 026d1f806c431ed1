/**
 * @file
 * MemSystem — the chip's timing memory hierarchy.
 *
 * Per core: an 8 kB 2-way L1I and L1D (2-cycle) backed by a 1 MB
 * private L2 (10-cycle), per Table II of the paper. The private L2s
 * snoop a shared MESI bus; misses go to a 100 ns main memory. The
 * hierarchy is inclusive: L2 evictions and snoop invalidations
 * back-invalidate the L1s.
 *
 * The model is latency-based with bus occupancy: each access computes
 * its completion cycle from hit level, coherence transitions and bus
 * availability (a busy-until register models serialization).
 */

#ifndef REMAP_MEM_MEM_SYSTEM_HH
#define REMAP_MEM_MEM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "mem/cache.hh"
#include "sim/profile.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace remap::mem
{

/** Kinds of timing accesses a core can issue. */
enum class AccessKind : std::uint8_t
{
    IFetch, ///< instruction fetch (L1I path)
    Read,   ///< data load
    Write,  ///< data store
    Amo,    ///< atomic read-modify-write (behaves as write for MESI)
};

/** Hierarchy-wide latency/geometry parameters (Table II defaults). */
struct MemSystemParams
{
    CacheParams l1i{"l1i", 8 * 1024, 2, 64, 2};
    CacheParams l1d{"l1d", 8 * 1024, 2, 64, 2};
    CacheParams l2{"l2", 1024 * 1024, 8, 64, 10};
    /** Main memory access time in core cycles (100 ns @ 2 GHz). */
    Cycle memLatency = 200;
    /** Bus occupancy per coherence transaction, in core cycles. */
    Cycle busOccupancy = 8;
    /** Cache-to-cache transfer latency in core cycles. */
    Cycle cacheToCacheLatency = 25;
};

/**
 * The full multi-core timing memory hierarchy.
 *
 * One instance serves every core on the chip. Thread-unsafe by design:
 * the simulation loop is single-threaded and interleaves cores
 * cycle-by-cycle.
 */
class MemSystem
{
  public:
    /**
     * @param num_cores number of cores (each gets L1I+L1D+L2)
     * @param params geometry/latency knobs
     */
    MemSystem(unsigned num_cores, const MemSystemParams &params = {});

    /**
     * Perform the timing side of one access.
     *
     * @param core requesting core
     * @param addr byte address (the whole access is attributed to the
     *             line containing @p addr)
     * @param kind fetch/read/write/amo
     * @param now cycle the request leaves the core
     * @return cycle at which the data is available to the core
     */
    Cycle
    access(CoreId core, Addr addr, AccessKind kind, Cycle now)
    {
        prof::PhaseScope phase(prof::Phase::CacheAccess);
        return accessTimed(core, addr, kind, now);
    }

    /** Invalidate all caches of @p core (thread migration). */
    void flushCore(CoreId core);

    /** Per-core caches, exposed for stats/power accounting. */
    Cache &l1i(CoreId core) { return *l1i_[core]; }
    Cache &l1d(CoreId core) { return *l1d_[core]; }
    Cache &l2(CoreId core) { return *l2_[core]; }

    /** L1I miss count for @p core — compared around an IFetch access
     *  to detect a pure hit (no state change beyond LRU/hit count). */
    std::uint64_t l1iMisses(CoreId core) const
    {
        return l1i_[core]->misses.value();
    }

    /** Bulk-replicate @p n pure L1I hits of @p core on @p addr (a
     *  sleeping core's stand-in for n per-cycle re-probes). */
    void accountRepeatedIFetchHits(CoreId core, Addr addr,
                                   std::uint64_t n)
    {
        l1i_[core]->accountRepeatedHits(addr, n);
    }
    unsigned numCores() const { return static_cast<unsigned>(
        l2_.size()); }

    /** @{ @name Global statistics. */
    StatCounter busTransactions;
    StatCounter memAccesses;
    StatCounter cacheToCacheTransfers;
    StatCounter upgrades;
    /** @} */

    /** Dump every cache's stats plus bus/memory counters. */
    void dumpStats(std::ostream &os);

    /** Emit the same stats into an open JSON object scope of @p w
     *  (one sub-object per StatGroup). */
    void dumpStatsJson(json::Writer &w);

    /** Reset all statistics (start of a measured region). */
    void resetStats();

    /** Serialize bus state, global counters and every cache. */
    void save(snap::Serializer &s) const;
    /** Restore into a hierarchy of identical geometry. */
    void restore(snap::Deserializer &d);

  private:
    /** The timing body of access() (split so the inline wrapper can
     *  bracket it with the CacheAccess scoped timer). */
    Cycle accessTimed(CoreId core, Addr addr, AccessKind kind,
                      Cycle now);

    /**
     * Obtain the line in @p core's L2 in a state sufficient for
     * @p kind, running the MESI bus transaction if needed.
     * @return cycle the L2 can supply the line.
     */
    Cycle fillL2(CoreId core, Addr addr, AccessKind kind, Cycle now);

    /** Acquire the snoop bus: returns grant cycle, bumps busy-until. */
    Cycle acquireBus(Cycle now);

    /** What snoopRemotes() found in the other cores' L2s. */
    struct SnoopResult
    {
        bool dirty = false;   ///< a remote Modified copy existed
        bool anyCopy = false; ///< any remote copy existed
    };

    /** Invalidate (@p exclusive) or downgrade every remote copy of
     *  @p addr in one walk over the other cores' caches. */
    SnoopResult snoopRemotes(CoreId requester, Addr addr,
                             bool exclusive);

    MemSystemParams params_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    Cycle busBusyUntil_ = 0;
    StatGroup statGroup_;
};

} // namespace remap::mem

#endif // REMAP_MEM_MEM_SYSTEM_HH
