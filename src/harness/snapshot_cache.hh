/**
 * @file
 * SnapshotCache — the in-process, content-addressed store behind
 * region runs.
 *
 * The same (workload, spec) simulation recurs within one process:
 * perfbench's per-figure batches (Figs. 8-11 share one region set,
 * Fig. 14 repeats Fig. 12's sweeps) and tests that run a region
 * twice. Every entry is a blob behind a snap::writeHeader() container
 * header. runRegion() keeps one entry per run, "<key>/result": the
 * verified RegionResult of a run, which serves a repeat without
 * simulating.
 * Nothing in the simulator writes any other entry; the "<key>"
 * warm-start snapshots perfbench's traced path stores at
 * firstBoundary(), 2x, 4x, ... cycles use the same lookup()/store().
 *
 * Keys are workload name + the full RunSpec + System::configHash()
 * (which covers every simulated parameter: core/mem/SPL
 * configuration, registered SPL functions and thread programs), so
 * an entry is never applied to a changed configuration. Entries live
 * in memory only and die with the process, so they never meet
 * another build of the simulator.
 *
 * Resident bytes are capped at defaultMemoryCapBytes (LRU eviction).
 *
 * Thread-safe: lookups/stores take an internal mutex, and concurrent
 * stores to one key keep the largest boundary (single-writer-per-key
 * effect).
 */

#ifndef REMAP_HARNESS_SNAPSHOT_CACHE_HH
#define REMAP_HARNESS_SNAPSHOT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "workloads/workload.hh"

namespace remap::json
{
class Writer;
}

namespace remap::harness
{

/** Process-wide store of run results and simulator state, keyed per
 *  run. */
class SnapshotCache
{
  public:
    /** A complete snapshot blob (container header + payload). */
    using Blob = std::shared_ptr<const std::vector<std::uint8_t>>;

    /** Hit/miss and size accounting (monotonic over the process). */
    struct Stats
    {
        std::uint64_t hits = 0;      ///< lookups served
        std::uint64_t misses = 0;    ///< lookups with nothing stored
        std::uint64_t stores = 0;    ///< entries stored
        std::uint64_t rejected = 0;  ///< unusable blobs discarded
        std::uint64_t evictions = 0; ///< entries dropped by the cap
        std::size_t bytes = 0;       ///< resident in-memory bytes
        std::size_t entries = 0;     ///< resident in-memory entries
    };

    /** Default cap on resident in-memory bytes (256 MB; a result
     *  entry is ~150 bytes). */
    static constexpr std::size_t defaultMemoryCapBytes =
        std::size_t(256) * 1024 * 1024;

    /** The process-wide instance. */
    static SnapshotCache &instance();

    /** Globally enable/disable the cache (tests and cold baselines).
     *  Disabled means lookup() always misses and store() drops. */
    void setEnabled(bool on);
    bool enabled() const;

    /** First warm-start snapshot boundary in cycles (later
     *  boundaries double); read only by perfbench's traced path. */
    static constexpr Cycle firstBoundary() { return 16384; }

    /** Cap on resident in-memory snapshot bytes (LRU eviction). */
    void setMemoryCapBytes(std::size_t cap);

    /** Drop every entry. */
    void clear();

    /** Cache key for one region run. Embeds the config-hash, so any
     *  change to the simulated configuration is a different key. */
    static std::string makeKey(const std::string &workload,
                               const workloads::RunSpec &spec,
                               std::uint64_t config_hash);

    /**
     * Fetch the largest-boundary blob stored for @p key, or null on
     * a miss. @p boundary_out receives the blob's boundary cycle on
     * a hit. The caller parses the payload (checking its header
     * against @p config_hash) and reject()s a blob it cannot use.
     */
    Blob lookup(const std::string &key, std::uint64_t config_hash,
                Cycle *boundary_out);

    /**
     * Record a blob of @p key taken at @p boundary. A smaller or
     * equal boundary already stored for the key wins nothing and is
     * kept (concurrent writers race benignly: the largest boundary
     * survives). The blob must start with a snap::writeHeader()
     * container header.
     */
    void store(const std::string &key, std::uint64_t config_hash,
               Cycle boundary, std::vector<std::uint8_t> blob);

    /** Mark a looked-up blob as unusable (restore failed): drops the
     *  entry and counts a rejection, so it cannot be handed out
     *  twice. */
    void reject(const std::string &key);

    /** Current accounting. */
    Stats stats() const;

    /** One-line human-readable summary ("3 hits, 2 misses, ..."). */
    std::string summary() const;

    /** Emit the Stats fields as one JSON object value (the caller
     *  has already emitted the key). Also registered as a meta-JSON
     *  hook under "snapshot_cache", so System::dumpStatsJson's "sim"
     *  subtree reports the cache without a core→harness dependency. */
    void dumpStatsJson(json::Writer &w) const;

  private:
    SnapshotCache();

    struct Entry
    {
        Cycle boundary = 0;
        Blob blob;
        std::uint64_t lastUse = 0;
    };

    /** Evict least-recently-used entries until under the cap.
     *  Caller holds mu_. */
    void evictLocked();

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> entries_;
    std::size_t bytes_ = 0;
    std::size_t capBytes_ = defaultMemoryCapBytes;
    std::uint64_t useClock_ = 0;
    bool enabled_ = true;
    Stats stats_;
};

/** Print the cache summary via REMAP_INFORM when the cache saw any
 *  traffic this process (drivers call this before exiting). */
void printSnapshotCacheSummary();

} // namespace remap::harness

#endif // REMAP_HARNESS_SNAPSHOT_CACHE_HH
