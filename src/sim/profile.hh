/**
 * @file
 * Host-time profiling: RAII scoped timers that attribute wall-clock
 * nanoseconds to the simulator's major phases, aggregated into
 * per-phase log2 histograms with percentile accessors.
 *
 * Design constraints (mirroring the Tracer, DESIGN.md §12):
 *  - Pure observation: the profiler reads the host clock only, never
 *    simulator state, so simulated cycles, statistics and energy are
 *    bit-identical with profiling on or off (enforced by
 *    tests/test_profile.cc).
 *  - Near-zero cost when disabled: every instrumentation site guards
 *    on a raw `Profiler *` that is null unless REMAP_PROFILE=1
 *    (or System::enableProfiling() called), so the off path is one
 *    predictable branch — the same pattern the Tracer uses.
 *  - One Profiler per System: the parallel harness runs many Systems
 *    concurrently; each owns its own Profiler, so the per-tick record
 *    path needs no synchronization. Per-System profiles are merged
 *    into the process-wide aggregate (mutex-guarded, batch-scale)
 *    when a region run finishes.
 */

#ifndef REMAP_SIM_PROFILE_HH
#define REMAP_SIM_PROFILE_HH

#include <chrono>
#include <cstdint>

#include "sim/stats.hh"

namespace remap::prof
{

/** The instrumented simulation phases. Phases may nest: CacheAccess
 *  time is also inside the pipeline phase that issued the access, and
 *  Barrier time is inside FabricTick — each phase answers "where does
 *  host time go" for its own layer, they are not disjoint. */
enum class Phase : std::uint8_t
{
    FetchDecode,     ///< Core fetch (incl. fused-run stepping)
    IssueExecute,    ///< Core issue + dispatch walks
    WritebackCommit, ///< Core writeback + commit walks
    CacheAccess,     ///< MemSystem::access (timed hierarchy)
    FabricTick,      ///< SPL fabric ticks in the run loop
    Barrier,         ///< BarrierUnit arrivals/releases
    LeapScan,        ///< event-horizon computation in the run loop
    SnapshotSave,    ///< System::save
    SnapshotRestore, ///< System::restore
    JobDispatch,     ///< JobPool job bodies (whole region runs)
};

/** Number of Phase values. */
inline constexpr unsigned kNumPhases = 10;

/** Stable lower_snake name of @p p (JSON keys, trace series). */
const char *phaseName(Phase p);

/** True when REMAP_PROFILE=1 (env::profile(), cached after the
 *  first call; per-System enabling re-reads it so tests can toggle
 *  it between constructions). */
bool envEnabled();

/** Monotonic host clock reading in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Per-phase host-time aggregation: event count, total nanoseconds
 * (both StatCounters, so the CounterSampler can plot them as Chrome
 * trace counter tracks) and a log2 histogram of per-event durations
 * with p50/p95/p99 accessors.
 */
class Profiler
{
  public:
    /** Attribute @p ns nanoseconds to @p p. */
    void
    record(Phase p, std::uint64_t ns)
    {
        PhaseStats &ps = phases_[static_cast<unsigned>(p)];
        ++ps.count;
        ps.totalNs += ns;
        ps.hist.sample(ns);
    }

    /** Events recorded for @p p. */
    const StatCounter &
    count(Phase p) const
    {
        return phases_[static_cast<unsigned>(p)].count;
    }
    /** Total nanoseconds attributed to @p p (sampler-friendly). */
    const StatCounter &
    totalNs(Phase p) const
    {
        return phases_[static_cast<unsigned>(p)].totalNs;
    }
    /** Duration distribution of @p p. */
    const Log2Histogram &
    histogram(Phase p) const
    {
        return phases_[static_cast<unsigned>(p)].hist;
    }

    /** Total nanoseconds in @p p as milliseconds. */
    double
    totalMs(Phase p) const
    {
        return static_cast<double>(totalNs(p).value()) / 1e6;
    }

    /** Accumulate @p other into this profiler. */
    void merge(const Profiler &other);

    /** Discard everything. */
    void reset();

    /**
     * Emit as a JSON value: one sub-object per phase with recorded
     * events — {"count", "total_ns", "p50_ns", "p95_ns", "p99_ns",
     * "hist": {...}}. The caller has already emitted the key.
     */
    void dumpJson(json::Writer &w) const;

    /** One "phase count total_ms p50/p95/p99" line per active phase
     *  (human-readable summaries for bench drivers). */
    void dump(std::ostream &os) const;

  private:
    struct PhaseStats
    {
        StatCounter count;
        StatCounter totalNs;
        Log2Histogram hist;
    };
    PhaseStats phases_[kNumPhases];
};

/**
 * The process-wide aggregate profiler: per-System profiles are merged
 * in when region runs finish, and the JobPool records whole-job
 * dispatch spans directly. All access is mutex-guarded — callers are
 * batch-scale (per region run / per job), never per-tick.
 */
void mergeIntoProcess(const Profiler &p);
/** Record one span directly into the process aggregate. */
void recordProcess(Phase p, std::uint64_t ns);
/** Copy the current process aggregate (for reporting). */
Profiler processSnapshot();

/**
 * RAII span: records the scope's wall time into @p p under @p phase.
 * A null profiler makes construction and destruction a single
 * predictable branch each — the instrumentation sites stay in the
 * hot loops unconditionally.
 */
class ScopedTimer
{
  public:
    ScopedTimer(Profiler *p, Phase phase) : p_(p), phase_(phase)
    {
        if (p_)
            start_ = nowNs();
    }
    ~ScopedTimer()
    {
        if (p_)
            p_->record(phase_, nowNs() - start_);
    }
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Profiler *p_;
    Phase phase_;
    std::uint64_t start_ = 0;
};

/**
 * Meta-stats JSON hooks: process-wide singletons living above the
 * core layer (the harness SnapshotCache) register a dumper here so
 * System::dumpStatsJson can include their stats in the "sim" subtree
 * without a core-on-harness dependency. @p fn must emit exactly one
 * JSON value. Re-registering a key replaces the hook.
 */
void setMetaJsonHook(const char *key, void (*fn)(json::Writer &));

/** Emit `key: value` for every registered hook into an open JSON
 *  object scope of @p w. */
void dumpMetaHooks(json::Writer &w);

} // namespace remap::prof

#endif // REMAP_SIM_PROFILE_HH
