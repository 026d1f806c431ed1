/**
 * @file
 * Host-time profiling by sampling: each thread keeps a "current
 * phase" byte that the simulator's major stages set, and a per-thread
 * CPU-time timer counts one sample for whichever phase is current
 * when it fires.
 *
 * Design constraints (DESIGN.md §12.1):
 *  - Pure observation: the sampler reads the phase byte only, never
 *    simulator state, so simulated cycles, statistics and energy are
 *    bit-identical with profiling on or off (enforced per region by
 *    tests/test_region_diff.cc).
 *  - Exclusive attribution: a PhaseScope replaces the current phase
 *    and restores the one it displaced, so a sample belongs to exactly
 *    one phase and the phases of a run add up to its CPU time.
 *  - Cheap both ways: a phase change is a byte store with no clock
 *    read; with profiling on, the only extra work is one signal per
 *    sample period of CPU time.
 */

#ifndef REMAP_SIM_PROFILE_HH
#define REMAP_SIM_PROFILE_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace remap::json
{
class Writer;
}

namespace remap::prof
{

/** The attributed simulation phases. Exactly one is current on a
 *  thread at any time. */
enum class Phase : std::uint8_t
{
    Other,           ///< job time outside every named phase
    FetchDecode,     ///< core fetch and decode
    IssueExecute,    ///< core issue + dispatch
    WritebackCommit, ///< core commit + writeback
    CacheAccess,     ///< MemSystem::access (timed hierarchy)
    FabricTick,      ///< SPL fabric ticks in the run loop
    Barrier,         ///< BarrierUnit arrivals/releases
    SleepCatchUp,    ///< accounting sleeping cores' skipped ticks
};

/** Number of Phase values. */
inline constexpr unsigned kNumPhases = 8;

/** Host CPU nanoseconds one sample stands for. */
inline constexpr long kSamplePeriodNs = 1'000'000;
/** The same period in milliseconds (reports). */
inline constexpr double kSampleMs = kSamplePeriodNs / 1e6;

/** Per-phase sample counts, indexed by Phase. */
using Samples = std::array<std::uint64_t, kNumPhases>;

/** Stable lower_snake name of @p p (JSON keys). */
const char *phaseName(Phase p);

/** True when REMAP_PROFILE=1 (env::profile(), cached after the
 *  first call). */
bool envEnabled();

namespace detail
{
/** The calling thread's current phase (read by the sample handler,
 *  hence atomic: a relaxed byte store, never elided). */
inline constinit thread_local std::atomic<Phase> currentPhase{
    Phase::Other};
} // namespace detail

/** The calling thread's current phase. */
inline Phase
currentPhase()
{
    return detail::currentPhase.load(std::memory_order_relaxed);
}

/**
 * RAII phase: makes @p p the calling thread's current phase and
 * restores the displaced one on exit, so a nested scope takes its
 * time away from the enclosing one instead of sharing it.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase p) : saved_(currentPhase()) { set(p); }
    ~PhaseScope() { set(saved_); }
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

    /** Move this scope on to phase @p p (stage boundaries). */
    void
    set(Phase p)
    {
        detail::currentPhase.store(p, std::memory_order_relaxed);
    }

  private:
    Phase saved_;
};

/**
 * RAII sampler for the calling thread: while alive, a
 * CLOCK_THREAD_CPUTIME_ID timer (timer_create + SIGEV_THREAD_ID, a
 * real-time signal, not SIGPROF, which gprof builds use) fires every
 * kSamplePeriodNs of this thread's CPU time, and its handler counts
 * one sample (plus timer overruns) for the current phase. On
 * destruction the samples are added to the process totals.
 *
 * A sampler constructed while another is alive on the same thread
 * shares the outer one's timer: it reports its own scope's samples,
 * and only the outermost one adds to the process totals.
 */
class ThreadSampler
{
  public:
    ThreadSampler();
    ~ThreadSampler();
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    /** True while a sampling timer is armed on the calling thread. */
    static bool armed();

    /** Samples counted on this thread since construction. */
    Samples samples() const;

  private:
    Samples start_;
    bool owner_ = false;
};

/** Samples of every finished outermost ThreadSampler so far. */
Samples processSamples();

/**
 * Emit @p s as one JSON object with a sub-object per phase:
 * {"samples", "ms", "fraction"}, the fraction of all samples (0 when
 * there are none). The caller has already emitted the key.
 */
void dumpSamplesJson(json::Writer &w, const Samples &s);

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
