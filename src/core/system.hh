/**
 * @file
 * System — the ReMAP chip: clusters of cores, optionally sharing an
 * SPL fabric, over a MESI memory hierarchy, with the chip-wide
 * barrier unit and SPL configuration store. This is the public façade
 * a user of the library drives: create a system, register SPL
 * functions, create and map threads, run to completion, read stats.
 *
 * @code
 *   sys::SystemConfig cfg = sys::SystemConfig::splCluster();
 *   sys::System system(cfg);
 *   ConfigId min_cfg =
 *       system.registerFunction(spl::functions::globalMin());
 *   auto &t0 = system.createThread(&producer_prog);
 *   auto &t1 = system.createThread(&consumer_prog);
 *   system.mapThread(t0.id, 0);
 *   system.mapThread(t1.id, 1);
 *   sys::RunResult r = system.run();
 * @endcode
 */

#ifndef REMAP_CORE_SYSTEM_HH
#define REMAP_CORE_SYSTEM_HH

#include <deque>
#include <memory>
#include <ostream>
#include <vector>

#include "cpu/core.hh"
#include "cpu/thread.hh"
#include "mem/mem_system.hh"
#include "mem/memory_image.hh"
#include "power/energy.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "spl/fabric.hh"

namespace remap::sys
{

/** Configuration of one cluster of cores. */
struct ClusterConfig
{
    cpu::CoreParams coreType = cpu::CoreParams::ooo1();
    unsigned numCores = 4;
    bool hasSpl = true;
    spl::SplParams splParams{};
    /** Spatial partitions of the cluster fabric (1, 2 or 4). */
    unsigned splPartitions = 1;
    /**
     * When true, this cluster's fabric models the paper's *idealized,
     * zero-hardware-cost* dedicated communication network (the
     * OOO2+Comm baseline): its energy is excluded from
     * measureEnergy() and its latency parameters should be set via
     * spl::SplParams idealized values.
     */
    bool fabricIsIdealComm = false;
};

/** Whole-chip configuration. */
struct SystemConfig
{
    std::vector<ClusterConfig> clusters;
    mem::MemSystemParams memParams{};
    ClockParams clocks{};
    /** Context-switch cost of a thread migration (Section V-A). */
    Cycle migrationSwitchCycles = 500;

    /** One SPL cluster: 4 OOO1 cores + 24-row fabric. */
    static SystemConfig splCluster(unsigned partitions = 1);
    /** @p n SPL clusters (for multi-cluster barrier studies). */
    static SystemConfig splClusters(unsigned n,
                                    unsigned partitions = 1);
    /** One cluster of @p n OOO2 cores, no fabric (OOO2+Comm base). */
    static SystemConfig ooo2Cluster(unsigned n = 4);
    /** @p n OOO2 cores plus an idealized dedicated communication
     *  network (modelled as a zero-cost 1-core-cycle queue fabric):
     *  the paper's OOO2+Comm configuration. */
    static SystemConfig ooo2Comm(unsigned n = 4);
    /** One cluster of @p n OOO1 cores, no fabric (SW baselines). */
    static SystemConfig ooo1Cluster(unsigned n = 1);
};

/** Outcome of a run() call. */
struct RunResult
{
    /** Core cycles elapsed during this run. */
    Cycle cycles = 0;
    /** True when the run hit the cycle limit before quiescing. */
    bool timedOut = false;
};

/** The simulated ReMAP chip. */
class System
{
  public:
    explicit System(const SystemConfig &config);

    /** Functional memory shared by every core. */
    mem::MemoryImage &memory() { return image_; }
    /** Timing memory hierarchy. */
    mem::MemSystem &memSystem() { return *mem_; }

    /** Register an SPL function chip-wide; @return its config id. */
    ConfigId registerFunction(spl::SplFunction fn);
    /** Declare barrier @p id with @p total participants. */
    void declareBarrier(std::uint32_t id, unsigned total);

    /** Create a thread running @p prog (thread ids are dense). */
    cpu::ThreadContext &createThread(const isa::Program *prog);
    /** Place thread @p tid on global core @p core. */
    void mapThread(ThreadId tid, CoreId core);

    /**
     * Schedule thread @p tid to migrate to @p to_core at cycle
     * @p at. The migration drains the source pipeline, honours the
     * SPL switch-out blocking rule (a thread with in-flight fabric
     * results keeps executing until they drain, Section II-B.1),
     * then pays SystemConfig::migrationSwitchCycles before the
     * thread resumes on the destination core.
     */
    void scheduleMigration(ThreadId tid, CoreId to_core, Cycle at);

    /** Completed migrations (for tests/stats). */
    StatCounter migrationsCompleted;

    /**
     * Run until every core is done and all fabrics/barriers quiesce,
     * or @p max_cycles elapse (then RunResult::timedOut is set).
     */
    RunResult run(Cycle max_cycles = 2'000'000'000ULL);

    /**
     * Run for at most @p max_cycles without warning when the limit is
     * hit (RunResult::timedOut then simply means "segment boundary
     * reached, work remains"). Segmented execution is cycle- and
     * statistics-identical to one continuous run(): the loop carries
     * no state across iterations that is not already part of the
     * System (the per-core activity cache is re-derived at entry, and
     * skipped idle cycles are strict no-ops). Snapshot/warm-start
     * support builds on this.
     */
    RunResult runSegment(Cycle max_cycles);

    /** The argument type of setSampleParams(). */
    struct NoSampling
    {
    };
    /** A no-op: every run is exact. It exists only because
     *  perfbench/traced.cc still calls it, and goes when that file is
     *  rewritten (ROADMAP item 3). */
    void setSampleParams(NoSampling) {}

    /** Number of cores on the chip. */
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    /** Number of clusters. */
    unsigned numClusters() const
    {
        return static_cast<unsigned>(clusterOfFirstCore_.size());
    }
    /** Number of SPL fabrics. */
    unsigned numFabrics() const
    {
        return static_cast<unsigned>(fabrics_.size());
    }

    /** Core accessor. */
    cpu::OooCore &core(CoreId id) { return *cores_.at(id); }
    /** Instructions committed across every core (throughput
     *  reporting; restored counters keep their full history). */
    std::uint64_t totalCommittedInsts() const
    {
        std::uint64_t total = 0;
        for (const auto &c : cores_)
            total += c->committedInsts.value();
        return total;
    }
    /** Fabric accessor (dense fabric index). */
    spl::SplFabric &fabric(unsigned idx) { return *fabrics_.at(idx); }
    /** Thread accessor. */
    cpu::ThreadContext &thread(ThreadId tid)
    {
        return threads_.at(tid);
    }
    /** The chip-wide barrier unit. */
    spl::BarrierUnit &barrierUnit() { return barrierUnit_; }

    /** True when @p core uses the OOO2 parameter set. */
    bool isOoo2(CoreId core) const;
    /** Fabric serving @p core, or nullptr. */
    spl::SplFabric *fabricOf(CoreId core)
    {
        return coreFabric_.at(core);
    }

    /** Current simulated cycle. */
    Cycle now() const { return cycle_; }

    /** Total energy over @p cycles: mapped cores (by their type),
     *  their caches, plus every fabric. Unmapped cores contribute
     *  idle leakage when @p include_idle_cores. */
    power::Energy measureEnergy(const power::EnergyModel &model,
                                Cycle cycles,
                                bool include_idle_cores = true);

    /** Dump all component stats. */
    void dumpStats(std::ostream &os);
    /** Reset all component stats (start of a measured region). */
    void resetStats();

    /**
     * Dump every component's stats as a single JSON object (one
     * sub-object per StatGroup under "groups", plus chip-level
     * fields). The same counters as dumpStats(), machine-readable.
     *
     * When @p include_sim is true (the default) a top-level "sim"
     * object carries simulator telemetry — fast-path meta-stats
     * (block cache, MRU way prediction, per-core sleep savings),
     * and registered meta hooks (e.g. the SnapshotCache).
     * Differential comparisons of *simulated* behaviour pass false:
     * the "sim" subtree describes how the simulator ran, and is the
     * only part of the dump allowed to differ across fast-path kill
     * switches.
     */
    void dumpStatsJson(std::ostream &os, bool include_sim = true);

    /**
     * Start structured tracing into @p path (Chrome trace-event JSON,
     * viewable in Perfetto or chrome://tracing), written verbatim.
     * Also enabled automatically at construction when REMAP_TRACE is
     * set in the environment; that path is made unique per System
     * instance (trace::uniqueTracePath) so concurrently-running
     * instances never share a file.
     *
     * @param sample_period when non-zero, snapshot selected counters
     *        into counter events every @p sample_period simulated
     *        cycles (REMAP_TRACE_PERIOD overrides the default 10000
     *        for environment-enabled tracing).
     * @return false (tracing stays off) if the file cannot be opened.
     *
     * Tracing is pure observation: simulated cycles, statistics and
     * energy are bit-identical with tracing on or off.
     */
    bool enableTracing(const std::string &path,
                       Cycle sample_period = 0);

    /** Finish and close the trace file (safe when not tracing). */
    void disableTracing();

    /** The active tracer, or nullptr when tracing is off. */
    trace::Tracer *tracer() { return tracer_.get(); }

    /**
     * Hash of everything that determines this system's execution up
     * to any cycle: the snapshot format version, the full
     * SystemConfig, every registered SPL function and every thread's
     * program. Two systems with equal configHash() produce
     * bit-identical runs, so a snapshot is valid for a restore target
     * iff the hashes match (SnapshotCache keys on this).
     */
    std::uint64_t configHash() const;

    /**
     * Serialize all dynamic state (threads, cores, memory image,
     * memory hierarchy, fabrics, barrier unit, pending migrations,
     * current cycle). Structure is NOT serialized: the restore target
     * must be built from the same config/workload factory (verified
     * via configHash()).
     */
    void save(snap::Serializer &s) const;

    /**
     * Restore state saved by save() into a structurally identical,
     * drained system (freshly constructed by the same factory).
     * Thread-to-core bindings are re-established to match the
     * snapshot before per-core state is restored. On any failure the
     * deserializer's fail flag is set and the system must be
     * discarded (state may be partially applied).
     */
    void restore(snap::Deserializer &d);

  private:
    SystemConfig config_;
    mem::MemoryImage image_;
    std::unique_ptr<mem::MemSystem> mem_;
    spl::ConfigStore configs_;
    spl::SplParams barrierParams_{};
    spl::BarrierUnit barrierUnit_;
    std::vector<std::unique_ptr<cpu::OooCore>> cores_;
    std::vector<std::unique_ptr<spl::SplFabric>> fabrics_;
    std::vector<spl::SplFabric *> coreFabric_; ///< per-core, nullable
    std::vector<bool> fabricIsIdeal_;          ///< per-fabric flag
    std::vector<unsigned> coreSlot_;           ///< local slot in fabric
    std::vector<bool> coreIsOoo2_;
    std::vector<CoreId> clusterOfFirstCore_;
    std::deque<cpu::ThreadContext> threads_;
    Cycle cycle_ = 0;

    /**
     * Quiescence dirty-flags (see DESIGN.md): per-core done-ness is
     * cached so run() re-evaluates OooCore::done() only for cores
     * that ticked this cycle, instead of scanning the whole chip.
     * A core's activity can only change inside its own tick() or via
     * the System-mediated mapThread()/unbindThread() paths, all of
     * which refresh the cache through noteCoreActivity().
     */
    std::vector<char> coreDone_;
    unsigned activeCores_ = 0;
    void noteCoreActivity(CoreId core);

    /**
     * Per-core sleep (DESIGN.md §10.2), live only inside
     * runInternal(): a core whose tick only waited skips its ticks
     * until coreWake_[i] (0 = awake) or until its wakeCount() differs
     * from coreSleptOn_[i], and the skipped ticks are accounted
     * lazily — coreSleptThrough_[i] is the last cycle already
     * accounted. Every core is awake again when runInternal()
     * returns.
     */
    enum SleepCause : std::uint8_t
    {
        SelfTimed, ///< quiet tick that read only the core itself
        Fabric,    ///< quiet tick that waited on the fabric port
        kNumSleepCauses,
    };
    std::vector<Cycle> coreWake_;
    std::vector<Cycle> coreSleptThrough_;
    std::vector<std::uint64_t> coreSleptOn_;
    std::vector<SleepCause> coreSleepCause_;
    unsigned sleepingCores_ = 0;
    /** Put core @p i to sleep after its tick at cycle_. */
    void sleepCore(std::size_t i, SleepCause cause, Cycle wake);
    /** Account sleeping core @p i's skipped ticks through cycle
     *  @p through; with @p wake, also wake it. */
    void catchUpSleeper(std::size_t i, Cycle through, bool wake);
    /** catchUpSleeper() for every sleeping core. */
    void catchUpSleepers(Cycle through, bool wake);
    /** Wake core @p i, if asleep, before a migration changes it: its
     *  skipped tick at cycle_ is accounted, so it ticks again at
     *  cycle_ + 1, as in the per-cycle loop. */
    void wakeCore(std::size_t i);

    /** Thread -> current core (invalidCore when unmapped), so
     *  migration wake-ups resolve the source core in O(1). */
    std::vector<CoreId> threadCore_;

    struct Migration
    {
        ThreadId tid;
        CoreId from = invalidCore;
        CoreId to;
        Cycle at;
        enum class State
        {
            Waiting,
            Draining,
            Switching,
        } state = State::Waiting;
        Cycle resumeAt = 0;
        /** @{ @name Trace-only bookkeeping (never affects timing). */
        std::uint64_t flowId = 0;
        Cycle drainStart = 0;
        /** @} */
    };
    /** Advance every pending migration by one cycle. */
    void processMigrations();
    /** True while another migration of @p m's thread is draining or
     *  switching: @p m waits until that one completes. */
    bool threadInFlight(const Migration &m) const;
    std::vector<Migration> migrations_;

    /** Register the sampled counters for the periodic sampler. */
    void registerSamplers();

    RunResult runInternal(Cycle max_cycles, bool warn_on_timeout);

    /** Per-core sleep enabled (cleared by REMAP_NO_LEAP=1 for the
     *  per-cycle differential reference; see DESIGN.md §10). */
    bool sleepEnabled_ = true;

    std::unique_ptr<trace::Tracer> tracer_;

    /** @{ @name Sleep telemetry (meta-stats: never serialized,
     * reported in the stats "sim" subtree only). Times a core fell
     * asleep, and core ticks skipped asleep, per SleepCause. */
    StatCounter sleeps_[kNumSleepCauses];
    StatCounter sleepSkippedCycles_[kNumSleepCauses];
    /** @} */

    trace::CounterSampler sampler_;
    Cycle samplePeriod_ = 0;
    /** Next cycle to sample at; ~0 (never) while tracing is off, so
     *  the run loop pays one predictable compare per cycle. */
    Cycle nextSample_ = ~Cycle(0);
    std::uint64_t nextFlowId_ = 1;
};

} // namespace remap::sys

#endif // REMAP_CORE_SYSTEM_HH
