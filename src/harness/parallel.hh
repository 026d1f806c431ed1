/**
 * @file
 * Parallel experiment harness: a work-stealing thread pool plus
 * runRegions(), which fans independent (workload, variant, spec)
 * simulations out across host cores.
 *
 * Every simulation submitted here is a self-contained System with no
 * shared mutable state (the workload registry is initialized once,
 * read-only afterwards; the RNG is per-instance), so running them
 * concurrently is safe and — because results are keyed by job index,
 * never by completion order — bit-identical to the serial path.
 *
 * Worker count comes from the REMAP_JOBS environment variable when
 * set (REMAP_JOBS=1 forces fully serial, in-caller execution; 0 means
 * the hardware default; anything but digits is a fatal error), else
 * std::thread::hardware_concurrency().
 */

#ifndef REMAP_HARNESS_PARALLEL_HH
#define REMAP_HARNESS_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "harness/experiment.hh"
#include "sim/profile.hh"

namespace remap::harness
{

/** Host-side wall-time accounting for one pool job. */
struct JobTiming
{
    double wallMs = 0.0; ///< host milliseconds the job ran for
    unsigned worker = 0; ///< index of the worker that executed it
    /** The job's host-time samples by phase (all zero unless
     *  REMAP_PROFILE=1). */
    prof::Samples samples{};
};

/**
 * A work-stealing thread pool for coarse-grained simulation jobs.
 *
 * Each worker owns a deque: it pushes/pops its own work at the back
 * and steals from the front of a victim's deque when empty. Batches
 * submitted via run() are scattered round-robin across the deques so
 * long jobs on one worker migrate to idle ones. run() blocks until
 * the whole batch finished and returns per-job wall-time stats in
 * submission order.
 */
class JobPool
{
  public:
    /** @param workers thread count; 0 means defaultWorkers(). */
    explicit JobPool(unsigned workers = 0);
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /**
     * Worker count implied by the environment: REMAP_JOBS when set
     * and nonzero (capped at 256; parsed strictly by env::jobs()),
     * else hardware_concurrency(), min 1.
     */
    static unsigned defaultWorkers();

    /** Workers in this pool (1 = serial in-caller execution). */
    unsigned workers() const { return numWorkers_; }

    /**
     * Execute @p jobs to completion. Timings are indexed exactly
     * like @p jobs regardless of which worker ran what. Safe to call
     * from a worker thread (the nested batch runs inline, serially).
     */
    std::vector<JobTiming> run(std::vector<std::function<void()>> jobs);

    /** Jobs executed over the pool's lifetime. */
    std::uint64_t jobsExecuted() const;
    /** Successful steals over the pool's lifetime. */
    std::uint64_t steals() const;
    /** High-water mark of queued-but-not-started tasks. */
    std::uint64_t maxQueueDepth() const;

    /** Lazily-created process-wide pool with defaultWorkers(). */
    static JobPool &shared();

  private:
    struct Impl;
    Impl *impl_;
    unsigned numWorkers_;
};

/** One independent region simulation: a workload plus its RunSpec. */
struct RegionJob
{
    const workloads::WorkloadInfo *info = nullptr;
    workloads::RunSpec spec{};
};

/**
 * Run every job through @p pool (shared() when null); results are in
 * job order. @p timings, when non-null, receives per-job host wall
 * times (same order).
 */
std::vector<RegionResult>
runRegions(const std::vector<RegionJob> &jobs,
           const power::EnergyModel &model, JobPool *pool = nullptr,
           std::vector<JobTiming> *timings = nullptr);

} // namespace remap::harness

#endif // REMAP_HARNESS_PARALLEL_HH
