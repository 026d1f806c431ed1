#include "harness/parallel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include <unistd.h>

#include "harness/manifest.hh"
#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"

namespace remap::harness
{

namespace
{

/** Set inside pool workers so nested run() calls degrade to serial
 *  execution instead of deadlocking on their own pool. */
thread_local bool in_pool_worker = false;

/** Run @p job on the calling thread and fill in @p timing; with
 *  REMAP_PROFILE=1 the job's CPU time is sampled by phase. */
void
runTimed(const std::function<void()> &job, JobTiming &timing,
         unsigned worker)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<prof::ThreadSampler> sampler;
    if (prof::envEnabled())
        sampler.emplace();
    job();
    if (sampler)
        timing.samples = sampler->samples();
    timing.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    timing.worker = worker;
}

} // namespace

struct JobPool::Impl
{
    struct Batch
    {
        std::vector<std::function<void()>> jobs;
        std::vector<JobTiming> timings;
        std::atomic<std::size_t> remaining{0};
        std::mutex doneMutex;
        std::condition_variable doneCv;
    };
    struct Task
    {
        Batch *batch = nullptr;
        std::size_t index = 0;
    };
    struct Worker
    {
        std::mutex mutex;
        std::deque<Task> deque;
    };

    explicit Impl(unsigned n) : workers(n) {}

    std::vector<Worker> workers;
    std::vector<std::thread> threads;
    std::mutex sleepMutex;
    std::condition_variable sleepCv;
    bool stop = false; // guarded by sleepMutex
    std::atomic<std::size_t> pendingTasks{0};
    std::atomic<std::uint64_t> jobsExecuted{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> maxQueueDepth{0};

    /** Raise the queue-depth high-water mark to at least @p depth. */
    void
    noteQueueDepth(std::uint64_t depth)
    {
        std::uint64_t prev =
            maxQueueDepth.load(std::memory_order_relaxed);
        while (prev < depth &&
               !maxQueueDepth.compare_exchange_weak(
                   prev, depth, std::memory_order_relaxed))
            ;
    }

    bool
    tryPop(unsigned self, Task &out)
    {
        Worker &w = workers[self];
        std::lock_guard<std::mutex> lk(w.mutex);
        if (w.deque.empty())
            return false;
        out = w.deque.back();
        w.deque.pop_back();
        return true;
    }

    bool
    trySteal(unsigned self, Task &out)
    {
        const unsigned n = static_cast<unsigned>(workers.size());
        for (unsigned k = 1; k < n; ++k) {
            Worker &victim = workers[(self + k) % n];
            std::lock_guard<std::mutex> lk(victim.mutex);
            if (victim.deque.empty())
                continue;
            out = victim.deque.front();
            victim.deque.pop_front();
            steals.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    void
    execute(const Task &t, unsigned self)
    {
        ScopedLogContext ctx("worker" + std::to_string(self) +
                             ".job" + std::to_string(t.index));
        runTimed(t.batch->jobs[t.index], t.batch->timings[t.index],
                 self);
        jobsExecuted.fetch_add(1, std::memory_order_relaxed);
        pendingTasks.fetch_sub(1, std::memory_order_release);
        if (t.batch->remaining.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lk(t.batch->doneMutex);
            t.batch->doneCv.notify_all();
        }
    }

    void
    workerLoop(unsigned self)
    {
        in_pool_worker = true;
        setLogContext("worker" + std::to_string(self));
        Task t;
        while (true) {
            if (tryPop(self, t) || trySteal(self, t)) {
                execute(t, self);
                continue;
            }
            std::unique_lock<std::mutex> lk(sleepMutex);
            sleepCv.wait(lk, [&] {
                return stop ||
                       pendingTasks.load(
                           std::memory_order_acquire) > 0;
            });
            if (stop &&
                pendingTasks.load(std::memory_order_acquire) == 0)
                return;
        }
    }
};

unsigned
JobPool::defaultWorkers()
{
    if (const std::uint64_t v = env::jobs())
        return static_cast<unsigned>(std::min<std::uint64_t>(v, 256));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

JobPool::JobPool(unsigned workers)
    : impl_(nullptr),
      numWorkers_(workers > 0 ? workers : defaultWorkers())
{
    // Say once which worker count won and why — a single-core host
    // that set REMAP_JOBS=8 should be able to see the override took
    // (and a silently-serial run should be explainable from the log).
    // Name every REMAP_* variable nothing reads in the same breath.
    static std::once_flag log_once;
    std::call_once(log_once, [this, workers] {
        const char *env = std::getenv("REMAP_JOBS");
        REMAP_INFORM(
            "job pool: %u worker%s (%s, hardware_concurrency=%u)",
            numWorkers_, numWorkers_ == 1 ? "" : "s",
            workers > 0       ? "explicit"
            : env             ? "REMAP_JOBS override"
                              : "hardware default",
            std::thread::hardware_concurrency());
        for (const std::string &name : env::unknownVariables(environ))
            REMAP_WARN("%s is set but unknown; ignoring it",
                       name.c_str());
    });
    impl_ = new Impl(numWorkers_);
    if (numWorkers_ > 1) {
        impl_->threads.reserve(numWorkers_);
        for (unsigned i = 0; i < numWorkers_; ++i)
            impl_->threads.emplace_back(
                [this, i] { impl_->workerLoop(i); });
    }
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lk(impl_->sleepMutex);
        impl_->stop = true;
    }
    impl_->sleepCv.notify_all();
    for (std::thread &t : impl_->threads)
        t.join();
    delete impl_;
}

std::uint64_t
JobPool::jobsExecuted() const
{
    return impl_->jobsExecuted.load(std::memory_order_relaxed);
}

std::uint64_t
JobPool::steals() const
{
    return impl_->steals.load(std::memory_order_relaxed);
}

std::uint64_t
JobPool::maxQueueDepth() const
{
    return impl_->maxQueueDepth.load(std::memory_order_relaxed);
}

JobPool &
JobPool::shared()
{
    static JobPool pool;
    return pool;
}

std::vector<JobTiming>
JobPool::run(std::vector<std::function<void()>> jobs)
{
    const std::size_t n = jobs.size();
    std::vector<JobTiming> timings(n);
    if (n == 0)
        return timings;

    if (numWorkers_ <= 1 || in_pool_worker) {
        // Serial path: REMAP_JOBS=1, or a nested submission from a
        // worker thread (waiting on our own pool would deadlock).
        impl_->noteQueueDepth(n);
        for (std::size_t i = 0; i < n; ++i) {
            ScopedLogContext ctx(
                logContext().empty()
                    ? "job" + std::to_string(i)
                    : logContext() + ".job" + std::to_string(i));
            runTimed(jobs[i], timings[i], 0);
        }
        impl_->jobsExecuted.fetch_add(n, std::memory_order_relaxed);
        return timings;
    }

    Impl::Batch batch;
    batch.jobs = std::move(jobs);
    batch.timings.resize(n);
    batch.remaining.store(n, std::memory_order_relaxed);

    // Scatter round-robin across the worker deques; stealing evens
    // out any imbalance from heterogeneous job lengths.
    for (std::size_t i = 0; i < n; ++i) {
        Impl::Worker &w = impl_->workers[i % numWorkers_];
        std::lock_guard<std::mutex> lk(w.mutex);
        w.deque.push_back(Impl::Task{&batch, i});
    }
    {
        std::lock_guard<std::mutex> lk(impl_->sleepMutex);
        const std::size_t prev = impl_->pendingTasks.fetch_add(
            n, std::memory_order_release);
        impl_->noteQueueDepth(prev + n);
    }
    impl_->sleepCv.notify_all();

    std::unique_lock<std::mutex> lk(batch.doneMutex);
    batch.doneCv.wait(lk, [&] {
        return batch.remaining.load(std::memory_order_acquire) == 0;
    });
    return batch.timings;
}

// ---------------------------------------------------------------- //
// Region batches
// ---------------------------------------------------------------- //

std::vector<RegionResult>
runRegions(const std::vector<RegionJob> &jobs,
           const power::EnergyModel &model, JobPool *pool,
           std::vector<JobTiming> *timings)
{
    JobPool &p = pool ? *pool : JobPool::shared();
    std::vector<RegionResult> results(jobs.size());
    std::vector<std::function<void()>> fns;
    fns.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        fns.push_back([&jobs, &results, &model, i] {
            results[i] = runRegion(*jobs[i].info, jobs[i].spec, model);
        });
    std::vector<JobTiming> t = p.run(std::move(fns));
    if (manifestsEnabled())
        writeRunManifest(jobs, results, t, p.workers(), "", &p);
    if (timings)
        *timings = std::move(t);
    return results;
}

} // namespace remap::harness
