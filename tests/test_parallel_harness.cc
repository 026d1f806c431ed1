/** @file Tests for the parallel experiment harness (JobPool,
 *  runRegions): determinism relative to the serial path, pool
 *  bookkeeping, and regression coverage for the
 *  fast-path System::run() loop (max_cycles/timedOut semantics,
 *  migration and barrier draining from the quiescent state). */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>

#include "core/system.hh"
#include "harness/experiment.hh"
#include "harness/paper.hh"
#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "isa/builder.hh"

namespace remap
{
namespace
{

using isa::ProgramBuilder;
using workloads::Variant;

void
expectSameResult(const harness::RegionResult &a,
                 const harness::RegionResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    // Bit-identical, not approximately equal: every job runs the
    // same deterministic simulation regardless of worker count.
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.work, b.work);
}

TEST(ParallelHarness, VariantSetMatchesSerialForCommunicating)
{
    // wc's Fig. 10 variant set plus its Section V-B software-queue
    // run, simulated (not served) on one worker and on four.
    std::vector<harness::RegionJob> jobs;
    for (const harness::RegionJob &job :
         harness::paperJobs({"fig10", "svb"}))
        if (job.info->name == "wc")
            jobs.push_back(job);
    ASSERT_EQ(jobs.size(), 7u);
    power::EnergyModel model;
    auto &cache = harness::SnapshotCache::instance();
    harness::JobPool serial(1);
    harness::JobPool parallel(4);
    cache.clear();
    const auto s = harness::runRegions(jobs, model, &serial);
    cache.clear();
    const auto p = harness::runRegions(jobs, model, &parallel);
    cache.clear();
    ASSERT_EQ(s.size(), jobs.size());
    ASSERT_EQ(p.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_FALSE(p[i].warmStarted);
        expectSameResult(s[i], p[i]);
    }
}

TEST(ParallelHarness, RegionBatchMatchesSerialForBarrierWorkload)
{
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {8u, 16u}) {
        for (auto [v, p] :
             {std::pair<Variant, unsigned>{Variant::Seq, 1},
              {Variant::SwBarrier, 8},
              {Variant::HwBarrier, 8}}) {
            workloads::RunSpec spec;
            spec.variant = v;
            spec.problemSize = size;
            spec.threads = p;
            jobs.push_back(harness::RegionJob{&info, spec});
        }
    }
    harness::JobPool serial(1);
    harness::JobPool parallel(4);
    const auto s = harness::runRegions(jobs, model, &serial);
    const auto p = harness::runRegions(jobs, model, &parallel);
    ASSERT_EQ(s.size(), jobs.size());
    ASSERT_EQ(p.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameResult(s[i], p[i]);
}

TEST(ParallelHarness, PoolRunsEveryJobAndReportsTimings)
{
    harness::JobPool pool(4);
    std::atomic<unsigned> hits{0};
    std::vector<std::function<void()>> jobs;
    for (unsigned i = 0; i < 100; ++i)
        jobs.push_back([&hits] {
            hits.fetch_add(1, std::memory_order_relaxed);
        });
    const auto timings = pool.run(std::move(jobs));
    EXPECT_EQ(hits.load(), 100u);
    ASSERT_EQ(timings.size(), 100u);
    for (const auto &t : timings) {
        EXPECT_GE(t.wallMs, 0.0);
        EXPECT_LT(t.worker, pool.workers());
    }
    EXPECT_EQ(pool.jobsExecuted(), 100u);
}

TEST(ParallelHarness, NestedRunDoesNotDeadlock)
{
    // A job that itself submits a batch (e.g. runRegions called
    // from inside a pooled job) must run the inner batch
    // inline instead of waiting on its own pool.
    harness::JobPool pool(2);
    std::atomic<unsigned> inner{0};
    std::vector<std::function<void()>> outer;
    for (unsigned i = 0; i < 4; ++i)
        outer.push_back([&pool, &inner] {
            std::vector<std::function<void()>> batch;
            for (unsigned j = 0; j < 8; ++j)
                batch.push_back([&inner] {
                    inner.fetch_add(1,
                                    std::memory_order_relaxed);
                });
            pool.run(std::move(batch));
        });
    pool.run(std::move(outer));
    EXPECT_EQ(inner.load(), 32u);
}

TEST(ParallelHarness, RemapJobsEnvOverridesWorkerCount)
{
    ASSERT_EQ(setenv("REMAP_JOBS", "3", 1), 0);
    EXPECT_EQ(harness::JobPool::defaultWorkers(), 3u);
    // The override must reach a default-constructed pool too —
    // notably on hosts where hardware_concurrency() reports 1, which
    // previously meant silent serialization regardless of REMAP_JOBS.
    {
        harness::JobPool pool(0);
        EXPECT_EQ(pool.workers(), 3u);
        std::atomic<unsigned> ran{0};
        std::vector<std::function<void()>> batch;
        for (unsigned i = 0; i < 9; ++i)
            batch.push_back([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        pool.run(std::move(batch));
        EXPECT_EQ(ran.load(), 9u);
    }
    ASSERT_EQ(setenv("REMAP_JOBS", "0", 1), 0);
    EXPECT_GE(harness::JobPool::defaultWorkers(), 1u);
    ASSERT_EQ(unsetenv("REMAP_JOBS"), 0);
    EXPECT_GE(harness::JobPool::defaultWorkers(), 1u);
}

TEST(FastPathRun, TimeoutHonoursMaxCyclesExactly)
{
    sys::System sys(sys::SystemConfig::ooo1Cluster(1));
    ProgramBuilder b("spin");
    b.label("loop").j("loop");
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    auto r = sys.run(5000);
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.cycles, 5000u);
}

TEST(FastPathRun, IdleFastForwardStillTimesOut)
{
    // All cores done, but a migration is scheduled far beyond the
    // cycle budget: the idle fast-forward must stop at the budget
    // and report a timeout with exactly max_cycles consumed, like
    // the plain cycle-by-cycle loop did.
    sys::System sys(sys::SystemConfig::ooo1Cluster(2));
    ProgramBuilder b("quick");
    b.li(1, 7).halt();
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 1, 1'000'000);
    auto r = sys.run(1000);
    EXPECT_TRUE(r.timedOut);
    EXPECT_EQ(r.cycles, 1000u);
}

TEST(FastPathRun, DrainsPendingMigrationAfterCoresHalt)
{
    // The thread halts long before the migration fires; the run
    // must not quiesce early — it has to fast-forward to the
    // migration, complete it, and only then return.
    sys::System sys(sys::SystemConfig::ooo1Cluster(2));
    ProgramBuilder b("quick");
    b.li(1, 7).li(2, 9).halt();
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 1, 50'000);
    auto r = sys.run(10'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
    EXPECT_GT(r.cycles, 50'000u);
    EXPECT_EQ(sys.core(0).thread(), nullptr);
}

TEST(FastPathRun, ReRunAfterQuiescenceIsStable)
{
    // Calling run() again on a quiesced system must terminate
    // immediately instead of spinning to the timeout.
    sys::System sys(sys::SystemConfig::ooo1Cluster(1));
    ProgramBuilder b("quick");
    b.li(1, 1).halt();
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    auto first = sys.run(1'000'000);
    ASSERT_FALSE(first.timedOut);
    auto second = sys.run(1'000'000);
    EXPECT_FALSE(second.timedOut);
    EXPECT_LE(second.cycles, 2u);
}

} // namespace
} // namespace remap
