/** @file Concurrency tests for the SnapshotCache: many JobPool
 *  workers hammering lookup/store/reject on shared and disjoint
 *  keys, concurrent disk publication, and parallel region batches
 *  stored and served from final-result entries matching serial
 *  results bit for bit. Run under ThreadSanitizer by the CI
 *  thread-sanitizer job (the pool is forced to multiple workers, so
 *  the races exist even on a single-core host). */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>

#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "sim/snapshot.hh"

namespace remap
{
namespace
{

using harness::JobPool;
using harness::SnapshotCache;

struct CacheGuard
{
    CacheGuard()
    {
        auto &c = SnapshotCache::instance();
        c.setEnabled(true);
        c.clear();
    }
    ~CacheGuard()
    {
        auto &c = SnapshotCache::instance();
        c.setDiskDir("");
        c.setEnabled(true);
        c.clear();
    }
};

std::vector<std::uint8_t>
headeredBlob(std::uint64_t hash, Cycle boundary)
{
    snap::Serializer s;
    snap::writeHeader(s, hash, boundary);
    for (int i = 0; i < 256; ++i)
        s.u8(static_cast<std::uint8_t>(i));
    return s.take();
}

TEST(SnapshotCacheParallel, ConcurrentStoresKeepLargestBoundary)
{
    CacheGuard guard;
    auto &cache = SnapshotCache::instance();
    JobPool pool(8); // forced >1 worker regardless of host cores

    std::vector<std::function<void()>> jobs;
    for (unsigned i = 1; i <= 64; ++i)
        jobs.push_back([&cache, i] {
            const Cycle boundary = Cycle(1) << (i % 16);
            cache.store("shared", 7, boundary,
                        headeredBlob(7, boundary));
            Cycle got = 0;
            if (auto blob = cache.lookup("shared", 7, &got)) {
                // Whatever we see must be a complete blob with a
                // boundary no smaller than some store's.
                EXPECT_GE(blob->size(), 28u);
                EXPECT_GE(got, 1u);
            }
        });
    pool.run(std::move(jobs));

    Cycle final_boundary = 0;
    auto blob = cache.lookup("shared", 7, &final_boundary);
    ASSERT_TRUE(blob);
    // Largest boundary any job stored: 2^15.
    EXPECT_EQ(final_boundary, Cycle(1) << 15);
}

TEST(SnapshotCacheParallel, DisjointKeysDontInterfere)
{
    CacheGuard guard;
    auto &cache = SnapshotCache::instance();
    JobPool pool(8);

    std::atomic<unsigned> hits{0};
    std::vector<std::function<void()>> jobs;
    for (unsigned i = 0; i < 128; ++i)
        jobs.push_back([&cache, &hits, i] {
            const std::string key = "k" + std::to_string(i % 16);
            const std::uint64_t hash = i % 16;
            cache.store(key, hash, 4096, headeredBlob(hash, 4096));
            Cycle boundary = 0;
            if (cache.lookup(key, hash, &boundary))
                hits.fetch_add(1, std::memory_order_relaxed);
            if (i % 32 == 0)
                cache.reject(key);
        });
    pool.run(std::move(jobs));
    EXPECT_GT(hits.load(), 0u);
    // Every surviving entry must still be intact.
    for (unsigned k = 0; k < 16; ++k) {
        Cycle boundary = 0;
        const std::string key = "k" + std::to_string(k);
        if (auto blob = cache.lookup(key, k, &boundary)) {
            EXPECT_EQ(boundary, 4096u);
            EXPECT_EQ(*blob, headeredBlob(k, 4096));
        }
    }
}

TEST(SnapshotCacheParallel, ConcurrentDiskStoresPublishAtomically)
{
    CacheGuard guard;
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "remap_ckpt_par_test";
    fs::remove_all(dir);

    auto &cache = SnapshotCache::instance();
    cache.setDiskDir(dir.string());
    const auto rejected_before = cache.stats().rejected;
    JobPool pool(8);

    std::vector<std::function<void()>> jobs;
    for (unsigned i = 0; i < 64; ++i)
        jobs.push_back([&cache, i] {
            const Cycle boundary = 1024 * (1 + i % 8);
            cache.store("diskkey", 5, boundary,
                        headeredBlob(5, boundary));
        });
    pool.run(std::move(jobs));

    // Whatever file won the renames must parse and carry a boundary
    // one of the writers produced; a torn write would fail the
    // header check.
    cache.clear();
    Cycle boundary = 0;
    auto blob = cache.lookup("diskkey", 5, &boundary);
    ASSERT_TRUE(blob);
    EXPECT_GE(boundary, 1024u);
    EXPECT_LE(boundary, 8u * 1024u);
    // Stats are cumulative across the process; a torn or stale file
    // would have bumped the rejection counter during this test.
    EXPECT_EQ(cache.stats().rejected, rejected_before);

    fs::remove_all(dir);
}

TEST(SnapshotCacheParallel, ServedParallelBatchMatchesSerial)
{
    CacheGuard guard;
    auto &cache = SnapshotCache::instance();

    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {32u, 64u}) {
        for (auto [v, p] : {std::pair<workloads::Variant, unsigned>{
                                workloads::Variant::Seq, 1},
                            {workloads::Variant::HwBarrier, 8}}) {
            workloads::RunSpec spec;
            spec.variant = v;
            spec.problemSize = size;
            spec.threads = p;
            jobs.push_back(harness::RegionJob{&info, spec});
        }
    }

    // Serial pass with the cache off: the simulated reference.
    cache.setEnabled(false);
    JobPool serial(1);
    const auto ref = harness::runRegions(jobs, model, &serial);
    cache.setEnabled(true);

    // Parallel passes: the first stores every result concurrently,
    // the second is served concurrently from those entries.
    JobPool parallel(4);
    const auto stored = harness::runRegions(jobs, model, &parallel);
    const auto served = harness::runRegions(jobs, model, &parallel);
    ASSERT_EQ(ref.size(), stored.size());
    ASSERT_EQ(ref.size(), served.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        for (const auto *r : {&stored[i], &served[i]}) {
            EXPECT_EQ(ref[i].cycles, r->cycles) << "job " << i;
            EXPECT_EQ(ref[i].insts, r->insts) << "job " << i;
            EXPECT_EQ(ref[i].energyJ, r->energyJ) << "job " << i;
            EXPECT_EQ(ref[i].work, r->work) << "job " << i;
        }
        EXPECT_FALSE(stored[i].warmStarted) << "job " << i;
        EXPECT_TRUE(served[i].warmStarted) << "job " << i;
    }
}

} // namespace
} // namespace remap
