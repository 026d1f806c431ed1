/**
 * @file
 * Run-manifest schema 2 round-trip: what writeRunManifest emits for a
 * pooled smoke sweep re-parses with json::Value and has the pool,
 * snapshot_cache, host_phases and per-job shapes that remap-stats and
 * the figure scripts read.
 *
 * main() turns host-phase profiling on before anything reads it, so
 * the host_phases section is always present here.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/manifest.hh"
#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "power/energy.hh"
#include "region_jobs.hh"
#include "sim/json_value.hh"

namespace
{

using namespace remap;

TEST(ManifestTest, Schema2RoundTripsThroughJsonValue)
{
    // Make sure the snapshot-cache hook exists before the dump.
    harness::SnapshotCache::instance();

    const power::EnergyModel model;
    harness::JobPool pool(2);
    const std::vector<harness::RegionJob> jobs =
        testjobs::smokeSweepJobs();
    std::vector<harness::JobTiming> timings;
    const std::vector<harness::RegionResult> results =
        harness::runRegions(jobs, model, &pool, &timings);

    const std::string path =
        ::testing::TempDir() + "remap_manifest_roundtrip.json";
    const std::string written = harness::writeRunManifest(
        jobs, results, timings, pool.workers(), path, &pool);
    ASSERT_EQ(written, path);

    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(buf.str(), root, &error)) << error;

    EXPECT_EQ(root.at("schema_version").num, 2);
    ASSERT_TRUE(root.at("host").isObject());
    EXPECT_TRUE(
        root.at("host").at("hardware_concurrency").isNumber());
    EXPECT_EQ(root.at("host").at("pool_workers").num, 2);

    ASSERT_TRUE(root.has("pool"));
    for (const char *k :
         {"jobs_executed", "steals", "max_queue_depth"})
        EXPECT_TRUE(root.at("pool").at(k).isNumber()) << k;

    ASSERT_TRUE(root.has("snapshot_cache"));
    for (const char *k : {"hits", "misses"})
        EXPECT_TRUE(root.at("snapshot_cache").at(k).isNumber()) << k;

    // REMAP_PROFILE=1 is set by this binary's main(), so host-phase
    // attribution must be present.
    ASSERT_TRUE(root.has("host_phases"));
    EXPECT_TRUE(root.at("host_phases").isObject());

    ASSERT_TRUE(root.at("jobs").isArray());
    ASSERT_EQ(root.at("jobs").arr.size(), jobs.size());
    const json::Value &j0 = root.at("jobs").arr[0];
    EXPECT_TRUE(j0.at("workload").isString());
    EXPECT_TRUE(j0.at("variant").isString());
    ASSERT_TRUE(j0.at("spec").isObject());
    for (const char *k :
         {"problem_size", "threads", "copies", "iterations"})
        EXPECT_TRUE(j0.at("spec").at(k).isNumber()) << k;
    ASSERT_TRUE(j0.at("result").isObject());
    EXPECT_TRUE(j0.at("result").at("cycles").isNumber());
    EXPECT_TRUE(j0.at("result").at("config_hash").isString());
    EXPECT_TRUE(j0.has("wall_ms"));
    EXPECT_TRUE(j0.has("worker"));

    std::remove(path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Host-phase profiling is read once per process, so it must be on
    // before the first simulation. Profiling is pure observation
    // (test_profile proves runs stay bit-identical).
    setenv("REMAP_PROFILE", "1", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
