/** @file The decoded-block-cache / memory-fast-path / threaded-
 *  dispatch headline guarantee, enforced end-to-end: a run with the
 *  fast paths enabled (the default) is bit-identical — cycles, every
 *  statistics counter, energy, the full serialized snapshot and the
 *  trace byte stream — to both the switch-dispatch fused loop
 *  (REMAP_NO_THREADED=1) and the reference interpretation loop
 *  (REMAP_NO_THREADED=1 REMAP_NO_BLOCK_CACHE=1 REMAP_NO_MRU=1), for
 *  every region any fig8-fig14 driver simulates. The job enumeration
 *  is shared with the leap and snapshot differential suites
 *  (region_jobs.hh), so all three proofs cover the same regions. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/snapshot_cache.hh"
#include "region_jobs.hh"
#include "sim/snapshot.hh"

namespace remap
{
namespace
{

using harness::RegionJob;
using harness::SnapshotCache;
using workloads::RunSpec;
using workloads::Variant;

/** Everything a run determines, captured for exact comparison. */
struct Probe
{
    Cycle cycles = 0;
    bool timedOut = false;
    double work = 0.0;
    double energyJ = 0.0;
    std::string statsJson;
    std::vector<std::uint8_t> snapshot;
    std::string traceBytes; ///< empty when tracing was off
};

/** Which execution-engine kill switches a probe runs under. All are
 *  read at component construction (sim/env.hh). */
enum class Paths
{
    Full,       ///< the default: threaded dispatch + all fast paths
    NoThreaded, ///< switch-dispatch fused loop, fast paths on
    Reference,  ///< one-instruction interpretation loop, nothing on
};

/** Build and run @p spec under @p paths, then capture every
 *  observable the run produced. */
Probe
runProbe(const workloads::WorkloadInfo &info, const RunSpec &spec,
         Paths paths, const char *trace_path = nullptr,
         Cycle trace_period = 0)
{
    if (paths != Paths::Full) {
        EXPECT_EQ(setenv("REMAP_NO_THREADED", "1", 1), 0);
    }
    if (paths == Paths::Reference) {
        EXPECT_EQ(setenv("REMAP_NO_BLOCK_CACHE", "1", 1), 0);
        EXPECT_EQ(setenv("REMAP_NO_MRU", "1", 1), 0);
    }
    workloads::PreparedRun r = info.make(spec);
    if (paths != Paths::Full) {
        EXPECT_EQ(unsetenv("REMAP_NO_THREADED"), 0);
    }
    if (paths == Paths::Reference) {
        EXPECT_EQ(unsetenv("REMAP_NO_BLOCK_CACHE"), 0);
        EXPECT_EQ(unsetenv("REMAP_NO_MRU"), 0);
    }

    if (trace_path) {
        EXPECT_TRUE(r.system->enableTracing(trace_path, trace_period));
    }

    const sys::RunResult res = r.run();
    if (r.verify) {
        EXPECT_TRUE(r.verify()) << "golden mismatch: " << r.name;
    }

    Probe p;
    p.cycles = res.cycles;
    p.timedOut = res.timedOut;
    p.work = r.workUnits;
    power::EnergyModel model;
    p.energyJ = r.system->measureEnergy(model, res.cycles).totalJ();
    std::ostringstream os;
    r.system->dumpStatsJson(os, /*include_sim=*/false);
    p.statsJson = os.str();
    snap::Serializer s;
    r.system->save(s);
    p.snapshot = s.buffer();
    if (trace_path) {
        r.system->disableTracing();
        std::ifstream in(trace_path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        p.traceBytes = buf.str();
        std::remove(trace_path);
    }
    return p;
}

void
expectIdentical(const Probe &fast, const Probe &ref)
{
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.timedOut, ref.timedOut);
    EXPECT_EQ(fast.work, ref.work);
    EXPECT_EQ(fast.energyJ, ref.energyJ);
    EXPECT_EQ(fast.statsJson, ref.statsJson);
    EXPECT_EQ(fast.snapshot, ref.snapshot);
    EXPECT_EQ(fast.traceBytes, ref.traceBytes);
}

/** Jobs already verified in this process (region sets overlap
 *  heavily between figures; each unique job is proven once). */
std::set<std::string> &
covered()
{
    static std::set<std::string> keys;
    return keys;
}

void
fastPathDiffJobs(const std::vector<RegionJob> &jobs)
{
    for (const RegionJob &job : jobs) {
        const std::string key = SnapshotCache::makeKey(
            job.info->name, job.spec, /*config_hash=*/0);
        if (!covered().insert(key).second)
            continue;
        SCOPED_TRACE(key);
        const Probe with_fast =
            runProbe(*job.info, job.spec, Paths::Full);
        const Probe no_threaded =
            runProbe(*job.info, job.spec, Paths::NoThreaded);
        const Probe reference =
            runProbe(*job.info, job.spec, Paths::Reference);
        expectIdentical(with_fast, no_threaded);
        expectIdentical(with_fast, reference);
    }
}

TEST(FastPathDifferential, SmokeSweep)
{
    // The canonical tiny smoke set: a quick fast-path check that
    // fails before the full figure sweeps below are reached.
    fastPathDiffJobs(testjobs::smokeSweepJobs());
}

TEST(FastPathDifferential, Fig8To11VariantSets)
{
    fastPathDiffJobs(testjobs::fig8To11Jobs());
}

TEST(FastPathDifferential, Fig12BarrierSweeps)
{
    fastPathDiffJobs(testjobs::fig12Jobs());
}

TEST(FastPathDifferential, Fig13BarrierCompSweeps)
{
    fastPathDiffJobs(testjobs::fig13Jobs());
}

TEST(FastPathDifferential, Fig14EdSweeps)
{
    // fig14's regions are fig12's (ED is derived data); the dedup
    // set makes this pass nearly free while documenting coverage.
    fastPathDiffJobs(testjobs::fig12Jobs());
}

TEST(FastPathDifferential, TracedRunsAreByteIdentical)
{
    // A tracer forces fetch back onto the generic one-instruction
    // path (the spl stall-span bookkeeping lives there), so a traced
    // fast-path run must be byte-identical to a traced reference run
    // — including the stall spans and counter samples.
    const auto &info = workloads::byName("ll3");
    RunSpec spec;
    spec.variant = Variant::HwBarrierComp;
    spec.problemSize = 128;
    spec.threads = 8;

    const Probe with_fast = runProbe(
        info, spec, Paths::Full, "/tmp/remap_fpdiff_a.json", 500);
    const Probe no_threaded = runProbe(
        info, spec, Paths::NoThreaded, "/tmp/remap_fpdiff_b.json",
        500);
    const Probe reference = runProbe(
        info, spec, Paths::Reference, "/tmp/remap_fpdiff_c.json",
        500);
    ASSERT_FALSE(with_fast.traceBytes.empty());
    expectIdentical(with_fast, no_threaded);
    expectIdentical(with_fast, reference);
}

TEST(FastPathDifferential, WarmStartedRunsAreBitIdentical)
{
    // Snapshots carry no derived fast-path state (decoded tables,
    // readiness memos, MRU ways are rebuilt on restore), so a
    // fast-path warm start must land on exactly the reference
    // trajectory: fast cold == fast warm == slow cold.
    auto &cache = SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    cache.setFirstBoundary(2048);

    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 64;
    spec.threads = 8;

    const auto cold = harness::runRegion(info, spec, model);
    const auto warm = harness::runRegion(info, spec, model);
    ASSERT_TRUE(warm.warmStarted);

    cache.setEnabled(false);
    ASSERT_EQ(setenv("REMAP_NO_THREADED", "1", 1), 0);
    ASSERT_EQ(setenv("REMAP_NO_BLOCK_CACHE", "1", 1), 0);
    ASSERT_EQ(setenv("REMAP_NO_MRU", "1", 1), 0);
    const auto reference = harness::runRegion(info, spec, model);
    ASSERT_EQ(unsetenv("REMAP_NO_THREADED"), 0);
    ASSERT_EQ(unsetenv("REMAP_NO_BLOCK_CACHE"), 0);
    ASSERT_EQ(unsetenv("REMAP_NO_MRU"), 0);

    EXPECT_EQ(cold.cycles, reference.cycles);
    EXPECT_EQ(cold.energyJ, reference.energyJ);
    EXPECT_EQ(warm.cycles, reference.cycles);
    EXPECT_EQ(warm.energyJ, reference.energyJ);
    EXPECT_EQ(warm.work, reference.work);

    cache.clear();
    cache.setFirstBoundary(16384);
}

} // namespace
} // namespace remap
