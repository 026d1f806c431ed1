/** @file Every fast path's headline guarantee, in one harness: for
 *  each unique region any fig8-fig14 driver simulates, the default
 *  run is the reference, simulated once, and every alternative way
 *  of producing the same result must be bit-identical to it —
 *  cycles, every statistics counter, energy, work units and the full
 *  serialized snapshot:
 *
 *   - no-leap: the per-cycle loop (REMAP_NO_LEAP=1) instead of the
 *     event-horizon leap scheduler;
 *   - reference path: one-instruction fetch with the pristine cache
 *     way walk (REMAP_NO_BLOCK_CACHE=1 REMAP_NO_MRU=1);
 *   - cold-segmented: runRegion on an empty snapshot cache, which
 *     stops at doubling boundaries from cycle 2048 to capture;
 *   - warm-restored: runRegion again, resuming from the largest
 *     captured snapshot;
 *   - profiled (fig8-fig11 regions): REMAP_PROFILE=1.
 *
 *  One value-parameterized case per region lets `ctest -j` balance
 *  the load; fig14 simulates fig12's regions, so it needs no pass of
 *  its own. A few single-region cases cover what the region legs
 *  cannot: traced runs and snapshot interchange across kill-switch
 *  settings. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/snapshot_cache.hh"
#include "region_jobs.hh"
#include "sim/snapshot.hh"

namespace remap
{
namespace
{

using harness::RegionJob;
using harness::RegionResult;
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
    /** Per-copy energy and committed instructions exactly as
     *  runRegion() reports them, for the snapshot-cache legs. */
    double regionEnergyJ = 0.0;
    std::uint64_t insts = 0;
};

/** The execution paths a probe can run under. Each is selected by
 *  environment switches read at component construction. */
enum class Leg
{
    Default,       ///< every fast path on
    NoLeap,        ///< per-cycle loop
    ReferencePath, ///< no block cache, no MRU way prediction
    Profiled,      ///< host-time profiler attached
};

std::vector<const char *>
legEnv(Leg leg)
{
    switch (leg) {
      case Leg::Default: return {};
      case Leg::NoLeap: return {"REMAP_NO_LEAP"};
      case Leg::ReferencePath:
        return {"REMAP_NO_BLOCK_CACHE", "REMAP_NO_MRU"};
      case Leg::Profiled: return {"REMAP_PROFILE"};
    }
    return {};
}

/** Build and run @p job under @p leg, then capture every observable
 *  the run produced. */
Probe
runProbe(const RegionJob &job, Leg leg,
         const std::string &trace_path = "", Cycle trace_period = 0)
{
    for (const char *name : legEnv(leg))
        EXPECT_EQ(setenv(name, "1", 1), 0);
    workloads::PreparedRun r = job.info->make(job.spec);
    for (const char *name : legEnv(leg))
        EXPECT_EQ(unsetenv(name), 0);
    EXPECT_EQ(r.system->profiler() != nullptr, leg == Leg::Profiled);

    if (!trace_path.empty()) {
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
    p.regionEnergyJ =
        r.system
            ->measureEnergy(model, res.cycles,
                            /*include_idle_cores=*/false)
            .totalJ() /
        std::max(1u, job.spec.copies);
    p.insts = r.system->totalCommittedInsts();
    std::ostringstream os;
    r.system->dumpStatsJson(os, /*include_sim=*/false);
    p.statsJson = os.str();
    snap::Serializer s;
    r.system->save(s);
    p.snapshot = s.buffer();
    if (!trace_path.empty()) {
        r.system->disableTracing();
        std::ifstream in(trace_path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        p.traceBytes = buf.str();
        std::remove(trace_path.c_str());
    }
    return p;
}

void
expectIdentical(const Probe &alt, const Probe &ref)
{
    EXPECT_EQ(alt.cycles, ref.cycles);
    EXPECT_EQ(alt.timedOut, ref.timedOut);
    EXPECT_EQ(alt.work, ref.work);
    EXPECT_EQ(alt.energyJ, ref.energyJ);
    EXPECT_EQ(alt.statsJson, ref.statsJson);
    EXPECT_EQ(alt.snapshot, ref.snapshot);
    EXPECT_EQ(alt.traceBytes, ref.traceBytes);
}

void
expectRegionMatches(const RegionResult &alt, const Probe &ref,
                    const RunSpec &spec)
{
    EXPECT_EQ(alt.cycles, ref.cycles);
    EXPECT_EQ(alt.energyJ, ref.regionEnergyJ);
    EXPECT_EQ(alt.work, ref.work / std::max(1u, spec.copies));
    EXPECT_EQ(alt.insts, ref.insts);
}

/** One unique region of the fig8-fig14 union. */
struct RegionCase
{
    RegionJob job;
    bool profiled = false; ///< fig8-fig11 regions get the profiled leg
    /** SnapshotCache::makeKey identity minus its (always zero)
     *  config-hash segment: "ll3/Barrier+Comp/n64/t8/c1/i0". */
    std::string key;
};

void
PrintTo(const RegionCase &c, std::ostream *os)
{
    *os << c.key;
}

std::vector<RegionCase>
regionCases()
{
    std::vector<RegionCase> cases;
    std::set<std::string> seen;
    auto add = [&](const std::vector<RegionJob> &jobs, bool profiled) {
        for (const RegionJob &job : jobs) {
            std::string key = SnapshotCache::makeKey(
                job.info->name, job.spec, /*config_hash=*/0);
            key.erase(key.rfind('/'));
            if (seen.insert(key).second)
                cases.push_back(RegionCase{job, profiled, key});
        }
    };
    add(testjobs::fig8To11Jobs(), true);
    add(testjobs::fig12Jobs(), false);
    add(testjobs::fig13Jobs(), false);
    return cases;
}

/** gtest parameter name: the key with every character outside
 *  [A-Za-z0-9] mapped to '_' ("ll3_Barrier_Comp_n64_t8_c1_i0"). */
std::string
caseName(const testing::TestParamInfo<RegionCase> &info)
{
    std::string name = info.param.key;
    for (char &ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

class RegionDifferential : public testing::TestWithParam<RegionCase>
{
};

TEST_P(RegionDifferential, AlternativesMatchReference)
{
    const RegionCase &c = GetParam();
    const Probe ref = runProbe(c.job, Leg::Default);
    {
        SCOPED_TRACE("no-leap");
        expectIdentical(runProbe(c.job, Leg::NoLeap), ref);
    }
    {
        SCOPED_TRACE("reference path");
        expectIdentical(runProbe(c.job, Leg::ReferencePath), ref);
    }
    if (c.profiled) {
        SCOPED_TRACE("profiled");
        expectIdentical(runProbe(c.job, Leg::Profiled), ref);
    }

    // Snapshot legs: a cold run on an empty cache captures at
    // doubling boundaries from 2048 (aggressive, so even short
    // regions exercise restore), then a second run restores the
    // largest capture.
    power::EnergyModel model;
    auto &cache = SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    cache.setFirstBoundary(2048);
    const RegionResult cold =
        harness::runRegion(*c.job.info, c.job.spec, model);
    const RegionResult warm =
        harness::runRegion(*c.job.info, c.job.spec, model);
    cache.clear();
    cache.setFirstBoundary(16384);
    {
        SCOPED_TRACE("cold-segmented");
        EXPECT_FALSE(cold.warmStarted);
        expectRegionMatches(cold, ref, c.job.spec);
    }
    {
        SCOPED_TRACE("warm-restored");
        if (ref.cycles > 2048) {
            EXPECT_TRUE(warm.warmStarted);
        }
        expectRegionMatches(warm, ref, c.job.spec);
    }
}

INSTANTIATE_TEST_SUITE_P(Figs, RegionDifferential,
                         testing::ValuesIn(regionCases()), caseName);

/** The traced region: ll3 with hardware barriers and computation
 *  (stall spans on every barrier), sampled every 500 cycles. */
RegionJob
tracedJob()
{
    RunSpec spec;
    spec.variant = Variant::HwBarrierComp;
    spec.problemSize = 128;
    spec.threads = 8;
    return RegionJob{&workloads::byName("ll3"), spec};
}

TEST(LeapDifferential, TracedRunsAreByteIdentical)
{
    // A counter sample period clamps every leap to the sample cycles,
    // and stall spans are emitted at their per-cycle start/length; the
    // trace byte stream must not depend on leaping.
    const RegionJob job = tracedJob();
    const std::string dir = testing::TempDir();
    const Probe ref = runProbe(job, Leg::Default,
                               dir + "remap_leapdiff_a.json", 500);
    ASSERT_FALSE(ref.traceBytes.empty());
    expectIdentical(runProbe(job, Leg::NoLeap,
                             dir + "remap_leapdiff_b.json", 500),
                    ref);
}

TEST(FastPathDifferential, TracedRunsAreByteIdentical)
{
    // A tracer forces fetch onto the generic one-instruction path
    // (the spl stall-span bookkeeping lives there), so a traced run
    // must be byte-identical to a traced reference-path run — stall
    // spans and counter samples included.
    const RegionJob job = tracedJob();
    const std::string dir = testing::TempDir();
    const Probe ref = runProbe(job, Leg::Default,
                               dir + "remap_fpdiff_a.json", 500);
    ASSERT_FALSE(ref.traceBytes.empty());
    expectIdentical(runProbe(job, Leg::ReferencePath,
                             dir + "remap_fpdiff_b.json", 500),
                    ref);
}

TEST(SnapshotDifferential, RestoreRebuildsFastPathState)
{
    // Derived fast-path state — the decoded basic-block tables and
    // operand-readiness memos in the cores, the MRU way predictions
    // in the caches — is never serialized; Core::restore and
    // Cache::restore rebuild it from scratch. Snapshots are therefore
    // interchangeable across REMAP_NO_BLOCK_CACHE / REMAP_NO_MRU
    // settings: a reference-path run warm-started from a snapshot a
    // fast-path run captured must land on exactly the cold reference
    // trajectory, and vice versa.
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

    // Cold fast-path run; captures snapshots at doubling boundaries.
    const auto cold_fast = harness::runRegion(info, spec, model);

    // Reference path, warm-started from the fast-path snapshot, then
    // cold for the identity baseline.
    ASSERT_EQ(setenv("REMAP_NO_BLOCK_CACHE", "1", 1), 0);
    ASSERT_EQ(setenv("REMAP_NO_MRU", "1", 1), 0);
    const auto warm_slow = harness::runRegion(info, spec, model);
    cache.setEnabled(false);
    const auto cold_slow = harness::runRegion(info, spec, model);

    // Reverse direction: reference-path snapshots warm-start a
    // fast-path run.
    cache.setEnabled(true);
    cache.clear();
    const auto capture_slow = harness::runRegion(info, spec, model);
    ASSERT_EQ(unsetenv("REMAP_NO_BLOCK_CACHE"), 0);
    ASSERT_EQ(unsetenv("REMAP_NO_MRU"), 0);
    const auto warm_fast = harness::runRegion(info, spec, model);

    ASSERT_TRUE(warm_slow.warmStarted);
    ASSERT_TRUE(warm_fast.warmStarted);
    EXPECT_FALSE(capture_slow.warmStarted);

    EXPECT_EQ(cold_fast.cycles, cold_slow.cycles);
    EXPECT_EQ(cold_fast.energyJ, cold_slow.energyJ);
    EXPECT_EQ(cold_fast.work, cold_slow.work);
    EXPECT_EQ(warm_slow.cycles, cold_slow.cycles);
    EXPECT_EQ(warm_slow.energyJ, cold_slow.energyJ);
    EXPECT_EQ(warm_slow.work, cold_slow.work);
    EXPECT_EQ(warm_fast.cycles, cold_slow.cycles);
    EXPECT_EQ(warm_fast.energyJ, cold_slow.energyJ);
    EXPECT_EQ(warm_fast.work, cold_slow.work);

    cache.clear();
    cache.setFirstBoundary(16384);
}

TEST(SnapshotDifferential, TracedRunsBypassTheCacheUnchanged)
{
    // Tracing must observe the complete run, so runRegion skips
    // warm-start whenever the system traces — and the traced result
    // still equals the warm-started untraced one.
    auto &cache = SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    cache.setFirstBoundary(1024);

    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 32;
    spec.threads = 8;

    const auto cold = harness::runRegion(info, spec, model);
    const auto warm = harness::runRegion(info, spec, model);
    ASSERT_TRUE(warm.warmStarted);

    ASSERT_EQ(setenv("REMAP_TRACE", "/tmp/remap_snapdiff_trace.json",
                     1),
              0);
    const auto traced = harness::runRegion(info, spec, model);
    ASSERT_EQ(unsetenv("REMAP_TRACE"), 0);

    EXPECT_FALSE(traced.warmStarted);
    EXPECT_EQ(traced.configHash, 0u);
    EXPECT_EQ(traced.cycles, warm.cycles);
    EXPECT_EQ(traced.energyJ, warm.energyJ);
    EXPECT_EQ(traced.work, warm.work);
    EXPECT_EQ(cold.cycles, warm.cycles);

    cache.clear();
    cache.setFirstBoundary(16384);
}

} // namespace
} // namespace remap
