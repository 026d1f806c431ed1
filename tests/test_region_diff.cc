/** @file Every fast path's headline guarantee, in one harness: for
 *  each unique region the paper's fig8-fig13 records read
 *  (harness/paper.hh), the default run is the reference, simulated
 *  once, and every alternative way of producing the same result
 *  must be bit-identical to it — cycles, every statistics counter,
 *  energy, work units and the full serialized snapshot:
 *
 *   - no-leap: the per-cycle loop (REMAP_NO_LEAP=1) instead of the
 *     event-horizon leap scheduler;
 *   - reference path: one-instruction fetch with the pristine cache
 *     way walk (REMAP_NO_BLOCK_CACHE=1 REMAP_NO_MRU=1);
 *   - stored: runRegion on an empty snapshot cache, which simulates
 *     and assembles the result (per-copy energy and work);
 *   - served: runRegion again, answered from the final-result entry
 *     the first call stored;
 *   - save/restore: the run stopped at the largest doubling boundary
 *     (from cycle 2048) below its end, saved, restored into a fresh
 *     build and run to the end;
 *   - profiled (fig8-fig11 regions): REMAP_PROFILE=1.
 *
 *  One value-parameterized case per region lets `ctest -j` balance
 *  the load; fig14 reads fig12's regions, so it adds no case. A few single-region cases cover what the region legs
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
#include "harness/paper.hh"
#include "harness/snapshot_cache.hh"
#include "sim/json_value.hh"
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

/** Build @p job with @p leg's environment switches set. */
workloads::PreparedRun
buildUnder(const RegionJob &job, Leg leg)
{
    for (const char *name : legEnv(leg))
        EXPECT_EQ(setenv(name, "1", 1), 0);
    workloads::PreparedRun r = job.info->make(job.spec);
    for (const char *name : legEnv(leg))
        EXPECT_EQ(unsetenv(name), 0);
    EXPECT_EQ(r.system->profiler() != nullptr, leg == Leg::Profiled);
    return r;
}

/** Capture every observable of @p r, which ran @p res to its end
 *  (cycles counted from cycle 0). */
Probe
capture(const RegionJob &job, workloads::PreparedRun &r,
        const sys::RunResult &res)
{
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
    return p;
}

/** Build and run @p job under @p leg, then capture every observable
 *  the run produced. */
Probe
runProbe(const RegionJob &job, Leg leg,
         const std::string &trace_path = "", Cycle trace_period = 0)
{
    workloads::PreparedRun r = buildUnder(job, leg);
    if (!trace_path.empty()) {
        EXPECT_TRUE(r.system->enableTracing(trace_path, trace_period));
    }
    Probe p = capture(job, r, r.run());
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

/** The largest boundary 2048 * 2^k strictly below @p cycles (0 when
 *  the run ends by cycle 2048). */
Cycle
segmentBoundary(Cycle cycles)
{
    Cycle boundary = 0;
    for (Cycle next = 2048; next < cycles; next *= 2)
        boundary = next;
    return boundary;
}

/**
 * Run @p job under @p capture_leg to cycle @p boundary, save the
 * System, restore it into a fresh build under @p resume_leg, run that
 * to the end and capture it.
 */
Probe
runRestored(const RegionJob &job, Cycle boundary, Leg capture_leg,
            Leg resume_leg)
{
    workloads::PreparedRun first = buildUnder(job, capture_leg);
    const sys::RunResult seg = first.system->runSegment(boundary);
    EXPECT_TRUE(seg.timedOut);
    EXPECT_EQ(seg.cycles, boundary);
    snap::Serializer s;
    first.system->save(s);

    workloads::PreparedRun r = buildUnder(job, resume_leg);
    snap::Deserializer d(s.buffer());
    r.system->restore(d);
    EXPECT_TRUE(d.ok()) << d.error();
    EXPECT_TRUE(d.atEnd());
    sys::RunResult res = r.run();
    res.cycles += boundary;
    return capture(job, r, res);
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

/** One unique region of the fig8-fig13 union. */
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
    std::set<std::string> profiled;
    for (const RegionJob &job :
         harness::paperJobs({"fig8", "fig9", "fig10", "fig11"}))
        profiled.insert(harness::jobKey(job));
    std::vector<RegionCase> cases;
    for (const RegionJob &job : harness::paperJobs(
             {"fig8", "fig9", "fig10", "fig11", "fig12", "fig13"})) {
        std::string key = harness::jobKey(job);
        const bool p = profiled.count(key) > 0;
        key.erase(key.rfind('/'));
        cases.push_back(RegionCase{job, p, key});
    }
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

    // Result-entry legs: the first runRegion on an empty cache
    // simulates and stores, the second is served from the entry.
    power::EnergyModel model;
    auto &cache = SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    const RegionResult stored =
        harness::runRegion(*c.job.info, c.job.spec, model);
    const RegionResult served =
        harness::runRegion(*c.job.info, c.job.spec, model);
    cache.clear();
    {
        SCOPED_TRACE("stored");
        EXPECT_FALSE(stored.warmStarted);
        expectRegionMatches(stored, ref, c.job.spec);
    }
    {
        SCOPED_TRACE("served");
        EXPECT_TRUE(served.warmStarted);
        EXPECT_EQ(served.snapshotBoundary, served.cycles);
        expectRegionMatches(served, ref, c.job.spec);
    }
    if (const Cycle boundary = segmentBoundary(ref.cycles)) {
        SCOPED_TRACE("save/restore");
        expectIdentical(
            runRestored(c.job, boundary, Leg::Default, Leg::Default),
            ref);
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

/** The sleeping region: ll6 with software barriers on 16 OOO1
 *  cores. It has no fabric, so every quiet core tick is self-timed
 *  and the cores sleep through their cache misses (DESIGN.md
 *  §10.2). */
RegionJob
sleepJob()
{
    RunSpec spec;
    spec.variant = Variant::SwBarrier;
    spec.problemSize = 32;
    spec.threads = 16;
    return RegionJob{&workloads::byName("ll6"), spec};
}

/** The "sim" telemetry subtree of @p r's statistics. */
json::Value
simTelemetry(workloads::PreparedRun &r)
{
    std::ostringstream os;
    r.system->dumpStatsJson(os, /*include_sim=*/true);
    json::Value v;
    EXPECT_TRUE(json::parse(os.str(), v));
    return v.has("sim") ? v.at("sim") : json::Value{};
}

TEST(LeapDifferential, TracedRunsAreByteIdentical)
{
    // A counter sample period clamps every leap to the sample cycles,
    // and stall spans are emitted at their per-cycle start/length; the
    // trace byte stream must not depend on leaping. In the sleeping
    // region, samples are taken while cores sleep, so their counters
    // must be caught up first.
    const std::string dir = testing::TempDir();
    for (const RegionJob &job : {tracedJob(), sleepJob()}) {
        SCOPED_TRACE(harness::jobKey(job));
        const Probe ref = runProbe(job, Leg::Default,
                                   dir + "remap_leapdiff_a.json", 500);
        ASSERT_FALSE(ref.traceBytes.empty());
        expectIdentical(runProbe(job, Leg::NoLeap,
                                 dir + "remap_leapdiff_b.json", 500),
                        ref);
    }
}

TEST(LeapDifferential, TimeoutWhileCoresSleep)
{
    // A cycle limit that expires while cores sleep must still leave
    // every statistic where the per-cycle loop leaves it: the run
    // accounts the sleepers' skipped ticks before it returns. With 16
    // cores sleeping through their misses, each of these limits lands
    // while some core sleeps.
    const RegionJob job = sleepJob();
    for (const Cycle limit : {Cycle{2999}, Cycle{5003}, Cycle{8191},
                              Cycle{12007}}) {
        SCOPED_TRACE(testing::Message() << "limit " << limit);
        Probe probes[2];
        for (const Leg leg : {Leg::Default, Leg::NoLeap}) {
            workloads::PreparedRun r = buildUnder(job, leg);
            const sys::RunResult res = r.system->runSegment(limit);
            EXPECT_TRUE(res.timedOut);
            if (leg == Leg::Default) {
                const json::Value sim = simTelemetry(r);
                ASSERT_TRUE(sim.has("sleep"));
                EXPECT_GT(sim.at("sleep").at("sleeps").num, 0.0);
            }
            Probe &p = probes[leg == Leg::Default ? 0 : 1];
            p.cycles = res.cycles;
            p.timedOut = res.timedOut;
            std::ostringstream os;
            r.system->dumpStatsJson(os, /*include_sim=*/false);
            p.statsJson = os.str();
            snap::Serializer sz;
            r.system->save(sz);
            p.snapshot = sz.buffer();
        }
        expectIdentical(probes[1], probes[0]);
    }
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
    // in the caches, the leap scheduler's activity cache — is never
    // serialized; restore rebuilds it from scratch. Snapshots are
    // therefore interchangeable across REMAP_NO_LEAP /
    // REMAP_NO_BLOCK_CACHE / REMAP_NO_MRU settings: a run restored
    // under any setting from a snapshot captured under any other
    // must land on exactly the uninterrupted trajectory. In the
    // sleeping region the boundary lands while cores sleep, and
    // restore rebuilds the cores' issue, store and in-flight lists.
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 64;
    spec.threads = 8;
    const RegionJob ll2{&workloads::byName("ll2"), spec};

    for (const RegionJob &job : {ll2, sleepJob()}) {
        SCOPED_TRACE(harness::jobKey(job));
        const Probe ref = runProbe(job, Leg::Default);
        const Cycle boundary = segmentBoundary(ref.cycles);
        ASSERT_GT(boundary, 0u);
        const Leg legs[] = {Leg::Default, Leg::NoLeap,
                            Leg::ReferencePath};
        for (Leg from : legs) {
            for (Leg to : legs) {
                if (from == to)
                    continue;
                SCOPED_TRACE(testing::Message()
                             << "capture leg " << int(from)
                             << ", resume leg " << int(to));
                expectIdentical(runRestored(job, boundary, from, to),
                                ref);
            }
        }
    }
}

TEST(SnapshotDifferential, TracedRunsBypassTheCacheUnchanged)
{
    // Tracing must observe the complete run, so runRegion never
    // serves a traced run from a stored result — it simulates, and
    // the traced result still equals the stored one.
    auto &cache = SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();

    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 32;
    spec.threads = 8;

    const auto stored = harness::runRegion(info, spec, model);
    ASSERT_FALSE(stored.warmStarted);
    const std::uint64_t stores = cache.stats().stores;
    ASSERT_GE(stores, 1u);

    const std::string trace_path =
        testing::TempDir() + "remap_snapdiff_trace.json";
    ASSERT_EQ(setenv("REMAP_TRACE", trace_path.c_str(), 1), 0);
    const auto traced = harness::runRegion(info, spec, model);
    ASSERT_EQ(unsetenv("REMAP_TRACE"), 0);
    std::ifstream trace(trace_path, std::ios::binary);
    EXPECT_TRUE(trace.good() && trace.peek() != EOF)
        << "traced run wrote no trace";
    trace.close();
    std::remove(trace_path.c_str());

    EXPECT_FALSE(traced.warmStarted);
    EXPECT_EQ(traced.configHash, 0u);
    EXPECT_EQ(cache.stats().stores, stores);
    EXPECT_EQ(traced.cycles, stored.cycles);
    EXPECT_EQ(traced.insts, stored.insts);
    EXPECT_EQ(traced.energyJ, stored.energyJ);
    EXPECT_EQ(traced.work, stored.work);

    // The entry is intact: an untraced repeat is still served.
    const auto served = harness::runRegion(info, spec, model);
    EXPECT_TRUE(served.warmStarted);
    EXPECT_EQ(served.cycles, stored.cycles);

    cache.clear();
}

} // namespace
} // namespace remap
