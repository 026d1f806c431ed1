/** @file Every fast path's headline guarantee, in one harness: for
 *  each unique region the paper's fig8-fig13 records read
 *  (harness/paper.hh), the default run is the reference, simulated
 *  once, and every alternative way of producing the same result
 *  must be bit-identical to it — cycles, every statistics counter,
 *  energy, work units and the full serialized snapshot:
 *
 *   - no-leap: the per-cycle loop (REMAP_NO_LEAP=1), where no core
 *     sleeps;
 *   - stored: runRegion on an empty snapshot cache, which simulates
 *     and assembles the result (per-copy energy and work);
 *   - served: runRegion again, answered from the final-result entry
 *     the first call stored;
 *   - save/restore: the run stopped at the largest doubling boundary
 *     (from cycle 2048) below its end, saved, restored into a fresh
 *     build and run to the end;
 *   - profiled (fig8-fig11 regions): run with the host-time phase
 *     sampler armed on the running thread, so its timer signal
 *     interrupts the simulation once per 1 ms of CPU time.
 *
 *  One value-parameterized case per region lets `ctest -j` balance
 *  the load; fig14 reads fig12's regions, so it adds no case. A few
 *  single-region cases cover what the region legs cannot: traced
 *  runs, migrations and snapshot interchange across REMAP_NO_LEAP
 *  settings. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/paper.hh"
#include "harness/snapshot_cache.hh"
#include "isa/builder.hh"
#include "sim/json_value.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "spl/function.hh"

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
    Profiled,      ///< host-time phase sampler armed
};

std::vector<const char *>
legEnv(Leg leg)
{
    switch (leg) {
      case Leg::Default:
      case Leg::Profiled: return {};
      case Leg::NoLeap: return {"REMAP_NO_LEAP"};
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
    std::optional<prof::ThreadSampler> sampler;
    if (leg == Leg::Profiled) {
        sampler.emplace();
        EXPECT_TRUE(prof::ThreadSampler::armed());
    }
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

/** The fabric-sleeping region: ll6 with hardware barriers on 16
 *  OOO1 cores, whose waits for the barrier token are quiet ticks
 *  bound to the fabric port. */
RegionJob
fabricSleepJob()
{
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 64;
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

/** Sleeps of @p cause ("self_timed" or "fabric") in @p sim. */
double
sleepsOf(const json::Value &sim, const char *cause)
{
    return sim.at("sleep").at(cause).at("sleeps").num;
}

/**
 * Require @p sim's "sleep" object to hold the two totals and exactly
 * the causes "self_timed" and "fabric", whose sleeps and skipped
 * cycles each sum to the totals: a cause that is dropped, added or
 * miscounted fails.
 */
void
expectSleepCausesSumToTotals(const json::Value &sim)
{
    const json::Value &sleep = sim.at("sleep");
    std::vector<std::string> keys;
    for (const auto &[key, value] : sleep.obj)
        keys.push_back(key);
    ASSERT_EQ(keys, (std::vector<std::string>{"fabric", "self_timed",
                                              "skipped_cycles",
                                              "sleeps"}));
    double sleeps = 0.0, skipped = 0.0;
    for (const char *cause : {"self_timed", "fabric"}) {
        sleeps += sleep.at(cause).at("sleeps").num;
        skipped += sleep.at(cause).at("skipped_cycles").num;
    }
    EXPECT_EQ(sleeps, sleep.at("sleeps").num);
    EXPECT_EQ(skipped, sleep.at("skipped_cycles").num);
}

/**
 * Run @p job under the default and the per-cycle leg to @p limit
 * and require the same statistics and snapshot; @return the default
 * leg's "sim" telemetry.
 */
json::Value
expectTimeoutMatches(const RegionJob &job, Cycle limit)
{
    Probe probes[2];
    json::Value sim;
    for (const Leg leg : {Leg::Default, Leg::NoLeap}) {
        workloads::PreparedRun r = buildUnder(job, leg);
        const sys::RunResult res = r.system->runSegment(limit);
        EXPECT_TRUE(res.timedOut);
        if (leg == Leg::Default)
            sim = simTelemetry(r);
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
    return sim;
}

TEST(LeapDifferential, TracedRunsAreByteIdentical)
{
    // Stall spans are emitted at their per-cycle start/length, and
    // counter samples are taken while cores sleep, so the sleepers'
    // counters must be caught up first; the trace byte stream must
    // not depend on sleeping.
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
    // cores sleeping through their misses (software barriers) or
    // waiting on their fabric ports (hardware barriers), each of
    // these limits lands while some core sleeps.
    for (const Cycle limit : {Cycle{2999}, Cycle{5003}, Cycle{8191},
                              Cycle{12007}}) {
        SCOPED_TRACE(testing::Message() << "limit " << limit);
        const json::Value sw = expectTimeoutMatches(sleepJob(), limit);
        EXPECT_GT(sleepsOf(sw, "self_timed"), 0.0);
        expectSleepCausesSumToTotals(sw);
        const json::Value hw =
            expectTimeoutMatches(fabricSleepJob(), limit);
        EXPECT_GT(sleepsOf(hw, "fabric"), 0.0);
        expectSleepCausesSumToTotals(hw);
    }
}

/** Where the miss-bound migration program sums its loads. */
constexpr Addr kMigrationSumAddr = 0x1000;
/** Iterations of either migration program. */
constexpr unsigned kMigrationIters = 500;

/**
 * A miss-bound loop for an OOO1 core: each iteration loads a word
 * 4 KiB past the last one, so every load misses, and divides it. The
 * words hold 6*i, so the sum of the quotients is n(n-1).
 */
isa::Program
missLoop(sys::System &system)
{
    const Addr base = 0x100000;
    for (unsigned i = 0; i < kMigrationIters; ++i)
        system.memory().writeI64(base + Addr(i) * 4096, 6 * i);
    isa::ProgramBuilder b("miss_loop");
    b.li(1, 0).li(2, 0).li(3, kMigrationIters).li(5, base).li(7, 3);
    b.label("loop")
        .bge(1, 3, "done")
        .ld(6, 5, 0)
        .div(6, 6, 7)
        .add(2, 2, 6)
        .addi(5, 5, 4096)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(4, static_cast<std::int64_t>(kMigrationSumAddr))
        .sd(2, 4, 0)
        .halt();
    return b.build();
}

/** An SPL loop with two passthrough initiations in flight before
 *  each pair of pops, so a drain request often finds results in
 *  flight (switch-out blocking, Section II-B.1). */
isa::Program
splPassLoop(sys::System &system)
{
    const ConfigId pass =
        system.registerFunction(spl::functions::passthrough(1));
    isa::ProgramBuilder b("spl_pass_loop");
    b.li(1, 0).li(2, 0).li(3, kMigrationIters);
    b.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(pass)
        .splLoad(1, 0)
        .splInit(pass)
        .splStore(4, 0)
        .splStore(5, 0)
        .add(2, 2, 4)
        .add(2, 2, 5)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    return b.build();
}

/**
 * Run one migration program under @p leg for at most @p limit
 * cycles: its thread starts on core 0, moves to core 1 at @p first
 * and on to core 2 at first + 1500. @return the run's observables,
 * with the "sim" telemetry in @p sim.
 */
Probe
runMigrating(bool spl, Cycle first, Cycle limit, Leg leg,
             json::Value *sim)
{
    for (const char *name : legEnv(leg))
        EXPECT_EQ(setenv(name, "1", 1), 0);
    sys::System system(spl ? sys::SystemConfig::splCluster()
                           : sys::SystemConfig::ooo1Cluster(3));
    for (const char *name : legEnv(leg))
        EXPECT_EQ(unsetenv(name), 0);
    const isa::Program prog = spl ? splPassLoop(system)
                                  : missLoop(system);
    const ThreadId tid = system.createThread(&prog).id;
    system.mapThread(tid, 0);
    system.scheduleMigration(tid, 1, first);
    system.scheduleMigration(tid, 2, first + 1500);
    const sys::RunResult res = system.runSegment(limit);

    Probe p;
    p.cycles = res.cycles;
    p.timedOut = res.timedOut;
    std::ostringstream os;
    system.dumpStatsJson(os, /*include_sim=*/false);
    p.statsJson = os.str();
    snap::Serializer sz;
    system.save(sz);
    p.snapshot = sz.buffer();
    if (!res.timedOut) {
        EXPECT_EQ(system.migrationsCompleted.value(), 2u);
        if (!spl) {
            EXPECT_EQ(system.memory().readI64(kMigrationSumAddr),
                      std::int64_t(kMigrationIters) *
                          (kMigrationIters - 1));
        }
    }
    std::ostringstream full;
    system.dumpStatsJson(full, /*include_sim=*/true);
    json::Value v;
    EXPECT_TRUE(json::parse(full.str(), v));
    *sim = v.at("sim");
    return p;
}

TEST(LeapDifferential, MigrationsMatchPerCycle)
{
    // Cores sleep while migrations are pending; a migration wakes its
    // source core before it drains, un-drains or unbinds it. Every
    // drain point along the sweep, in a miss-bound loop and in an SPL
    // loop whose drains hit in-flight results, must leave the same
    // cycles, statistics and snapshot as the per-cycle loop, both at
    // a mid-run limit and at the end of the run.
    for (const bool spl : {false, true}) {
        for (Cycle first = 500; first <= 9000; first += 419) {
            for (const Cycle limit : {Cycle{7777}, Cycle{50'000'000}}) {
                SCOPED_TRACE(testing::Message()
                             << (spl ? "spl" : "miss") << " first "
                             << first << " limit " << limit);
                json::Value sim, ref_sim;
                const Probe ref =
                    runMigrating(spl, first, limit, Leg::NoLeap,
                                 &ref_sim);
                EXPECT_EQ(ref.timedOut, limit == 7777);
                expectIdentical(runMigrating(spl, first, limit,
                                             Leg::Default, &sim),
                                ref);
                EXPECT_GT(sim.at("sleep").at("sleeps").num, 0.0);
                EXPECT_EQ(ref_sim.at("sleep").at("sleeps").num, 0.0);
            }
        }
    }
}

TEST(SnapshotDifferential, RestoreRebuildsFastPathState)
{
    // Derived state — the decoded tables in the cores, the run
    // loop's activity cache — is never serialized; restore rebuilds
    // it from scratch. Snapshots are therefore interchangeable
    // across REMAP_NO_LEAP settings: a run restored under either
    // setting from a snapshot captured under the other must land on
    // exactly the uninterrupted trajectory. In the
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
        const Leg legs[] = {Leg::Default, Leg::NoLeap};
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
