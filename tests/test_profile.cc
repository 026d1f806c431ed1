/** @file The observability layer's guarantees, enforced end-to-end:
 *  log2 histogram bucketing/percentiles, the host-time Profiler and
 *  its JSON shape, the json::Value parser, the stats-query
 *  flatten/diff engine behind remap-stats, and the headline property
 *  that profiling is pure observation — a run with REMAP_PROFILE=1 is
 *  bit-identical (cycles, stats, energy, snapshot) to the same run
 *  with profiling off, for the shared region-job sets. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>

#include "harness/snapshot_cache.hh"
#include "region_jobs.hh"
#include "sim/json.hh"
#include "sim/json_value.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "tools/stats_query.hh"

namespace remap
{
namespace
{

using harness::RegionJob;
using harness::SnapshotCache;
using prof::Phase;
using prof::Profiler;
using prof::ScopedTimer;
using tools::DiffOptions;
using tools::DiffResult;
using tools::FlatEntry;

// ---------------------------------------------------------------
// Log2Histogram
// ---------------------------------------------------------------

TEST(Log2Histogram, BucketMapping)
{
    EXPECT_EQ(Log2Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Log2Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Log2Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Log2Histogram::bucketOf(~std::uint64_t(0)), 64u);

    // Bucket bounds partition the domain: low(i) == high(i-1) + 1.
    for (unsigned i = 1; i < Log2Histogram::kBuckets; ++i) {
        EXPECT_EQ(Log2Histogram::bucketLow(i),
                  Log2Histogram::bucketHigh(i - 1) + 1)
            << "bucket " << i;
    }
    // And every value lands inside its bucket's bounds.
    for (std::uint64_t v : {std::uint64_t(0), std::uint64_t(1),
                            std::uint64_t(7), std::uint64_t(8),
                            std::uint64_t(1000000)}) {
        const unsigned b = Log2Histogram::bucketOf(v);
        EXPECT_GE(v, Log2Histogram::bucketLow(b));
        EXPECT_LE(v, Log2Histogram::bucketHigh(b));
    }
}

TEST(Log2Histogram, PercentilesAreUpperBucketBounds)
{
    Log2Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0u); // empty

    // 100 samples of 3 (bucket 2, high 3), one outlier of 1000
    // (bucket 10, high 1023).
    for (int i = 0; i < 100; ++i)
        h.sample(3);
    h.sample(1000);

    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.sum(), 100u * 3 + 1000);
    EXPECT_EQ(h.p50(), 3u);
    EXPECT_EQ(h.p95(), 3u);
    // The 99th percentile rank (99.99) still falls in the bucket of
    // 3s; only the very top rank reaches the outlier's bucket.
    EXPECT_EQ(h.p99(), 3u);
    EXPECT_EQ(h.percentile(100.0), 1023u);
}

TEST(Log2Histogram, MergeAndReset)
{
    Log2Histogram a, b;
    a.sample(1);
    a.sample(16);
    b.sample(16);
    b.sample(0);

    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 33u);
    EXPECT_EQ(a.bucket(0), 1u);              // the 0 sample
    EXPECT_EQ(a.bucket(1), 1u);              // the 1 sample
    EXPECT_EQ(a.bucket(5), 2u);              // both 16s
    EXPECT_EQ(a.percentile(100.0), 31u);     // bucketHigh(5)

    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_EQ(a.bucket(5), 0u);
}

// ---------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------

TEST(Profiler, PhaseNamesAreStableAndDistinct)
{
    std::set<std::string> names;
    for (unsigned i = 0; i < prof::kNumPhases; ++i) {
        const char *n = prof::phaseName(static_cast<Phase>(i));
        ASSERT_NE(n, nullptr);
        EXPECT_TRUE(names.insert(n).second) << n;
    }
    EXPECT_EQ(names.size(), prof::kNumPhases);
    EXPECT_EQ(names.count("fetch_decode"), 1u);
    EXPECT_EQ(names.count("job_dispatch"), 1u);
}

TEST(Profiler, RecordMergeAndTotals)
{
    Profiler p;
    p.record(Phase::FetchDecode, 1000);
    p.record(Phase::FetchDecode, 3000);
    p.record(Phase::Barrier, 500);

    EXPECT_EQ(p.count(Phase::FetchDecode).value(), 2u);
    EXPECT_EQ(p.totalNs(Phase::FetchDecode).value(), 4000u);
    EXPECT_DOUBLE_EQ(p.totalMs(Phase::FetchDecode), 0.004);
    EXPECT_EQ(p.histogram(Phase::FetchDecode).count(), 2u);
    EXPECT_EQ(p.count(Phase::LeapScan).value(), 0u);

    Profiler q;
    q.record(Phase::FetchDecode, 1000);
    q.merge(p);
    EXPECT_EQ(q.count(Phase::FetchDecode).value(), 3u);
    EXPECT_EQ(q.totalNs(Phase::FetchDecode).value(), 5000u);
    EXPECT_EQ(q.count(Phase::Barrier).value(), 1u);

    q.reset();
    EXPECT_EQ(q.count(Phase::FetchDecode).value(), 0u);
    EXPECT_EQ(q.histogram(Phase::FetchDecode).count(), 0u);
}

TEST(Profiler, ScopedTimerNullIsInertAndLiveRecords)
{
    // Null profiler: the disabled fast path must be a no-op.
    { ScopedTimer t(nullptr, Phase::CacheAccess); }

    Profiler p;
    {
        ScopedTimer t(&p, Phase::CacheAccess);
    }
    EXPECT_EQ(p.count(Phase::CacheAccess).value(), 1u);
    EXPECT_EQ(p.histogram(Phase::CacheAccess).count(), 1u);
}

TEST(Profiler, DumpJsonShapeSkipsIdlePhases)
{
    Profiler p;
    p.record(Phase::Barrier, 100);
    p.record(Phase::Barrier, 200);

    std::ostringstream os;
    {
        json::Writer w(os);
        p.dumpJson(w);
    }

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.has("barrier"));
    EXPECT_FALSE(root.has("fetch_decode")); // zero events -> omitted
    const json::Value &b = root.at("barrier");
    EXPECT_EQ(b.at("count").num, 2.0);
    EXPECT_EQ(b.at("total_ns").num, 300.0);
    EXPECT_TRUE(b.has("p50_ns"));
    EXPECT_TRUE(b.has("p95_ns"));
    EXPECT_TRUE(b.has("p99_ns"));
    EXPECT_TRUE(b.has("hist"));
    EXPECT_EQ(b.at("hist").at("count").num, 2.0);
}

TEST(Profiler, ProcessAggregateAccumulates)
{
    const std::uint64_t before =
        prof::processSnapshot().count(Phase::SnapshotSave).value();
    Profiler p;
    p.record(Phase::SnapshotSave, 42);
    prof::mergeIntoProcess(p);
    prof::recordProcess(Phase::SnapshotSave, 58);
    EXPECT_EQ(
        prof::processSnapshot().count(Phase::SnapshotSave).value(),
        before + 2);
}

// ---------------------------------------------------------------
// json::Value parser
// ---------------------------------------------------------------

TEST(JsonValue, ParsesNestedDocuments)
{
    const std::string text = R"({
        "n": -12.5e1, "flag": true, "none": null,
        "s": "a\"b\\cA\n",
        "arr": [1, [2, 3], {"k": "v"}],
        "obj": {"x": 0}
    })";
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(text, root, &error)) << error;
    EXPECT_EQ(root.at("n").num, -125.0);
    EXPECT_TRUE(root.at("flag").boolean);
    EXPECT_TRUE(root.at("none").isNull());
    EXPECT_EQ(root.at("s").str, "a\"b\\cA\n");
    ASSERT_EQ(root.at("arr").arr.size(), 3u);
    EXPECT_EQ(root.at("arr").arr[1].arr[1].num, 3.0);
    EXPECT_EQ(root.at("arr").arr[2].at("k").str, "v");
    EXPECT_TRUE(root.at("obj").has("x"));
    EXPECT_FALSE(root.at("obj").has("y"));
}

TEST(JsonValue, RejectsMalformedInput)
{
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse("{\"a\": }", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(json::parse("[1, 2,]", v));
    EXPECT_FALSE(json::parse("{} trailing", v));
    EXPECT_FALSE(json::parse("", v));
    EXPECT_FALSE(json::parse("nul", v));
    EXPECT_TRUE(json::parse("  42  ", v));
    EXPECT_EQ(v.num, 42.0);
}

// ---------------------------------------------------------------
// stats-query flatten/diff (the engine behind remap-stats)
// ---------------------------------------------------------------

std::map<std::string, FlatEntry>
flattenText(const std::string &text)
{
    json::Value root;
    std::string error;
    EXPECT_TRUE(json::parse(text, root, &error)) << error;
    return tools::flatten(root);
}

TEST(StatsQuery, FlattenNamesJobArraysByContent)
{
    const auto flat = flattenText(R"({
        "cycle": 100,
        "groups": {"core0": {"insts": 5}},
        "jobs": [
            {"workload": "ll2", "variant": "seq", "cycles": 10},
            {"workload": "ll2", "variant": "comp", "cycles": 20},
            [7]
        ]
    })");
    EXPECT_EQ(flat.at("cycle").num, 100.0);
    EXPECT_EQ(flat.at("groups.core0.insts").num, 5.0);
    EXPECT_EQ(flat.at("jobs[ll2:seq].cycles").num, 10.0);
    EXPECT_EQ(flat.at("jobs[ll2:comp].cycles").num, 20.0);
    EXPECT_EQ(flat.at("jobs[2][0]").num, 7.0); // unnamed -> index
}

TEST(StatsQuery, DiffIdenticalRunsHasNoViolations)
{
    const auto a = flattenText(R"({"x": 1.0, "y": {"z": 2}})");
    const DiffResult res = tools::diff(a, a, DiffOptions{});
    EXPECT_EQ(res.compared, 2u);
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.notes, 0u);
    EXPECT_TRUE(res.entries.empty());
}

TEST(StatsQuery, DiffFlagsRegressionsBeyondTolerance)
{
    const auto a = flattenText(R"({"fast": 100, "slow": 100})");
    const auto b = flattenText(R"({"fast": 104, "slow": 120})");
    DiffOptions opt;
    opt.tolerance = 0.05;
    const DiffResult res = tools::diff(a, b, opt);
    EXPECT_EQ(res.compared, 2u);
    ASSERT_EQ(res.violations, 1u);
    ASSERT_EQ(res.entries.size(), 2u);
    // Violations sort first.
    EXPECT_EQ(res.entries[0].path, "slow");
    EXPECT_TRUE(res.entries[0].violation);
    EXPECT_NEAR(res.entries[0].rel, 20.0 / 120.0, 1e-12);
    EXPECT_EQ(res.entries[1].path, "fast");
    EXPECT_FALSE(res.entries[1].violation); // drift under tolerance
}

TEST(StatsQuery, OneSidedIgnoresImprovements)
{
    const auto a = flattenText(R"({"wall_ms": 100})");
    const auto faster = flattenText(R"({"wall_ms": 50})");
    const auto slower = flattenText(R"({"wall_ms": 200})");
    DiffOptions opt;
    opt.tolerance = 0.10;
    opt.oneSided = true;
    EXPECT_EQ(tools::diff(a, faster, opt).violations, 0u);
    EXPECT_EQ(tools::diff(a, slower, opt).violations, 1u);
    opt.oneSided = false;
    EXPECT_EQ(tools::diff(a, faster, opt).violations, 1u);
}

TEST(StatsQuery, MissingAndTypeDiffsAreNotesNotViolations)
{
    const auto a =
        flattenText(R"({"gone": 1, "kind": 2, "tag": "x"})");
    const auto b =
        flattenText(R"({"kind": "two", "tag": "y", "added": 3})");
    const DiffResult res = tools::diff(a, b, DiffOptions{});
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.notes, 4u); // missing-in-B, type, string, missing-in-A
}

TEST(StatsQuery, OnlyAndIgnoreFilters)
{
    const auto a = flattenText(R"({"perf.wall": 100, "sim.x": 100})");
    const auto b = flattenText(R"({"perf.wall": 200, "sim.x": 200})");
    DiffOptions opt;
    opt.only = {"perf."};
    EXPECT_EQ(tools::diff(a, b, opt).violations, 1u);
    opt.only.clear();
    opt.ignore = {"perf.", "sim."};
    EXPECT_EQ(tools::diff(a, b, opt).compared, 0u);
}

TEST(StatsQuery, AggregateOverRuns)
{
    const std::vector<std::map<std::string, FlatEntry>> runs = {
        flattenText(R"({"v": 10, "s": "a"})"),
        flattenText(R"({"v": 30})"),
    };
    const auto agg = tools::aggregate(runs);
    ASSERT_EQ(agg.count("v"), 1u);
    EXPECT_EQ(agg.count("s"), 0u); // strings not aggregated
    EXPECT_EQ(agg.at("v").count, 2u);
    EXPECT_DOUBLE_EQ(agg.at("v").mean(), 20.0);
    EXPECT_DOUBLE_EQ(agg.at("v").min, 10.0);
    EXPECT_DOUBLE_EQ(agg.at("v").max, 30.0);
}

TEST(StatsQuery, DiffJsonDumpRoundTrips)
{
    // The `remap-stats diff --json` payload must re-parse with the
    // simulator's own reader and carry the exact rel values (CI
    // consumes it without scraping text).
    const auto a = flattenText(R"({"fast": 100, "slow": 100})");
    const auto b = flattenText(R"({"fast": 104, "slow": 120})");
    DiffOptions opt;
    opt.tolerance = 0.05;
    const DiffResult res = tools::diff(a, b, opt);

    std::ostringstream os;
    json::Writer w(os);
    tools::dumpDiffJson(res, opt, w);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;
    EXPECT_EQ(root.at("tolerance").num, 0.05);
    EXPECT_FALSE(root.at("one_sided").boolean);
    EXPECT_EQ(root.at("compared").num, 2);
    EXPECT_EQ(root.at("violations").num, 1);
    EXPECT_EQ(root.at("notes").num, 0);
    ASSERT_EQ(root.at("entries").arr.size(), 2u);
    const json::Value &worst = root.at("entries").arr[0];
    EXPECT_EQ(worst.at("path").str, "slow");
    EXPECT_TRUE(worst.at("violation").boolean);
    EXPECT_EQ(worst.at("a").num, 100.0);
    EXPECT_EQ(worst.at("b").num, 120.0);
    EXPECT_EQ(worst.at("rel").num, res.entries[0].rel); // bit-exact

    // Notes keep their shape too.
    const DiffResult noted = tools::diff(
        flattenText(R"({"gone": 1})"), flattenText(R"({})"),
        DiffOptions{});
    std::ostringstream os2;
    json::Writer w2(os2);
    tools::dumpDiffJson(noted, DiffOptions{}, w2);
    ASSERT_TRUE(json::parse(os2.str(), root, &error)) << error;
    ASSERT_EQ(root.at("entries").arr.size(), 1u);
    EXPECT_TRUE(root.at("entries").arr[0].has("note"));
}

TEST(StatsQuery, AggregateJsonDumpRoundTrips)
{
    const std::vector<std::map<std::string, FlatEntry>> runs = {
        flattenText(R"({"v": 10, "other": 1})"),
        flattenText(R"({"v": 30, "other": 2})"),
    };
    const auto agg = tools::aggregate(runs);

    std::ostringstream os;
    json::Writer w(os);
    tools::dumpAggregateJson(agg, runs.size(), {"v"}, w);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;
    EXPECT_EQ(root.at("runs").num, 2);
    ASSERT_TRUE(root.at("paths").isObject());
    EXPECT_FALSE(root.at("paths").has("other")) << "filter ignored";
    ASSERT_TRUE(root.at("paths").has("v"));
    const json::Value &v = root.at("paths").at("v");
    EXPECT_EQ(v.at("n").num, 2);
    EXPECT_DOUBLE_EQ(v.at("mean").num, 20.0);
    EXPECT_DOUBLE_EQ(v.at("min").num, 10.0);
    EXPECT_DOUBLE_EQ(v.at("max").num, 30.0);
}

// ---------------------------------------------------------------
// End-to-end: profiling is pure observation
// ---------------------------------------------------------------

/** Everything a run determines, captured for exact comparison. */
struct Probe
{
    Cycle cycles = 0;
    bool timedOut = false;
    double energyJ = 0.0;
    std::string statsJson; ///< include_sim=false: the simulated machine
    std::string fullJson;  ///< include_sim=true: with the "sim" subtree
    std::vector<std::uint8_t> snapshot;
};

Probe
runProbe(const workloads::WorkloadInfo &info,
         const workloads::RunSpec &spec, bool profiled)
{
    // REMAP_PROFILE is read at System construction, so toggling the
    // environment around make() selects the mode per run.
    if (profiled) {
        EXPECT_EQ(setenv("REMAP_PROFILE", "1", 1), 0);
    }
    workloads::PreparedRun r = info.make(spec);
    if (profiled) {
        EXPECT_EQ(unsetenv("REMAP_PROFILE"), 0);
    }
    EXPECT_EQ(r.system->profiler() != nullptr, profiled);

    const sys::RunResult res = r.run();
    if (r.verify) {
        EXPECT_TRUE(r.verify()) << "golden mismatch: " << r.name;
    }

    Probe p;
    p.cycles = res.cycles;
    p.timedOut = res.timedOut;
    power::EnergyModel model;
    p.energyJ = r.system->measureEnergy(model, res.cycles).totalJ();
    std::ostringstream os;
    r.system->dumpStatsJson(os, /*include_sim=*/false);
    p.statsJson = os.str();
    std::ostringstream full;
    r.system->dumpStatsJson(full);
    p.fullJson = full.str();
    snap::Serializer s;
    r.system->save(s);
    p.snapshot = s.buffer();
    return p;
}

TEST(ProfileDifferential, ProfiledRunsAreBitIdentical)
{
    // Every unique fig8-fig11 region, profiled vs not: the simulated
    // machine must not be able to tell.
    std::set<std::string> covered;
    for (const RegionJob &job : testjobs::fig8To11Jobs()) {
        const std::string key = SnapshotCache::makeKey(
            job.info->name, job.spec, /*config_hash=*/0);
        if (!covered.insert(key).second)
            continue;
        SCOPED_TRACE(key);
        const Probe off =
            runProbe(*job.info, job.spec, /*profiled=*/false);
        const Probe on =
            runProbe(*job.info, job.spec, /*profiled=*/true);
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.timedOut, off.timedOut);
        EXPECT_EQ(on.energyJ, off.energyJ);
        EXPECT_EQ(on.statsJson, off.statsJson);
        EXPECT_EQ(on.snapshot, off.snapshot);
    }
}

TEST(ProfileDifferential, SimSubtreeShapeAndGating)
{
    const auto &info = workloads::byName("ll2");
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 64;
    spec.threads = 8;

    const Probe p = runProbe(info, spec, /*profiled=*/true);

    // include_sim=false must not leak any host-side telemetry.
    EXPECT_EQ(p.statsJson.find("\"sim\""), std::string::npos);

    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(p.fullJson, root, &error)) << error;
    EXPECT_EQ(root.at("schema_version").num, 2.0);
    ASSERT_TRUE(root.has("sim"));
    const json::Value &sim = root.at("sim");

    // Fast-path meta counters: the block cache fused work on this
    // region, and the MRU way predictor saw hits (group names are
    // per-component, e.g. "core0.<core>" / "core0.l1d").
    ASSERT_TRUE(sim.has("groups"));
    const auto flat = tools::flatten(sim);
    double fused = 0.0, mru = 0.0;
    for (const auto &[path, e] : flat) {
        if (e.kind != FlatEntry::Kind::Number ||
            path.rfind("groups.", 0) != 0) {
            continue;
        }
        if (path.size() >= 18 &&
            path.compare(path.size() - 18, 18,
                         ".block_fused_insts") == 0) {
            fused += e.num;
        }
        if (path.size() >= 9 &&
            path.compare(path.size() - 9, 9, ".mru_hits") == 0) {
            mru += e.num;
        }
    }
    EXPECT_GT(fused, 0.0);
    EXPECT_GT(mru, 0.0);

    // Leap telemetry is always present under "sim".
    ASSERT_TRUE(sim.has("leap"));
    EXPECT_TRUE(sim.at("leap").has("leaps"));

    // The profiler section reports the instrumented phases.
    ASSERT_TRUE(sim.has("profile"));
    const json::Value &prof_json = sim.at("profile");
    ASSERT_TRUE(prof_json.has("fetch_decode"));
    EXPECT_GT(prof_json.at("fetch_decode").at("count").num, 0.0);
    EXPECT_GT(prof_json.at("fetch_decode").at("total_ns").num, 0.0);
    ASSERT_TRUE(prof_json.has("cache_access"));
    ASSERT_TRUE(prof_json.has("barrier"));

    // A run without profiling still carries the sim meta counters but
    // no profile section.
    const Probe off = runProbe(info, spec, /*profiled=*/false);
    json::Value off_root;
    ASSERT_TRUE(json::parse(off.fullJson, off_root, &error)) << error;
    ASSERT_TRUE(off_root.has("sim"));
    EXPECT_FALSE(off_root.at("sim").has("profile"));
}

TEST(ProfileDifferential, StatsDiffGatesFastPathKillSwitch)
{
    // The CI perf gate's contract, exercised through the library the
    // CLI wraps: diffing a run against itself passes; diffing against
    // a REMAP_NO_BLOCK_CACHE=1 run trips on the sim fast-path
    // counters while the simulated machine stays identical.
    const auto &info = workloads::byName("ll3");
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::Seq;
    spec.problemSize = 64;

    const Probe fast = runProbe(info, spec, /*profiled=*/false);

    ASSERT_EQ(setenv("REMAP_NO_BLOCK_CACHE", "1", 1), 0);
    const Probe slow = runProbe(info, spec, /*profiled=*/false);
    ASSERT_EQ(unsetenv("REMAP_NO_BLOCK_CACHE"), 0);

    json::Value fast_root, slow_root;
    ASSERT_TRUE(json::parse(fast.fullJson, fast_root, nullptr));
    ASSERT_TRUE(json::parse(slow.fullJson, slow_root, nullptr));
    const auto fa = tools::flatten(fast_root);
    const auto fb = tools::flatten(slow_root);

    // Same config diffed against itself: clean exit.
    EXPECT_EQ(tools::diff(fa, fa, DiffOptions{}).violations, 0u);

    // Architectural counters are still bit-identical...
    DiffOptions arch;
    arch.ignore = {"sim."};
    const DiffResult arch_res = tools::diff(fa, fb, arch);
    EXPECT_EQ(arch_res.violations, 0u);
    EXPECT_EQ(arch_res.entries.size(), 0u);

    // ...but the fast-path meta counters give the kill switch away.
    DiffOptions simopt;
    simopt.only = {"sim.groups."};
    EXPECT_GT(tools::diff(fa, fb, simopt).violations +
                  tools::diff(fa, fb, simopt).notes,
              0u);
}

} // namespace
} // namespace remap
