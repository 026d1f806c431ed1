/** @file The observability layer's guarantees, enforced end-to-end:
 *  log2 histogram bucketing/percentiles, exclusive phase attribution
 *  and the thread sampler behind REMAP_PROFILE, the json::Value
 *  parser, the stats-query flatten/diff engine behind remap-stats,
 *  and the run's "sim" subtree. That profiling is pure observation —
 *  a run with the sampler armed is bit-identical to the same run
 *  without — is proven per region in test_region_diff.cc. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/snapshot_cache.hh"
#include "power/energy.hh"
#include "sim/json.hh"
#include "sim/json_value.hh"
#include "sim/profile.hh"
#include "sim/stats.hh"
#include "tools/stats_query.hh"
#include "workloads/workload.hh"

namespace remap
{
namespace
{

using prof::Phase;
using tools::DiffOptions;
using tools::DiffResult;
using tools::FlatEntry;

// ---------------------------------------------------------------
// Profiler: phase scopes and the thread sampler
// ---------------------------------------------------------------

/** The calling thread's CPU time in milliseconds. */
double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

/** The CPU milliseconds @p s stands for. */
double
sampledMs(const prof::Samples &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t n : s)
        total += n;
    return static_cast<double>(total) * prof::kSampleMs;
}

/** Burn @p ms of this thread's CPU time. */
void
spinCpuMs(double ms)
{
    const double end = threadCpuMs() + ms;
    volatile std::uint64_t sink = 0;
    while (threadCpuMs() < end) {
        for (int i = 0; i < 1000; ++i)
            sink = sink + i;
    }
}

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
    EXPECT_EQ(names.count("other"), 1u);
    EXPECT_EQ(names.count("job_dispatch"), 0u); // no nesting phase
}

TEST(Profiler, PhaseScopeNestingIsExclusive)
{
    using prof::PhaseScope;
    EXPECT_EQ(prof::currentPhase(), Phase::Other);
    prof::ThreadSampler sampler;
    ASSERT_TRUE(prof::ThreadSampler::armed());
    {
        PhaseScope outer(Phase::FetchDecode);
        EXPECT_EQ(prof::currentPhase(), Phase::FetchDecode);
        {
            // Every sample taken while the inner scope is open goes
            // to the inner phase alone.
            PhaseScope inner(Phase::CacheAccess);
            EXPECT_EQ(prof::currentPhase(), Phase::CacheAccess);
            spinCpuMs(30);
        }
        EXPECT_EQ(prof::currentPhase(), Phase::FetchDecode);
        outer.set(Phase::IssueExecute);
        EXPECT_EQ(prof::currentPhase(), Phase::IssueExecute);
    }
    EXPECT_EQ(prof::currentPhase(), Phase::Other);

    const prof::Samples s = sampler.samples();
    EXPECT_GT(s[static_cast<unsigned>(Phase::CacheAccess)], 0u);
    EXPECT_EQ(s[static_cast<unsigned>(Phase::FetchDecode)], 0u);
}

TEST(Profiler, NestedSamplerSharesTheOuterTimer)
{
    prof::ThreadSampler outer;
    {
        prof::ThreadSampler inner;
        const double cpu0 = threadCpuMs();
        spinCpuMs(50);
        // One timer, not two: the CPU time is counted once.
        EXPECT_NEAR(sampledMs(inner.samples()), threadCpuMs() - cpu0,
                    15.0);
    }
    // The inner sampler left the outer one's timer running.
    EXPECT_TRUE(prof::ThreadSampler::armed());
}

TEST(Profiler, SamplerAttributesARegionJob)
{
    // ll6 Barrier n128 t8 simulates for a few hundred ms of CPU time
    // through every phase but sleep_catchup's rarer paths.
    harness::SnapshotCache &cache = harness::SnapshotCache::instance();
    const bool was_enabled = cache.enabled();
    cache.setEnabled(false); // simulate, never serve
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 128;
    spec.threads = 8;

    const double cpu0 = threadCpuMs();
    prof::Samples s{};
    {
        prof::ThreadSampler sampler;
        harness::runRegion(workloads::byName("ll6"), spec,
                           power::EnergyModel{});
        s = sampler.samples();
    }
    const double cpu_ms = threadCpuMs() - cpu0;
    cache.setEnabled(was_enabled);

    EXPECT_GT(s[static_cast<unsigned>(Phase::FetchDecode)], 0u);
    // One sample per period of this thread's CPU time, give or take
    // the sample in flight at either end and a scheduler tick.
    EXPECT_NEAR(sampledMs(s), cpu_ms, std::max(10.0, 0.2 * cpu_ms));

    // The manifest form: exclusive fractions that add up to one.
    std::ostringstream os;
    {
        json::Writer w(os);
        prof::dumpSamplesJson(w, s);
    }
    json::Value root;
    std::string error;
    ASSERT_TRUE(json::parse(os.str(), root, &error)) << error;
    double fractions = 0.0;
    for (unsigned i = 0; i < prof::kNumPhases; ++i) {
        const json::Value &ph =
            root.at(prof::phaseName(static_cast<Phase>(i)));
        EXPECT_EQ(ph.at("samples").num, static_cast<double>(s[i]));
        fractions += ph.at("fraction").num;
    }
    EXPECT_NEAR(fractions, 1.0, 1e-9);
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
            [7],
            {"workload": "ll2", "variant": "SW", "cycles": 30,
             "spec": {"problem_size": 8, "threads": 8}},
            {"workload": "ll2", "variant": "SW", "cycles": 40,
             "spec": {"problem_size": 64, "threads": 8}},
            {"workload": "ll2", "variant": "comp", "cycles": 50}
        ]
    })");
    EXPECT_EQ(flat.at("cycle").num, 100.0);
    EXPECT_EQ(flat.at("groups.core0.insts").num, 5.0);
    EXPECT_EQ(flat.at("jobs[ll2:seq].cycles").num, 10.0);
    EXPECT_EQ(flat.at("jobs[ll2:comp].cycles").num, 20.0);
    EXPECT_EQ(flat.at("jobs[2][0]").num, 7.0); // unnamed -> index
    // Jobs of one variant are told apart by their spec scalars...
    EXPECT_EQ(flat.at("jobs[ll2:SW(problem_size=8,threads=8)].cycles")
                  .num,
              30.0);
    EXPECT_EQ(flat.at("jobs[ll2:SW(problem_size=64,threads=8)].cycles")
                  .num,
              40.0);
    // ...and a name an earlier element took gets the index appended.
    EXPECT_EQ(flat.at("jobs[ll2:comp#5].cycles").num, 50.0);
    std::size_t cycle_leaves = 0;
    for (const auto &[path, e] : flat)
        cycle_leaves += path.ends_with("].cycles");
    EXPECT_EQ(cycle_leaves, 5u); // no element overwrote another
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
// End-to-end: the profiled run's "sim" subtree
// ---------------------------------------------------------------

/** A run's stats document with and without the "sim" subtree. */
struct Probe
{
    std::string statsJson; ///< include_sim=false: the simulated machine
    std::string fullJson;  ///< include_sim=true: with the "sim" subtree
};

Probe
runProbe(const workloads::WorkloadInfo &info,
         const workloads::RunSpec &spec, bool profiled)
{
    std::optional<prof::ThreadSampler> sampler;
    if (profiled)
        sampler.emplace();
    workloads::PreparedRun r = info.make(spec);
    r.run();
    if (r.verify) {
        EXPECT_TRUE(r.verify()) << "golden mismatch: " << r.name;
    }

    Probe p;
    std::ostringstream os;
    r.system->dumpStatsJson(os, /*include_sim=*/false);
    p.statsJson = os.str();
    std::ostringstream full;
    r.system->dumpStatsJson(full);
    p.fullJson = full.str();
    return p;
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

    // Sleep telemetry is always present under "sim"; there are no
    // per-component meta groups.
    ASSERT_TRUE(sim.has("sleep"));
    EXPECT_TRUE(sim.at("sleep").has("sleeps"));
    EXPECT_FALSE(sim.has("groups"));

    // Host time is a per-job manifest report, never a System stat:
    // a sampled run's stats carry no profile section.
    EXPECT_FALSE(sim.has("profile"));
}

TEST(ProfileDifferential, StatsDiffGatesFastPathKillSwitch)
{
    // `remap-stats diff`, exercised through the library the CLI
    // wraps: diffing a run against itself passes, and a
    // REMAP_NO_BLOCK_CACHE=1 run dumps the same document, "sim"
    // included — the kill switch changes host work, not what runs.
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

    // Architectural counters are bit-identical...
    DiffOptions arch;
    arch.ignore = {"sim."};
    const DiffResult arch_res = tools::diff(fa, fb, arch);
    EXPECT_EQ(arch_res.violations, 0u);
    EXPECT_EQ(arch_res.entries.size(), 0u);

    // ...and so is the whole dump, "sim" included.
    const DiffResult full_res = tools::diff(fa, fb, DiffOptions{});
    EXPECT_EQ(full_res.violations, 0u);
    EXPECT_EQ(full_res.entries.size(), 0u);
    EXPECT_EQ(fast.fullJson, slow.fullJson);
}

} // namespace
} // namespace remap
