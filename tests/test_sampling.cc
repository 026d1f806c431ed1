/** @file SMARTS-style sampled simulation (DESIGN.md §14), proven at
 *  three levels: the estimator math against hand-computed oracles,
 *  the accuracy contract (extrapolated cycles within ±2% of the exact
 *  run on fig8-style regions, golden outputs still bit-exact), and
 *  the keying guarantee (sampled runs never alias exact runs in the
 *  snapshot cache), plus served repeats of sampled and adaptive
 *  runs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "harness/snapshot_cache.hh"
#include "power/energy.hh"
#include "sim/env.hh"
#include "sim/rng.hh"
#include "sim/sampling.hh"
#include "workloads/workload.hh"

#include "result_fields.hh"

namespace remap
{
namespace
{

using sampling::Estimate;
using sampling::SampleParams;
using sampling::WindowSample;
using workloads::RunSpec;
using workloads::Variant;

TEST(SamplingMath, MeanAndStderrMatchHandComputation)
{
    // CPIs 2.0, 4.0, 3.0: mean 3; deviations -1, +1, 0 give the
    // n-1 sample variance 2/2 = 1, stderr sqrt(1/3).
    const std::vector<WindowSample> w = {
        {10, 5}, {20, 5}, {30, 10}};
    EXPECT_DOUBLE_EQ(sampling::cpiMean(w), 3.0);
    EXPECT_DOUBLE_EQ(sampling::cpiStderr(w), std::sqrt(1.0 / 3.0));
}

TEST(SamplingMath, EstimateExtrapolatesWithConfidenceInterval)
{
    // CPIs 2.0 and 4.0: mean 3, sample variance 2, stderr 1. Over
    // 1000 total instructions the estimate is 3000 cycles with a
    // 95% half-width of 1.96 * 1 * 1000.
    const std::vector<WindowSample> w = {{20, 10}, {40, 10}};
    const Estimate e = sampling::estimate(w, 1000, 700, 400);
    EXPECT_TRUE(e.sampled);
    EXPECT_EQ(e.windows, 2u);
    EXPECT_DOUBLE_EQ(e.cpiMean, 3.0);
    EXPECT_DOUBLE_EQ(e.cpiStderr, 1.0);
    EXPECT_DOUBLE_EQ(e.estCycles, 3000.0);
    EXPECT_DOUBLE_EQ(e.ciHalfWidthCycles, 1.96 * 1000.0);
    EXPECT_DOUBLE_EQ(e.ciLowCycles(), 3000.0 - 1960.0);
    EXPECT_DOUBLE_EQ(e.ciHighCycles(), 3000.0 + 1960.0);
    EXPECT_EQ(e.measuredCycles, 700u);
    EXPECT_EQ(e.insts, 1000u);
}

TEST(SamplingMath, CollapsesToExactWhenNeverFastForwarded)
{
    // warmed_insts == 0 means the whole run was detailed: the
    // simulated cycle count is exact, no extrapolation.
    const std::vector<WindowSample> w = {{20, 10}};
    Estimate e = sampling::estimate(w, 500, 1234, 0);
    EXPECT_FALSE(e.sampled);
    EXPECT_DOUBLE_EQ(e.estCycles, 1234.0);
    EXPECT_DOUBLE_EQ(e.ciHalfWidthCycles, 0.0);

    // No usable window (quiesced inside the first warm-up) also
    // collapses, even if warming instructions were executed.
    e = sampling::estimate({}, 500, 1234, 100);
    EXPECT_FALSE(e.sampled);
    EXPECT_DOUBLE_EQ(e.estCycles, 1234.0);
}

TEST(SamplingMath, SingleWindowHasZeroWidthInterval)
{
    const std::vector<WindowSample> w = {{30, 10}};
    const Estimate e = sampling::estimate(w, 100, 60, 40);
    EXPECT_TRUE(e.sampled);
    EXPECT_DOUBLE_EQ(e.cpiStderr, 0.0);
    EXPECT_DOUBLE_EQ(e.estCycles, 300.0);
    EXPECT_DOUBLE_EQ(e.ciHalfWidthCycles, 0.0);
}

TEST(Sampling, EnvSelectsSchedule)
{
    ASSERT_EQ(unsetenv("REMAP_SAMPLE"), 0);
    EXPECT_FALSE(env::sampleParams().enabled());

    ASSERT_EQ(setenv("REMAP_SAMPLE", "1", 1), 0);
    EXPECT_EQ(env::sampleParams(), SampleParams::defaults());

    ASSERT_EQ(setenv("REMAP_SAMPLE", "8000,800,400", 1), 0);
    const SampleParams p = env::sampleParams();
    EXPECT_EQ(p.period, 8000u);
    EXPECT_EQ(p.window, 800u);
    EXPECT_EQ(p.warm, 400u);

    // Adaptive requests (DESIGN.md §15).
    ASSERT_EQ(setenv("REMAP_SAMPLE", "auto", 1), 0);
    EXPECT_EQ(env::sampleParams(), SampleParams::autoDefaults());

    ASSERT_EQ(setenv("REMAP_SAMPLE", "auto,0.05", 1), 0);
    const SampleParams a = env::sampleParams();
    EXPECT_TRUE(a.adaptive());
    EXPECT_FALSE(a.enabled());
    EXPECT_DOUBLE_EQ(a.ciTarget, 0.05);

    ASSERT_EQ(unsetenv("REMAP_SAMPLE"), 0);
}

TEST(Sampling, MalformedSampleSpecsAreRejected)
{
    // Satellite contract: every malformed REMAP_SAMPLE form fails
    // loudly through the centralized parser (env::sampleParams turns
    // these into REMAP_FATAL) instead of silently running exact.
    const char *bad[] = {
        "",            // empty value
        " ",           // whitespace only
        "-5",          // negative period
        "0",           // zero period
        "8000,0",      // zero window
        "800,8000",    // window longer than the period
        "1000,800,400",  // warm + window overflow the period
        "8000,800,400x", // trailing garbage on a field
        "8000,800,400,7", // too many fields
        "8e3",         // not a plain instruction count
        "auto,0",      // target not in (0, 1)
        "auto,1.5",    // target not in (0, 1)
        "auto,-0.1",   // negative target
        "auto,nope",   // non-numeric target
        "auto,0.05,3", // trailing garbage after the target
    };
    for (const char *spec : bad) {
        SCOPED_TRACE(spec);
        SampleParams p;
        std::string err;
        EXPECT_FALSE(env::parseSampleSpec(spec, &p, &err));
        EXPECT_FALSE(err.empty());
        EXPECT_NE(err.find("REMAP_SAMPLE"), std::string::npos);
    }

    // The accepted forms parse cleanly.
    const char *good[] = {"1",    "8000",       "8000,800",
                          "8000,800,400", "auto", "auto,0.05"};
    for (const char *spec : good) {
        SCOPED_TRACE(spec);
        SampleParams p;
        std::string err;
        EXPECT_TRUE(env::parseSampleSpec(spec, &p, &err)) << err;
        EXPECT_TRUE(p.active());
    }
}

TEST(Sampling, MalformedTracePeriodsAreRejected)
{
    // REMAP_TRACE_PERIOD goes through the same digits-only field
    // parser as REMAP_SAMPLE: "abc" must not become period 0 (counter
    // sampling silently off) and "10k" must not become 10.
    const char *bad[] = {"", " ", "abc", "10k", "-5", "+5", "1e4",
                         " 100", "100 ", "99999999999999999999"};
    for (const char *spec : bad) {
        SCOPED_TRACE(spec);
        std::uint64_t period = 7;
        std::string err;
        EXPECT_FALSE(env::parseTracePeriod(spec, &period, &err));
        EXPECT_EQ(period, 7u);
        EXPECT_NE(err.find("REMAP_TRACE_PERIOD"), std::string::npos);
    }

    const std::pair<const char *, std::uint64_t> good[] = {
        {"0", 0}, {"5000", 5000}, {"10000", 10000}};
    for (const auto &[spec, want] : good) {
        SCOPED_TRACE(spec);
        std::uint64_t period = 7;
        std::string err;
        EXPECT_TRUE(env::parseTracePeriod(spec, &period, &err)) << err;
        EXPECT_EQ(period, want);
    }

    // Unset falls back to the caller's default.
    ASSERT_EQ(unsetenv("REMAP_TRACE_PERIOD"), 0);
    EXPECT_EQ(env::tracePeriod(10'000), 10'000u);
    ASSERT_EQ(setenv("REMAP_TRACE_PERIOD", "2500", 1), 0);
    EXPECT_EQ(env::tracePeriod(10'000), 2500u);
    ASSERT_EQ(unsetenv("REMAP_TRACE_PERIOD"), 0);
}

TEST(Sampling, MalformedCountVariablesAreRejected)
{
    // REMAP_CKPT_MEM and REMAP_JOBS take the same digits-only
    // counts: "256MB" must not silently become the default cap, and
    // "4 " must not become 4 workers.
    const char *names[] = {"REMAP_CKPT_MEM", "REMAP_JOBS"};
    const char *bad[] = {"", " ", "abc", "256MB", "-5", "+5", "1e4",
                         " 100", "100 ", "99999999999999999999"};
    for (const char *name : names) {
        for (const char *text : bad) {
            SCOPED_TRACE(std::string(name) + "='" + text + "'");
            std::uint64_t count = 7;
            std::string err;
            EXPECT_FALSE(env::parseCount(name, text, &count, &err));
            EXPECT_EQ(count, 7u);
            EXPECT_NE(err.find(name), std::string::npos);
        }
        std::uint64_t count = 7;
        std::string err;
        EXPECT_TRUE(env::parseCount(name, "0", &count, &err)) << err;
        EXPECT_EQ(count, 0u);
        EXPECT_TRUE(env::parseCount(name, "256", &count, &err)) << err;
        EXPECT_EQ(count, 256u);
    }

    // REMAP_CKPT_MEM is in megabytes; a count whose byte total does
    // not fit size_t is rejected, not wrapped.
    const std::uint64_t max_mb = SIZE_MAX / (1024 * 1024);
    const std::string too_big = std::to_string(max_mb + 1);
    const char *bad_mem[] = {"256MB", "", too_big.c_str()};
    for (const char *text : bad_mem) {
        SCOPED_TRACE(text);
        std::size_t bytes = 7;
        std::string err;
        EXPECT_FALSE(env::parseMemoryMb(text, &bytes, &err));
        EXPECT_EQ(bytes, 7u);
        EXPECT_NE(err.find("REMAP_CKPT_MEM"), std::string::npos);
    }
    std::size_t bytes = 0;
    std::string err;
    EXPECT_TRUE(env::parseMemoryMb("256", &bytes, &err)) << err;
    EXPECT_EQ(bytes, std::size_t(256) * 1024 * 1024);
    const std::string largest = std::to_string(max_mb);
    EXPECT_TRUE(env::parseMemoryMb(largest.c_str(), &bytes, &err))
        << err;
    EXPECT_EQ(bytes, static_cast<std::size_t>(max_mb) * 1024 * 1024);

    // Unset falls back to the caller's default.
    ASSERT_EQ(unsetenv("REMAP_CKPT_MEM"), 0);
    EXPECT_EQ(env::ckptMemBytes(123), 123u);
    ASSERT_EQ(setenv("REMAP_CKPT_MEM", "2", 1), 0);
    EXPECT_EQ(env::ckptMemBytes(123), 2u * 1024 * 1024);
    ASSERT_EQ(unsetenv("REMAP_CKPT_MEM"), 0);
}

TEST(Sampling, MalformedKillSwitchesAreRejected)
{
    // A kill switch is off only when unset and on only at "1": "0"
    // or an empty value must not silently disable a fast path.
    // REMAP_PROFILE reads the same way, so "0" never turns it on.
    const char *names[] = {"REMAP_NO_LEAP", "REMAP_NO_BLOCK_CACHE",
                           "REMAP_NO_MRU", "REMAP_PROFILE"};
    const char *bad[] = {"0", "", "yes", " 1"};
    for (const char *name : names) {
        for (const char *text : bad) {
            SCOPED_TRACE(std::string(name) + "='" + text + "'");
            bool off = false;
            std::string err;
            EXPECT_FALSE(env::parseKillSwitch(name, text, &off, &err));
            EXPECT_NE(err.find(name), std::string::npos);
        }
        bool off = false;
        std::string err;
        EXPECT_TRUE(env::parseKillSwitch(name, "1", &off, &err)) << err;
        EXPECT_TRUE(off);
        EXPECT_TRUE(env::parseKillSwitch(name, nullptr, &off, &err));
        EXPECT_FALSE(off);
    }
}

TEST(Sampling, EmptyDirectoryVariablesAreRejected)
{
    // An empty value must not silently leave manifests, snapshot
    // persistence or tracing off (nor trace into hidden ".N" files).
    const char *names[] = {"REMAP_MANIFEST", "REMAP_CKPT",
                           "REMAP_TRACE"};
    for (const char *name : names) {
        SCOPED_TRACE(name);
        std::string dir = "stale";
        std::string err;
        EXPECT_FALSE(env::parseDirectory(name, "", &dir, &err));
        EXPECT_NE(err.find(name), std::string::npos);
        EXPECT_EQ(dir, "stale");
        EXPECT_TRUE(env::parseDirectory(name, nullptr, &dir, &err));
        EXPECT_EQ(dir, "");
        EXPECT_TRUE(env::parseDirectory(name, ".", &dir, &err));
        EXPECT_EQ(dir, ".");
    }
}

TEST(SamplingMath, RelativeHalfWidthNormalizesTheEstimate)
{
    // From EstimateExtrapolatesWithConfidenceInterval: 3000 +/- 1960.
    const std::vector<WindowSample> w = {{20, 10}, {40, 10}};
    const Estimate e = sampling::estimate(w, 1000, 700, 400);
    EXPECT_DOUBLE_EQ(sampling::relativeHalfWidth(e),
                     1960.0 / 3000.0);
    EXPECT_DOUBLE_EQ(sampling::relativeHalfWidth(Estimate{}), 0.0);
}

TEST(SamplingMath, NextAdaptivePeriodScalesAndClamps)
{
    SampleParams p =
        SampleParams::autoDefaults(0.02).resolvedAdaptive();
    ASSERT_EQ(p.minPeriod, 10000u);
    ASSERT_EQ(p.maxPeriod, 200000u);
    p.period = 100000;
    // Half-width scales ~1/sqrt(windows), windows ~1/period: the
    // matched-pair step scales the period by (target/achieved)^2.
    EXPECT_EQ(sampling::nextAdaptivePeriod(p, 0.04), 25000u);
    // Already twice as tight as needed: widen 4x, clamped to max.
    EXPECT_EQ(sampling::nextAdaptivePeriod(p, 0.01), 200000u);
    // Wild overshoot: per-step factor clamps at 1/16, then the
    // period clamp raises 6250 back to minPeriod.
    EXPECT_EQ(sampling::nextAdaptivePeriod(p, 1.0), 10000u);
    // No variance information (a single window): halve the period.
    EXPECT_EQ(sampling::nextAdaptivePeriod(p, 0.0), 50000u);
}

TEST(SamplingMath, AdaptiveControllerConvergesOnSqrtModel)
{
    // Analytic plant: h(P) = c*sqrt(P) (half-width shrinks with the
    // square root of the window count, which scales as 1/P). The
    // controller must reach h <= target within the harness's
    // iteration budget, or pin the period at minPeriod when the
    // target is unreachable inside the clamps.
    const SampleParams base =
        SampleParams::autoDefaults(0.02).resolvedAdaptive();
    for (const double c : {1e-5, 1e-4, 5e-4, 2e-3}) {
        SCOPED_TRACE(c);
        SampleParams cur = base;
        double achieved = 0.0;
        unsigned iters = 0;
        for (;;) {
            ++iters;
            achieved =
                c * std::sqrt(static_cast<double>(cur.period));
            if (achieved <= cur.ciTarget)
                break;
            const std::uint64_t next =
                sampling::nextAdaptivePeriod(cur, achieved);
            if (next == cur.period || iters >= 6)
                break;
            cur.period = next;
        }
        EXPECT_LE(iters, 6u);
        EXPECT_TRUE(achieved <= cur.ciTarget ||
                    cur.period == cur.minPeriod)
            << "achieved " << achieved << " at period "
            << cur.period;
    }
}

TEST(SamplingMath, ConfidenceIntervalHasNominalCoverage)
{
    // Statistical property: on synthetic workloads with known mean
    // CPI, the 95% interval must cover the truth at roughly its
    // nominal rate across randomized schedules (window counts and
    // lengths). Deterministic seed: this never flakes.
    Rng rng(0xC0FFEE);
    const auto gauss = [&rng]() {
        double s = 0.0; // Irwin-Hall(12): bounded ~N(0,1)
        for (int i = 0; i < 12; ++i)
            s += rng.uniform();
        return s - 6.0;
    };
    const unsigned experiments = 400;
    unsigned covered = 0;
    for (unsigned e = 0; e < experiments; ++e) {
        const double mu = 1.5 + 2.0 * rng.uniform();
        const double sigma = (0.05 + 0.15 * rng.uniform()) * mu;
        const std::size_t n = 25 + rng.below(36);
        const std::uint64_t wi = 500 + rng.below(1501);
        std::vector<WindowSample> w;
        w.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double cpi =
                std::max(0.25, mu + sigma * gauss());
            w.push_back(
                {static_cast<std::uint64_t>(std::llround(
                     cpi * static_cast<double>(wi))),
                 wi});
        }
        const std::uint64_t total = 100 * wi * n;
        const Estimate est = sampling::estimate(w, total, 1, 1);
        const double truth = mu * static_cast<double>(total);
        if (std::fabs(est.estCycles - truth) <=
            est.ciHalfWidthCycles)
            ++covered;
    }
    const double coverage =
        static_cast<double>(covered) / experiments;
    EXPECT_GE(coverage, 0.90);
    EXPECT_LE(coverage, 0.985);
}

TEST(Sampling, SampledKeysNeverAliasExactOnes)
{
    const auto &info = workloads::byName("ll2");
    RunSpec exact;
    exact.variant = Variant::HwBarrier;
    exact.problemSize = 64;
    exact.threads = 8;
    RunSpec sampled = exact;
    sampled.sample = SampleParams::defaults();
    RunSpec sampled2 = exact;
    sampled2.sample = SampleParams{8000, 800, 400};

    // The cache/store key carries the schedule...
    const std::string k_exact =
        harness::SnapshotCache::makeKey(info.name, exact, 0);
    const std::string k_sampled =
        harness::SnapshotCache::makeKey(info.name, sampled, 0);
    const std::string k_sampled2 =
        harness::SnapshotCache::makeKey(info.name, sampled2, 0);
    EXPECT_NE(k_exact, k_sampled);
    EXPECT_NE(k_exact, k_sampled2);
    EXPECT_NE(k_sampled, k_sampled2);

    // ...and so does configHash(), so even hash-checked store hits
    // cannot cross the exact/sampled boundary.
    workloads::PreparedRun a = info.make(exact);
    workloads::PreparedRun b = info.make(exact);
    const std::uint64_t h_exact = a.system->configHash();
    b.system->setSampleParams(sampled.sample);
    const std::uint64_t h_sampled = b.system->configHash();
    EXPECT_NE(h_exact, h_sampled);

    // An exact spec's hash is schedule-independent.
    a.system->setSampleParams(SampleParams{});
    EXPECT_EQ(a.system->configHash(), h_exact);

    // The result entry is keyed by the effective spec: the same plain
    // spec under REMAP_SAMPLE=1 and with it unset simulates once each
    // and is then served only its own result.
    auto &cache = harness::SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    const power::EnergyModel model;
    const auto run = [&](bool sample_env) {
        if (sample_env) {
            EXPECT_EQ(setenv("REMAP_SAMPLE", "1", 1), 0);
        }
        harness::RegionResult r = harness::runRegion(info, exact, model);
        EXPECT_EQ(unsetenv("REMAP_SAMPLE"), 0);
        return r;
    };
    const std::uint64_t stores = cache.stats().stores;
    const harness::RegionResult env_sampled = run(true);
    const harness::RegionResult plain = run(false);
    EXPECT_FALSE(env_sampled.warmStarted);
    EXPECT_FALSE(plain.warmStarted);
    EXPECT_EQ(cache.stats().stores, stores + 2);
    EXPECT_NE(env_sampled.configHash, plain.configHash);
    EXPECT_NE(env_sampled.cycles, plain.cycles);

    const harness::RegionResult plain_again = run(false);
    const harness::RegionResult env_sampled_again = run(true);
    EXPECT_TRUE(plain_again.warmStarted);
    EXPECT_TRUE(env_sampled_again.warmStarted);
    expectSameResult(plain_again, plain);
    expectSameResult(env_sampled_again, env_sampled);
    cache.clear();
}

/** Exact and sampled cycles for one region at the default SMARTS
 *  schedule. The accuracy contract holds on *long* regions (many
 *  periods, DESIGN.md §14), so callers boost the iteration count
 *  instead of shrinking the schedule. */
struct AccuracyPoint
{
    Cycle exactCycles = 0;
    Estimate est;
    bool goldenOk = false;
};

AccuracyPoint
runAccuracyPoint(const workloads::WorkloadInfo &info,
                 const RunSpec &spec)
{
    AccuracyPoint out;

    workloads::PreparedRun exact = info.make(spec);
    out.exactCycles = exact.run().cycles;
    const std::uint64_t insts = exact.system->totalCommittedInsts();

    workloads::PreparedRun run = info.make(spec);
    run.system->setSampleParams(SampleParams::defaults());
    run.system->runSampled();
    out.est = run.system->sampleEstimate();
    out.goldenOk = !run.verify || run.verify();
    EXPECT_EQ(run.system->totalCommittedInsts(), insts)
        << info.name << ": warming changed the committed-inst count";
    return out;
}

TEST(Sampling, Fig8RegionsWithinTwoPercent)
{
    // The accuracy contract on fig8-style regions: golden outputs
    // stay bit-exact (warming is architecturally exact), and on
    // regions long enough to span many sampling periods the
    // extrapolated cycles land within ±2% of the exact run at the
    // default schedule. Iteration counts are boosted so each region
    // commits enough instructions for 30+ measured windows. Covers
    // compute-only regions (Seq and Comp use the SPL functional
    // unit) plus a multicore barrier region so cross-core SPL
    // traffic crosses the detailed/warming boundary.
    struct Case
    {
        const char *workload;
        Variant variant;
        unsigned size, threads, iterations;
    };
    const Case cases[] = {
        {"hmmer", Variant::Seq, 0, 1, 400},
        {"adpcm", Variant::Comp, 0, 1, 60000},
        {"ll3", Variant::HwBarrier, 1024, 8, 300},
    };

    bool any_sampled = false;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.workload);
        const auto &info = workloads::byName(c.workload);
        RunSpec spec;
        spec.variant = c.variant;
        spec.problemSize = c.size;
        spec.threads = c.threads;
        spec.iterations = c.iterations;

        const AccuracyPoint pt = runAccuracyPoint(info, spec);
        EXPECT_TRUE(pt.goldenOk);
        if (pt.est.sampled) {
            any_sampled = true;
            const double err =
                std::abs(pt.est.estCycles -
                         static_cast<double>(pt.exactCycles)) /
                static_cast<double>(pt.exactCycles);
            EXPECT_LE(err, 0.02)
                << "est " << pt.est.estCycles << " vs exact "
                << pt.exactCycles << " (" << pt.est.windows
                << " windows, " << pt.est.insts << " insts)";
        } else {
            // Short region: sampled mode must collapse to exact.
            EXPECT_DOUBLE_EQ(pt.est.estCycles,
                             static_cast<double>(pt.exactCycles));
        }
    }
    // The contract is vacuous if every region collapsed; at least
    // one of these is long enough to fast-forward.
    EXPECT_TRUE(any_sampled);
}

TEST(Sampling, AdaptiveKeysNeverAliasFixedSchedules)
{
    const auto &info = workloads::byName("ll2");
    RunSpec fixed;
    fixed.variant = Variant::HwBarrier;
    fixed.problemSize = 64;
    fixed.threads = 8;
    fixed.sample = SampleParams::defaults();
    RunSpec adaptive = fixed;
    adaptive.sample = SampleParams::autoDefaults();
    RunSpec adaptive2 = fixed;
    adaptive2.sample = SampleParams::autoDefaults(0.05);

    // The adaptive request is part of the cache/store key...
    const std::string k_fixed =
        harness::SnapshotCache::makeKey(info.name, fixed, 0);
    const std::string k_auto =
        harness::SnapshotCache::makeKey(info.name, adaptive, 0);
    const std::string k_auto2 =
        harness::SnapshotCache::makeKey(info.name, adaptive2, 0);
    EXPECT_NE(k_fixed, k_auto);
    EXPECT_NE(k_fixed, k_auto2);
    EXPECT_NE(k_auto, k_auto2);

    // ...and of configHash(), so a converged adaptive iteration
    // running the *same* concrete schedule as a fixed-schedule run
    // still hashes (and stores) separately.
    workloads::PreparedRun a = info.make(fixed);
    a.system->setSampleParams(fixed.sample);
    const std::uint64_t h_fixed = a.system->configHash();
    SampleParams converged = SampleParams::autoDefaults();
    converged.period = fixed.sample.period;
    converged.window = fixed.sample.window;
    converged.warm = fixed.sample.warm;
    a.system->setSampleParams(converged);
    EXPECT_NE(a.system->configHash(), h_fixed);
}

TEST(Sampling, ReplayServesRepeatedSampledRunsBitIdentically)
{
    ASSERT_EQ(unsetenv("REMAP_SAMPLE"), 0);
    auto &cache = harness::SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();

    const power::EnergyModel model;
    const auto &info = workloads::byName("ll3");
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 1024;
    spec.threads = 8;
    spec.iterations = 300;
    spec.sample = SampleParams::defaults();

    // Cold run: simulates and stores exactly one entry, its result.
    const harness::SnapshotCache::Stats before = cache.stats();
    const harness::RegionResult cold =
        harness::runRegion(info, spec, model);
    ASSERT_TRUE(cold.sampled);
    EXPECT_FALSE(cold.warmStarted);
    EXPECT_EQ(cache.stats().stores, before.stores + 1);

    // Repeat: served from that entry, every simulated field equal.
    const harness::RegionResult warm =
        harness::runRegion(info, spec, model);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_EQ(warm.snapshotBoundary, cold.cycles);
    EXPECT_EQ(cache.stats().hits, before.hits + 1);
    EXPECT_EQ(cache.stats().stores, before.stores + 1);
    expectSameResult(warm, cold);

    cache.clear();
}

TEST(Sampling, AdaptiveRunConvergesToRequestedHalfWidth)
{
    ASSERT_EQ(unsetenv("REMAP_SAMPLE"), 0);
    auto &cache = harness::SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();

    const power::EnergyModel model;
    const auto &info = workloads::byName("ll3");
    RunSpec spec;
    spec.variant = Variant::HwBarrier;
    spec.problemSize = 1024;
    spec.threads = 8;
    spec.iterations = 300;
    spec.sample = SampleParams::autoDefaults(0.05);

    const harness::RegionResult res =
        harness::runRegion(info, spec, model);
    EXPECT_DOUBLE_EQ(res.ciTarget, 0.05);
    EXPECT_GE(res.adaptiveIterations, 1u);

    const SampleParams clamps =
        spec.sample.resolvedAdaptive();
    EXPECT_GE(res.convergedPeriod, clamps.minPeriod);
    EXPECT_LE(res.convergedPeriod, clamps.maxPeriod);
    ASSERT_TRUE(res.sampled);
    // Converged: the achieved relative half-width meets the target
    // (the region is long enough that the clamps never bind first).
    EXPECT_LE(res.achievedRelHw, 0.05);
    EXPECT_GT(res.achievedRelHw, 0.0);

    // The committed-instruction count and golden outputs stay exact:
    // compare against an exact (unsampled) run of the same region.
    RunSpec exact = spec;
    exact.sample = SampleParams{};
    workloads::PreparedRun run = info.make(exact);
    const Cycle exact_cycles = run.run().cycles;
    EXPECT_EQ(res.insts, run.system->totalCommittedInsts());
    // And the estimate actually lands near the truth (a much looser
    // check than the CI itself, which is statistical).
    const double err =
        std::abs(static_cast<double>(res.cycles) -
                 static_cast<double>(exact_cycles)) /
        static_cast<double>(exact_cycles);
    EXPECT_LE(err, 0.05);

    // A repeated adaptive run is served from its result entry: it
    // reports the first run's converged schedule and iteration count.
    const harness::RegionResult again =
        harness::runRegion(info, spec, model);
    EXPECT_TRUE(again.warmStarted);
    EXPECT_EQ(again.convergedPeriod, res.convergedPeriod);
    EXPECT_EQ(again.adaptiveIterations, res.adaptiveIterations);
    expectSameResult(again, res);

    cache.clear();
}

} // namespace
} // namespace remap
