/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: how many
 * simulated instructions/cycles per host-second the core, cache and
 * fabric models deliver. Besides the console report, the binary
 * writes BENCH_sim_speed.json (schema v2: host metadata plus one
 * record per benchmark with the sim rate and per-iteration wall
 * milliseconds) into the working directory; the copy at the repo
 * root is the tracked baseline for spotting simulator throughput
 * regressions across PRs. Host wall times on shared CI boxes are
 * noisy — compare the sim_*_per_s rates, not wall_ms_per_iter.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "harness/snapshot_cache.hh"
#include "harness/parallel.hh"
#include "sim/json.hh"
#include "sim/profile.hh"
#include "isa/builder.hh"
#include "mem/mem_system.hh"
#include "spl/function.hh"
#include "workloads/workload.hh"

using namespace remap;

namespace
{

isa::Program
makeLoop(unsigned iters)
{
    isa::ProgramBuilder b("loop");
    b.li(1, 0).li(2, 0).li(3, iters).li(4, 0x10000);
    b.label("loop")
        .bge(1, 3, "done")
        .andi(5, 1, 1023)
        .slli(5, 5, 3)
        .add(5, 5, 4)
        .ld(6, 5, 0)
        .add(2, 2, 6)
        .sd(2, 5, 0)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    return b.build();
}

void
BM_CoreSimulation(benchmark::State &state)
{
    auto prog = makeLoop(10000);
    std::uint64_t insts = 0, cycles = 0;
    for (auto _ : state) {
        sys::System sys(sys::SystemConfig::ooo1Cluster(1));
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        cycles += sys.run().cycles;
        insts += sys.core(0).committedInsts.value();
    }
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreSimulation)->Unit(benchmark::kMillisecond);

/**
 * The event-horizon scheduler's target case: a dependent-load miss
 * chain where every load lands 4 KiB past the previous one, misses
 * to DRAM, and feeds the next address. The core spends ~200 of
 * every ~205 cycles stalled on one outstanding load, so nearly the
 * whole run is leapable; REMAP_NO_LEAP=1 recovers the per-cycle
 * cost for comparison.
 */
void
BM_EventHorizon(benchmark::State &state)
{
    isa::ProgramBuilder b("chase");
    b.li(1, 0).li(2, 2000).li(3, 0x100000).li(4, 4096).li(6, 0);
    b.label("loop")
        .bge(1, 2, "done")
        .add(3, 3, 6) // fold the loaded value into the next address
        .ld(6, 3, 0)  // 4 KiB stride: misses L1/L2 every time
        .add(3, 3, 4)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    auto prog = b.build();
    std::uint64_t insts = 0, cycles = 0;
    for (auto _ : state) {
        sys::System sys(sys::SystemConfig::ooo1Cluster(1));
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        cycles += sys.run().cycles;
        insts += sys.core(0).committedInsts.value();
    }
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventHorizon)->Unit(benchmark::kMillisecond);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::MemSystem mem(4);
    Cycle now = 0;
    std::uint64_t accesses = 0;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr = (addr * 1103515245 + 12345) & 0xfffff;
        now = mem.access(addr & 3,
                         addr * 64,
                         mem::AccessKind::Read, now) + 1;
        ++accesses;
    }
    state.counters["accesses_per_s"] = benchmark::Counter(
        static_cast<double>(accesses),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheAccess);

void
BM_FabricThroughput(benchmark::State &state)
{
    spl::SplParams params;
    spl::ConfigStore store;
    ConfigId cfg = store.add(spl::functions::passthrough(1));
    spl::BarrierUnit barriers(params);
    spl::SplFabric fabric(0, params, &store, &barriers);
    barriers.attachFabrics({&fabric});
    for (unsigned c = 0; c < 4; ++c)
        fabric.threadTable().map(c, c, 0);
    Cycle now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (unsigned c = 0; c < 4; ++c) {
            if (fabric.canInit(c, -1)) {
                fabric.load(c, 0, 1);
                fabric.init(c, cfg, -1, now);
                ++ops;
            }
            if (fabric.outputReady(c, now))
                benchmark::DoNotOptimize(fabric.popOutput(c));
        }
        fabric.tick(now);
        ++now;
    }
    state.counters["fabric_ops_per_s"] = benchmark::Counter(
        static_cast<double>(ops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricThroughput);

void
BM_SplFunctionEval(benchmark::State &state)
{
    auto fn = spl::functions::hmmerMc(-100000000);
    std::vector<std::int32_t> in = {10, 20, 5, 1, 50, -10, 7, 2,
                                    100};
    std::uint64_t evals = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fn.evaluate(in));
        in[0] ^= 1;
        ++evals;
    }
    state.counters["evals_per_s"] = benchmark::Counter(
        static_cast<double>(evals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SplFunctionEval);

/**
 * Fan a batch of independent region simulations across the job pool
 * (REMAP_JOBS workers). Measures harness overhead + scaling; on a
 * single-core host this degenerates to the serial loop.
 */
void
BM_ParallelHarness(benchmark::State &state)
{
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {8u, 16u, 32u, 64u}) {
        workloads::RunSpec spec;
        spec.variant = workloads::Variant::HwBarrier;
        spec.problemSize = size;
        spec.threads = 8;
        jobs.push_back(harness::RegionJob{&info, spec});
    }
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelHarness)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * A miniature figure-style sweep: multiple sizes x variant series of
 * whole System simulations submitted as one batch, the same shape as
 * the fig12 driver. This is the headline wall-clock number for the
 * experiment pipeline.
 */
void
BM_FigureSweep(benchmark::State &state)
{
    using workloads::Variant;
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    struct Series
    {
        Variant v;
        unsigned p;
    };
    const std::vector<Series> series = {{Variant::Seq, 1},
                                        {Variant::SwBarrier, 8},
                                        {Variant::HwBarrier, 8},
                                        {Variant::HwBarrier, 16}};
    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {8u, 16u, 32u}) {
        for (const Series &s : series) {
            workloads::RunSpec spec;
            spec.variant = s.v;
            spec.problemSize = size;
            spec.threads = s.p;
            jobs.push_back(harness::RegionJob{&info, spec});
        }
    }
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FigureSweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The long-region batch both sampled-sweep benchmarks run: big
 *  enough that the default SMARTS schedule fast-forwards through
 *  most of each run. */
std::vector<harness::RegionJob>
makeSampledSweepJobs(bool sampled)
{
    using workloads::Variant;
    std::vector<harness::RegionJob> jobs;
    auto add = [&jobs, sampled](const char *name, unsigned size,
                                unsigned iterations) {
        workloads::RunSpec spec;
        spec.variant = Variant::HwBarrier;
        spec.problemSize = size;
        spec.threads = 8;
        spec.iterations = iterations;
        if (sampled) {
            // A sparser schedule than REMAP_SAMPLE=1's default: these
            // regions are millions of instructions, so P = 200k still
            // yields 25+ windows (comfortably tight CIs) while the
            // detailed fraction drops from 6% to 1.5% — the canonical
            // SMARTS operating point for long runs.
            spec.sample = sampling::SampleParams{200000, 2000, 1000};
        }
        jobs.push_back(
            harness::RegionJob{&workloads::byName(name), spec});
    };
    // Long regions (millions of committed instructions) so the
    // per-job setup cost is amortized and the schedule spends the
    // bulk of each run fast-forwarding — the regime sampling exists
    // for. Short regions collapse to exact runs and measure nothing.
    add("ll3", 1024, 300);
    add("dijkstra", 256, 0);
    return jobs;
}

/** Exact baseline for BM_SampledSweep: the same long regions fully
 *  detailed. The wall_ms_per_iter ratio of the two benchmarks is
 *  the tracked sampled-mode speedup (DESIGN.md §14). */
void
BM_SampledSweepExact(benchmark::State &state)
{
    power::EnergyModel model;
    auto jobs = makeSampledSweepJobs(/*sampled=*/false);
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSweepExact)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The same batch under the default SMARTS schedule. sim_cycles here
 *  counts *extrapolated* cycles (what the figure pipeline consumes),
 *  so the rate reads as effective simulated cycles per host-second;
 *  the honest host-time comparison is wall_ms_per_iter vs. the exact
 *  benchmark above. */
void
BM_SampledSweep(benchmark::State &state)
{
    power::EnergyModel model;
    auto jobs = makeSampledSweepJobs(/*sampled=*/true);
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSweep)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * The same sampled batch served from its final-result entries
 * (DESIGN.md §15): a priming pass simulates and stores each run's
 * verified result, then every timed pass is served from those
 * entries without simulating. Results (estimate, instruction counts,
 * energy) equal BM_SampledSweep's field for field; the tracked
 * number is the wall_ms_per_iter ratio against that cold benchmark.
 */
void
BM_SampledReplayWarm(benchmark::State &state)
{
    power::EnergyModel model;
    auto jobs = makeSampledSweepJobs(/*sampled=*/true);
    auto &cache = harness::SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    // Prime: one untimed cold sampled pass stores the results.
    harness::runRegions(jobs, model);
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
    cache.clear();
    cache.setEnabled(false);
}
BENCHMARK(BM_SampledReplayWarm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** The fig12-shaped batch both snapshot-sweep benchmarks run. */
std::vector<harness::RegionJob>
makeSnapshotSweepJobs()
{
    using workloads::Variant;
    const auto &info = workloads::byName("ll2");
    std::vector<harness::RegionJob> jobs;
    for (unsigned size : {16u, 32u, 64u}) {
        for (Variant v :
             {Variant::Seq, Variant::SwBarrier, Variant::HwBarrier}) {
            workloads::RunSpec spec;
            spec.variant = v;
            spec.problemSize = size;
            spec.threads = v == Variant::Seq ? 1 : 8;
            jobs.push_back(harness::RegionJob{&info, spec});
        }
    }
    return jobs;
}

/**
 * The BM_FigureSweep-style batch with the snapshot cache disabled:
 * every region simulates from cycle 0. Baseline for
 * BM_SnapshotSweepWarm below; the warm/cold wall_ms_per_iter ratio in
 * BENCH_sim_speed.json is the tracked speedup of served repeats.
 */
void
BM_SnapshotSweepCold(benchmark::State &state)
{
    power::EnergyModel model;
    auto jobs = makeSnapshotSweepJobs();
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotSweepCold)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * The same batch served from a pre-primed snapshot cache's
 * final-result entries, the steady state of a figure driver
 * re-running shared baselines: no region simulates. (The name is
 * kept so the tracked BENCH_sim_speed.json row lines up.) Results
 * are bit-identical to the cold sweep; only host time drops.
 * (sim_cycles here counts reported cycles, none of them simulated,
 * so compare wall_ms_per_iter against the cold benchmark, not the
 * rate.)
 */
void
BM_SnapshotSweepWarm(benchmark::State &state)
{
    power::EnergyModel model;
    auto jobs = makeSnapshotSweepJobs();
    auto &cache = harness::SnapshotCache::instance();
    cache.setEnabled(true);
    cache.clear();
    // Prime: one untimed cold pass stores the results.
    harness::runRegions(jobs, model);
    std::uint64_t sim_cycles = 0, sim_insts = 0;
    for (auto _ : state) {
        auto results = harness::runRegions(jobs, model);
        for (const auto &r : results) {
            sim_cycles += r.cycles;
            sim_insts += r.insts;
        }
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        static_cast<double>(sim_cycles),
        benchmark::Counter::kIsRate);
    state.counters["sim_insts_per_s"] = benchmark::Counter(
        static_cast<double>(sim_insts),
        benchmark::Counter::kIsRate);
    cache.clear();
    cache.setEnabled(false);
}
BENCHMARK(BM_SnapshotSweepWarm)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Console reporter that additionally collects one JSON record per
 * benchmark and writes the tracked BENCH_sim_speed.json baseline.
 */
class BaselineReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const Run &r : runs) {
            // Aggregates (_mean/_stddev/_cv under
            // --benchmark_repetitions) are not runs.
            if (r.error_occurred || r.run_type == Run::RT_Aggregate)
                continue;
            Entry e;
            // Record names without the "/real_time" suffix
            // UseRealTime() adds, so they match the tracked baseline.
            benchmark::BenchmarkName name = r.run_name;
            name.time_type.clear();
            e.name = name.str();
            e.iterations = r.iterations;
            e.wallMs = r.iterations > 0
                           ? r.real_accumulated_time /
                                 static_cast<double>(r.iterations) *
                                 1e3
                           : 0.0;
            auto insts = r.counters.find("sim_insts_per_s");
            if (insts != r.counters.end())
                e.simInstsPerS = insts->second;
            auto cycles = r.counters.find("sim_cycles_per_s");
            if (cycles != r.counters.end())
                e.simCyclesPerS = cycles->second;
            // Benchmarks that don't simulate whole systems report
            // their own unit rates (accesses_per_s, fabric_ops_per_s,
            // evals_per_s, ...): pass every other *_per_s counter
            // through so no record is left without a tracked rate.
            for (const auto &[name, counter] : r.counters) {
                if (name == "sim_insts_per_s" ||
                    name == "sim_cycles_per_s")
                    continue;
                const std::string suffix = "_per_s";
                if (name.size() > suffix.size() &&
                    name.compare(name.size() - suffix.size(),
                                 suffix.size(), suffix) == 0)
                    e.rates.emplace_back(name, double(counter));
            }
            entries_.push_back(std::move(e));
        }
    }

    bool
    writeJson(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        json::Writer w(out);
        w.beginObject();
        w.kv("schema_version", 2);
        w.key("host");
        w.beginObject();
        w.kv("hardware_concurrency",
             std::uint64_t(std::thread::hardware_concurrency()));
        if (const char *env = std::getenv("REMAP_JOBS"))
            w.kv("remap_jobs", env);
        else
            w.key("remap_jobs").nullValue();
        w.kv("pool_workers",
             remap::harness::JobPool::defaultWorkers());
        w.endObject();
        w.kv("wall_time_unit", "ms_per_iteration");
        w.key("benchmarks");
        w.beginArray();
        for (const Entry &e : entries_) {
            w.beginObject();
            w.kv("name", e.name);
            w.kv("iterations", e.iterations);
            if (e.simInstsPerS > 0)
                w.kv("sim_insts_per_s", e.simInstsPerS);
            else
                w.key("sim_insts_per_s").nullValue();
            if (e.simCyclesPerS > 0)
                w.kv("sim_cycles_per_s", e.simCyclesPerS);
            else
                w.key("sim_cycles_per_s").nullValue();
            for (const auto &[name, value] : e.rates)
                w.kv(name, value);
            w.kv("wall_ms_per_iter", e.wallMs);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << '\n';
        return out.good();
    }

  private:
    struct Entry
    {
        std::string name;
        std::int64_t iterations = 0;
        double simInstsPerS = 0.0;
        double simCyclesPerS = 0.0;
        /** Benchmark-specific unit rates (name ends in _per_s). */
        std::vector<std::pair<std::string, double>> rates;
        double wallMs = 0.0;
    };
    std::vector<Entry> entries_;
};

} // namespace

int
main(int argc, char **argv)
{
    remap::harness::setExperimentLabel("sim_speed");
    // The throughput benchmarks measure raw simulation speed; a warm
    // snapshot cache would let later iterations skip the simulation
    // being measured. Only BM_SnapshotSweepWarm re-enables it.
    remap::harness::SnapshotCache::instance().setEnabled(false);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    BaselineReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!reporter.writeJson("BENCH_sim_speed.json")) {
        std::fprintf(stderr,
                     "failed to write BENCH_sim_speed.json\n");
        return 1;
    }
    remap::harness::printSnapshotCacheSummary();
    if (remap::prof::envEnabled()) {
        std::fprintf(stderr, "host-time profile (process-wide):\n");
        std::ostringstream os;
        remap::prof::processSnapshot().dump(os);
        std::fputs(os.str().c_str(), stderr);
    }
    return 0;
}
