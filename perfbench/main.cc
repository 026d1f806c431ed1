/**
 * @file
 * perfbench: the repository benchmark. Runs one workload (barriers or
 * paper_suite, see README.md) through the public parallel
 * harness on an explicitly sized JobPool for a fixed time, checks every
 * result, and prints one JSON result line last: the end-to-end metrics,
 * or with --trace 1 the per-layer metrics of a traced run.
 *
 *   perfbench --workload barriers --seed 1 --seconds 50 --trace 0
 *
 * perfbench/run.py builds this program and adds the set-up time.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "sim/json.hh"

#include "jobs.hh"
#include "traced.hh"

extern char **environ;

namespace
{

using namespace perfbench;
using remap::harness::JobPool;
using remap::harness::JobTiming;
using remap::harness::RegionJob;
using remap::harness::RegionResult;
using remap::harness::SnapshotCache;

/** Taken during static initialization: the process-start reference
 *  for the in-process set-up time. */
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 50;
    bool trace = false;
    bool setupOnly = false;
    std::string spansOut;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = next();
            else if (a == "--seed")
                o.seed = std::stoull(next());
            else if (a == "--seconds")
                o.seconds = std::stod(next());
            else if (a == "--trace")
                o.trace = std::stoi(next()) != 0;
            else if (a == "--spans-out")
                o.spansOut = next();
            else if (a == "--setup-only")
                o.setupOnly = true;
            else
                die("unknown argument " + a);
        } catch (const std::exception &) {
            die("bad value for " + a);
        }
    }
    return o;
}

/**
 * Refuse environment switches that would change what is measured:
 * on-disk snapshots (a REMAP_CKPT directory warms later runs),
 * sampled mode, manifests, tracing, fast-path kill switches and host
 * profiling (which inflates host time 1.6-2.8x, traced run included).
 * REMAP_JOBS is ignored: the pool is sized explicitly.
 */
void
requireHermeticEnv()
{
    for (char **e = environ; *e; ++e) {
        const std::string_view kv(*e);
        const std::string_view name = kv.substr(0, kv.find('='));
        const bool bad = name.starts_with("REMAP_CKPT") ||
                         name.starts_with("REMAP_NO_") ||
                         name.starts_with("REMAP_SAMPLE") ||
                         name.starts_with("REMAP_MANIFEST") ||
                         name.starts_with("REMAP_TRACE") ||
                         name == "REMAP_PROFILE";
        if (bad)
            die(std::string(name) +
                " is set; unset it to measure the default exact, "
                "in-memory configuration");
    }
}

unsigned
hostCpus()
{
    cpu_set_t set{};
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
loadAverage()
{
    double la[3] = {0, 0, 0};
    if (getloadavg(la, 3) != 3)
        return "unknown";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %.2f %.2f", la[0], la[1], la[2]);
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p p (0-100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** The highest whole percentile with at least ten of @p n samples
 *  beyond it. */
unsigned
tailPercentile(std::size_t n)
{
    if (n <= 20)
        return 50;
    return static_cast<unsigned>(
        std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))));
}

/** A workload's batches plus the seed's submission order. */
struct Plan
{
    std::vector<Batch> batches;
    /** Per batch: canonical index (within the batch) of the k-th
     *  submitted job. */
    std::vector<std::vector<std::size_t>> order;
    /** Per batch: the jobs in submission order. */
    std::vector<std::vector<RegionJob>> submitted;
    /** Per batch: index of its first job in canonical order. */
    std::vector<std::size_t> offset;
    /** Every job, batch after batch, in driver order. */
    std::vector<RegionJob> canonical;
    /** Jobs whose key appeared earlier in the pass, with that index. */
    std::vector<std::pair<std::size_t, std::size_t>> repeats;
};

/**
 * Jobs and submission order for @p workload. Seed 0 keeps the drivers'
 * order. JobPool deals a batch round-robin to @p workers queues, each
 * worker runs its own queue newest-first and steals from the next
 * queues in cyclic order. Other seeds permute the order by rotating
 * which queue each job is dealt to, by a seeded amount per batch: a
 * worker gets another worker's job sequence and the schedule keeps its
 * shape. Freer permutations decide when a region-set batch's longest
 * job (adpcm OOO2+Comm, over 90% of the batch wall) starts, and wall
 * time would measure that luck instead of the simulator: 5.1 to 8.3 s
 * over six seeds for a free shuffle of the Fig. 8-11 region set.
 */
Plan
makePlan(const std::string &workload, std::uint64_t seed, unsigned workers)
{
    Plan p;
    p.batches = makeBatches(workload);
    std::mt19937_64 rng(seed);
    std::map<std::string, std::size_t> first;
    for (const Batch &b : p.batches) {
        std::vector<std::size_t> queue(std::min<std::size_t>(workers,
                                                             b.jobs.size()));
        for (std::size_t q = 0; q < queue.size(); ++q)
            queue[q] = q;
        if (seed != 0)
            std::rotate(queue.begin(), queue.begin() + rng() % queue.size(),
                        queue.end());
        // Job k lands in queue k % workers at depth k / workers; move
        // it to queue queue[k % workers] at the same depth (a partial
        // last row keeps the rotation's order among the queues it has).
        std::vector<std::size_t> ord(b.jobs.size());
        for (std::size_t k = 0; k < ord.size(); ++k)
            ord[k] = k;
        for (std::size_t row = 0; row < ord.size(); row += workers) {
            const std::size_t width = std::min<std::size_t>(
                workers, ord.size() - row);
            std::vector<std::size_t> cols;
            for (std::size_t q : queue)
                if (q < width)
                    cols.push_back(q);
            for (std::size_t c = 0; c < width; ++c)
                ord[row + cols[c]] = row + c;
        }
        std::vector<RegionJob> sub;
        for (std::size_t k : ord)
            sub.push_back(b.jobs[k]);
        p.offset.push_back(p.canonical.size());
        for (const RegionJob &j : b.jobs) {
            const auto [it, fresh] =
                first.emplace(jobKey(j), p.canonical.size());
            if (!fresh)
                p.repeats.emplace_back(p.canonical.size(), it->second);
            p.canonical.push_back(j);
        }
        p.order.push_back(std::move(ord));
        p.submitted.push_back(std::move(sub));
    }
    return p;
}

/** One pass over every batch of a plan. */
struct Pass
{
    double wallS = 0;
    std::vector<RegionResult> results; ///< canonical order
    std::vector<double> jobMs;         ///< canonical order
    double longestJobS = 0;            ///< summed over batches
    double batchWallS = 0;             ///< summed over batches
    std::uint64_t steals = 0;
    std::uint64_t maxQueueDepth = 0;
    SnapshotCache::Stats cacheBefore, cacheAfter;
    std::vector<Span> batchSpans;      ///< one root span per batch
    std::vector<TracedJob> traced;     ///< canonical order (traced pass)
};

bool
sameResult(const RegionResult &a, const RegionResult &b)
{
    return a.cycles == b.cycles && a.insts == b.insts &&
           std::memcmp(&a.energyJ, &b.energyJ, sizeof(double)) == 0 &&
           a.work == b.work;
}

std::size_t
mismatches(const std::vector<RegionResult> &a,
           const std::vector<RegionResult> &b)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        bad += !sameResult(a[i], b[i]);
    return bad;
}

/** FNV-1a over each job's (cycles, insts, energy bits), in canonical
 *  order: equal digests mean equal simulated results. */
std::uint64_t
digest(const std::vector<RegionResult> &results)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const RegionResult &r : results) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &r.energyJ, sizeof(bits));
        mix(r.cycles);
        mix(r.insts);
        mix(bits);
    }
    return h;
}

/**
 * Run every batch of @p plan, in order, from an empty snapshot cache.
 * Untraced passes submit through harness::runRegions; traced passes
 * submit runTracedRegion jobs to the same pool.
 */
Pass
runPass(const Plan &plan, JobPool &pool,
        const remap::power::EnergyModel &model, bool traced)
{
    SnapshotCache &cache = SnapshotCache::instance();
    cache.clear();
    Pass ps;
    const std::size_t n = plan.canonical.size();
    ps.results.resize(n);
    ps.jobMs.resize(n);
    if (traced)
        ps.traced.resize(n);
    ps.cacheBefore = cache.stats();
    const std::uint64_t steals0 = pool.steals();

    const Clock::time_point t0 = Clock::now();
    for (std::size_t b = 0; b < plan.batches.size(); ++b) {
        const std::vector<RegionJob> &jobs = plan.submitted[b];
        const std::vector<std::size_t> &ord = plan.order[b];
        const std::size_t base = plan.offset[b];
        const Clock::time_point tb = Clock::now();
        std::vector<JobTiming> timings;
        if (traced) {
            std::vector<std::function<void()>> fns;
            for (std::size_t k = 0; k < jobs.size(); ++k) {
                const std::size_t c = base + ord[k];
                fns.push_back([&, k, c] {
                    ps.traced[c] = runTracedRegion(
                        jobs[k], model, t0, static_cast<std::uint32_t>(c));
                });
            }
            timings = pool.run(std::move(fns));
        } else {
            std::vector<RegionResult> res =
                remap::harness::runRegions(jobs, model, &pool, &timings);
            for (std::size_t k = 0; k < jobs.size(); ++k)
                ps.results[base + ord[k]] = res[k];
        }
        const double wall = secondsSince(tb);

        Span bs;
        bs.name = plan.batches[b].label.c_str();
        bs.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         tb - t0)
                         .count();
        bs.durNs = static_cast<std::int64_t>(wall * 1e9);
        bs.job = static_cast<std::uint32_t>(b);
        bs.worker = pool.workers(); // its own lane, after the workers
        ps.batchSpans.push_back(bs);

        double longest = 0;
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            const std::size_t c = base + ord[k];
            ps.jobMs[c] = timings[k].wallMs;
            longest = std::max(longest, timings[k].wallMs);
            if (traced) {
                ps.results[c] = ps.traced[c].result;
                for (Span &s : ps.traced[c].spans)
                    s.worker = timings[k].worker;
            }
        }
        ps.longestJobS += longest / 1e3;
        ps.batchWallS += wall;
    }
    ps.wallS = secondsSince(t0);
    ps.steals = pool.steals() - steals0;
    ps.maxQueueDepth = pool.maxQueueDepth();
    ps.cacheAfter = cache.stats();
    return ps;
}

/** Repeated jobs whose result differs from their first run. */
std::size_t
repeatMismatches(const Plan &plan, const Pass &ps)
{
    std::size_t bad = 0;
    for (const auto &[later, first] : plan.repeats)
        bad += !sameResult(ps.results[later], ps.results[first]);
    return bad;
}

/** The harness-layer metrics of one pass. */
std::vector<Metric>
harnessMetrics(const Plan &plan, const Pass &ps, unsigned workers)
{
    double busy_ms = 0;
    for (double ms : ps.jobMs)
        busy_ms += ms;
    const auto d = [&](std::uint64_t SnapshotCache::Stats::*f) {
        return static_cast<double>(ps.cacheAfter.*f - ps.cacheBefore.*f);
    };
    const double hits = d(&SnapshotCache::Stats::hits);
    const double misses = d(&SnapshotCache::Stats::misses);
    return {
        {"harness.pool_busy_frac", busy_ms / 1e3 / (workers * ps.wallS),
         "frac"},
        {"harness.critical_job_frac", ps.longestJobS / ps.batchWallS,
         "frac"},
        {"harness.steals", static_cast<double>(ps.steals), "count"},
        {"harness.max_queue_depth", static_cast<double>(ps.maxQueueDepth),
         "count"},
        {"harness.repeat_jobs", static_cast<double>(plan.repeats.size()),
         "count"},
        {"harness.snapshot_hits", hits, "count"},
        {"harness.snapshot_misses", misses, "count"},
        {"harness.snapshot_stores", d(&SnapshotCache::Stats::stores),
         "count"},
        {"harness.snapshot_hit_ratio",
         hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac"},
        {"harness.snapshot_resident_mb",
         static_cast<double>(ps.cacheAfter.bytes) / (1024.0 * 1024.0),
         "MB"},
    };
}

/** All spans of a traced pass: batch roots, then each job's spans
 *  re-parented under its batch. */
std::vector<Span>
passSpans(const Plan &plan, const Pass &ps)
{
    std::vector<Span> all = ps.batchSpans;
    for (std::size_t b = 0; b < plan.batches.size(); ++b) {
        for (std::size_t k = 0; k < plan.batches[b].jobs.size(); ++k) {
            const std::vector<Span> &js =
                ps.traced[plan.offset[b] + k].spans;
            const auto base = static_cast<std::int32_t>(all.size());
            for (Span s : js) {
                s.parent = s.parent < 0 ? static_cast<std::int32_t>(b)
                                        : s.parent + base;
                all.push_back(s);
            }
        }
    }
    return all;
}

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Median, per metric name, of the per-pass values (names and units
 *  are the same in every pass). */
std::vector<Metric>
medianMetrics(const std::vector<std::vector<Metric>> &per_pass)
{
    std::vector<Metric> out = per_pass.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const std::vector<Metric> &m : per_pass)
            v.push_back(m[i].value);
        out[i].value = median(v);
    }
    return out;
}

Outcome
measure(const Options &o, const Plan &plan, JobPool &pool,
        const remap::power::EnergyModel &model)
{
    Outcome out;
    const std::size_t n = plan.canonical.size();
    const unsigned tail_p = tailPercentile(n);
    const Clock::time_point start = Clock::now();
    std::vector<RegionResult> reference;
    std::vector<std::vector<Metric>> per_pass;
    std::optional<Pass> first_traced; // spans and counts reference
    std::vector<double> walls, job_p50, job_tail; // per untraced pass

    // Two passes (one untraced/traced pair with --trace 1), then more
    // while another fits in the time left.
    const std::size_t min_rounds = o.trace ? 1 : 2;
    double round_s = 0;
    while (per_pass.size() < min_rounds ||
           secondsSince(start) + round_s <= o.seconds) {
        const Clock::time_point round_start = Clock::now();
        Pass ps = runPass(plan, pool, model, /*traced=*/false);
        out.attempted += n;
        if (reference.empty())
            reference = ps.results;
        out.failed += mismatches(ps.results, reference);
        out.failed += repeatMismatches(plan, ps);
        walls.push_back(ps.wallS);
        job_p50.push_back(median(ps.jobMs));
        job_tail.push_back(percentile(ps.jobMs, tail_p));

        if (!o.trace) {
            std::uint64_t insts = 0;
            for (const RegionResult &r : ps.results)
                insts += r.insts;
            per_pass.push_back({
                {"wall_s", ps.wallS, "s"},
                {"sim_minsts_per_s", insts / ps.wallS / 1e6, "Minst/s"},
            });
            round_s = secondsSince(round_start);
            continue;
        }

        Pass tp = runPass(plan, pool, model, /*traced=*/true);
        out.attempted += n;
        out.failed += mismatches(tp.results, reference);
        out.failed += repeatMismatches(plan, tp);
        for (std::size_t c = 0; c < n; ++c) {
            const TracedJob &tj = tp.traced[c];
            bool bad = !tj.verified || tj.timedOut;
            if (first_traced)
                bad |= tj.counters != first_traced->traced[c].counters;
            out.failed += bad;
        }
        std::vector<Metric> m = layerMetrics(tp.traced, plan.canonical);
        for (Metric &h : harnessMetrics(plan, tp, pool.workers()))
            m.push_back(std::move(h));
        m.push_back({"trace.overhead_frac", tp.wallS / ps.wallS - 1.0,
                     "frac"});
        m.push_back({"harness.job_ms_p50", job_p50.back(), "ms"});
        m.push_back({"harness.job_ms_tail", job_tail.back(), "ms"});
        per_pass.push_back(std::move(m));
        if (!first_traced)
            first_traced = std::move(tp);
        round_s = secondsSince(round_start);
    }

    out.metrics = medianMetrics(per_pass);
    if (!o.trace)
        out.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});

    std::printf("# passes %zu, %zu jobs per pass, results digest %016llx\n",
                walls.size(), n,
                static_cast<unsigned long long>(digest(reference)));
    std::printf("# untraced pass wall_s:");
    for (double w : walls)
        std::printf(" %.3f", w);
    for (std::size_t i = 1; !o.trace && i < per_pass.front().size(); ++i) {
        std::printf("\n# pass %s:", per_pass.front()[i].name.c_str());
        for (const std::vector<Metric> &m : per_pass)
            std::printf(" %.4g", m[i].value);
    }
    std::printf("\n# untraced pass job ms p50:");
    for (double v : job_p50)
        std::printf(" %.4g", v);
    std::printf("\n# untraced pass job ms p%u:", tail_p);
    for (double v : job_tail)
        std::printf(" %.4g", v);
    std::printf("\n# job ms tail is p%u over %zu jobs per pass\n", tail_p,
                n);

    if (o.trace) {
        const Pass &tp = *first_traced;
        std::printf("# traced digest %016llx\n",
                    static_cast<unsigned long long>(digest(tp.results)));
        if (!o.spansOut.empty()) {
            std::ofstream f(o.spansOut);
            writeSpansJson(f, passSpans(plan, tp));
            if (!f)
                die("cannot write " + o.spansOut);
            std::printf("# spans written to %s\n", o.spansOut.c_str());
        }
    }
    return out;
}

void
printResult(const Outcome &out)
{
    remap::json::Writer w(std::cout);
    w.beginObject();
    w.kv("correct", out.failed == 0);
    w.kv("attempted", out.attempted);
    w.kv("failed", out.failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : out.metrics) {
        w.key(m.name);
        w.beginObject();
        w.kvExact("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    requireHermeticEnv();
    // The paper suite's reference worker count, capped by the host.
    const unsigned cpus = hostCpus();
    const unsigned workers = std::min(4u, cpus);

    // Set-up: registry, energy model, pool threads and job list.
    remap::power::EnergyModel model;
    JobPool pool(workers);
    const Plan plan = makePlan(o.workload, o.seed, workers);
    if (plan.canonical.empty())
        die("--workload must be barriers or paper_suite");
    const double setup_s = secondsSince(kProcessStart);
    if (o.setupOnly) {
        std::printf("%.9f\n", setup_s);
        return 0;
    }

    std::printf("# perfbench workload %s, seed %llu, seconds %g, trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("# host: %u CPUs, %u workers, load average %s at start\n",
                cpus, workers, loadAverage().c_str());
    std::printf("# build: %s, flags \"%s\", %s\n", PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER);
    std::printf("# in-process set-up %.4f s\n", setup_s);

    const Outcome out = measure(o, plan, pool, model);
    std::printf("# load average %s at end\n", loadAverage().c_str());
    printResult(out);
    return 0;
}
