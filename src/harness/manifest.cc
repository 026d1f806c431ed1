#include "harness/manifest.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "harness/snapshot_cache.hh"
#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/rng.hh"

namespace remap::harness
{

namespace
{

std::string &
labelStorage()
{
    static std::string label = "run";
    return label;
}

/** 16-digit hex rendering of a 64-bit hash (stable across hosts). */
std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

void
setExperimentLabel(const std::string &label)
{
    labelStorage() = label;
    setLogContext(label);
}

const std::string &
experimentLabel()
{
    return labelStorage();
}

bool
manifestsEnabled()
{
    return !env::manifestDir().empty();
}

std::string
writeRunManifest(const std::vector<RegionJob> &jobs,
                 const std::vector<RegionResult> &results,
                 const std::vector<JobTiming> &timings,
                 unsigned pool_workers, const std::string &path,
                 const JobPool *pool)
{
    std::string out_path = path;
    if (out_path.empty()) {
        const std::string dir = env::manifestDir();
        if (dir.empty())
            return "";
        static std::atomic<std::uint64_t> seq{0};
        out_path = dir + "/" + experimentLabel() +
                   "_manifest_" +
                   std::to_string(seq.fetch_add(1)) + ".json";
    }

    std::ofstream os(out_path);
    if (!os) {
        REMAP_WARN("cannot write run manifest '%s'",
                   out_path.c_str());
        return "";
    }

    json::Writer w(os);
    w.beginObject();
    w.kv("schema_version", 2);
    w.kv("experiment", experimentLabel());
    w.key("host");
    w.beginObject();
    w.kv("hardware_concurrency",
         std::uint64_t(std::thread::hardware_concurrency()));
    if (const char *env = std::getenv("REMAP_JOBS"))
        w.kv("remap_jobs", env);
    else
        w.key("remap_jobs").nullValue();
    w.kv("pool_workers", pool_workers);
    w.endObject();
    // Pool lifetime counters (monotonic over the process, so two
    // manifests from one driver may share history).
    if (pool) {
        w.key("pool");
        w.beginObject();
        w.kv("jobs_executed", pool->jobsExecuted());
        w.kv("steals", pool->steals());
        w.kv("max_queue_depth", pool->maxQueueDepth());
        w.endObject();
    }
    // Process-wide singleton caches via the same hook registry the
    // stats "sim" subtree uses: "snapshot_cache" (touching the
    // singleton registers its hook).
    SnapshotCache::instance();
    prof::dumpMetaHooks(w);
    // Process-wide host-time attribution by exclusive phase (only
    // when REMAP_PROFILE was set for the run).
    if (prof::envEnabled()) {
        w.key("host_phases");
        prof::dumpSamplesJson(w, prof::processSamples());
    }
    // Workload inputs are synthetic and fully deterministic; the
    // RunSpec below (plus the fixed RNG seed all input synthesis
    // uses) is the complete reproduction recipe for a job.
    w.kv("deterministic_inputs", true);
    w.kv("rng_seed", hex64(Rng::defaultSeed));
    w.key("jobs");
    w.beginArray();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const RegionJob &job = jobs[i];
        w.beginObject();
        w.kv("workload", job.info ? job.info->name : "");
        w.kv("variant", workloads::variantName(job.spec.variant));
        w.key("spec");
        w.beginObject();
        w.kv("problem_size", job.spec.problemSize);
        w.kv("threads", job.spec.threads);
        w.kv("copies", job.spec.copies);
        w.kv("iterations", job.spec.iterations);
        w.endObject();
        if (i < results.size()) {
            w.key("result");
            w.beginObject();
            w.kv("cycles", results[i].cycles);
            w.kv("energy_j", results[i].energyJ);
            w.kv("work_units", results[i].work);
            w.kv("cycles_per_unit", results[i].cyclesPerUnit());
            // Cache provenance: which simulated configuration the run
            // hashed to, and whether it was served from its stored
            // result (identical either way).
            if (results[i].configHash != 0)
                w.kv("config_hash", hex64(results[i].configHash));
            w.kv("warm_started", results[i].warmStarted);
            w.kv("snapshot_boundary", results[i].snapshotBoundary);
            w.endObject();
        }
        if (i < timings.size()) {
            w.kv("wall_ms", timings[i].wallMs);
            w.kv("worker", timings[i].worker);
            // Per-job host CPU milliseconds by exclusive phase
            // (REMAP_PROFILE runs; phases with no samples omitted).
            if (prof::envEnabled()) {
                w.key("host_ms");
                w.beginObject();
                for (unsigned p = 0; p < prof::kNumPhases; ++p) {
                    if (const std::uint64_t n = timings[i].samples[p])
                        w.kv(prof::phaseName(static_cast<prof::Phase>(p)),
                             static_cast<double>(n) * prof::kSampleMs);
                }
                w.endObject();
            }
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return out_path;
}

} // namespace remap::harness
