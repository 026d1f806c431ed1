#include "traced.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "harness/snapshot_cache.hh"
#include "sim/json.hh"
#include "sim/json_value.hh"
#include "sim/snapshot.hh"

#include "jobs.hh"

namespace perfbench
{

using remap::Cycle;
using remap::harness::RegionJob;
using remap::harness::RegionResult;
using remap::harness::SnapshotCache;

namespace
{

/** Opens nested spans on one job's span list. */
class SpanRecorder
{
  public:
    SpanRecorder(std::vector<Span> &spans, Clock::time_point origin,
                 std::uint32_t job)
        : spans_(spans), origin_(origin), job_(job)
    {
    }

    void
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.startNs = sinceOrigin();
        s.parent = stack_.empty() ? -1
                                  : static_cast<std::int32_t>(stack_.back());
        s.job = job_;
        spans_.push_back(s);
        stack_.push_back(spans_.size() - 1);
    }

    void
    close()
    {
        Span &s = spans_[stack_.back()];
        s.durNs = sinceOrigin() - s.startNs;
        stack_.pop_back();
    }

  private:
    std::int64_t
    sinceOrigin() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    std::vector<Span> &spans_;
    Clock::time_point origin_;
    std::uint32_t job_;
    std::vector<std::size_t> stack_;
};

/** RAII span: open at construction, close at scope exit. */
class Scoped
{
  public:
    Scoped(SpanRecorder &rec, const char *name) : rec_(rec)
    {
        rec_.open(name);
    }
    ~Scoped() { rec_.close(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder &rec_;
};

Counters
readCounters(remap::sys::System &s)
{
    Counters c{};
    c[SimCycles] = s.now();
    for (unsigned i = 0; i < s.numCores(); ++i) {
        remap::cpu::OooCore &core = s.core(i);
        c[CommittedInsts] += core.committedInsts.value();
        c[FusedFetchInsts] += core.blockFusedInsts.value();
        c[GenericFetchInsts] += core.blockGenericInsts.value();
        c[SplCommitStalls] += core.splCommitStalls.value();
        c[SplFetchStalls] += core.splFetchStalls.value();
    }
    remap::mem::MemSystem &mem = s.memSystem();
    for (unsigned i = 0; i < mem.numCores(); ++i) {
        c[L1dHits] += mem.l1d(i).hits.value();
        c[L1dMisses] += mem.l1d(i).misses.value();
        c[L2Hits] += mem.l2(i).hits.value();
        c[L2Misses] += mem.l2(i).misses.value();
        for (remap::mem::Cache *cache :
             {&mem.l1i(i), &mem.l1d(i), &mem.l2(i)}) {
            c[MruHits] += cache->mruHits.value();
            c[MruMisses] += cache->mruMisses.value();
        }
    }
    c[BusTransactions] = mem.busTransactions.value();
    c[C2cTransfers] = mem.cacheToCacheTransfers.value();
    for (unsigned f = 0; f < s.numFabrics(); ++f) {
        remap::spl::SplFabric &fab = s.fabric(f);
        c[Initiations] += fab.initiations.value();
        c[OutputWordsPopped] += fab.outputWordsPopped.value();
        c[RrConflicts] += fab.rrConflicts.value();
        c[ConfigSwitches] += fab.configSwitches.value();
    }
    c[BarriersCompleted] = s.barrierUnit().barriersCompleted.value();
    // The leap counters are only published in the stats JSON.
    std::ostringstream os;
    s.dumpStatsJson(os, /*include_sim=*/true);
    remap::json::Value v;
    try {
        if (remap::json::parse(os.str(), v)) {
            const remap::json::Value &leap = v.at("sim").at("leap");
            c[Leaps] = static_cast<std::uint64_t>(leap.at("leaps").num);
            c[LeapSkippedCycles] =
                static_cast<std::uint64_t>(leap.at("skipped_cycles").num);
        }
    } catch (const std::out_of_range &) {
        // Stats JSON without leap counters: they read as zero.
    }
    return c;
}

/** The body of runRegion's exact, snapshot-cached path. */
void
tracedBody(const RegionJob &job, const remap::power::EnergyModel &model,
           SpanRecorder &rec, TracedJob &out)
{
    // runRegion's cycle limit; it aborts the process past it, the
    // traced path counts the job as failed instead.
    constexpr Cycle kMaxCycles = 400'000'000ULL;
    const remap::workloads::WorkloadInfo &info = *job.info;
    const remap::workloads::RunSpec &spec = job.spec;
    RegionResult &res = out.result;
    SnapshotCache &cache = SnapshotCache::instance();

    remap::workloads::PreparedRun run;
    {
        Scoped s(rec, "make");
        run = info.make(spec);
    }
    run.system->setSampleParams({});

    std::uint64_t hash = 0;
    std::string key;
    {
        Scoped s(rec, "configHash");
        hash = run.system->configHash();
        key = SnapshotCache::makeKey(info.name, spec, hash);
    }
    res.configHash = hash;

    Cycle elapsed = 0;
    Cycle boundary = cache.firstBoundary();
    SnapshotCache::Blob blob;
    {
        Scoped s(rec, "SnapshotCache::lookup");
        Cycle stored = 0;
        blob = cache.lookup(key, hash, &stored);
    }
    if (blob) {
        Scoped s(rec, "System::restore");
        remap::snap::Deserializer d(*blob);
        remap::snap::Header hdr;
        if (remap::snap::readHeader(d, &hdr) && hdr.configHash == hash)
            run.system->restore(d);
        else
            d.fail("header mismatch");
        if (d.ok()) {
            elapsed = hdr.boundaryCycle;
            boundary = hdr.boundaryCycle * 2;
            res.warmStarted = true;
            res.snapshotBoundary = hdr.boundaryCycle;
        } else {
            cache.reject(key);
            run = info.make(spec);
        }
    }

    Counters start{};
    {
        Scoped s(rec, "stats");
        start = readCounters(*run.system);
    }
    for (;;) {
        remap::sys::RunResult seg;
        {
            Scoped s(rec, "runSegment");
            seg = run.system->runSegment(std::min(boundary, kMaxCycles) -
                                         elapsed);
        }
        elapsed += seg.cycles;
        if (!seg.timedOut)
            break;
        if (elapsed >= kMaxCycles) {
            out.timedOut = true;
            break;
        }
        std::vector<std::uint8_t> bytes;
        {
            Scoped s(rec, "System::save");
            remap::snap::Serializer ser;
            remap::snap::writeHeader(ser, hash, elapsed);
            run.system->save(ser);
            bytes = ser.take();
        }
        {
            Scoped s(rec, "SnapshotCache::store");
            cache.store(key, hash, elapsed, std::move(bytes));
        }
        boundary *= 2;
    }
    res.cycles = elapsed;

    {
        Scoped s(rec, "verify");
        out.verified = !run.verify || run.verify();
    }
    res.insts = run.system->totalCommittedInsts();
    const unsigned copies = std::max(1u, spec.copies);
    {
        Scoped s(rec, "measureEnergy");
        res.energyJ = run.system->measureEnergy(model, res.cycles,
                                                /*include_idle_cores=*/false)
                          .totalJ() /
                      copies;
    }
    res.work = run.workUnits / copies;

    {
        Scoped s(rec, "stats");
        const Counters end = readCounters(*run.system);
        for (unsigned i = 0; i < kNumCounters; ++i)
            out.counters[i] = end[i] - start[i];
    }
    {
        Scoped s(rec, "teardown");
        run.system.reset();
        run.programs.clear();
    }
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Host time in each span minus the part its children cover. */
std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = lo + spans[i].durNs;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(lo, spans[c].startNs),
                            std::min(hi, spans[c].startNs + spans[c].durNs));
        std::sort(iv.begin(), iv.end());
        // Length of the union of the (possibly overlapping) children.
        std::int64_t covered = 0, reach = lo;
        for (const auto &[a, b] : iv) {
            const std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[i] = spans[i].durNs - covered;
    }
    return self;
}

} // namespace

TracedJob
runTracedRegion(const RegionJob &job, const remap::power::EnergyModel &model,
                Clock::time_point origin, std::uint32_t index)
{
    TracedJob out;
    SpanRecorder rec(out.spans, origin, index);
    {
        Scoped s(rec, "job");
        tracedBody(job, model, rec, out);
    }
    return out;
}

std::vector<Metric>
layerMetrics(const std::vector<TracedJob> &jobs,
             const std::vector<RegionJob> &specs)
{
    std::map<std::string, double> self_ms; // by span name
    Counters all{};
    double core_jobs_run_ns = 0, core_jobs_insts = 0;
    double fabric_jobs_run_ns = 0, fabric_jobs_inits = 0;
    double job_ms = 0, fabric_job_ms = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const TracedJob &tj = jobs[j];
        const std::vector<std::int64_t> self = selfTimesNs(tj.spans);
        double run_ns = 0;
        for (std::size_t i = 0; i < tj.spans.size(); ++i) {
            self_ms[tj.spans[i].name] += self[i] / 1e6;
            if (std::string_view(tj.spans[i].name) == "runSegment")
                run_ns += tj.spans[i].durNs;
        }
        const double ms = tj.spans.front().durNs / 1e6;
        job_ms += ms;
        const Counters &c = tj.counters;
        for (unsigned i = 0; i < kNumCounters; ++i)
            all[i] += c[i];
        if (isFabricClass(specs[j].spec.variant)) {
            fabric_job_ms += ms;
            fabric_jobs_run_ns += run_ns;
            fabric_jobs_inits += c[Initiations];
        } else if (c[Initiations] == 0 && c[BarriersCompleted] == 0) {
            core_jobs_run_ns += run_ns;
            core_jobs_insts += c[CommittedInsts];
        }
    }
    const auto sum = [&](std::initializer_list<const char *> names) {
        double t = 0;
        for (const char *n : names)
            t += self_ms[n];
        return t;
    };
    const double run_ns = self_ms["runSegment"] * 1e6;
    const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };

    return {
        {"workloads.make_ms", self_ms["make"], "ms"},
        {"workloads.verify_ms", self_ms["verify"], "ms"},
        {"core.run_s", run_ns / 1e9, "s"},
        {"core.sim_cycles", cnt(all[SimCycles]), "count"},
        {"core.host_ns_per_sim_cycle", ratio(run_ns, cnt(all[SimCycles])),
         "ns"},
        {"core.leaps", cnt(all[Leaps]), "count"},
        {"core.leap_skipped_frac",
         ratio(cnt(all[LeapSkippedCycles]), cnt(all[SimCycles])), "frac"},
        {"core.teardown_ms", self_ms["teardown"], "ms"},
        {"cpu.committed_insts", cnt(all[CommittedInsts]), "count"},
        {"cpu.host_ns_per_inst_core_jobs",
         ratio(core_jobs_run_ns, core_jobs_insts), "ns"},
        {"cpu.fused_fetch_frac",
         ratio(cnt(all[FusedFetchInsts]),
               cnt(all[FusedFetchInsts] + all[GenericFetchInsts])),
         "frac"},
        {"cpu.spl_commit_stall_cycles", cnt(all[SplCommitStalls]), "count"},
        {"cpu.spl_fetch_stall_cycles", cnt(all[SplFetchStalls]), "count"},
        {"mem.l1d_miss_ratio",
         ratio(cnt(all[L1dMisses]), cnt(all[L1dHits] + all[L1dMisses])),
         "frac"},
        {"mem.l2_miss_ratio",
         ratio(cnt(all[L2Misses]), cnt(all[L2Hits] + all[L2Misses])),
         "frac"},
        {"mem.bus_transactions", cnt(all[BusTransactions]), "count"},
        {"mem.c2c_transfers", cnt(all[C2cTransfers]), "count"},
        {"mem.mru_hit_frac",
         ratio(cnt(all[MruHits]), cnt(all[MruHits] + all[MruMisses])),
         "frac"},
        {"spl.initiations", cnt(all[Initiations]), "count"},
        {"spl.output_words_popped", cnt(all[OutputWordsPopped]), "count"},
        {"spl.rr_conflicts", cnt(all[RrConflicts]), "count"},
        {"spl.config_switches", cnt(all[ConfigSwitches]), "count"},
        {"spl.barriers_completed", cnt(all[BarriersCompleted]), "count"},
        {"spl.fabric_jobs_host_frac", ratio(fabric_job_ms, job_ms), "frac"},
        {"spl.host_ns_per_init_fabric_jobs",
         ratio(fabric_jobs_run_ns, fabric_jobs_inits), "ns"},
        {"power.measure_energy_ms", self_ms["measureEnergy"], "ms"},
        {"harness.config_hash_ms", self_ms["configHash"], "ms"},
        {"harness.snapshot_restore_ms",
         sum({"SnapshotCache::lookup", "System::restore"}), "ms"},
        {"harness.snapshot_save_ms",
         sum({"System::save", "SnapshotCache::store"}), "ms"},
        {"trace.stats_read_ms", self_ms["stats"], "ms"},
        {"trace.job_self_ms", self_ms["job"], "ms"},
    };
}

void
writeSpansJson(std::ostream &os, const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    remap::json::Writer w(os);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.kv("name", s.name);
        w.kv("ph", "X");
        w.kv("pid", 1);
        w.kv("tid", s.worker);
        w.kvExact("ts", s.startNs / 1e3);
        w.kvExact("dur", s.durNs / 1e3);
        w.key("args");
        w.beginObject();
        w.kv("id", static_cast<std::uint64_t>(i));
        w.kv("parent", static_cast<std::int64_t>(s.parent));
        w.kv("job", s.job);
        w.kvExact("self_us", self[i] / 1e3);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace perfbench
