#include "harness/experiment.hh"

#include <algorithm>
#include <cmath>

#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"

namespace remap::harness
{

using workloads::Mode;
using workloads::RunSpec;
using workloads::Variant;

namespace
{

/**
 * Serve an exact run from its final-result entry: on a hit, fill the
 * result fields of @p res and return true. The blob must parse fully
 * (header, "region_result" section, all four fields, nothing after);
 * anything else is reject()ed with a warning and the caller
 * simulates.
 */
bool
serveStoredResult(SnapshotCache &cache, const std::string &key,
                  std::uint64_t hash, RegionResult &res)
{
    SnapshotCache::Blob blob = cache.lookup(key, hash, nullptr);
    if (!blob)
        return false;
    snap::Deserializer d(*blob);
    snap::Header hdr;
    if (!snap::readHeader(d, &hdr) || hdr.configHash != hash)
        d.fail("header mismatch");
    d.section("region_result");
    const Cycle cycles = d.u64();
    const std::uint64_t insts = d.u64();
    const double energy = d.f64();
    const double work = d.f64();
    if (!d.ok() || !d.atEnd()) {
        REMAP_WARN("ignoring bad result entry '%s' (%s); simulating",
                   key.c_str(), d.ok() ? "trailing bytes" : d.error());
        cache.reject(key);
        return false;
    }
    res.cycles = cycles;
    res.insts = insts;
    res.energyJ = energy;
    res.work = work;
    res.warmStarted = true;
    res.snapshotBoundary = cycles;
    return true;
}

/** Store the verified result @p res of an exact run under @p key. */
void
storeResult(SnapshotCache &cache, const std::string &key,
            std::uint64_t hash, const RegionResult &res)
{
    snap::Serializer s;
    snap::writeHeader(s, hash, res.cycles);
    s.section("region_result");
    s.u64(res.cycles);
    s.u64(res.insts);
    s.f64(res.energyJ);
    s.f64(res.work);
    cache.store(key, hash, res.cycles, s.take());
}

/** Shared tail of every sampled path: extrapolate the recorded
 *  windows into the result fields. */
void
fillSampledResult(workloads::PreparedRun &run, RegionResult &res)
{
    const sampling::Estimate e = run.system->sampleEstimate();
    res.sampled = e.sampled;
    res.sampleWindows = e.windows;
    res.measuredCycles = run.system->now();
    res.warmedInsts = run.system->warmedInsts();
    res.ciLowCycles = e.ciLowCycles();
    res.ciHighCycles = e.ciHighCycles();
    res.achievedRelHw = sampling::relativeHalfWidth(e);
    res.cycles = e.sampled ? static_cast<Cycle>(e.estCycles + 0.5)
                           : run.system->now();
}

/** Replay-set key for one measured window of @p base. */
std::string
windowKey(const std::string &base, std::uint64_t index)
{
    return base + "/w" + std::to_string(index);
}

/** Replay-set completion marker (also holds the end-of-run state). */
std::string
replayDoneKey(const std::string &base)
{
    return base + "/done";
}

/**
 * Serve a sampled run entirely from its cached replay set
 * (DESIGN.md §15): restore the snapshot taken at each measured
 * window's opening and re-run only the detailed window
 * (System::replaySampledWindow), then restore the end-of-run state
 * from the completion marker — functional warming between windows is
 * never simulated. Every replayed window is cross-checked against
 * the originating run's recorded samples; any miss, corruption or
 * mismatch rebuilds @p run (restores may have left partial state)
 * and returns false so the caller re-runs normally. On success the
 * System holds the originating run's exact final state, so golden
 * outputs, instruction counts, energy and the estimate are all
 * bit-identical to a full re-run.
 */
bool
tryReplaySampledRun(const workloads::WorkloadInfo &info,
                    const RunSpec &spec,
                    workloads::PreparedRun &run, RegionResult &res,
                    SnapshotCache &cache, const std::string &key,
                    std::uint64_t hash, Cycle max_cycles)
{
    const std::string done_key = replayDoneKey(key);
    Cycle stored = 0;
    SnapshotCache::Blob done = cache.lookup(done_key, hash, &stored);
    if (!done)
        return false;

    bool dirty = false; // any restore issued: run needs a rebuild
    const auto bail = [&](const std::string &bad_key,
                          const char *what) {
        REMAP_WARN("sample replay failed for '%s' (%s); re-running",
                   bad_key.c_str(), what);
        cache.reject(bad_key);
        if (dirty) {
            const sampling::SampleParams sp =
                run.system->sampleParams();
            run = info.make(spec);
            run.system->setSampleParams(sp);
        }
        return false;
    };

    snap::Deserializer d(*done);
    snap::Header hdr;
    if (!snap::readHeader(d, &hdr) || hdr.configHash != hash)
        return bail(done_key, "header mismatch");
    d.section("sample_replay_done");
    const std::uint64_t count = d.u64();
    if (!d.ok())
        return bail(done_key, d.error());

    std::vector<sampling::WindowSample> replayed;
    replayed.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::string wkey = windowKey(key, i);
        Cycle wb_boundary = 0;
        SnapshotCache::Blob wb =
            cache.lookup(wkey, hash, &wb_boundary);
        if (!wb) {
            // Evicted under memory pressure: an ordinary miss, not a
            // corruption — fall back without rejecting anything.
            if (dirty) {
                const sampling::SampleParams sp =
                    run.system->sampleParams();
                run = info.make(spec);
                run.system->setSampleParams(sp);
            }
            return false;
        }
        snap::Deserializer wd(*wb);
        snap::Header whdr;
        if (!snap::readHeader(wd, &whdr) ||
            whdr.configHash != hash)
            return bail(wkey, "header mismatch");
        wd.section("sample_replay_window");
        const std::uint64_t idx = wd.u64();
        const std::uint64_t target = wd.u64();
        if (!wd.ok() || idx != i)
            return bail(wkey, "replay-window metadata mismatch");
        dirty = true;
        run.system->restore(wd);
        if (!wd.ok())
            return bail(wkey, wd.error());
        sampling::WindowSample ws;
        if (!run.system->replaySampledWindow(target, max_cycles,
                                             &ws))
            return bail(wkey, "window did not close");
        replayed.push_back(ws);
    }

    dirty = true;
    run.system->restore(d);
    if (!d.ok())
        return bail(done_key, d.error());

    // The hard invariant (DESIGN.md §15): replayed windows are
    // bit-identical to the windows the originating run recorded. A
    // mismatch means the cached set does not describe this
    // simulation — drop it and re-run rather than trust it.
    const std::vector<sampling::WindowSample> &orig =
        run.system->sampleWindows();
    bool match = orig.size() == count;
    for (std::uint64_t i = 0; match && i < count; ++i)
        match = orig[i].cycles == replayed[i].cycles &&
                orig[i].insts == replayed[i].insts;
    if (!match)
        return bail(done_key, "replayed windows diverged");

    res.warmStarted = true;
    res.sampleReplayed = true;
    res.replayedWindows = count;
    res.snapshotBoundary = hdr.boundaryCycle;
    return true;
}

/**
 * Drive @p run under the SMARTS sampling schedule already set on its
 * System (DESIGN.md §14), optionally through the snapshot cache.
 * Fast path: a complete cached replay set serves the whole run via
 * tryReplaySampledRun(). Otherwise the run simulates normally while
 * two hooks feed the cache: window-open hooks store the per-window
 * replay snapshots (plus a completion marker holding the final
 * state, capped to half the cache budget so one run's replay set
 * cannot blow REMAP_CKPT_MEM), and window-close hooks capture
 * warm-start snapshots at geometrically-doubling cycle boundaries.
 * REMAP_NO_SAMPLE_REPLAY=1 disables both the fast path and the
 * window stores, restoring the pre-replay behaviour bit-identically.
 * Fills the sampled-mode fields of @p res and sets res.cycles to the
 * extrapolated estimate.
 */
void
runSampledRegion(const workloads::WorkloadInfo &info,
                 const RunSpec &spec, workloads::PreparedRun &run,
                 RegionResult &res)
{
    constexpr Cycle max_cycles = 400'000'000ULL;

    SnapshotCache &cache = SnapshotCache::instance();
    const bool use_cache =
        cache.enabled() && cache.firstBoundary() > 0;
    const std::uint64_t hash = run.system->configHash();
    res.configHash = hash;
    const std::string key =
        use_cache ? SnapshotCache::makeKey(info.name, spec, hash)
                  : std::string();
    const bool replay = use_cache && !env::noSampleReplay();

    if (replay && tryReplaySampledRun(info, spec, run, res, cache,
                                      key, hash, max_cycles)) {
        fillSampledResult(run, res);
        return;
    }

    Cycle boundary = cache.firstBoundary();
    if (use_cache) {
        Cycle stored = 0;
        if (SnapshotCache::Blob blob =
                cache.lookup(key, hash, &stored)) {
            snap::Deserializer d(*blob);
            snap::Header hdr;
            if (snap::readHeader(d, &hdr) && hdr.configHash == hash) {
                run.system->restore(d);
            } else {
                d.fail("header mismatch");
            }
            if (d.ok()) {
                boundary = hdr.boundaryCycle * 2;
                res.warmStarted = true;
                res.snapshotBoundary = hdr.boundaryCycle;
            } else {
                REMAP_WARN("snapshot restore failed for '%s' (%s); "
                           "running cold",
                           key.c_str(), d.error());
                cache.reject(key);
                const sampling::SampleParams sp =
                    run.system->sampleParams();
                run = info.make(spec);
                run.system->setSampleParams(sp);
            }
        }
    }

    // Replay-set capture: one snapshot per measured window, plus the
    // completion marker after the run. The set is only published
    // when it is contiguous from window 0 (a warm-started run skips
    // earlier windows) and fits the byte budget — an incomplete set
    // is never marked done, so replay can never serve a partial run.
    bool replay_store = replay;
    std::uint64_t next_window = 0;
    std::size_t window_bytes = 0;
    const std::size_t window_budget = cache.memoryCapBytes() / 2;

    sys::SampleHooks hooks;
    hooks.onWindowOpen = [&](std::uint64_t index,
                             std::uint64_t close_target) {
        if (!replay_store)
            return;
        if (index != next_window) {
            replay_store = false;
            return;
        }
        snap::Serializer s;
        snap::writeHeader(s, hash, run.system->now());
        s.section("sample_replay_window");
        s.u64(index);
        s.u64(close_target);
        run.system->save(s);
        std::vector<std::uint8_t> blob = s.take();
        window_bytes += blob.size();
        if (window_bytes > window_budget) {
            replay_store = false;
            return;
        }
        cache.storeWindow(windowKey(key, index), hash,
                          run.system->now(), std::move(blob));
        ++next_window;
    };
    hooks.onWindowEnd = [&](std::uint64_t) {
        if (!use_cache)
            return;
        const Cycle elapsed = run.system->now();
        if (elapsed < boundary)
            return;
        snap::Serializer s;
        snap::writeHeader(s, hash, elapsed);
        run.system->save(s);
        cache.store(key, hash, elapsed, s.take());
        while (boundary <= elapsed)
            boundary *= 2;
    };

    const Cycle begin = run.system->now();
    REMAP_ASSERT(begin < max_cycles, "snapshot beyond run limit");
    const sys::RunResult r =
        run.system->runSampled(max_cycles - begin, hooks);
    if (r.timedOut)
        REMAP_FATAL("workload '%s' did not quiesce in %llu cycles",
                    run.name.c_str(),
                    static_cast<unsigned long long>(max_cycles));

    if (replay_store &&
        next_window == run.system->sampleWindows().size()) {
        snap::Serializer s;
        snap::writeHeader(s, hash, run.system->now());
        s.section("sample_replay_done");
        s.u64(next_window);
        run.system->save(s);
        cache.storeWindow(replayDoneKey(key), hash,
                          run.system->now(), s.take());
    }

    fillSampledResult(run, res);
}

/** Schedules the matched-pair controller tries before accepting the
 *  best clamped answer. */
constexpr unsigned kMaxAdaptiveIters = 6;

/**
 * Adaptive sampled execution (DESIGN.md §15): run the region at a
 * coarse schedule, then re-run with the period scaled by the
 * matched-pair controller (sampling::nextAdaptivePeriod) until the
 * relative 95% CI half-width of the CPI estimate reaches
 * spec.sample.ciTarget — or the period clamps bind. Each iteration
 * goes through runSampledRegion() under its concrete schedule (so it
 * warm-starts and replays like any fixed-schedule run, keyed with
 * the adaptive tag so it never aliases one), and a converged-
 * schedule memo lets a repeated adaptive sweep jump straight to the
 * answer. @p res reports the final iteration plus the controller
 * provenance (converged schedule, achieved half-width, iterations).
 */
void
runAdaptiveSampledRegion(const workloads::WorkloadInfo &info,
                         const RunSpec &spec,
                         workloads::PreparedRun &run,
                         RegionResult &res)
{
    const sampling::SampleParams req = spec.sample;
    sampling::SampleParams cur = req.resolvedAdaptive();

    SnapshotCache &cache = SnapshotCache::instance();
    const bool use_cache =
        cache.enabled() && cache.firstBoundary() > 0;

    std::string memo_key;
    std::uint64_t memo_hash = 0;
    if (use_cache) {
        run.system->setSampleParams(req);
        memo_hash = run.system->configHash();
        memo_key = SnapshotCache::makeKey(info.name, spec,
                                          memo_hash) +
                   "/sched";
        Cycle b = 0;
        if (SnapshotCache::Blob mb =
                cache.lookup(memo_key, memo_hash, &b)) {
            snap::Deserializer d(*mb);
            snap::Header hdr;
            sampling::SampleParams memo = cur;
            if (snap::readHeader(d, &hdr) &&
                hdr.configHash == memo_hash) {
                d.section("adaptive_sched");
                memo.period = d.u64();
                memo.window = d.u64();
                memo.warm = d.u64();
            } else {
                d.fail("header mismatch");
            }
            if (d.ok() && memo.period >= cur.minPeriod &&
                memo.period <= cur.maxPeriod && memo.window > 0 &&
                memo.warm + memo.window <= memo.period) {
                cur = memo;
            } else {
                REMAP_WARN("ignoring bad adaptive-schedule memo "
                           "'%s'",
                           memo_key.c_str());
                cache.reject(memo_key);
            }
        }
    }

    unsigned iters = 0;
    for (;;) {
        ++iters;
        if (iters > 1)
            run = info.make(spec);
        run.system->setSampleParams(cur);
        RunSpec iter_spec = spec;
        iter_spec.sample = cur;
        RegionResult iter_res;
        runSampledRegion(info, iter_spec, run, iter_res);
        res = iter_res;

        const sampling::Estimate e = run.system->sampleEstimate();
        const double achieved = sampling::relativeHalfWidth(e);
        if (!e.sampled)
            break; // collapsed to exact: nothing to tune
        if (achieved > 0.0 && achieved <= cur.ciTarget)
            break; // converged
        const std::uint64_t next =
            sampling::nextAdaptivePeriod(cur, achieved);
        if (next == cur.period || iters >= kMaxAdaptiveIters)
            break; // clamped or out of budget: accept the best
        cur.period = next;
    }

    res.ciTarget = cur.ciTarget;
    res.adaptiveIterations = iters;
    res.convergedPeriod = cur.period;
    res.convergedWindow = cur.window;
    res.convergedWarm = cur.warm;

    if (!memo_key.empty()) {
        snap::Serializer s;
        snap::writeHeader(s, memo_hash, 1);
        s.section("adaptive_sched");
        s.u64(cur.period);
        s.u64(cur.window);
        s.u64(cur.warm);
        cache.store(memo_key, memo_hash, 1, s.take());
    }
}

} // namespace

RegionResult
runRegion(const workloads::WorkloadInfo &info, const RunSpec &spec,
          const power::EnergyModel &model)
{
    workloads::PreparedRun run = info.make(spec);
    RegionResult res;
    // Sampled mode: an explicit spec schedule wins; otherwise the
    // REMAP_SAMPLE environment default applies. Traced runs force
    // exact execution — functional warming commits instructions the
    // trace would silently miss.
    workloads::RunSpec effective = spec;
    if (!effective.sample.active())
        effective.sample = env::sampleParams();
    if (run.system->tracer())
        effective.sample = {};
    run.system->setSampleParams(effective.sample);
    SnapshotCache &cache = SnapshotCache::instance();
    // Exact runs go through the final-result entry: a repeat is
    // served without simulating. A served result has no trace, so
    // tracing bypasses the cache entirely.
    std::string result_key;
    if (effective.sample.adaptive()) {
        runAdaptiveSampledRegion(info, effective, run, res);
    } else if (effective.sample.enabled()) {
        runSampledRegion(info, effective, run, res);
    } else {
        if (cache.enabled() && cache.firstBoundary() > 0 &&
            !run.system->tracer()) {
            res.configHash = run.system->configHash();
            result_key =
                SnapshotCache::makeKey(info.name, spec, res.configHash) +
                "/result";
            if (serveStoredResult(cache, result_key, res.configHash,
                                  res))
                return res;
        }
        res.cycles = run.run().cycles;
    }
    if (run.verify && !run.verify())
        REMAP_FATAL("workload '%s' (%s) failed golden verification",
                    info.name.c_str(),
                    workloads::variantName(spec.variant));
    res.insts = run.system->totalCommittedInsts();
    const unsigned copies = std::max(1u, spec.copies);
    res.energyJ =
        run.system->measureEnergy(model, res.cycles,
                                  /*include_idle_cores=*/false)
            .totalJ() /
        copies;
    res.work = run.workUnits / copies;
    // Stored only now, so every served result passed verification.
    if (!result_key.empty())
        storeResult(cache, result_key, res.configHash, res);
    // Harvest host-time attribution: the per-System profile feeds the
    // process-wide aggregate (reported by bench drivers and the
    // manifest rollup) and the per-job manifest attribution.
    if (const prof::Profiler *p = run.system->profiler()) {
        prof::mergeIntoProcess(*p);
        res.hostPhaseMs.reserve(prof::kNumPhases);
        for (unsigned i = 0; i < prof::kNumPhases; ++i) {
            const auto phase = static_cast<prof::Phase>(i);
            if (p->count(phase).value() == 0)
                continue;
            res.hostPhaseMs.emplace_back(prof::phaseName(phase),
                                         p->totalMs(phase));
        }
    }
    return res;
}

WholeProgramRow
composeWholeProgram(const workloads::WorkloadInfo &info,
                    const VariantResults &results,
                    const power::EnergyModel &model)
{
    const ClockParams clocks = model.clockParams();
    const RegionResult &seq = results.at(Variant::Seq);
    const RegionResult &seq2 = results.at(Variant::SeqOoo2);
    const Variant best_remap = info.mode == Mode::CommComp
                                   ? Variant::CompComm
                                   : Variant::Comp;
    const RegionResult &remap = results.at(best_remap);

    // Baseline whole program on one OOO1 core.
    const double region_base = static_cast<double>(seq.cycles);
    const double t_base = region_base / info.execFraction;
    const double rest_base = t_base - region_base;

    // Non-region code runs on an OOO2 core in both alternatives; use
    // the workload's own OOO2/OOO1 ratio as the scaling proxy.
    const double ooo2_scale =
        static_cast<double>(seq2.cycles) / seq.cycles;
    const double rest_ooo2 = rest_base * ooo2_scale;

    // Average power (W) proxies for the non-region phases.
    const double p_ooo1 =
        seq.energyJ / clocks.cyclesToSeconds(seq.cycles);
    const double p_ooo2 =
        seq2.energyJ / clocks.cyclesToSeconds(seq2.cycles);

    // ReMAP: region on the SPL cluster + migration episodes (two
    // 500-cycle context switches each, Section V-A).
    const double migration = info.regionEpisodes * 2.0 * 500.0;
    const double t_remap =
        static_cast<double>(remap.cycles) + rest_ooo2 + migration;
    const double e_remap = remap.energyJ +
        p_ooo2 * clocks.cyclesToSeconds(
                     static_cast<Cycle>(rest_ooo2 + migration));

    // OOO2+Comm: region with the idealized comm hardware (or plain
    // OOO2 execution for compute-only workloads) + the same rest.
    double region_comm;
    double e_region_comm;
    if (info.mode == Mode::CommComp) {
        const RegionResult &comm = results.at(Variant::Ooo2Comm);
        region_comm = static_cast<double>(comm.cycles);
        e_region_comm = comm.energyJ;
    } else {
        region_comm = static_cast<double>(seq2.cycles);
        e_region_comm = seq2.energyJ;
    }
    const double t_comm = region_comm + rest_ooo2;
    const double e_comm = e_region_comm +
        p_ooo2 * clocks.cyclesToSeconds(
                     static_cast<Cycle>(rest_ooo2));

    const double e_base = seq.energyJ +
        p_ooo1 * clocks.cyclesToSeconds(
                     static_cast<Cycle>(rest_base));

    WholeProgramRow row;
    row.name = info.name;
    row.remapSpeedup = t_base / t_remap;
    row.ooo2commSpeedup = t_base / t_comm;
    const double ed_base =
        e_base * clocks.cyclesToSeconds(
                     static_cast<Cycle>(t_base));
    row.remapRelEd =
        (e_remap * clocks.cyclesToSeconds(
                       static_cast<Cycle>(t_remap))) /
        ed_base;
    row.ooo2commRelEd =
        (e_comm * clocks.cyclesToSeconds(
                      static_cast<Cycle>(t_comm))) /
        ed_base;
    return row;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

TableOne
computeTableOne(const power::EnergyModel &model)
{
    TableOne t;
    const auto &area = model.areaParams();
    t.relArea = (24.0 * area.splPerRow) / (4.0 * area.ooo1Core);
    t.relPeakDyn =
        model.splPeakDynamicW(24) /
        (4.0 * model.corePeakDynamicW(/*is_ooo2=*/false));
    t.relLeak = model.splLeakW(24) /
                (4.0 * model.coreLeakW(/*is_ooo2=*/false));
    return t;
}

} // namespace remap::harness
