#include "harness/experiment.hh"

#include <algorithm>
#include <cmath>

#include "harness/parallel.hh"
#include "harness/snapshot_cache.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace remap::harness
{

using workloads::Mode;
using workloads::RunSpec;
using workloads::Variant;

namespace
{

/**
 * Serve a run from its final-result entry: on a hit, fill every
 * simulated field of @p res and return true. The blob must parse
 * fully (header, "region_result" section, every field, nothing
 * after); anything else is reject()ed with a warning and the caller
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
    RegionResult r;
    r.cycles = d.u64();
    r.insts = d.u64();
    r.energyJ = d.f64();
    r.work = d.f64();
    r.configHash = d.u64();
    if (!d.ok() || !d.atEnd()) {
        REMAP_WARN("ignoring bad result entry '%s' (%s); simulating",
                   key.c_str(), d.ok() ? "trailing bytes" : d.error());
        cache.reject(key);
        return false;
    }
    r.warmStarted = true;
    r.snapshotBoundary = hdr.boundaryCycle;
    res = std::move(r);
    return true;
}

/** Store the verified result @p res under @p key. */
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
    s.u64(res.configHash);
    cache.store(key, hash, res.cycles, s.take());
}

} // namespace

RegionResult
runRegion(const workloads::WorkloadInfo &info, const RunSpec &spec,
          const power::EnergyModel &model)
{
    workloads::PreparedRun run = info.make(spec);
    RegionResult res;
    // Every untraced run goes through its final-result entry: a
    // repeat is served without simulating. A served result has no
    // trace, so tracing bypasses the cache.
    SnapshotCache &cache = SnapshotCache::instance();
    std::string result_key;
    std::uint64_t hash = 0;
    if (cache.enabled() && !run.system->tracer()) {
        hash = run.system->configHash();
        result_key = SnapshotCache::makeKey(info.name, spec, hash) +
                     "/result";
        if (serveStoredResult(cache, result_key, hash, res))
            return res;
    }
    res.configHash = hash;
    res.cycles = run.run().cycles;
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
        storeResult(cache, result_key, hash, res);
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
    // context switches each, Section V-A), charged analytically at
    // the simulator's switch cost.
    const double migration = info.regionEpisodes * 2.0 *
        static_cast<double>(sys::SystemConfig{}.migrationSwitchCycles);
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
