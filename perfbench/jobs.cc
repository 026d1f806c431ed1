#include "jobs.hh"

#include <set>

#include "harness/snapshot_cache.hh"

namespace perfbench
{

using remap::harness::RegionJob;
using remap::workloads::Mode;
using remap::workloads::RunSpec;
using remap::workloads::Variant;
using remap::workloads::WorkloadInfo;

namespace
{

RegionJob
job(const WorkloadInfo &info, Variant v, unsigned size = 0,
    unsigned threads = 1, unsigned copies = 1)
{
    RunSpec spec;
    spec.variant = v;
    spec.problemSize = size;
    spec.threads = threads;
    spec.copies = copies;
    return RegionJob{&info, spec};
}

/** runVariantSetsParallel's job list for the non-barrier workloads
 *  (4 copies for compute-only 1Th+Comp, as every driver uses). */
std::vector<RegionJob>
regionSet(bool include_swqueue)
{
    std::vector<RegionJob> jobs;
    for (const WorkloadInfo &w : remap::workloads::registry()) {
        if (w.mode == Mode::Barrier)
            continue;
        jobs.push_back(job(w, Variant::Seq));
        jobs.push_back(job(w, Variant::SeqOoo2));
        jobs.push_back(job(w, Variant::Comp, 0, 1,
                           w.mode == Mode::ComputeOnly ? 4 : 1));
        if (w.mode != Mode::CommComp)
            continue;
        for (Variant v :
             {Variant::Comm, Variant::CompComm, Variant::Ooo2Comm})
            jobs.push_back(job(w, v));
        if (include_swqueue)
            jobs.push_back(job(w, Variant::SwQueue));
    }
    return jobs;
}

/** One barrier-workload sweep of the Fig. 12 and Fig. 14 drivers. */
struct Sweep
{
    const char *name;
    std::vector<unsigned> sizes;
    bool withComp;
};

const std::vector<Sweep> &
barrierSweeps()
{
    static const std::vector<Sweep> sweeps = {
        {"ll2", {8, 16, 32, 64, 128, 256, 512}, false},
        {"ll6", {8, 16, 32, 64, 128, 256}, false},
        {"ll3", {32, 64, 128, 256, 512, 1024}, true},
        {"dijkstra", {32, 64, 96, 128, 160, 192}, true},
    };
    return sweeps;
}

/** The cells of one sweep, which the Fig. 12 and Fig. 14 drivers both
 *  submit in this order: per size, the Seq baseline, then SW, Barrier
 *  (and Barrier+Comp) at p = 8 and 16. */
std::vector<RegionJob>
sweepCells(const Sweep &s)
{
    const WorkloadInfo &info = remap::workloads::byName(s.name);
    std::vector<RegionJob> jobs;
    for (unsigned size : s.sizes) {
        jobs.push_back(job(info, Variant::Seq, size));
        for (Variant v : {Variant::SwBarrier, Variant::HwBarrier,
                          Variant::HwBarrierComp}) {
            if (v == Variant::HwBarrierComp && !s.withComp)
                continue;
            for (unsigned p : {8u, 16u})
                jobs.push_back(job(info, v, size, p));
        }
    }
    return jobs;
}

/** Fig. 13 cells: Barrier and Barrier+Comp at p = 2, 4, 8, 16. */
std::vector<RegionJob>
fig13Cells(const char *name, const std::vector<unsigned> &sizes)
{
    const WorkloadInfo &info = remap::workloads::byName(name);
    std::vector<RegionJob> jobs;
    for (unsigned size : sizes)
        for (unsigned p : {2u, 4u, 8u, 16u})
            for (Variant v : {Variant::HwBarrier, Variant::HwBarrierComp})
                jobs.push_back(job(info, v, size, p));
    return jobs;
}

const std::vector<std::pair<const char *, std::vector<unsigned>>> &
fig13Sweeps()
{
    static const std::vector<std::pair<const char *,
                                       std::vector<unsigned>>>
        sweeps = {{"ll3", {32, 64, 128, 256, 512, 1024}},
                  {"dijkstra", {32, 64, 96, 128, 160, 192}}};
    return sweeps;
}

/** Section V-C.2 runs: per size, two serial barrierSweep calls, each a
 *  Seq baseline followed by the variant (Barrier+Comp p4, Homog p6). */
std::vector<Batch>
svc2Batches()
{
    const std::vector<std::pair<const char *, std::vector<unsigned>>>
        compares = {{"ll3", {96, 192, 384, 768}},
                    {"dijkstra", {24, 36, 48, 96}}};
    std::vector<Batch> batches;
    for (const auto &[name, sizes] : compares) {
        const WorkloadInfo &info = remap::workloads::byName(name);
        for (unsigned size : sizes) {
            for (const auto &[v, p] :
                 {std::pair{Variant::HwBarrierComp, 4u},
                  std::pair{Variant::HomogBarrier, 6u}}) {
                // barrierSweep runs in the caller, one job at a time.
                for (const RegionJob &j :
                     {job(info, Variant::Seq, size),
                      job(info, v, size, p)})
                    batches.push_back(
                        Batch{std::string("svc2/") + name, {j}});
            }
        }
    }
    return batches;
}

std::vector<Batch>
paperSuite()
{
    std::vector<Batch> batches;
    for (const char *fig : {"fig8", "fig9", "fig10", "fig11"})
        batches.push_back(Batch{fig, regionSet(false)});
    for (const Sweep &s : barrierSweeps())
        batches.push_back(
            Batch{std::string("fig12/") + s.name, sweepCells(s)});
    for (const auto &[name, sizes] : fig13Sweeps())
        batches.push_back(Batch{std::string("fig13/") + name,
                                fig13Cells(name, sizes)});
    for (const Sweep &s : barrierSweeps())
        batches.push_back(
            Batch{std::string("fig14/") + s.name, sweepCells(s)});
    // svb: one runVariantSet (with SWQueue) per communicating workload.
    for (const WorkloadInfo &w : remap::workloads::registry()) {
        if (w.mode != Mode::CommComp)
            continue;
        Batch b{"svb/" + w.name, {}};
        for (const RegionJob &j : regionSet(true))
            if (j.info == &w)
                b.jobs.push_back(j);
        batches.push_back(std::move(b));
    }
    for (Batch &b : svc2Batches())
        batches.push_back(std::move(b));
    return batches;
}

/** Every distinct barrier cell of the paper suite, in first-use order. */
std::vector<Batch>
barrierUnion()
{
    Batch all{"barriers", {}};
    std::set<std::string> seen;
    for (const Batch &b : paperSuite()) {
        for (const RegionJob &j : b.jobs) {
            if (j.info->mode == Mode::Barrier &&
                seen.insert(jobKey(j)).second)
                all.jobs.push_back(j);
        }
    }
    return {all};
}

} // namespace

std::vector<Batch>
makeBatches(const std::string &workload)
{
    if (workload == "barriers")
        return barrierUnion();
    if (workload == "paper_suite")
        return paperSuite();
    return {};
}

std::string
jobKey(const RegionJob &job)
{
    return remap::harness::SnapshotCache::makeKey(job.info->name,
                                                  job.spec, 0);
}

bool
isFabricClass(Variant v)
{
    return v == Variant::Comm || v == Variant::CompComm ||
           v == Variant::Ooo2Comm;
}

} // namespace perfbench
