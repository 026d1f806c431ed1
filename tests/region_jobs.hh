/** @file Shared enumeration of the fig8-fig14 region-job sets,
 *  exactly as the figure drivers build them. The region differential
 *  (test_region_diff.cc) runs one case per unique job of their
 *  union; test_manifest.cc batches the smoke sweep. */

#ifndef REMAP_TESTS_REGION_JOBS_HH
#define REMAP_TESTS_REGION_JOBS_HH

#include <tuple>
#include <utility>
#include <vector>

#include "harness/parallel.hh"

namespace remap::testjobs
{

using harness::RegionJob;
using workloads::Mode;
using workloads::RunSpec;
using workloads::Variant;

/** The exact variant list runVariantSet simulates for @p info
 *  (fig8-fig11 go through runVariantSetsParallel with defaults:
 *  no SwQueue, 4 compute copies). */
inline std::vector<RegionJob>
variantSetJobs(const workloads::WorkloadInfo &info)
{
    std::vector<RegionJob> jobs;
    RunSpec spec;
    for (Variant v : {Variant::Seq, Variant::SeqOoo2, Variant::Comp}) {
        spec.variant = v;
        spec.copies =
            v == Variant::Comp && info.mode == Mode::ComputeOnly ? 4
                                                                 : 1;
        jobs.push_back(RegionJob{&info, spec});
    }
    spec.copies = 1;
    if (info.mode == Mode::CommComp) {
        for (Variant v :
             {Variant::Comm, Variant::CompComm, Variant::Ooo2Comm}) {
            spec.variant = v;
            jobs.push_back(RegionJob{&info, spec});
        }
    }
    return jobs;
}

/** One fig12/fig14-style sweep series for @p name. */
inline std::vector<RegionJob>
barrierSweepJobs(const char *name, const std::vector<unsigned> &sizes,
                 bool with_comp)
{
    const auto &info = workloads::byName(name);
    std::vector<std::pair<Variant, unsigned>> series = {
        {Variant::Seq, 1},
        {Variant::SwBarrier, 8},
        {Variant::SwBarrier, 16},
        {Variant::HwBarrier, 8},
        {Variant::HwBarrier, 16}};
    if (with_comp) {
        series.emplace_back(Variant::HwBarrierComp, 8);
        series.emplace_back(Variant::HwBarrierComp, 16);
    }
    std::vector<RegionJob> jobs;
    for (unsigned size : sizes) {
        for (auto [v, p] : series) {
            RunSpec spec;
            spec.variant = v;
            spec.problemSize = size;
            spec.threads = p;
            jobs.push_back(RegionJob{&info, spec});
        }
    }
    return jobs;
}

/** fig8/fig9/fig10/fig11 all simulate the same region set: the
 *  full variant set of every non-barrier workload. */
inline std::vector<RegionJob>
fig8To11Jobs()
{
    std::vector<RegionJob> jobs;
    for (const auto &w : workloads::registry()) {
        if (w.mode == Mode::Barrier)
            continue;
        auto set = variantSetJobs(w);
        jobs.insert(jobs.end(), set.begin(), set.end());
    }
    return jobs;
}

/** The (workload, sizes, with_comp) series of the fig12 sweeps;
 *  fig14's regions are the same sweeps (ED is derived data). */
inline const std::vector<
    std::tuple<const char *, std::vector<unsigned>, bool>> &
fig12SweepSeries()
{
    static const std::vector<
        std::tuple<const char *, std::vector<unsigned>, bool>>
        series = {{"ll2", {8, 16, 32, 64, 128, 256, 512}, false},
                  {"ll6", {8, 16, 32, 64, 128, 256}, false},
                  {"ll3", {32, 64, 128, 256, 512, 1024}, true},
                  {"dijkstra", {32, 64, 96, 128, 160, 192}, true}};
    return series;
}

/** Every fig12 (= fig14) sweep job. */
inline std::vector<RegionJob>
fig12Jobs()
{
    std::vector<RegionJob> jobs;
    for (const auto &[name, sizes, comp] : fig12SweepSeries()) {
        auto sweep = barrierSweepJobs(name, sizes, comp);
        jobs.insert(jobs.end(), sweep.begin(), sweep.end());
    }
    return jobs;
}

/** fig13 adds the p2/p4 thread counts over fig12's regions. */
inline std::vector<RegionJob>
fig13Jobs()
{
    std::vector<RegionJob> jobs;
    for (const auto &[name, sizes] :
         {std::pair<const char *, std::vector<unsigned>>{
              "ll3", {32, 64, 128, 256, 512, 1024}},
          {"dijkstra", {32, 64, 96, 128, 160, 192}}}) {
        const auto &info = workloads::byName(name);
        for (unsigned size : sizes) {
            for (unsigned p : {2u, 4u, 8u, 16u}) {
                for (Variant v :
                     {Variant::HwBarrier, Variant::HwBarrierComp}) {
                    RunSpec spec;
                    spec.variant = v;
                    spec.problemSize = size;
                    spec.threads = p;
                    jobs.push_back(RegionJob{&info, spec});
                }
            }
        }
    }
    return jobs;
}

/** The canonical tiny smoke sweep: one sequential baseline,
 *  SPL-barrier points at two sizes and thread counts, a
 *  barrier+compute point and a compute-mode region. Small enough to
 *  finish in seconds, wide enough to touch the SPL modes the paper
 *  sweeps. */
inline std::vector<RegionJob>
smokeSweepJobs()
{
    std::vector<RegionJob> jobs;
    auto add = [&jobs](const char *name, Variant v, unsigned size,
                       unsigned threads) {
        RunSpec spec;
        spec.variant = v;
        spec.problemSize = size;
        spec.threads = threads;
        jobs.push_back(RegionJob{&workloads::byName(name), spec});
    };
    add("ll2", Variant::Seq, 32, 1);
    add("ll2", Variant::HwBarrier, 32, 8);
    add("ll3", Variant::HwBarrier, 64, 8);
    add("ll3", Variant::HwBarrierComp, 64, 8);
    add("dijkstra", Variant::HwBarrier, 32, 8);
    add("wc", Variant::Seq, 0, 1);
    return jobs;
}

} // namespace remap::testjobs

#endif // REMAP_TESTS_REGION_JOBS_HH
