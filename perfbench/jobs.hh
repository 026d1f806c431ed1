/**
 * @file
 * The region jobs each benchmark workload submits, grouped into the
 * batches the paper's bench drivers hand to harness::runRegions.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <string>
#include <vector>

#include "harness/parallel.hh"

namespace perfbench
{

/** One pool submission: the jobs a driver runs as a single batch. */
struct Batch
{
    std::string label; ///< which driver call this mirrors, e.g. "fig12/ll3"
    std::vector<remap::harness::RegionJob> jobs;
};

/**
 * The batches one pass of @p workload runs, in driver order, or an
 * empty list for an unknown name:
 *  - "barriers": the deduplicated Fig. 12/13/14 and Section V-C.2
 *    cells as one batch;
 *  - "paper_suite": every batch the figure drivers submit, repeats
 *    included.
 */
std::vector<Batch> makeBatches(const std::string &workload);

/** Identity of a region simulation: equal keys give equal results. */
std::string jobKey(const remap::harness::RegionJob &job);

/** True for the variants whose threads talk through a fabric:
 *  2Th+Comm, 2Th+CompComm and OOO2+Comm. */
bool isFabricClass(remap::workloads::Variant v);

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
