/**
 * @file
 * The paper's evaluation as one job list: a record per table, figure
 * and section claim, in paper order. Each record lists the region
 * runs it reads and renders its text from the results of a shared
 * batch, so artifacts that read the same runs (Figs. 8-11 and
 * Section V-B one region set, Figs. 12-14 and Section V-C.2 the
 * barrier sweeps) simulate each run once. bench/paper runs the union
 * of the selected records' jobs in one runRegions() batch, then
 * renders each record.
 */

#ifndef REMAP_HARNESS_PAPER_HH
#define REMAP_HARNESS_PAPER_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/parallel.hh"

namespace remap::harness
{

/** Identity of a region run: SnapshotCache::makeKey() with a zero
 *  config-hash ("ll3/Barrier+Comp/n64/t8/c1/i0/0000000000000000"). */
std::string jobKey(const RegionJob &job);

/** The results of one batch, looked up by jobKey(). */
class PaperResults
{
  public:
    /** Index @p results, which are aligned with @p jobs. */
    PaperResults(const std::vector<RegionJob> &jobs,
                 const std::vector<RegionResult> &results);

    /** The result of @p spec on @p info. Throws std::out_of_range
     *  naming the run when the batch did not simulate it. */
    const RegionResult &at(const workloads::WorkloadInfo &info,
                           const workloads::RunSpec &spec) const;

  private:
    std::map<std::string, RegionResult> byKey_;
};

/** One table, figure or section claim of the paper. */
struct PaperRecord
{
    std::string name;            ///< "table1", "fig12", "svc2", ...
    std::vector<RegionJob> jobs; ///< exactly the runs render() reads
    /** Print the artifact's text from @p results. */
    void (*render)(std::ostream &os, const PaperResults &results,
                   const power::EnergyModel &model);
};

/** Every record, in paper order: table1, table3, fig8-fig14, svb,
 *  svc2. */
const std::vector<PaperRecord> &paperRecords();

/** The record called @p name (fatal when there is none). */
const PaperRecord &paperRecord(const std::string &name);

/** The union of the named records' jobs, each run once, in first-use
 *  order. */
std::vector<RegionJob> paperJobs(const std::vector<std::string> &names);

/**
 * Parse bench/paper's positional arguments into record names in
 * paper order; no arguments selects every record. An unknown or
 * repeated name fails with a one-line @p error that lists the valid
 * names.
 */
bool parsePaperNames(const std::vector<std::string> &args,
                     std::vector<std::string> *names,
                     std::string *error);

} // namespace remap::harness

#endif // REMAP_HARNESS_PAPER_HH
