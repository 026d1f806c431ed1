/**
 * @file
 * Regenerates the paper's evaluation: Tables I and III, Figs. 8-14
 * and the Section V-B and V-C.2 comparisons. Every region run the
 * selected artifacts read is simulated once, in one batch over the
 * job pool (REMAP_JOBS workers), and each artifact is then rendered
 * from the shared results, in paper order.
 *
 *   paper              every table and figure
 *   paper fig12 svc2   only those
 *
 * Names: table1 table3 fig8 ... fig14 svb svc2. An unknown or
 * repeated name exits 2 with a one-line diagnostic on stderr.
 */

#include <iostream>

#include "harness/manifest.hh"
#include "harness/paper.hh"
#include "harness/snapshot_cache.hh"

int
main(int argc, char **argv)
{
    using namespace remap;
    std::vector<std::string> names;
    std::string error;
    if (!harness::parsePaperNames({argv + 1, argv + argc}, &names,
                                  &error)) {
        std::cerr << "paper: " << error << "\n";
        return 2;
    }
    harness::setExperimentLabel("paper");
    const power::EnergyModel model;
    const std::vector<harness::RegionJob> jobs = harness::paperJobs(names);
    const harness::PaperResults results(
        jobs, harness::runRegions(jobs, model));
    for (const std::string &name : names)
        harness::paperRecord(name).render(std::cout, results, model);
    harness::printSnapshotCacheSummary();
    return 0;
}
