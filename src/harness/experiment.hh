/**
 * @file
 * Experiment building blocks for the paper's tables and figures:
 * one region run, whole-program composition and the Table I model.
 * harness/paper.hh composes them into the rows the paper reports.
 */

#ifndef REMAP_HARNESS_EXPERIMENT_HH
#define REMAP_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "power/energy.hh"
#include "workloads/workload.hh"

namespace remap::harness
{

/** One measured region run. */
struct RegionResult
{
    Cycle cycles = 0;     ///< wall-clock core cycles of the run
    double energyJ = 0.0; ///< energy per program copy (J)
    double work = 1.0;    ///< work units completed (per copy)
    /** Instructions committed across all cores (all copies). */
    std::uint64_t insts = 0;

    /** System::configHash() of the simulated run (0 when the
     *  snapshot cache was bypassed, e.g. while tracing). */
    std::uint64_t configHash = 0;
    /** True when the run was served from its final-result entry
     *  instead of simulating (snapshotBoundary then holds the stored
     *  entry's boundary, its `cycles`). A served result equals the
     *  simulated one in every other field; this records provenance
     *  for manifests/logs. */
    bool warmStarted = false;
    /** Boundary cycle the run restored from (0 = simulated). */
    Cycle snapshotBoundary = 0;

    /** Cycles per work unit (Fig. 12's y-axis). */
    double
    cyclesPerUnit() const
    {
        return work > 0 ? static_cast<double>(cycles) / work : 0.0;
    }

    /** Energy x delay in J*s. */
    double ed(const ClockParams &clocks = {}) const
    {
        return energyJ * clocks.cyclesToSeconds(cycles);
    }
};

/**
 * Run one region experiment: build, simulate, verify the golden
 * output (REMAP_FATAL on mismatch), and measure energy. Energy is
 * divided by RunSpec::copies so results are per program.
 *
 * With the SnapshotCache on, an untraced run is looked up by its
 * final-result entry (key: workload, RunSpec and configHash(); see
 * snapshot_cache.hh) after the system is built. A hit returns every
 * stored result field without simulating; a miss simulates and
 * stores the entry only after verification and energy measurement.
 */
RegionResult runRegion(const workloads::WorkloadInfo &info,
                       const workloads::RunSpec &spec,
                       const power::EnergyModel &model);

/** Region results of one workload, by variant. */
using VariantResults = std::map<workloads::Variant, RegionResult>;

/** One Fig. 8/9 row: whole-program metrics vs. the OOO1 baseline. */
struct WholeProgramRow
{
    std::string name;
    double remapSpeedup = 1.0;    ///< ReMAP perf / baseline perf
    double ooo2commSpeedup = 1.0; ///< OOO2+Comm perf / baseline perf
    double remapRelEd = 1.0;      ///< ReMAP ED / baseline ED
    double ooo2commRelEd = 1.0;   ///< OOO2+Comm ED / baseline ED
};

/**
 * Compose whole-program numbers from region results via the paper's
 * methodology (Section V-A): the optimized region is
 * `info.execFraction` of baseline time; non-region code runs on an
 * OOO2 core in both configurations; ReMAP pays two 500-cycle
 * migrations per region episode.
 */
WholeProgramRow composeWholeProgram(const workloads::WorkloadInfo &info,
                                    const VariantResults &results,
                                    const power::EnergyModel &model);

/** Geometric mean of a list of ratios. */
double geomean(const std::vector<double> &v);

/** The Table I model outputs (relative area and power). */
struct TableOne
{
    double splRows = 24;
    double relArea = 0.0;      ///< SPL area / 4-core area
    double relPeakDyn = 0.0;   ///< SPL peak dyn / 4-core peak dyn
    double relLeak = 0.0;      ///< SPL leakage / 4-core leakage
};
TableOne computeTableOne(const power::EnergyModel &model);

} // namespace remap::harness

#endif // REMAP_HARNESS_EXPERIMENT_HH
