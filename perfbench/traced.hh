/**
 * @file
 * The traced path: one region job driven through the same public calls
 * harness::runRegion makes, with a span around each call and the
 * public stats read before and after the simulation.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/parallel.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** A named value with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One recorded call into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0; ///< from the traced pass's start
    std::int64_t durNs = 0;
    std::int32_t parent = -1; ///< index in the same list; -1 = root
    std::uint32_t job = 0;    ///< canonical job index (batch index for
                              ///< batch spans)
    std::uint32_t worker = 0;
};

/** Counters read from the public stats of a System. */
enum Counter : unsigned
{
    SimCycles,
    CommittedInsts,
    Leaps,
    LeapSkippedCycles,
    FusedFetchInsts,
    GenericFetchInsts,
    SplCommitStalls,
    SplFetchStalls,
    L1dHits,
    L1dMisses,
    L2Hits,
    L2Misses,
    BusTransactions,
    C2cTransfers,
    MruHits,
    MruMisses,
    Initiations,
    OutputWordsPopped,
    RrConflicts,
    ConfigSwitches,
    BarriersCompleted,
    kNumCounters
};
using Counters = std::array<std::uint64_t, kNumCounters>;

/** What the traced path learned about one job. */
struct TracedJob
{
    remap::harness::RegionResult result;
    bool verified = false;
    bool timedOut = false;
    /** Work this run simulated: counters at the end minus counters
     *  right after a warm-start restore (so restored prefixes, which
     *  were simulated by an earlier job, are not counted twice). */
    Counters counters{};
    /** This job's spans; the first is its root "job" span. */
    std::vector<Span> spans;
};

/** Run @p job exactly as runRegion would, recording spans timed from
 *  @p origin under canonical job index @p index. */
TracedJob runTracedRegion(const remap::harness::RegionJob &job,
                          const remap::power::EnergyModel &model,
                          Clock::time_point origin, std::uint32_t index);

/**
 * The span- and counter-derived per-layer metrics of one traced pass
 * (layers workloads, core, cpu, mem, spl, power and the span totals of
 * harness). @p jobs and @p specs are in canonical order.
 */
std::vector<Metric>
layerMetrics(const std::vector<TracedJob> &jobs,
             const std::vector<remap::harness::RegionJob> &specs);

/** Write @p spans as Chrome trace-event JSON (Perfetto-viewable). */
void writeSpansJson(std::ostream &os, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
