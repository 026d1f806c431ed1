/**
 * @file
 * Ablation: spatial partitioning vs virtualization. Issues a stream
 * of initiations of functions with different row counts under 1-, 2-
 * and 4-way partitioning. Small functions benefit from partitioning
 * (no sharing conflicts); functions bigger than a partition
 * virtualize and lose initiation rate (Section II-A).
 */

#include <functional>
#include <iostream>

#include "core/system.hh"
#include "harness/parallel.hh"
#include "harness/table.hh"
#include "isa/builder.hh"
#include "spl/function.hh"
#include "harness/manifest.hh"
#include "harness/snapshot_cache.hh"
#include "sim/logging.hh"

using namespace remap;

namespace
{

/** Build an R-row chain function (one AddImm per row). */
spl::SplFunction
chainFunction(unsigned rows)
{
    spl::FunctionBuilder b("chain" + std::to_string(rows), 1);
    for (unsigned i = 0; i < rows; ++i)
        b.row().op(spl::WOp::AddImm, 0, 0, 0, 1);
    return b.outputs({0}).build();
}

/** Four threads each pushing `iters` initiations of `cfg`. */
Cycle
run(unsigned partitions, unsigned rows, unsigned iters)
{
    sys::System sys(sys::SystemConfig::splCluster(partitions));
    ConfigId cfg = sys.registerFunction(chainFunction(rows));
    std::vector<isa::Program> progs;
    progs.reserve(4);
    for (unsigned t = 0; t < 4; ++t) {
        isa::ProgramBuilder b("t" + std::to_string(t));
        b.li(1, 0).li(2, 0).li(3, iters);
        // software-pipelined: 3 in flight
        for (int i = 0; i < 3; ++i)
            b.splLoad(1, 0).splInit(cfg);
        b.label("loop")
            .bge(2, 3, "done")
            .splLoad(1, 0)
            .splInit(cfg)
            .splStore(4, 0)
            .addi(2, 2, 1)
            .j("loop")
            .label("done")
            .splStore(4, 0)
            .splStore(4, 0)
            .splStore(4, 0)
            .halt();
        progs.push_back(b.build());
    }
    for (unsigned t = 0; t < 4; ++t) {
        auto &th = sys.createThread(&progs[t]);
        sys.mapThread(th.id, t);
    }
    auto r = sys.run(200'000'000);
    if (r.timedOut)
        REMAP_FATAL("partitioning run (%u partitions, %u rows) timed out",
                    partitions, rows);
    return r.cycles;
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: abl_partitioning (takes no arguments)\n";
        return 2;
    }
    remap::harness::setExperimentLabel("abl_partitioning");
    const std::vector<unsigned> row_counts = {4u, 8u, 12u, 16u, 24u};
    const std::vector<unsigned> part_counts = {1u, 2u, 4u};
    std::vector<Cycle> cycles(row_counts.size() *
                              part_counts.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t r = 0; r < row_counts.size(); ++r)
        for (std::size_t p = 0; p < part_counts.size(); ++p)
            jobs.push_back([r, p, &row_counts, &part_counts,
                            &cycles] {
                cycles[r * part_counts.size() + p] =
                    run(part_counts[p], row_counts[r], 2000);
            });
    harness::JobPool::shared().run(std::move(jobs));

    // Nothing reaches stdout until every run has finished.
    std::cout << "Ablation: spatial partitioning vs virtualization "
                 "(4 threads, 2000\ninitiations each, function row "
                 "counts vs partition row budgets)\n\n";
    harness::Table t;
    t.header({"Function rows", "1 partition (24 rows)",
              "2 partitions (12 rows)", "4 partitions (6 rows)"});
    std::size_t idx = 0;
    for (unsigned rows : row_counts) {
        std::vector<std::string> row = {std::to_string(rows)};
        for (std::size_t p = 0; p < part_counts.size(); ++p)
            row.push_back(std::to_string(cycles[idx++]) + " cyc");
        t.row(row);
    }
    t.print(std::cout);
    std::cout << "\nSmall functions: partitioning removes sharing "
                 "conflicts. Functions\nlarger than a partition pay "
                 "virtualized initiation intervals.\n";
    remap::harness::printSnapshotCacheSummary();
    return 0;
}
