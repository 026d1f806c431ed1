/**
 * @file
 * Ablation: SPL queue sizing. Streams a producer/consumer pair
 * through the fabric under different pending-initiation and output
 * queue capacities, and reports how far deeper queues decouple the
 * threads (Section II-B.1's queuing discussion).
 */

#include <algorithm>
#include <functional>
#include <iomanip>
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

Cycle
run(unsigned pending, unsigned out_words)
{
    sys::SystemConfig cfg = sys::SystemConfig::splCluster(2);
    cfg.clusters[0].splParams.pendingInitsPerCore = pending;
    cfg.clusters[0].splParams.outputQueueWords = out_words;
    sys::System sys(cfg);
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));

    const unsigned iters = 3000;
    isa::ProgramBuilder p("prod");
    p.li(1, 0).li(3, iters);
    p.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(pass, 1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    // A bursty consumer: drains in batches with pauses, so queue
    // capacity matters.
    isa::ProgramBuilder c("cons");
    c.li(1, 0).li(3, iters).li(6, 0);
    c.label("loop").bge(1, 3, "done");
    for (int k = 0; k < 8; ++k)
        c.splStore(4, 0).add(6, 6, 4);
    // pause: ~200 cycles of dependent multiplies
    c.li(5, 3);
    for (int k = 0; k < 12; ++k)
        c.mul(5, 5, 5);
    c.addi(1, 1, 8).j("loop").label("done").halt();

    auto pp = p.build();
    auto pc = c.build();
    auto &t0 = sys.createThread(&pp);
    auto &t1 = sys.createThread(&pc);
    sys.mapThread(t0.id, 0);
    sys.mapThread(t1.id, 1);
    auto r = sys.run(200'000'000);
    if (r.timedOut)
        REMAP_FATAL("queue-depth run (%u pending, %u words) timed out",
                    pending, out_words);
    return r.cycles;
}

/**
 * Largest relative cycle change along one axis of the grid, the
 * other held fixed: over @p lines lines (line l starts at index
 * l * @p line_stride and has @p len entries @p step apart), the
 * largest (max - min) / max.
 */
double
largestChange(const std::vector<Cycle> &cycles, std::size_t lines,
              std::size_t line_stride, std::size_t len, std::size_t step)
{
    double largest = 0.0;
    for (std::size_t l = 0; l < lines; ++l) {
        Cycle lo = cycles[l * line_stride], hi = lo;
        for (std::size_t k = 1; k < len; ++k) {
            const Cycle c = cycles[l * line_stride + k * step];
            lo = std::min(lo, c);
            hi = std::max(hi, c);
        }
        largest = std::max(largest, double(hi - lo) / double(hi));
    }
    return largest;
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: abl_queue_depth (takes no arguments)\n";
        return 2;
    }
    remap::harness::setExperimentLabel("abl_queue_depth");
    const std::vector<unsigned> pendings = {1u, 2u, 4u, 8u};
    const std::vector<unsigned> word_counts = {4u, 8u, 32u, 64u};
    std::vector<Cycle> cycles(pendings.size() * word_counts.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < pendings.size(); ++i)
        for (std::size_t w = 0; w < word_counts.size(); ++w)
            jobs.push_back([i, w, &pendings, &word_counts, &cycles] {
                cycles[i * word_counts.size() + w] =
                    run(pendings[i], word_counts[w]);
            });
    harness::JobPool::shared().run(std::move(jobs));

    // Nothing reaches stdout until every run has finished.
    std::cout << "Ablation: SPL queue sizing under a bursty "
                 "consumer (3000 messages)\n\n";
    harness::Table t;
    t.header({"Pending inits/core", "Output queue words",
              "Cycles"});
    std::size_t idx = 0;
    for (unsigned pending : pendings)
        for (unsigned words : word_counts)
            t.row({std::to_string(pending), std::to_string(words),
                   std::to_string(cycles[idx++])});
    t.print(std::cout);
    const std::size_t np = pendings.size(), nw = word_counts.size();
    std::cout << "\nLargest relative cycle change along each axis, "
                 "the other held fixed:\n"
              << std::fixed << std::setprecision(2)
              << "  pending inits/core " << pendings.front() << ".."
              << pendings.back() << ": "
              << 100.0 * largestChange(cycles, nw, 1, np, nw) << "%\n"
              << "  output queue words " << word_counts.front() << ".."
              << word_counts.back() << ": "
              << 100.0 * largestChange(cycles, np, nw, nw, 1) << "%\n";
    remap::harness::printSnapshotCacheSummary();
    return 0;
}
