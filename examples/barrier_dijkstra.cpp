/**
 * @file
 * Parallel Dijkstra with ReMAP barriers (Section III-B / Fig. 7):
 * compares software barriers, ReMAP token barriers, and ReMAP
 * barriers with the global minimum computed inside the fabric (which
 * eliminates one of the two barriers per iteration).
 *
 *   $ ./examples/barrier_dijkstra [nodes] [threads]
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/table.hh"
#include "sim/env.hh"
#include "workloads/workload.hh"

namespace
{

/** Print a one-line diagnostic and exit with status 2 (bad usage). */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "barrier_dijkstra: " << msg
              << " (usage: barrier_dijkstra [nodes] [threads])\n";
    std::exit(2);
}

/** Parse @p text as a decimal count in [@p lo, @p hi], or exit 2. */
unsigned
parseArg(const char *name, const char *text, unsigned lo, unsigned hi)
{
    std::uint64_t v = 0;
    std::string error;
    if (!remap::env::parseCount(name, text, &v, &error))
        usageError(error);
    if (v < lo || v > hi) {
        usageError(std::string(name) + " must be in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got " + text);
    }
    return static_cast<unsigned>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace remap;
    using workloads::RunSpec;
    using workloads::Variant;

    // Validate everything before printing anything: node ids pack
    // into 8 bits (n <= 256), at least one relaxation step needs
    // n >= 2, and each thread owns n / threads nodes. Barrier+Comp
    // combines one regional minimum per 4-core SPL cluster and has
    // slots for 4 clusters, so at most 16 threads.
    if (argc > 3)
        usageError("too many arguments");
    const unsigned nodes =
        argc > 1 ? parseArg("nodes", argv[1], 2, 256) : 96;
    const unsigned threads =
        argc > 2 ? parseArg("threads", argv[2], 1, std::min(nodes, 16u))
                 : 4;
    if (nodes % threads != 0) {
        usageError("nodes (" + std::to_string(nodes) +
                   ") must be divisible by threads (" +
                   std::to_string(threads) + ")");
    }

    std::cout << "Parallel Dijkstra, " << nodes << " nodes, "
              << threads << " threads (Fig. 7 of the paper)\n\n";

    harness::Table t;
    t.header({"Variant", "Cycles", "Cycles/iteration", "Speedup"});
    double base = 0.0;
    for (Variant v : {Variant::Seq, Variant::SwBarrier,
                      Variant::HwBarrier, Variant::HwBarrierComp}) {
        RunSpec spec;
        spec.variant = v;
        spec.problemSize = nodes;
        spec.threads = threads;
        workloads::PreparedRun run = workloads::makeDijkstra(spec);
        sys::RunResult r = run.run();
        if (!run.verify()) {
            std::cerr << "verification failed for "
                      << workloads::variantName(v) << "\n";
            return 1;
        }
        if (v == Variant::Seq)
            base = static_cast<double>(r.cycles);
        t.row({workloads::variantName(v), std::to_string(r.cycles),
               harness::fmt(double(r.cycles) / (nodes - 1), 0),
               harness::fmt(base / r.cycles, 2) + "x"});
    }
    t.print(std::cout);
    std::cout <<
        "\nBarrier+Comp stages each thread's packed (distance,node)\n"
        "key into the fabric; the barrier release delivers the global\n"
        "minimum to every participant, eliminating the serial\n"
        "global-min phase and one barrier per iteration.\n";
    return 0;
}
