/**
 * @file
 * Ablation: temporal-sharing degree. Runs 1..4 concurrent copies of
 * a compute-only SPL workload on one cluster and reports wall time
 * and round-robin conflicts — quantifying the contention cost the
 * paper's 4-way sharing design accepts in exchange for amortizing
 * fabric area (Section II-A).
 */

#include <functional>
#include <iostream>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/table.hh"
#include "harness/manifest.hh"
#include "sim/logging.hh"

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: abl_sharing_degree (takes no arguments)\n";
        return 2;
    }
    remap::harness::setExperimentLabel("abl_sharing_degree");
    using namespace remap;
    using workloads::Variant;

    struct Point
    {
        Cycle cycles = 0;
        std::uint64_t rrConflicts = 0;
        std::uint64_t initiations = 0;
    };
    std::vector<Point> points(4);
    std::vector<std::function<void()>> jobs;
    for (unsigned copies = 1; copies <= 4; ++copies)
        jobs.push_back([copies, &points] {
            workloads::RunSpec spec;
            spec.variant = Variant::Comp;
            spec.copies = copies;
            auto run = workloads::makeG721(spec, true);
            auto rr = run.run();
            if (run.verify && !run.verify())
                REMAP_FATAL("g721enc with %u copies failed golden "
                            "verification",
                            copies);
            Point &p = points[copies - 1];
            p.cycles = rr.cycles;
            p.rrConflicts =
                run.system->fabric(0).rrConflicts.value();
            p.initiations =
                run.system->fabric(0).initiations.value();
        });
    harness::JobPool::shared().run(std::move(jobs));

    // Nothing reaches stdout until every run has finished and
    // verified.
    std::cout << "Ablation: SPL temporal-sharing degree "
                 "(g721enc, 1Th+Comp copies)\n\n";
    harness::Table t;
    t.header({"Copies", "Cycles", "Slowdown vs alone",
              "RR conflicts", "Fabric initiations"});
    const double alone = static_cast<double>(points[0].cycles);
    for (unsigned copies = 1; copies <= 4; ++copies) {
        const Point &p = points[copies - 1];
        t.row({std::to_string(copies), std::to_string(p.cycles),
               harness::fmt(p.cycles / alone) + "x",
               std::to_string(p.rrConflicts),
               std::to_string(p.initiations)});
    }
    t.print(std::cout);
    std::cout << "\nTotal throughput rises with sharing while "
                 "per-thread latency degrades\nonly mildly — the "
                 "premise of the shared-fabric cluster.\n";
    return 0;
}
