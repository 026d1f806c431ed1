/**
 * @file
 * The paper's running example (Section III-A / Figs. 5-6): the
 * P7Viterbi inner loop of 456.hmmer, parallelized as a
 * producer/consumer pair with the `mc` recurrence computed *inside*
 * the SPL while the data is in flight between the cores.
 *
 * Runs all four Fig. 5 organizations and prints their speedups.
 *
 *   $ ./examples/pipeline_hmmer
 */

#include <iostream>

#include "harness/table.hh"
#include "workloads/workload.hh"

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: pipeline_hmmer (takes no arguments)\n";
        return 2;
    }
    using namespace remap;
    using workloads::RunSpec;
    using workloads::Variant;

    std::cout <<
        "456.hmmer P7Viterbi (Fig. 5 of the paper)\n"
        "  (a) sequential: mc, dc, ic computed by one core\n"
        "  (b) 1Th+Comp: the 10-row Fig. 6 function computes mc\n"
        "  (c) 2Th+Comm: producer computes mc+ic, streams mc to a\n"
        "      consumer that computes dc\n"
        "  (d) 2Th+CompComm: the fabric computes mc while the value\n"
        "      travels from producer to consumer\n\n";

    harness::Table t;
    t.header({"Organization", "Cycles", "Speedup"});
    double base = 0.0;
    for (Variant v : {Variant::Seq, Variant::Comp, Variant::Comm,
                      Variant::CompComm}) {
        RunSpec spec;
        spec.variant = v;
        workloads::PreparedRun run = workloads::makeHmmer(spec);
        sys::RunResult r = run.run();
        if (!run.verify()) {
            std::cerr << "verification failed!\n";
            return 1;
        }
        if (v == Variant::Seq)
            base = static_cast<double>(r.cycles);
        t.row({workloads::variantName(v), std::to_string(r.cycles),
               harness::fmt(base / r.cycles, 2) + "x"});
    }
    t.print(std::cout);
    std::cout << "\nAll variants verified against the golden "
                 "P7Viterbi model.\n";
    return 0;
}
