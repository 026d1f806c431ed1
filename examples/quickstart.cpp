/**
 * @file
 * Quickstart: build a tiny program with the mini-ISA assembler, run
 * it on one simulated out-of-order core, and read back results and
 * statistics.
 *
 *   $ ./examples/quickstart
 */

#include <iostream>

#include "core/report.hh"
#include "core/system.hh"
#include "isa/builder.hh"

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: quickstart (takes no arguments)\n";
        return 2;
    }
    using namespace remap;

    // A chip with a single OOO1 core and its cache hierarchy.
    sys::System system(sys::SystemConfig::ooo1Cluster(1));

    // Sum the integers 0..99 into memory[0x1000].
    isa::ProgramBuilder b("sum");
    b.li(1, 0)               // i
        .li(2, 0)            // acc
        .li(3, 100)
        .label("loop")
        .bge(1, 3, "done")
        .add(2, 2, 1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(4, 0x1000)
        .sd(2, 4, 0)
        .halt();
    isa::Program prog = b.build();
    std::cout << isa::disassemble(prog) << '\n';

    auto &thread = system.createThread(&prog);
    system.mapThread(thread.id, /*core=*/0);
    sys::RunResult r = system.run();

    std::cout << "result: " << system.memory().readI64(0x1000)
              << " (expected 4950)\n";
    std::cout << "cycles: " << r.cycles << '\n';
    std::cout << "committed instructions: "
              << system.core(0).committedInsts.value() << '\n';
    std::cout << "branch mispredicts: "
              << system.core(0).mispredicts.value() << '\n';

    // Energy for the run, from the calibrated 65 nm model.
    power::EnergyModel model;
    power::Energy e = system.measureEnergy(model, r.cycles,
                                           /*include_idle=*/false);
    std::cout << "energy: " << e.totalJ() * 1e9 << " nJ ("
              << e.dynamicJ * 1e9 << " dynamic + "
              << e.leakageJ * 1e9 << " leakage)\n\n";

    // Structured report of the same run.
    sys::makeReport(system, r.cycles).print(std::cout);
    return 0;
}
