/**
 * @file
 * Defining a custom SPL configuration with FunctionBuilder and using
 * it three ways: per-thread computation, producer->consumer
 * communication with in-flight computation, and a barrier with an
 * integrated global function — the three organizations of the
 * paper's Fig. 1.
 *
 *   $ ./examples/custom_function
 */

#include <iostream>

#include "core/system.hh"
#include "isa/builder.hh"
#include "spl/function.hh"

using namespace remap;

namespace
{

/** A custom 4-row function: clamp(a*b + c, 0, 1000). Within a row
 *  all cells read pre-row values, so the two clamp bounds occupy
 *  separate rows. */
spl::SplFunction
madClamp()
{
    spl::FunctionBuilder b("mad_clamp", 3);
    b.row().op(spl::WOp::Mul, 3, 0, 1);
    b.row().op(spl::WOp::Add, 3, 3, 2);
    b.row().op(spl::WOp::MaxImm, 3, 3, 0, 0);
    b.row().op(spl::WOp::MinImm, 3, 3, 0, 1000);
    return b.outputs({3}).build();
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::cerr << "usage: custom_function (takes no arguments)\n";
        return 2;
    }
    // Fig. 1(a): a thread using the fabric as a functional unit.
    {
        sys::System system(sys::SystemConfig::splCluster());
        ConfigId cfg = system.registerFunction(madClamp());
        isa::ProgramBuilder b("self");
        b.li(1, 30)
            .li(2, 40)
            .li(3, -175)
            .splLoad(1, 0)
            .splLoad(2, 1)
            .splLoad(3, 2)
            .splInit(cfg)          // destination: self
            .splStore(4, 0)
            .li(5, 0x1000)
            .sd(4, 5, 0)
            .halt();
        auto prog = b.build();
        auto &t = system.createThread(&prog);
        system.mapThread(t.id, 0);
        system.run();
        std::cout << "independent computation:  clamp(30*40-175) = "
                  << system.memory().readI64(0x1000)
                  << " (expect 1000)\n";
    }

    // Fig. 1(b): computation happens while data moves between cores.
    {
        sys::System system(sys::SystemConfig::splCluster());
        ConfigId cfg = system.registerFunction(madClamp());
        isa::ProgramBuilder prod("producer");
        prod.li(1, 5)
            .li(2, 7)
            .li(3, 100)
            .splLoad(1, 0)
            .splLoad(2, 1)
            .splLoad(3, 2)
            .splInit(cfg, /*dest thread=*/1)
            .halt();
        isa::ProgramBuilder cons("consumer");
        cons.splStore(4, 0).li(5, 0x2000).sd(4, 5, 0).halt();
        auto pp = prod.build();
        auto pc = cons.build();
        auto &t0 = system.createThread(&pp);
        auto &t1 = system.createThread(&pc);
        system.mapThread(t0.id, 0);
        system.mapThread(t1.id, 1);
        system.run();
        std::cout << "comm + computation:       5*7+100 = "
                  << system.memory().readI64(0x2000)
                  << " (expect 135)\n";
    }

    // Fig. 1(c): barrier with an integrated global function.
    {
        sys::System system(sys::SystemConfig::splCluster());
        ConfigId mincfg =
            system.registerFunction(spl::functions::globalMin());
        system.declareBarrier(/*id=*/0, /*participants=*/4);
        std::vector<isa::Program> progs;
        const int vals[4] = {42, 17, 99, 23};
        for (unsigned t = 0; t < 4; ++t) {
            isa::ProgramBuilder b("t" + std::to_string(t));
            b.li(1, vals[t])
                .splLoad(1, 0)
                .splBar(mincfg, 0)
                .splStore(2, 0)
                .li(3, 0x3000 + 8 * t)
                .sd(2, 3, 0)
                .halt();
            progs.push_back(b.build());
        }
        for (unsigned t = 0; t < 4; ++t) {
            auto &th = system.createThread(&progs[t]);
            system.mapThread(th.id, t);
        }
        system.run();
        std::cout << "barrier + global min:     min(42,17,99,23) = "
                  << system.memory().readI64(0x3000)
                  << " on every core (expect 17)\n";
        for (unsigned t = 1; t < 4; ++t) {
            if (system.memory().readI64(0x3000 + 8 * t) != 17) {
                std::cerr << "mismatch on core " << t << "\n";
                return 1;
            }
        }
    }

    std::cout << "\nAll three Fig. 1 organizations produced correct "
                 "results.\n";
    return 0;
}
