/** @file Differential testing: randomized programs are executed by
 *  the pure ISA interpreter and by the cycle-level out-of-order core;
 *  architectural results must match exactly. This cross-checks the
 *  core's functional-first execution, renaming, memory ordering and
 *  branch handling against an independent reference. */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "isa/builder.hh"
#include "isa/interp.hh"
#include "random_program.hh"

namespace remap
{
namespace
{

using testprog::randomMemProgram;
using testprog::randomProgram;

/** Run @p prog on the interpreter and on single OOO1 and OOO2 cores;
 *  every register and the scratch region must agree. */
void
expectCoreMatchesInterpreter(const isa::Program &prog)
{
    mem::MemoryImage ref_mem;
    isa::InterpResult ref = isa::interpret(prog, ref_mem);
    ASSERT_TRUE(ref.halted);

    mem::MemoryImage core_mem;
    mem::MemSystem timing(1);
    cpu::OooCore core(0, cpu::CoreParams::ooo1(), &timing,
                      &core_mem);
    cpu::ThreadContext ctx;
    ctx.id = 0;
    ctx.reset(&prog);
    core.bindThread(&ctx);
    Cycle cycle = 0;
    while (!core.done()) {
        core.tick(cycle++);
        ASSERT_LT(cycle, 10'000'000u) << "core wedged";
    }

    for (unsigned x = 0; x < isa::numIntRegs; ++x)
        EXPECT_EQ(ctx.intRegs[x], ref.intRegs[x]) << "x" << x;
    for (unsigned f = 0; f < isa::numFpRegs; ++f)
        EXPECT_EQ(ctx.fpRegs[f], ref.fpRegs[f]) << "f" << f;
    // Memory side: compare the scratch region.
    for (Addr a = 0x10000; a < 0x10000 + 1024; a += 8)
        EXPECT_EQ(core_mem.readI64(a), ref_mem.readI64(a))
            << "addr 0x" << std::hex << a;
    // And the OOO2 core must agree as well.
    mem::MemoryImage core2_mem;
    mem::MemSystem timing2(1);
    cpu::OooCore core2(0, cpu::CoreParams::ooo2(), &timing2,
                       &core2_mem);
    cpu::ThreadContext ctx2;
    ctx2.id = 0;
    ctx2.reset(&prog);
    core2.bindThread(&ctx2);
    cycle = 0;
    while (!core2.done()) {
        core2.tick(cycle++);
        ASSERT_LT(cycle, 10'000'000u);
    }
    for (unsigned x = 0; x < isa::numIntRegs; ++x)
        EXPECT_EQ(ctx2.intRegs[x], ref.intRegs[x]) << "x" << x;
}

class Differential : public ::testing::TestWithParam<int>
{
};

TEST_P(Differential, CoreMatchesInterpreter)
{
    expectCoreMatchesInterpreter(randomProgram(0xd1ff0000 + GetParam()));
}

TEST_P(Differential, MemProgramsMatchInterpreter)
{
    // Sub-word and partially overlapping stores/loads, atomics and
    // fences: the store-to-load forwarding and atomic-ordering paths.
    expectCoreMatchesInterpreter(
        randomMemProgram(0x3e3f0000 + GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, Differential,
                         ::testing::Range(0, 24));

} // namespace
} // namespace remap
