/** @file Tests for the out-of-order core: functional correctness of
 *  every opcode class, and first-order timing behaviour (widths,
 *  dependencies, mispredictions, cache misses). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "cpu/core.hh"
#include "isa/builder.hh"
#include "random_program.hh"

namespace remap::cpu
{
namespace
{

/** Single-core fixture with its own memory. */
class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : mem(1) {}

    /** Run @p prog on a fresh core; @return cycles to completion. */
    Cycle
    run(const isa::Program &prog, const CoreParams &params)
    {
        core = std::make_unique<OooCore>(0, params, &mem, &image);
        ctx.id = 0;
        ctx.reset(&prog);
        core->bindThread(&ctx);
        Cycle cycle = 0;
        while (!core->done()) {
            core->tick(cycle++);
            if (cycle > 4'000'000)
                ADD_FAILURE() << "core did not finish";
        }
        return cycle;
    }

    Cycle
    runOoo1(const isa::Program &prog)
    {
        return run(prog, CoreParams::ooo1());
    }

    mem::MemSystem mem;
    mem::MemoryImage image;
    std::unique_ptr<OooCore> core;
    ThreadContext ctx;
};

TEST_F(CoreTest, AluArithmetic)
{
    isa::ProgramBuilder b("t");
    b.li(1, 20)
        .li(2, 22)
        .add(3, 1, 2)
        .sub(4, 2, 1)
        .mul(5, 1, 2)
        .div(6, 2, 1)
        .rem(7, 2, 1)
        .min(8, 1, 2)
        .max(9, 1, 2)
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[3], 42);
    EXPECT_EQ(ctx.intRegs[4], 2);
    EXPECT_EQ(ctx.intRegs[5], 440);
    EXPECT_EQ(ctx.intRegs[6], 1);
    EXPECT_EQ(ctx.intRegs[7], 2);
    EXPECT_EQ(ctx.intRegs[8], 20);
    EXPECT_EQ(ctx.intRegs[9], 22);
}

TEST_F(CoreTest, LogicAndShifts)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0xf0)
        .li(2, 0x0f)
        .and_(3, 1, 2)
        .or_(4, 1, 2)
        .xor_(5, 1, 2)
        .slli(6, 2, 4)
        .srli(7, 1, 4)
        .li(8, -16)
        .srai(9, 8, 2)
        .slti(11, 2, 16)
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[3], 0);
    EXPECT_EQ(ctx.intRegs[4], 0xff);
    EXPECT_EQ(ctx.intRegs[5], 0xff);
    EXPECT_EQ(ctx.intRegs[6], 0xf0);
    EXPECT_EQ(ctx.intRegs[7], 0x0f);
    EXPECT_EQ(ctx.intRegs[9], -4);
    EXPECT_EQ(ctx.intRegs[11], 1);
}

TEST_F(CoreTest, X0IsHardwiredZero)
{
    isa::ProgramBuilder b("t");
    b.li(0, 99).add(1, 0, 0).halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[1], 0);
}

TEST_F(CoreTest, MemoryRoundTrip)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0x1000)
        .li(2, -77)
        .sd(2, 1, 0)
        .ld(3, 1, 0)
        .sw(2, 1, 16)
        .lw(4, 1, 16)
        .li(5, 200)
        .sb(5, 1, 32)
        .lbu(6, 1, 32)
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[3], -77);
    EXPECT_EQ(ctx.intRegs[4], -77);
    EXPECT_EQ(ctx.intRegs[6], 200);
    EXPECT_EQ(image.readI64(0x1000), -77);
}

TEST_F(CoreTest, FloatingPoint)
{
    isa::ProgramBuilder b("t");
    b.li(1, 3)
        .fcvtI2F(1, 1)
        .li(2, 4)
        .fcvtI2F(2, 2)
        .fadd(3, 1, 2)
        .fmul(4, 1, 2)
        .fdiv(5, 2, 1)
        .fsub(6, 1, 2)
        .flt(7, 1, 2)
        .fle(8, 2, 1)
        .fcvtF2I(9, 4)
        .li(10, 0x2000)
        .fsd(3, 10, 0)
        .fld(11, 10, 0)
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_DOUBLE_EQ(ctx.fpRegs[3], 7.0);
    EXPECT_DOUBLE_EQ(ctx.fpRegs[4], 12.0);
    EXPECT_DOUBLE_EQ(ctx.fpRegs[5], 4.0 / 3.0);
    EXPECT_DOUBLE_EQ(ctx.fpRegs[6], -1.0);
    EXPECT_EQ(ctx.intRegs[7], 1);
    EXPECT_EQ(ctx.intRegs[8], 0);
    EXPECT_EQ(ctx.intRegs[9], 12);
    EXPECT_DOUBLE_EQ(ctx.fpRegs[11], 7.0);
}

TEST_F(CoreTest, Atomics)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0x1000)
        .li(2, 5)
        .sd(2, 1, 0)
        .li(3, 3)
        .amoadd(4, 1, 3)
        .amoswap(5, 1, 2)
        .ld(6, 1, 0)
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[4], 5);  // old value
    EXPECT_EQ(ctx.intRegs[5], 8);  // 5+3 before swap
    EXPECT_EQ(ctx.intRegs[6], 5);  // swapped back in
}

TEST_F(CoreTest, LoopSumsCorrectly)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0)
        .li(2, 0)
        .li(3, 100)
        .label("loop")
        .bge(1, 3, "done")
        .add(2, 2, 1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[2], 4950);
}

TEST_F(CoreTest, RebindToAnotherProgramDecodesIt)
{
    // Program A is ALU ops at every pc. Program B, bound to the same
    // core after A halts, holds stores, loads and a branch at those
    // pcs: decoding B with A's table would run them as ALU ops.
    isa::ProgramBuilder a("a");
    for (int i = 0; i < 12; ++i)
        a.addi(static_cast<isa::RegIndex>(1 + (i % 6)), 0, i);
    a.halt();
    auto pa = a.build();
    const Cycle a_end = runOoo1(pa);
    EXPECT_EQ(ctx.intRegs[6], 11);

    isa::ProgramBuilder b("b");
    b.li(1, 0x2000)
        .li(2, 0)
        .li(3, 5)
        .label("loop")
        .sd(3, 1, 0)
        .addi(2, 2, 1)
        .addi(1, 1, 8)
        .blt(2, 3, "loop")
        .ld(4, 1, -8)
        .halt();
    auto pb = b.build();
    ASSERT_LE(pb.code.size(), pa.code.size());
    ThreadContext ctx_b;
    ctx_b.id = 0;
    ctx_b.reset(&pb);
    core->bindThread(&ctx_b);
    Cycle cycle = a_end;
    while (!core->done()) {
        core->tick(cycle++);
        ASSERT_LT(cycle, a_end + 1'000'000) << "core did not finish";
    }
    EXPECT_EQ(ctx_b.intRegs[1], 0x2000 + 5 * 8);
    EXPECT_EQ(ctx_b.intRegs[2], 5);
    EXPECT_EQ(ctx_b.intRegs[4], 5);
    for (Addr addr = 0x2000; addr < 0x2000 + 5 * 8; addr += 8)
        EXPECT_EQ(image.readI64(addr), 5) << addr;
    EXPECT_EQ(image.readI64(0x2000 + 5 * 8), 0);
}

TEST_F(CoreTest, DependentChainSlowerThanIndependent)
{
    isa::ProgramBuilder dep("dep");
    dep.li(1, 1);
    for (int i = 0; i < 200; ++i)
        dep.mul(1, 1, 1);
    dep.halt();
    auto pd = dep.build();
    Cycle t_dep = runOoo1(pd);

    isa::ProgramBuilder ind("ind");
    ind.li(1, 1);
    for (int i = 0; i < 200; ++i)
        ind.mul(static_cast<isa::RegIndex>(2 + (i % 8)), 1, 1);
    ind.halt();
    auto pi = ind.build();
    Cycle t_ind = runOoo1(pi);

    EXPECT_GT(t_dep, t_ind);
}

TEST_F(CoreTest, Ooo2FasterOnIlp)
{
    isa::ProgramBuilder b("ilp");
    b.li(1, 1).li(2, 2);
    for (int i = 0; i < 300; ++i)
        b.add(static_cast<isa::RegIndex>(3 + (i % 8)), 1, 2);
    b.halt();
    auto p = b.build();
    Cycle t1 = runOoo1(p);
    Cycle t2 = run(p, CoreParams::ooo2());
    EXPECT_LT(t2, t1);
    // A 1-wide core needs at least one cycle per instruction.
    EXPECT_GE(t1, 300u);
}

TEST_F(CoreTest, UnpredictableBranchesCostCycles)
{
    // Data-dependent branch on pseudo-random bits vs. the same loop
    // without the branch dependence.
    auto make = [&](bool branchy) {
        isa::ProgramBuilder b(branchy ? "br" : "nobr");
        b.li(1, 0)
            .li(2, 12345)
            .li(3, 2000)
            .li(4, 0)
            .label("loop")
            .bge(1, 3, "done")
            // xorshift-ish scramble
            .slli(5, 2, 13)
            .xor_(2, 2, 5)
            .srli(5, 2, 7)
            .xor_(2, 2, 5)
            .andi(6, 2, 1);
        if (branchy) {
            b.beq(6, 0, "skip").addi(4, 4, 1).label("skip");
        } else {
            b.add(4, 4, 6);
        }
        b.addi(1, 1, 1).j("loop").label("done").halt();
        return b.build();
    };
    auto pb = make(true);
    Cycle t_br = runOoo1(pb);
    auto mispred = core->mispredicts.value();
    auto pn = make(false);
    Cycle t_nb = runOoo1(pn);
    EXPECT_GT(mispred, 500u); // ~50% of 2000 hard branches
    EXPECT_GT(t_br, t_nb);
}

TEST_F(CoreTest, ColdMissesThenWarmHits)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0x1000).li(3, 0);
    // two passes over 16 lines
    for (int pass = 0; pass < 2; ++pass)
        for (int i = 0; i < 16; ++i)
            b.ld(2, 1, i * 64).add(3, 3, 2);
    b.halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(mem.l1d(0).misses.value(), 16u);
    EXPECT_GE(mem.l1d(0).hits.value(), 16u);
}

TEST_F(CoreTest, StoreToLoadForwarding)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0x7000).li(2, 9).sd(2, 1, 0).ld(3, 1, 0).halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(ctx.intRegs[3], 9);
}

TEST_F(CoreTest, CommitsMatchProgramLength)
{
    isa::ProgramBuilder b("t");
    b.li(1, 5).addi(1, 1, 1).addi(1, 1, 1).halt();
    auto p = b.build();
    runOoo1(p);
    EXPECT_EQ(core->committedInsts.value(), 4u);
    EXPECT_EQ(core->fetchedInsts.value(), 4u);
}

TEST_F(CoreTest, FenceWaitsForStores)
{
    isa::ProgramBuilder b("t");
    b.li(1, 0x9000).li(2, 3).sd(2, 1, 0).fence().halt();
    auto p = b.build();
    Cycle t = runOoo1(p);
    // The cold store misses to memory (~200+ cycles); the fence must
    // hold commit until the writeback completes.
    EXPECT_GT(t, 200u);
}

} // namespace
} // namespace remap::cpu

namespace remap::cpu
{
namespace
{

TEST_F(CoreTest, TraceStreamRecordsCommits)
{
    isa::ProgramBuilder b("t");
    b.li(1, 5).addi(1, 1, 1).halt();
    auto p = b.build();
    core = std::make_unique<OooCore>(0, CoreParams::ooo1(), &mem,
                                     &image);
    std::ostringstream trace;
    core->setTraceStream(&trace);
    ctx.id = 0;
    ctx.reset(&p);
    core->bindThread(&ctx);
    Cycle cycle = 0;
    while (!core->done())
        core->tick(cycle++);
    std::string s = trace.str();
    EXPECT_NE(s.find("li"), std::string::npos);
    EXPECT_NE(s.find("addi"), std::string::npos);
    EXPECT_NE(s.find("halt"), std::string::npos);
    EXPECT_NE(s.find("core0"), std::string::npos);
    // one line per committed instruction
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
}

} // namespace
} // namespace remap::cpu

namespace remap::cpu
{
namespace
{

/** One recorded single-core run: the generator ("alu" =
 *  testprog::randomProgram, "mem" = testprog::randomMemProgram), its
 *  seed, the core type, and what the run produced. */
struct TimingRow
{
    const char *gen;
    unsigned seed;
    const char *core;
    std::uint64_t cycles;
    std::uint64_t committed;
    std::uint64_t robFull;
    std::uint64_t iqFull;
    std::uint64_t lsqFull;
    std::uint64_t splCommit;
    std::uint64_t splFetch;
    std::uint64_t fetchStall;
    std::uint64_t mispredicts;
    std::uint64_t active;
};

bool
operator==(const TimingRow &a, const TimingRow &b)
{
    return std::string(a.gen) == b.gen && a.seed == b.seed &&
           std::string(a.core) == b.core && a.cycles == b.cycles &&
           a.committed == b.committed && a.robFull == b.robFull &&
           a.iqFull == b.iqFull && a.lsqFull == b.lsqFull &&
           a.splCommit == b.splCommit && a.splFetch == b.splFetch &&
           a.fetchStall == b.fetchStall &&
           a.mispredicts == b.mispredicts && a.active == b.active;
}

/** The row as it is written in kRecordedTiming below. */
std::string
formatRow(const TimingRow &r)
{
    std::ostringstream os;
    os << "{\"" << r.gen << "\", " << r.seed << ", \"" << r.core
       << "\", " << r.cycles << ", " << r.committed << ", "
       << r.robFull << ", " << r.iqFull << ", " << r.lsqFull << ", "
       << r.splCommit << ", " << r.splFetch << ", " << r.fetchStall
       << ", " << r.mispredicts << ", " << r.active << "},";
    return os.str();
}

/** Run @p gen's program for @p seed on a one-core system of @p core
 *  type; @p per_cycle selects the REMAP_NO_LEAP reference loop. */
TimingRow
measureTiming(const char *gen, unsigned seed, const char *core,
              bool per_cycle)
{
    const isa::Program prog = std::string(gen) == "mem"
                                  ? testprog::randomMemProgram(seed)
                                  : testprog::randomProgram(seed);
    if (per_cycle) {
        EXPECT_EQ(setenv("REMAP_NO_LEAP", "1", 1), 0);
    }
    sys::System s(std::string(core) == "ooo2"
                      ? sys::SystemConfig::ooo2Cluster(1)
                      : sys::SystemConfig::ooo1Cluster(1));
    if (per_cycle) {
        EXPECT_EQ(unsetenv("REMAP_NO_LEAP"), 0);
    }
    auto &t = s.createThread(&prog);
    s.mapThread(t.id, 0);
    const sys::RunResult res = s.run(10'000'000);
    EXPECT_FALSE(res.timedOut);
    const OooCore &c = s.core(0);
    return TimingRow{gen,
                     seed,
                     core,
                     res.cycles,
                     c.committedInsts.value(),
                     c.robFullStalls.value(),
                     c.iqFullStalls.value(),
                     c.lsqFullStalls.value(),
                     c.splCommitStalls.value(),
                     c.splFetchStalls.value(),
                     c.fetchStallCycles.value(),
                     c.mispredicts.value(),
                     c.activeCycles.value()};
}

/**
 * Cycles, committed instructions and every stall counter of each
 * seed on single-core OOO1 and OOO2 systems. Recorded before the
 * core's window, issue-queue/store/in-flight lists and per-core sleep
 * were introduced (DESIGN.md §10, §11); the pipeline's timing must
 * not depend on how its structures are stored. Re-record a row only
 * for an intended timing change, from the "actual:" line a mismatch
 * prints.
 */
const TimingRow kRecordedTiming[] = {
    {"alu", 1, "ooo1", 2558, 905, 0, 670, 0, 0, 0, 50, 1, 2558},
    {"alu", 1, "ooo2", 2133, 905, 0, 335, 0, 0, 0, 26, 1, 2133},
    {"alu", 2, "ooo1", 3490, 1137, 1180, 3, 0, 0, 0, 99, 4, 3490},
    {"alu", 2, "ooo2", 3445, 1137, 1178, 0, 0, 0, 0, 108, 4, 3445},
    {"alu", 3, "ooo1", 2892, 834, 0, 583, 0, 0, 0, 48, 1, 2892},
    {"alu", 3, "ooo2", 2510, 834, 0, 292, 0, 0, 0, 25, 1, 2510},
    {"alu", 4, "ooo1", 3226, 980, 0, 903, 0, 0, 0, 276, 3, 3226},
    {"alu", 4, "ooo2", 2922, 980, 0, 669, 0, 0, 0, 257, 3, 2922},
    {"alu", 5, "ooo1", 3009, 1103, 0, 455, 0, 0, 0, 578, 13, 3009},
    {"alu", 5, "ooo2", 2870, 1103, 624, 0, 0, 0, 0, 452, 13, 2870},
    {"alu", 6, "ooo1", 2193, 542, 0, 419, 0, 0, 0, 44, 1, 2193},
    {"alu", 6, "ooo2", 1949, 542, 0, 209, 0, 0, 0, 23, 1, 1949},
    {"alu", 7, "ooo1", 4366, 1976, 0, 749, 0, 0, 0, 928, 21, 4366},
    {"alu", 7, "ooo2", 3472, 1976, 518, 0, 0, 0, 0, 563, 21, 3472},
    {"alu", 8, "ooo1", 4751, 2114, 2330, 37, 0, 0, 0, 230, 2, 4751},
    {"alu", 8, "ooo2", 4668, 2114, 2285, 17, 0, 0, 0, 226, 2, 4668},
    {"alu", 9, "ooo1", 2619, 530, 0, 337, 0, 0, 0, 504, 5, 2619},
    {"alu", 9, "ooo2", 2183, 530, 0, 163, 0, 0, 0, 477, 5, 2183},
    {"alu", 10, "ooo1", 3849, 1564, 0, 1075, 0, 0, 0, 178, 5, 3849},
    {"alu", 10, "ooo2", 3222, 1564, 721, 8, 0, 0, 0, 93, 5, 3222},
    {"alu", 11, "ooo1", 4551, 1797, 0, 927, 0, 0, 0, 908, 17, 4551},
    {"alu", 11, "ooo2", 3732, 1797, 0, 451, 0, 0, 0, 516, 17, 3732},
    {"alu", 12, "ooo1", 4324, 1715, 1929, 12, 0, 0, 0, 17, 1, 4324},
    {"alu", 12, "ooo2", 3860, 1715, 1523, 180, 0, 0, 0, 14, 1, 3860},
    {"mem", 1, "ooo1", 2611, 688, 328, 65, 0, 0, 0, 170, 7, 2611},
    {"mem", 1, "ooo2", 2544, 688, 400, 0, 12, 0, 0, 169, 7, 2544},
    {"mem", 2, "ooo1", 2846, 751, 0, 374, 95, 0, 0, 504, 5, 2846},
    {"mem", 2, "ooo2", 2700, 751, 204, 0, 239, 0, 0, 253, 5, 2700},
    {"mem", 3, "ooo1", 3205, 841, 0, 0, 780, 0, 0, 253, 3, 3205},
    {"mem", 3, "ooo2", 3084, 841, 0, 0, 874, 0, 0, 233, 3, 3084},
    {"mem", 4, "ooo1", 3946, 1166, 0, 0, 1048, 0, 0, 299, 6, 3946},
    {"mem", 4, "ooo2", 3882, 1166, 5, 0, 1292, 0, 0, 273, 6, 3882},
    {"mem", 5, "ooo1", 3485, 1006, 813, 37, 0, 0, 0, 253, 3, 3485},
    {"mem", 5, "ooo2", 3398, 1006, 806, 0, 29, 0, 0, 233, 3, 3398},
    {"mem", 6, "ooo1", 2044, 341, 136, 33, 25, 0, 0, 307, 6, 2044},
    {"mem", 6, "ooo2", 1940, 341, 79, 5, 22, 0, 0, 326, 6, 1940},
    {"mem", 7, "ooo1", 4307, 1527, 2132, 9, 0, 0, 0, 14, 1, 4307},
    {"mem", 7, "ooo2", 3959, 1527, 2015, 2, 0, 0, 0, 9, 1, 3959},
    {"mem", 8, "ooo1", 3455, 1394, 453, 660, 0, 0, 0, 42, 1, 3455},
    {"mem", 8, "ooo2", 2814, 1394, 638, 18, 2, 0, 0, 12, 1, 2814},
    {"mem", 9, "ooo1", 3388, 1291, 0, 0, 655, 0, 0, 267, 5, 3388},
    {"mem", 9, "ooo2", 2667, 1291, 0, 0, 475, 0, 0, 248, 5, 2667},
    {"mem", 10, "ooo1", 1847, 240, 0, 0, 258, 0, 0, 10, 1, 1847},
    {"mem", 10, "ooo2", 1660, 240, 0, 0, 340, 0, 0, 8, 1, 1660},
    {"mem", 11, "ooo1", 3157, 993, 1161, 19, 0, 0, 0, 186, 5, 3157},
    {"mem", 11, "ooo2", 2819, 993, 1080, 8, 0, 0, 0, 203, 5, 2819},
    {"mem", 12, "ooo1", 2181, 731, 0, 625, 0, 0, 0, 44, 1, 2181},
    {"mem", 12, "ooo2", 1630, 731, 0, 313, 0, 0, 0, 23, 1, 1630},
};

TEST(CoreTiming, RandomProgramsMatchRecordedCycles)
{
    for (const TimingRow &want : kRecordedTiming) {
        for (const bool per_cycle : {false, true}) {
            const TimingRow got = measureTiming(want.gen, want.seed,
                                                want.core, per_cycle);
            EXPECT_TRUE(got == want)
                << (per_cycle ? "per-cycle" : "default")
                << " run differs\n  recorded: " << formatRow(want)
                << "\n  actual: " << formatRow(got);
        }
    }
}

} // namespace
} // namespace remap::cpu
