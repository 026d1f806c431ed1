/** @file Integration tests of the System façade: multi-core runs,
 *  SPL communication between cores, barrier plumbing, energy. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "isa/builder.hh"
#include "spl/function.hh"

namespace remap::sys
{
namespace
{

TEST(SystemConfig, Presets)
{
    System spl_sys(SystemConfig::splCluster());
    EXPECT_EQ(spl_sys.numCores(), 4u);
    EXPECT_EQ(spl_sys.numFabrics(), 1u);
    EXPECT_FALSE(spl_sys.isOoo2(0));

    System two(SystemConfig::splClusters(2));
    EXPECT_EQ(two.numCores(), 8u);
    EXPECT_EQ(two.numFabrics(), 2u);

    System o2(SystemConfig::ooo2Cluster(4));
    EXPECT_EQ(o2.numFabrics(), 0u);
    EXPECT_TRUE(o2.isOoo2(0));

    System comm(SystemConfig::ooo2Comm(2));
    EXPECT_EQ(comm.numFabrics(), 1u);
    EXPECT_TRUE(comm.isOoo2(1));
}

TEST(System, SingleThreadProgramRuns)
{
    System sys(SystemConfig::ooo1Cluster(1));
    isa::ProgramBuilder b("t");
    b.li(1, 0x1000).li(2, 321).sd(2, 1, 0).halt();
    auto p = b.build();
    auto &t = sys.createThread(&p);
    sys.mapThread(t.id, 0);
    RunResult r = sys.run();
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(sys.memory().readI64(0x1000), 321);
}

TEST(System, TwoThreadsShareMemoryCoherently)
{
    // Thread 0 writes a flag; thread 1 spins on it then publishes.
    System sys(SystemConfig::ooo1Cluster(2));
    isa::ProgramBuilder b0("writer");
    b0.li(1, 0x1000).li(2, 7).li(3, 0x2000)
        .sd(2, 3, 0)    // data
        .fence()
        .sd(2, 1, 0)    // flag
        .halt();
    isa::ProgramBuilder b1("reader");
    b1.li(1, 0x1000)
        .label("spin")
        .ld(2, 1, 0)
        .beq(2, 0, "spin")
        .li(3, 0x2000)
        .ld(4, 3, 0)
        .li(5, 0x3000)
        .sd(4, 5, 0)
        .halt();
    auto p0 = b0.build();
    auto p1 = b1.build();
    auto &t0 = sys.createThread(&p0);
    auto &t1 = sys.createThread(&p1);
    sys.mapThread(t0.id, 0);
    sys.mapThread(t1.id, 1);
    RunResult r = sys.run(10'000'000);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(sys.memory().readI64(0x3000), 7);
}

TEST(System, SplProducerConsumerAcrossCores)
{
    System sys(SystemConfig::splCluster());
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));
    isa::ProgramBuilder prod("prod");
    prod.li(1, 0).li(3, 50);
    prod.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(pass, /*dest=*/1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    isa::ProgramBuilder cons("cons");
    cons.li(1, 0).li(3, 50).li(4, 0x4000);
    cons.label("loop")
        .bge(1, 3, "done")
        .splStore(5, 0)
        .slli(6, 1, 3)
        .add(6, 4, 6)
        .sd(5, 6, 0)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    auto pp = prod.build();
    auto pc = cons.build();
    auto &t0 = sys.createThread(&pp);
    auto &t1 = sys.createThread(&pc);
    sys.mapThread(t0.id, 0);
    sys.mapThread(t1.id, 1);
    RunResult r = sys.run(10'000'000);
    ASSERT_FALSE(r.timedOut);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sys.memory().readI64(0x4000 + 8 * i), i) << i;
}

TEST(System, SplComputationOnTheWay)
{
    // The SPL computes min(a,b) while the data moves between cores.
    System sys(SystemConfig::splCluster());
    spl::FunctionBuilder fb("min2", 2);
    fb.row().op(spl::WOp::Min, 2, 0, 1);
    ConfigId cfg = sys.registerFunction(fb.outputs({2}).build());

    isa::ProgramBuilder prod("prod");
    prod.li(1, 30).li(2, 12)
        .splLoad(1, 0)
        .splLoad(2, 1)
        .splInit(cfg, 1)
        .halt();
    isa::ProgramBuilder cons("cons");
    cons.splStore(5, 0).li(6, 0x4000).sd(5, 6, 0).halt();
    auto pp = prod.build();
    auto pc = cons.build();
    auto &t0 = sys.createThread(&pp);
    auto &t1 = sys.createThread(&pc);
    sys.mapThread(t0.id, 0);
    sys.mapThread(t1.id, 1);
    ASSERT_FALSE(sys.run(1'000'000).timedOut);
    EXPECT_EQ(sys.memory().readI64(0x4000), 12);
}

TEST(System, BarrierWithGlobalMinAcrossFourCores)
{
    System sys(SystemConfig::splCluster());
    ConfigId mincfg =
        sys.registerFunction(spl::functions::globalMin());
    sys.declareBarrier(0, 4);
    std::vector<isa::Program> progs;
    progs.reserve(4);
    const std::int32_t vals[4] = {40, 10, 70, 25};
    for (unsigned t = 0; t < 4; ++t) {
        isa::ProgramBuilder b("t" + std::to_string(t));
        b.li(1, vals[t])
            .splLoad(1, 0)
            .splBar(mincfg, 0)
            .splStore(2, 0)
            .li(3, 0x5000 + 8 * t)
            .sd(2, 3, 0)
            .halt();
        progs.push_back(b.build());
    }
    for (unsigned t = 0; t < 4; ++t) {
        auto &th = sys.createThread(&progs[t]);
        sys.mapThread(th.id, t);
    }
    ASSERT_FALSE(sys.run(1'000'000).timedOut);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(sys.memory().readI64(0x5000 + 8 * t), 10);
}

TEST(System, EnergyMeasurementPositiveAndIdealFabricFree)
{
    power::EnergyModel model;
    System sys(SystemConfig::splCluster());
    isa::ProgramBuilder b("t");
    b.li(1, 0);
    for (int i = 0; i < 100; ++i)
        b.addi(1, 1, 1);
    b.halt();
    auto p = b.build();
    auto &t = sys.createThread(&p);
    sys.mapThread(t.id, 0);
    RunResult r = sys.run();
    auto e = sys.measureEnergy(model, r.cycles);
    EXPECT_GT(e.dynamicJ, 0.0);
    EXPECT_GT(e.leakageJ, 0.0);

    // The idealized comm fabric contributes no energy.
    System ideal(SystemConfig::ooo2Comm(2));
    auto &t2 = ideal.createThread(&p);
    ideal.mapThread(t2.id, 0);
    RunResult r2 = ideal.run();
    auto e2 = ideal.measureEnergy(model, r2.cycles,
                                  /*include_idle=*/false);
    // Only the one active OOO2 core's energy is counted; verify the
    // fabric's share is absent by comparing against a no-fabric run.
    System plain(SystemConfig::ooo2Cluster(2));
    auto &t3 = plain.createThread(&p);
    plain.mapThread(t3.id, 0);
    RunResult r3 = plain.run();
    auto e3 = plain.measureEnergy(model, r3.cycles,
                                  /*include_idle=*/false);
    EXPECT_NEAR(e2.totalJ(), e3.totalJ(), 1e-12);
}

TEST(System, StatsResetClearsCounters)
{
    System sys(SystemConfig::ooo1Cluster(1));
    isa::ProgramBuilder b("t");
    b.li(1, 1).halt();
    auto p = b.build();
    auto &t = sys.createThread(&p);
    sys.mapThread(t.id, 0);
    sys.run();
    EXPECT_GT(sys.core(0).committedInsts.value(), 0u);
    sys.resetStats();
    EXPECT_EQ(sys.core(0).committedInsts.value(), 0u);
}

} // namespace
} // namespace remap::sys

#include "core/report.hh"

namespace remap::sys
{
namespace
{

TEST(RunReport, DerivesSaneMetrics)
{
    System sys(SystemConfig::splCluster());
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));
    isa::ProgramBuilder b("t");
    b.li(1, 0).li(3, 200);
    b.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(pass)
        .splStore(2, 0)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .halt();
    auto p = b.build();
    auto &t = sys.createThread(&p);
    sys.mapThread(t.id, 0);
    RunResult r = sys.run();

    RunReport rep = makeReport(sys, r.cycles);
    ASSERT_EQ(rep.cores.size(), 4u);
    ASSERT_EQ(rep.fabrics.size(), 1u);
    EXPECT_GT(rep.totalInsts(), 1000u);
    EXPECT_GT(rep.cores[0].ipc, 0.1);
    EXPECT_LE(rep.cores[0].ipc, 1.0); // single-issue bound
    EXPECT_GE(rep.cores[0].splOps, 600u);
    EXPECT_EQ(rep.fabrics[0].initiations, 200u);
    EXPECT_GT(rep.fabrics[0].utilization, 0.0);
    EXPECT_LT(rep.fabrics[0].utilization, 1.0);

    std::ostringstream os;
    rep.print(os);
    EXPECT_NE(os.str().find("core0"), std::string::npos);
    EXPECT_NE(os.str().find("spl0"), std::string::npos);
}

} // namespace
} // namespace remap::sys
