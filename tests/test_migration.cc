/** @file Tests for thread migration: drain, the 500-cycle switch
 *  cost, SPL switch-out blocking, and correctness across the move. */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "isa/builder.hh"
#include "spl/function.hh"

namespace remap
{
namespace
{

using isa::ProgramBuilder;

/** A loop that sums 0..n-1 into memory and halts. */
isa::Program
sumLoop(unsigned n, Addr out)
{
    ProgramBuilder b("sum");
    b.li(1, 0).li(2, 0).li(3, n);
    b.label("loop")
        .bge(1, 3, "done")
        .add(2, 2, 1)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(4, static_cast<std::int64_t>(out))
        .sd(2, 4, 0)
        .halt();
    return b.build();
}

TEST(Migration, ThreadFinishesCorrectlyOnNewCore)
{
    sys::System sys(sys::SystemConfig::ooo1Cluster(2));
    auto prog = sumLoop(5000, 0x1000);
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 1, 2000);
    auto r = sys.run(10'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
    EXPECT_EQ(sys.memory().readI64(0x1000),
              std::int64_t(5000) * 4999 / 2);
    // Both cores did part of the work.
    EXPECT_GT(sys.core(0).committedInsts.value(), 0u);
    EXPECT_GT(sys.core(1).committedInsts.value(), 0u);
    EXPECT_EQ(sys.core(0).thread(), nullptr);
}

TEST(Migration, CostsAtLeastTheSwitchCycles)
{
    auto run_with = [&](bool migrate) {
        sys::SystemConfig cfg = sys::SystemConfig::ooo1Cluster(2);
        cfg.migrationSwitchCycles = 500;
        sys::System sys(cfg);
        auto prog = sumLoop(3000, 0x1000);
        auto &t = sys.createThread(&prog);
        sys.mapThread(t.id, 0);
        if (migrate)
            sys.scheduleMigration(t.id, 1, 1000);
        auto r = sys.run(10'000'000);
        EXPECT_FALSE(r.timedOut);
        return r.cycles;
    };
    Cycle plain = run_with(false);
    Cycle migrated = run_with(true);
    EXPECT_GE(migrated, plain + 500);
}

TEST(Migration, ChainedMigrationsFollowTheThread)
{
    sys::System sys(sys::SystemConfig::ooo1Cluster(3));
    auto prog = sumLoop(8000, 0x1000);
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 1, 1000);
    sys.scheduleMigration(t.id, 2, 6000);
    auto r = sys.run(20'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 2u);
    EXPECT_EQ(sys.memory().readI64(0x1000),
              std::int64_t(8000) * 7999 / 2);
    EXPECT_GT(sys.core(2).committedInsts.value(), 0u);
}

TEST(Migration, OverlappingMigrationsRunInOrder)
{
    // The second migration falls due while the first still drains
    // its source core: it must wait for the first to complete, then
    // move the thread on from core 1, so the thread never runs on
    // two cores.
    sys::System sys(sys::SystemConfig::ooo1Cluster(3));
    auto prog = sumLoop(8000, 0x1000);
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 1, 1000);
    sys.scheduleMigration(t.id, 2, 1001);
    auto r = sys.run(20'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 2u);
    EXPECT_EQ(sys.memory().readI64(0x1000),
              std::int64_t(8000) * 7999 / 2);
    unsigned holders = 0;
    for (CoreId c = 0; c < sys.numCores(); ++c)
        holders += sys.core(c).thread() == &t ? 1 : 0;
    EXPECT_EQ(holders, 1u);
    EXPECT_EQ(sys.core(2).thread(), &t);
}

TEST(Migration, SplThreadMigratesWithinCluster)
{
    sys::System sys(sys::SystemConfig::splCluster());
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));
    // A long SPL-using loop: accumulate passthrough results.
    ProgramBuilder b("t");
    b.li(1, 0).li(2, 0).li(3, 600);
    b.label("loop")
        .bge(1, 3, "done")
        .splLoad(1, 0)
        .splInit(pass)
        .splStore(4, 0)
        .add(2, 2, 4)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(5, 0x1000)
        .sd(2, 5, 0)
        .halt();
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 2, 3000);
    auto r = sys.run(20'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
    EXPECT_EQ(sys.memory().readI64(0x1000),
              std::int64_t(600) * 599 / 2);
    // The thread-to-core table followed the thread.
    EXPECT_EQ(sys.fabric(0).threadTable().coreOf(t.id).value(), 2u);
}

TEST(Migration, SwitchOutBlocksWhileResultsInFlight)
{
    // The switch-out rule delays migration until in-flight SPL
    // results drain; the migration must still complete and produce
    // correct results.
    sys::System sys(sys::SystemConfig::splCluster());
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));
    ProgramBuilder b("t");
    b.li(1, 0).li(2, 0).li(3, 400);
    b.label("loop")
        .bge(1, 3, "done")
        // Three initiations in flight before any pop: the drain
        // request will routinely catch nonzero in-flight counts.
        .splLoad(1, 0)
        .splInit(pass)
        .splLoad(1, 0)
        .splInit(pass)
        .splLoad(1, 0)
        .splInit(pass)
        .splStore(4, 0)
        .splStore(5, 0)
        .splStore(6, 0)
        .add(2, 2, 4)
        .add(2, 2, 5)
        .add(2, 2, 6)
        .addi(1, 1, 1)
        .j("loop")
        .label("done")
        .li(5, 0x1000)
        .sd(2, 5, 0)
        .halt();
    auto prog = b.build();
    auto &t = sys.createThread(&prog);
    sys.mapThread(t.id, 0);
    sys.scheduleMigration(t.id, 3, 1000);
    auto r = sys.run(40'000'000);
    ASSERT_FALSE(r.timedOut);
    EXPECT_EQ(sys.migrationsCompleted.value(), 1u);
    EXPECT_EQ(sys.memory().readI64(0x1000),
              3 * (std::int64_t(400) * 399 / 2));
}

} // namespace
} // namespace remap
