/** @file Unit tests for the SPL fabric: queues, sharing, partitions,
 *  virtualization, thread table, functional-preview path. */

#include <gtest/gtest.h>

#include "spl/fabric.hh"
#include "spl/function.hh"

namespace remap::spl
{
namespace
{

class FabricTest : public ::testing::Test
{
  protected:
    FabricTest() : barriers(params), fabric(0, params, &store, &barriers)
    {
        passCfg = store.add(functions::passthrough(1));
        minCfg = store.add(functions::globalMin());
        barriers.attachFabrics({&fabric});
        for (unsigned c = 0; c < 4; ++c)
            fabric.threadTable().map(c, c, 0);
    }

    /** Advance @p fabric through @p n core cycles from cycle_. */
    void
    run(Cycle n)
    {
        for (Cycle i = 0; i < n; ++i)
            fabric.tick(cycle_++);
    }

    SplParams params{};
    ConfigStore store;
    BarrierUnit barriers;
    SplFabric fabric;
    ConfigId passCfg = 0, minCfg = 0;
    Cycle cycle_ = 0;
};

TEST_F(FabricTest, SelfInitRoundTrip)
{
    fabric.load(0, 0, 1234);
    fabric.init(0, passCfg, -1, 0);
    run(200); // config load + 1 row + transfer
    ASSERT_TRUE(fabric.outputReady(0, cycle_));
    EXPECT_EQ(fabric.popOutput(0), 1234);
}

TEST_F(FabricTest, CrossCoreDelivery)
{
    fabric.load(0, 0, 77);
    fabric.init(0, passCfg, /*dest thread=*/2, 0);
    run(200);
    EXPECT_FALSE(fabric.outputReady(0, cycle_));
    ASSERT_TRUE(fabric.outputReady(2, cycle_));
    EXPECT_EQ(fabric.popOutput(2), 77);
}

TEST_F(FabricTest, InitBlockedWhenDestinationAbsent)
{
    EXPECT_TRUE(fabric.canInit(0, 1));
    fabric.threadTable().unmap(1);
    EXPECT_FALSE(fabric.canInit(0, 1)); // Section II-B.1 rule
    EXPECT_TRUE(fabric.canInit(0, -1));
}

TEST_F(FabricTest, PendingCapBackpressure)
{
    for (unsigned i = 0; i < params.pendingInitsPerCore; ++i) {
        ASSERT_TRUE(fabric.canInit(0, -1));
        fabric.load(0, 0, static_cast<std::int32_t>(i));
        fabric.init(0, passCfg, -1, 0);
    }
    EXPECT_FALSE(fabric.canInit(0, -1));
    run(400);
    EXPECT_TRUE(fabric.canInit(0, -1));
}

TEST_F(FabricTest, FifoOrderPreserved)
{
    for (int i = 0; i < 3; ++i) {
        fabric.load(0, 0, 100 + i);
        fabric.init(0, passCfg, -1, Cycle(0));
    }
    run(400);
    EXPECT_EQ(fabric.popOutput(0), 100);
    EXPECT_EQ(fabric.popOutput(0), 101);
    EXPECT_EQ(fabric.popOutput(0), 102);
}

TEST_F(FabricTest, InFlightCountTracksSwitchOutRule)
{
    EXPECT_TRUE(fabric.threadTable().canSwitchOut(0));
    fabric.load(0, 0, 1);
    fabric.init(0, passCfg, -1, 0);
    EXPECT_FALSE(fabric.threadTable().canSwitchOut(0));
    run(200);
    fabric.popOutput(0);
    EXPECT_TRUE(fabric.threadTable().canSwitchOut(0));
}

TEST_F(FabricTest, InFlightCountsResultsNotWords)
{
    // Two 2-word results to core 0: the count drops only when a
    // result's last word is popped, so the core stays pinned while the
    // second result is still in the fabric (Section II-B.1).
    const ConfigId pair = store.add(functions::passthrough(2));
    for (std::int32_t i = 0; i < 2; ++i) {
        fabric.load(0, 0, 10 * i);
        fabric.load(0, 1, 10 * i + 1);
        fabric.init(0, pair, -1, 0);
    }
    EXPECT_EQ(fabric.threadTable().inFlight(0), 2u);
    while (!fabric.outputReady(0, cycle_))
        run(1);
    EXPECT_EQ(fabric.popOutput(0), 0);
    EXPECT_EQ(fabric.threadTable().inFlight(0), 2u);
    EXPECT_EQ(fabric.popOutput(0), 1);
    EXPECT_EQ(fabric.threadTable().inFlight(0), 1u);
    EXPECT_FALSE(fabric.threadTable().canSwitchOut(0));
    run(400);
    EXPECT_EQ(fabric.popOutput(0), 10);
    EXPECT_FALSE(fabric.threadTable().canSwitchOut(0));
    EXPECT_EQ(fabric.popOutput(0), 11);
    EXPECT_EQ(fabric.threadTable().inFlight(0), 0u);
    EXPECT_TRUE(fabric.threadTable().canSwitchOut(0));
}

TEST_F(FabricTest, RoundRobinCountsConflicts)
{
    for (unsigned c = 0; c < 4; ++c) {
        fabric.load(c, 0, static_cast<std::int32_t>(c));
        fabric.init(c, passCfg, -1, 0);
    }
    run(400);
    EXPECT_GT(fabric.rrConflicts.value(), 0u);
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_TRUE(fabric.outputReady(c, cycle_));
        EXPECT_EQ(fabric.popOutput(c),
                  static_cast<std::int32_t>(c));
    }
}

TEST_F(FabricTest, VirtualizationWhenFunctionExceedsPartition)
{
    // A 13-row function in a 6-row partition (4-way split) must
    // still run, with virtualized initiation.
    FunctionBuilder b("big", 1);
    for (int i = 0; i < 13; ++i)
        b.row().op(WOp::AddImm, 0, 0, 0, 1);
    ConfigId big = store.add(b.outputs({0}).build());
    fabric.setPartitions(4);
    fabric.load(0, 0, 0);
    fabric.init(0, big, -1, 0);
    run(800);
    ASSERT_TRUE(fabric.outputReady(0, cycle_));
    EXPECT_EQ(fabric.popOutput(0), 13);
    EXPECT_EQ(fabric.virtualizedInits.value(), 1u);
}

TEST_F(FabricTest, ConfigSwitchCounted)
{
    fabric.load(0, 0, 5);
    fabric.init(0, passCfg, -1, 0);
    run(400);
    fabric.popOutput(0);
    auto switches = fabric.configSwitches.value();
    fabric.load(0, 0, 5);
    fabric.load(0, 1, 9);
    fabric.init(0, minCfg, -1, cycle_);
    run(400);
    EXPECT_EQ(fabric.configSwitches.value(), switches + 1);
}

TEST_F(FabricTest, BarrierWithMinComputation)
{
    barriers.declare(7, 4);
    const std::int32_t vals[4] = {50, 20, 90, 40};
    for (unsigned c = 0; c < 4; ++c) {
        fabric.load(c, 0, vals[c]);
        fabric.bar(c, minCfg, 7, 0);
    }
    run(400);
    for (unsigned c = 0; c < 4; ++c) {
        ASSERT_TRUE(fabric.outputReady(c, cycle_)) << c;
        EXPECT_EQ(fabric.popOutput(c), 20);
    }
    EXPECT_EQ(barriers.barriersCompleted.value(), 1u);
    EXPECT_EQ(fabric.barrierOps.value(), 1u);
}

TEST_F(FabricTest, BarrierNotReleasedUntilAllArrive)
{
    barriers.declare(9, 4);
    for (unsigned c = 0; c < 3; ++c) {
        fabric.load(c, 0, 1);
        fabric.bar(c, minCfg, 9, 0);
    }
    run(400);
    for (unsigned c = 0; c < 3; ++c)
        EXPECT_FALSE(fabric.outputReady(c, cycle_));
    EXPECT_EQ(barriers.pendingBarriers(), 1u);
    fabric.load(3, 0, 1);
    fabric.bar(3, minCfg, 9, cycle_);
    run(400);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_TRUE(fabric.outputReady(c, cycle_));
}

TEST_F(FabricTest, BarrierReusableAcrossEpisodes)
{
    barriers.declare(3, 2);
    for (int episode = 0; episode < 3; ++episode) {
        fabric.load(0, 0, 10 + episode);
        fabric.bar(0, minCfg, 3, cycle_);
        fabric.load(1, 0, 5 + episode);
        fabric.bar(1, minCfg, 3, cycle_);
        run(400);
        EXPECT_EQ(fabric.popOutput(0), 5 + episode);
        EXPECT_EQ(fabric.popOutput(1), 5 + episode);
    }
}

TEST_F(FabricTest, FunctionalPreviewMatchesTimedValues)
{
    fabric.funcLoad(0, 0, 42);
    fabric.funcInit(0, passCfg, -1);
    auto v = fabric.funcPop(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 42);
    EXPECT_FALSE(fabric.funcPop(0).has_value());

    fabric.load(0, 0, 42);
    fabric.init(0, passCfg, -1, cycle_);
    run(400);
    EXPECT_EQ(fabric.popOutput(0), 42);
}

TEST_F(FabricTest, FunctionalBarrierPreview)
{
    barriers.declare(11, 2);
    fabric.funcLoad(0, 0, 9);
    fabric.funcBar(0, minCfg, 11);
    EXPECT_FALSE(fabric.funcPop(0).has_value());
    fabric.funcLoad(1, 0, 4);
    fabric.funcBar(1, minCfg, 11);
    EXPECT_EQ(*fabric.funcPop(0), 4);
    EXPECT_EQ(*fabric.funcPop(1), 4);
}

TEST_F(FabricTest, IdleReflectsOutstandingWork)
{
    EXPECT_TRUE(fabric.idle());
    fabric.load(0, 0, 1);
    fabric.init(0, passCfg, -1, 0);
    EXPECT_FALSE(fabric.idle());
    run(400);
    EXPECT_TRUE(fabric.idle());
}

TEST(MultiCluster, BarrierSpansClustersWithRegionalResults)
{
    SplParams params;
    ConfigStore store;
    ConfigId minCfg = store.add(functions::globalMin());
    BarrierUnit barriers(params);
    SplFabric f0(0, params, &store, &barriers);
    SplFabric f1(1, params, &store, &barriers);
    barriers.attachFabrics({&f0, &f1});
    for (unsigned c = 0; c < 4; ++c) {
        f0.threadTable().map(c, c, 0);
        f1.threadTable().map(c, 4 + c, 0);
    }
    barriers.declare(1, 8);
    const std::int32_t v0[4] = {50, 20, 90, 40}; // regional min 20
    const std::int32_t v1[4] = {15, 75, 35, 60}; // regional min 15
    for (unsigned c = 0; c < 4; ++c) {
        f0.load(c, 0, v0[c]);
        f0.bar(c, minCfg, 1, 0);
        f1.load(c, 0, v1[c]);
        f1.bar(c, minCfg, 1, 0);
    }
    Cycle t = 0;
    for (int i = 0; i < 400; ++i) {
        f0.tick(t);
        f1.tick(t);
        ++t;
    }
    // Section III-B: each cluster gets its *regional* minimum.
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(f0.popOutput(c), 20);
        EXPECT_EQ(f1.popOutput(c), 15);
    }
}

TEST(ThreadTable, MapUnmapAndLookup)
{
    ThreadToCoreTable t(4);
    t.map(2, 17, 3);
    EXPECT_EQ(*t.coreOf(17), 2u);
    EXPECT_EQ(*t.threadOn(2), 17u);
    EXPECT_FALSE(t.coreOf(5).has_value());
    EXPECT_FALSE(t.threadOn(0).has_value());
    t.unmap(2);
    EXPECT_FALSE(t.coreOf(17).has_value());
}

} // namespace
} // namespace remap::spl
