/** @file Tests for the energy/area model: calibration, additivity,
 *  and the relationships the evaluation depends on. */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "isa/builder.hh"
#include "power/energy.hh"

namespace remap::power
{
namespace
{

TEST(EnergyModel, PeakNumbersArePositiveAndOrdered)
{
    EnergyModel m;
    EXPECT_GT(m.corePeakDynamicW(false), 0.0);
    // OOO2 is wider and hungrier.
    EXPECT_GT(m.corePeakDynamicW(true), m.corePeakDynamicW(false));
    EXPECT_GT(m.coreLeakW(true), m.coreLeakW(false));
    // The shared fabric peaks below a single OOO1 core's dynamic
    // power (24 rows at 1/4 the clock).
    EXPECT_LT(m.splPeakDynamicW(24), m.corePeakDynamicW(false));
}

TEST(EnergyModel, LeakageScalesWithTime)
{
    EnergyModel m;
    Energy a = m.idleCoreLeakage(1000, false);
    Energy b = m.idleCoreLeakage(2000, false);
    EXPECT_DOUBLE_EQ(b.leakageJ, 2 * a.leakageJ);
    EXPECT_DOUBLE_EQ(a.dynamicJ, 0.0);
}

TEST(EnergyModel, EnergyAccumulatesWithWork)
{
    // Twice the instructions => roughly twice the dynamic energy.
    auto run_energy = [&](unsigned iters) {
        sys::System sys(sys::SystemConfig::ooo1Cluster(1));
        isa::ProgramBuilder b("t");
        b.li(1, 0).li(3, iters);
        b.label("loop")
            .bge(1, 3, "done")
            .addi(1, 1, 1)
            .j("loop")
            .label("done")
            .halt();
        auto p = b.build();
        auto &t = sys.createThread(&p);
        sys.mapThread(t.id, 0);
        auto r = sys.run();
        EnergyModel m;
        return sys.measureEnergy(m, r.cycles, false).dynamicJ;
    };
    double e1 = run_energy(1000);
    double e2 = run_energy(2000);
    EXPECT_GT(e2 / e1, 1.7);
    EXPECT_LT(e2 / e1, 2.3);
}

TEST(EnergyModel, FabricEnergyCountsRowActivations)
{
    sys::System sys(sys::SystemConfig::splCluster());
    ConfigId pass =
        sys.registerFunction(spl::functions::passthrough(1));
    isa::ProgramBuilder b("t");
    b.li(1, 0).li(3, 100);
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
    auto r = sys.run();
    EnergyModel m;
    Energy with_fabric = sys.measureEnergy(m, r.cycles, false);
    Energy fabric_only = m.splEnergy(sys.fabric(0), r.cycles);
    EXPECT_GT(fabric_only.dynamicJ, 0.0);
    EXPECT_GT(with_fabric.dynamicJ, fabric_only.dynamicJ);
    EXPECT_GE(sys.fabric(0).rowActivations.value(), 100u);
}

TEST(AreaModel, Ooo2ClusterMatchesSplClusterArea)
{
    // The paper's area equivalence: 4 OOO1 + SPL ~= 4 OOO2 (+ free
    // comm network).
    EnergyModel m;
    const auto &a = m.areaParams();
    double spl_cluster = 4 * a.ooo1Core + 24 * a.splPerRow;
    double ooo2_cluster = 4 * a.ooo2Core;
    EXPECT_NEAR(spl_cluster, ooo2_cluster, 0.1);
    // And SPL area == two OOO1 cores (Section V-C.2).
    EXPECT_NEAR(24 * a.splPerRow, 2 * a.ooo1Core, 0.1);
}

} // namespace
} // namespace remap::power
