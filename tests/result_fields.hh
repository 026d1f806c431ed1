/** @file Field-by-field RegionResult comparison shared by the tests
 *  that check a served run against the simulated one. */

#ifndef REMAP_TESTS_RESULT_FIELDS_HH
#define REMAP_TESTS_RESULT_FIELDS_HH

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace remap
{

/** Expect @p a and @p b to agree in every simulated field, i.e. all
 *  but the provenance fields warmStarted, snapshotBoundary and
 *  hostPhaseMs. */
inline void
expectSameResult(const harness::RegionResult &a,
                 const harness::RegionResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.sampleWindows, b.sampleWindows);
    EXPECT_EQ(a.measuredCycles, b.measuredCycles);
    EXPECT_EQ(a.warmedInsts, b.warmedInsts);
    EXPECT_EQ(a.ciLowCycles, b.ciLowCycles);
    EXPECT_EQ(a.ciHighCycles, b.ciHighCycles);
    EXPECT_EQ(a.ciTarget, b.ciTarget);
    EXPECT_EQ(a.achievedRelHw, b.achievedRelHw);
    EXPECT_EQ(a.adaptiveIterations, b.adaptiveIterations);
    EXPECT_EQ(a.convergedPeriod, b.convergedPeriod);
    EXPECT_EQ(a.convergedWindow, b.convergedWindow);
    EXPECT_EQ(a.convergedWarm, b.convergedWarm);
}

} // namespace remap

#endif // REMAP_TESTS_RESULT_FIELDS_HH
