/** @file Field-by-field RegionResult comparison shared by the tests
 *  that check a served run against the simulated one. */

#ifndef REMAP_TESTS_RESULT_FIELDS_HH
#define REMAP_TESTS_RESULT_FIELDS_HH

#include <gtest/gtest.h>

#include "harness/experiment.hh"

namespace remap
{

/** Expect @p a and @p b to agree in every simulated field, i.e. all
 *  but the provenance fields warmStarted and snapshotBoundary. */
inline void
expectSameResult(const harness::RegionResult &a,
                 const harness::RegionResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.work, b.work);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.configHash, b.configHash);
}

} // namespace remap

#endif // REMAP_TESTS_RESULT_FIELDS_HH
