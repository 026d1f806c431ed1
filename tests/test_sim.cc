/** @file Unit tests for the simulation kernel (stats, RNG, clocks). */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace remap
{
namespace
{

TEST(StatCounter, StartsAtZeroAndAccumulates)
{
    StatCounter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroup, DumpFormat)
{
    StatGroup g("core0");
    StatCounter c;
    c += 7;
    g.addCounter("commits", &c);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "core0.commits 7\n");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs |= (a.next() != b.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(ClockParams, Ratios)
{
    ClockParams c;
    EXPECT_EQ(c.coreCyclesPerSplCycle(), 4u);
    EXPECT_DOUBLE_EQ(c.cyclesToSeconds(2'000'000'000), 1.0);
}

} // namespace
} // namespace remap
