/** @file Property-based tests over cache geometries: invariants that
 *  must hold for any (size, assoc) combination under random access
 *  streams. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/mem_system.hh"

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace remap::mem
{
namespace
{

struct Geometry
{
    std::size_t size;
    unsigned assoc;
};

class CacheProps : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheProps, ResidencyNeverExceedsCapacity)
{
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    const std::size_t capacity = g.size / 64;
    Rng rng(g.size + g.assoc);
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.below(4096)) * 64;
        if (!c.lookup(a)) {
            Addr victim;
            Mesi vstate;
            c.allocate(a, &victim, &vstate)->setState(
                Mesi::Exclusive);
        }
        ASSERT_LE(c.residentLines(), capacity);
    }
}

TEST_P(CacheProps, LookupAfterAllocateAlwaysHits)
{
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    Rng rng(7 * g.size + g.assoc);
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.below(4096)) * 64;
        Addr victim;
        Mesi vstate;
        c.allocate(a, &victim, &vstate)->setState(Mesi::Shared);
        ASSERT_NE(c.lookup(a), nullptr);
        ASSERT_NE(c.probe(a + 63), nullptr); // whole line present
    }
}

TEST_P(CacheProps, VictimWasResidentAndIsGoneAfter)
{
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    Rng rng(13 * g.size + g.assoc);
    std::set<Addr> resident;
    for (int i = 0; i < 2000; ++i) {
        Addr a = (rng.below(1024)) * 64;
        if (c.lookup(a))
            continue;
        Addr victim;
        Mesi vstate;
        c.allocate(a, &victim, &vstate)->setState(Mesi::Exclusive);
        resident.insert(a);
        if (vstate != Mesi::Invalid) {
            ASSERT_TRUE(resident.count(victim)) << victim;
            ASSERT_EQ(c.probe(victim), nullptr);
            resident.erase(victim);
        }
    }
}

TEST_P(CacheProps, InvalidateIsIdempotent)
{
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    Addr victim;
    Mesi vstate;
    c.allocate(0x1000, &victim, &vstate)->setState(Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Invalid);
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Invalid);
}

TEST_P(CacheProps, FlushEmptiesEverything)
{
    // A flush is an invalidate of every line the cache took.
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    Rng rng(99);
    std::vector<Addr> taken;
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.below(65536) * 64;
        Addr victim;
        Mesi vstate;
        c.allocate(a, &victim, &vstate)->setState(Mesi::Shared);
        taken.push_back(a);
    }
    for (const Addr a : taken)
        c.invalidate(a);
    EXPECT_EQ(c.residentLines(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProps,
    ::testing::Values(Geometry{1024, 1}, Geometry{8 * 1024, 2},
                      Geometry{8 * 1024, 4}, Geometry{64 * 1024, 8},
                      Geometry{1024 * 1024, 8},
                      Geometry{4096, 16}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::to_string(info.param.size) + "B_" +
               std::to_string(info.param.assoc) + "way";
    });

} // namespace
} // namespace remap::mem

namespace remap::mem
{
namespace
{

/** MESI system-level invariants under random multi-core streams:
 *  at most one Modified/Exclusive copy of a line chip-wide, and an
 *  M/E copy excludes every other valid copy. */
class MesiProps : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MesiProps, SingleWriterInvariantHolds)
{
    const unsigned cores = GetParam();
    MemSystem mem(cores);
    Rng rng(1234 + cores);
    Cycle now = 0;
    std::set<Addr> touched;

    for (int step = 0; step < 5000; ++step) {
        CoreId c = static_cast<CoreId>(rng.below(cores));
        // A small hot set of lines maximizes sharing transitions.
        Addr addr = rng.below(32) * 64;
        touched.insert(addr);
        AccessKind kind;
        switch (rng.below(4)) {
          case 0: kind = AccessKind::Write; break;
          case 1: kind = AccessKind::Amo; break;
          case 2: kind = AccessKind::IFetch; break;
          default: kind = AccessKind::Read; break;
        }
        now = mem.access(c, addr, kind, now) + 1;

        if (step % 50 != 0)
            continue;
        for (Addr a : touched) {
            unsigned exclusive_copies = 0, valid_copies = 0;
            for (unsigned k = 0; k < cores; ++k) {
                const Cache::Line *line = mem.l2(k).probe(a);
                if (!line)
                    continue;
                ++valid_copies;
                if (line->state() == Mesi::Modified ||
                    line->state() == Mesi::Exclusive)
                    ++exclusive_copies;
            }
            ASSERT_LE(exclusive_copies, 1u) << "line " << a;
            if (exclusive_copies == 1) {
                ASSERT_EQ(valid_copies, 1u) << "line " << a;
            }
            // Inclusion: any valid L1 copy implies an L2 copy on
            // the same core.
            for (unsigned k = 0; k < cores; ++k) {
                if (mem.l1d(k).probe(a) || mem.l1i(k).probe(a)) {
                    ASSERT_NE(mem.l2(k).probe(a), nullptr)
                        << "inclusion violated, line " << a;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, MesiProps,
                         ::testing::Values(2u, 4u, 8u, 16u));

} // namespace
} // namespace remap::mem
