/** @file Property-based tests over cache geometries: invariants that
 *  must hold for any (size, assoc) combination under random access
 *  streams. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "mem/mem_system.hh"

#include "mem/cache.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"

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
            c.allocate(a, &victim, &vstate)->state =
                Mesi::Exclusive;
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
        c.allocate(a, &victim, &vstate)->state = Mesi::Shared;
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
        c.allocate(a, &victim, &vstate)->state = Mesi::Exclusive;
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
    c.allocate(0x1000, &victim, &vstate)->state = Mesi::Modified;
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Invalid);
    EXPECT_EQ(c.invalidate(0x1000), Mesi::Invalid);
}

TEST_P(CacheProps, FlushEmptiesEverything)
{
    const auto g = GetParam();
    Cache c(CacheParams{"t", g.size, g.assoc, 64, 1});
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        Addr victim;
        Mesi vstate;
        c.allocate(rng.below(65536) * 64, &victim, &vstate)->state =
            Mesi::Shared;
    }
    c.flushAll();
    EXPECT_EQ(c.residentLines(), 0u);
}

/** Drive an MRU-predicting cache and a full-walk oracle (REMAP_NO_MRU
 *  is read at construction) through one identical random operation,
 *  asserting every observable matches: hit/miss outcomes, the hit
 *  line's tag/MESI state/LRU stamp, allocate's victim choice and
 *  state, invalidate/downgrade results, residency and the bulk-hit
 *  stat counter. */
void
mruOracleStep(Cache &fast, Cache &oracle, Rng &rng)
{
    const unsigned op = rng.below(16);
    const Addr a = rng.below(512) * 16; // sub-line offsets too

    if (op < 10) { // lookup, allocate on miss
        Cache::Line *lf = fast.lookup(a);
        Cache::Line *lo = oracle.lookup(a);
        ASSERT_EQ(lf == nullptr, lo == nullptr);
        if (lf) {
            ASSERT_EQ(lf->tag, lo->tag);
            ASSERT_EQ(lf->state, lo->state);
            ASSERT_EQ(lf->lruStamp, lo->lruStamp);
        } else {
            Addr vf = 0, vo = 0;
            Mesi sf = Mesi::Invalid, so = Mesi::Invalid;
            Cache::Line *nf = fast.allocate(a, &vf, &sf);
            Cache::Line *no = oracle.allocate(a, &vo, &so);
            ASSERT_EQ(vf, vo);
            ASSERT_EQ(sf, so);
            const Mesi st = rng.below(2) == 0 ? Mesi::Exclusive
                                              : Mesi::Modified;
            nf->state = st;
            no->state = st;
        }
    } else if (op < 12) { // snoop invalidation
        ASSERT_EQ(fast.invalidate(a), oracle.invalidate(a));
    } else if (op < 14) { // snoop downgrade
        ASSERT_EQ(fast.downgradeToShared(a),
                  oracle.downgradeToShared(a));
    } else if (op == 14) { // bulk hit accounting (sleep catch-up)
        if (fast.lookup(a) && oracle.lookup(a)) {
            fast.accountRepeatedHits(a, 5);
            oracle.accountRepeatedHits(a, 5);
            ASSERT_EQ(fast.hits.value(), oracle.hits.value());
        }
    } else { // migration / region-reset flush
        fast.flushAll();
        oracle.flushAll();
    }
    ASSERT_EQ(fast.residentLines(), oracle.residentLines());
    ASSERT_EQ(fast.evictions.value(), oracle.evictions.value());
    ASSERT_EQ(fast.writebacks.value(), oracle.writebacks.value());
}

TEST_P(CacheProps, MruPathMatchesFullWalkOracle)
{
    const auto g = GetParam();
    ASSERT_EQ(setenv("REMAP_NO_MRU", "1", 1), 0);
    Cache oracle(CacheParams{"t", g.size, g.assoc, 64, 1});
    ASSERT_EQ(unsetenv("REMAP_NO_MRU"), 0);
    Cache fast(CacheParams{"t", g.size, g.assoc, 64, 1});

    Rng rng(31 * g.size + g.assoc);
    for (int i = 0; i < 4000; ++i) {
        mruOracleStep(fast, oracle, rng);
        if (HasFatalFailure())
            return;
    }

    // Full-contents sweep: every line the streams could have touched
    // is identical in residency, state and recency.
    for (Addr a = 0; a < 512 * 16; a += 64) {
        const Cache::Line *pf = fast.probe(a);
        const Cache::Line *po = oracle.probe(a);
        ASSERT_EQ(pf == nullptr, po == nullptr) << "line " << a;
        if (pf) {
            ASSERT_EQ(pf->state, po->state);
            ASSERT_EQ(pf->lruStamp, po->lruStamp);
        }
    }
}

TEST_P(CacheProps, MruStateSurvivesSaveRestore)
{
    // Restore rebuilds the (unserialized) MRU predictions from
    // scratch; a restored predicting cache must keep matching the
    // oracle from the restore point on.
    const auto g = GetParam();
    ASSERT_EQ(setenv("REMAP_NO_MRU", "1", 1), 0);
    Cache oracle(CacheParams{"t", g.size, g.assoc, 64, 1});
    ASSERT_EQ(unsetenv("REMAP_NO_MRU"), 0);
    Cache fast(CacheParams{"t", g.size, g.assoc, 64, 1});

    Rng rng(77 * g.size + g.assoc);
    for (int i = 0; i < 1000; ++i) {
        mruOracleStep(fast, oracle, rng);
        if (HasFatalFailure())
            return;
    }

    snap::Serializer s;
    fast.save(s);
    Cache restored(CacheParams{"t", g.size, g.assoc, 64, 1});
    snap::Deserializer d(s.buffer());
    restored.restore(d);
    ASSERT_TRUE(d.ok());

    for (int i = 0; i < 1000; ++i) {
        mruOracleStep(restored, oracle, rng);
        if (HasFatalFailure())
            return;
    }
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
                if (line->state == Mesi::Modified ||
                    line->state == Mesi::Exclusive)
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
