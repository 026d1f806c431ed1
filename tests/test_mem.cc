/** @file Unit tests for the memory hierarchy: functional image,
 *  cache geometry, MESI transitions, latencies, inclusion. */

#include <gtest/gtest.h>

#include <algorithm>

#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/memory_image.hh"

namespace remap::mem
{
namespace
{

TEST(MemoryImage, TypedRoundTrips)
{
    MemoryImage m;
    m.writeI64(0x1000, -123456789012345);
    EXPECT_EQ(m.readI64(0x1000), -123456789012345);
    m.writeI32(0x2000, -42);
    EXPECT_EQ(m.readI32(0x2000), -42);
    m.writeU8(0x3000, 0xab);
    EXPECT_EQ(m.readU8(0x3000), 0xab);
    m.writeF64(0x4000, 3.25);
    EXPECT_DOUBLE_EQ(m.readF64(0x4000), 3.25);
}

TEST(MemoryImage, UntouchedMemoryReadsZero)
{
    MemoryImage m;
    EXPECT_EQ(m.readI64(0xdead000), 0);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage m;
    Addr a = MemoryImage::pageSize - 4; // straddles a page boundary
    m.writeI64(a, 0x1122334455667788);
    EXPECT_EQ(m.readI64(a), 0x1122334455667788);
}

TEST(Cache, HitAfterAllocate)
{
    Cache c(CacheParams{"t", 8 * 1024, 2, 64, 2});
    Addr victim;
    Mesi vstate;
    auto *line = c.allocate(0x1000, &victim, &vstate);
    line->setState(Mesi::Exclusive);
    EXPECT_NE(c.lookup(0x1000), nullptr);
    EXPECT_NE(c.lookup(0x103f), nullptr); // same 64B line
    EXPECT_EQ(c.lookup(0x1040), nullptr); // next line
}

TEST(Cache, LruEviction)
{
    // 2-way, 64 sets: three lines mapping to set 0.
    Cache c(CacheParams{"t", 8 * 1024, 2, 64, 2});
    const Addr stride = 64 * 64; // set stride
    Addr victim;
    Mesi vstate;
    c.allocate(0, &victim, &vstate)->setState(Mesi::Exclusive);
    c.allocate(stride, &victim, &vstate)->setState(Mesi::Exclusive);
    // Touch line 0 so `stride` is LRU.
    c.lookup(0);
    c.allocate(2 * stride, &victim, &vstate)->setState(
        Mesi::Exclusive);
    EXPECT_EQ(victim, stride);
    EXPECT_EQ(vstate, Mesi::Exclusive);
    EXPECT_NE(c.lookup(0), nullptr);
    EXPECT_EQ(c.lookup(stride), nullptr);
}

TEST(Cache, ModifiedVictimCountsWriteback)
{
    Cache c(CacheParams{"t", 128, 1, 64, 1}); // 2 sets, direct-mapped
    Addr victim;
    Mesi vstate;
    c.allocate(0, &victim, &vstate)->setState(Mesi::Modified);
    c.allocate(128, &victim, &vstate);
    EXPECT_EQ(vstate, Mesi::Modified);
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(Cache, InvalidateReportsPreviousState)
{
    Cache c(CacheParams{"t", 8 * 1024, 2, 64, 2});
    Addr victim;
    Mesi vstate;
    c.allocate(0x40, &victim, &vstate)->setState(Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x40), Mesi::Modified);
    EXPECT_EQ(c.invalidate(0x40), Mesi::Invalid);
}

// Line numbers fill the packed tag word's upper 62 bits, so lines at
// the very top of the address space must keep every bit through each
// operation, in every valid state.
TEST(Cache, TopBitAddressesRoundTripInEveryState)
{
    for (const Addr a : {~Addr{0} << 6, Addr{1} << 63 | 0x40}) {
        for (const Mesi st :
             {Mesi::Shared, Mesi::Exclusive, Mesi::Modified}) {
            Cache c(CacheParams{"t", 8 * 1024, 2, 64, 2});
            Addr victim;
            Mesi vstate;
            c.allocate(a, &victim, &vstate)->setState(st);
            EXPECT_EQ(vstate, Mesi::Invalid);
            ASSERT_NE(c.lookup(a), nullptr);
            EXPECT_EQ(c.lookup(a)->state(), st);
            EXPECT_EQ(c.probe(a + 63)->state(), st);
            // Same set, one tag bit apart: a different line.
            EXPECT_EQ(c.probe(a ^ (Addr{1} << 62)), nullptr);
            EXPECT_EQ(c.downgradeToShared(a), st);
            EXPECT_EQ(c.probe(a)->state(), Mesi::Shared);
            EXPECT_EQ(c.invalidate(a), Mesi::Shared);
            EXPECT_EQ(c.probe(a), nullptr);

            c.allocate(a, &victim, &vstate)->setState(st);
            EXPECT_EQ(c.invalidate(a), st);
            EXPECT_EQ(c.residentLines(), 0u);
        }
    }
}

TEST(Cache, TopBitVictimAddressIsExact)
{
    for (const Addr a : {~Addr{0} << 6, Addr{1} << 63 | 0x40}) {
        Cache c(CacheParams{"t", 128, 1, 64, 1}); // 2 sets, 1 way
        Addr victim;
        Mesi vstate;
        c.allocate(a, &victim, &vstate)->setState(Mesi::Modified);
        const Addr other = a ^ (Addr{1} << 62); // same set
        c.allocate(other, &victim, &vstate)->setState(Mesi::Shared);
        EXPECT_EQ(victim, a);
        EXPECT_EQ(vstate, Mesi::Modified);
        c.allocate(a, &victim, &vstate);
        EXPECT_EQ(victim, other);
        EXPECT_EQ(vstate, Mesi::Shared);
    }
}

TEST(CacheDeathTest, NonPowerOfTwoSetCountAsserts)
{
    // 6 lines of 64 B, 2-way: 3 sets.
    EXPECT_DEATH(Cache(CacheParams{"t", 6 * 64, 2, 64, 1}),
                 "assertion failed: num_sets > 0.*: "
                 "set count must be a power of two");
}

TEST(Cache, RestoreRejectsMisalignedTag)
{
    const CacheParams params{"t", 8 * 1024, 2, 64, 2};
    const Addr tag = 0x5a5a5a5a5a40;
    Cache a(params);
    Addr victim;
    Mesi vstate;
    a.allocate(tag, &victim, &vstate)->setState(Mesi::Modified);
    snap::Serializer s;
    a.save(s);
    auto blob = s.take();
    {
        Cache b(params);
        snap::Deserializer d(blob);
        b.restore(d);
        ASSERT_TRUE(d.ok()) << d.error();
    }

    // Overwrite the saved tag with one whose low bit is set.
    snap::Serializer good, bad;
    good.u64(tag);
    bad.u64(tag | 1);
    const auto at = std::search(blob.begin(), blob.end(),
                                good.buffer().begin(),
                                good.buffer().end());
    ASSERT_NE(at, blob.end());
    std::copy(bad.buffer().begin(), bad.buffer().end(), at);

    Cache b(params);
    snap::Deserializer d(blob);
    b.restore(d);
    EXPECT_FALSE(d.ok());
    EXPECT_STREQ(d.error(), "cache tag not line-aligned");
}

TEST(CacheDeathTest, TooManyWaysForLineSizeAsserts)
{
    // 32 ways need 5 age bits; 64-byte lines leave 4 beside the
    // 2-bit MESI state.
    EXPECT_DEATH(Cache(CacheParams{"t", 32 * 64, 32, 64, 1}),
                 "assertion failed: .*: 32 ways need 5 age bits, more "
                 "than 64-byte lines leave beside the MESI state");
}

TEST(Cache, SaveRestoreKeepsVictimOrder)
{
    // 8-way, 128 sets: every address below maps to set 0.
    const CacheParams params{"t", 64 * 1024, 8, 64, 1};
    const Addr stride = 128 * 64;
    const Mesi states[] = {Mesi::Shared, Mesi::Exclusive, Mesi::Modified};
    Cache a(params);
    Addr victim;
    Mesi vstate;
    for (unsigned i = 0; i < 8; ++i)
        a.allocate(i * stride, &victim, &vstate)->setState(states[i % 3]);
    for (const unsigned i : {5u, 2u, 7u, 0u, 3u, 6u, 1u, 4u})
        ASSERT_NE(a.lookup(i * stride), nullptr);
    ASSERT_EQ(a.invalidate(6 * stride), Mesi::Shared);

    snap::Serializer s;
    a.save(s);
    const auto blob = s.take();
    Cache b(params);
    snap::Deserializer d(blob);
    b.restore(d);
    ASSERT_TRUE(d.ok()) << d.error();

    // The first fill takes the invalid way, then the valid lines go
    // oldest first: 5, 2, 7, 0, 3, 1, 4.
    for (unsigned i = 0; i < 8; ++i) {
        Addr va, vb;
        Mesi sa, sb;
        a.allocate((8 + i) * stride, &va, &sa)->setState(Mesi::Exclusive);
        b.allocate((8 + i) * stride, &vb, &sb)->setState(Mesi::Exclusive);
        EXPECT_EQ(vb, va) << "fill " << i;
        EXPECT_EQ(sb, sa) << "fill " << i;
    }
}

TEST(Cache, RestoreRejectsCorruptLines)
{
    // Two lines of one set. The second saved entry is its way index
    // (u32), tag (u64), state (u8) and recency rank (u32).
    const CacheParams params{"t", 8 * 1024, 2, 64, 2};
    const Addr tag = 0x5a5a5a5a5a40;
    Cache a(params);
    Addr victim;
    Mesi vstate;
    a.allocate(tag - 64 * 64, &victim, &vstate)->setState(Mesi::Shared);
    a.allocate(tag, &victim, &vstate)->setState(Mesi::Shared);
    snap::Serializer s;
    a.save(s);
    const auto blob = s.take();
    snap::Serializer needle;
    needle.u64(tag);
    const auto at = std::search(blob.begin(), blob.end(),
                                needle.buffer().begin(),
                                needle.buffer().end());
    ASSERT_NE(at, blob.end());
    const std::ptrdiff_t tag_at = at - blob.begin();

    struct Corruption
    {
        std::ptrdiff_t offset; ///< from the second entry's tag
        std::uint32_t value;
        unsigned bytes;
        const char *error;
    };
    for (const Corruption &c : {
             Corruption{-4, 0, 4, "cache line indexes not ascending"},
             Corruption{8, 0, 1, "bad MESI state"},
             Corruption{9, 2, 4, "cache recency rank out of range"},
             Corruption{9, 1, 4, "duplicate cache recency rank in a set"},
         }) {
        auto bad = blob;
        for (unsigned i = 0; i < c.bytes; ++i)
            bad[tag_at + c.offset + i] = std::uint8_t(c.value >> (8 * i));
        Cache b(params);
        snap::Deserializer d(bad);
        b.restore(d);
        EXPECT_FALSE(d.ok()) << c.error;
        EXPECT_STREQ(d.error(), c.error);
    }
}

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest() : mem(2) {}
    MemSystem mem;
};

TEST_F(MemSystemTest, ColdMissGoesToMemory)
{
    Cycle done = mem.access(0, 0x1000, AccessKind::Read, 0);
    // L1 (2) + L2 (10) + bus + 200-cycle memory
    EXPECT_GE(done, 200u);
    EXPECT_EQ(mem.memAccesses.value(), 1u);
}

TEST_F(MemSystemTest, HitIsL1Latency)
{
    Cycle t1 = mem.access(0, 0x1000, AccessKind::Read, 0);
    Cycle t2 = mem.access(0, 0x1000, AccessKind::Read, t1);
    EXPECT_EQ(t2 - t1, 2u); // L1D hit
    EXPECT_EQ(mem.l1d(0).hits.value(), 1u);
}

TEST_F(MemSystemTest, ReadAfterRemoteWriteTransfersCacheToCache)
{
    Cycle t = mem.access(0, 0x1000, AccessKind::Write, 0);
    Cycle t2 = mem.access(1, 0x1000, AccessKind::Read, t);
    EXPECT_EQ(mem.cacheToCacheTransfers.value(), 1u);
    EXPECT_GT(t2, t);
    // The remote M copy was downgraded to Shared.
    EXPECT_EQ(mem.l2(0).probe(0x1000)->state(), Mesi::Shared);
    EXPECT_EQ(mem.l2(1).probe(0x1000)->state(), Mesi::Shared);
}

TEST_F(MemSystemTest, WriteInvalidatesRemoteCopies)
{
    Cycle t = mem.access(0, 0x1000, AccessKind::Read, 0);
    t = mem.access(1, 0x1000, AccessKind::Read, t);
    t = mem.access(1, 0x1000, AccessKind::Write, t);
    EXPECT_EQ(mem.l2(0).probe(0x1000), nullptr);
    EXPECT_EQ(mem.l1d(0).probe(0x1000), nullptr); // inclusion
    EXPECT_EQ(mem.l2(1).probe(0x1000)->state(), Mesi::Modified);
}

TEST_F(MemSystemTest, SharedUpgradeUsesBusUpgrade)
{
    Cycle t = mem.access(0, 0x1000, AccessKind::Read, 0);
    t = mem.access(1, 0x1000, AccessKind::Read, t);
    auto upgrades_before = mem.upgrades.value();
    mem.access(0, 0x1000, AccessKind::Write, t);
    EXPECT_EQ(mem.upgrades.value(), upgrades_before + 1);
}

TEST_F(MemSystemTest, ExclusiveSilentUpgrade)
{
    Cycle t = mem.access(0, 0x1000, AccessKind::Read, 0);
    ASSERT_EQ(mem.l2(0).probe(0x1000)->state(), Mesi::Exclusive);
    auto bus_before = mem.busTransactions.value();
    Cycle t2 = mem.access(0, 0x1000, AccessKind::Write, t);
    EXPECT_EQ(t2 - t, 2u); // silent E->M in L1/L2
    EXPECT_EQ(mem.busTransactions.value(), bus_before);
}

TEST_F(MemSystemTest, IFetchUsesICache)
{
    mem.access(0, 0x8000, AccessKind::IFetch, 0);
    EXPECT_EQ(mem.l1i(0).misses.value(), 1u);
    EXPECT_EQ(mem.l1d(0).misses.value(), 0u);
}

TEST_F(MemSystemTest, AmoActsAsWrite)
{
    Cycle t = mem.access(1, 0x1000, AccessKind::Read, 0);
    mem.access(0, 0x1000, AccessKind::Amo, t);
    EXPECT_EQ(mem.l2(1).probe(0x1000), nullptr);
    EXPECT_EQ(mem.l2(0).probe(0x1000)->state(), Mesi::Modified);
}

} // namespace
} // namespace remap::mem
