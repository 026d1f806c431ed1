/** @file Property-based tests over cache geometries: invariants that
 *  must hold for any (size, assoc) combination under random access
 *  streams. */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "mem/mem_system.hh"

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace remap::mem
{

/** Test names print a cache geometry by its name. */
void
PrintTo(const CacheParams &params, std::ostream *os)
{
    *os << params.name;
}

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

const Geometry geometries[] = {
    {1024, 1}, {8 * 1024, 2}, {8 * 1024, 4},
    {64 * 1024, 8}, {1024 * 1024, 8}, {4096, 16},
};

std::string
geometryName(const Geometry &g)
{
    return std::to_string(g.size) + "B_" + std::to_string(g.assoc) + "way";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProps, ::testing::ValuesIn(geometries),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return geometryName(info.param);
    });

/**
 * The LRU the packed recency ages replaced, kept as a reference: a
 * hit or an allocate stamps its line from a 64-bit clock, and the
 * victim is the first invalid way, else the lowest stamp.
 */
class StampLru
{
  public:
    struct Line
    {
        Addr tag = 0;
        Mesi state = Mesi::Invalid;
        std::uint64_t stamp = 0;
    };

    explicit StampLru(const CacheParams &p)
        : assoc_(p.assoc), lineBytes_(p.lineBytes),
          sets_(p.sizeBytes / p.lineBytes / p.assoc),
          lines_(p.sizeBytes / p.lineBytes)
    {
    }

    Line *
    find(Addr addr)
    {
        const Addr tag = addr / lineBytes_ * lineBytes_;
        Line *set = &lines_[(addr / lineBytes_ % sets_) * assoc_];
        for (unsigned w = 0; w < assoc_; ++w)
            if (set[w].state != Mesi::Invalid && set[w].tag == tag)
                return &set[w];
        return nullptr;
    }

    Line *
    lookup(Addr addr)
    {
        Line *line = find(addr);
        if (line)
            line->stamp = ++clock_;
        return line;
    }

    void
    accountRepeatedHits(Addr addr, std::uint64_t n)
    {
        Line *line = lookup(addr);
        clock_ += n - 1;
        line->stamp = clock_;
        hits += n;
    }

    Line *
    allocate(Addr addr, Addr *victim_addr, Mesi *victim_state)
    {
        Line *set = &lines_[(addr / lineBytes_ % sets_) * assoc_];
        Line *victim = nullptr;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w].state == Mesi::Invalid) {
                victim = &set[w];
                break;
            }
            if (!victim || set[w].stamp < victim->stamp)
                victim = &set[w];
        }
        *victim_addr = victim->state == Mesi::Invalid ? 0 : victim->tag;
        *victim_state = victim->state;
        victim->tag = addr / lineBytes_ * lineBytes_;
        victim->state = Mesi::Invalid;
        victim->stamp = ++clock_;
        return victim;
    }

    Mesi
    setStateOf(Addr addr, Mesi state)
    {
        Line *line = find(addr);
        if (!line)
            return Mesi::Invalid;
        const Mesi prev = line->state;
        line->state = state;
        return prev;
    }

    std::uint64_t hits = 0;

  private:
    unsigned assoc_;
    unsigned lineBytes_;
    std::size_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

class CacheLru : public ::testing::TestWithParam<CacheParams>
{
};

/** Random streams over a few hot sets, each step checked against
 *  the stamp reference: hit or miss and state, victim address and
 *  state, previous states and hit counts. A save/restore into a
 *  fresh cache now and then must not change what follows. */
TEST_P(CacheLru, MatchesStampReference)
{
    const CacheParams p = GetParam();
    auto c = std::make_unique<Cache>(p);
    StampLru ref(p);
    const std::size_t sets = p.sizeBytes / p.lineBytes / p.assoc;
    const std::size_t hot[] = {0, sets / 2, sets - 1};
    const std::uint64_t tags = 2 * p.assoc + 1;
    const Mesi valid[] = {Mesi::Shared, Mesi::Exclusive, Mesi::Modified};
    Rng rng(p.sizeBytes + p.assoc);
    for (int step = 0; step < 20000; ++step) {
        const Addr a = (rng.below(tags) * sets + hot[rng.below(3)]) *
                           p.lineBytes +
                       rng.below(p.lineBytes);
        const Mesi st = valid[rng.below(3)];
        switch (rng.below(9)) {
          case 0:
          case 1:
          case 2: {
            const Cache::Line *got = c->lookup(a);
            const StampLru::Line *want = ref.lookup(a);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (want) {
                ASSERT_EQ(got->state(), want->state) << "step " << step;
            }
            break;
          }
          case 3: {
            const Cache::Line *got = c->probe(a);
            const StampLru::Line *want = ref.find(a);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (want) {
                ASSERT_EQ(got->state(), want->state) << "step " << step;
            }
            break;
          }
          case 4:
          case 5: {
            if (ref.find(a))
                break;
            Addr got_addr, want_addr;
            Mesi got_state, want_state;
            c->allocate(a, &got_addr, &got_state)->setState(st);
            ref.allocate(a, &want_addr, &want_state)->state = st;
            ASSERT_EQ(got_addr, want_addr) << "step " << step;
            ASSERT_EQ(got_state, want_state) << "step " << step;
            break;
          }
          case 6:
            ASSERT_EQ(c->invalidate(a), ref.setStateOf(a, Mesi::Invalid))
                << "step " << step;
            break;
          case 7:
            ASSERT_EQ(c->downgradeToShared(a),
                      ref.setStateOf(a, Mesi::Shared))
                << "step " << step;
            break;
          case 8: {
            if (!ref.find(a))
                break;
            const std::uint64_t n = 1 + rng.below(4);
            c->accountRepeatedHits(a, n);
            ref.accountRepeatedHits(a, n);
            ASSERT_EQ(c->hits.value(), ref.hits) << "step " << step;
            break;
          }
        }
        if (step % 2500 == 2499) {
            snap::Serializer s;
            c->save(s);
            const auto blob = s.take();
            auto fresh = std::make_unique<Cache>(p);
            snap::Deserializer d(blob);
            fresh->restore(d);
            ASSERT_TRUE(d.ok()) << d.error();
            c = std::move(fresh);
        }
    }
    EXPECT_GT(c->evictions.value(), 0u);
}

std::vector<CacheParams>
lruParams()
{
    std::vector<CacheParams> params;
    for (const Geometry &g : geometries)
        params.push_back(CacheParams{geometryName(g), g.size, g.assoc, 64, 1});
    // The real hierarchy's L1 and L2 (Table II).
    params.push_back(MemSystemParams{}.l1d);
    params.push_back(MemSystemParams{}.l2);
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLru, ::testing::ValuesIn(lruParams()),
    [](const ::testing::TestParamInfo<CacheParams> &info) {
        return info.param.name;
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
