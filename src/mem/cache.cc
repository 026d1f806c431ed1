#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace remap::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params), statGroup_(params.name)
{
    // Sets are picked by a mask, so their count must be a power of
    // two; the age and the MESI state share the line offset bits.
    REMAP_ASSERT(std::has_single_bit(params_.lineBytes),
                 "line size must be a power of two");
    std::size_t num_lines = params_.sizeBytes / params_.lineBytes;
    REMAP_ASSERT(params_.assoc > 0 && num_lines % params_.assoc == 0,
                 "cache geometry does not divide evenly");
    const std::size_t num_sets = num_lines / params_.assoc;
    REMAP_ASSERT(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
                 "set count must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    const unsigned age_bits = std::bit_width(params_.assoc - 1);
    REMAP_ASSERT(Line::ageShift + age_bits <= lineShift_,
                 "%u ways need %u age bits, more than %u-byte lines leave "
                 "beside the MESI state", params_.assoc, age_bits,
                 params_.lineBytes);
    lineMask_ = params_.lineBytes - 1;
    setMask_ = num_sets - 1;
    ageMask_ = ((std::uint64_t(1) << age_bits) - 1) << Line::ageShift;
    lines_.resize(num_lines);
    clearWays();

    statGroup_.addCounter("hits", &hits);
    statGroup_.addCounter("misses", &misses);
    statGroup_.addCounter("evictions", &evictions);
    statGroup_.addCounter("writebacks", &writebacks);
    statGroup_.addCounter("snoop_invalidations",
                          &snoopInvalidations);
}

void
Cache::clearWays()
{
    for (std::size_t base = 0; base < lines_.size(); base += params_.assoc)
        for (unsigned w = 0; w < params_.assoc; ++w)
            lines_[base + w].word_ = std::uint64_t(w) << Line::ageShift;
}

unsigned
Cache::findWay(const Line *set, Addr addr) const
{
    const Addr tag = lineAddr(addr);
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const std::uint64_t word = set[w].word_;
        if ((word & ~Addr(lineMask_)) == tag && (word & Line::stateMask))
            return w;
    }
    return params_.assoc;
}

void
Cache::touch(Line *set, unsigned way)
{
    const std::uint64_t age = set[way].word_ & ageMask_;
    if (age == 0)
        return;
    // Branch-free: which ways are younger is data, not a pattern.
    for (unsigned w = 0; w < params_.assoc; ++w)
        set[w].word_ += std::uint64_t((set[w].word_ & ageMask_) < age)
                        << Line::ageShift;
    set[way].word_ &= ~ageMask_;
}

Cache::Line *
Cache::lookup(Addr addr)
{
    Line *set = &lines_[setBase(addr)];
    const unsigned way = findWay(set, addr);
    if (way == params_.assoc)
        return nullptr;
    touch(set, way);
    return &set[way];
}

void
Cache::accountRepeatedHits(Addr addr, std::uint64_t n)
{
    if (n == 0)
        return;
    Line *line = lookup(addr);
    REMAP_ASSERT(line, "bulk-accounting hits on a non-resident line");
    hits += n;
}

const Cache::Line *
Cache::probe(Addr addr) const
{
    const Line *set = &lines_[setBase(addr)];
    const unsigned way = findWay(set, addr);
    return way == params_.assoc ? nullptr : &set[way];
}

Cache::Line *
Cache::allocate(Addr addr, Addr *victim_addr, Mesi *victim_state)
{
    *victim_addr = 0;
    *victim_state = Mesi::Invalid;

    Line *set = &lines_[setBase(addr)];
    const std::uint64_t oldest = std::uint64_t(params_.assoc - 1)
                                 << Line::ageShift;

    // Prefer the first invalid way; otherwise evict the oldest.
    unsigned way = 0;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (set[w].state() == Mesi::Invalid) {
            way = w;
            break;
        }
        if ((set[w].word_ & ageMask_) == oldest)
            way = w;
    }

    Line &victim = set[way];
    if (victim.state() != Mesi::Invalid) {
        ++evictions;
        if (victim.state() == Mesi::Modified)
            ++writebacks;
        *victim_addr = victim.word_ & ~Addr(lineMask_);
        *victim_state = victim.state();
    }

    victim.word_ = lineAddr(addr) | (victim.word_ & ageMask_);
    touch(set, way);
    return &victim;
}

Mesi
Cache::invalidate(Addr addr)
{
    Line *set = &lines_[setBase(addr)];
    const unsigned way = findWay(set, addr);
    if (way == params_.assoc)
        return Mesi::Invalid;
    const Mesi prev = set[way].state();
    set[way].setState(Mesi::Invalid);
    ++snoopInvalidations;
    return prev;
}

Mesi
Cache::downgradeToShared(Addr addr)
{
    Line *set = &lines_[setBase(addr)];
    const unsigned way = findWay(set, addr);
    if (way == params_.assoc)
        return Mesi::Invalid;
    const Mesi prev = set[way].state();
    set[way].setState(Mesi::Shared);
    return prev;
}

std::size_t
Cache::residentLines() const
{
    std::size_t n = 0;
    for (const auto &line : lines_)
        if (line.state() != Mesi::Invalid)
            ++n;
    return n;
}

void
Cache::save(snap::Serializer &s) const
{
    s.section("cache");
    s.str(params_.name);
    s.u32(static_cast<std::uint32_t>(lines_.size()));
    // The way a line occupies matters (allocate() prefers the first
    // invalid way), so each valid line is written with its position
    // in the tag store, and with its rank among its set's valid ways.
    s.u32(static_cast<std::uint32_t>(residentLines()));
    const unsigned assoc = params_.assoc;
    std::vector<unsigned> by_age(assoc), rank(assoc);
    for (std::size_t base = 0; base < lines_.size(); base += assoc) {
        const Line *set = &lines_[base];
        for (unsigned w = 0; w < assoc; ++w)
            by_age[(set[w].word_ & ageMask_) >> Line::ageShift] = w;
        unsigned next = 0;
        for (const unsigned w : by_age)
            if (set[w].state() != Mesi::Invalid)
                rank[w] = next++;
        for (unsigned w = 0; w < assoc; ++w) {
            if (set[w].state() == Mesi::Invalid)
                continue;
            s.u32(static_cast<std::uint32_t>(base + w));
            s.u64(set[w].word_ & ~Addr(lineMask_));
            s.u8(static_cast<std::uint8_t>(set[w].state()));
            s.u32(rank[w]);
        }
    }
    statGroup_.save(s);
}

void
Cache::restore(snap::Deserializer &d)
{
    if (!d.section("cache"))
        return;
    if (d.str() != params_.name) {
        d.fail("cache name mismatch");
        return;
    }
    // Geometry cross-check against a value the reader already knows;
    // plain u32(), not count() — only *resident* lines follow in the
    // stream, so a sparsely-filled large cache would trip count()'s
    // bytes-remaining plausibility guard.
    if (d.u32() != lines_.size()) {
        d.fail("cache geometry mismatch");
        return;
    }
    const std::uint32_t resident = d.count(17);
    clearWays();
    // Saved lines come in tag-store order, one set at a time. Each
    // set's valid ways take ages 0.. in saved rank order and its
    // invalid ways the older ages in way order, so restored ages are
    // canonical.
    const unsigned assoc = params_.assoc;
    constexpr unsigned none = ~0u;
    std::vector<unsigned> by_rank(assoc, none); ///< way holding each rank
    std::size_t base = 0; ///< first way of the set being gathered
    const auto rank_set = [&] {
        Line *set = &lines_[base];
        std::uint64_t age = 0;
        for (unsigned &w : by_rank) {
            if (w != none)
                set[w].word_ |= age++ << Line::ageShift;
            w = none;
        }
        for (unsigned w = 0; w < assoc; ++w)
            if (set[w].state() == Mesi::Invalid)
                set[w].word_ = age++ << Line::ageShift;
    };
    std::size_t next = 0; ///< lowest index the next line may have
    for (std::uint32_t i = 0; i < resident && d.ok(); ++i) {
        const std::uint32_t idx = d.u32();
        if (idx >= lines_.size()) {
            d.fail("cache line index out of range");
            return;
        }
        if (idx < next) {
            d.fail("cache line indexes not ascending");
            return;
        }
        next = idx + 1;
        const Addr tag = d.u64();
        if (tag & lineMask_) {
            d.fail("cache tag not line-aligned");
            return;
        }
        const std::uint8_t state = d.u8();
        if (state == static_cast<std::uint8_t>(Mesi::Invalid) ||
            state > static_cast<std::uint8_t>(Mesi::Modified)) {
            d.fail("bad MESI state");
            return;
        }
        const std::uint32_t rank = d.u32();
        if (rank >= assoc) {
            d.fail("cache recency rank out of range");
            return;
        }
        if (idx >= base + assoc) {
            rank_set();
            base = idx - idx % assoc;
        }
        if (by_rank[rank] != none) {
            d.fail("duplicate cache recency rank in a set");
            return;
        }
        by_rank[rank] = static_cast<unsigned>(idx - base);
        lines_[idx].word_ = tag | state;
    }
    if (!d.ok())
        return;
    rank_set();
    statGroup_.restore(d);
}

} // namespace remap::mem
