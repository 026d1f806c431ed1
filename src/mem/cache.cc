#include "mem/cache.hh"

#include "sim/logging.hh"

namespace remap::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params), statGroup_(params.name)
{
    REMAP_ASSERT(params_.lineBytes > 0 &&
                 (params_.lineBytes & (params_.lineBytes - 1)) == 0,
                 "line size must be a power of two");
    std::size_t num_lines = params_.sizeBytes / params_.lineBytes;
    REMAP_ASSERT(num_lines % params_.assoc == 0,
                 "cache geometry does not divide evenly");
    numSets_ = num_lines / params_.assoc;
    lineMask_ = params_.lineBytes - 1;
    lines_.resize(num_lines);

    statGroup_.addCounter("hits", &hits);
    statGroup_.addCounter("misses", &misses);
    statGroup_.addCounter("evictions", &evictions);
    statGroup_.addCounter("writebacks", &writebacks);
    statGroup_.addCounter("snoop_invalidations",
                          &snoopInvalidations);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / params_.lineBytes) % numSets_;
}

Cache::Line *
Cache::lookup(Addr addr)
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.state != Mesi::Invalid && line.tag == tag) {
            line.lruStamp = ++lruClock_;
            return &line;
        }
    }
    return nullptr;
}

void
Cache::accountRepeatedHits(Addr addr, std::uint64_t n)
{
    if (n == 0)
        return;
    Line *line = lookup(addr);
    REMAP_ASSERT(line, "bulk-accounting hits on a non-resident line");
    lruClock_ += n - 1;
    line->lruStamp = lruClock_;
    hits += n;
}

const Cache::Line *
Cache::probe(Addr addr) const
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        const Line &line = lines_[base + w];
        if (line.state != Mesi::Invalid && line.tag == tag)
            return &line;
    }
    return nullptr;
}

Cache::Line *
Cache::allocate(Addr addr, Addr *victim_addr, Mesi *victim_state)
{
    *victim_addr = 0;
    *victim_state = Mesi::Invalid;

    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * params_.assoc;

    // Prefer an invalid way; otherwise evict true-LRU.
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.state == Mesi::Invalid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }

    if (victim->state != Mesi::Invalid) {
        ++evictions;
        if (victim->state == Mesi::Modified)
            ++writebacks;
        *victim_addr = victim->tag;
        *victim_state = victim->state;
    }

    victim->tag = tag;
    victim->state = Mesi::Invalid;
    victim->lruStamp = ++lruClock_;
    return victim;
}

Mesi
Cache::invalidate(Addr addr)
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.state != Mesi::Invalid && line.tag == tag) {
            Mesi prev = line.state;
            line.state = Mesi::Invalid;
            ++snoopInvalidations;
            return prev;
        }
    }
    return Mesi::Invalid;
}

Mesi
Cache::downgradeToShared(Addr addr)
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * params_.assoc;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = lines_[base + w];
        if (line.state != Mesi::Invalid && line.tag == tag) {
            Mesi prev = line.state;
            line.state = Mesi::Shared;
            return prev;
        }
    }
    return Mesi::Invalid;
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.state = Mesi::Invalid;
}

std::size_t
Cache::residentLines() const
{
    std::size_t n = 0;
    for (const auto &line : lines_)
        if (line.state != Mesi::Invalid)
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
    // invalid way and breaks LRU ties by way order), so each valid
    // line is written with its position in the tag store.
    s.u32(static_cast<std::uint32_t>(residentLines()));
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (line.state == Mesi::Invalid)
            continue;
        s.u32(static_cast<std::uint32_t>(i));
        s.u64(line.tag);
        s.u8(static_cast<std::uint8_t>(line.state));
        s.u64(line.lruStamp);
    }
    s.u64(lruClock_);
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
    const std::uint32_t resident = d.count(21);
    // Invalid ways never influence behaviour (lookup/allocate check
    // state first), so resetting them keeps restored state canonical.
    for (auto &line : lines_)
        line = Line{};
    for (std::uint32_t i = 0; i < resident && d.ok(); ++i) {
        const std::uint32_t idx = d.u32();
        if (idx >= lines_.size()) {
            d.fail("cache line index out of range");
            return;
        }
        Line &line = lines_[idx];
        line.tag = d.u64();
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(Mesi::Modified)) {
            d.fail("bad MESI state");
            return;
        }
        line.state = static_cast<Mesi>(state);
        line.lruStamp = d.u64();
    }
    lruClock_ = d.u64();
    statGroup_.restore(d);
}

} // namespace remap::mem
