#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace remap::mem
{

Cache::Cache(const CacheParams &params)
    : params_(params), statGroup_(params.name)
{
    // Line numbers take 62 bits of the packed tag word, so the line
    // must be at least 4 bytes; sets are picked by a mask, so their
    // count must be a power of two.
    REMAP_ASSERT(params_.lineBytes >= 4 &&
                 (params_.lineBytes & (params_.lineBytes - 1)) == 0,
                 "line size must be a power of two of at least 4");
    std::size_t num_lines = params_.sizeBytes / params_.lineBytes;
    REMAP_ASSERT(params_.assoc > 0 && num_lines % params_.assoc == 0,
                 "cache geometry does not divide evenly");
    const std::size_t num_sets = num_lines / params_.assoc;
    REMAP_ASSERT(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
                 "set count must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineBytes));
    lineMask_ = params_.lineBytes - 1;
    setMask_ = num_sets - 1;
    lines_.resize(num_lines);

    statGroup_.addCounter("hits", &hits);
    statGroup_.addCounter("misses", &misses);
    statGroup_.addCounter("evictions", &evictions);
    statGroup_.addCounter("writebacks", &writebacks);
    statGroup_.addCounter("snoop_invalidations",
                          &snoopInvalidations);
}

const Cache::Line *
Cache::find(std::uint64_t line_num) const
{
    const Line *set = &lines_[setBase(line_num)];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (set[w].state() != Mesi::Invalid &&
            set[w].lineNum_ == line_num)
            return &set[w];
    }
    return nullptr;
}

Cache::Line *
Cache::lookup(Addr addr)
{
    Line *line = const_cast<Line *>(find(addr >> lineShift_));
    if (line)
        line->lruStamp_ = ++lruClock_;
    return line;
}

void
Cache::accountRepeatedHits(Addr addr, std::uint64_t n)
{
    if (n == 0)
        return;
    Line *line = lookup(addr);
    REMAP_ASSERT(line, "bulk-accounting hits on a non-resident line");
    lruClock_ += n - 1;
    line->lruStamp_ = lruClock_;
    hits += n;
}

const Cache::Line *
Cache::probe(Addr addr) const
{
    return find(addr >> lineShift_);
}

Cache::Line *
Cache::allocate(Addr addr, Addr *victim_addr, Mesi *victim_state)
{
    *victim_addr = 0;
    *victim_state = Mesi::Invalid;

    const std::uint64_t line_num = addr >> lineShift_;
    Line *set = &lines_[setBase(line_num)];

    // Prefer an invalid way; otherwise evict true-LRU.
    Line *victim = nullptr;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = set[w];
        if (line.state() == Mesi::Invalid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp_ < victim->lruStamp_)
            victim = &line;
    }

    if (victim->state() != Mesi::Invalid) {
        ++evictions;
        if (victim->state() == Mesi::Modified)
            ++writebacks;
        *victim_addr = Addr(victim->lineNum_) << lineShift_;
        *victim_state = victim->state();
    }

    victim->lineNum_ = line_num;
    victim->setState(Mesi::Invalid);
    victim->lruStamp_ = ++lruClock_;
    return victim;
}

Mesi
Cache::invalidate(Addr addr)
{
    Line *line = const_cast<Line *>(find(addr >> lineShift_));
    if (!line)
        return Mesi::Invalid;
    const Mesi prev = line->state();
    line->setState(Mesi::Invalid);
    ++snoopInvalidations;
    return prev;
}

Mesi
Cache::downgradeToShared(Addr addr)
{
    Line *line = const_cast<Line *>(find(addr >> lineShift_));
    if (!line)
        return Mesi::Invalid;
    const Mesi prev = line->state();
    line->setState(Mesi::Shared);
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
    // invalid way and breaks LRU ties by way order), so each valid
    // line is written with its position in the tag store.
    s.u32(static_cast<std::uint32_t>(residentLines()));
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        const Line &line = lines_[i];
        if (line.state() == Mesi::Invalid)
            continue;
        s.u32(static_cast<std::uint32_t>(i));
        s.u64(Addr(line.lineNum_) << lineShift_);
        s.u8(static_cast<std::uint8_t>(line.state()));
        s.u64(line.lruStamp_);
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
        const Addr tag = d.u64();
        if (tag & lineMask_) {
            d.fail("cache tag not line-aligned");
            return;
        }
        line.lineNum_ = tag >> lineShift_;
        const std::uint8_t state = d.u8();
        if (state > static_cast<std::uint8_t>(Mesi::Modified)) {
            d.fail("bad MESI state");
            return;
        }
        line.setState(static_cast<Mesi>(state));
        line.lruStamp_ = d.u64();
    }
    lruClock_ = d.u64();
    statGroup_.restore(d);
}

} // namespace remap::mem
