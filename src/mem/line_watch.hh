/**
 * @file
 * LineWatch — the memory lines sleeping spin-wait cores depend on.
 *
 * A core that leaps a periodic spin loop (DESIGN.md §10.2) registers
 * the lines its loop fetches and loads. Two events can change what
 * the loop would do, and both bump the watching core's change count:
 * a functional write to a watched line by any core (the loop would
 * load a new value), and an invalidation of a watched line in that
 * core's own L1 (the loop would miss). The run loop wakes a sleeper
 * whose count moved. The table is owned by the System; cores report
 * writes and the MemSystem reports invalidations.
 */

#ifndef REMAP_MEM_LINE_WATCH_HH
#define REMAP_MEM_LINE_WATCH_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace remap::mem
{

/** Watched lines per core, with one change count per core. */
class LineWatch
{
  public:
    /**
     * @param cores number of cores
     * @param granule watch granularity in bytes, a power of two at
     *        least as large as every cache line it stands for
     */
    LineWatch(unsigned cores, unsigned granule)
        : mask_(~Addr(granule - 1)), changes_(cores, 0)
    {
    }

    /** True when no core watches anything (the writers' fast path). */
    bool empty() const { return entries_.empty(); }

    /** Watch the granule holding @p addr on behalf of @p core. */
    void
    add(CoreId core, Addr addr)
    {
        entries_.push_back(Entry{addr & mask_, core});
        filter_ |= filterBit(addr & mask_);
    }

    /** Stop every watch of @p core. */
    void
    removeCore(CoreId core)
    {
        std::erase_if(entries_,
                      [core](const Entry &e) { return e.core == core; });
        filter_ = 0;
        for (const Entry &e : entries_)
            filter_ |= filterBit(e.line);
    }

    /** A functional write of @p len bytes at @p addr. */
    void
    noteWrite(Addr addr, unsigned len)
    {
        const Addr first = addr & mask_;
        const Addr last = (addr + std::max(len, 1u) - 1) & mask_;
        for (Addr line = first;; line += ~mask_ + 1) {
            if (filter_ & filterBit(line)) {
                for (const Entry &e : entries_)
                    if (e.line == line)
                        ++changes_[e.core];
            }
            if (line == last)
                break;
        }
    }

    /** A line holding @p addr left @p core's L1I or L1D. */
    void
    noteInvalidate(CoreId core, Addr addr)
    {
        const Addr line = addr & mask_;
        if (!(filter_ & filterBit(line)))
            return;
        for (const Entry &e : entries_)
            if (e.core == core && e.line == line)
                ++changes_[core];
    }

    /** Every cache of @p core was flushed. */
    void noteFlush(CoreId core) { ++changes_[core]; }

    /** Change count of @p core: monotone, never serialized. */
    std::uint64_t changes(CoreId core) const { return changes_[core]; }

  private:
    struct Entry
    {
        Addr line;
        CoreId core;
    };

    /** One bit of a 64-bit Bloom filter over watched granules, so
     *  writes to unwatched lines skip the entry scan. */
    std::uint64_t
    filterBit(Addr line) const
    {
        return std::uint64_t{1}
               << (((line & mask_) * 0x9E3779B97F4A7C15ULL) >> 58);
    }

    Addr mask_;
    std::vector<Entry> entries_;
    std::uint64_t filter_ = 0;
    std::vector<std::uint64_t> changes_;
};

} // namespace remap::mem

#endif // REMAP_MEM_LINE_WATCH_HH
