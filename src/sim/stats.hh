/**
 * @file
 * Lightweight statistics framework: named scalar counters that
 * register themselves with a StatGroup for reporting.
 *
 * Modelled on gem5's stats package at a much smaller scale: every
 * hardware structure owns a StatGroup; the System aggregates groups
 * into a report.
 */

#ifndef REMAP_SIM_STATS_HH
#define REMAP_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace remap
{

namespace json
{
class Writer;
}

/** A named monotonically increasing 64-bit counter. */
class StatCounter
{
  public:
    StatCounter() = default;

    /** Add @p n events. */
    void operator+=(std::uint64_t n) { value_ += n; }
    /** Record a single event. */
    StatCounter &operator++() { ++value_; return *this; }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Raise to @p v if that is larger (high-water marks). */
    void raiseTo(std::uint64_t v) { value_ = std::max(value_, v); }
    /** Reset to zero (used between measurement regions). */
    void reset() { value_ = 0; }

    /** Serialize (snapshot support). */
    void save(snap::Serializer &s) const { s.u64(value_); }
    /** Restore a value saved by save(). */
    void restore(snap::Deserializer &d) { value_ = d.u64(); }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of statistics belonging to one simulated object.
 *
 * Stats are registered by pointer; the group does not own them. The
 * owning object must outlive the group's reporting calls (in practice
 * both live in the same structure).
 */
class StatGroup
{
  public:
    /** @param name dotted path of the owning object, e.g. "core0.rob" */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p stat_name. */
    void
    addCounter(const std::string &stat_name, StatCounter *c)
    {
        counters_.emplace(stat_name, c);
    }

    /** Group name (dotted path). */
    const std::string &name() const { return name_; }

    /** Write "group.stat value" lines to @p os. */
    void dump(std::ostream &os) const;

    /**
     * Emit this group as `"name": {stat: value, ...}` into an open
     * JSON object scope of @p w.
     */
    void dumpJson(json::Writer &w) const;

    /** Reset every registered stat. */
    void reset();

    /**
     * Serialize every registered counter, keyed by stat
     * name (std::map order, so the byte stream is deterministic).
     */
    void save(snap::Serializer &s) const;

    /**
     * Restore stats saved by save(). The registered stat set must
     * match the saved one (same names, same counts) — a mismatch
     * marks @p d failed, it never partially applies.
     */
    void restore(snap::Deserializer &d);

    /** Access registered counters (for programmatic queries). */
    const std::map<std::string, StatCounter *> &
    counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, StatCounter *> counters_;
};

} // namespace remap

#endif // REMAP_SIM_STATS_HH
