/**
 * @file
 * Lightweight statistics framework: named scalar counters, averages and
 * histograms that register themselves with a StatGroup for reporting.
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
#include <vector>

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

/** Running mean of a sampled quantity. */
class StatAverage
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }
    /** Sum of all samples. */
    double sum() const { return sum_; }
    /** Mean of samples, or 0 when empty. */
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Discard all samples. */
    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    /** Serialize (snapshot support). */
    void
    save(snap::Serializer &s) const
    {
        s.f64(sum_);
        s.u64(count_);
    }

    /** Restore a value saved by save(). */
    void
    restore(snap::Deserializer &d)
    {
        sum_ = d.f64();
        count_ = d.u64();
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class StatHistogram
{
  public:
    /**
     * @param bucket_count number of equal-width buckets
     * @param bucket_width width of each bucket
     */
    explicit StatHistogram(unsigned bucket_count = 16,
                           double bucket_width = 1.0)
        : buckets_(bucket_count, 0), width_(bucket_width)
    {
    }

    /** Record one sample; out-of-range samples land in the last bucket. */
    void
    sample(double v)
    {
        auto idx = static_cast<std::size_t>(v / width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
        ++count_;
    }

    /** Count in bucket @p i. */
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    /** Number of buckets. */
    std::size_t size() const { return buckets_.size(); }
    /** Total samples. */
    std::uint64_t count() const { return count_; }

    /** Discard all samples. */
    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        count_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    double width_;
    std::uint64_t count_ = 0;
};

/**
 * Histogram over power-of-two buckets of a 64-bit sample domain:
 * bucket 0 holds the value 0, bucket i (i >= 1) holds values in
 * [2^(i-1), 2^i). Used for host-time (nanosecond) and skipped-cycle
 * distributions, where samples span many orders of magnitude and the
 * interesting questions are tail percentiles, not exact moments.
 */
class Log2Histogram
{
  public:
    /** Bucket count: value 0 plus one bucket per bit of the domain. */
    static constexpr unsigned kBuckets = 65;

    /** Bucket index of @p v: 0 for 0, else floor(log2(v)) + 1. */
    static unsigned
    bucketOf(std::uint64_t v)
    {
        unsigned b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    }

    /** Inclusive lower bound of bucket @p i. */
    static std::uint64_t
    bucketLow(unsigned i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << (i - 1);
    }

    /** Inclusive upper bound of bucket @p i. */
    static std::uint64_t
    bucketHigh(unsigned i)
    {
        return i == 0 ? 0
               : i >= 64
                   ? ~std::uint64_t(0)
                   : (std::uint64_t(1) << i) - 1;
    }

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
    }

    /** Total samples. */
    std::uint64_t count() const { return count_; }
    /** Sum of all samples. */
    std::uint64_t sum() const { return sum_; }
    /** Mean sample, 0 when empty. */
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0.0;
    }
    /** Count in bucket @p i. */
    std::uint64_t bucket(unsigned i) const { return buckets_[i]; }

    /**
     * The @p p-th percentile (p in [0, 100]), reported as the upper
     * bound of the bucket containing that rank — an upper estimate
     * with at most 2x quantization, which is what log2 buckets buy.
     * Returns 0 when empty.
     */
    std::uint64_t
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        const double rank = p / 100.0 * static_cast<double>(count_);
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (static_cast<double>(seen) >= rank && seen > 0)
                return bucketHigh(i);
        }
        return bucketHigh(kBuckets - 1);
    }

    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p95() const { return percentile(95.0); }
    std::uint64_t p99() const { return percentile(99.0); }

    /** Discard all samples. */
    void
    reset()
    {
        std::fill(std::begin(buckets_), std::end(buckets_), 0);
        count_ = 0;
        sum_ = 0;
    }

    /** Accumulate @p other's samples into this histogram. */
    void
    merge(const Log2Histogram &other)
    {
        for (unsigned i = 0; i < kBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    /**
     * Emit as a JSON value: {"count", "sum", "mean", "p50", "p95",
     * "p99", "buckets": [[low, count], ...]} with only the non-empty
     * buckets listed. The caller has already emitted the key.
     */
    void dumpJson(json::Writer &w) const;

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
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

    /** Register an average under @p stat_name. */
    void
    addAverage(const std::string &stat_name, StatAverage *a)
    {
        averages_.emplace(stat_name, a);
    }

    /** Group name (dotted path). */
    const std::string &name() const { return name_; }

    /** Write "group.stat value" lines to @p os. */
    void dump(std::ostream &os) const;

    /**
     * Emit this group as `"name": {stat: value, ...}` into an open
     * JSON object scope of @p w (counters as integers, averages as
     * their mean).
     */
    void dumpJson(json::Writer &w) const;

    /** Reset every registered stat. */
    void reset();

    /**
     * Serialize every registered counter and average, keyed by stat
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

    /** Access registered averages (for programmatic queries). */
    const std::map<std::string, StatAverage *> &
    averages() const
    {
        return averages_;
    }

  private:
    std::string name_;
    std::map<std::string, StatCounter *> counters_;
    std::map<std::string, StatAverage *> averages_;
};

} // namespace remap

#endif // REMAP_SIM_STATS_HH
