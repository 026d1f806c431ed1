/**
 * @file
 * Structured event tracing in the Chrome trace-event JSON format
 * (loadable in Perfetto or chrome://tracing).
 *
 * A Tracer serializes duration ("X"), instant ("i"), counter ("C")
 * and flow ("s"/"f") events plus metadata records into one JSON file.
 * Timestamps are simulated core cycles written into the `ts` field
 * (the viewers display them as microseconds; 1 us == 1 cycle).
 *
 * Design constraints (see DESIGN.md section 8):
 *  - Pure observation: instrumentation only reads simulator state, so
 *    simulated cycles, stats and energy are bit-identical with
 *    tracing on or off.
 *  - Near-zero cost when disabled: every instrumentation site guards
 *    on a raw `Tracer *` that is null unless tracing was requested,
 *    so the off path is a single predictable branch.
 *  - One Tracer per System: the parallel harness runs many Systems
 *    concurrently, each writing its own file (uniqueTracePath()
 *    suffixes the REMAP_TRACE path per instance), so no cross-thread
 *    synchronization is needed on the emission path.
 */

#ifndef REMAP_SIM_TRACE_HH
#define REMAP_SIM_TRACE_HH

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace remap::trace
{

/** Event categories, matching the paper's evaluation dimensions. */
enum class Category : std::uint8_t
{
    Core,      ///< pipeline-level events (SPL stall spans, ...)
    Fabric,    ///< SPL initiations, virtualization, sharing
    Queue,     ///< per-core input/output queue depths
    Barrier,   ///< barrier arrive -> release activity
    Migration, ///< thread migrations between cores
};

/** The `cat` string for @p c. */
const char *categoryName(Category c);

/** One optional key/value argument attached to an event. */
struct Arg
{
    const char *key;
    enum class Kind : std::uint8_t { Num, Str } kind;
    double num = 0.0;
    const char *str = nullptr;

    Arg(const char *k, double v) : key(k), kind(Kind::Num), num(v) {}
    Arg(const char *k, std::uint64_t v)
        : key(k), kind(Kind::Num), num(static_cast<double>(v))
    {
    }
    Arg(const char *k, unsigned v)
        : key(k), kind(Kind::Num), num(v)
    {
    }
    Arg(const char *k, const char *v)
        : key(k), kind(Kind::Str), str(v)
    {
    }
};

/** Writes one Chrome trace-event JSON file. Not thread-safe: each
 *  simulated System owns (at most) one Tracer. */
class Tracer
{
  public:
    Tracer() = default;
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start tracing into @p path. @p pid becomes the `pid` of every
     * event (the harness uses the System instance number).
     * @return false (tracing stays disabled) when the file cannot be
     * opened.
     */
    bool open(const std::string &path, std::uint32_t pid = 0);

    /** Write the footer and close the file (idempotent). */
    void close();

    /** True while a trace file is open. */
    bool enabled() const { return out_.is_open(); }

    /** Path given to open(), for diagnostics. */
    const std::string &path() const { return path_; }

    /** Events emitted so far (metadata included). */
    std::uint64_t eventCount() const { return events_; }

    /** @{ @name Metadata records. */
    void processName(const std::string &name);
    void threadName(std::uint32_t tid, const std::string &name);
    /** @} */

    /** Duration event: @p name spans [@p start, @p start + @p dur]. */
    void complete(Category cat, const char *name, std::uint32_t tid,
                  Cycle start, Cycle dur,
                  std::initializer_list<Arg> args = {});

    /** Instant event at @p ts. */
    void instant(Category cat, const char *name, std::uint32_t tid,
                 Cycle ts, std::initializer_list<Arg> args = {});

    /** Counter event: each arg becomes one plotted series. */
    void counter(Category cat, const char *name, std::uint32_t tid,
                 Cycle ts, std::initializer_list<Arg> series);

    /** Flow start (arrow tail) with correlation id @p flow_id. */
    void flowBegin(Category cat, const char *name, std::uint32_t tid,
                   Cycle ts, std::uint64_t flow_id);

    /** Flow finish (arrow head) with correlation id @p flow_id. */
    void flowEnd(Category cat, const char *name, std::uint32_t tid,
                 Cycle ts, std::uint64_t flow_id);

  private:
    /** Write the shared `{"name":...,"cat":...,"ph":...}` prefix. */
    void prefix(Category cat, const char *name, char ph,
                std::uint32_t tid, Cycle ts);
    void writeArgs(std::initializer_list<Arg> args);
    void finish();

    std::ofstream out_;
    std::string path_;
    std::uint32_t pid_ = 0;
    std::uint64_t events_ = 0;
    bool first_ = true;
};

/**
 * Periodic counter sampling: a list of (track, series, StatCounter)
 * registrations snapshotted into counter events every sample period.
 * Registered by System when tracing is enabled; the run loop calls
 * sample() every REMAP_TRACE_PERIOD simulated cycles.
 */
class CounterSampler
{
  public:
    /** Register @p c to be sampled as @p series on track @p name. */
    void
    add(Category cat, std::string name, std::uint32_t tid,
        std::string series, const StatCounter *c)
    {
        entries_.push_back(Entry{cat, std::move(name), tid,
                                 std::move(series), c});
    }

    /** Emit one counter event per registration at @p now. */
    void
    sample(Tracer &t, Cycle now) const
    {
        for (const Entry &e : entries_) {
            t.counter(e.cat, e.name.c_str(), e.tid, now,
                      {Arg{e.series.c_str(),
                           static_cast<double>(e.counter->value())}});
        }
    }

    bool empty() const { return entries_.empty(); }

  private:
    struct Entry
    {
        Category cat;
        std::string name;
        std::uint32_t tid;
        std::string series;
        const StatCounter *counter;
    };
    std::vector<Entry> entries_;
};

/**
 * Derive a per-instance trace path from the REMAP_TRACE base path:
 * the first caller gets @p base unchanged, instance N gets
 * "base-stem.N.ext". Uses a process-wide atomic counter so
 * concurrently-constructed Systems never share a file.
 */
std::string uniqueTracePath(const std::string &base);

} // namespace remap::trace

#endif // REMAP_SIM_TRACE_HH
