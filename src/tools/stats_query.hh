/**
 * @file
 * Query/diff engine behind the `remap-stats` CLI: flattens the JSON
 * the simulator writes (stats dumps, run manifests) into
 * dotted-path -> value maps and compares two runs numerically
 * under a relative tolerance. Library, not binary, so the golden
 * tests in tests/test_profile.cc can drive it directly.
 */

#ifndef REMAP_TOOLS_STATS_QUERY_HH
#define REMAP_TOOLS_STATS_QUERY_HH

#include <map>
#include <string>
#include <vector>

#include "sim/json_value.hh"

namespace remap::json
{
class Writer;
}

namespace remap::tools
{

/** One leaf of a flattened JSON document. */
struct FlatEntry
{
    enum class Kind
    {
        Number,
        String,
        Bool,
        Null,
    };
    Kind kind = Kind::Null;
    double num = 0.0;
    std::string str;
};

/**
 * Flatten @p root into dotted paths: object members join with '.',
 * array elements append "[i]" — except arrays of objects that carry a
 * recognizable name ("workload"+"variant" plus the "spec" scalars,
 * or "name"), which index by that name so two runs align even if job
 * order differs. An element whose name an earlier one already took
 * appends "#i" (its index), so no element overwrites another.
 */
std::map<std::string, FlatEntry> flatten(const json::Value &root);

/** One path's comparison outcome. */
struct DiffEntry
{
    std::string path;
    double a = 0.0;
    double b = 0.0;
    /** (b - a) / max(|a|, |b|, epsilon); 0 when equal. */
    double rel = 0.0;
    /** |rel| exceeded the tolerance — counts toward the exit
     *  code. */
    bool violation = false;
    /** Non-numeric/missing difference — reported, never a
     *  violation. */
    std::string note;
};

/** Knobs for diff(). */
struct DiffOptions
{
    /** Relative tolerance; |rel| above this is a violation. */
    double tolerance = 0.05;
    /** When non-empty, only paths containing one of these substrings
     *  are compared. */
    std::vector<std::string> only;
    /** Paths containing one of these substrings are skipped. */
    std::vector<std::string> ignore;
};

/** Result of diff(): per-path outcomes plus rollups. */
struct DiffResult
{
    std::vector<DiffEntry> entries;
    std::size_t compared = 0;   ///< numeric paths compared
    std::size_t violations = 0; ///< tolerance violations
    std::size_t notes = 0;      ///< type/missing-path notes
};

/** Compare two flattened documents under @p opt. */
DiffResult diff(const std::map<std::string, FlatEntry> &a,
                const std::map<std::string, FlatEntry> &b,
                const DiffOptions &opt);

/** Per-path aggregate over several runs. */
struct Aggregate
{
    std::size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const { return count ? sum / count : 0.0; }
};

/** Aggregate the numeric paths of several flattened documents. */
std::map<std::string, Aggregate>
aggregate(const std::vector<std::map<std::string, FlatEntry>> &runs);

/** Read + parse @p path. @p error receives the reason on failure. */
bool loadJsonFile(const std::string &path, json::Value &out,
                  std::string *error);

/**
 * Emit @p res as one JSON object — the `remap-stats diff --json`
 * payload: {"tolerance":..,"compared":..,
 * "violations":..,"notes":..,"entries":[{"path":..,"a":..,"b":..,
 * "rel":..,"violation":..}|{"path":..,"note":..}, ...]}. Doubles are
 * round-trip exact so a consumer recomputing rel sees our bits.
 */
void dumpDiffJson(const DiffResult &res, const DiffOptions &opt,
                  json::Writer &w);

/**
 * Emit aggregates as one JSON object — the
 * `remap-stats aggregate --json` payload: {"runs":N,"paths":{path:
 * {"n":..,"mean":..,"min":..,"max":..}, ...}}. @p only filters paths
 * by substring like the text mode (empty = all).
 */
void dumpAggregateJson(const std::map<std::string, Aggregate> &aggs,
                       std::size_t runs,
                       const std::vector<std::string> &only,
                       json::Writer &w);

} // namespace remap::tools

#endif // REMAP_TOOLS_STATS_QUERY_HH
