#include "sim/env.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace remap::env
{
namespace
{

/** Read a boolean kill switch, logging the first time it is seen
 *  set. The value is re-read every call (tests toggle switches with
 *  setenv() around component construction); only the announcement is
 *  once-per-process. */
bool
killSwitch(const char *name, const char *what,
           std::atomic<bool> &announced)
{
    const bool set = std::getenv(name) != nullptr;
    if (set && !announced.exchange(true))
        REMAP_INFORM("%s set: %s disabled", name, what);
    return set;
}

} // namespace

bool
noLeap()
{
    static std::atomic<bool> announced{false};
    return killSwitch("REMAP_NO_LEAP", "event-horizon leap scheduler",
                      announced);
}

bool
noBlockCache()
{
    static std::atomic<bool> announced{false};
    return killSwitch("REMAP_NO_BLOCK_CACHE",
                      "decoded basic-block cache", announced);
}

bool
noMru()
{
    static std::atomic<bool> announced{false};
    return killSwitch("REMAP_NO_MRU", "cache MRU-way fast path",
                      announced);
}

bool
noThreaded()
{
    static std::atomic<bool> announced{false};
    return killSwitch("REMAP_NO_THREADED",
                      "computed-goto threaded dispatch", announced);
}

bool
noSampleReplay()
{
    static std::atomic<bool> announced{false};
    return killSwitch("REMAP_NO_SAMPLE_REPLAY",
                      "checkpointed sample replay", announced);
}

namespace
{

/** Split @p text on ','. Empty fields are preserved (and rejected by
 *  the field parsers). */
std::vector<std::string>
splitFields(const char *text)
{
    std::vector<std::string> fields;
    std::string cur;
    for (const char *p = text; *p; ++p) {
        if (*p == ',') {
            fields.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(*p);
        }
    }
    fields.push_back(cur);
    return fields;
}

/** Strict decimal u64: digits only, nonempty, no overflow. */
bool
parseU64Field(const std::string &f, std::uint64_t *out)
{
    if (f.empty() || f.size() > 19)
        return false;
    std::uint64_t v = 0;
    for (char c : f) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = v;
    return true;
}

/** Strict double in (0, 1): full consumption, no signs/spaces. */
bool
parseTargetField(const std::string &f, double *out)
{
    if (f.empty() || f[0] == '-' || f[0] == '+' ||
        std::isspace(static_cast<unsigned char>(f[0])))
        return false;
    char *end = nullptr;
    const double v = std::strtod(f.c_str(), &end);
    if (end != f.c_str() + f.size())
        return false;
    if (!(v > 0.0) || !(v < 1.0))
        return false;
    *out = v;
    return true;
}

bool
sampleSpecError(const char *text, std::string *error,
                const std::string &why)
{
    if (error) {
        *error = "invalid REMAP_SAMPLE='" + std::string(text) +
                 "': " + why +
                 " (want P[,M[,W]] instruction counts, "
                 "'auto[,HALFWIDTH]', or '1')";
    }
    return false;
}

} // namespace

bool
parseSampleSpec(const char *text, sampling::SampleParams *out,
                std::string *error)
{
    *out = sampling::SampleParams{};
    if (!text || !*text)
        return sampleSpecError(text ? text : "", error,
                               "empty value");

    const std::vector<std::string> fields = splitFields(text);

    if (fields[0] == "auto") {
        // auto[,H] — adaptive schedule with a relative CI half-width
        // target.
        sampling::SampleParams p = sampling::SampleParams::autoDefaults();
        if (fields.size() > 2)
            return sampleSpecError(text, error,
                                   "trailing garbage after the "
                                   "'auto' target");
        if (fields.size() == 2 &&
            !parseTargetField(fields[1], &p.ciTarget))
            return sampleSpecError(
                text, error,
                "half-width target '" + fields[1] +
                    "' must be a plain decimal in (0, 1)");
        *out = p;
        return true;
    }

    if (std::strcmp(text, "1") == 0) {
        *out = sampling::SampleParams::defaults();
        return true;
    }

    // P[,M[,W]] — period, measured window, detailed warm-up.
    if (fields.size() > 3)
        return sampleSpecError(text, error,
                               "trailing garbage after the schedule");
    sampling::SampleParams p = sampling::SampleParams::defaults();
    std::uint64_t *const dest[3] = {&p.period, &p.window, &p.warm};
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (!parseU64Field(fields[i], dest[i]))
            return sampleSpecError(
                text, error,
                "malformed instruction count '" + fields[i] + "'");
    }
    if (p.period == 0)
        return sampleSpecError(text, error,
                               "period must be positive");
    if (p.window == 0)
        return sampleSpecError(text, error,
                               "window must be positive");
    if (p.window > p.period)
        return sampleSpecError(text, error,
                               "window exceeds the period");
    if (p.warm + p.window > p.period)
        return sampleSpecError(text, error,
                               "warm+window exceeds the period");
    *out = p;
    return true;
}

sampling::SampleParams
sampleParams()
{
    const char *env = std::getenv("REMAP_SAMPLE");
    if (!env || !*env)
        return sampling::SampleParams{};

    sampling::SampleParams p;
    std::string err;
    if (!parseSampleSpec(env, &p, &err))
        REMAP_FATAL("%s", err.c_str());

    static std::atomic<bool> announced{false};
    if (!announced.exchange(true)) {
        if (p.adaptive()) {
            const sampling::SampleParams r = p.resolvedAdaptive();
            REMAP_INFORM("REMAP_SAMPLE set: adaptive sampled mode "
                         "(ci target %.3g, period clamp "
                         "[%llu, %llu] insts)",
                         p.ciTarget,
                         static_cast<unsigned long long>(r.minPeriod),
                         static_cast<unsigned long long>(r.maxPeriod));
        } else {
            REMAP_INFORM("REMAP_SAMPLE set: sampled mode (period=%llu "
                         "window=%llu warm=%llu insts)",
                         static_cast<unsigned long long>(p.period),
                         static_cast<unsigned long long>(p.window),
                         static_cast<unsigned long long>(p.warm));
        }
    }
    return p;
}

bool
parseTracePeriod(const char *text, std::uint64_t *out,
                 std::string *error)
{
    if (text && parseU64Field(text, out))
        return true;
    if (error) {
        *error = "invalid REMAP_TRACE_PERIOD='" +
                 std::string(text ? text : "") +
                 "' (want a decimal cycle count)";
    }
    return false;
}

std::uint64_t
tracePeriod(std::uint64_t dflt)
{
    const char *env = std::getenv("REMAP_TRACE_PERIOD");
    if (!env)
        return dflt;
    std::string err;
    if (!parseTracePeriod(env, &dflt, &err))
        REMAP_FATAL("%s", err.c_str());
    return dflt;
}

} // namespace remap::env
