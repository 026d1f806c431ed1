#include "sim/env.hh"

#include <atomic>
#include <cctype>
#include <cstdint>
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
 *  once-per-process. Malformed values are fatal (parseKillSwitch()). */
bool
killSwitch(const char *name, const char *what,
           std::atomic<bool> &announced)
{
    bool off = false;
    std::string err;
    if (!parseKillSwitch(name, std::getenv(name), &off, &err))
        REMAP_FATAL("%s", err.c_str());
    if (off && !announced.exchange(true))
        REMAP_INFORM("%s=1: %s disabled", name, what);
    return off;
}

} // namespace

bool
parseKillSwitch(const char *name, const char *text, bool *off,
                std::string *error)
{
    if (!text || std::strcmp(text, "1") == 0) {
        *off = text != nullptr;
        return true;
    }
    if (error) {
        *error = "invalid " + std::string(name) + "='" + text +
                 "' (want 1, or unset the variable)";
    }
    return false;
}

bool
profile()
{
    bool on = false;
    std::string err;
    if (!parseKillSwitch("REMAP_PROFILE", std::getenv("REMAP_PROFILE"),
                         &on, &err))
        REMAP_FATAL("%s", err.c_str());
    return on;
}

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
parseCount(const char *name, const char *text, std::uint64_t *out,
           std::string *error)
{
    if (text && parseU64Field(text, out))
        return true;
    if (error) {
        *error = "invalid " + std::string(name) + "='" +
                 std::string(text ? text : "") +
                 "' (want a decimal count)";
    }
    return false;
}

bool
parseTracePeriod(const char *text, std::uint64_t *out,
                 std::string *error)
{
    return parseCount("REMAP_TRACE_PERIOD", text, out, error);
}

bool
parseMemoryMb(const char *text, std::size_t *bytes, std::string *error)
{
    constexpr std::uint64_t mb = 1024 * 1024;
    std::uint64_t count = 0;
    if (!parseCount("REMAP_CKPT_MEM", text, &count, error))
        return false;
    if (count > SIZE_MAX / mb) {
        if (error) {
            *error = "invalid REMAP_CKPT_MEM='" + std::string(text) +
                     "' (megabyte count overflows the byte cap)";
        }
        return false;
    }
    *bytes = static_cast<std::size_t>(count * mb);
    return true;
}

namespace
{

/** Read the count variable @p name, @p dflt when unset; malformed
 *  values are fatal. */
std::uint64_t
countVar(const char *name, std::uint64_t dflt)
{
    const char *env = std::getenv(name);
    if (!env)
        return dflt;
    std::string err;
    if (!parseCount(name, env, &dflt, &err))
        REMAP_FATAL("%s", err.c_str());
    return dflt;
}

} // namespace

std::uint64_t
tracePeriod(std::uint64_t dflt)
{
    return countVar("REMAP_TRACE_PERIOD", dflt);
}

std::size_t
ckptMemBytes(std::size_t dflt_bytes)
{
    const char *env = std::getenv("REMAP_CKPT_MEM");
    if (!env)
        return dflt_bytes;
    std::string err;
    if (!parseMemoryMb(env, &dflt_bytes, &err))
        REMAP_FATAL("%s", err.c_str());
    return dflt_bytes;
}

std::uint64_t
jobs()
{
    return countVar("REMAP_JOBS", 0);
}

bool
parseDirectory(const char *name, const char *text, std::string *dir,
               std::string *error)
{
    if (!text || *text) {
        *dir = text ? text : "";
        return true;
    }
    if (error) {
        *error = "invalid " + std::string(name) +
                 "='' (want a path, or unset the variable)";
    }
    return false;
}

namespace
{

/** Read the directory variable @p name, "" when unset; an empty
 *  value is fatal. */
std::string
directoryVar(const char *name)
{
    std::string dir;
    std::string err;
    if (!parseDirectory(name, std::getenv(name), &dir, &err))
        REMAP_FATAL("%s", err.c_str());
    return dir;
}

} // namespace

std::string
manifestDir()
{
    return directoryVar("REMAP_MANIFEST");
}

std::string
ckptDir()
{
    return directoryVar("REMAP_CKPT");
}

std::string
traceFile()
{
    return directoryVar("REMAP_TRACE");
}

} // namespace remap::env
