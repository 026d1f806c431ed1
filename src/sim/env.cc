#include "sim/env.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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
    return killSwitch("REMAP_NO_LEAP", "per-core sleep", announced);
}

namespace
{

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

} // namespace

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
