/** @file The strict REMAP_* environment parsers (sim/env.hh): every
 *  malformed count, kill switch or directory value is rejected with a
 *  one-line error naming its variable, never silently read as a
 *  default. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "sim/env.hh"

namespace remap
{
namespace
{

TEST(EnvParse, MalformedTracePeriodsAreRejected)
{
    // REMAP_TRACE_PERIOD goes through the strict digits-only count
    // parser: "abc" must not become period 0 (counter sampling
    // silently off) and "10k" must not become 10.
    const char *bad[] = {"", " ", "abc", "10k", "-5", "+5", "1e4",
                         " 100", "100 ", "99999999999999999999"};
    for (const char *spec : bad) {
        SCOPED_TRACE(spec);
        std::uint64_t period = 7;
        std::string err;
        EXPECT_FALSE(env::parseTracePeriod(spec, &period, &err));
        EXPECT_EQ(period, 7u);
        EXPECT_NE(err.find("REMAP_TRACE_PERIOD"), std::string::npos);
    }

    const std::pair<const char *, std::uint64_t> good[] = {
        {"0", 0}, {"5000", 5000}, {"10000", 10000}};
    for (const auto &[spec, want] : good) {
        SCOPED_TRACE(spec);
        std::uint64_t period = 7;
        std::string err;
        EXPECT_TRUE(env::parseTracePeriod(spec, &period, &err)) << err;
        EXPECT_EQ(period, want);
    }

    // Unset falls back to the caller's default.
    ASSERT_EQ(unsetenv("REMAP_TRACE_PERIOD"), 0);
    EXPECT_EQ(env::tracePeriod(10'000), 10'000u);
    ASSERT_EQ(setenv("REMAP_TRACE_PERIOD", "2500", 1), 0);
    EXPECT_EQ(env::tracePeriod(10'000), 2500u);
    ASSERT_EQ(unsetenv("REMAP_TRACE_PERIOD"), 0);
}

TEST(EnvParse, MalformedCountVariablesAreRejected)
{
    // REMAP_CKPT_MEM and REMAP_JOBS take the same digits-only
    // counts: "256MB" must not silently become the default cap, and
    // "4 " must not become 4 workers.
    const char *names[] = {"REMAP_CKPT_MEM", "REMAP_JOBS"};
    const char *bad[] = {"", " ", "abc", "256MB", "-5", "+5", "1e4",
                         " 100", "100 ", "99999999999999999999"};
    for (const char *name : names) {
        for (const char *text : bad) {
            SCOPED_TRACE(std::string(name) + "='" + text + "'");
            std::uint64_t count = 7;
            std::string err;
            EXPECT_FALSE(env::parseCount(name, text, &count, &err));
            EXPECT_EQ(count, 7u);
            EXPECT_NE(err.find(name), std::string::npos);
        }
        std::uint64_t count = 7;
        std::string err;
        EXPECT_TRUE(env::parseCount(name, "0", &count, &err)) << err;
        EXPECT_EQ(count, 0u);
        EXPECT_TRUE(env::parseCount(name, "256", &count, &err)) << err;
        EXPECT_EQ(count, 256u);
    }

    // REMAP_CKPT_MEM is in megabytes; a count whose byte total does
    // not fit size_t is rejected, not wrapped.
    const std::uint64_t max_mb = SIZE_MAX / (1024 * 1024);
    const std::string too_big = std::to_string(max_mb + 1);
    const char *bad_mem[] = {"256MB", "", too_big.c_str()};
    for (const char *text : bad_mem) {
        SCOPED_TRACE(text);
        std::size_t bytes = 7;
        std::string err;
        EXPECT_FALSE(env::parseMemoryMb(text, &bytes, &err));
        EXPECT_EQ(bytes, 7u);
        EXPECT_NE(err.find("REMAP_CKPT_MEM"), std::string::npos);
    }
    std::size_t bytes = 0;
    std::string err;
    EXPECT_TRUE(env::parseMemoryMb("256", &bytes, &err)) << err;
    EXPECT_EQ(bytes, std::size_t(256) * 1024 * 1024);
    const std::string largest = std::to_string(max_mb);
    EXPECT_TRUE(env::parseMemoryMb(largest.c_str(), &bytes, &err))
        << err;
    EXPECT_EQ(bytes, static_cast<std::size_t>(max_mb) * 1024 * 1024);

    // Unset falls back to the caller's default.
    ASSERT_EQ(unsetenv("REMAP_CKPT_MEM"), 0);
    EXPECT_EQ(env::ckptMemBytes(123), 123u);
    ASSERT_EQ(setenv("REMAP_CKPT_MEM", "2", 1), 0);
    EXPECT_EQ(env::ckptMemBytes(123), 2u * 1024 * 1024);
    ASSERT_EQ(unsetenv("REMAP_CKPT_MEM"), 0);
}

TEST(EnvParse, MalformedKillSwitchesAreRejected)
{
    // A kill switch is off only when unset and on only at "1": "0"
    // or an empty value must not silently disable a fast path.
    // REMAP_PROFILE reads the same way, so "0" never turns it on.
    const char *names[] = {"REMAP_NO_LEAP", "REMAP_PROFILE"};
    const char *bad[] = {"0", "", "yes", " 1"};
    for (const char *name : names) {
        for (const char *text : bad) {
            SCOPED_TRACE(std::string(name) + "='" + text + "'");
            bool off = false;
            std::string err;
            EXPECT_FALSE(env::parseKillSwitch(name, text, &off, &err));
            EXPECT_NE(err.find(name), std::string::npos);
        }
        bool off = false;
        std::string err;
        EXPECT_TRUE(env::parseKillSwitch(name, "1", &off, &err)) << err;
        EXPECT_TRUE(off);
        EXPECT_TRUE(env::parseKillSwitch(name, nullptr, &off, &err));
        EXPECT_FALSE(off);
    }
}

TEST(EnvParse, EmptyDirectoryVariablesAreRejected)
{
    // An empty value must not silently leave manifests, snapshot
    // persistence or tracing off (nor trace into hidden ".N" files).
    const char *names[] = {"REMAP_MANIFEST", "REMAP_CKPT",
                           "REMAP_TRACE"};
    for (const char *name : names) {
        SCOPED_TRACE(name);
        std::string dir = "stale";
        std::string err;
        EXPECT_FALSE(env::parseDirectory(name, "", &dir, &err));
        EXPECT_NE(err.find(name), std::string::npos);
        EXPECT_EQ(dir, "stale");
        EXPECT_TRUE(env::parseDirectory(name, nullptr, &dir, &err));
        EXPECT_EQ(dir, "");
        EXPECT_TRUE(env::parseDirectory(name, ".", &dir, &err));
        EXPECT_EQ(dir, ".");
    }
}

} // namespace
} // namespace remap
