/**
 * @file
 * gem5-style logging and error-termination helpers.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user/config
 * errors (clean exit); warn()/inform() report conditions without
 * stopping the simulation.
 */

#ifndef REMAP_SIM_LOGGING_HH
#define REMAP_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace remap
{

namespace detail
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-style formatter returning a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/**
 * Set this thread's log context, prefixed to every warn()/inform()
 * message as "[ctx]". The parallel harness tags worker threads with
 * the active worker/job so batched-simulation logs attribute cleanly;
 * an empty string clears the prefix.
 */
void setLogContext(std::string ctx);

/** This thread's current log context (empty when unset). */
const std::string &logContext();

/** RAII helper restoring the previous log context on scope exit. */
class ScopedLogContext
{
  public:
    explicit ScopedLogContext(std::string ctx);
    ~ScopedLogContext();

    ScopedLogContext(const ScopedLogContext &) = delete;
    ScopedLogContext &operator=(const ScopedLogContext &) = delete;

  private:
    std::string prev_;
};

/**
 * Abort the simulation due to an internal simulator bug.
 * Mirrors gem5's panic(): something happened that should never happen
 * regardless of user input.
 */
#define REMAP_PANIC(...) \
    ::remap::detail::panicImpl(__FILE__, __LINE__, \
        ::remap::detail::formatString(__VA_ARGS__))

/**
 * Terminate the simulation due to a user error (bad configuration,
 * invalid workload, etc.). Mirrors gem5's fatal().
 */
#define REMAP_FATAL(...) \
    ::remap::detail::fatalImpl(__FILE__, __LINE__, \
        ::remap::detail::formatString(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define REMAP_WARN(...) \
    ::remap::detail::warnImpl(::remap::detail::formatString(__VA_ARGS__))

/** Report normal operating status. */
#define REMAP_INFORM(...) \
    ::remap::detail::informImpl(::remap::detail::formatString(__VA_ARGS__))

/**
 * Invariant check that panics (not asserts) so it fires in release.
 * The printf-style message is formatted only on failure and printed
 * after the condition: "assertion failed: <cond>: <message>".
 */
#define REMAP_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            REMAP_PANIC("assertion failed: %s: %s", #cond, \
                ::remap::detail::formatString(__VA_ARGS__).c_str()); \
        } \
    } while (0)

} // namespace remap

#endif // REMAP_SIM_LOGGING_HH
