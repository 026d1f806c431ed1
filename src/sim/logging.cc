#include "sim/logging.hh"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace remap
{

namespace
{

/** Serializes all log output so concurrent harness workers never
 *  interleave within (or between) messages. */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

thread_local std::string log_context;

/** Compose the full line and hand it to stderr as ONE write, under
 *  the log mutex, so parallel-harness output stays line-atomic. */
void
emitLine(const char *level, const std::string &msg)
{
    std::string line = level;
    line += ": ";
    if (!log_context.empty()) {
        line += '[';
        line += log_context;
        line += "] ";
    }
    line += msg;
    line += '\n';
    std::lock_guard<std::mutex> lk(logMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

void
setLogContext(std::string ctx)
{
    log_context = std::move(ctx);
}

const std::string &
logContext()
{
    return log_context;
}

ScopedLogContext::ScopedLogContext(std::string ctx)
    : prev_(log_context)
{
    log_context = std::move(ctx);
}

ScopedLogContext::~ScopedLogContext()
{
    log_context = std::move(prev_);
}

namespace detail
{

std::string
formatString(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    emitLine("panic",
             msg + detail::formatString("\n  at %s:%d", file, line));
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    // A fatal error can come from a job-pool worker (a malformed
    // switch is read where a System is built), where std::exit()
    // would run the shared pool's destructor and join the pool from
    // inside it. So exit without static destructors, and report only
    // the first fatal error when several workers hit it at once.
    static std::atomic<bool> exiting{false};
    if (exiting.exchange(true)) {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    emitLine("fatal",
             msg + detail::formatString("\n  at %s:%d", file, line));
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const std::string &msg)
{
    emitLine("warn", msg);
}

void
informImpl(const std::string &msg)
{
    emitLine("info", msg);
}

} // namespace detail
} // namespace remap
