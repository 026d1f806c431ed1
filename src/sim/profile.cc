#include "sim/profile.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <string>

#include <unistd.h>

#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace remap::prof
{

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Other:
        return "other";
      case Phase::FetchDecode:
        return "fetch_decode";
      case Phase::IssueExecute:
        return "issue_execute";
      case Phase::WritebackCommit:
        return "writeback_commit";
      case Phase::CacheAccess:
        return "cache_access";
      case Phase::FabricTick:
        return "fabric_tick";
      case Phase::Barrier:
        return "barrier";
      case Phase::SleepCatchUp:
        return "sleep_catchup";
    }
    return "unknown";
}

bool
envEnabled()
{
    static const bool enabled = env::profile();
    return enabled;
}

namespace
{

/** This thread's samples since it started, per phase. Written only
 *  by the signal handler running on this thread. */
constinit thread_local std::atomic<std::uint64_t>
    threadSamples[kNumPhases];
/** The calling thread's sampling timer, valid while threadArmed. */
constinit thread_local timer_t threadTimer{};
constinit thread_local bool threadArmed = false;

std::atomic<std::uint64_t> processTotals[kNumPhases];

Samples
threadSnapshot()
{
    Samples s{};
    for (unsigned i = 0; i < kNumPhases; ++i)
        s[i] = threadSamples[i].load(std::memory_order_relaxed);
    return s;
}

void
onSample(int, siginfo_t *info, void *)
{
    const auto p = static_cast<unsigned>(currentPhase());
    threadSamples[p].fetch_add(
        1 + static_cast<std::uint64_t>(std::max(info->si_overrun, 0)),
        std::memory_order_relaxed);
}

int
sampleSignal()
{
    static const int signo = [] {
        const int s = SIGRTMIN;
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_sigaction = onSample;
        sa.sa_flags = SA_SIGINFO | SA_RESTART;
        sigemptyset(&sa.sa_mask);
        if (sigaction(s, &sa, nullptr) != 0)
            REMAP_FATAL("REMAP_PROFILE: sigaction: %s",
                        std::strerror(errno));
        return s;
    }();
    return signo;
}

} // namespace

ThreadSampler::ThreadSampler() : start_(threadSnapshot())
{
    if (threadArmed)
        return;
    sigevent sev;
    std::memset(&sev, 0, sizeof sev);
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = sampleSignal();
    sev._sigev_un._tid = gettid();
    const itimerspec period{{0, kSamplePeriodNs}, {0, kSamplePeriodNs}};
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &threadTimer) != 0 ||
        timer_settime(threadTimer, 0, &period, nullptr) != 0)
        REMAP_FATAL("REMAP_PROFILE: cannot arm the sampling timer: %s",
                    std::strerror(errno));
    owner_ = threadArmed = true;
}

ThreadSampler::~ThreadSampler()
{
    if (!owner_)
        return;
    timer_delete(threadTimer);
    threadArmed = false;
    const Samples s = samples();
    for (unsigned i = 0; i < kNumPhases; ++i)
        processTotals[i].fetch_add(s[i], std::memory_order_relaxed);
}

bool
ThreadSampler::armed()
{
    return threadArmed;
}

Samples
ThreadSampler::samples() const
{
    Samples s = threadSnapshot();
    for (unsigned i = 0; i < kNumPhases; ++i)
        s[i] -= start_[i];
    return s;
}

Samples
processSamples()
{
    Samples s{};
    for (unsigned i = 0; i < kNumPhases; ++i)
        s[i] = processTotals[i].load(std::memory_order_relaxed);
    return s;
}

void
dumpSamplesJson(json::Writer &w, const Samples &s)
{
    std::uint64_t total = 0;
    for (std::uint64_t n : s)
        total += n;
    w.beginObject();
    for (unsigned i = 0; i < kNumPhases; ++i) {
        w.key(phaseName(static_cast<Phase>(i)));
        w.beginObject();
        w.kv("samples", s[i]);
        w.kv("ms", static_cast<double>(s[i]) * kSampleMs);
        w.kv("fraction", total ? static_cast<double>(s[i]) / total : 0.0);
        w.endObject();
    }
    w.endObject();
}

namespace
{

std::map<std::string, void (*)(json::Writer &)> &
metaHooks()
{
    static std::map<std::string, void (*)(json::Writer &)> hooks;
    return hooks;
}

std::mutex &
hookMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

void
setMetaJsonHook(const char *key, void (*fn)(json::Writer &))
{
    std::lock_guard<std::mutex> lock(hookMutex());
    if (fn)
        metaHooks()[key] = fn;
    else
        metaHooks().erase(key);
}

void
dumpMetaHooks(json::Writer &w)
{
    std::lock_guard<std::mutex> lock(hookMutex());
    for (const auto &[key, fn] : metaHooks()) {
        w.key(key);
        fn(w);
    }
}

} // namespace remap::prof
