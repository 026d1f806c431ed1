#include "sim/profile.hh"

#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "sim/env.hh"
#include "sim/json.hh"

namespace remap::prof
{

const char *
phaseName(Phase p)
{
    switch (p) {
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
      case Phase::LeapScan:
        return "leap_scan";
      case Phase::SnapshotSave:
        return "snapshot_save";
      case Phase::SnapshotRestore:
        return "snapshot_restore";
      case Phase::JobDispatch:
        return "job_dispatch";
    }
    return "unknown";
}

bool
envEnabled()
{
    static const bool enabled = env::profile();
    return enabled;
}

void
Profiler::merge(const Profiler &other)
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        phases_[i].count += other.phases_[i].count.value();
        phases_[i].totalNs += other.phases_[i].totalNs.value();
        phases_[i].hist.merge(other.phases_[i].hist);
    }
}

void
Profiler::reset()
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        phases_[i].count.reset();
        phases_[i].totalNs.reset();
        phases_[i].hist.reset();
    }
}

void
Profiler::dumpJson(json::Writer &w) const
{
    w.beginObject();
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const PhaseStats &ps = phases_[i];
        if (ps.count.value() == 0)
            continue;
        w.key(phaseName(static_cast<Phase>(i)));
        w.beginObject();
        w.kv("count", ps.count.value());
        w.kv("total_ns", ps.totalNs.value());
        w.kv("p50_ns", ps.hist.p50());
        w.kv("p95_ns", ps.hist.p95());
        w.kv("p99_ns", ps.hist.p99());
        w.key("hist");
        ps.hist.dumpJson(w);
        w.endObject();
    }
    w.endObject();
}

void
Profiler::dump(std::ostream &os) const
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const PhaseStats &ps = phases_[i];
        if (ps.count.value() == 0)
            continue;
        os << "profile." << phaseName(static_cast<Phase>(i)) << " n="
           << ps.count.value() << " total_ms=" << totalMs(static_cast<Phase>(i))
           << " p50_ns=" << ps.hist.p50() << " p95_ns=" << ps.hist.p95()
           << " p99_ns=" << ps.hist.p99() << '\n';
    }
}

namespace
{

std::mutex &
processMutex()
{
    static std::mutex m;
    return m;
}

Profiler &
processProfiler()
{
    static Profiler p;
    return p;
}

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
mergeIntoProcess(const Profiler &p)
{
    std::lock_guard<std::mutex> lock(processMutex());
    processProfiler().merge(p);
}

void
recordProcess(Phase p, std::uint64_t ns)
{
    std::lock_guard<std::mutex> lock(processMutex());
    processProfiler().record(p, ns);
}

Profiler
processSnapshot()
{
    std::lock_guard<std::mutex> lock(processMutex());
    return processProfiler();
}

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
