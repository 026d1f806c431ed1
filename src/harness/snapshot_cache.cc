#include "harness/snapshot_cache.hh"

#include <cstdio>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"

namespace remap::harness
{

SnapshotCache::SnapshotCache()
{
    // Surface the process-wide cache in every System's stats "sim"
    // subtree (the hook indirection keeps the core library free of
    // harness dependencies).
    prof::setMetaJsonHook("snapshot_cache", [](json::Writer &w) {
        SnapshotCache::instance().dumpStatsJson(w);
    });
}

SnapshotCache &
SnapshotCache::instance()
{
    static SnapshotCache cache;
    return cache;
}

void
SnapshotCache::setEnabled(bool on)
{
    std::lock_guard lock(mu_);
    enabled_ = on;
}

bool
SnapshotCache::enabled() const
{
    std::lock_guard lock(mu_);
    return enabled_;
}

void
SnapshotCache::setMemoryCapBytes(std::size_t cap)
{
    std::lock_guard lock(mu_);
    capBytes_ = cap;
    evictLocked();
}

void
SnapshotCache::clear()
{
    std::lock_guard lock(mu_);
    entries_.clear();
    bytes_ = 0;
    stats_.bytes = 0;
    stats_.entries = 0;
}

std::string
SnapshotCache::makeKey(const std::string &workload,
                       const workloads::RunSpec &spec,
                       std::uint64_t config_hash)
{
    // Human-readable on purpose: the key doubles as the log/debug
    // identity of a cached run. The config-hash already covers every
    // structural parameter, but the spec fields keep distinct sweep
    // points distinct even if a hash collision ever occurred.
    char buf[224];
    const int len =
        std::snprintf(buf, sizeof(buf), "%s/%s/n%u/t%u/c%u/i%u",
                      workload.c_str(),
                      workloads::variantName(spec.variant),
                      spec.problemSize, spec.threads, spec.copies,
                      spec.iterations);
    if (len > 0 && len < static_cast<int>(sizeof(buf))) {
        std::snprintf(buf + len, sizeof(buf) - len, "/%016llx",
                      static_cast<unsigned long long>(config_hash));
    }
    return buf;
}

SnapshotCache::Blob
SnapshotCache::lookup(const std::string &key,
                      std::uint64_t config_hash, Cycle *boundary_out)
{
    (void)config_hash; // checked against the blob header by the caller
    std::lock_guard lock(mu_);
    if (!enabled_) {
        return nullptr;
    }
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    it->second.lastUse = ++useClock_;
    ++stats_.hits;
    if (boundary_out) {
        *boundary_out = it->second.boundary;
    }
    return it->second.blob;
}

void
SnapshotCache::store(const std::string &key, std::uint64_t config_hash,
                     Cycle boundary, std::vector<std::uint8_t> blob)
{
    (void)config_hash; // embedded in the blob header by the saver
    auto shared = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(blob));
    std::lock_guard lock(mu_);
    if (!enabled_) {
        return;
    }
    auto &e = entries_[key];
    if (e.blob && e.boundary >= boundary) {
        // A concurrent run already stored at least as much warmup
        // for this key; largest boundary wins.
        return;
    }
    if (e.blob) {
        bytes_ -= e.blob->size();
    }
    e.boundary = boundary;
    e.blob = std::move(shared);
    e.lastUse = ++useClock_;
    bytes_ += e.blob->size();
    ++stats_.stores;
    evictLocked();
}

void
SnapshotCache::reject(const std::string &key)
{
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= it->second.blob ? it->second.blob->size() : 0;
        entries_.erase(it);
    }
    ++stats_.rejected;
    stats_.bytes = bytes_;
    stats_.entries = entries_.size();
}

void
SnapshotCache::evictLocked()
{
    while (bytes_ > capBytes_ && entries_.size() > 1) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->second.lastUse < victim->second.lastUse) {
                victim = it;
            }
        }
        bytes_ -= victim->second.blob ? victim->second.blob->size() : 0;
        ++stats_.evictions;
        entries_.erase(victim);
    }
    stats_.bytes = bytes_;
    stats_.entries = entries_.size();
}

SnapshotCache::Stats
SnapshotCache::stats() const
{
    std::lock_guard lock(mu_);
    return stats_;
}

void
SnapshotCache::dumpStatsJson(json::Writer &w) const
{
    Stats st = stats();
    w.beginObject();
    w.kv("hits", st.hits);
    w.kv("misses", st.misses);
    w.kv("stores", st.stores);
    w.kv("rejected", st.rejected);
    w.kv("evictions", st.evictions);
    w.kv("bytes", static_cast<std::uint64_t>(st.bytes));
    w.kv("entries", static_cast<std::uint64_t>(st.entries));
    w.endObject();
}

std::string
SnapshotCache::summary() const
{
    Stats st = stats();
    std::string extra;
    if (st.rejected) {
        extra += ", " + std::to_string(st.rejected) + " rejected";
    }
    if (st.evictions) {
        extra += ", " + std::to_string(st.evictions) + " evicted";
    }
    char buf[224];
    std::snprintf(
        buf, sizeof(buf),
        "%llu hits, %llu misses, %llu entries stored "
        "(%zu resident, %.1f MB)%s",
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses),
        static_cast<unsigned long long>(st.stores), st.entries,
        static_cast<double>(st.bytes) / (1024.0 * 1024.0),
        extra.c_str());
    return buf;
}

void
printSnapshotCacheSummary()
{
    auto st = SnapshotCache::instance().stats();
    if (st.hits + st.misses + st.stores == 0) {
        return;
    }
    REMAP_INFORM("snapshot cache: %s",
                 SnapshotCache::instance().summary().c_str());
}

} // namespace remap::harness
