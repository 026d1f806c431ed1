#include "harness/snapshot_cache.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim/env.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/snapshot.hh"

namespace remap::harness
{

namespace fs = std::filesystem;

SnapshotCache::SnapshotCache()
{
    capBytes_ = env::ckptMemBytes(std::size_t(256) * 1024 * 1024);
    setDiskDir(env::ckptDir());
    // Surface the process-wide cache in every System's stats "sim"
    // subtree (the hook indirection keeps the core library free of
    // harness dependencies).
    prof::setMetaJsonHook("snapshot_cache", [](json::Writer &w) {
        SnapshotCache::instance().dumpStatsJson(w);
    });
}

void
SnapshotCache::setDiskDir(const std::string &dir)
{
    std::string resolved;
    if (!dir.empty()) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            REMAP_WARN("snapshot cache: cannot create '%s' (%s); "
                       "disk persistence disabled",
                       dir.c_str(), ec.message().c_str());
        } else {
            resolved = dir;
        }
    }
    std::lock_guard lock(mu_);
    diskDir_ = resolved;
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

std::size_t
SnapshotCache::memoryCapBytes() const
{
    std::lock_guard lock(mu_);
    return capBytes_;
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

std::string
SnapshotCache::diskPath(const std::string &key) const
{
    if (diskDir_.empty()) {
        return {};
    }
    snap::Hasher h;
    h.str(key);
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.ckpt",
                  static_cast<unsigned long long>(h.value()));
    return (fs::path(diskDir_) / name).string();
}

SnapshotCache::Blob
SnapshotCache::lookup(const std::string &key,
                      std::uint64_t config_hash, Cycle *boundary_out)
{
    std::string disk_path;
    {
        std::lock_guard lock(mu_);
        if (!enabled_) {
            return nullptr;
        }
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.lastUse = ++useClock_;
            ++stats_.hits;
            if (boundary_out) {
                *boundary_out = it->second.boundary;
            }
            return it->second.blob;
        }
        disk_path = diskPath(key);
        if (disk_path.empty()) {
            ++stats_.misses;
            return nullptr;
        }
    }

    // Disk probe outside the lock: file I/O must not serialize the
    // parallel harness.
    std::ifstream in(disk_path, std::ios::binary);
    if (!in) {
        std::lock_guard lock(mu_);
        ++stats_.misses;
        return nullptr;
    }
    std::vector<std::uint8_t> data(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    in.close();

    snap::Deserializer d(data);
    snap::Header hdr;
    if (!snap::readHeader(d, &hdr) || hdr.configHash != config_hash) {
        REMAP_WARN("snapshot cache: ignoring stale/corrupt '%s' (%s)",
                   disk_path.c_str(),
                   d.ok() ? "config-hash mismatch" : d.error());
        std::lock_guard lock(mu_);
        ++stats_.rejected;
        ++stats_.misses;
        return nullptr;
    }

    auto blob = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(data));
    std::lock_guard lock(mu_);
    // Another thread may have stored a (possibly larger-boundary)
    // entry meanwhile; keep whichever boundary is larger.
    auto &e = entries_[key];
    if (e.blob && e.boundary >= hdr.boundaryCycle) {
        ++stats_.hits;
        ++stats_.diskLoads;
        e.lastUse = ++useClock_;
        if (boundary_out) {
            *boundary_out = e.boundary;
        }
        return e.blob;
    }
    if (e.blob) {
        bytes_ -= e.blob->size();
    } else {
        ++stats_.entries;
    }
    e.boundary = hdr.boundaryCycle;
    e.blob = blob;
    e.lastUse = ++useClock_;
    bytes_ += blob->size();
    stats_.bytes = bytes_;
    stats_.entries = entries_.size();
    ++stats_.hits;
    ++stats_.diskLoads;
    evictLocked();
    if (boundary_out) {
        *boundary_out = hdr.boundaryCycle;
    }
    return blob;
}

void
SnapshotCache::store(const std::string &key, std::uint64_t config_hash,
                     Cycle boundary, std::vector<std::uint8_t> blob)
{
    (void)config_hash; // embedded in the blob header by the saver
    auto shared = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(blob));
    std::string disk_path;
    {
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
        e.blob = shared;
        e.lastUse = ++useClock_;
        bytes_ += shared->size();
        ++stats_.stores;
        stats_.bytes = bytes_;
        stats_.entries = entries_.size();
        evictLocked();
        disk_path = diskPath(key);
    }
    if (disk_path.empty()) {
        return;
    }

    // Atomic publication: write to a private temp file, then rename.
    // Readers either see the complete new file or the old one; a
    // crash leaves at worst an orphaned .tmp. The temp name carries
    // the thread id so concurrent writers never collide.
    std::string tmp = disk_path + ".tmp" +
                      std::to_string(static_cast<unsigned long long>(
                          std::hash<std::thread::id>{}(
                              std::this_thread::get_id())));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            REMAP_WARN("snapshot cache: cannot write '%s'",
                       tmp.c_str());
            return;
        }
        out.write(reinterpret_cast<const char *>(shared->data()),
                  static_cast<std::streamsize>(shared->size()));
        if (!out) {
            REMAP_WARN("snapshot cache: short write to '%s'",
                       tmp.c_str());
            out.close();
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), disk_path.c_str()) != 0) {
        REMAP_WARN("snapshot cache: rename '%s' -> '%s' failed",
                   tmp.c_str(), disk_path.c_str());
        std::remove(tmp.c_str());
    }
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
    w.kv("disk_loads", st.diskLoads);
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
    if (st.diskLoads) {
        extra += ", " + std::to_string(st.diskLoads) + " from disk";
    }
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
