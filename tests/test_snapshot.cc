/** @file Tests for the snapshot subsystem: serializer/deserializer
 *  format guarantees, per-component save/restore round trips
 *  (randomized via the deterministic Rng), corrupt/truncated/
 *  version/build-mismatch rejection, SnapshotCache semantics
 *  (boundary ordering, LRU cap, disk persistence validation) and
 *  runRegion's final-result entries. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/system.hh"
#include "cpu/bpred.hh"
#include "harness/experiment.hh"
#include "harness/snapshot_cache.hh"
#include "mem/mem_system.hh"
#include "mem/memory_image.hh"
#include "sim/rng.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

#include "result_fields.hh"

namespace remap
{
namespace
{

using harness::SnapshotCache;

/** Serialize any component exposing save() into a byte vector. */
template <typename T>
std::vector<std::uint8_t>
serialized(const T &obj)
{
    snap::Serializer s;
    obj.save(s);
    return s.take();
}

TEST(SnapshotFormat, PrimitivesRoundTrip)
{
    snap::Serializer s;
    s.u8(0xab);
    s.u32(0xdeadbeefu);
    s.u64(0x0123456789abcdefULL);
    s.i64(-42);
    s.i32(-7);
    s.boolean(true);
    s.f64(3.5e-9);
    s.str("hello");
    s.section("tag");

    snap::Deserializer d(s.buffer());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.i64(), -42);
    EXPECT_EQ(d.i32(), -7);
    EXPECT_TRUE(d.boolean());
    EXPECT_EQ(d.f64(), 3.5e-9);
    EXPECT_EQ(d.str(), "hello");
    EXPECT_TRUE(d.section("tag"));
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.atEnd());
}

TEST(SnapshotFormat, TruncationIsStickyAndReadsZero)
{
    snap::Serializer s;
    s.u64(7);
    auto buf = s.take();
    buf.resize(4); // cut the u64 in half

    snap::Deserializer d(buf);
    EXPECT_EQ(d.u64(), 0u);
    EXPECT_FALSE(d.ok());
    EXPECT_STREQ(d.error(), "truncated stream");
    // Sticky: later reads keep returning zero, never touch memory.
    EXPECT_EQ(d.u32(), 0u);
    EXPECT_EQ(d.str(), "");
}

TEST(SnapshotFormat, SectionMismatchFails)
{
    snap::Serializer s;
    s.section("cache");
    snap::Deserializer d(s.buffer());
    EXPECT_FALSE(d.section("core"));
    EXPECT_FALSE(d.ok());
}

TEST(SnapshotFormat, CountRejectsImplausibleLength)
{
    snap::Serializer s;
    s.u32(0xffffffffu); // claims 4 billion elements...
    s.u64(1);           // ...but only 8 bytes follow
    snap::Deserializer d(s.buffer());
    EXPECT_EQ(d.count(8), 0u);
    EXPECT_FALSE(d.ok());
    EXPECT_STREQ(d.error(), "implausible element count");
}

TEST(SnapshotHeader, RoundTrip)
{
    snap::Serializer s;
    snap::writeHeader(s, 0x1122334455667788ULL, 16384);
    snap::Deserializer d(s.buffer());
    snap::Header h;
    ASSERT_TRUE(snap::readHeader(d, &h));
    EXPECT_EQ(h.version, snap::formatVersion);
    EXPECT_EQ(h.configHash, 0x1122334455667788ULL);
    EXPECT_EQ(h.boundaryCycle, 16384u);
}

TEST(SnapshotHeader, BadMagicRejected)
{
    snap::Serializer s;
    snap::writeHeader(s, 1, 2);
    auto buf = s.take();
    buf[0] ^= 0xff;
    snap::Deserializer d(buf);
    snap::Header h;
    EXPECT_FALSE(snap::readHeader(d, &h));
    EXPECT_FALSE(d.ok());
}

TEST(SnapshotHeader, VersionMismatchRejected)
{
    snap::Serializer s;
    snap::writeHeader(s, 1, 2);
    auto buf = s.take();
    buf[8] ^= 0x01; // version field follows the 8-byte magic
    snap::Deserializer d(buf);
    snap::Header h;
    EXPECT_FALSE(snap::readHeader(d, &h));
}

TEST(SnapshotHeader, BuildIdentityMismatchRejected)
{
    // A blob from another simulator build may share the layout and
    // the config hash, yet describe another model's behaviour.
    snap::Serializer s;
    snap::writeHeader(s, 1, 2);
    auto buf = s.take();
    buf[12] ^= 0x01; // build identity follows magic + version
    snap::Deserializer d(buf);
    snap::Header h;
    EXPECT_FALSE(snap::readHeader(d, &h));
    EXPECT_STREQ(d.error(), "build identity mismatch");
}

TEST(SnapshotHeader, TruncatedRejected)
{
    snap::Serializer s;
    snap::writeHeader(s, 1, 2);
    auto buf = s.take();
    buf.resize(10);
    snap::Deserializer d(buf);
    snap::Header h;
    EXPECT_FALSE(snap::readHeader(d, &h));
}

TEST(SnapshotRng, RoundTripContinuesIdentically)
{
    Rng a(12345);
    for (int i = 0; i < 100; ++i)
        a.next();
    const auto blob = serialized(a);

    Rng b; // different seed, state fully overwritten by restore
    snap::Deserializer d(blob);
    b.restore(d);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotImage, RoundTripIsCanonical)
{
    // Same contents written in different orders must serialize to
    // the same bytes (pages are sorted), and restore must reproduce
    // them exactly.
    mem::MemoryImage a, b;
    Rng rng(7);
    std::vector<std::pair<Addr, std::int64_t>> writes;
    for (int i = 0; i < 200; ++i)
        writes.emplace_back(rng.below(1 << 20) * 8,
                            static_cast<std::int64_t>(rng.next()));
    for (const auto &[addr, v] : writes)
        a.writeI64(addr, v);
    for (auto it = writes.rbegin(); it != writes.rend(); ++it)
        b.writeI64(it->first, it->second);
    EXPECT_EQ(serialized(a), serialized(b));

    mem::MemoryImage c;
    const auto blob = serialized(a);
    snap::Deserializer d(blob);
    c.restore(d);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(serialized(c), blob);
    for (const auto &[addr, v] : writes)
        EXPECT_EQ(c.readI64(addr), a.readI64(addr));
}

TEST(SnapshotImage, TruncatedRestoreRejectedAtomically)
{
    mem::MemoryImage a;
    a.writeI64(0x1000, 42);
    auto blob = serialized(a);
    blob.resize(blob.size() - 100);

    mem::MemoryImage c;
    c.writeI64(0x2000, 7);
    snap::Deserializer d(blob);
    c.restore(d);
    EXPECT_FALSE(d.ok());
    // Nothing applied: the pre-restore contents survive.
    EXPECT_EQ(c.readI64(0x2000), 7);
}

TEST(SnapshotBpred, RoundTripPredictsIdentically)
{
    cpu::BranchPredictor a;
    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t pc = rng.below(4096) * 4;
        a.update(pc, rng.below(3) != 0, pc + 8 + rng.below(64) * 4);
    }
    const auto blob = serialized(a);

    cpu::BranchPredictor b;
    snap::Deserializer d(blob);
    b.restore(d);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(serialized(b), blob);

    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t pc = rng.below(4096) * 4;
        bool hit_a = false, hit_b = false;
        EXPECT_EQ(a.predict(pc, &hit_a), b.predict(pc, &hit_b));
        EXPECT_EQ(hit_a, hit_b);
    }
}

TEST(SnapshotBpred, GeometryMismatchRejected)
{
    cpu::BranchPredictor a;
    const auto blob = serialized(a);
    cpu::BPredParams small;
    small.gshareEntries = 16;
    cpu::BranchPredictor b(small);
    snap::Deserializer d(blob);
    b.restore(d);
    EXPECT_FALSE(d.ok());
}

TEST(SnapshotMemSystem, RoundTripTimesIdentically)
{
    mem::MemSystem a(2);
    Rng rng(3);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(1 << 14) * 8;
        now = a.access(static_cast<CoreId>(rng.below(2)), addr,
                       rng.below(2) ? mem::AccessKind::Read
                                    : mem::AccessKind::Write,
                       now);
    }
    const auto blob = serialized(a);

    mem::MemSystem b(2);
    snap::Deserializer d(blob);
    b.restore(d);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(serialized(b), blob);

    // Identical state must produce identical timing from here on.
    Cycle now_a = now, now_b = now;
    for (int i = 0; i < 500; ++i) {
        const Addr addr = rng.below(1 << 14) * 8;
        const auto kind = rng.below(2) ? mem::AccessKind::Read
                                       : mem::AccessKind::Write;
        const auto core = static_cast<CoreId>(rng.below(2));
        now_a = a.access(core, addr, kind, now_a);
        now_b = b.access(core, addr, kind, now_b);
        EXPECT_EQ(now_a, now_b);
    }
}

TEST(SnapshotMemSystem, CoreCountMismatchRejected)
{
    mem::MemSystem a(2);
    const auto blob = serialized(a);
    mem::MemSystem b(4);
    snap::Deserializer d(blob);
    b.restore(d);
    EXPECT_FALSE(d.ok());
}

/** Factory + spec for the mid-run System tests: a barrier workload
 *  exercises cores, caches, the fabric and the barrier unit. */
workloads::PreparedRun
makeBarrierRun()
{
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 32;
    spec.threads = 8;
    return workloads::byName("ll2").make(spec);
}

std::string
statsJson(sys::System &system)
{
    std::ostringstream os;
    system.dumpStatsJson(os, /*include_sim=*/false);
    return os.str();
}

TEST(SnapshotSystem, MidRunRoundTripIsBitIdentical)
{
    // Learn the total run length first.
    auto probe = makeBarrierRun();
    const Cycle total = probe.run().cycles;
    ASSERT_GT(total, 4000u) << "workload too short for a mid-run "
                               "snapshot test";

    // Run A halfway and snapshot it.
    auto a = makeBarrierRun();
    auto seg = a.system->runSegment(total / 2);
    ASSERT_TRUE(seg.timedOut);
    snap::Serializer s;
    a.system->save(s);
    const auto blob = s.take();

    // Restore into a fresh structurally identical system.
    auto b = makeBarrierRun();
    ASSERT_EQ(a.system->configHash(), b.system->configHash());
    snap::Deserializer d(blob);
    b.system->restore(d);
    ASSERT_TRUE(d.ok()) << d.error();

    // Canonical form: re-serializing the restored system yields the
    // exact bytes of the original snapshot.
    snap::Serializer s2;
    b.system->save(s2);
    EXPECT_EQ(s2.buffer(), blob);

    // Both finish at the same cycle with identical stats and verify.
    auto ra = a.system->runSegment(4 * total);
    auto rb = b.system->runSegment(4 * total);
    EXPECT_FALSE(ra.timedOut);
    EXPECT_FALSE(rb.timedOut);
    EXPECT_EQ(a.system->now(), b.system->now());
    EXPECT_EQ(a.system->now(), total);
    EXPECT_EQ(statsJson(*a.system), statsJson(*b.system));
    EXPECT_TRUE(a.verify());
    EXPECT_TRUE(b.verify());
}

TEST(SnapshotSystem, CorruptBlobRejected)
{
    auto a = makeBarrierRun();
    a.system->runSegment(2000);
    snap::Serializer s;
    a.system->save(s);
    auto blob = s.take();

    // Flip a byte of the leading "system" section marker.
    blob[4] ^= 0x20;
    auto b = makeBarrierRun();
    snap::Deserializer d(blob);
    b.system->restore(d);
    EXPECT_FALSE(d.ok());

    // Truncation anywhere is also fatal.
    snap::Serializer s2;
    a.system->save(s2);
    auto short_blob = s2.take();
    short_blob.resize(short_blob.size() / 2);
    auto c = makeBarrierRun();
    snap::Deserializer d2(short_blob);
    c.system->restore(d2);
    EXPECT_FALSE(d2.ok());
}

TEST(SnapshotSystem, ConfigHashSeparatesConfigurations)
{
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 32;
    spec.threads = 8;
    const auto &info = workloads::byName("ll2");
    const auto h1 = info.make(spec).system->configHash();
    const auto h1_again = info.make(spec).system->configHash();
    EXPECT_EQ(h1, h1_again);

    spec.problemSize = 64;
    EXPECT_NE(info.make(spec).system->configHash(), h1);
    spec.problemSize = 32;
    spec.variant = workloads::Variant::SwBarrier;
    EXPECT_NE(info.make(spec).system->configHash(), h1);
}

/** RAII guard: every cache test leaves the process-wide cache in its
 *  default state (enabled, empty, no disk dir). */
struct CacheGuard
{
    CacheGuard()
    {
        auto &c = SnapshotCache::instance();
        c.setEnabled(true);
        c.clear();
    }
    ~CacheGuard()
    {
        auto &c = SnapshotCache::instance();
        c.setDiskDir("");
        c.setMemoryCapBytes(std::size_t(256) * 1024 * 1024);
        c.setEnabled(true);
        c.clear();
    }
};

std::vector<std::uint8_t>
headeredBlob(std::uint64_t hash, Cycle boundary, std::size_t pad = 64)
{
    snap::Serializer s;
    snap::writeHeader(s, hash, boundary);
    for (std::size_t i = 0; i < pad; ++i)
        s.u8(static_cast<std::uint8_t>(i));
    return s.take();
}

TEST(SnapshotCacheTest, StoreKeepsLargestBoundary)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    c.store("k", 1, 4096, headeredBlob(1, 4096));
    c.store("k", 1, 16384, headeredBlob(1, 16384));
    c.store("k", 1, 8192, headeredBlob(1, 8192)); // smaller: ignored
    Cycle boundary = 0;
    auto blob = c.lookup("k", 1, &boundary);
    ASSERT_TRUE(blob);
    EXPECT_EQ(boundary, 16384u);
}

TEST(SnapshotCacheTest, DisabledLookupAlwaysMisses)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    c.store("k", 1, 4096, headeredBlob(1, 4096));
    c.setEnabled(false);
    Cycle boundary = 0;
    EXPECT_FALSE(c.lookup("k", 1, &boundary));
    c.setEnabled(true);
    EXPECT_TRUE(c.lookup("k", 1, &boundary));
}

TEST(SnapshotCacheTest, RejectDropsEntry)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    c.store("k", 1, 4096, headeredBlob(1, 4096));
    c.reject("k");
    Cycle boundary = 0;
    EXPECT_FALSE(c.lookup("k", 1, &boundary));
    EXPECT_GE(c.stats().rejected, 1u);
}

TEST(SnapshotCacheTest, MakeKeySeparatesSpecs)
{
    workloads::RunSpec a, b;
    a.variant = b.variant = workloads::Variant::HwBarrier;
    a.problemSize = 32;
    b.problemSize = 64;
    EXPECT_NE(SnapshotCache::makeKey("ll2", a, 1),
              SnapshotCache::makeKey("ll2", b, 1));
    EXPECT_NE(SnapshotCache::makeKey("ll2", a, 1),
              SnapshotCache::makeKey("ll6", a, 1));
    EXPECT_NE(SnapshotCache::makeKey("ll2", a, 1),
              SnapshotCache::makeKey("ll2", a, 2));
    EXPECT_EQ(SnapshotCache::makeKey("ll2", a, 1),
              SnapshotCache::makeKey("ll2", a, 1));
}

TEST(SnapshotCacheTest, MemoryCapEvictsLeastRecentlyUsed)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    c.setMemoryCapBytes(3 * 1024);
    c.store("a", 1, 4096, headeredBlob(1, 4096, 1024));
    c.store("b", 1, 4096, headeredBlob(1, 4096, 1024));
    Cycle boundary = 0;
    EXPECT_TRUE(c.lookup("b", 1, &boundary)); // refresh b
    EXPECT_TRUE(c.lookup("a", 1, &boundary)); // a is now most recent
    c.store("c", 1, 4096, headeredBlob(1, 4096, 1024));
    c.store("d", 1, 4096, headeredBlob(1, 4096, 1024));
    EXPECT_GE(c.stats().evictions, 1u);
    EXPECT_LE(c.stats().bytes, 3u * 1024u);
}

TEST(SnapshotCacheTest, DiskPersistenceValidatesHeader)
{
    CacheGuard guard;
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "remap_ckpt_test";
    fs::remove_all(dir);

    auto &c = SnapshotCache::instance();
    c.setDiskDir(dir.string());
    c.store("k", 42, 4096, headeredBlob(42, 4096));
    ASSERT_FALSE(fs::is_empty(dir));

    // A fresh in-memory cache must find it on disk...
    c.clear();
    Cycle boundary = 0;
    auto blob = c.lookup("k", 42, &boundary);
    ASSERT_TRUE(blob);
    EXPECT_EQ(boundary, 4096u);
    EXPECT_GE(c.stats().diskLoads, 1u);

    // ...but never trust a config-hash mismatch (stale snapshot)...
    c.clear();
    EXPECT_FALSE(c.lookup("k", 43, &boundary));

    // ...or a corrupted file.
    c.clear();
    for (const auto &entry : fs::directory_iterator(dir)) {
        std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                         std::ios::binary);
        f.seekp(0);
        f.put('X');
    }
    EXPECT_FALSE(c.lookup("k", 42, &boundary));
    EXPECT_GE(c.stats().rejected, 1u);

    fs::remove_all(dir);
}

/** The small region the result-entry tests run. */
workloads::RunSpec
resultEntrySpec()
{
    workloads::RunSpec spec;
    spec.variant = workloads::Variant::HwBarrier;
    spec.problemSize = 32;
    spec.threads = 8;
    return spec;
}

TEST(RunRegionResultEntry, SecondRunIsServedAndBitIdentical)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    const auto spec = resultEntrySpec();

    const SnapshotCache::Stats before = c.stats();

    const auto cold = harness::runRegion(info, spec, model);
    EXPECT_FALSE(cold.warmStarted);
    EXPECT_NE(cold.configHash, 0u);
    // One entry per exact run: the final result, no snapshots.
    EXPECT_EQ(c.stats().stores, before.stores + 1);
    EXPECT_EQ(c.stats().misses, before.misses + 1);

    const auto served = harness::runRegion(info, spec, model);
    EXPECT_TRUE(served.warmStarted);
    EXPECT_EQ(served.snapshotBoundary, served.cycles);
    EXPECT_EQ(c.stats().hits, before.hits + 1);
    EXPECT_EQ(c.stats().stores, before.stores + 1);
    expectSameResult(served, cold);
}

/** A fresh REMAP_CKPT-style directory, removed on scope exit. */
struct DiskDir
{
    std::filesystem::path path;
    explicit DiskDir(const char *name)
        : path(std::filesystem::temp_directory_path() / name)
    {
        std::filesystem::remove_all(path);
        SnapshotCache::instance().setDiskDir(path.string());
    }
    ~DiskDir() { std::filesystem::remove_all(path); }

    /** The single entry file the directory holds. */
    std::filesystem::path
    onlyFile() const
    {
        std::vector<std::filesystem::path> files;
        for (const auto &e : std::filesystem::directory_iterator(path))
            files.push_back(e.path());
        EXPECT_EQ(files.size(), 1u);
        return files.empty() ? std::filesystem::path() : files[0];
    }
};

TEST(RunRegionResultEntry, RoundTripsThroughDiskDir)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    const auto spec = resultEntrySpec();
    DiskDir dir("remap_result_entry_disk");
    const auto cold = harness::runRegion(info, spec, model);
    ASSERT_FALSE(cold.warmStarted);
    ASSERT_FALSE(dir.onlyFile().empty());

    // A fresh in-memory cache (another process) is served from disk.
    c.clear();
    const std::uint64_t loads = c.stats().diskLoads;
    const auto served = harness::runRegion(info, spec, model);
    EXPECT_TRUE(served.warmStarted);
    EXPECT_EQ(c.stats().diskLoads, loads + 1);
    expectSameResult(served, cold);
}

TEST(RunRegionResultEntry, TruncatedFileIsRejectedAndResimulated)
{
    CacheGuard guard;
    auto &c = SnapshotCache::instance();
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    const auto spec = resultEntrySpec();
    DiskDir dir("remap_result_entry_truncated");
    c.clear();
    const auto cold = harness::runRegion(info, spec, model);
    const std::filesystem::path file = dir.onlyFile();
    // Cut into the last field: the header still validates, the
    // payload does not parse.
    std::filesystem::resize_file(file,
                                 std::filesystem::file_size(file) - 4);
    c.clear();
    const std::uint64_t rejected = c.stats().rejected;
    testing::internal::CaptureStderr();
    const auto rerun = harness::runRegion(info, spec, model);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("ignoring bad result entry"),
              std::string::npos)
        << err;
    EXPECT_EQ(c.stats().rejected, rejected + 1);
    EXPECT_FALSE(rerun.warmStarted);
    expectSameResult(rerun, cold);

    // The re-simulated run replaced the file with a good entry.
    c.clear();
    const auto served = harness::runRegion(info, spec, model);
    EXPECT_TRUE(served.warmStarted);
    expectSameResult(served, cold);
}

TEST(RunRegionResultEntry, OtherBuildIdentityIsRejected)
{
    CacheGuard guard;
    DiskDir dir("remap_result_entry_build");
    auto &c = SnapshotCache::instance();
    power::EnergyModel model;
    const auto &info = workloads::byName("ll2");
    const auto spec = resultEntrySpec();

    const auto cold = harness::runRegion(info, spec, model);
    {
        // Rewrite the header's build identity (after the 8-byte
        // magic and 4-byte version), as another build would have.
        std::fstream f(dir.onlyFile(), std::ios::in | std::ios::out |
                                           std::ios::binary);
        f.seekg(12);
        const int byte = f.get();
        f.seekp(12);
        f.put(static_cast<char>(byte ^ 0x01));
    }
    c.clear();
    const std::uint64_t rejected = c.stats().rejected;
    testing::internal::CaptureStderr();
    const auto rerun = harness::runRegion(info, spec, model);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("build identity mismatch"), std::string::npos)
        << err;
    EXPECT_EQ(c.stats().rejected, rejected + 1);
    EXPECT_FALSE(rerun.warmStarted);
    expectSameResult(rerun, cold);
}

} // namespace
} // namespace remap
