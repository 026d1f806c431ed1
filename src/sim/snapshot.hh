/**
 * @file
 * Versioned, dependency-free binary serialization for simulator
 * checkpoints (see DESIGN.md section 9).
 *
 * Every stateful component implements
 *
 *     void save(snap::Serializer &s) const;
 *     void restore(snap::Deserializer &d);
 *
 * Only *dynamic* state is serialized. Structure — configurations,
 * programs, SPL functions, thread creation and initial placement — is
 * rebuilt deterministically by re-running the workload factory, after
 * which restore() overwrites the dynamic state in place (the gem5 /
 * SESC checkpointing discipline). This keeps snapshots small, makes
 * the format independent of pointer identity, and lets a single
 * format version cover every component.
 *
 * Format rules:
 *  - little-endian, fixed-width integers; doubles as their bit
 *    pattern;
 *  - every component opens a section marker (a tag hash), so a
 *    corrupt or misaligned stream fails loudly at the next section
 *    instead of silently misreading;
 *  - unordered containers are serialized in sorted key order so the
 *    byte stream is deterministic (serialize(x) is a canonical form:
 *    two states that behave identically serialize identically);
 *  - Deserializer never throws and never reads past the end: any
 *    error sets a sticky failure flag, subsequent reads return
 *    zeros, and the caller checks ok() once at the end. Corrupt
 *    input must never be trusted: a blob is only ever produced by
 *    this process, but restore paths are fed truncated and
 *    bit-flipped blobs by the tests and must reject them cleanly.
 *
 * Versioning policy: formatVersion bumps on ANY layout change — there
 * are no per-section versions and no migration of old snapshots. A
 * snapshot is a pure cache of recomputable state held in memory for
 * one process, so a blob of another version is simply discarded
 * (SnapshotCache treats it as a miss).
 */

#ifndef REMAP_SIM_SNAPSHOT_HH
#define REMAP_SIM_SNAPSHOT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace remap::snap
{

/** Bump on any serialized-layout change (see versioning policy). */
inline constexpr std::uint32_t formatVersion = 9;

/** Leading magic of every snapshot blob/file. */
inline constexpr std::uint8_t magic[8] = {'R', 'M', 'A', 'P',
                                          'C', 'K', 'P', 'T'};

/** FNV-1a 64-bit hasher used for config-hashes and section tags. */
class Hasher
{
  public:
    static constexpr std::uint64_t offsetBasis =
        0xcbf29ce484222325ULL;
    static constexpr std::uint64_t prime = 0x100000001b3ULL;

    /** Mix raw bytes. */
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= prime;
        }
    }

    /** Mix one 64-bit value (canonical little-endian bytes). */
    void
    u64(std::uint64_t v)
    {
        std::uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = std::uint8_t(v >> (8 * i));
        bytes(buf, 8);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void u32(std::uint32_t v) { u64(v); }
    void boolean(bool v) { u64(v ? 1 : 0); }

    /** Mix a double's bit pattern. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    /** Mix a length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Current digest. */
    std::uint64_t value() const { return h_; }

    /** One-shot hash of a C string (for section tags). */
    static std::uint64_t
    of(const char *s)
    {
        Hasher h;
        h.bytes(s, std::strlen(s));
        return h.value();
    }

  private:
    std::uint64_t h_ = offsetBasis;
};

/** Append-only little-endian binary writer. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** Open a named section: writes the tag hash as a sync marker. */
    void section(const char *tag) { u64(Hasher::of(tag)); }

    /** The serialized bytes so far. */
    const std::vector<std::uint8_t> &buffer() const { return buf_; }
    /** Move the serialized bytes out. */
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    /** Bytes written so far. */
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked little-endian reader over an untrusted byte range.
 * Never throws; failures are sticky and reads-after-failure return
 * zero. Check ok() (and optionally atEnd()) after restoring.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    bool boolean() { return u8() != 0; }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }

    bool
    bytes(void *out, std::size_t n)
    {
        if (!need(n)) {
            std::memset(out, 0, n);
            return false;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      n);
        pos_ += n;
        return s;
    }

    /**
     * Read a container size that the caller will then loop over.
     * Guards against a corrupt huge count by checking that at least
     * @p min_elem_bytes * count bytes remain, so a flipped length
     * byte cannot drive an attacker-sized allocation or a
     * billion-iteration loop.
     */
    std::uint32_t
    count(std::size_t min_elem_bytes = 1)
    {
        const std::uint32_t n = u32();
        if (failed_)
            return 0;
        if (min_elem_bytes > 0 &&
            n > (size_ - pos_) / min_elem_bytes) {
            fail("implausible element count");
            return 0;
        }
        return n;
    }

    /** Consume and verify a section marker written by
     *  Serializer::section(). Mismatch fails the whole restore. */
    bool
    section(const char *tag)
    {
        const std::uint64_t want = Hasher::of(tag);
        if (u64() != want && !failed_)
            fail(tag);
        return !failed_;
    }

    /** Mark the stream as corrupt: all subsequent reads return 0. */
    void
    fail(const char *why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
            errorPos_ = pos_;
        }
    }

    /** True while no failure has been recorded. */
    bool ok() const { return !failed_; }
    /** The first recorded failure reason (empty when ok). */
    const char *error() const { return failed_ ? error_ : ""; }
    /** Byte offset of the first failure. */
    std::size_t errorPos() const { return errorPos_; }
    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == size_; }
    /** Bytes not yet consumed. */
    std::size_t remaining() const { return size_ - pos_; }

  private:
    bool
    need(std::size_t n)
    {
        if (failed_)
            return false;
        if (size_ - pos_ < n) {
            fail("truncated stream");
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    const char *error_ = "";
    std::size_t errorPos_ = 0;
};

/**
 * Prepend the snapshot container header to @p s:
 * magic, format version, config-hash, boundary cycle. readHeader() is the load-side gate — corrupt or stale blobs
 * are rejected there and never reach component restore code.
 */
void writeHeader(Serializer &s, std::uint64_t config_hash,
                 std::uint64_t boundary_cycle);

/** Parsed snapshot container header. */
struct Header
{
    std::uint32_t version = 0;
    std::uint64_t configHash = 0;
    std::uint64_t boundaryCycle = 0;
};

/**
 * Validate magic and version and parse the header.
 * @return false (with @p d failed) on any mismatch; the caller
 * treats that as a cache miss, never as an error.
 */
bool readHeader(Deserializer &d, Header *out);

} // namespace remap::snap

#endif // REMAP_SIM_SNAPSHOT_HH
