#include "sim/snapshot.hh"

namespace remap::snap
{

void
writeHeader(Serializer &s, std::uint64_t config_hash,
            std::uint64_t boundary_cycle)
{
    s.bytes(magic, sizeof(magic));
    s.u32(formatVersion);
    s.u64(buildId());
    s.u64(config_hash);
    s.u64(boundary_cycle);
}

bool
readHeader(Deserializer &d, Header *out)
{
    std::uint8_t m[sizeof(magic)] = {};
    if (!d.bytes(m, sizeof(m)) ||
        std::memcmp(m, magic, sizeof(magic)) != 0) {
        d.fail("bad magic");
        return false;
    }
    out->version = d.u32();
    if (out->version != formatVersion) {
        d.fail("format version mismatch");
        return false;
    }
    out->buildId = d.u64();
    if (out->buildId != buildId()) {
        d.fail("build identity mismatch");
        return false;
    }
    out->configHash = d.u64();
    out->boundaryCycle = d.u64();
    return d.ok();
}

} // namespace remap::snap
