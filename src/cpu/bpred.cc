#include "cpu/bpred.hh"

namespace remap::cpu
{

BranchPredictor::BranchPredictor(const BPredParams &params)
    : params_(params),
      gshare_(params.gshareEntries, 1),
      bimodal_(params.bimodalEntries, 1),
      chooser_(params.chooserEntries, 2),
      btb_(params.btbEntries)
{
}

std::size_t
BranchPredictor::gshareIndex(std::uint64_t pc) const
{
    std::uint64_t mask = (1ULL << params_.historyBits) - 1;
    return ((pc >> 2) ^ (history_ & mask)) % gshare_.size();
}

std::size_t
BranchPredictor::bimodalIndex(std::uint64_t pc) const
{
    return (pc >> 2) % bimodal_.size();
}

std::size_t
BranchPredictor::chooserIndex(std::uint64_t pc) const
{
    return (pc >> 2) % chooser_.size();
}

bool
BranchPredictor::predict(std::uint64_t pc, bool *btb_hit)
{
    ++lookups;
    bool use_gshare = counterTaken(chooser_[chooserIndex(pc)]);
    bool taken = use_gshare
                     ? counterTaken(gshare_[gshareIndex(pc)])
                     : counterTaken(bimodal_[bimodalIndex(pc)]);
    const BtbEntry &e = btb_[(pc >> 2) % btb_.size()];
    *btb_hit = (e.pc == pc);
    if (taken && !*btb_hit)
        ++btbMisses;
    return taken;
}

void
BranchPredictor::update(std::uint64_t pc, bool taken,
                        std::uint64_t target)
{
    bool g = counterTaken(gshare_[gshareIndex(pc)]);
    bool b = counterTaken(bimodal_[bimodalIndex(pc)]);
    if (g != b)
        counterTrain(chooser_[chooserIndex(pc)], g == taken);
    counterTrain(gshare_[gshareIndex(pc)], taken);
    counterTrain(bimodal_[bimodalIndex(pc)], taken);
    history_ = (history_ << 1) | (taken ? 1 : 0);
    if (taken) {
        BtbEntry &e = btb_[(pc >> 2) % btb_.size()];
        e.pc = pc;
        e.target = target;
    }
}

namespace
{

void
saveTable(snap::Serializer &s, const std::vector<std::uint8_t> &t)
{
    s.u32(static_cast<std::uint32_t>(t.size()));
    s.bytes(t.data(), t.size());
}

bool
restoreTable(snap::Deserializer &d, std::vector<std::uint8_t> &t)
{
    if (d.count() != t.size()) {
        d.fail("predictor table size mismatch");
        return false;
    }
    return d.bytes(t.data(), t.size());
}

} // namespace

void
BranchPredictor::save(snap::Serializer &s) const
{
    s.section("bpred");
    saveTable(s, gshare_);
    saveTable(s, bimodal_);
    saveTable(s, chooser_);
    s.u32(static_cast<std::uint32_t>(btb_.size()));
    for (const BtbEntry &e : btb_) {
        s.u64(e.pc);
        s.u64(e.target);
    }
    s.u64(history_);
}

void
BranchPredictor::restore(snap::Deserializer &d)
{
    if (!d.section("bpred"))
        return;
    if (!restoreTable(d, gshare_) || !restoreTable(d, bimodal_) ||
        !restoreTable(d, chooser_))
        return;
    if (d.count(16) != btb_.size()) {
        d.fail("btb size mismatch");
        return;
    }
    for (BtbEntry &e : btb_) {
        e.pc = d.u64();
        e.target = d.u64();
    }
    history_ = d.u64();
}

} // namespace remap::cpu
