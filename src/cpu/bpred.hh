/**
 * @file
 * Hybrid branch predictor per Table II: gshare + bimodal components
 * with a chooser, a 512 B BTB and a 32-entry return address stack.
 * (The mini-ISA has no calls, so the RAS exists for completeness and
 * interface parity but sees no traffic from current workloads.)
 */

#ifndef REMAP_CPU_BPRED_HH
#define REMAP_CPU_BPRED_HH

#include <cstdint>
#include <vector>

#include "sim/snapshot.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace remap::cpu
{

/** Predictor sizing parameters. */
struct BPredParams
{
    unsigned gshareEntries = 4096;  ///< 2-bit counters
    unsigned bimodalEntries = 2048; ///< 2-bit counters
    unsigned chooserEntries = 2048; ///< 2-bit counters
    unsigned btbEntries = 64;       ///< 512 B / 8 B per entry
    unsigned rasEntries = 32;
    unsigned historyBits = 12;
};

/** gshare + bimodal hybrid with chooser and BTB. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BPredParams &params = {});

    /** Direction + target prediction for the branch at @p pc.
     *  @param[out] btb_hit true when the BTB held a target. */
    bool predict(std::uint64_t pc, bool *btb_hit);

    /** Train with the resolved outcome. */
    void update(std::uint64_t pc, bool taken, std::uint64_t target);

    /** @{ @name Statistics. */
    StatCounter lookups;
    StatCounter mispredicts;
    StatCounter btbMisses;
    /** @} */

    /** Serialize predictor tables and history (snapshot support).
     *  The stat counters are registered in the owning core's
     *  StatGroup and serialized there. */
    void save(snap::Serializer &s) const;
    /** Restore state saved by save(); table geometry must match. */
    void restore(snap::Deserializer &d);

  private:
    static bool counterTaken(std::uint8_t c) { return c >= 2; }
    static void
    counterTrain(std::uint8_t &c, bool taken)
    {
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }

    std::size_t gshareIndex(std::uint64_t pc) const;
    std::size_t bimodalIndex(std::uint64_t pc) const;
    std::size_t chooserIndex(std::uint64_t pc) const;

    BPredParams params_;
    std::vector<std::uint8_t> gshare_;
    std::vector<std::uint8_t> bimodal_;
    std::vector<std::uint8_t> chooser_;
    struct BtbEntry
    {
        std::uint64_t pc = ~0ULL;
        std::uint64_t target = 0;
    };
    std::vector<BtbEntry> btb_;
    std::uint64_t history_ = 0;
};

} // namespace remap::cpu

#endif // REMAP_CPU_BPRED_HH
