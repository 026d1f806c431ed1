/**
 * @file
 * Pre-decoded instruction metadata.
 *
 * The per-instruction hot loops (`Core::fetch`, the issue/dispatch
 * walks) used to re-derive the same classification
 * facts — OpClass, register-file routing, queue usage — through a
 * fan of virtual-free but branchy switch methods on `Instruction`,
 * once per *dynamic* instruction. The ReMAP evaluation reruns tiny
 * kernels millions of times, so the same few static instructions are
 * re-classified over and over.
 *
 * `DecodedInst` packs every classification fact consumed by the
 * pipeline into one OpClass byte plus a 16-bit flag word, and
 * `DecodedProgram` computes them once per *static* instruction.
 *
 * `decodeOne()` is the single source of truth: the cached table and
 * the `REMAP_NO_BLOCK_CACHE=1` one-instruction-at-a-time slow path
 * both call it, so the two paths cannot disagree on a decoded fact.
 * It derives every bit from the existing `Instruction` predicate
 * methods rather than re-listing opcodes, which keeps it correct by
 * construction when the ISA grows.
 */

#ifndef REMAP_ISA_DECODED_HH
#define REMAP_ISA_DECODED_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace remap::isa
{

/** Bits of DecodedInst::flags. */
enum DecodeFlag : std::uint16_t
{
    kReadsIntRs1 = 1u << 0,  ///< rs1 read from the integer file
    kReadsFpRs1  = 1u << 1,  ///< rs1 read from the FP file
    kReadsIntRs2 = 1u << 2,  ///< rs2 read from the integer file
    kReadsFpRs2  = 1u << 3,  ///< rs2 read from the FP file
    kWritesInt   = 1u << 4,  ///< writes the integer file (rd != x0)
    kWritesFp    = 1u << 5,  ///< writes the FP file
    kIsBranch    = 1u << 6,  ///< BEQ..J
    kIsJump      = 1u << 7,  ///< unconditional J
    kUsesFpQueue = 1u << 8,  ///< issues from the FP queue
    kLsqLoad     = 1u << 9,  ///< occupies a load-queue entry
    kLsqStore    = 1u << 10, ///< occupies a store-queue entry
    kStoreLike   = 1u << 11, ///< orders younger loads (st/amo/fence)
    kMemWrite    = 1u << 12, ///< writes memory through the LSQ
    kSplPop      = 1u << 13, ///< pops the SPL output queue
};

/**
 * All pipeline-relevant classification facts of one static
 * instruction, pre-computed so the hot loops test single bits
 * instead of calling switch-based predicates.
 */
struct DecodedInst
{
    OpClass cls = OpClass::IntAlu;
    std::uint16_t flags = 0;
};

/**
 * Decode one instruction. Shared by the DecodedProgram table build
 * and the REMAP_NO_BLOCK_CACHE slow path — both sides see bitwise
 * identical metadata by construction.
 */
DecodedInst decodeOne(const Instruction &inst);

/**
 * Per-program decode table, indexed by pc.
 *
 * The table holds no dynamic state: it is a pure function of the
 * (immutable) Program, so it never needs invalidation — only
 * rebuilding when a core is bound to a different Program.
 */
struct DecodedProgram
{
    std::vector<DecodedInst> insts;

    /** Rebuild the table for @p prog. */
    void build(const Program &prog);

    bool empty() const { return insts.empty(); }
};

} // namespace remap::isa

#endif // REMAP_ISA_DECODED_HH
