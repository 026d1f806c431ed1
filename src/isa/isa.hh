/**
 * @file
 * The ReMAP mini-ISA.
 *
 * A small 64-bit RISC register machine that the cycle-level cores
 * execute. It exists so the simulator can run *real programs* — loops,
 * data-dependent branches, pointer chasing, atomics — rather than
 * statistical traces, while staying small enough to implement a
 * faithful structure-constrained out-of-order timing model on top.
 *
 * Architectural state per thread: 64 integer registers (x0 reads as
 * zero), 64 floating-point registers, and a shared byte-addressable
 * memory. The SPL extension instructions (`spl_*`) mirror the paper's
 * queue-based decoupled interface (Section II-A/II-B).
 */

#ifndef REMAP_ISA_ISA_HH
#define REMAP_ISA_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace remap::isa
{

/** Number of architectural integer registers (x0 is hardwired zero). */
inline constexpr unsigned numIntRegs = 64;
/** Number of architectural floating-point registers. */
inline constexpr unsigned numFpRegs = 64;

/** Register index within its file. */
using RegIndex = std::uint8_t;

/** @{ @name Integer ALU arithmetic: 64-bit two's complement, wrapping
 * on overflow (computed unsigned, since signed overflow is undefined
 * in C++). The core and the reference interpreter both use these. */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}
inline std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}
inline std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}
/** @} */

/** Opcodes of the mini-ISA. */
enum class Opcode : std::uint8_t
{
    // Integer register-register ALU.
    ADD, SUB, AND, OR, XOR, SLL, SRL, SRA,
    SLT, SLTU, MIN, MAX,
    MUL, DIV, REM,
    // Integer register-immediate ALU (imm in Instruction::imm).
    ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, SLTI,
    LI,                 ///< rd = imm (64-bit immediate load)
    // Floating point (double precision).
    FADD, FSUB, FMUL, FDIV, FMIN, FMAX,
    FLT,                ///< int rd = (f rs1 < f rs2)
    FLE,                ///< int rd = (f rs1 <= f rs2)
    FCVT_I2F,           ///< f rd = double(int rs1)
    FCVT_F2I,           ///< int rd = int64(f rs1)
    FMV,                ///< f rd = f rs1
    // Memory. Effective address = int rs1 + imm.
    LD,                 ///< rd = *(int64  *)ea
    LW,                 ///< rd = *(int32  *)ea (sign extended)
    LBU,                ///< rd = *(uint8  *)ea (zero extended)
    SD,                 ///< *(int64 *)ea = rs2
    SW,                 ///< *(int32 *)ea = rs2
    SB,                 ///< *(uint8 *)ea = rs2
    FLD,                ///< f rd = *(double *)ea
    FSD,                ///< *(double *)ea = f rs2
    // Atomics (sequentially consistent in this model).
    AMOADD,             ///< rd = mem[rs1]; mem[rs1] += rs2
    AMOSWAP,            ///< rd = mem[rs1]; mem[rs1] = rs2
    FENCE,              ///< order all prior memory ops before later ones
    // Control flow. Target is Instruction::target (instruction index).
    BEQ, BNE, BLT, BGE, BLTU, BGEU,
    J,                  ///< unconditional jump
    // SPL extension (Section II).
    SPL_CFG,            ///< bind configuration `imm` for this thread
    SPL_LOAD,           ///< push int rs2 into SPL input queue at
                        ///< word index `imm`
    SPL_LOADM,          ///< load int32 at [rs1+imm] straight from
                        ///< the L1D into input-queue word `imm2`
                        ///< (the paper's memory-side spl_load path)
    SPL_LOADMB,         ///< as SPL_LOADM but a zero-extended byte
    SPL_INIT,           ///< issue SPL instruction: config `imm`,
                        ///< destination thread `imm2` (or self)
    SPL_BAR,            ///< barrier-flagged SPL_INIT: barrier id `imm2`
    SPL_STORE,          ///< rd = pop next word from the SPL output
                        ///< queue (blocks when empty)
    SPL_STOREM,         ///< pop next word and store it as int32 at
                        ///< [rs1+imm] (output queue -> store queue)
    // Program termination.
    HALT,
    NOP,
};

/**
 * Functional-unit / scheduling class of an instruction.
 * Drives issue-queue selection, FU allocation and latency.
 */
enum class OpClass : std::uint8_t
{
    IntAlu,     ///< 1-cycle integer op
    IntMult,    ///< 3-cycle pipelined multiply
    IntDiv,     ///< 20-cycle unpipelined divide
    FpAlu,      ///< 4-cycle pipelined FP add/cmp/convert
    FpMult,     ///< 6-cycle pipelined FP multiply
    FpDiv,      ///< 24-cycle unpipelined FP divide
    Load,       ///< memory read through the LSQ
    Store,      ///< memory write, performed at commit
    Amo,        ///< atomic read-modify-write
    Fence,      ///< memory fence
    Branch,     ///< conditional or unconditional control flow
    SplLoad,    ///< enqueue into SPL input queue (register source)
    SplLoadMem, ///< memory -> input queue (L1D access + enqueue)
    SplInit,    ///< SPL initiate (possibly barrier-flagged)
    SplStore,   ///< dequeue from SPL output queue into a register
    SplStoreMem,///< output queue -> memory (dequeue + L1D store)
    SplCfg,     ///< SPL configuration bind
    Halt,       ///< thread termination
};

/** One decoded instruction. Fixed format; no binary encoding needed. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;       ///< destination register (int or fp file)
    RegIndex rs1 = 0;      ///< first source
    RegIndex rs2 = 0;      ///< second source
    std::int64_t imm = 0;  ///< immediate / address offset / config id
    std::int64_t imm2 = 0; ///< secondary immediate (SPL fields)
    std::uint32_t target = 0; ///< branch/jump target instruction index

    /** Scheduling class of this opcode. */
    OpClass opClass() const;

    /** True for BEQ..J. */
    bool isBranch() const;
    /** True when the branch is unconditional. */
    bool isJump() const { return op == Opcode::J; }
    /** True for any instruction that reads memory (incl. AMO). */
    bool isLoad() const;
    /** True for any instruction that writes memory (incl. AMO). */
    bool isStore() const;
    /** True for the SPL extension opcodes. */
    bool isSpl() const;
    /** True when rd is written in the integer file. */
    bool writesIntReg() const;
    /** True when rd is written in the FP file. */
    bool writesFpReg() const;
    /** True when rs1 is read from the FP file. */
    bool readsFpRs1() const;
    /** True when rs2 is read from the FP file. */
    bool readsFpRs2() const;
    /** True when rs1 is a meaningful integer source. */
    bool readsIntRs1() const;
    /** True when rs2 is a meaningful integer source. */
    bool readsIntRs2() const;
};

/** A straight-line-with-branches program for one thread. */
struct Program
{
    /** Human-readable name used in stats and disassembly. */
    std::string name;
    /** The instruction stream; `target` fields are resolved indices. */
    std::vector<Instruction> code;

    /** Number of instructions. */
    std::size_t size() const { return code.size(); }
};

/** Render one instruction as text (for debugging and tests). */
std::string disassemble(const Instruction &inst);

/** Render a whole program, one instruction per line with indices. */
std::string disassemble(const Program &prog);

} // namespace remap::isa

#endif // REMAP_ISA_ISA_HH
