/**
 * @file
 * SplFunction — a row-program representation of an SPL configuration.
 *
 * The paper's SPL (Section II-A, Fig. 2(c)) is a 24-row fabric; each
 * row holds 16 8-bit cells with 4-LUTs, a fast carry tree and barrel
 * shifters, so one row can evaluate up to four independent 32-bit
 * word operations (4 cells + carry chain each). We model a
 * configuration as a *row program*: an ordered list of rows, each
 * packing at most @ref Row::maxWordOpsPerRow word-level operations.
 *
 * The row count of the program is the pipeline depth used by the
 * fabric timing model (one row per 500 MHz SPL cycle), and the program
 * is *evaluated functionally* so kernels receive real computed values.
 * There is one evaluator, the paper's row rule: every op of a row
 * reads the register values the previous row latched. A barrier's
 * regional result and pipeline depth come from evaluateBarrier() and
 * barrierRows(), so every fabric path applies the same rule.
 *
 * Functions are built with FunctionBuilder, which enforces the packing
 * constraint, or generated (e.g. reduction trees for barrier-integrated
 * global functions such as Fig. 7(c)'s global minimum).
 */

#ifndef REMAP_SPL_FUNCTION_HH
#define REMAP_SPL_FUNCTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace remap::spl
{

/** Word-level operations one row's cells can be configured for. */
enum class WOp : std::uint8_t
{
    Add,     ///< dst = a + b          (4 cells + carry tree)
    Sub,     ///< dst = a - b
    AddImm,  ///< dst = a + imm
    Min,     ///< dst = min(a, b)      (signed)
    Max,     ///< dst = max(a, b)      (signed)
    MinImm,  ///< dst = min(a, imm)
    MaxImm,  ///< dst = max(a, imm)
    And,     ///< dst = a & b
    AndImm,  ///< dst = a & imm
    Or,      ///< dst = a | b
    Xor,     ///< dst = a ^ b
    ShlImm,  ///< dst = a << imm       (barrel shifter)
    ShrImm,  ///< dst = (unsigned)a >> imm
    SraImm,  ///< dst = (signed)a >> imm
    ShlVar,  ///< dst = a << (b & 31)  (variable barrel shift)
    ShrVar,  ///< dst = (unsigned)a >> (b & 31)
    Mov,     ///< dst = a
    MovImm,  ///< dst = imm
    CmpGe,   ///< dst = (a >= b) ? ~0 : 0  (signed compare mask)
    CmpEq,   ///< dst = (a == b) ? ~0 : 0
    CmpGeImm,///< dst = (a >= imm) ? ~0 : 0
    CmpEqImm,///< dst = (a == imm) ? ~0 : 0
    Sel,     ///< dst = mask(a) ? b : imm-designated... see note
    Lut8,    ///< dst = table[a & 0xff]   (per-function 256-entry LUT)
    Abs,     ///< dst = |a|
    Mul,     ///< dst = a * b (low 32); a 16x16 shift-add multiplier
             ///< mapped across a full row's cells plus carry tree
    SadB4,   ///< dst = sum over 4 packed bytes of |a.b[i] - b.b[i]|
             ///< (four 8-bit cells + the row's carry tree — the
             ///< byte-parallel idiom the 8-bit cell array exists for)
};

/** One word-level operation within a row. */
struct WordOp
{
    WOp op = WOp::Mov;
    std::uint8_t dst = 0;  ///< destination virtual word register
    std::uint8_t a = 0;    ///< first source register
    std::uint8_t b = 0;    ///< second source register (Sel: mask reg)
    std::int32_t imm = 0;  ///< immediate, when the op uses one
};

/** One fabric row: up to four packed word operations. */
struct Row
{
    /** 16 cells / 4 cells per 32-bit word op. */
    static constexpr unsigned maxWordOpsPerRow = 4;
    std::vector<WordOp> ops;
};

/**
 * A complete SPL configuration.
 *
 * Virtual word registers 0..numInputWords-1 are preloaded from the
 * issuing core's staged input-queue words; after the last row,
 * registers outputRegs[] are written to the destination output queue.
 *
 * When `reduce` is true the program is interpreted as an associative
 * combiner f(a, b): inputs of *each participating core* occupy
 * registers [0, wordsPerInput) and [wordsPerInput, 2*wordsPerInput);
 * the fabric folds all participants through the program as a binary
 * tree (Section II-B.2 / Fig. 4), and the rows occupied grow by
 * ceil(log2(participants)) stages.
 */
class SplFunction
{
  public:
    /** Maximum virtual word registers a program may address. */
    static constexpr unsigned maxRegs = 64;

    SplFunction() = default;

    /** Program name for stats/diagnostics. */
    const std::string &name() const { return name_; }
    /** Number of input words consumed from the input queue. */
    unsigned numInputWords() const { return numInputWords_; }
    /** Registers whose final values are emitted, in order. */
    const std::vector<std::uint8_t> &outputRegs() const
    {
        return outputRegs_;
    }
    /** True when this is an associative reduction combiner. */
    bool isReduce() const { return reduce_; }
    /** Pipeline depth (rows) of a single pass. */
    unsigned rows() const { return static_cast<unsigned>(
        rows_.size()); }
    /** The row program itself. */
    const std::vector<Row> &rowProgram() const { return rows_; }
    /** The Lut8 table (empty when the program has no LUT ops). */
    const std::vector<std::int32_t> &lutTable() const { return lut_; }

    /**
     * Evaluate one pass: @p inputs supplies numInputWords words
     * (reduce mode: 2 * wordsPerInput words). Missing words read as
     * zero; words past maxRegs are ignored.
     * @return output words, one per outputRegs entry.
     */
    std::vector<std::int32_t>
    evaluate(const std::vector<std::int32_t> &inputs) const;

    /**
     * Fold @p participant_inputs (each wordsPerInput words) through
     * the combiner as a binary tree; an odd participant carries to
     * the next level, and a single participant's words are returned
     * unchanged. Valid only for reduce functions. Requires
     * outputRegs().size() >= wordsPerInput so intermediate combine
     * results supply the next tree level's inputs.
     */
    std::vector<std::int32_t>
    evaluateReduce(
        const std::vector<std::vector<std::int32_t>> &participant_inputs)
        const;

    /**
     * The regional result of a released barrier whose participants
     * staged @p participants: the reduction tree for a reduce
     * function, otherwise one pass over the first participant's words.
     */
    std::vector<std::int32_t>
    evaluateBarrier(
        const std::vector<std::vector<std::int32_t>> &participants) const;

    /**
     * Rows a barrier over @p participants occupies (at least one): a
     * reduce function takes rows() per tree stage, ceil(log2 n)
     * stages; any other function takes rows().
     */
    unsigned barrierRows(unsigned participants) const;

  private:
    friend class FunctionBuilder;

    std::string name_;
    std::vector<Row> rows_;
    unsigned numInputWords_ = 0;
    std::vector<std::uint8_t> outputRegs_;
    bool reduce_ = false;
    std::vector<std::int32_t> lut_; ///< optional 256-entry Lut8 table
};

/**
 * Builder enforcing fabric constraints (register bounds, packing
 * limit) while assembling a row program.
 */
class FunctionBuilder
{
  public:
    /**
     * @param name function name
     * @param num_input_words words consumed per initiation
     */
    FunctionBuilder(std::string name, unsigned num_input_words);

    /** Begin a new row; subsequent ops pack into it. */
    FunctionBuilder &row();

    /** Append @p op to the current row (panics when the row is full
     *  or a register index is out of bounds). */
    FunctionBuilder &op(WOp o, std::uint8_t dst, std::uint8_t a = 0,
                        std::uint8_t b = 0, std::int32_t imm = 0);

    /** Attach the 256-entry table used by Lut8 ops. */
    FunctionBuilder &lut(std::vector<std::int32_t> table);

    /** Mark the program as an associative reduction combiner. */
    FunctionBuilder &markReduce();

    /** Declare output registers (order = output word order). */
    FunctionBuilder &outputs(std::vector<std::uint8_t> regs);

    /** Validate and return the finished function. */
    SplFunction build();

  private:
    SplFunction fn_;
    bool rowOpen_ = false;
};

/** A small library of canonical functions used across tests/examples. */
namespace functions
{

/** 1-row passthrough of @p words input words (barrier-only release). */
SplFunction passthrough(unsigned words);

/** Reduce combiner: signed 32-bit global minimum (Fig. 7(c)). */
SplFunction globalMin();

/** Reduce combiner: signed 32-bit global maximum. */
SplFunction globalMax();

/** Reduce combiner: 32-bit sum. */
SplFunction globalSum();

/** The 10-row P7Viterbi `mc` computation of Fig. 6. */
SplFunction hmmerMc(std::int32_t neg_infty);

} // namespace functions

} // namespace remap::spl

#endif // REMAP_SPL_FUNCTION_HH
