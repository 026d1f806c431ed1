#include "spl/function.hh"

#include <algorithm>
#include <array>

#include "sim/logging.hh"

namespace remap::spl
{

namespace
{

/** The register bank a row program runs over. */
using Bank = std::array<std::int32_t, SplFunction::maxRegs>;

/** A 32-bit result as the signed word the registers hold. Adders,
 *  shifters and the multiplier compute in unsigned arithmetic, so
 *  they wrap at 32 bits as the cells' carry chain does. */
std::int32_t
wrap(std::uint32_t v)
{
    return static_cast<std::int32_t>(v);
}

std::int32_t
applyOp(const WordOp &w, const std::int32_t *regs,
        const std::vector<std::int32_t> &lut)
{
    const std::int32_t a = regs[w.a];
    const std::int32_t b = regs[w.b];
    const std::uint32_t ua = static_cast<std::uint32_t>(a);
    const std::uint32_t ub = static_cast<std::uint32_t>(b);
    switch (w.op) {
      case WOp::Add:    return wrap(ua + ub);
      case WOp::Sub:    return wrap(ua - ub);
      case WOp::AddImm:
        return wrap(ua + static_cast<std::uint32_t>(w.imm));
      case WOp::Min:    return std::min(a, b);
      case WOp::Max:    return std::max(a, b);
      case WOp::MinImm: return std::min(a, w.imm);
      case WOp::MaxImm: return std::max(a, w.imm);
      case WOp::And:    return a & b;
      case WOp::AndImm: return a & w.imm;
      case WOp::Or:     return a | b;
      case WOp::Xor:    return a ^ b;
      case WOp::ShlImm: return wrap(ua << (w.imm & 31));
      case WOp::ShrImm: return wrap(ua >> (w.imm & 31));
      case WOp::SraImm: return a >> (w.imm & 31);
      case WOp::ShlVar: return wrap(ua << (b & 31));
      case WOp::ShrVar: return wrap(ua >> (b & 31));
      case WOp::Mov:    return a;
      case WOp::MovImm: return w.imm;
      case WOp::CmpGe:  return (a >= b) ? ~0 : 0;
      case WOp::CmpEq:  return (a == b) ? ~0 : 0;
      case WOp::CmpGeImm: return (a >= w.imm) ? ~0 : 0;
      case WOp::CmpEqImm: return (a == w.imm) ? ~0 : 0;
      case WOp::Sel:    return b ? a : w.imm;
      case WOp::Lut8:
        REMAP_ASSERT(!lut.empty(), "Lut8 op without a table");
        return lut[ua & 0xff];
      case WOp::Abs:    return a < 0 ? wrap(0u - ua) : a;
      case WOp::Mul:    return wrap(ua * ub);
      case WOp::SadB4: {
        std::int32_t s = 0;
        for (int i = 0; i < 4; ++i) {
            int av = (ua >> (8 * i)) & 0xff;
            int bv = (ub >> (8 * i)) & 0xff;
            s += av > bv ? av - bv : bv - av;
        }
        return s;
      }
    }
    return 0;
}

/**
 * Run @p rows over @p regs, whose inputs are preloaded and every other
 * register zero. Rows execute in order; within a row, every op reads
 * the values the previous row latched (a row's cells operate in
 * parallel), and the row's results are latched together after it.
 */
void
runRows(const std::vector<Row> &rows,
        const std::vector<std::int32_t> &lut, Bank &regs)
{
    std::array<std::int32_t, Row::maxWordOpsPerRow> latched;
    for (const Row &r : rows) {
        for (std::size_t i = 0; i < r.ops.size(); ++i)
            latched[i] = applyOp(r.ops[i], regs.data(), lut);
        for (std::size_t i = 0; i < r.ops.size(); ++i)
            regs[r.ops[i].dst] = latched[i];
    }
}

std::vector<std::int32_t>
gather(const std::vector<std::uint8_t> &output_regs, const Bank &regs)
{
    std::vector<std::int32_t> out;
    out.reserve(output_regs.size());
    for (std::uint8_t r : output_regs)
        out.push_back(regs[r]);
    return out;
}

} // namespace

std::vector<std::int32_t>
SplFunction::evaluate(const std::vector<std::int32_t> &inputs) const
{
    Bank regs{};
    std::copy_n(inputs.begin(),
                std::min<std::size_t>(inputs.size(), maxRegs),
                regs.begin());
    runRows(rows_, lut_, regs);
    return gather(outputRegs_, regs);
}

std::vector<std::int32_t>
SplFunction::evaluateReduce(
    const std::vector<std::vector<std::int32_t>> &participant_inputs)
    const
{
    REMAP_ASSERT(reduce_, "evaluateReduce on non-reduce function");
    REMAP_ASSERT(!participant_inputs.empty(),
                 "reduce needs at least one participant");
    if (participant_inputs.size() == 1)
        return participant_inputs.front();
    const unsigned words = numInputWords_ / 2;
    REMAP_ASSERT(outputRegs_.size() >= words,
                 "reduce combiner emits fewer words than it consumes");

    // The current tree level, `words` words per participant: pair
    // (2k, 2k+1) is contiguous, and its combine is stored back into
    // slot k, which no later pair of the level reads.
    std::vector<std::int32_t> level(participant_inputs.size() * words);
    for (std::size_t i = 0; i < participant_inputs.size(); ++i) {
        REMAP_ASSERT(participant_inputs[i].size() >= words,
                     "reduce participant input too short");
        std::copy_n(participant_inputs[i].begin(), words,
                    level.begin() + i * words);
    }

    for (std::size_t count = participant_inputs.size();;
         count = count / 2 + count % 2) {
        for (std::size_t k = 0; k < count / 2; ++k) {
            Bank regs{};
            std::copy_n(level.begin() + 2 * k * words, 2 * words,
                        regs.begin());
            runRows(rows_, lut_, regs);
            // The final combine's full output is the reduction result.
            if (count == 2)
                return gather(outputRegs_, regs);
            for (unsigned w = 0; w < words; ++w)
                level[k * words + w] = regs[outputRegs_[w]];
        }
        if (count % 2) // odd participant carries to the next level
            std::copy_n(level.begin() + (count - 1) * words, words,
                        level.begin() + count / 2 * words);
    }
}

std::vector<std::int32_t>
SplFunction::evaluateBarrier(
    const std::vector<std::vector<std::int32_t>> &participants) const
{
    return reduce_ ? evaluateReduce(participants)
                   : evaluate(participants.front());
}

unsigned
SplFunction::barrierRows(unsigned participants) const
{
    unsigned stages = 0;
    if (reduce_)
        for (unsigned n = participants; n > 1; n = (n + 1) / 2)
            ++stages;
    return std::max(rows() * std::max(stages, 1u), 1u);
}

FunctionBuilder::FunctionBuilder(std::string name,
                                 unsigned num_input_words)
{
    REMAP_ASSERT(num_input_words <= SplFunction::maxRegs,
                 "too many input words");
    fn_.name_ = std::move(name);
    fn_.numInputWords_ = num_input_words;
}

FunctionBuilder &
FunctionBuilder::row()
{
    fn_.rows_.emplace_back();
    rowOpen_ = true;
    return *this;
}

FunctionBuilder &
FunctionBuilder::op(WOp o, std::uint8_t dst, std::uint8_t a,
                    std::uint8_t b, std::int32_t imm)
{
    REMAP_ASSERT(rowOpen_, "op() before row()");
    Row &r = fn_.rows_.back();
    if (r.ops.size() >= Row::maxWordOpsPerRow)
        REMAP_PANIC("row overpacked in SPL function '%s'",
                    fn_.name_.c_str());
    REMAP_ASSERT(dst < SplFunction::maxRegs &&
                 a < SplFunction::maxRegs && b < SplFunction::maxRegs,
                 "register index out of range");
    r.ops.push_back(WordOp{o, dst, a, b, imm});
    return *this;
}

FunctionBuilder &
FunctionBuilder::lut(std::vector<std::int32_t> table)
{
    REMAP_ASSERT(table.size() == 256, "Lut8 table must have 256 entries");
    fn_.lut_ = std::move(table);
    return *this;
}

FunctionBuilder &
FunctionBuilder::markReduce()
{
    fn_.reduce_ = true;
    return *this;
}

FunctionBuilder &
FunctionBuilder::outputs(std::vector<std::uint8_t> regs)
{
    for (std::uint8_t r : regs)
        REMAP_ASSERT(r < SplFunction::maxRegs,
                     "output register out of range");
    fn_.outputRegs_ = std::move(regs);
    return *this;
}

SplFunction
FunctionBuilder::build()
{
    REMAP_ASSERT(!fn_.outputRegs_.empty(),
                 "SPL function has no outputs");
    if (fn_.reduce_) {
        REMAP_ASSERT(fn_.numInputWords_ % 2 == 0,
                     "reduce combiner needs an even input word count");
    }
    return std::move(fn_);
}

namespace functions
{

SplFunction
passthrough(unsigned words)
{
    FunctionBuilder b("passthrough", words);
    std::vector<std::uint8_t> outs;
    for (unsigned w = 0; w < words; ++w) {
        if (w % Row::maxWordOpsPerRow == 0)
            b.row();
        b.op(WOp::Mov, static_cast<std::uint8_t>(w),
             static_cast<std::uint8_t>(w));
        outs.push_back(static_cast<std::uint8_t>(w));
    }
    return b.outputs(std::move(outs)).build();
}

SplFunction
globalMin()
{
    return FunctionBuilder("global_min", 2)
        .markReduce()
        .row().op(WOp::Min, 0, 0, 1)
        .outputs({0})
        .build();
}

SplFunction
globalMax()
{
    return FunctionBuilder("global_max", 2)
        .markReduce()
        .row().op(WOp::Max, 0, 0, 1)
        .outputs({0})
        .build();
}

SplFunction
globalSum()
{
    return FunctionBuilder("global_sum", 2)
        .markReduce()
        .row().op(WOp::Add, 0, 0, 1)
        .outputs({0})
        .build();
}

SplFunction
hmmerMc(std::int32_t neg_infty)
{
    // Inputs (Fig. 6): 0=mpp, 1=tpmm, 2=ip, 3=tpim, 4=dpp, 5=tpdm,
    // 6=xmb, 7=bp, 8=ms. Ten rows matching the figure's structure:
    // successive add/max stages, the ms addition, and the -INFTY clamp.
    FunctionBuilder b("hmmer_mc", 9);
    b.row().op(WOp::Add, 10, 0, 1)         // r1: mc = mpp + tpmm
           .op(WOp::Add, 11, 2, 3);        //     sc = ip + tpim
    b.row().op(WOp::Max, 10, 10, 11);      // r2: mc = max(mc, sc)
    b.row().op(WOp::Add, 12, 4, 5);        // r3: sc = dpp + tpdm
    b.row().op(WOp::Max, 10, 10, 12);      // r4: mc = max(mc, sc)
    b.row().op(WOp::Add, 13, 6, 7);        // r5: sc = xmb + bp
    b.row().op(WOp::Max, 10, 10, 13);      // r6: mc = max(mc, sc)
    b.row().op(WOp::Add, 10, 10, 8);       // r7: mc += ms
    b.row().op(WOp::MovImm, 14, 0, 0, neg_infty); // r8: stage -INFTY
    b.row().op(WOp::Max, 10, 10, 14);      // r9: clamp low
    b.row().op(WOp::Mov, 15, 10);          // r10: route to output
    return b.outputs({15}).build();
}

} // namespace functions

} // namespace remap::spl
