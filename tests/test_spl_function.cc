/** @file Unit tests for SPL row programs: builder constraints,
 *  evaluation semantics, reductions, and the canonical functions. */

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <random>

#include "sim/snapshot.hh"
#include "spl/function.hh"
#include "workloads/spl_functions.hh"

namespace remap::spl
{
namespace
{

TEST(FunctionBuilder, RowPackingLimit)
{
    FunctionBuilder b("t", 4);
    b.row();
    for (unsigned i = 0; i < Row::maxWordOpsPerRow; ++i)
        b.op(WOp::Mov, static_cast<std::uint8_t>(10 + i),
             static_cast<std::uint8_t>(i));
    SplFunction f = b.outputs({10}).build();
    EXPECT_EQ(f.rows(), 1u);
    EXPECT_EQ(f.rowProgram()[0].ops.size(), 4u);
}

TEST(FunctionBuilder, RowsReadPreRowValues)
{
    // Within a row, ops see the register values from before the row.
    FunctionBuilder b("t", 2);
    b.row()
        .op(WOp::Add, 0, 0, 1)  // r0 = r0 + r1
        .op(WOp::Mov, 2, 0);    // r2 = old r0, not the sum
    SplFunction f = b.outputs({0, 2}).build();
    auto out = f.evaluate({5, 7});
    EXPECT_EQ(out[0], 12);
    EXPECT_EQ(out[1], 5);
}

TEST(SplFunction, WordOpSemantics)
{
    FunctionBuilder b("t", 2);
    b.row()
        .op(WOp::Sub, 10, 0, 1)
        .op(WOp::Min, 11, 0, 1)
        .op(WOp::Max, 12, 0, 1)
        .op(WOp::Xor, 13, 0, 1);
    b.row()
        .op(WOp::SraImm, 14, 10, 0, 31)
        .op(WOp::ShlImm, 15, 1, 0, 4)
        .op(WOp::Abs, 16, 10)
        .op(WOp::CmpGe, 17, 0, 1);
    SplFunction f = b.outputs({10, 11, 12, 13, 14, 15, 16, 17})
                        .build();
    auto out = f.evaluate({3, 9});
    EXPECT_EQ(out[0], -6);
    EXPECT_EQ(out[1], 3);
    EXPECT_EQ(out[2], 9);
    EXPECT_EQ(out[3], 3 ^ 9);
    EXPECT_EQ(out[4], -1);
    EXPECT_EQ(out[5], 9 << 4);
    EXPECT_EQ(out[6], 6);
    EXPECT_EQ(out[7], 0);
}

TEST(SplFunction, VariableShiftsAndMul)
{
    FunctionBuilder b("t", 3);
    b.row()
        .op(WOp::ShlVar, 10, 0, 2)
        .op(WOp::ShrVar, 11, 0, 2);
    b.row().op(WOp::Mul, 12, 0, 1);
    SplFunction f = b.outputs({10, 11, 12}).build();
    auto out = f.evaluate({0x100, 3, 4});
    EXPECT_EQ(out[0], 0x1000);
    EXPECT_EQ(out[1], 0x10);
    EXPECT_EQ(out[2], 0x300);
}

TEST(SplFunction, MulWrapsAt32Bits)
{
    FunctionBuilder b("t", 2);
    b.row().op(WOp::Mul, 10, 0, 1);
    SplFunction f = b.outputs({10}).build();
    auto out = f.evaluate({1 << 20, 1 << 20});
    EXPECT_EQ(out[0], 0); // 2^40 wraps to 0
}

TEST(SplFunction, Lut8Semantics)
{
    std::vector<std::int32_t> table(256);
    for (int i = 0; i < 256; ++i)
        table[i] = i * 3;
    FunctionBuilder b("t", 1);
    b.row().op(WOp::Lut8, 10, 0);
    SplFunction f = b.lut(std::move(table)).outputs({10}).build();
    EXPECT_EQ(f.evaluate({7})[0], 21);
    EXPECT_EQ(f.evaluate({0x107})[0], 21); // only the low byte
}

TEST(Reduce, GlobalMinTree)
{
    SplFunction f = functions::globalMin();
    EXPECT_TRUE(f.isReduce());
    auto out = f.evaluateReduce({{5}, {3}, {9}, {7}});
    EXPECT_EQ(out[0], 3);
    // Odd participant counts fold the leftover in.
    out = f.evaluateReduce({{5}, {3}, {1}});
    EXPECT_EQ(out[0], 1);
    // Single participant passes through.
    out = f.evaluateReduce({{42}});
    EXPECT_EQ(out[0], 42);
}

TEST(Reduce, GlobalSumAndRows)
{
    SplFunction f = functions::globalSum();
    auto out = f.evaluateReduce({{1}, {2}, {3}, {4}});
    EXPECT_EQ(out[0], 10);
    EXPECT_EQ(f.barrierRows(2), 1u);
    EXPECT_EQ(f.barrierRows(4), 2u);
    EXPECT_EQ(f.barrierRows(16), 4u);
}

TEST(Functions, PassthroughIdentity)
{
    SplFunction f = functions::passthrough(3);
    auto out = f.evaluate({7, -2, 9});
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 7);
    EXPECT_EQ(out[1], -2);
    EXPECT_EQ(out[2], 9);
    EXPECT_EQ(f.rows(), 1u);
}

TEST(Functions, HmmerMcMatchesFigure5Semantics)
{
    const std::int32_t neg = -100000000;
    SplFunction f = functions::hmmerMc(neg);
    EXPECT_EQ(f.rows(), 10u); // Fig. 6 shows ten rows
    // mpp tpmm ip tpim dpp tpdm xmb bp ms
    auto out = f.evaluate({10, 20, 5, 1, 50, -10, 7, 2, 100});
    // max(10+20, 5+1, 50-10, 7+2) + 100 = 140
    EXPECT_EQ(out[0], 140);
    // Clamp path.
    out = f.evaluate(
        {neg, 0, neg, 0, neg, 0, neg, 0, -5});
    EXPECT_EQ(out[0], neg);
}

TEST(Functions, MinOfAndSumOf)
{
    auto mn = workloads::minOf(4);
    EXPECT_EQ(mn.evaluate({4, 2, 8, 6})[0], 2);
    auto sm = workloads::sumOf(3);
    EXPECT_EQ(sm.evaluate({4, 2, 8})[0], 14);
    // log-depth rows
    EXPECT_EQ(mn.rows(), 2u);
}

TEST(Functions, WorkloadFunctionsHaveSaneRowCounts)
{
    EXPECT_GE(workloads::g721Fmult().rows(), 8u);
    EXPECT_LE(workloads::g721Fmult().rows(), 16u);
    EXPECT_EQ(workloads::dist1Sad4().rows(), 4u);
    EXPECT_EQ(workloads::twolfMinMax4().rows(), 2u);
    EXPECT_EQ(workloads::gsmLattice4().rows(), 24u);
}

TEST(Functions, AdpcmDeltaMatchesScalar)
{
    auto f = workloads::adpcmDelta();
    for (int d = 0; d < 16; ++d) {
        for (std::int32_t step : {7, 100, 32767}) {
            std::int32_t vpdiff = step >> 3;
            if (d & 4)
                vpdiff += step;
            if (d & 2)
                vpdiff += step >> 1;
            if (d & 1)
                vpdiff += step >> 2;
            std::int32_t want = (d & 8) ? -vpdiff : vpdiff;
            EXPECT_EQ(f.evaluate({d, step})[0], want)
                << "d=" << d << " step=" << step;
        }
    }
}

TEST(Functions, QuantumGateFlipsOnlyWhenControlled)
{
    auto f = workloads::quantumGate(0x12, 0x40);
    EXPECT_EQ(f.evaluate({0x12})[0], 0x52);
    EXPECT_EQ(f.evaluate({0x10})[0], 0x10);
    EXPECT_EQ(f.evaluate({0x53})[0], 0x13);
}

TEST(SplFunction, AddSubAbsWrapAt32Bits)
{
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    FunctionBuilder b("t", 2);
    b.row()
        .op(WOp::Add, 10, 0, 1)
        .op(WOp::Sub, 11, 1, 0)
        .op(WOp::AddImm, 12, 0, 0, kMax)
        .op(WOp::Abs, 13, 1);
    SplFunction f = b.outputs({10, 11, 12, 13}).build();
    auto out = f.evaluate({1, kMin});
    EXPECT_EQ(out[0], kMin + 1);
    EXPECT_EQ(out[1], kMax);        // INT_MIN - 1
    EXPECT_EQ(out[2], kMin);        // 1 + INT_MAX
    EXPECT_EQ(out[3], kMin);        // |INT_MIN| has no 32-bit value
    out = f.evaluate({kMax, 1});
    EXPECT_EQ(out[0], kMin);        // INT_MAX + 1
    EXPECT_EQ(out[1], kMin + 2);    // 1 - INT_MAX
    EXPECT_EQ(out[2], -2);          // INT_MAX + INT_MAX
    EXPECT_EQ(out[3], 1);
}

TEST(SplFunction, BarrierResultRule)
{
    const SplFunction mn = functions::globalMin();
    const SplFunction hm = functions::hmmerMc(-1000);

    // One reduce participant: its staged words come back unchanged,
    // even when it staged more words than the combiner outputs.
    EXPECT_EQ(mn.evaluateBarrier({{9, 8, 7}}),
              (std::vector<std::int32_t>{9, 8, 7}));
    // More participants: the reduction tree.
    const std::vector<std::vector<std::int32_t>> five = {
        {5}, {-3}, {9}, {4}, {-1}};
    EXPECT_EQ(mn.evaluateBarrier(five), mn.evaluateReduce(five));
    EXPECT_EQ(mn.evaluateBarrier(five)[0], -3);
    // Any other function evaluates the first participant's words only.
    const std::vector<std::int32_t> first = {10, 20, 5, 1, 50,
                                             -10, 7, 2, 100};
    EXPECT_EQ(hm.evaluateBarrier({first, {1, 2, 3}}),
              hm.evaluate(first));

    // Rows: one pass for n <= 1, one pass per tree stage for a
    // reduce, and never zero.
    const SplFunction sum2 = workloads::sumOf(2); // 1 row, not reduce
    for (unsigned n : {0u, 1u}) {
        EXPECT_EQ(mn.barrierRows(n), mn.rows());
        EXPECT_EQ(hm.barrierRows(n), hm.rows());
    }
    EXPECT_EQ(mn.barrierRows(2), 1u);
    EXPECT_EQ(mn.barrierRows(3), 2u);
    EXPECT_EQ(mn.barrierRows(16), 4u);
    EXPECT_EQ(mn.barrierRows(17), 5u);
    EXPECT_EQ(hm.barrierRows(16), hm.rows());
    EXPECT_EQ(sum2.barrierRows(8), 1u);
    const SplFunction empty =
        FunctionBuilder("no_rows", 1).outputs({0}).build();
    EXPECT_EQ(empty.rows(), 0u);
    EXPECT_EQ(empty.barrierRows(4), 1u);
}

// ---------------------------------------------------------------- //
// Golden digests over randomized corpora. Each test folds the outputs
// of a few hundred generated programs (every WOp, random registers,
// immediates and Lut8 tables; short, exact and long inputs; 1 to 16
// reduce participants) into one FNV-1a digest. The digests were taken
// while a second, flattened evaluator was cross-checked against this
// row-by-row one on the same corpora, so they pin the row semantics.
// ---------------------------------------------------------------- //

/** All word ops the generator draws from (every WOp value). */
const WOp kAllOps[] = {
    WOp::Add,    WOp::Sub,    WOp::AddImm,   WOp::Min,
    WOp::Max,    WOp::MinImm, WOp::MaxImm,   WOp::And,
    WOp::AndImm, WOp::Or,     WOp::Xor,      WOp::ShlImm,
    WOp::ShrImm, WOp::SraImm, WOp::ShlVar,   WOp::ShrVar,
    WOp::Mov,    WOp::MovImm, WOp::CmpGe,    WOp::CmpEq,
    WOp::CmpGeImm, WOp::CmpEqImm, WOp::Sel,  WOp::Lut8,
    WOp::Abs,    WOp::Mul,    WOp::SadB4,
};

/** Build a random row program over registers [0, 16) with a random
 *  Lut8 table. With @p reduce_words > 0 the program is a reduce
 *  combiner over 2*reduce_words input words. */
SplFunction
randomFunction(std::mt19937 &rng, unsigned reduce_words = 0)
{
    auto pick = [&rng](unsigned bound) {
        return static_cast<unsigned>(rng() % bound);
    };
    const unsigned num_inputs =
        reduce_words > 0 ? 2 * reduce_words : 1 + pick(8);
    FunctionBuilder b("fuzz", num_inputs);
    if (reduce_words > 0)
        b.markReduce();

    std::vector<std::int32_t> lut(256);
    for (auto &v : lut)
        v = static_cast<std::int32_t>(rng());
    b.lut(std::move(lut));

    const unsigned rows = 1 + pick(6);
    for (unsigned r = 0; r < rows; ++r) {
        b.row();
        const unsigned ops = 1 + pick(Row::maxWordOpsPerRow);
        for (unsigned o = 0; o < ops; ++o) {
            const WOp op = kAllOps[pick(std::size(kAllOps))];
            b.op(op, static_cast<std::uint8_t>(pick(16)),
                 static_cast<std::uint8_t>(pick(16)),
                 static_cast<std::uint8_t>(pick(16)),
                 static_cast<std::int32_t>(rng()));
        }
    }

    const unsigned out_words =
        reduce_words > 0 ? reduce_words + pick(3) : 1 + pick(4);
    std::vector<std::uint8_t> outs;
    for (unsigned i = 0; i < out_words; ++i)
        outs.push_back(static_cast<std::uint8_t>(pick(16)));
    return b.outputs(std::move(outs)).build();
}

/** Fold one output vector (its length, then each word) into @p h. */
void
mix(snap::Hasher &h, const std::vector<std::int32_t> &out)
{
    h.u64(out.size());
    for (std::int32_t v : out)
        h.i64(v);
}

TEST(SplGolden, RandomProgramsEvaluate)
{
    std::mt19937 rng(0xC0FFEE);
    snap::Hasher h;
    for (int iter = 0; iter < 500; ++iter) {
        SplFunction fn = randomFunction(rng);
        // Input lengths sweep short (zero-filled tail), exact and
        // long (trailing words a program never reads).
        std::vector<std::int32_t> in(rng() % 13);
        for (auto &v : in)
            v = static_cast<std::int32_t>(rng());
        mix(h, fn.evaluate(in));
    }
    EXPECT_EQ(h.value(), 0x944d17841f13c598ULL);
}

TEST(SplGolden, RandomReduceTrees)
{
    std::mt19937 rng(0xBADF00D);
    snap::Hasher h;
    for (int iter = 0; iter < 300; ++iter) {
        const unsigned words = 1 + rng() % 4;
        SplFunction fn = randomFunction(rng, words);
        // Odd and even participant counts, including the 1- and
        // 2-participant edge cases and 3 (odd carry at the root).
        const unsigned participants = 1 + rng() % 16;
        std::vector<std::vector<std::int32_t>> inputs(participants);
        for (auto &p : inputs) {
            p.resize(words);
            for (auto &v : p)
                v = static_cast<std::int32_t>(rng());
        }
        mix(h, fn.evaluateReduce(inputs));
    }
    EXPECT_EQ(h.value(), 0x902886650fc8e2c7ULL);
}

TEST(SplGolden, CanonicalFunctions)
{
    std::mt19937 rng(0x5EED);
    snap::Hasher h;
    for (const SplFunction &fn :
         {functions::passthrough(4), functions::hmmerMc(-987654321)}) {
        for (int iter = 0; iter < 50; ++iter) {
            std::vector<std::int32_t> in(fn.numInputWords());
            for (auto &v : in)
                v = static_cast<std::int32_t>(rng());
            mix(h, fn.evaluate(in));
        }
    }
    for (const SplFunction &fn :
         {functions::globalMin(), functions::globalMax(),
          functions::globalSum()}) {
        for (unsigned participants = 1; participants <= 9;
             ++participants) {
            std::vector<std::vector<std::int32_t>> inputs(
                participants);
            for (auto &p : inputs)
                p = {static_cast<std::int32_t>(rng())};
            mix(h, fn.evaluateReduce(inputs));
        }
    }
    EXPECT_EQ(h.value(), 0x47ad43703b8a3224ULL);
}

} // namespace
} // namespace remap::spl
