#include "workloads/spl_functions.hh"

#include "sim/logging.hh"

namespace remap::workloads
{

using spl::FunctionBuilder;
using spl::SplFunction;
using spl::WOp;

const std::vector<std::int32_t> &
expLut()
{
    static const std::vector<std::int32_t> lut = [] {
        std::vector<std::int32_t> t(256, 0);
        for (int i = 1; i < 256; ++i) {
            int e = 0;
            for (int v = i; v > 1; v >>= 1)
                ++e;
            t[i] = e;
        }
        return t;
    }();
    return lut;
}

const std::vector<std::int32_t> &
charClassLut()
{
    static const std::vector<std::int32_t> lut = [] {
        std::vector<std::int32_t> t(256, 0);
        for (int c = 'a'; c <= 'z'; ++c)
            t[c] = 1;
        for (int c = 'A'; c <= 'Z'; ++c)
            t[c] = 1;
        for (int c = '0'; c <= '9'; ++c)
            t[c] = 1;
        return t;
    }();
    return lut;
}

const std::vector<std::int32_t> &
adpcmStepLut()
{
    static const std::vector<std::int32_t> lut = [] {
        // IMA ADPCM step table (89 entries), clamped above.
        static const std::int32_t steps[89] = {
            7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28,
            31, 34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107,
            118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
            337, 371, 408, 449, 494, 544, 598, 658, 724, 796, 876,
            963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
            2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871,
            5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487,
            12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
            27086, 29794, 32767};
        std::vector<std::int32_t> t(256);
        for (int i = 0; i < 256; ++i)
            t[i] = steps[i < 89 ? i : 88];
        return t;
    }();
    return lut;
}

const std::vector<std::int32_t> &
adpcmIndexLut()
{
    static const std::vector<std::int32_t> lut = [] {
        static const std::int32_t adj[16] = {-1, -1, -1, -1, 2, 4, 6,
                                             8, -1, -1, -1, -1, 2, 4,
                                             6, 8};
        std::vector<std::int32_t> t(256);
        for (int i = 0; i < 256; ++i)
            t[i] = adj[i & 15];
        return t;
    }();
    return lut;
}

const std::vector<std::int32_t> &
huffLut()
{
    static const std::vector<std::int32_t> lut = [] {
        // A canonical-ish code set over the low 4 bits:
        //   1xxx -> symbol 0, 1 bit;  01xx -> symbol 1, 2 bits;
        //   001x -> symbol 2, 3 bits; 0001 -> symbol 3, 4 bits;
        //   0000 -> escape (0): slow tree walk on the core.
        std::vector<std::int32_t> t(256, 0);
        for (int v = 0; v < 16; ++v) {
            int sym = -1, bits = 0;
            if (v & 1) {
                sym = 0;
                bits = 1;
            } else if (v & 2) {
                sym = 1;
                bits = 2;
            } else if (v & 4) {
                sym = 2;
                bits = 3;
            } else if (v & 8) {
                sym = 3;
                bits = 4;
            }
            t[v] = (sym < 0) ? 0 : (((sym + 1) << 8) | bits);
        }
        for (int v = 16; v < 256; ++v)
            t[v] = t[v & 15];
        return t;
    }();
    return lut;
}

SplFunction
g721Fmult()
{
    FunctionBuilder b("g721_fmult", 2); // 0=an, 1=srn
    b.row().op(WOp::Abs, 2, 0)
           .op(WOp::Abs, 3, 1)
           .op(WOp::Xor, 4, 0, 1);
    b.row().op(WOp::MovImm, 5, 0, 0, 8191)
           .op(WOp::SraImm, 4, 4, 0, 31);
    b.row().op(WOp::And, 2, 2, 5).op(WOp::And, 3, 3, 5);
    b.row().op(WOp::ShrImm, 6, 2, 0, 5).op(WOp::ShrImm, 7, 3, 0, 5);
    b.row().op(WOp::Lut8, 8, 6).op(WOp::Lut8, 9, 7);
    b.row().op(WOp::ShrVar, 10, 2, 8).op(WOp::ShrVar, 11, 3, 9);
    b.row().op(WOp::Mul, 12, 10, 11);
    b.row().op(WOp::Add, 13, 8, 9);
    b.row().op(WOp::SraImm, 13, 13, 0, 1);
    b.row().op(WOp::ShlVar, 14, 12, 13);
    b.row().op(WOp::Xor, 15, 14, 4);
    b.row().op(WOp::Sub, 16, 15, 4);
    return b.lut(expLut()).outputs({16}).build();
}

SplFunction
mpeg2Interp4()
{
    // inputs: 0 = four packed cur bytes, 1 = four packed prev bytes
    FunctionBuilder b("mpeg2_interp4", 2);
    b.row().op(WOp::ShrImm, 2, 0, 0, 0).op(WOp::ShrImm, 3, 0, 0, 8)
        .op(WOp::ShrImm, 4, 0, 0, 16).op(WOp::ShrImm, 5, 0, 0, 24);
    b.row().op(WOp::AndImm, 2, 2, 0, 0xff)
        .op(WOp::AndImm, 3, 3, 0, 0xff)
        .op(WOp::AndImm, 4, 4, 0, 0xff)
        .op(WOp::AndImm, 5, 5, 0, 0xff);
    b.row().op(WOp::ShrImm, 6, 1, 0, 0).op(WOp::ShrImm, 7, 1, 0, 8)
        .op(WOp::ShrImm, 8, 1, 0, 16).op(WOp::ShrImm, 9, 1, 0, 24);
    b.row().op(WOp::AndImm, 6, 6, 0, 0xff)
        .op(WOp::AndImm, 7, 7, 0, 0xff)
        .op(WOp::AndImm, 8, 8, 0, 0xff)
        .op(WOp::AndImm, 9, 9, 0, 0xff);
    b.row().op(WOp::ShlImm, 10, 2, 0, 1)
        .op(WOp::ShlImm, 11, 3, 0, 1)
        .op(WOp::ShlImm, 12, 4, 0, 1)
        .op(WOp::ShlImm, 13, 5, 0, 1);
    b.row().op(WOp::Add, 10, 10, 2).op(WOp::Add, 11, 11, 3)
        .op(WOp::Add, 12, 12, 4).op(WOp::Add, 13, 13, 5);
    b.row().op(WOp::Add, 10, 10, 6).op(WOp::Add, 11, 11, 7)
        .op(WOp::Add, 12, 12, 8).op(WOp::Add, 13, 13, 9);
    b.row().op(WOp::AddImm, 10, 10, 0, 2)
        .op(WOp::AddImm, 11, 11, 0, 2)
        .op(WOp::AddImm, 12, 12, 0, 2)
        .op(WOp::AddImm, 13, 13, 0, 2);
    b.row().op(WOp::SraImm, 10, 10, 0, 2)
        .op(WOp::SraImm, 11, 11, 0, 2)
        .op(WOp::SraImm, 12, 12, 0, 2)
        .op(WOp::SraImm, 13, 13, 0, 2);
    b.row().op(WOp::MaxImm, 10, 10, 0, 0)
        .op(WOp::MaxImm, 11, 11, 0, 0)
        .op(WOp::MaxImm, 12, 12, 0, 0)
        .op(WOp::MaxImm, 13, 13, 0, 0);
    b.row().op(WOp::MinImm, 10, 10, 0, 255)
        .op(WOp::MinImm, 11, 11, 0, 255)
        .op(WOp::MinImm, 12, 12, 0, 255)
        .op(WOp::MinImm, 13, 13, 0, 255);
    b.row().op(WOp::ShlImm, 14, 10, 0, 0)
        .op(WOp::ShlImm, 15, 11, 0, 8)
        .op(WOp::ShlImm, 16, 12, 0, 16)
        .op(WOp::ShlImm, 17, 13, 0, 24);
    b.row().op(WOp::Or, 18, 14, 15).op(WOp::Or, 19, 16, 17);
    b.row().op(WOp::Or, 20, 18, 19);
    return b.outputs({20}).build();
}

SplFunction
dist1Sad4()
{
    FunctionBuilder b("dist1_sad4", 8); // a0..a3 b0..b3
    b.row().op(WOp::Sub, 8, 0, 4).op(WOp::Sub, 9, 1, 5)
           .op(WOp::Sub, 10, 2, 6).op(WOp::Sub, 11, 3, 7);
    b.row().op(WOp::Abs, 8, 8).op(WOp::Abs, 9, 9)
           .op(WOp::Abs, 10, 10).op(WOp::Abs, 11, 11);
    b.row().op(WOp::Add, 12, 8, 9).op(WOp::Add, 13, 10, 11);
    b.row().op(WOp::Add, 14, 12, 13);
    return b.outputs({14}).build();
}

SplFunction
dist1Sad16()
{
    // inputs: 0..3 = packed reference row, 4..7 = packed candidate
    FunctionBuilder b("dist1_sad16", 8);
    b.row().op(WOp::SadB4, 8, 0, 4).op(WOp::SadB4, 9, 1, 5)
        .op(WOp::SadB4, 10, 2, 6).op(WOp::SadB4, 11, 3, 7);
    b.row().op(WOp::Add, 12, 8, 9).op(WOp::Add, 13, 10, 11);
    b.row().op(WOp::Add, 14, 12, 13);
    return b.outputs({14}).build();
}

SplFunction
gsmMac8()
{
    FunctionBuilder b("gsm_mac8", 16); // w0..w7 d0..d7
    b.row().op(WOp::Mul, 16, 0, 8).op(WOp::Mul, 17, 1, 9);
    b.row().op(WOp::Mul, 18, 2, 10).op(WOp::Mul, 19, 3, 11);
    b.row().op(WOp::Mul, 20, 4, 12).op(WOp::Mul, 21, 5, 13);
    b.row().op(WOp::Mul, 22, 6, 14).op(WOp::Mul, 23, 7, 15);
    b.row().op(WOp::Add, 24, 16, 17).op(WOp::Add, 25, 18, 19)
        .op(WOp::Add, 26, 20, 21).op(WOp::Add, 27, 22, 23);
    b.row().op(WOp::Add, 28, 24, 25).op(WOp::Add, 29, 26, 27);
    b.row().op(WOp::Add, 30, 28, 29);
    b.row().op(WOp::SraImm, 30, 30, 0, 15);
    return b.outputs({30}).build();
}

SplFunction
gsmLattice4()
{
    // 0=sri(in/out), 1..4=v[0..3], 5..8=rrp[0..3].
    FunctionBuilder b("gsm_lattice4", 9);
    for (unsigned j = 0; j < 4; ++j) {
        const std::uint8_t v = static_cast<std::uint8_t>(1 + j);
        const std::uint8_t r = static_cast<std::uint8_t>(5 + j);
        const std::uint8_t vn = static_cast<std::uint8_t>(20 + j);
        b.row().op(WOp::Mul, 10, r, v);        // t = rrp*v
        b.row().op(WOp::SraImm, 10, 10, 0, 15);
        b.row().op(WOp::Sub, 0, 0, 10);        // sri -= t
        b.row().op(WOp::Mul, 11, r, 0);        // u = rrp*sri
        b.row().op(WOp::SraImm, 11, 11, 0, 15);
        b.row().op(WOp::Add, vn, v, 11);       // v'[j+1] = v[j]+u
    }
    return b.outputs({0, 20, 21, 22, 23}).build();
}

SplFunction
quantumGate(std::int32_t control_mask, std::int32_t target_mask)
{
    FunctionBuilder b("quantum_gate", 1); // 0 = state word
    b.row().op(WOp::MovImm, 1, 0, 0, control_mask)
           .op(WOp::MovImm, 2, 0, 0, target_mask);
    b.row().op(WOp::And, 3, 0, 1);
    b.row().op(WOp::CmpEq, 4, 3, 1);
    b.row().op(WOp::And, 5, 2, 4);
    b.row().op(WOp::Xor, 6, 0, 5);
    return b.outputs({6}).build();
}

SplFunction
quantumGate4(std::int32_t control_mask, std::int32_t target_mask)
{
    FunctionBuilder b("quantum_gate4", 4); // four state words
    b.row().op(WOp::MovImm, 4, 0, 0, control_mask)
        .op(WOp::MovImm, 5, 0, 0, target_mask);
    b.row().op(WOp::And, 6, 0, 4).op(WOp::And, 7, 1, 4)
        .op(WOp::And, 8, 2, 4).op(WOp::And, 9, 3, 4);
    b.row().op(WOp::CmpEq, 10, 6, 4).op(WOp::CmpEq, 11, 7, 4)
        .op(WOp::CmpEq, 12, 8, 4).op(WOp::CmpEq, 13, 9, 4);
    b.row().op(WOp::And, 14, 5, 10).op(WOp::And, 15, 5, 11)
        .op(WOp::And, 16, 5, 12).op(WOp::And, 17, 5, 13);
    b.row().op(WOp::Xor, 18, 0, 14).op(WOp::Xor, 19, 1, 15)
        .op(WOp::Xor, 20, 2, 16).op(WOp::Xor, 21, 3, 17);
    return b.outputs({18, 19, 20, 21}).build();
}

SplFunction
wcClassify4()
{
    // inputs: 0 = four packed characters, 1 = preceding character
    FunctionBuilder b("wc_classify4", 2);
    b.row().op(WOp::ShrImm, 2, 0, 0, 0).op(WOp::ShrImm, 3, 0, 0, 8)
        .op(WOp::ShrImm, 4, 0, 0, 16).op(WOp::ShrImm, 5, 0, 0, 24);
    b.row().op(WOp::AndImm, 2, 2, 0, 0xff)
        .op(WOp::AndImm, 3, 3, 0, 0xff)
        .op(WOp::AndImm, 4, 4, 0, 0xff)
        .op(WOp::AndImm, 5, 5, 0, 0xff);
    b.row().op(WOp::Lut8, 6, 2).op(WOp::Lut8, 7, 3)
        .op(WOp::Lut8, 8, 4).op(WOp::Lut8, 9, 5);
    b.row().op(WOp::Lut8, 10, 1)
        .op(WOp::MovImm, 11, 0, 0, 1)
        .op(WOp::CmpEqImm, 12, 2, 0, '\n')
        .op(WOp::CmpEqImm, 13, 3, 0, '\n');
    b.row().op(WOp::CmpEqImm, 14, 4, 0, '\n')
        .op(WOp::CmpEqImm, 15, 5, 0, '\n')
        .op(WOp::Sub, 16, 11, 10)     // !class(prev)
        .op(WOp::Sub, 17, 11, 6);     // !class(c0)
    b.row().op(WOp::Sub, 18, 11, 7).op(WOp::Sub, 19, 11, 8)
        .op(WOp::And, 20, 6, 16).op(WOp::And, 21, 7, 17);
    b.row().op(WOp::And, 22, 8, 18).op(WOp::And, 23, 9, 19)
        .op(WOp::And, 24, 12, 11).op(WOp::And, 25, 13, 11);
    b.row().op(WOp::And, 26, 14, 11).op(WOp::And, 27, 15, 11)
        .op(WOp::Add, 28, 20, 21).op(WOp::Add, 29, 22, 23);
    b.row().op(WOp::Add, 30, 28, 29)  // word starts in the group
        .op(WOp::Add, 31, 24, 25)
        .op(WOp::Add, 32, 26, 27);
    b.row().op(WOp::Add, 33, 31, 32); // newlines in the group
    return b.lut(charClassLut()).outputs({30, 33}).build();
}

SplFunction
unepicHuff4()
{
    FunctionBuilder b("unepic_huff4", 1); // four packed tokens
    b.row().op(WOp::ShrImm, 2, 0, 0, 0).op(WOp::ShrImm, 3, 0, 0, 8)
        .op(WOp::ShrImm, 4, 0, 0, 16).op(WOp::ShrImm, 5, 0, 0, 24);
    b.row().op(WOp::AndImm, 2, 2, 0, 15)
        .op(WOp::AndImm, 3, 3, 0, 15)
        .op(WOp::AndImm, 4, 4, 0, 15)
        .op(WOp::AndImm, 5, 5, 0, 15);
    b.row().op(WOp::Lut8, 6, 2).op(WOp::Lut8, 7, 3)
        .op(WOp::Lut8, 8, 4).op(WOp::Lut8, 9, 5);
    b.row().op(WOp::SraImm, 6, 6, 0, 8)
        .op(WOp::SraImm, 7, 7, 0, 8)
        .op(WOp::SraImm, 8, 8, 0, 8)
        .op(WOp::SraImm, 9, 9, 0, 8);
    b.row().op(WOp::AddImm, 6, 6, 0, -1)
        .op(WOp::AddImm, 7, 7, 0, -1)
        .op(WOp::AddImm, 8, 8, 0, -1)
        .op(WOp::AddImm, 9, 9, 0, -1);
    return b.lut(huffLut()).outputs({6, 7, 8, 9}).build();
}

SplFunction
twolfMinMax8()
{
    FunctionBuilder b("twolf_minmax8", 8);
    b.row().op(WOp::Min, 8, 0, 1).op(WOp::Min, 9, 2, 3)
        .op(WOp::Min, 10, 4, 5).op(WOp::Min, 11, 6, 7);
    b.row().op(WOp::Max, 12, 0, 1).op(WOp::Max, 13, 2, 3)
        .op(WOp::Max, 14, 4, 5).op(WOp::Max, 15, 6, 7);
    b.row().op(WOp::Min, 16, 8, 9).op(WOp::Min, 17, 10, 11)
        .op(WOp::Max, 18, 12, 13).op(WOp::Max, 19, 14, 15);
    b.row().op(WOp::Min, 20, 16, 17).op(WOp::Max, 21, 18, 19);
    return b.outputs({20, 21}).build();
}

SplFunction
cjpegYcc4()
{
    // inputs: words 0..2 hold 12 interleaved r,g,b bytes for four
    // pixels; byte j of the stream is word j/4, lane j%4.
    FunctionBuilder b("cjpeg_ycc4", 3);
    // Unpack the 12 bytes into regs 4..15 (stream order).
    for (unsigned j = 0; j < 12; j += 4) {
        b.row();
        for (unsigned k = 0; k < 4; ++k) {
            unsigned byte = j + k;
            b.op(WOp::ShrImm, static_cast<std::uint8_t>(4 + byte),
                 static_cast<std::uint8_t>(byte / 4), 0,
                 8 * (byte % 4));
        }
    }
    for (unsigned j = 0; j < 12; j += 4) {
        b.row();
        for (unsigned k = 0; k < 4; ++k) {
            unsigned byte = j + k;
            b.op(WOp::AndImm, static_cast<std::uint8_t>(4 + byte),
                 static_cast<std::uint8_t>(4 + byte), 0, 0xff);
        }
    }
    // Coefficients.
    b.row().op(WOp::MovImm, 16, 0, 0, 19595)
        .op(WOp::MovImm, 17, 0, 0, 38470)
        .op(WOp::MovImm, 18, 0, 0, 7471);
    // 12 multiplies, two per row (full-row 16x16 multipliers).
    for (unsigned px = 0; px < 4; ++px) {
        const std::uint8_t r = static_cast<std::uint8_t>(4 + 3 * px);
        const std::uint8_t g = static_cast<std::uint8_t>(5 + 3 * px);
        const std::uint8_t bch =
            static_cast<std::uint8_t>(6 + 3 * px);
        const std::uint8_t pr =
            static_cast<std::uint8_t>(20 + 3 * px);
        b.row().op(WOp::Mul, pr, r, 16)
            .op(WOp::Mul, static_cast<std::uint8_t>(pr + 1), g, 17);
        b.row().op(WOp::Mul, static_cast<std::uint8_t>(pr + 2), bch,
                   18);
    }
    // Sum, round, shift per pixel.
    b.row();
    for (unsigned px = 0; px < 4; ++px)
        b.op(WOp::Add, static_cast<std::uint8_t>(32 + px),
             static_cast<std::uint8_t>(20 + 3 * px),
             static_cast<std::uint8_t>(21 + 3 * px));
    b.row();
    for (unsigned px = 0; px < 4; ++px)
        b.op(WOp::Add, static_cast<std::uint8_t>(32 + px),
             static_cast<std::uint8_t>(32 + px),
             static_cast<std::uint8_t>(22 + 3 * px));
    b.row();
    for (unsigned px = 0; px < 4; ++px)
        b.op(WOp::AddImm, static_cast<std::uint8_t>(32 + px),
             static_cast<std::uint8_t>(32 + px), 0, 32768);
    b.row();
    for (unsigned px = 0; px < 4; ++px)
        b.op(WOp::SraImm, static_cast<std::uint8_t>(32 + px),
             static_cast<std::uint8_t>(32 + px), 0, 16);
    return b.outputs({32, 33, 34, 35}).build();
}

SplFunction
adpcmDelta()
{
    FunctionBuilder b("adpcm_delta", 2); // 0=delta 1=step
    b.row().op(WOp::ShrImm, 2, 1, 0, 3)    // vd = step>>3
           .op(WOp::MovImm, 3, 0, 0, 0)
           .op(WOp::ShrImm, 4, 1, 0, 1)    // step>>1
           .op(WOp::ShrImm, 5, 1, 0, 2);   // step>>2
    b.row().op(WOp::MovImm, 6, 0, 0, 4)
           .op(WOp::MovImm, 7, 0, 0, 2)
           .op(WOp::MovImm, 8, 0, 0, 1)
           .op(WOp::MovImm, 9, 0, 0, 8);
    b.row().op(WOp::And, 10, 0, 6).op(WOp::And, 11, 0, 7)
           .op(WOp::And, 12, 0, 8).op(WOp::And, 13, 0, 9);
    b.row().op(WOp::CmpEq, 14, 10, 6).op(WOp::CmpEq, 15, 11, 7)
           .op(WOp::CmpEq, 16, 12, 8).op(WOp::CmpEq, 17, 13, 9);
    b.row().op(WOp::And, 18, 1, 14).op(WOp::And, 19, 4, 15)
           .op(WOp::And, 20, 5, 16);
    b.row().op(WOp::Add, 2, 2, 18);
    b.row().op(WOp::Add, 2, 2, 19);
    b.row().op(WOp::Add, 2, 2, 20);
    b.row().op(WOp::Sub, 21, 3, 2);        // -vd
    b.row().op(WOp::Sub, 22, 21, 2);       // -vd - vd
    b.row().op(WOp::And, 23, 22, 17);      // masked by (delta&8)
    b.row().op(WOp::Add, 24, 2, 23);       // vd or -vd
    return b.outputs({24}).build();
}

SplFunction
twolfMinMax4()
{
    FunctionBuilder b("twolf_minmax4", 4);
    b.row().op(WOp::Min, 4, 0, 1).op(WOp::Min, 5, 2, 3)
           .op(WOp::Max, 6, 0, 1).op(WOp::Max, 7, 2, 3);
    b.row().op(WOp::Min, 8, 4, 5).op(WOp::Max, 9, 6, 7);
    return b.outputs({8, 9}).build();
}

SplFunction
ll3Mac4()
{
    FunctionBuilder b("ll3_mac4", 8); // z0..z3 x0..x3
    b.row().op(WOp::Mul, 8, 0, 4).op(WOp::Mul, 9, 1, 5);
    b.row().op(WOp::Mul, 10, 2, 6).op(WOp::Mul, 11, 3, 7);
    b.row().op(WOp::Add, 12, 8, 9).op(WOp::Add, 13, 10, 11);
    b.row().op(WOp::Add, 14, 12, 13);
    return b.outputs({14}).build();
}

namespace
{

SplFunction
treeOf(const char *name, unsigned c, WOp op)
{
    REMAP_ASSERT(c >= 2 && c <= 16, "tree reduce supports 2..16");
    FunctionBuilder b(name, c);
    // Pairwise tree: level values live in registers; each level is
    // one row (<=4 ops while c<=8, two rows at c=16).
    std::vector<std::uint8_t> cur;
    for (unsigned i = 0; i < c; ++i)
        cur.push_back(static_cast<std::uint8_t>(i));
    std::uint8_t next_reg = static_cast<std::uint8_t>(c);
    while (cur.size() > 1) {
        std::vector<std::uint8_t> next;
        std::size_t pairs = cur.size() / 2;
        std::size_t done = 0;
        while (done < pairs) {
            b.row();
            for (unsigned k = 0; k < 4 && done < pairs; ++k, ++done) {
                b.op(op, next_reg, cur[2 * done], cur[2 * done + 1]);
                next.push_back(next_reg++);
            }
        }
        if (cur.size() % 2)
            next.push_back(cur.back());
        cur = std::move(next);
    }
    return b.outputs({cur.front()}).build();
}

} // namespace

SplFunction
minOf(unsigned c)
{
    return treeOf("min_of", c, WOp::Min);
}

SplFunction
sumOf(unsigned c)
{
    return treeOf("sum_of", c, WOp::Add);
}

} // namespace remap::workloads
