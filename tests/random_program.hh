/** @file Seeded random-program generators shared by the core tests:
 *  the differential against the ISA interpreter and the recorded
 *  timing table. A generator is a pure function of its seed, so a
 *  seed names the same program on every build. */

#ifndef REMAP_TESTS_RANDOM_PROGRAM_HH
#define REMAP_TESTS_RANDOM_PROGRAM_HH

#include <algorithm>
#include <cstdint>
#include <string>

#include "isa/builder.hh"
#include "sim/rng.hh"

namespace remap::testprog
{

/**
 * Generate a structured random program: an initialization block, a
 * bounded counted loop whose body mixes ALU ops, loads/stores into a
 * scratch region, data-dependent branches and FP work, then a store
 * of every live register so the comparison is thorough.
 */
inline isa::Program
randomProgram(std::uint64_t seed)
{
    using isa::RegIndex;
    Rng rng(seed);
    isa::ProgramBuilder b("rand" + std::to_string(seed));
    const Addr scratch = 0x10000;
    const unsigned scratch_words = 64;

    // Registers: x1 loop counter, x2 bound, x3 scratch base,
    // x4..x15 data registers, f1..f7 FP registers.
    b.li(1, 0);
    b.li(2, 20 + std::int64_t(rng.below(40)));
    b.li(3, static_cast<std::int64_t>(scratch));
    for (RegIndex x = 4; x <= 15; ++x)
        b.li(x, rng.range(-1000, 1000));
    for (RegIndex f = 1; f <= 7; ++f)
        b.li(20, rng.range(-50, 50)).fcvtI2F(f, 20);

    b.label("loop").bge(1, 2, "done");
    const unsigned body_len = 8 + unsigned(rng.below(16));
    for (unsigned n = 0; n < body_len; ++n) {
        const RegIndex dst = static_cast<RegIndex>(4 + rng.below(12));
        const RegIndex s1 = static_cast<RegIndex>(4 + rng.below(12));
        const RegIndex s2 = static_cast<RegIndex>(4 + rng.below(12));
        switch (rng.below(14)) {
          case 0: b.add(dst, s1, s2); break;
          case 1: b.sub(dst, s1, s2); break;
          case 2: b.mul(dst, s1, s2); break;
          case 3: b.and_(dst, s1, s2); break;
          case 4: b.xor_(dst, s1, s2); break;
          case 5: b.min(dst, s1, s2); break;
          case 6: b.max(dst, s1, s2); break;
          case 7: b.srai(dst, s1, unsigned(rng.below(8))); break;
          case 8: { // store then load through the scratch region
            const std::int64_t off =
                8 * std::int64_t(rng.below(scratch_words));
            b.sd(s1, 3, off).ld(dst, 3, off);
            break;
          }
          case 9: { // indexed scratch access off the loop counter
            b.andi(16, 1, scratch_words - 1)
                .slli(16, 16, 3)
                .add(16, 16, 3)
                .sd(s1, 16, 0)
                .ld(dst, 16, 0);
            break;
          }
          case 10: { // data-dependent branch over a small block
            const std::string skip =
                "skip_" + std::to_string(seed) + "_" +
                std::to_string(n);
            b.andi(16, s1, 3)
                .beq(16, 0, skip)
                .addi(dst, dst, 7)
                .label(skip);
            break;
          }
          case 11: { // FP mix
            const RegIndex fd =
                static_cast<RegIndex>(1 + rng.below(7));
            const RegIndex fs =
                static_cast<RegIndex>(1 + rng.below(7));
            b.fadd(fd, fd, fs).fcvtF2I(17, fd).xor_(dst, dst, 17);
            break;
          }
          case 12: b.div(dst, s1, s2); break;
          default: b.addi(dst, s1, rng.range(-100, 100)); break;
        }
    }
    b.addi(1, 1, 1).j("loop").label("done");

    // Spill everything for the comparison.
    for (RegIndex x = 4; x <= 15; ++x)
        b.sd(x, 3, 512 + 8 * x);
    for (RegIndex f = 1; f <= 7; ++f)
        b.fsd(f, 3, 768 + 8 * f);
    b.halt();
    return b.build();
}

/**
 * Generate a memory-ordering stress program: a counted loop whose
 * body mixes 1-, 4- and 8-byte stores and loads at unaligned offsets
 * of one small (256-byte) scratch window, so stores and loads overlap
 * partially and in every size pairing; atomics (amoadd/amoswap) and
 * loads on a separate 64-byte word area; fences; divides and FP
 * latency to vary the issue order; and a data-dependent branch.
 * Every value that reaches arithmetic that could overflow (a
 * multiply, a divisor, an atomic operand) is masked first, so the
 * programs are well-defined under UBSan. The spill area
 * (scratch + 512) receives every data register at the end.
 */
inline isa::Program
randomMemProgram(std::uint64_t seed)
{
    using isa::RegIndex;
    Rng rng(seed);
    isa::ProgramBuilder b("randmem" + std::to_string(seed));
    const Addr scratch = 0x10000;
    const unsigned window = 256;
    const std::int64_t amo_area = 384;

    // x1 loop counter, x2 bound, x3 scratch base, x4..x13 data,
    // x16/x17 temporaries, f1..f3 FP.
    b.li(1, 0);
    b.li(2, 10 + std::int64_t(rng.below(30)));
    b.li(3, static_cast<std::int64_t>(scratch));
    for (RegIndex x = 4; x <= 13; ++x)
        b.li(x, rng.range(-100000, 100000));
    for (RegIndex f = 1; f <= 3; ++f)
        b.li(20, rng.range(1, 50)).fcvtI2F(f, 20);

    b.label("loop").bge(1, 2, "done");
    const unsigned body_len = 10 + unsigned(rng.below(20));
    for (unsigned n = 0; n < body_len; ++n) {
        const RegIndex dst = static_cast<RegIndex>(4 + rng.below(10));
        const RegIndex src = static_cast<RegIndex>(4 + rng.below(10));
        // Any byte offset that keeps an 8-byte access in the window.
        const std::int64_t off = std::int64_t(rng.below(window - 8));
        const std::int64_t amo_off =
            amo_area + 8 * std::int64_t(rng.below(8));
        switch (rng.below(16)) {
          case 0: b.sd(src, 3, off); break;
          case 1: b.sw(src, 3, off); break;
          case 2: b.sb(src, 3, off); break;
          case 3: b.ld(dst, 3, off); break;
          case 4: b.lw(dst, 3, off); break;
          case 5: b.lbu(dst, 3, off); break;
          case 6: { // word store, then a doubleword load overlapping it
            const std::int64_t load_off = std::max<std::int64_t>(
                0, off + std::int64_t(rng.below(8)) - 4);
            b.sw(src, 3, off).ld(dst, 3, load_off);
            break;
          }
          case 7: { // byte store inside an older doubleword store
            b.sd(src, 3, off)
                .sb(dst, 3, off + std::int64_t(rng.below(8)))
                .ld(dst, 3, off);
            break;
          }
          case 8: { // atomic on a word of the atomics area
            b.addi(16, 3, amo_off).andi(17, src, 0xffff);
            if (rng.below(2))
                b.amoadd(dst, 16, 17);
            else
                b.amoswap(dst, 16, 17);
            break;
          }
          case 9: b.fence(); break;
          case 10: b.andi(17, src, 0xff).div(dst, dst, 17); break;
          case 11: { // FP latency feeding a store address
            b.fadd(1, 1, 2).fcvtF2I(17, 1).andi(17, 17, 0xf8)
                .add(16, 3, 17).sd(src, 16, 0);
            break;
          }
          case 12: { // data-dependent branch over a store
            const std::string skip =
                "mskip_" + std::to_string(seed) + "_" +
                std::to_string(n);
            b.andi(16, src, 1)
                .beq(16, 0, skip)
                .sw(dst, 3, off)
                .label(skip);
            break;
          }
          case 13: b.andi(17, src, 0xfff).mul(dst, 17, 17); break;
          case 14: b.ld(dst, 3, amo_off); break;
          default: b.xor_(dst, src, dst); break;
        }
    }
    b.addi(1, 1, 1).j("loop").label("done");

    for (RegIndex x = 4; x <= 13; ++x)
        b.sd(x, 3, 512 + 8 * x);
    b.halt();
    return b.build();
}

} // namespace remap::testprog

#endif // REMAP_TESTS_RANDOM_PROGRAM_HH
