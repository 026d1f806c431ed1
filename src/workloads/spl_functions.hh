/**
 * @file
 * Per-benchmark SPL configurations (row programs) and the shared
 * lookup tables used both by the fabric functions and by the mini-ISA
 * kernels / golden models, so all three agree bit-exactly.
 */

#ifndef REMAP_WORKLOADS_SPL_FUNCTIONS_HH
#define REMAP_WORKLOADS_SPL_FUNCTIONS_HH

#include <cstdint>
#include <vector>

#include "spl/function.hh"

namespace remap::workloads
{

/** @{ @name Shared lookup tables (256 entries each). */

/** floor(log2(i)) for i>=1, 0 for i==0 — g721 exponent estimate. */
const std::vector<std::int32_t> &expLut();
/** 1 for [a-z][A-Z][0-9], else 0 — wc word-character class. */
const std::vector<std::int32_t> &charClassLut();
/** ADPCM step-size table values for index 0..88 (clamped above). */
const std::vector<std::int32_t> &adpcmStepLut();
/** ADPCM index-adjustment table for delta 0..15 (wrapped above). */
const std::vector<std::int32_t> &adpcmIndexLut();
/** Huffman fast-decode table: low 4 code bits -> packed
 *  (symbol+1)<<8 | consumed_bits for short codes, 0 for long. */
const std::vector<std::int32_t> &huffLut();
/** @} */

/** @{ @name SPL configurations per benchmark (see each kernel). */

/** g721 fmult-like: abs/mask/lut-exp/shift/mul/shift/sign, 10 rows. */
spl::SplFunction g721Fmult();

/** Byte-packed upconversion: four pixels per initiation, unpacked
 *  into 16-bit lanes inside the fabric (the natural use of the 8-bit
 *  cell array), 14 rows. */
spl::SplFunction mpeg2Interp4();

/** mpeg2enc dist1: |a-b| sum over 4 pixels, 4 rows. */
spl::SplFunction dist1Sad4();

/** Byte-packed dist1: a full 16-pixel row SAD per initiation using
 *  SadB4 rows, 3 rows. */
spl::SplFunction dist1Sad16();

/** gsm LTP cross-correlation: 8-wide MAC with the paper-style
 *  per-group >>15 normalization, 8 rows. */
spl::SplFunction gsmMac8();

/** gsm short-term synthesis: 4 unrolled lattice stages, 24 rows
 *  (exercises whole-fabric occupancy / virtualization). */
spl::SplFunction gsmLattice4();

/** libquantum toffoli/cnot: masked conditional bit-flip, 4 rows. */
spl::SplFunction quantumGate(std::int32_t control_mask,
                             std::int32_t target_mask);

/** Four state words per initiation (vectorized across the row's
 *  word lanes), 5 rows. */
spl::SplFunction quantumGate4(std::int32_t control_mask,
                              std::int32_t target_mask);

/** Byte-packed wc: classifies four packed characters (plus the
 *  preceding character) per initiation, returning (word-starts,
 *  newlines) counts, 9 rows. */
spl::SplFunction wcClassify4();

/** unepic fast path over four byte-packed tokens, returning four
 *  symbols (-1 escapes), 7 rows. */
spl::SplFunction unepicHuff4();

/** twolf: min/max of 8 coordinates in one pass, 4 rows. */
spl::SplFunction twolfMinMax8();

/** cjpeg RGB->Y over four byte-packed interleaved pixels (three
 *  packed words in, four luma words out), 17 rows. */
spl::SplFunction cjpegYcc4();

/** adpcm: step->vpdiff with conditional adds and sign select,
 *  10 rows. */
spl::SplFunction adpcmDelta();

/** twolf: min/max of 4 coordinates (bounding-box update), 2 rows. */
spl::SplFunction twolfMinMax4();

/** LL3 inner product: 4-wide integer MAC, 5 rows. */
spl::SplFunction ll3Mac4();

/** Min over @p c staged words (multi-cluster barrier final stage). */
spl::SplFunction minOf(unsigned c);

/** Sum over @p c staged words (multi-cluster barrier final stage). */
spl::SplFunction sumOf(unsigned c);

/** @} */

} // namespace remap::workloads

#endif // REMAP_WORKLOADS_SPL_FUNCTIONS_HH
