/**
 * @file
 * Communication+computation workloads, part 2: twolf, hmmer (the
 * paper's Fig. 5 running example), and astar (with its two-way
 * bound-list protocol).
 */

#include "workloads/kernels_comm_channel.hh"

namespace remap::workloads
{

using detail::newRun;
using isa::ProgramBuilder;
using isa::RegIndex;

namespace
{

/** Emit `if (src > dst) dst = src` in branch form (unique label). */
void
emitMaxBranch(ProgramBuilder &b, RegIndex dst, RegIndex src,
              unsigned &lbl)
{
    const std::string l = "maxb_" + std::to_string(lbl++);
    b.bge(dst, src, l).mv(dst, src).label(l);
}

/** Emit `if (src < dst) dst = src` in branch form (unique label). */
void
emitMinBranch(ProgramBuilder &b, RegIndex dst, RegIndex src,
              unsigned &lbl)
{
    const std::string l = "minb_" + std::to_string(lbl++);
    b.bge(src, dst, l).mv(dst, src).label(l);
}

} // namespace

// ------------------------------------------------------------------ //
// twolf: net bounding-box cost (pointer chasing + min/max)
// ------------------------------------------------------------------ //

PreparedRun
makeTwolf(const RunSpec &spec)
{
    const unsigned nets = spec.iterations ? spec.iterations : 1500;
    constexpr unsigned pinsPerNet = 8;
    constexpr unsigned coords = 2048;
    PreparedRun r =
        newRun("twolf", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    auto pins = randomI32(nets * pinsPerNet, 0, coords - 1, 0x2b01f);
    auto xs = randomI32(coords, 0, 4095, 0x2b020);
    auto ys = randomI32(coords, 0, 4095, 0x2b021);
    const Addr pinsA = alloc.alloc(pins.size() * 4);
    const Addr xsA = alloc.alloc(coords * 4);
    const Addr ysA = alloc.alloc(coords * 4);
    const Addr out = alloc.alloc(nets * 4);
    storeI32Array(m, pinsA, pins);
    storeI32Array(m, xsA, xs);
    storeI32Array(m, ysA, ys);

    std::vector<std::int32_t> expect(nets);
    for (unsigned n = 0; n < nets; ++n) {
        std::int32_t mnx = INT32_MAX, mxx = INT32_MIN;
        std::int32_t mny = INT32_MAX, mxy = INT32_MIN;
        for (unsigned p = 0; p < pinsPerNet; ++p) {
            std::int32_t idx = pins[n * pinsPerNet + p];
            mnx = std::min(mnx, xs[idx]);
            mxx = std::max(mxx, xs[idx]);
            mny = std::min(mny, ys[idx]);
            mxy = std::max(mxy, ys[idx]);
        }
        expect[n] = (mxx - mnx) + (mxy - mny);
    }

    Channel ch(r, spec.variant, alloc, "twolf",
               [] { return twolfMinMax8(); },
               [] { return spl::functions::passthrough(8); });

    // Gather coords for pins [p0, p0+4) of net x1 from table x7
    // into x20..x23 (scratch x5, x6).
    auto emitGather4 = [&](ProgramBuilder &b, unsigned p0,
                           Addr table) {
        b.slli(5, 1, 5)
            .li(6, static_cast<std::int64_t>(pinsA))
            .add(5, 5, 6);
        for (unsigned k = 0; k < 4; ++k) {
            b.lw(6, 5, 4 * (p0 + k))
                .slli(6, 6, 2)
                .li(7, static_cast<std::int64_t>(table))
                .add(6, 6, 7)
                .lw(static_cast<RegIndex>(20 + k), 6, 0);
        }
    };

    // As above, but leave the eight coord *addresses* in x20..x27
    // so the values can be sent to the SPL straight from the L1D.
    auto emitGatherAddrs8 = [&](ProgramBuilder &b, Addr table) {
        b.slli(5, 1, 5)
            .li(6, static_cast<std::int64_t>(pinsA))
            .add(5, 5, 6)
            .li(7, static_cast<std::int64_t>(table));
        for (unsigned k = 0; k < 8; ++k) {
            b.lw(6, 5, 4 * k)
                .slli(6, 6, 2)
                .add(static_cast<RegIndex>(20 + k), 6, 7);
        }
    };

    unsigned lbl = 0;
    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b("twolf_seq");
        b.li(12, static_cast<std::int64_t>(out))
            .li(3, nets)
            .li(1, 0);
        b.label("net").bge(1, 3, "done");
        b.li(14, INT32_MAX)  // mnx
            .li(15, INT32_MIN)  // mxx
            .li(16, INT32_MAX)  // mny
            .li(17, INT32_MIN); // mxy
        for (unsigned p0 = 0; p0 < pinsPerNet; p0 += 4) {
            emitGather4(b, p0, xsA);
            for (unsigned k = 0; k < 4; ++k) {
                emitMinBranch(b, 14,
                              static_cast<RegIndex>(20 + k), lbl);
                emitMaxBranch(b, 15,
                              static_cast<RegIndex>(20 + k), lbl);
            }
            emitGather4(b, p0, ysA);
            for (unsigned k = 0; k < 4; ++k) {
                emitMinBranch(b, 16,
                              static_cast<RegIndex>(20 + k), lbl);
                emitMaxBranch(b, 17,
                              static_cast<RegIndex>(20 + k), lbl);
            }
        }
        b.sub(18, 15, 14)
            .sub(19, 17, 16)
            .add(18, 18, 19)
            .slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(18, 5, 0)
            .addi(1, 1, 1)
            .j("net")
            .label("done")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        ProgramBuilder b("twolf_comp");
        b.li(12, static_cast<std::int64_t>(out))
            .li(3, nets)
            .li(1, 0);
        b.label("net").bge(1, 3, "done");
        // two initiations per net: all eight x's, all eight y's
        for (Addr table : {xsA, ysA}) {
            emitGatherAddrs8(b, table);
            for (unsigned k = 0; k < 8; ++k)
                b.splLoadM(static_cast<RegIndex>(20 + k), 0, k);
            b.splInit(ch.compCfg());
        }
        // collect: (mn,mx) per axis
        b.splStore(14, 0).splStore(15, 0)   // x
            .splStore(16, 0).splStore(17, 0) // y
            .sub(18, 15, 14)
            .sub(19, 17, 16)
            .add(18, 18, 19)
            .slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(18, 5, 0)
            .addi(1, 1, 1)
            .j("net")
            .label("done")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        // Thread balance: the producer gathers and ships the x axis;
        // the consumer gathers the y axis itself (in CompComm both
        // threads drive the shared fabric concurrently).
        ProgramBuilder p("twolf_prod");
        p.li(3, nets).li(1, 0);
        ch.producerInit(p);
        p.label("net").bge(1, 3, "done");
        emitGatherAddrs8(p, xsA);
        ch.sendMem(p,
                   {{20, 0, false},
                    {21, 0, false},
                    {22, 0, false},
                    {23, 0, false},
                    {24, 0, false},
                    {25, 0, false},
                    {26, 0, false},
                    {27, 0, false}},
                   28);
        p.addi(1, 1, 1).j("net").label("done").halt();

        ProgramBuilder c("twolf_cons");
        c.li(12, static_cast<std::int64_t>(out))
            .li(3, nets)
            .li(1, 0);
        ch.consumerInit(c);
        c.label("net").bge(1, 3, "done");
        if (ch.computeInFabric()) {
            // y axis reduced with core min/max ops while the x axis
            // result is in flight from the fabric
            emitGatherAddrs8(c, ysA);
            c.li(16, INT32_MAX).li(17, INT32_MIN);
            for (unsigned k = 0; k < 8; ++k) {
                c.lw(19, static_cast<RegIndex>(20 + k), 0)
                    .min(16, 16, 19)
                    .max(17, 17, 19);
            }
            ch.recv(c, {14, 15});
        } else {
            // y axis gathered and reduced on the core
            emitGatherAddrs8(c, ysA);
            c.li(16, INT32_MAX).li(17, INT32_MIN);
            for (unsigned k = 0; k < 8; ++k) {
                c.lw(19, static_cast<RegIndex>(20 + k), 0);
                emitMinBranch(c, 16, 19, lbl);
                emitMaxBranch(c, 17, 19, lbl);
            }
            c.li(14, INT32_MAX).li(15, INT32_MIN);
            ch.recv(c, {20, 21, 22, 23, 24, 25, 26, 27});
            for (unsigned k = 0; k < 8; ++k) {
                emitMinBranch(c, 14,
                              static_cast<RegIndex>(20 + k), lbl);
                emitMaxBranch(c, 15,
                              static_cast<RegIndex>(20 + k), lbl);
            }
        }
        c.sub(18, 15, 14)
            .sub(19, 17, 16)
            .add(18, 18, 19)
            .slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(18, 5, 0)
            .addi(1, 1, 1)
            .j("net")
            .label("done")
            .halt();

        auto &tp = r.system->createThread(r.addProgram(p.build()));
        auto &tc = r.system->createThread(r.addProgram(c.build()));
        r.system->mapThread(tp.id, 0);
        r.system->mapThread(tc.id, 1);
    }

    sys::System *sysp = r.system.get();
    r.verify = [sysp, out, expect] {
        return loadI32Array(sysp->memory(), out, expect.size()) ==
               expect;
    };
    r.workUnits = nets;
    return r;
}

// ------------------------------------------------------------------ //
// hmmer P7Viterbi (Fig. 5 of the paper)
// ------------------------------------------------------------------ //

namespace
{

constexpr std::int32_t hmmerNeg = -100000000;

struct HmmerData
{
    unsigned M = 64;
    unsigned R = 48;
    std::int32_t xmb = 37;
    // Row-varying inputs (R x (M+1)) and shared transition tables.
    std::vector<std::int32_t> mpp, ip, dpp;
    std::vector<std::int32_t> tpmm, tpim, tpdm, tpmd, tpdd, bp, ms,
        is, tpmi, tpii;
    // Addresses.
    Addr mppA, ipA, dppA, tpmmA, tpimA, tpdmA, tpmdA, tpddA, bpA,
        msA, isA, tpmiA, tpiiA, mcA, dcA, icA;

    void
    init(mem::MemoryImage &m, AddrAllocator &alloc, unsigned m_len,
         unsigned rows)
    {
        M = m_len;
        R = rows;
        const unsigned stride = M + 1;
        mpp = randomI32(std::size_t(R) * stride, -1000, 1000, 0x401);
        ip = randomI32(std::size_t(R) * stride, -1000, 1000, 0x402);
        dpp = randomI32(std::size_t(R) * stride, -1000, 1000, 0x403);
        tpmm = randomI32(stride, -500, 500, 0x404);
        tpim = randomI32(stride, -500, 500, 0x405);
        tpdm = randomI32(stride, -500, 500, 0x406);
        tpmd = randomI32(stride, -500, 500, 0x407);
        tpdd = randomI32(stride, -500, 500, 0x408);
        bp = randomI32(stride, -200, 200, 0x409);
        ms = randomI32(stride, -200, 200, 0x40a);
        is = randomI32(stride, -200, 200, 0x40b);
        tpmi = randomI32(stride, -500, 500, 0x40c);
        tpii = randomI32(stride, -500, 500, 0x40d);

        auto put = [&](const std::vector<std::int32_t> &v) {
            Addr a = alloc.alloc(v.size() * 4);
            storeI32Array(m, a, v);
            return a;
        };
        mppA = put(mpp);
        ipA = put(ip);
        dppA = put(dpp);
        tpmmA = put(tpmm);
        tpimA = put(tpim);
        tpdmA = put(tpdm);
        tpmdA = put(tpmd);
        tpddA = put(tpdd);
        bpA = put(bp);
        msA = put(ms);
        isA = put(is);
        tpmiA = put(tpmi);
        tpiiA = put(tpii);
        mcA = alloc.alloc(std::size_t(R) * stride * 4);
        dcA = alloc.alloc(std::size_t(R) * stride * 4);
        icA = alloc.alloc(std::size_t(R) * stride * 4);
    }

    /** Golden per Fig. 5(a) (max form == branch form). */
    void
    golden(std::vector<std::int32_t> &mc,
           std::vector<std::int32_t> &dc,
           std::vector<std::int32_t> &ic) const
    {
        const unsigned stride = M + 1;
        mc.assign(std::size_t(R) * stride, 0);
        dc.assign(std::size_t(R) * stride, 0);
        ic.assign(std::size_t(R) * stride, 0);
        for (unsigned r = 0; r < R; ++r) {
            const std::size_t o = std::size_t(r) * stride;
            for (unsigned k = 1; k <= M; ++k) {
                std::int32_t v = mpp[o + k - 1] + tpmm[k - 1];
                v = std::max(v, ip[o + k - 1] + tpim[k - 1]);
                v = std::max(v, dpp[o + k - 1] + tpdm[k - 1]);
                v = std::max(v, xmb + bp[k]);
                v += ms[k];
                v = std::max(v, hmmerNeg);
                mc[o + k] = v;
                std::int32_t d = dc[o + k - 1] + tpdd[k - 1];
                d = std::max(d, mc[o + k - 1] + tpmd[k - 1]);
                d = std::max(d, hmmerNeg);
                dc[o + k] = d;
                if (k < M) {
                    std::int32_t icv = mpp[o + k] + tpmi[k];
                    icv = std::max(icv, ip[o + k] + tpii[k]);
                    icv += is[k];
                    icv = std::max(icv, hmmerNeg);
                    ic[o + k] = icv;
                }
            }
        }
    }
};

} // namespace

PreparedRun
makeHmmer(const RunSpec &spec)
{
    PreparedRun r =
        newRun("hmmer", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    HmmerData d;
    d.init(m, alloc, /*M=*/64,
           /*R=*/spec.iterations ? spec.iterations : 48);
    const unsigned stride = d.M + 1;

    std::vector<std::int32_t> gmc, gdc, gic;
    d.golden(gmc, gdc, gic);

    Channel ch(r, spec.variant, alloc, "hmmer",
               [] {
                   return spl::functions::hmmerMc(hmmerNeg);
               },
               [] { return spl::functions::passthrough(1); });

    unsigned lbl = 0;

    // Shared-register plan (see kernel docs): x10..x12 row input
    // pointers, x13..x22 shared tables, x23..x25 row outputs,
    // x26 xmb, x27 NEG, x28 dc[k-1], x29 mc[k-1], x4 = k*4.
    auto emitBases = [&](ProgramBuilder &b) {
        b.li(13, static_cast<std::int64_t>(d.tpmmA))
            .li(14, static_cast<std::int64_t>(d.tpimA))
            .li(15, static_cast<std::int64_t>(d.tpdmA))
            .li(16, static_cast<std::int64_t>(d.tpmdA))
            .li(17, static_cast<std::int64_t>(d.tpddA))
            .li(18, static_cast<std::int64_t>(d.bpA))
            .li(19, static_cast<std::int64_t>(d.msA))
            .li(20, static_cast<std::int64_t>(d.isA))
            .li(21, static_cast<std::int64_t>(d.tpmiA))
            .li(22, static_cast<std::int64_t>(d.tpiiA))
            .li(26, d.xmb)
            .li(27, hmmerNeg);
    };
    // Set row pointers for the row index in x2.
    auto emitRowSetup = [&](ProgramBuilder &b) {
        b.li(5, static_cast<std::int64_t>(stride) * 4)
            .mul(5, 2, 5)
            .li(6, static_cast<std::int64_t>(d.mppA))
            .add(10, 6, 5)
            .li(6, static_cast<std::int64_t>(d.ipA))
            .add(11, 6, 5)
            .li(6, static_cast<std::int64_t>(d.dppA))
            .add(12, 6, 5)
            .li(6, static_cast<std::int64_t>(d.mcA))
            .add(23, 6, 5)
            .li(6, static_cast<std::int64_t>(d.dcA))
            .add(24, 6, 5)
            .li(6, static_cast<std::int64_t>(d.icA))
            .add(25, 6, 5)
            .li(28, 0)
            .li(29, 0);
    };

    // Scalar mc[k] into x40 (branch form, Fig. 5(a)). Uses x4=k*4.
    auto emitMcScalar = [&](ProgramBuilder &b) {
        b.add(5, 10, 4)
            .lw(40, 5, -4)     // mpp[k-1]
            .add(5, 13, 4)
            .lw(41, 5, -4)     // tpmm[k-1]
            .add(40, 40, 41)
            .add(5, 11, 4)
            .lw(41, 5, -4)     // ip[k-1]
            .add(5, 14, 4)
            .lw(42, 5, -4)     // tpim[k-1]
            .add(41, 41, 42);
        emitMaxBranch(b, 40, 41, lbl);
        b.add(5, 12, 4)
            .lw(41, 5, -4)     // dpp[k-1]
            .add(5, 15, 4)
            .lw(42, 5, -4)     // tpdm[k-1]
            .add(41, 41, 42);
        emitMaxBranch(b, 40, 41, lbl);
        b.add(5, 18, 4)
            .lw(41, 5, 0)      // bp[k]
            .add(41, 41, 26);
        emitMaxBranch(b, 40, 41, lbl);
        b.add(5, 19, 4)
            .lw(41, 5, 0)      // ms[k]
            .add(40, 40, 41);
        emitMaxBranch(b, 40, 27, lbl);
    };

    // SPL staging of mc's nine inputs (Fig. 6 ordering), using the
    // L1D-to-input-queue spl_load path.
    auto emitMcStage = [&](ProgramBuilder &b, std::int64_t cfg,
                           std::int64_t dest) {
        b.add(5, 10, 4)
            .splLoadM(5, -4, 0) // mpp[k-1]
            .add(5, 13, 4)
            .splLoadM(5, -4, 1) // tpmm[k-1]
            .add(5, 11, 4)
            .splLoadM(5, -4, 2) // ip[k-1]
            .add(5, 14, 4)
            .splLoadM(5, -4, 3) // tpim[k-1]
            .add(5, 12, 4)
            .splLoadM(5, -4, 4) // dpp[k-1]
            .add(5, 15, 4)
            .splLoadM(5, -4, 5) // tpdm[k-1]
            .splLoad(26, 6)     // xmb
            .add(5, 18, 4)
            .splLoadM(5, 0, 7)  // bp[k]
            .add(5, 19, 4)
            .splLoadM(5, 0, 8)  // ms[k]
            .splInit(cfg, dest);
    };

    // Scalar ic[k] (only k < M) into x43, stored to ic row.
    auto emitIc = [&](ProgramBuilder &b) {
        const std::string skip = "ic_skip_" + std::to_string(lbl++);
        b.li(5, d.M)
            .bge(1, 5, skip)
            .add(5, 10, 4)
            .lw(43, 5, 0)      // mpp[k]
            .add(5, 21, 4)
            .lw(44, 5, 0)      // tpmi[k]
            .add(43, 43, 44)
            .add(5, 11, 4)
            .lw(44, 5, 0)      // ip[k]
            .add(5, 22, 4)
            .lw(45, 5, 0)      // tpii[k]
            .add(44, 44, 45);
        emitMaxBranch(b, 43, 44, lbl);
        b.add(5, 20, 4)
            .lw(44, 5, 0)      // is[k]
            .add(43, 43, 44);
        emitMaxBranch(b, 43, 27, lbl);
        b.add(5, 25, 4).sw(43, 5, 0).label(skip);
    };

    // dc[k] from x28 (dc[k-1]) and x29 (mc[k-1]) into x28; store.
    auto emitDc = [&](ProgramBuilder &b) {
        b.add(5, 17, 4)
            .lw(45, 5, -4)     // tpdd[k-1]
            .add(45, 28, 45)
            .add(5, 16, 4)
            .lw(46, 5, -4)     // tpmd[k-1]
            .add(46, 29, 46);
        emitMaxBranch(b, 45, 46, lbl);
        emitMaxBranch(b, 45, 27, lbl);
        b.mv(28, 45).add(5, 24, 4).sw(45, 5, 0);
    };

    const std::int64_t R64 = d.R;
    const std::int64_t Mp1 = stride;

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b("hmmer_seq");
        emitBases(b);
        b.li(2, 0);
        b.label("row");
        b.li(5, R64).bge(2, 5, "rows_done");
        emitRowSetup(b);
        b.li(1, 1);
        b.label("k");
        b.li(5, Mp1).bge(1, 5, "k_done");
        b.slli(4, 1, 2);
        emitMcScalar(b);
        b.add(5, 23, 4).sw(40, 5, 0);
        emitDc(b);
        emitIc(b);
        b.mv(29, 40);
        b.addi(1, 1, 1).j("k").label("k_done");
        b.addi(2, 2, 1).j("row").label("rows_done").halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        // Fig. 5(b): SPL computes mc; core computes dc and ic.
        ProgramBuilder b("hmmer_comp");
        emitBases(b);
        b.li(2, 0);
        b.label("row");
        b.li(5, R64).bge(2, 5, "rows_done");
        emitRowSetup(b);
        b.li(1, 1);
        // Software pipelining depth 1: stage k+1 before popping k.
        b.slli(4, 1, 2);
        emitMcStage(b, ch.compCfg(), -1);
        b.label("k");
        b.li(5, Mp1).bge(1, 5, "k_done");
        {
            // stage k+1 while k's result is in flight
            const std::string skip =
                "stage_skip_" + std::to_string(lbl++);
            b.addi(6, 1, 1)
                .li(5, Mp1)
                .bge(6, 5, skip)
                .slli(4, 6, 2);
            emitMcStage(b, ch.compCfg(), -1);
            b.label(skip);
        }
        b.slli(4, 1, 2);
        emitIc(b);
        b.splStore(40, 0)      // mc[k]
            .add(5, 23, 4)
            .sw(40, 5, 0);
        emitDc(b);
        b.mv(29, 40);
        b.addi(1, 1, 1).j("k").label("k_done");
        b.addi(2, 2, 1).j("row").label("rows_done").halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        // Producer computes (or stages) mc and computes ic;
        // consumer computes dc from the streamed mc values.
        ProgramBuilder p("hmmer_prod");
        emitBases(p);
        ch.producerInit(p);
        p.li(2, 0);
        p.label("row");
        p.li(5, R64).bge(2, 5, "rows_done");
        emitRowSetup(p);
        p.li(1, 1);
        p.label("k");
        p.li(5, Mp1).bge(1, 5, "k_done");
        p.slli(4, 1, 2);
        if (ch.computeInFabric()) {
            // Fig. 5(d): mc computed in flight to the consumer.
            // ic moves to the consumer to balance the threads
            // (Section V-B.1's thread-balance discussion).
            emitMcStage(p, ch.compCfg(), 1);
        } else {
            emitMcScalar(p);
            p.add(5, 23, 4).sw(40, 5, 0);
            ch.send(p, {40}); // Fig. 5(c): send mc[k]
            emitIc(p);
        }
        p.addi(1, 1, 1).j("k").label("k_done");
        p.addi(2, 2, 1).j("row").label("rows_done").halt();

        ProgramBuilder c("hmmer_cons");
        emitBases(c);
        ch.consumerInit(c);
        c.li(2, 0);
        c.label("row");
        c.li(5, R64).bge(2, 5, "rows_done");
        emitRowSetup(c);
        c.li(1, 1);
        c.label("k");
        c.li(5, Mp1).bge(1, 5, "k_done");
        c.slli(4, 1, 2);
        ch.recv(c, {40});      // mc[k]
        if (ch.computeInFabric()) {
            // consumer owns the mc store and ic in Fig. 5(d)
            c.add(5, 23, 4).sw(40, 5, 0);
            emitIc(c);
        }
        emitDc(c);
        c.mv(29, 40);
        c.addi(1, 1, 1).j("k").label("k_done");
        c.addi(2, 2, 1).j("row").label("rows_done").halt();

        auto &tp = r.system->createThread(r.addProgram(p.build()));
        auto &tc = r.system->createThread(r.addProgram(c.build()));
        r.system->mapThread(tp.id, 0);
        r.system->mapThread(tc.id, 1);
    }

    sys::System *sysp = r.system.get();
    const bool pair = detail::isPairVariant(spec.variant);
    const Addr mcA = d.mcA, dcA = d.dcA, icA = d.icA;
    const std::size_t total = std::size_t(d.R) * stride;
    r.verify = [sysp, mcA, dcA, icA, total, gmc, gdc, gic, pair] {
        auto &mm = sysp->memory();
        if (loadI32Array(mm, mcA, total) != gmc)
            return false;
        if (loadI32Array(mm, dcA, total) != gdc)
            return false;
        // the communicating variants never store ic on the consumer
        (void)pair;
        return loadI32Array(mm, icA, total) == gic;
    };
    r.workUnits = static_cast<double>(d.R) * d.M;
    return r;
}

// ------------------------------------------------------------------ //
// astar makebound2: BFS wave expansion with a feedback channel
// ------------------------------------------------------------------ //

namespace
{

constexpr std::int32_t astarInf = 1000000000;
constexpr std::int32_t astarWall = -100;

/**
 * Batched relax of one cell's eight neighbours (makebound2 inner
 * body): inputs (nv0..nv7, pv, c), outputs (mask, pv+1, c) where
 * mask bit k is set when neighbour k was unvisited. 10 rows.
 */
spl::SplFunction
astarRelax8()
{
    using spl::WOp;
    spl::FunctionBuilder b("astar_relax8", 10);
    b.row().op(WOp::AddImm, 10, 8, 0, 1)      // val = pv+1
        .op(WOp::MovImm, 11, 0, 0, astarInf);
    b.row().op(WOp::CmpEq, 12, 0, 11).op(WOp::CmpEq, 13, 1, 11)
        .op(WOp::CmpEq, 14, 2, 11).op(WOp::CmpEq, 15, 3, 11);
    b.row().op(WOp::CmpEq, 16, 4, 11).op(WOp::CmpEq, 17, 5, 11)
        .op(WOp::CmpEq, 18, 6, 11).op(WOp::CmpEq, 19, 7, 11);
    b.row().op(WOp::MovImm, 20, 0, 0, 1).op(WOp::MovImm, 21, 0, 0, 2)
        .op(WOp::MovImm, 22, 0, 0, 4).op(WOp::MovImm, 23, 0, 0, 8);
    b.row().op(WOp::MovImm, 24, 0, 0, 16)
        .op(WOp::MovImm, 25, 0, 0, 32)
        .op(WOp::MovImm, 26, 0, 0, 64)
        .op(WOp::MovImm, 27, 0, 0, 128);
    b.row().op(WOp::And, 28, 12, 20).op(WOp::And, 29, 13, 21)
        .op(WOp::And, 30, 14, 22).op(WOp::And, 31, 15, 23);
    b.row().op(WOp::And, 32, 16, 24).op(WOp::And, 33, 17, 25)
        .op(WOp::And, 34, 18, 26).op(WOp::And, 35, 19, 27);
    b.row().op(WOp::Or, 36, 28, 29).op(WOp::Or, 37, 30, 31)
        .op(WOp::Or, 38, 32, 33).op(WOp::Or, 39, 34, 35);
    b.row().op(WOp::Or, 40, 36, 37).op(WOp::Or, 41, 38, 39);
    b.row().op(WOp::Or, 42, 40, 41)           // packed mask
        .op(WOp::Mov, 43, 10)
        .op(WOp::Mov, 44, 9);                 // c through
    return b.outputs({42, 43, 44}).build();
}

} // namespace

PreparedRun
makeAstar(const RunSpec &spec)
{
    // Grid with a one-cell wall border.
    const unsigned W = 66, H = spec.iterations ? spec.iterations : 50;
    const unsigned cells = W * H;
    PreparedRun r =
        newRun("astar", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    const Addr way = alloc.alloc(std::size_t(cells) * 4);
    const unsigned src = (H / 2) * W + W / 2;
    {
        std::vector<std::int32_t> init(cells, astarInf);
        for (unsigned x = 0; x < W; ++x) {
            init[x] = astarWall;
            init[(H - 1) * W + x] = astarWall;
        }
        for (unsigned y = 0; y < H; ++y) {
            init[y * W] = astarWall;
            init[y * W + W - 1] = astarWall;
        }
        init[src] = 1;
        storeI32Array(m, way, init);
    }
    const Addr boundA = alloc.alloc(std::size_t(cells) * 4);
    const Addr boundB = alloc.alloc(std::size_t(cells) * 4);
    m.writeI32(boundA, static_cast<std::int32_t>(src));

    // Golden BFS (way values only; bound duplicates are benign).
    std::vector<std::int32_t> expect;
    {
        expect.assign(cells, astarInf);
        for (unsigned x = 0; x < W; ++x) {
            expect[x] = astarWall;
            expect[(H - 1) * W + x] = astarWall;
        }
        for (unsigned y = 0; y < H; ++y) {
            expect[y * W] = astarWall;
            expect[y * W + W - 1] = astarWall;
        }
        expect[src] = 1;
        std::vector<unsigned> cur{src};
        while (!cur.empty()) {
            std::vector<unsigned> next;
            for (unsigned c : cur) {
                const std::int32_t pv = expect[c];
                for (int off :
                     {-1, 1, -int(W), int(W), -int(W) - 1,
                      -int(W) + 1, int(W) - 1, int(W) + 1}) {
                    unsigned n = c + off;
                    if (expect[n] == astarInf) {
                        expect[n] = pv + 1;
                        next.push_back(n);
                    }
                }
            }
            cur = std::move(next);
        }
    }

    Channel ch(r, spec.variant, alloc, "astar",
               [] { return astarRelax8(); },
               [] { return spl::functions::passthrough(10); });

    const int offs[8] = {-1,          1,           -int(W),
                         int(W),      -int(W) - 1, -int(W) + 1,
                         int(W) - 1,  int(W) + 1};

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2 ||
        spec.variant == Variant::Comp) {
        ProgramBuilder b(std::string("astar_") +
                         variantName(spec.variant));
        // x10 way, x37 curBound, x38 nextBound, x13 count,
        // x12 nextCount, x18 INF, x1 entry idx, x5..x9,x20+ scratch
        b.li(10, static_cast<std::int64_t>(way))
            .li(37, static_cast<std::int64_t>(boundA))
            .li(38, static_cast<std::int64_t>(boundB))
            .li(13, 1)
            .li(18, astarInf);
        b.label("wave")
            .beq(13, 0, "finish")
            .li(12, 0)
            .li(1, 0);
        b.label("entry")
            .bge(1, 13, "entry_done")
            .slli(5, 1, 2)
            .add(5, 37, 5)
            .lw(6, 5, 0)        // c
            .slli(7, 6, 2)
            .add(7, 10, 7)
            .lw(8, 7, 0)        // pv = way[c]
            .addi(8, 8, 1);     // pv + 1
        if (spec.variant == Variant::Comp) {
            // batched: all eight neighbours through the fabric
            for (int k = 0; k < 8; ++k) {
                b.addi(20, 6, offs[k])
                    .slli(21, 20, 2)
                    .add(21, 10, 21)
                    .splLoadM(21, 0, k);
            }
            b.addi(23, 8, -1)
                .splLoad(23, 8)   // pv
                .splLoad(6, 9)    // c
                .splInit(ch.compCfg())
                .splStore(24, 0)  // mask
                .splStore(25, 0)  // val
                .splStore(26, 0); // c (unused, but keeps FIFO even)
            for (int k = 0; k < 8; ++k) {
                const std::string skip =
                    "no_relax_" + std::to_string(k);
                b.andi(5, 24, 1 << k)
                    .beq(5, 0, skip)
                    .addi(20, 6, offs[k])
                    .slli(21, 20, 2)
                    .add(21, 10, 21)
                    .sw(25, 21, 0)
                    .slli(27, 12, 2)
                    .add(27, 38, 27)
                    .sw(20, 27, 0)
                    .addi(12, 12, 1)
                    .label(skip);
            }
        } else {
            for (int k = 0; k < 8; ++k) {
                const std::string skip =
                    "no_relax_" + std::to_string(k);
                b.addi(20, 6, offs[k]) // n
                    .slli(21, 20, 2)
                    .add(21, 10, 21)
                    .lw(22, 21, 0)     // nv
                    .bne(22, 18, skip) // nv != INF -> skip
                    .sw(8, 21, 0)      // way[n] = pv+1
                    .slli(27, 12, 2)
                    .add(27, 38, 27)
                    .sw(20, 27, 0)
                    .addi(12, 12, 1)
                    .label(skip);
            }
        }
        b.addi(1, 1, 1)
            .j("entry")
            .label("entry_done")
            .mv(13, 12)
            // swap bound pointers
            .mv(5, 37)
            .mv(37, 38)
            .mv(38, 5)
            .j("wave")
            .label("finish")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        // Feedback channel: consumer -> producer wave counts.
        ConfigId fbCfg = 0;
        detail::SwQueueLayout fbLayout{};
        std::unique_ptr<detail::SwQueueEmitter> fbPush, fbPop;
        if (spec.variant == Variant::SwQueue) {
            fbLayout = detail::SwQueueLayout::make(alloc, 16);
            detail::SwQueueEmitter::Regs rr;
            rr.remote = 44;
            rr.local = 45;
            rr.cap = 46;
            fbPush = std::make_unique<detail::SwQueueEmitter>(
                fbLayout, "astar_fb_c", rr);
            fbPop = std::make_unique<detail::SwQueueEmitter>(
                fbLayout, "astar_fb_p", rr);
        } else {
            fbCfg = r.system->registerFunction(
                spl::functions::passthrough(1));
        }

        ProgramBuilder p("astar_prod");
        p.li(10, static_cast<std::int64_t>(way))
            .li(37, static_cast<std::int64_t>(boundA))
            .li(38, static_cast<std::int64_t>(boundB))
            .li(13, 1)
            .li(18, astarInf);
        ch.producerInit(p);
        if (fbPop)
            fbPop->init(p);
        p.label("wave").beq(13, 0, "finish").li(1, 0);
        p.label("entry")
            .bge(1, 13, "entry_done")
            .slli(5, 1, 2)
            .add(5, 37, 5)
            .lw(6, 5, 0)
            .slli(7, 6, 2)
            .add(7, 10, 7)
            .lw(8, 7, 0); // pv
        for (int k = 0; k < 8; ++k) {
            p.addi(7, 6, offs[k])
                .slli(7, 7, 2)
                .add(static_cast<RegIndex>(20 + k), 10, 7); // &nv_k
        }
        ch.sendMem(p,
                   {{20, 0, false},
                    {21, 0, false},
                    {22, 0, false},
                    {23, 0, false},
                    {24, 0, false},
                    {25, 0, false},
                    {26, 0, false},
                    {27, 0, false},
                    {8, 0, false, /*reg=*/true},
                    {6, 0, false, /*reg=*/true}},
                   19);
        p.addi(1, 1, 1).j("entry").label("entry_done");
        // wave-end sentinel (c = -1)
        for (int k = 0; k < 8; ++k)
            p.li(static_cast<RegIndex>(20 + k), 0);
        p.li(8, 0).li(6, -1);
        ch.send(p, {20, 21, 22, 23, 24, 25, 26, 27, 8, 6});
        // receive next wave's count
        if (fbPop) {
            fbPop->pop(p, 13);
        } else {
            p.splStore(13, 0);
        }
        p.fence()
            .mv(5, 37)
            .mv(37, 38)
            .mv(38, 5)
            .j("wave")
            .label("finish");
        for (int k = 0; k < 8; ++k)
            p.li(static_cast<RegIndex>(20 + k), 0);
        p.li(8, 0).li(6, -2); // quit sentinel
        ch.send(p, {20, 21, 22, 23, 24, 25, 26, 27, 8, 6});
        p.halt();

        ProgramBuilder c("astar_cons");
        c.li(10, static_cast<std::int64_t>(way))
            .li(39, static_cast<std::int64_t>(boundB))
            .li(43, static_cast<std::int64_t>(boundA))
            .li(12, 0)
            .li(18, astarInf);
        ch.consumerInit(c);
        if (fbPush)
            fbPush->init(c);
        c.label("loop");
        // The producer's reads of way[] may be stale (it runs ahead
        // of this thread), so its unvisited flags only pre-filter:
        // before appending, re-check way[n] — this thread is the
        // only writer, so the check is exact and keeps the bound
        // lists duplicate-free (otherwise duplicates compound each
        // wave).
        if (ch.computeInFabric()) {
            // (mask, val, c) from the fabric
            ch.recv(c, {24, 25, 26});
            c.li(5, -2)
                .beq(26, 5, "quit")
                .li(5, -1)
                .beq(26, 5, "publish");
            for (int k = 0; k < 8; ++k) {
                const std::string skip =
                    "ca_skip_" + std::to_string(k);
                c.andi(5, 24, 1 << k)
                    .beq(5, 0, skip)
                    .addi(20, 26, offs[k]) // n
                    .slli(21, 20, 2)
                    .add(21, 10, 21)
                    .lw(27, 21, 0)
                    .bne(27, 18, skip)     // already claimed
                    .sw(25, 21, 0)
                    .slli(27, 12, 2)
                    .add(27, 39, 27)
                    .sw(20, 27, 0)
                    .addi(12, 12, 1)
                    .label(skip);
            }
        } else {
            // (nv0..nv7, pv, c): the consumer does the compares.
            // pv lands in x19 and c in x28 (x20..x27 hold the nv's).
            ch.recv(c, {20, 21, 22, 23, 24, 25, 26, 27, 19, 28});
            c.li(5, -2)
                .beq(28, 5, "quit")
                .li(5, -1)
                .beq(28, 5, "publish")
                .addi(19, 19, 1); // val = pv+1
            for (int k = 0; k < 8; ++k) {
                const std::string skip =
                    "ca_skip_" + std::to_string(k);
                c.bne(static_cast<RegIndex>(20 + k), 18, skip)
                    .addi(33, 28, offs[k]) // n
                    .slli(29, 33, 2)
                    .add(29, 10, 29)
                    .lw(37, 29, 0)
                    .bne(37, 18, skip)     // already claimed
                    .sw(19, 29, 0)
                    .slli(38, 12, 2)
                    .add(38, 39, 38)
                    .sw(33, 38, 0)
                    .addi(12, 12, 1)
                    .label(skip);
            }
        }
        c.j("loop");
        c.label("publish").fence();
        if (fbPush) {
            fbPush->push(c, 12);
        } else {
            c.splLoad(12, 0).splInit(fbCfg, /*dest=*/0);
        }
        c.li(12, 0)
            .mv(5, 39)
            .mv(39, 43)
            .mv(43, 5)
            .j("loop")
            .label("quit")
            .halt();

        auto &tp = r.system->createThread(r.addProgram(p.build()));
        auto &tc = r.system->createThread(r.addProgram(c.build()));
        r.system->mapThread(tp.id, 0);
        r.system->mapThread(tc.id, 1);
    }

    sys::System *sysp = r.system.get();
    r.verify = [sysp, way, expect] {
        return loadI32Array(sysp->memory(), way, expect.size()) ==
               expect;
    };
    r.workUnits = cells;
    return r;
}

} // namespace remap::workloads
