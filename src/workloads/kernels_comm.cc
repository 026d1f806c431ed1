/**
 * @file
 * Communication+computation workloads, part 1: wc, unepic, cjpeg,
 * adpcm. Part 2 (twolf, hmmer, astar) lives in kernels_comm2.cc.
 *
 * Each workload supports Seq, SeqOoo2, Comp (1Th+Comp), Comm
 * (2Th+Comm), CompComm (2Th+CompComm), Ooo2Comm and SwQueue variants
 * (Section V-B of the paper). The Channel helper hides the transport:
 * SPL queue-based communication (with or without an integrated
 * computation configuration) or a memory-based software queue.
 */

#include "workloads/kernels_comm_channel.hh"

namespace remap::workloads
{

using detail::newRun;
using isa::ProgramBuilder;

// ------------------------------------------------------------------ //
// wc
// ------------------------------------------------------------------ //

PreparedRun
makeWc(const RunSpec &spec)
{
    const unsigned n = spec.iterations ? spec.iterations : 16000;
    REMAP_ASSERT(n % 4 == 0, "wc size must be a multiple of 4");
    PreparedRun r =
        newRun("wc", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    const Addr text = alloc.alloc(n);
    auto data = textStream(n, 0x77c1);
    storeU8Array(m, text, data);
    const Addr lut = alloc.alloc(256 * 4);
    storeI32Array(m, lut, charClassLut());
    const Addr out = alloc.alloc(64); // words, lines

    // Golden.
    std::int64_t words = 0, lines = 0;
    {
        int prev = 0;
        for (unsigned i = 0; i < n; ++i) {
            int c = charClassLut()[data[i]];
            if (c && !prev)
                ++words;
            if (data[i] == '\n')
                ++lines;
            prev = c;
        }
    }

    Channel ch(r, spec.variant, alloc, "wc",
               [] { return wcClassify4(); },
               [] { return spl::functions::passthrough(2); });

    // Sequential classification + counting (branch form).
    auto emitSeqBody = [&](ProgramBuilder &b) {
        // x10 text, x11 lut, x12 out, x3 n, x1 i, x13 prev
        // x14 words, x15 lines, x16 '\n'
        b.li(10, static_cast<std::int64_t>(text))
            .li(11, static_cast<std::int64_t>(lut))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(1, 0)
            .li(13, 0)
            .li(14, 0)
            .li(15, 0)
            .li(16, '\n');
        b.label("loop")
            .bge(1, 3, "done")
            .add(5, 10, 1)
            .lbu(6, 5, 0)           // ch
            .slli(7, 6, 2)
            .add(7, 7, 11)
            .lw(7, 7, 0)            // class
            .beq(7, 0, "not_word")
            .bne(13, 0, "in_word")
            .addi(14, 14, 1)        // new word
            .label("in_word")
            .label("not_word")
            .bne(6, 16, "no_nl")
            .addi(15, 15, 1)
            .label("no_nl")
            .mv(13, 7)
            .addi(1, 1, 1)
            .j("loop")
            .label("done")
            .sd(14, 12, 0)
            .sd(15, 12, 8)
            .halt();
    };

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b("wc_seq");
        emitSeqBody(b);
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        // Single thread: the SPL classifies four packed characters
        // per initiation; the core accumulates the group counts.
        ProgramBuilder b("wc_comp");
        b.li(10, static_cast<std::int64_t>(text))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4)
            .li(14, 0)
            .li(15, 0);
        auto produce = [&](ProgramBuilder &p) {
            p.slli(4, 1, 2)
                .add(5, 10, 4)
                .splLoadM(5, 0, 0)   // four packed characters
                .splLoadMB(5, -1, 1) // preceding char (0 pad at i=0)
                .splInit(ch.compCfg());
        };
        auto consume = [&](ProgramBuilder &p) {
            p.splStore(8, 0)     // word starts in the group
                .splStore(9, 0)  // newlines in the group
                .add(14, 14, 8)
                .add(15, 15, 9);
        };
        emitPipelinedComm(b, 3, produce, consume);
        b.sd(14, 12, 0).sd(15, 12, 8).halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        // Producer: stream (ch, prev); consumer: classify+count (or
        // receive classifications when the SPL computes them).
        ProgramBuilder p("wc_prod");
        p.li(10, static_cast<std::int64_t>(text))
            .li(3, n / 4)
            .li(1, 0);
        ch.producerInit(p);
        p.label("loop")
            .bge(1, 3, "done")
            .slli(4, 1, 2)
            .add(5, 10, 4);
        ch.sendMem(p, {{5, 0, false}, {5, -1, true}}, 6);
        p.addi(1, 1, 1).j("loop").label("done").halt();

        ProgramBuilder c("wc_cons");
        c.li(11, static_cast<std::int64_t>(lut))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4)
            .li(1, 0)
            .li(14, 0)
            .li(15, 0)
            .li(16, '\n');
        ch.consumerInit(c);
        c.label("loop").bge(1, 3, "done");
        if (ch.computeInFabric()) {
            ch.recv(c, {8, 9});
            c.add(14, 14, 8).add(15, 15, 9);
        } else {
            // (packed4, prev): unpack and classify on the core
            ch.recv(c, {6, 7});
            c.slli(9, 7, 2)
                .add(9, 9, 11)
                .lw(13, 9, 0);      // class(prev)
            for (int k = 0; k < 4; ++k) {
                const std::string in_word =
                    "in_word_" + std::to_string(k);
                const std::string not_word =
                    "not_word_" + std::to_string(k);
                const std::string no_nl =
                    "no_nl_" + std::to_string(k);
                c.srli(8, 6, 8 * k)
                    .andi(8, 8, 0xff)   // char k
                    .slli(9, 8, 2)
                    .add(9, 9, 11)
                    .lw(9, 9, 0)        // class(char k)
                    .beq(9, 0, not_word)
                    .bne(13, 0, in_word)
                    .addi(14, 14, 1)
                    .label(in_word)
                    .label(not_word)
                    .bne(8, 16, no_nl)
                    .addi(15, 15, 1)
                    .label(no_nl)
                    .mv(13, 9);
            }
        }
        c.addi(1, 1, 1).j("loop").label("done");
        c.sd(14, 12, 0).sd(15, 12, 8).halt();

        auto &tp = r.system->createThread(r.addProgram(p.build()));
        auto &tc = r.system->createThread(r.addProgram(c.build()));
        r.system->mapThread(tp.id, 0);
        r.system->mapThread(tc.id, 1);
    }

    sys::System *sysp = r.system.get();
    r.verify = [sysp, out, words, lines] {
        return sysp->memory().readI64(out) == words &&
               sysp->memory().readI64(out + 8) == lines;
    };
    r.workUnits = n;
    return r;
}

// ------------------------------------------------------------------ //
// unepic: huffman fast path + pointer-chasing escapes
// ------------------------------------------------------------------ //

PreparedRun
makeUnepic(const RunSpec &spec)
{
    const unsigned n = spec.iterations ? spec.iterations : 10000;
    REMAP_ASSERT(n % 4 == 0, "unepic size must be a multiple of 4");
    PreparedRun r =
        newRun("unepic", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    const Addr toks = alloc.alloc(n);
    auto data = randomU8(n, 0, 255, 0x0e91c);
    storeU8Array(m, toks, data);
    const Addr lut = alloc.alloc(256 * 4);
    storeI32Array(m, lut, huffLut());
    // Escape decode via two dependent loads (pointer chase):
    //   l1 = chase1[(t>>4)&1]; sym = chase2[l1 + ((t>>5)&1)]
    const Addr chase1 = alloc.alloc(2 * 8);
    const Addr chase2 = alloc.alloc(4 * 8);
    m.writeI64(chase1, 0);
    m.writeI64(chase1 + 8, 2);
    for (int i = 0; i < 4; ++i)
        m.writeI64(chase2 + 8 * i, 4 + i);
    const Addr out = alloc.alloc(n * 4);

    // Golden.
    std::vector<std::int32_t> expect(n);
    for (unsigned i = 0; i < n; ++i) {
        std::int32_t packed = huffLut()[data[i] & 15];
        if (packed)
            expect[i] = (packed >> 8) - 1;
        else
            expect[i] = static_cast<std::int32_t>(
                4 + ((data[i] >> 4) & 1) * 2 + ((data[i] >> 5) & 1));
    }

    Channel ch(r, spec.variant, alloc, "unepic",
               [] { return unepicHuff4(); },
               [] { return spl::functions::passthrough(1); });

    unsigned lbl = 0;
    // Escape path: pointer-chasing tree walk of the token in
    // @p tok -> symbol in x20 (scratch x22..x25).
    auto emitEscapeWalk = [&](ProgramBuilder &b, isa::RegIndex tok) {
        b.srli(22, tok, 4)
            .andi(22, 22, 1)
            .slli(22, 22, 3)
            .li(23, static_cast<std::int64_t>(chase1))
            .add(22, 22, 23)
            .ld(24, 22, 0)      // l1
            .srli(25, tok, 5)
            .andi(25, 25, 1)
            .add(24, 24, 25)
            .slli(24, 24, 3)
            .li(23, static_cast<std::int64_t>(chase2))
            .add(24, 24, 23)
            .ld(20, 24, 0);     // sym
    };
    // Scalar decode of the token in @p tok -> x20: LUT fast path
    // with the unpredictable escape branch.
    auto emitDecode = [&](ProgramBuilder &b, isa::RegIndex tok) {
        const std::string fast = "fast_" + std::to_string(lbl);
        const std::string store = "dstore_" + std::to_string(lbl);
        ++lbl;
        b.andi(21, tok, 15)
            .slli(21, 21, 2)
            .li(22, static_cast<std::int64_t>(lut))
            .add(21, 21, 22)
            .lw(21, 21, 0)
            .bne(21, 0, fast);
        emitEscapeWalk(b, tok);
        b.j(store)
            .label(fast)
            .srai(20, 21, 8)
            .addi(20, 20, -1)
            .label(store);
    };
    // Resolve a fabric-decoded symbol in @p sym (-1 = escape, token
    // reloadable at x5+@p off) -> x20.
    auto emitSymResolve = [&](ProgramBuilder &b, isa::RegIndex sym,
                              std::int64_t off) {
        const std::string ok = "symok_" + std::to_string(lbl);
        ++lbl;
        b.mv(20, sym).bge(sym, 0, ok).lbu(26, 5, off);
        emitEscapeWalk(b, 26);
        b.label(ok);
    };

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b(std::string("unepic_") +
                         variantName(spec.variant));
        b.li(10, static_cast<std::int64_t>(toks))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(1, 0);
        b.label("loop").bge(1, 3, "done");
        b.add(5, 10, 1).lbu(6, 5, 0);
        emitDecode(b, 6);
        b.slli(5, 1, 2)
            .li(7, static_cast<std::int64_t>(out))
            .add(5, 5, 7)
            .sw(20, 5, 0)
            .addi(1, 1, 1)
            .j("loop")
            .label("done")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        // Four byte-packed tokens per initiation; the fabric returns
        // final symbols (or -1 escapes), software-pipelined.
        ProgramBuilder b("unepic_comp");
        b.li(10, static_cast<std::int64_t>(toks))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4);
        auto produce = [&](ProgramBuilder &p) {
            p.slli(4, 1, 2)
                .add(5, 10, 4)
                .splLoadM(5, 0, 0)
                .splInit(ch.compCfg());
        };
        auto consume = [&](ProgramBuilder &p) {
            p.splStore(7, 0)
                .splStore(8, 0)
                .splStore(13, 0)
                .splStore(14, 0)
                .slli(4, 2, 2)
                .add(5, 10, 4)
                .slli(9, 2, 4)
                .li(11, static_cast<std::int64_t>(out))
                .add(9, 9, 11);
            emitSymResolve(p, 7, 0);
            p.sw(20, 9, 0);
            emitSymResolve(p, 8, 1);
            p.sw(20, 9, 4);
            emitSymResolve(p, 13, 2);
            p.sw(20, 9, 8);
            emitSymResolve(p, 14, 3);
            p.sw(20, 9, 12);
        };
        emitPipelinedComm(b, 3, produce, consume);
        b.halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        ProgramBuilder p("unepic_prod");
        p.li(10, static_cast<std::int64_t>(toks))
            .li(3, n / 4)
            .li(1, 0);
        ch.producerInit(p);
        p.label("loop")
            .bge(1, 3, "done")
            .slli(4, 1, 2)
            .add(5, 10, 4);
        ch.sendMem(p, {{5, 0, false}}, 6);
        p.addi(1, 1, 1).j("loop").label("done").halt();

        ProgramBuilder c("unepic_cons");
        c.li(10, static_cast<std::int64_t>(toks))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4)
            .li(1, 0);
        ch.consumerInit(c);
        c.label("loop").bge(1, 3, "done");
        c.slli(9, 1, 4)
            .li(8, static_cast<std::int64_t>(out))
            .add(9, 9, 8)
            .slli(4, 1, 2)
            .add(5, 10, 4);
        if (ch.computeInFabric()) {
            ch.recv(c, {7, 13, 14, 17});
            emitSymResolve(c, 7, 0);
            c.sw(20, 9, 0);
            emitSymResolve(c, 13, 1);
            c.sw(20, 9, 4);
            emitSymResolve(c, 14, 2);
            c.sw(20, 9, 8);
            emitSymResolve(c, 17, 3);
            c.sw(20, 9, 12);
        } else {
            // one packed word: unpack and decode on the core
            ch.recv(c, {6});
            for (int k = 0; k < 4; ++k) {
                c.srli(7, 6, 8 * k).andi(7, 7, 0xff);
                emitDecode(c, 7);
                c.sw(20, 9, 4 * k);
            }
        }
        c.addi(1, 1, 1).j("loop").label("done").halt();

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
    r.workUnits = n;
    return r;
}

// ------------------------------------------------------------------ //
// cjpeg: rgb->ycc + butterfly stage
// ------------------------------------------------------------------ //

PreparedRun
makeCjpeg(const RunSpec &spec)
{
    const unsigned n = spec.iterations ? spec.iterations : 8000;
    REMAP_ASSERT(n % 4 == 0, "cjpeg size must be a multiple of 4");
    PreparedRun r =
        newRun("cjpeg", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    const Addr rgb = alloc.alloc(n * 3);
    auto data = randomU8(n * 3, 0, 255, 0xc19e6);
    storeU8Array(m, rgb, data);
    const Addr out = alloc.alloc(n * 4);

    // Golden: y per pixel, then pairwise butterfly.
    std::vector<std::int32_t> y(n);
    for (unsigned i = 0; i < n; ++i)
        y[i] = (19595 * data[3 * i] + 38470 * data[3 * i + 1] +
                7471 * data[3 * i + 2] + 32768) >> 16;
    std::vector<std::int32_t> expect(n);
    for (unsigned i = 0; i < n; i += 2) {
        expect[i] = y[i] + y[i + 1];
        expect[i + 1] = y[i] - y[i + 1];
    }

    Channel ch(r, spec.variant, alloc, "cjpeg",
               [] { return cjpegYcc4(); },
               [] { return spl::functions::passthrough(4); });

    // Scalar y computation from the pixel at byte offset x5 -> x20.
    auto emitYcc = [&](ProgramBuilder &b) {
        b.lbu(21, 5, 0)
            .lbu(22, 5, 1)
            .lbu(23, 5, 2)
            .li(24, 19595)
            .mul(21, 21, 24)
            .li(24, 38470)
            .mul(22, 22, 24)
            .li(24, 7471)
            .mul(23, 23, 24)
            .add(20, 21, 22)
            .add(20, 20, 23)
            .addi(20, 20, 32768)
            .srai(20, 20, 16);
    };

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b("cjpeg_seq");
        b.li(10, static_cast<std::int64_t>(rgb))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(1, 0);
        b.label("loop").bge(1, 3, "done");
        // pixel i: x5 = rgb + 3*i
        b.slli(5, 1, 1)
            .add(5, 5, 1)
            .add(5, 10, 5);
        emitYcc(b);
        b.mv(25, 20);
        // pixel 2k+1 (next 3 bytes)
        b.addi(5, 5, 3);
        emitYcc(b);
        // butterfly
        b.add(26, 25, 20)
            .sub(27, 25, 20)
            .slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(26, 5, 0)
            .sw(27, 5, 4)
            .addi(1, 1, 2)
            .j("loop")
            .label("done")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        ProgramBuilder b("cjpeg_comp");
        b.li(10, static_cast<std::int64_t>(rgb))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4);
        auto produce = [&](ProgramBuilder &p) {
            // four interleaved pixels = three packed words
            p.slli(5, 1, 2)
                .slli(6, 1, 3)
                .add(5, 5, 6)     // 12*k
                .add(5, 10, 5)
                .splLoadM(5, 0, 0)
                .splLoadM(5, 4, 1)
                .splLoadM(5, 8, 2)
                .splInit(ch.compCfg());
        };
        auto consume = [&](ProgramBuilder &p) {
            p.splStore(20, 0)
                .splStore(21, 0)
                .splStore(22, 0)
                .splStore(23, 0)
                .add(26, 20, 21)
                .sub(27, 20, 21)
                .slli(5, 2, 4)
                .add(5, 12, 5)
                .sw(26, 5, 0)
                .sw(27, 5, 4)
                .add(26, 22, 23)
                .sub(27, 22, 23)
                .sw(26, 5, 8)
                .sw(27, 5, 12);
        };
        emitPipelinedComm(b, 3, produce, consume);
        b.halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        ProgramBuilder p("cjpeg_prod");
        p.li(10, static_cast<std::int64_t>(rgb))
            .li(3, n / 4)
            .li(1, 0);
        ch.producerInit(p);
        p.label("loop").bge(1, 3, "done");
        p.slli(5, 1, 2)
            .slli(6, 1, 3)
            .add(5, 5, 6)
            .add(5, 10, 5); // rgb + 12*k
        if (ch.computeInFabric()) {
            ch.sendMem(p,
                       {{5, 0, false}, {5, 4, false}, {5, 8, false}},
                       21);
        } else {
            // compute the four lumas on the core and send them
            emitYcc(p);
            p.mv(13, 20);
            p.addi(5, 5, 3);
            emitYcc(p);
            p.mv(14, 20);
            p.addi(5, 5, 3);
            emitYcc(p);
            p.mv(15, 20);
            p.addi(5, 5, 3);
            emitYcc(p);
            ch.send(p, {13, 14, 15, 20});
        }
        p.addi(1, 1, 1).j("loop").label("done").halt();

        ProgramBuilder c("cjpeg_cons");
        c.li(12, static_cast<std::int64_t>(out))
            .li(3, n / 4)
            .li(1, 0);
        ch.consumerInit(c);
        c.label("loop").bge(1, 3, "done");
        ch.recv(c, {20, 21, 22, 23});
        c.add(26, 20, 21)
            .sub(27, 20, 21)
            .slli(5, 1, 4)
            .add(5, 12, 5)
            .sw(26, 5, 0)
            .sw(27, 5, 4)
            .add(26, 22, 23)
            .sub(27, 22, 23)
            .sw(26, 5, 8)
            .sw(27, 5, 12)
            .addi(1, 1, 1)
            .j("loop")
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
    r.workUnits = n;
    return r;
}

// ------------------------------------------------------------------ //
// adpcm decoder
// ------------------------------------------------------------------ //

PreparedRun
makeAdpcm(const RunSpec &spec)
{
    const unsigned n = spec.iterations ? spec.iterations : 10000;
    PreparedRun r =
        newRun("adpcm", detail::commVariantConfig(spec.variant));
    auto &m = r.system->memory();
    AddrAllocator alloc;

    const Addr deltas = alloc.alloc(n);
    auto data = randomU8(n, 0, 15, 0xadbc);
    storeU8Array(m, deltas, data);
    const Addr stepTab = alloc.alloc(256 * 4);
    storeI32Array(m, stepTab, adpcmStepLut());
    const Addr idxTab = alloc.alloc(256 * 4);
    storeI32Array(m, idxTab, adpcmIndexLut());
    const Addr out = alloc.alloc(n * 4);

    // Golden IMA-ADPCM-style decode.
    std::vector<std::int32_t> expect(n);
    {
        std::int32_t index = 0, valpred = 0;
        for (unsigned i = 0; i < n; ++i) {
            int d = data[i] & 15;
            std::int32_t step = adpcmStepLut()[index];
            std::int32_t vpdiff = step >> 3;
            if (d & 4)
                vpdiff += step;
            if (d & 2)
                vpdiff += step >> 1;
            if (d & 1)
                vpdiff += step >> 2;
            valpred += (d & 8) ? -vpdiff : vpdiff;
            if (valpred > 32767)
                valpred = 32767;
            else if (valpred < -32768)
                valpred = -32768;
            index += adpcmIndexLut()[d];
            if (index < 0)
                index = 0;
            else if (index > 88)
                index = 88;
            expect[i] = valpred;
        }
    }

    Channel ch(r, spec.variant, alloc, "adpcm",
               [] { return adpcmDelta(); },
               [] { return spl::functions::passthrough(2); });

    // Producer-side index chain: token in x6 -> step in x7; keeps
    // index in x13. x8/x9 scratch, x17 constant 88.
    auto emitIndexChain = [&](ProgramBuilder &b) {
        b.slli(8, 13, 2)
            .li(9, static_cast<std::int64_t>(stepTab))
            .add(8, 8, 9)
            .lw(7, 8, 0)        // step = steptab[index]
            .slli(8, 6, 2)
            .li(9, static_cast<std::int64_t>(idxTab))
            .add(8, 8, 9)
            .lw(9, 8, 0)
            .add(13, 13, 9)     // index += adj
            .max(13, 13, 0)
            .min(13, 13, 17);
    };

    // Consumer-side: signed vpdiff in x20 -> valpred x14 update,
    // clamp (branch form), store to out[x2].
    auto emitValpred = [&](ProgramBuilder &b, bool branchy_clamp) {
        b.add(14, 14, 20);
        if (branchy_clamp) {
            b.li(8, 32767)
                .bge(8, 14, "no_hi")
                .mv(14, 8)
                .label("no_hi")
                .li(8, -32768)
                .bge(14, 8, "no_lo")
                .mv(14, 8)
                .label("no_lo");
        } else {
            b.li(8, 32767).min(14, 14, 8).li(8, -32768).max(14, 14,
                                                            8);
        }
    };

    // Scalar vpdiff computation (branch form): x6=delta, x7=step ->
    // signed vpdiff in x20. Scratch x8, x9.
    auto emitVpdiff = [&](ProgramBuilder &b, const char *sfx) {
        std::string s1 = std::string("no4") + sfx;
        std::string s2 = std::string("no2") + sfx;
        std::string s3 = std::string("no1") + sfx;
        std::string s4 = std::string("neg") + sfx;
        std::string s5 = std::string("sgn") + sfx;
        b.srai(20, 7, 3)
            .andi(8, 6, 4)
            .beq(8, 0, s1)
            .add(20, 20, 7)
            .label(s1)
            .andi(8, 6, 2)
            .beq(8, 0, s2)
            .srai(9, 7, 1)
            .add(20, 20, 9)
            .label(s2)
            .andi(8, 6, 1)
            .beq(8, 0, s3)
            .srai(9, 7, 2)
            .add(20, 20, 9)
            .label(s3)
            .andi(8, 6, 8)
            .beq(8, 0, s5)
            .sub(20, 0, 20)
            .label(s4)
            .label(s5);
    };

    if (spec.variant == Variant::Seq ||
        spec.variant == Variant::SeqOoo2) {
        ProgramBuilder b(std::string("adpcm_") +
                         variantName(spec.variant));
        b.li(10, static_cast<std::int64_t>(deltas))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(1, 0)
            .li(13, 0)   // index
            .li(14, 0)   // valpred
            .li(17, 88);
        b.label("loop").bge(1, 3, "done");
        b.add(5, 10, 1).lbu(6, 5, 0);
        emitIndexChain(b);
        emitVpdiff(b, "_seq");
        emitValpred(b, /*branchy=*/true);
        b.slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(14, 5, 0)
            .addi(1, 1, 1)
            .j("loop")
            .label("done")
            .halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else if (spec.variant == Variant::Comp) {
        // The index/step chain pipelines ahead of the fabric's
        // vpdiff computation; valpred accumulates at consume time.
        ProgramBuilder b("adpcm_comp");
        b.li(10, static_cast<std::int64_t>(deltas))
            .li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(13, 0)   // index
            .li(14, 0)   // valpred
            .li(17, 88);
        auto produce = [&](ProgramBuilder &p) {
            p.add(5, 10, 1)
                .lbu(6, 5, 0)       // delta
                .splLoad(6, 0)
                .slli(8, 13, 2)
                .li(9, static_cast<std::int64_t>(stepTab))
                .add(8, 8, 9)
                .splLoadM(8, 0, 1)  // step straight to the queue
                .splInit(ch.compCfg())
                // index chain (independent of the fabric result)
                .slli(8, 6, 2)
                .li(9, static_cast<std::int64_t>(idxTab))
                .add(8, 8, 9)
                .lw(9, 8, 0)
                .add(13, 13, 9)
                .max(13, 13, 0)
                .min(13, 13, 17);
        };
        auto consume = [&](ProgramBuilder &p) {
            p.splStore(20, 0);
            emitValpred(p, /*branchy=*/false);
            p.slli(5, 2, 2).add(5, 12, 5).sw(14, 5, 0);
        };
        emitPipelinedComm(b, 3, produce, consume);
        b.halt();
        auto &t = r.system->createThread(r.addProgram(b.build()));
        r.system->mapThread(t.id, 0);
    } else {
        ProgramBuilder p("adpcm_prod");
        p.li(10, static_cast<std::int64_t>(deltas))
            .li(3, n)
            .li(1, 0)
            .li(13, 0)
            .li(17, 88);
        ch.producerInit(p);
        p.label("loop").bge(1, 3, "done");
        p.add(5, 10, 1).lbu(6, 5, 0);
        emitIndexChain(p);
        ch.send(p, {6, 7});
        p.addi(1, 1, 1).j("loop").label("done").halt();

        ProgramBuilder c("adpcm_cons");
        c.li(12, static_cast<std::int64_t>(out))
            .li(3, n)
            .li(1, 0)
            .li(14, 0);
        ch.consumerInit(c);
        c.label("loop").bge(1, 3, "done");
        if (ch.computeInFabric()) {
            ch.recv(c, {20}); // signed vpdiff from the fabric
            emitValpred(c, /*branchy=*/false);
        } else {
            ch.recv(c, {6, 7});
            emitVpdiff(c, "_cons");
            emitValpred(c, /*branchy=*/true);
        }
        c.slli(5, 1, 2)
            .add(5, 12, 5)
            .sw(14, 5, 0)
            .addi(1, 1, 1)
            .j("loop")
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
    r.workUnits = n;
    return r;
}

} // namespace remap::workloads
