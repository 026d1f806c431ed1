#include "cpu/core.hh"

#include <algorithm>
#include <bit>

#include "sim/env.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/trace.hh"

namespace remap::cpu
{

namespace
{

/** Execution latency by scheduling class, in core cycles. */
Cycle
opLatency(isa::OpClass cls)
{
    using isa::OpClass;
    switch (cls) {
      case OpClass::IntAlu:   return 1;
      case OpClass::IntMult:  return 3;
      case OpClass::IntDiv:   return 20;
      case OpClass::FpAlu:    return 4;
      case OpClass::FpMult:   return 6;
      case OpClass::FpDiv:    return 24;
      case OpClass::Branch:   return 1;
      case OpClass::SplLoad:
      case OpClass::SplInit:
      case OpClass::SplCfg:   return 1;
      case OpClass::SplStore: return 2;
      case OpClass::SplLoadMem:
      case OpClass::SplStoreMem: return 2; // overridden by cache
      case OpClass::Store:    return 1;
      case OpClass::Fence:    return 1;
      case OpClass::Halt:     return 1;
      case OpClass::Load:
      case OpClass::Amo:      return 2; // overridden by cache access
    }
    return 1;
}

/** Synthetic code-space base for a thread (outside workload data). */
std::uint64_t
codeBase(ThreadId tid)
{
    return 0x4000'0000ULL + (std::uint64_t(tid) << 20);
}

} // namespace

CoreParams
CoreParams::ooo1()
{
    CoreParams p;
    p.name = "ooo1";
    return p;
}

CoreParams
CoreParams::ooo2()
{
    CoreParams p;
    p.name = "ooo2";
    p.fetchWidth = 4;
    p.renameWidth = 4;
    p.issueWidth = 2;
    p.retireWidth = 2;
    p.intAlus = 2;
    p.branchUnits = 2;
    return p;
}

OooCore::OooCore(CoreId id, const CoreParams &params,
                 mem::MemSystem *mem, mem::MemoryImage *image)
    : id_(id),
      params_(params),
      mem_(mem),
      image_(image),
      bpred_(params.bpred),
      statGroup_("core" + std::to_string(id) + "." + params.name)
{
    REMAP_ASSERT(params_.robEntries > 0 &&
                     params_.fetchBufferEntries > 0,
                 "core needs a ROB and a fetch buffer");
    const std::size_t window = std::bit_ceil(
        std::size_t{params_.robEntries} + params_.fetchBufferEntries);
    win_.resize(window);
    winMask_ = window - 1;
    iq_.reserve(params_.intQueueEntries + params_.fpQueueEntries);
    stores_.reserve(params_.robEntries);
    inflight_.reserve(params_.robEntries);
    // Kill switches latched once per core (see sim/env.hh), so a
    // single process can construct reference and fast-path systems
    // side by side: the block cache governs pre-decode and the
    // operand-readiness memo.
    blockCacheEnabled_ = !env::noBlockCache();
    statGroup_.addCounter("committed_insts", &committedInsts);
    statGroup_.addCounter("committed_int", &committedIntOps);
    statGroup_.addCounter("committed_fp", &committedFpOps);
    statGroup_.addCounter("committed_loads", &committedLoads);
    statGroup_.addCounter("committed_stores", &committedStores);
    statGroup_.addCounter("committed_branches", &committedBranches);
    statGroup_.addCounter("committed_spl", &committedSplOps);
    statGroup_.addCounter("fetched_insts", &fetchedInsts);
    statGroup_.addCounter("mispredicts", &mispredicts);
    statGroup_.addCounter("rob_full_stalls", &robFullStalls);
    statGroup_.addCounter("iq_full_stalls", &iqFullStalls);
    statGroup_.addCounter("lsq_full_stalls", &lsqFullStalls);
    statGroup_.addCounter("spl_commit_stalls", &splCommitStalls);
    statGroup_.addCounter("spl_fetch_stalls", &splFetchStalls);
    statGroup_.addCounter("fetch_stall_cycles", &fetchStallCycles);
    statGroup_.addCounter("active_cycles", &activeCycles);
    statGroup_.addCounter("bpred_lookups", &bpred_.lookups);
    statGroup_.addCounter("bpred_mispredicts", &bpred_.mispredicts);
    statGroup_.addCounter("bpred_btb_misses", &bpred_.btbMisses);
}

void
OooCore::attachSpl(spl::SplFabric *fabric, unsigned local_slot)
{
    spl_ = fabric;
    splSlot_ = local_slot;
}

void
OooCore::setTracer(trace::Tracer *t, std::uint32_t tid)
{
    tracer_ = t;
    traceTid_ = tid;
    splCommitStallStart_ = 0;
    splFetchStallStart_ = 0;
}

void
OooCore::traceEndStall(Cycle now, bool commit_side)
{
    Cycle &start =
        commit_side ? splCommitStallStart_ : splFetchStallStart_;
    if (start == 0 || now <= start) {
        start = 0;
        return;
    }
    tracer_->complete(trace::Category::Core,
                      commit_side ? "spl_commit_stall"
                                  : "spl_fetch_stall",
                      traceTid_, start, now - start,
                      {trace::Arg{"core", std::uint64_t(id_)}});
    start = 0;
}

void
OooCore::bindThread(ThreadContext *ctx)
{
    REMAP_ASSERT(drained(), "binding a thread over a live pipeline");
    ctx_ = ctx;
    fetchHalted_ = ctx == nullptr || ctx->halted;
    fetchResumeCycle_ = 0;
    fetchBlockedOnSeq_ = 0;
    std::fill(std::begin(intProducer_), std::end(intProducer_), 0);
    std::fill(std::begin(fpProducer_), std::end(fpProducer_), 0);
    rebuildDecoded();
}

void
OooCore::rebuildDecoded()
{
    // Rebuild unconditionally rather than keying on the program
    // pointer: a rebuild is O(program size) and only happens at
    // bind/restore points, and never trusting a stale pointer rules
    // out aliasing against a recycled Program allocation.
    if (!blockCacheEnabled_ || !ctx_ || !ctx_->program) {
        decodedFor_ = nullptr;
        return;
    }
    decoded_.build(*ctx_->program);
    decodedFor_ = ctx_->program;
}

bool
OooCore::done() const
{
    return !ctx_ || (ctx_->halted && drained());
}

bool
OooCore::olderStoreIncomplete(std::uint64_t seq) const
{
    for (const std::uint64_t s : stores_) {
        if (s >= seq)
            break;
        if (win_[s & winMask_].stage != Stage::Completed)
            return true;
    }
    return false;
}

std::uint64_t
OooCore::producerOf(bool fp, isa::RegIndex r) const
{
    std::uint64_t seq = fp ? fpProducer_[r] : intProducer_[r];
    if (seq == 0 || !findBySeq(seq))
        return 0;
    return seq;
}

void
OooCore::recordProducer(const DynInst &d)
{
    if (d.flags & isa::kWritesInt)
        intProducer_[d.si->rd] = d.seq;
    else if (d.flags & isa::kWritesFp)
        fpProducer_[d.si->rd] = d.seq;
}

bool
OooCore::operandsReady(DynInst &d, Cycle now)
{
    // Memo fast path: readiness is monotone (a producer's stage only
    // advances and its completeCycle is fixed once issued), so a
    // cached lower bound on the first possibly-ready cycle is safe —
    // before that cycle the walk below provably returns false.
    // Gated with the block cache so REMAP_NO_BLOCK_CACHE=1 restores
    // the pristine per-cycle producer walk.
    if (blockCacheEnabled_ && now < d.notReadyUntil)
        return false;
    for (std::uint64_t dep : {d.dep1, d.dep2}) {
        if (dep == 0)
            continue;
        const DynInst *p = findBySeq(dep);
        if (p && (p->stage != Stage::Completed ||
                  p->completeCycle > now)) {
            // An issued producer becomes consumable exactly at its
            // completeCycle (writeback runs before issue each tick).
            // An unissued one sits at or after this core's walk
            // position (producers have lower seqs), so it issues at
            // now + 1 at the earliest and, with the 1-cycle minimum
            // op latency, cannot be consumable before now + 2.
            d.notReadyUntil = p->stage == Stage::Issued
                                  ? p->completeCycle
                                  : now + 2;
            return false;
        }
    }
    d.notReadyUntil = 0;
    return true;
}

bool
OooCore::funcExecute(const isa::Instruction &inst, DynInst &d)
{
    using isa::Opcode;
    ThreadContext &t = *ctx_;
    const std::int64_t a = t.readInt(inst.rs1);
    const std::int64_t b = t.readInt(inst.rs2);
    const double fa = t.fpRegs[inst.rs1];
    const double fbv = t.fpRegs[inst.rs2];
    std::uint32_t next_pc = t.pc + 1;

    // No default: -Wswitch (an error under -Werror) flags any opcode
    // added to the enum without a body here.
    switch (inst.op) {
      case Opcode::ADD: t.writeInt(inst.rd, isa::wrapAdd(a, b)); break;
      case Opcode::SUB: t.writeInt(inst.rd, isa::wrapSub(a, b)); break;
      case Opcode::AND: t.writeInt(inst.rd, a & b); break;
      case Opcode::OR: t.writeInt(inst.rd, a | b); break;
      case Opcode::XOR: t.writeInt(inst.rd, a ^ b); break;
      case Opcode::SLL:
        t.writeInt(inst.rd, static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(a) << (b & 63)));
        break;
      case Opcode::SRL:
        t.writeInt(inst.rd, static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(a) >> (b & 63)));
        break;
      case Opcode::SRA: t.writeInt(inst.rd, a >> (b & 63)); break;
      case Opcode::SLT: t.writeInt(inst.rd, a < b ? 1 : 0); break;
      case Opcode::SLTU:
        t.writeInt(inst.rd, static_cast<std::uint64_t>(a) <
                                    static_cast<std::uint64_t>(b) ? 1 : 0);
        break;
      case Opcode::MIN: t.writeInt(inst.rd, std::min(a, b)); break;
      case Opcode::MAX: t.writeInt(inst.rd, std::max(a, b)); break;
      case Opcode::MUL: t.writeInt(inst.rd, isa::wrapMul(a, b)); break;
      case Opcode::DIV: t.writeInt(inst.rd, b == 0 ? -1 : a / b); break;
      case Opcode::REM: t.writeInt(inst.rd, b == 0 ? a : a % b); break;
      case Opcode::ADDI:
        t.writeInt(inst.rd, isa::wrapAdd(a, inst.imm));
        break;
      case Opcode::ANDI: t.writeInt(inst.rd, a & inst.imm); break;
      case Opcode::ORI: t.writeInt(inst.rd, a | inst.imm); break;
      case Opcode::XORI: t.writeInt(inst.rd, a ^ inst.imm); break;
      case Opcode::SLLI:
        t.writeInt(inst.rd, static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(a)
                                << (inst.imm & 63)));
        break;
      case Opcode::SRLI:
        t.writeInt(inst.rd, static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(a) >>
                                (inst.imm & 63)));
        break;
      case Opcode::SRAI: t.writeInt(inst.rd, a >> (inst.imm & 63)); break;
      case Opcode::SLTI: t.writeInt(inst.rd, a < inst.imm ? 1 : 0); break;
      case Opcode::LI: t.writeInt(inst.rd, inst.imm); break;
      case Opcode::FADD: t.fpRegs[inst.rd] = fa + fbv; break;
      case Opcode::FSUB: t.fpRegs[inst.rd] = fa - fbv; break;
      case Opcode::FMUL: t.fpRegs[inst.rd] = fa * fbv; break;
      case Opcode::FDIV: t.fpRegs[inst.rd] = fa / fbv; break;
      case Opcode::FMIN: t.fpRegs[inst.rd] = std::min(fa, fbv); break;
      case Opcode::FMAX: t.fpRegs[inst.rd] = std::max(fa, fbv); break;
      case Opcode::FLT: t.writeInt(inst.rd, fa < fbv ? 1 : 0); break;
      case Opcode::FLE: t.writeInt(inst.rd, fa <= fbv ? 1 : 0); break;
      case Opcode::FCVT_I2F:
        t.fpRegs[inst.rd] = static_cast<double>(a);
        break;
      case Opcode::FCVT_F2I:
        t.writeInt(inst.rd, static_cast<std::int64_t>(fa));
        break;
      case Opcode::FMV: t.fpRegs[inst.rd] = fa; break;
      case Opcode::LD:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 8;
        t.writeInt(inst.rd, image_->readI64(d.memAddr));
        break;
      case Opcode::LW:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 4;
        t.writeInt(inst.rd, image_->readI32(d.memAddr));
        break;
      case Opcode::LBU:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 1;
        t.writeInt(inst.rd, image_->readU8(d.memAddr));
        break;
      case Opcode::SD:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 8;
        d.storeValue = b;
        image_->writeI64(d.memAddr, b);
        break;
      case Opcode::SW:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 4;
        d.storeValue = b;
        image_->writeI32(d.memAddr, static_cast<std::int32_t>(b));
        break;
      case Opcode::SB:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 1;
        d.storeValue = b;
        image_->writeU8(d.memAddr, static_cast<std::uint8_t>(b));
        break;
      case Opcode::FLD:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 8;
        t.fpRegs[inst.rd] = image_->readF64(d.memAddr);
        break;
      case Opcode::FSD:
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 8;
        image_->writeF64(d.memAddr, fbv);
        break;
      case Opcode::AMOADD: {
        d.memAddr = static_cast<Addr>(a);
        d.memLen = 8;
        const std::int64_t old = image_->readI64(d.memAddr);
        image_->writeI64(d.memAddr, isa::wrapAdd(old, b));
        t.writeInt(inst.rd, old);
        break;
      }
      case Opcode::AMOSWAP: {
        d.memAddr = static_cast<Addr>(a);
        d.memLen = 8;
        const std::int64_t old = image_->readI64(d.memAddr);
        image_->writeI64(d.memAddr, b);
        t.writeInt(inst.rd, old);
        break;
      }
      case Opcode::FENCE: break;
      case Opcode::BEQ: if (a == b) next_pc = inst.target; break;
      case Opcode::BNE: if (a != b) next_pc = inst.target; break;
      case Opcode::BLT: if (a < b) next_pc = inst.target; break;
      case Opcode::BGE: if (a >= b) next_pc = inst.target; break;
      case Opcode::BLTU:
        if (static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b))
            next_pc = inst.target;
        break;
      case Opcode::BGEU:
        if (static_cast<std::uint64_t>(a) >= static_cast<std::uint64_t>(b))
            next_pc = inst.target;
        break;
      case Opcode::J: next_pc = inst.target; break;
      case Opcode::SPL_CFG: break;
      case Opcode::SPL_LOAD:
        REMAP_ASSERT(spl_, "spl_load on a core without a fabric");
        d.splLoadValue = b;
        spl_->funcLoad(splSlot_, static_cast<unsigned>(inst.imm),
                       static_cast<std::int32_t>(b));
        break;
      case Opcode::SPL_LOADM:
        REMAP_ASSERT(spl_, "spl_loadm on a core without a fabric");
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 4;
        d.splLoadValue = image_->readI32(d.memAddr);
        spl_->funcLoad(splSlot_, static_cast<unsigned>(inst.imm2),
                       static_cast<std::int32_t>(d.splLoadValue));
        break;
      case Opcode::SPL_LOADMB:
        REMAP_ASSERT(spl_, "spl_loadmb on a core without a fabric");
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 1;
        d.splLoadValue = image_->readU8(d.memAddr);
        spl_->funcLoad(splSlot_, static_cast<unsigned>(inst.imm2),
                       static_cast<std::int32_t>(d.splLoadValue));
        break;
      case Opcode::SPL_INIT:
        REMAP_ASSERT(spl_, "spl_init on a core without a fabric");
        spl_->funcInit(splSlot_, static_cast<ConfigId>(inst.imm),
                       inst.imm2);
        break;
      case Opcode::SPL_BAR:
        REMAP_ASSERT(spl_, "spl_bar on a core without a fabric");
        spl_->funcBar(splSlot_, static_cast<ConfigId>(inst.imm),
                      static_cast<std::uint32_t>(inst.imm2));
        break;
      case Opcode::SPL_STORE: {
        REMAP_ASSERT(spl_, "spl_store on a core without a fabric");
        auto v = spl_->funcPop(splSlot_);
        if (!v)
            return false; // stall fetch until a value is produced
        d.splValue = *v;
        t.writeInt(inst.rd, static_cast<std::int64_t>(*v));
        break;
      }
      case Opcode::SPL_STOREM: {
        REMAP_ASSERT(spl_, "spl_storem on a core without a fabric");
        auto v = spl_->funcPop(splSlot_);
        if (!v)
            return false; // stall fetch until a value is produced
        d.splValue = *v;
        d.memAddr = static_cast<Addr>(a + inst.imm);
        d.memLen = 4;
        d.storeValue = *v;
        image_->writeI32(d.memAddr, *v);
        break;
      }
      case Opcode::HALT: break;
      case Opcode::NOP: break;
    }
    t.pc = next_pc;
    return true;
}

void
OooCore::unbindThread()
{
    REMAP_ASSERT(drained(), "unbinding a thread mid-flight");
    ctx_ = nullptr;
    draining_ = false;
    fetchHalted_ = true;
}

void
OooCore::fetch(Cycle now)
{
    if (!ctx_ || fetchHalted_ || draining_)
        return;
    if (fetchBlockedOnSeq_ != 0 || now < fetchResumeCycle_) {
        ++fetchStallCycles;
        stallMask_ |= kStallFetch;
        return;
    }

    const std::uint64_t base = codeBase(ctx_->id);
    Cycle icache_ready = 0;
    bool accessed_icache = false;
    bool icache_pure_hit = false;

    const isa::Instruction *code = ctx_->program->code.data();
    // With the block cache on, fetch reads pre-decoded metadata; with
    // it off (or after a bind the table missed), every instruction is
    // re-decoded on the spot through the same decodeOne(), so the two
    // cannot disagree.
    const isa::DecodedInst *table =
        (blockCacheEnabled_ && decodedFor_ == ctx_->program)
            ? decoded_.insts.data()
            : nullptr;

    unsigned n = 0;
    while (n < params_.fetchWidth) {
        if (fbSize() >= params_.fetchBufferEntries)
            break;
        REMAP_ASSERT(ctx_->pc < ctx_->program->code.size(),
                     "pc fell off the end of program '%s'",
                     ctx_->program->name.c_str());

        const std::uint32_t fetch_pc = ctx_->pc;
        const isa::Instruction &inst = code[fetch_pc];
        const isa::DecodedInst dec =
            table ? table[fetch_pc] : isa::decodeOne(inst);

        // Construct the entry in its window slot; it joins the fetch
        // buffer only when nextSeq_ advances past it below.
        DynInst &d = slot(nextSeq_);
        d = DynInst{};
        d.si = &inst;
        d.cls = dec.cls;
        d.flags = dec.flags;
        d.pcAddr = base + std::uint64_t(fetch_pc) * 8;
        d.usesFpQueue = (dec.flags & isa::kUsesFpQueue) != 0;

        if (!accessed_icache) {
            const std::uint64_t misses_before =
                mem_->l1iMisses(id_);
            icache_ready =
                mem_->access(id_, d.pcAddr, mem::AccessKind::IFetch,
                             now);
            accessed_icache = true;
            // A pure L1I hit touches only the hit counter and the LRU
            // stamp — the one repeatable-per-cycle side effect a
            // sleeping core's catch-up is allowed to bulk-replicate.
            icache_pure_hit =
                mem_->l1iMisses(id_) == misses_before;
            if (!icache_pure_hit)
                tickProgress_ = true;
        }

        if (!funcExecute(inst, d)) {
            ++splFetchStalls;
            stallMask_ |= kStallSplFetch;
            stallFetchAddr_ = d.pcAddr;
            if (tracer_ && splFetchStallStart_ == 0)
                splFetchStallStart_ = now;
            break;
        }
        if (tracer_ && splFetchStallStart_ != 0)
            traceEndStall(now, false);
        d.seq = nextSeq_++;
        d.fbReady = std::max(icache_ready, now + 1);
        ++fetchedInsts;
        tickProgress_ = true;
        ++n;

        if (dec.flags & isa::kIsBranch) {
            const bool taken = (ctx_->pc != fetch_pc + 1);
            const std::uint64_t target =
                base + std::uint64_t(ctx_->pc) * 8;
            bool btb_hit = false;
            const bool pred = bpred_.predict(d.pcAddr, &btb_hit);
            bpred_.update(d.pcAddr, taken, target);
            if (!(dec.flags & isa::kIsJump) && pred != taken) {
                d.mispredicted = true;
                ++mispredicts;
                fetchBlockedOnSeq_ = d.seq;
                break;
            }
            if (taken) {
                if (!btb_hit)
                    fetchResumeCycle_ = now + params_.btbMissPenalty;
                break; // a taken branch ends the fetch group
            }
        }
        if (inst.op == isa::Opcode::HALT) {
            fetchHalted_ = true;
            break;
        }
    }
}

void
OooCore::dispatch(Cycle now)
{
    for (unsigned n = 0; n < params_.renameWidth && fbSize() != 0;
         ++n) {
        DynInst &d = slot(dispSeq_);
        if (d.fbReady > now)
            break;
        if (robSize() >= params_.robEntries) {
            ++robFullStalls;
            stallMask_ |= kStallRobFull;
            break;
        }
        unsigned &queue_occ =
            d.usesFpQueue ? fpQueueOcc_ : intQueueOcc_;
        const unsigned queue_cap = d.usesFpQueue
                                       ? params_.fpQueueEntries
                                       : params_.intQueueEntries;
        if (queue_occ >= queue_cap) {
            ++iqFullStalls;
            stallMask_ |= kStallIqFull;
            break;
        }
        const bool is_load = (d.flags & isa::kLsqLoad) != 0;
        const bool is_store = (d.flags & isa::kLsqStore) != 0;
        if (is_load && loadQueueOcc_ >= params_.loadQueueEntries) {
            ++lsqFullStalls;
            stallMask_ |= kStallLsqFull;
            break;
        }
        if (is_store && storeQueueOcc_ >= params_.storeQueueEntries) {
            ++lsqFullStalls;
            stallMask_ |= kStallLsqFull;
            break;
        }

        // Rename: look up producers, then publish this instruction.
        d.dep1 = 0;
        d.dep2 = 0;
        if (d.flags & isa::kReadsIntRs1)
            d.dep1 = producerOf(false, d.si->rs1);
        else if (d.flags & isa::kReadsFpRs1)
            d.dep1 = producerOf(true, d.si->rs1);
        if (d.flags & isa::kReadsIntRs2)
            d.dep2 = producerOf(false, d.si->rs2);
        else if (d.flags & isa::kReadsFpRs2)
            d.dep2 = producerOf(true, d.si->rs2);

        d.stage = Stage::Dispatched;
        ++queue_occ;
        if (is_load)
            ++loadQueueOcc_;
        if (is_store)
            ++storeQueueOcc_;
        tickProgress_ = true;
        iq_.push_back(d.seq);
        if (d.flags & isa::kStoreLike)
            stores_.push_back(d.seq);
        ++dispSeq_;
        recordProducer(d);
    }
}

void
OooCore::issue(Cycle now)
{
    if (iq_.empty())
        return;
    unsigned issued = 0;
    unsigned int_alus = params_.intAlus;
    unsigned fp_alus = params_.fpAlus;
    unsigned branch_units = params_.branchUnits;
    unsigned ldst_units = params_.ldStUnits;
    bool saw_unissued_spl_store = false;

    // The issue queue holds exactly the Dispatched entries, oldest
    // first, so this is the age-ordered select over the window.
    for (std::size_t i = 0; i < iq_.size();) {
        if (issued >= params_.issueWidth)
            break;
        DynInst &d = slot(iq_[i]);
        const isa::OpClass cls = d.cls;
        const bool is_spl_pop = (d.flags & isa::kSplPop) != 0;

        if (!operandsReady(d, now)) {
            if (is_spl_pop) {
                saw_unissued_spl_store = true;
                stallMask_ |= kWaitSplPop;
            }
            ++i;
            continue;
        }

        Cycle complete = 0;
        bool can_issue = true;
        switch (cls) {
          case isa::OpClass::IntAlu:
          case isa::OpClass::SplLoad:
          case isa::OpClass::SplInit:
          case isa::OpClass::SplCfg:
          case isa::OpClass::Halt:
            if (int_alus == 0) { can_issue = false; break; }
            --int_alus;
            complete = now + opLatency(cls);
            break;
          case isa::OpClass::IntMult:
            if (int_alus == 0) { can_issue = false; break; }
            --int_alus;
            complete = now + opLatency(cls);
            break;
          case isa::OpClass::IntDiv:
            if (int_alus == 0 || divBusyUntil_ > now) {
                can_issue = false;
                break;
            }
            --int_alus;
            complete = now + opLatency(cls);
            divBusyUntil_ = complete;
            break;
          case isa::OpClass::FpAlu:
          case isa::OpClass::FpMult:
            if (fp_alus == 0) { can_issue = false; break; }
            --fp_alus;
            complete = now + opLatency(cls);
            break;
          case isa::OpClass::FpDiv:
            if (fp_alus == 0 || fpDivBusyUntil_ > now) {
                can_issue = false;
                break;
            }
            --fp_alus;
            complete = now + opLatency(cls);
            fpDivBusyUntil_ = complete;
            break;
          case isa::OpClass::Branch:
            if (branch_units == 0) { can_issue = false; break; }
            --branch_units;
            complete = now + opLatency(cls);
            break;
          case isa::OpClass::Store:
          case isa::OpClass::Fence:
            if (ldst_units == 0) { can_issue = false; break; }
            --ldst_units;
            complete = now + opLatency(cls);
            break;
          case isa::OpClass::Load:
          case isa::OpClass::SplLoadMem: {
            if (ldst_units == 0) { can_issue = false; break; }
            // Store-to-load: check older overlapping stores.
            bool forwarded = false;
            bool blocked = false;
            for (const std::uint64_t seq : stores_) {
                if (seq >= d.seq)
                    break;
                const DynInst &s = slot(seq);
                if (!(s.flags & isa::kMemWrite))
                    continue;
                const bool overlap =
                    s.memAddr < d.memAddr + d.memLen &&
                    d.memAddr < s.memAddr + s.memLen;
                if (!overlap)
                    continue;
                if (s.stage == Stage::Completed &&
                    s.completeCycle <= now) {
                    forwarded = true; // forward from the store queue
                } else {
                    blocked = true;   // data not ready yet
                    break;
                }
            }
            if (blocked) { can_issue = false; break; }
            --ldst_units;
            if (forwarded)
                complete = now + 2;
            else
                complete = mem_->access(id_, d.memAddr,
                                        mem::AccessKind::Read, now);
            break;
          }
          case isa::OpClass::Amo:
            // Atomics issue non-speculatively: wait for every older
            // store/fence to complete first.
            if (ldst_units == 0 || olderStoreIncomplete(d.seq)) {
                can_issue = false;
                break;
            }
            --ldst_units;
            complete = mem_->access(id_, d.memAddr,
                                    mem::AccessKind::Amo, now);
            break;
          case isa::OpClass::SplStore:
          case isa::OpClass::SplStoreMem: {
            if (ldst_units == 0 || saw_unissued_spl_store) {
                can_issue = false;
                break;
            }
            if (!spl_->outputReady(splSlot_, now)) {
                can_issue = false;
                saw_unissued_spl_store = true;
                break;
            }
            --ldst_units;
            const std::int32_t timed = spl_->popOutput(splSlot_, now);
            REMAP_ASSERT(timed == d.splValue,
                         "timed/functional SPL value mismatch "
                         "(%d vs %d)", timed, d.splValue);
            complete = now + opLatency(cls);
            break;
          }
        }

        if (!can_issue) {
            if (is_spl_pop)
                stallMask_ |= kWaitSplPop;
            ++i;
            continue;
        }

        d.stage = Stage::Issued;
        d.completeCycle = complete;
        minIssuedComplete_ = std::min(minIssuedComplete_, complete);
        tickProgress_ = true;
        inflight_.push_back(d.seq);
        iq_.erase(iq_.begin() + static_cast<std::ptrdiff_t>(i));
        if (d.usesFpQueue)
            --fpQueueOcc_;
        else
            --intQueueOcc_;
        ++issued;
    }
}

void
OooCore::writeback(Cycle now)
{
    // minIssuedComplete_ is the exact minimum completeCycle over the
    // in-flight list, so when it lies in the future the walk below
    // would transition nothing — skip it. The walk recomputes the
    // minimum over the entries it leaves in flight.
    if (minIssuedComplete_ > now)
        return;
    Cycle new_min = neverCycle;
    for (std::size_t i = 0; i < inflight_.size();) {
        DynInst &d = slot(inflight_[i]);
        if (d.completeCycle > now) {
            new_min = std::min(new_min, d.completeCycle);
            ++i;
            continue;
        }
        d.stage = Stage::Completed;
        tickProgress_ = true;
        if (d.seq == fetchBlockedOnSeq_) {
            fetchBlockedOnSeq_ = 0;
            fetchResumeCycle_ = std::max(
                fetchResumeCycle_,
                d.completeCycle + params_.redirectPenalty);
        }
        inflight_[i] = inflight_.back();
        inflight_.pop_back();
    }
    minIssuedComplete_ = new_min;
}

void
OooCore::commit(Cycle now)
{
    for (unsigned n = 0; n < params_.retireWidth && robSize() != 0;
         ++n) {
        DynInst &d = slot(headSeq_);
        if (d.stage != Stage::Completed || d.completeCycle > now)
            break;
        const isa::OpClass cls = d.cls;

        switch (cls) {
          case isa::OpClass::Store: {
            Cycle wb = mem_->access(id_, d.memAddr,
                                    mem::AccessKind::Write, now);
            storeBufferDrainCycle_ =
                std::max(storeBufferDrainCycle_, wb);
            --storeQueueOcc_;
            ++committedStores;
            break;
          }
          case isa::OpClass::Fence:
            if (storeBufferDrainCycle_ > now)
                return;
            ++committedIntOps;
            break;
          case isa::OpClass::Load:
            --loadQueueOcc_;
            ++committedLoads;
            break;
          case isa::OpClass::Amo:
            --loadQueueOcc_;
            ++committedLoads;
            ++committedStores;
            break;
          case isa::OpClass::SplLoad:
            if (!spl_->canLoad(splSlot_)) {
                ++splCommitStalls;
                stallMask_ |= kStallSplCommit;
                if (tracer_ && splCommitStallStart_ == 0)
                    splCommitStallStart_ = now;
                return;
            }
            spl_->load(splSlot_,
                       static_cast<unsigned>(d.si->imm),
                       static_cast<std::int32_t>(d.splLoadValue));
            ++committedSplOps;
            break;
          case isa::OpClass::SplLoadMem:
            if (!spl_->canLoad(splSlot_)) {
                ++splCommitStalls;
                stallMask_ |= kStallSplCommit;
                if (tracer_ && splCommitStallStart_ == 0)
                    splCommitStallStart_ = now;
                return;
            }
            spl_->load(splSlot_,
                       static_cast<unsigned>(d.si->imm2),
                       static_cast<std::int32_t>(d.splLoadValue));
            --loadQueueOcc_;
            ++committedSplOps;
            ++committedLoads;
            break;
          case isa::OpClass::SplStoreMem: {
            Cycle wb = mem_->access(id_, d.memAddr,
                                    mem::AccessKind::Write, now);
            storeBufferDrainCycle_ =
                std::max(storeBufferDrainCycle_, wb);
            --storeQueueOcc_;
            ++committedSplOps;
            ++committedStores;
            break;
          }
          case isa::OpClass::SplInit:
            if (d.si->op == isa::Opcode::SPL_BAR) {
                if (!spl_->canBar(splSlot_)) {
                    ++splCommitStalls;
                    stallMask_ |= kStallSplCommit;
                    if (tracer_ && splCommitStallStart_ == 0)
                        splCommitStallStart_ = now;
                    return;
                }
                spl_->bar(splSlot_,
                          static_cast<ConfigId>(d.si->imm),
                          static_cast<std::uint32_t>(d.si->imm2),
                          now);
            } else {
                if (!spl_->canInit(splSlot_, d.si->imm2)) {
                    ++splCommitStalls;
                    stallMask_ |= kStallSplCommit;
                    if (tracer_ && splCommitStallStart_ == 0)
                        splCommitStallStart_ = now;
                    return;
                }
                spl_->init(splSlot_,
                           static_cast<ConfigId>(d.si->imm),
                           d.si->imm2, now);
            }
            ++committedSplOps;
            break;
          case isa::OpClass::SplStore:
          case isa::OpClass::SplCfg:
            ++committedSplOps;
            break;
          case isa::OpClass::Branch:
            ++committedBranches;
            break;
          case isa::OpClass::FpAlu:
          case isa::OpClass::FpMult:
          case isa::OpClass::FpDiv:
            ++committedFpOps;
            break;
          case isa::OpClass::Halt:
            ctx_->halted = true;
            ++committedIntOps;
            break;
          default:
            ++committedIntOps;
            break;
        }

        if (tracer_ && splCommitStallStart_ != 0)
            traceEndStall(now, true);
        ++committedInsts;
        if (trace_) {
            *trace_ << now << " core" << id_ << " pc=0x" << std::hex
                    << d.pcAddr << std::dec << ": "
                    << isa::disassemble(*d.si) << '\n';
        }
        tickProgress_ = true;
        if (d.flags & isa::kStoreLike)
            stores_.erase(stores_.begin());
        ++headSeq_;
    }
}

void
OooCore::tick(Cycle now)
{
    if (!ctx_)
        return;
    tickProgress_ = false;
    stallMask_ = 0;
    if (!done())
        ++activeCycles;
    // Host-time attribution: commit and writeback walk the same ROB
    // tail, issue and dispatch share the window, fetch stands alone.
    prof::PhaseScope phase(prof::Phase::WritebackCommit);
    commit(now);
    writeback(now);
    phase.set(prof::Phase::IssueExecute);
    issue(now);
    dispatch(now);
    phase.set(prof::Phase::FetchDecode);
    fetch(now);
}

Cycle
OooCore::nextEventCycle(Cycle now) const
{
    if (!ctx_ || done())
        return neverCycle;
    Cycle next = neverCycle;
    auto consider = [&](Cycle c) {
        if (c > now && c < next)
            next = c;
    };
    // Every `now`-comparison in the tick is against one of these
    // thresholds; anything <= now keeps its truth value as now grows,
    // so a quiet tick stays quiet until the earliest of them.
    consider(fetchResumeCycle_);
    consider(divBusyUntil_);
    consider(fpDivBusyUntil_);
    consider(storeBufferDrainCycle_);
    if (fbSize() != 0)
        consider(win_[dispSeq_ & winMask_].fbReady);
    // Exact minimum over Issued completions (maintained by issue/
    // writeback), equal to what walking the ROB would find: after a
    // quiet tick every Issued completion is > now, so the minimum is
    // the only one that can win.
    consider(minIssuedComplete_);
    if (spl_)
        consider(spl_->outputHeadReadyCycle(splSlot_));
    return next;
}

void
OooCore::accountSkippedStallCycles(Cycle n)
{
    if (n == 0 || !ctx_ || done())
        return;
    activeCycles += n;
    if (stallMask_ & kStallFetch)
        fetchStallCycles += n;
    if (stallMask_ & kStallSplFetch) {
        splFetchStalls += n;
        // The stalled spl_store re-probes its own icache line every
        // cycle; replicate those guaranteed-pure hits in bulk so the
        // cache hit counters and LRU clock match the per-cycle loop.
        mem_->accountRepeatedIFetchHits(id_, stallFetchAddr_, n);
    }
    if (stallMask_ & kStallSplCommit)
        splCommitStalls += n;
    if (stallMask_ & kStallRobFull)
        robFullStalls += n;
    if (stallMask_ & kStallIqFull)
        iqFullStalls += n;
    if (stallMask_ & kStallLsqFull)
        lsqFullStalls += n;
}

void
OooCore::dumpStats(std::ostream &os)
{
    statGroup_.dump(os);
}

void
OooCore::dumpStatsJson(json::Writer &w)
{
    statGroup_.dumpJson(w);
}

void
OooCore::resetStats()
{
    statGroup_.reset();
}

void
OooCore::save(snap::Serializer &s) const
{
    s.section("core");
    s.u32(id_);
    s.boolean(ctx_ != nullptr);

    // DynInst::si points into the bound program's code; serialize it
    // as an instruction index so restore can re-resolve the pointer.
    auto save_inst = [&](const DynInst &d) {
        std::uint32_t si_idx = ~std::uint32_t{0};
        if (d.si) {
            si_idx = static_cast<std::uint32_t>(
                d.si - ctx_->program->code.data());
        }
        s.u32(si_idx);
        s.u64(d.seq);
        s.u64(d.pcAddr);
        s.u8(static_cast<std::uint8_t>(d.stage));
        // Canonical: a field no later tick reads is written as 0 —
        // fbReady once dispatched, completeCycle once complete, the
        // producer seqs once issued — so two cores that will behave
        // identically save identical bytes however they got there.
        s.u64(d.stage == Stage::InBuffer ? d.fbReady : 0);
        s.u64(d.stage == Stage::Issued ? d.completeCycle : 0);
        s.u64(d.stage == Stage::Dispatched ? d.dep1 : 0);
        s.u64(d.stage == Stage::Dispatched ? d.dep2 : 0);
        s.u64(d.memAddr);
        s.u32(d.memLen);
        s.i64(d.storeValue);
        s.i32(d.splValue);
        s.i64(d.splLoadValue);
        s.boolean(d.mispredicted);
        s.boolean(d.usesFpQueue);
    };
    // The window is written as its two lists, fetch buffer first.
    s.u32(static_cast<std::uint32_t>(fbSize()));
    for (std::uint64_t seq = dispSeq_; seq != nextSeq_; ++seq)
        save_inst(win_[seq & winMask_]);
    s.u32(static_cast<std::uint32_t>(robSize()));
    for (std::uint64_t seq = headSeq_; seq != dispSeq_; ++seq)
        save_inst(win_[seq & winMask_]);

    s.u64(nextSeq_);
    for (std::uint64_t p : intProducer_)
        s.u64(p);
    for (std::uint64_t p : fpProducer_)
        s.u64(p);
    s.u32(intQueueOcc_);
    s.u32(fpQueueOcc_);
    s.u32(loadQueueOcc_);
    s.u32(storeQueueOcc_);
    s.u64(fetchResumeCycle_);
    s.u64(fetchBlockedOnSeq_);
    s.boolean(fetchHalted_);
    s.boolean(draining_);
    s.u64(divBusyUntil_);
    s.u64(fpDivBusyUntil_);
    s.u64(storeBufferDrainCycle_);

    bpred_.save(s);
    statGroup_.save(s);
}

void
OooCore::restore(snap::Deserializer &d)
{
    if (!d.section("core"))
        return;
    if (d.u32() != id_) {
        d.fail("core id mismatch");
        return;
    }
    const bool had_thread = d.boolean();
    if (had_thread != (ctx_ != nullptr)) {
        d.fail("thread binding mismatch");
        return;
    }

    auto restore_insts = [&](std::vector<DynInst> &q,
                             std::size_t capacity,
                             std::size_t elem_bytes) {
        const std::uint32_t n = d.count(elem_bytes);
        if (n > capacity) {
            d.fail("pipeline queue exceeds configured capacity");
            return;
        }
        q.reserve(n);
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            DynInst di;
            const std::uint32_t si_idx = d.u32();
            if (si_idx != ~std::uint32_t{0}) {
                if (!ctx_ || si_idx >= ctx_->program->code.size()) {
                    d.fail("instruction index out of range");
                    return;
                }
                di.si = &ctx_->program->code[si_idx];
                // Derived decode metadata is rebuilt, not restored;
                // decodeOne() is the same function the fetch paths
                // use, so restored entries match freshly fetched
                // ones bit for bit.
                const isa::DecodedInst dec = isa::decodeOne(*di.si);
                di.cls = dec.cls;
                di.flags = dec.flags;
            }
            di.seq = d.u64();
            di.pcAddr = d.u64();
            const std::uint8_t stage = d.u8();
            if (stage > static_cast<std::uint8_t>(Stage::Completed)) {
                d.fail("bad pipeline stage");
                return;
            }
            di.stage = static_cast<Stage>(stage);
            di.fbReady = d.u64();
            di.completeCycle = d.u64();
            di.dep1 = d.u64();
            di.dep2 = d.u64();
            di.memAddr = d.u64();
            di.memLen = d.u32();
            di.storeValue = d.i64();
            di.splValue = d.i32();
            di.splLoadValue = d.i64();
            di.mispredicted = d.boolean();
            di.usesFpQueue = d.boolean();
            q.push_back(di);
        }
    };
    // 87 = serialized DynInst size (fixed-width fields above).
    std::vector<DynInst> fb, rob;
    restore_insts(fb, params_.fetchBufferEntries, 87);
    if (!d.ok())
        return;
    restore_insts(rob, params_.robEntries, 87);
    if (!d.ok())
        return;
    const std::uint64_t next_seq = d.u64();
    if (!d.ok())
        return;

    // The window needs dense sequence numbers: ROB then fetch buffer,
    // ending just below nextSeq_, with every entry in its list's
    // stages.
    const std::uint64_t head_seq =
        next_seq - fb.size() - rob.size();
    if (next_seq < 1 + fb.size() + rob.size()) {
        d.fail("pipeline sequence numbers out of range");
        return;
    }
    for (std::size_t i = 0; i < rob.size() + fb.size(); ++i) {
        const DynInst &di =
            i < rob.size() ? rob[i] : fb[i - rob.size()];
        if (di.seq != head_seq + i ||
            (di.stage == Stage::InBuffer) != (i >= rob.size())) {
            d.fail("pipeline window is not contiguous");
            return;
        }
    }
    headSeq_ = head_seq;
    dispSeq_ = head_seq + rob.size();
    nextSeq_ = next_seq;
    for (const DynInst &di : rob)
        slot(di.seq) = di;
    for (const DynInst &di : fb)
        slot(di.seq) = di;

    // Rebuild the derived per-stage lists from the ROB.
    iq_.clear();
    stores_.clear();
    inflight_.clear();
    minIssuedComplete_ = neverCycle;
    for (const DynInst &di : rob) {
        if (di.stage == Stage::Dispatched)
            iq_.push_back(di.seq);
        if (di.flags & isa::kStoreLike)
            stores_.push_back(di.seq);
        if (di.stage == Stage::Issued) {
            inflight_.push_back(di.seq);
            minIssuedComplete_ =
                std::min(minIssuedComplete_, di.completeCycle);
        }
    }

    for (std::uint64_t &p : intProducer_)
        p = d.u64();
    for (std::uint64_t &p : fpProducer_)
        p = d.u64();
    intQueueOcc_ = d.u32();
    fpQueueOcc_ = d.u32();
    if (d.ok() && intQueueOcc_ + fpQueueOcc_ != iq_.size()) {
        d.fail("issue-queue occupancy does not match the window");
        return;
    }
    loadQueueOcc_ = d.u32();
    storeQueueOcc_ = d.u32();
    fetchResumeCycle_ = d.u64();
    fetchBlockedOnSeq_ = d.u64();
    fetchHalted_ = d.boolean();
    draining_ = d.boolean();
    divBusyUntil_ = d.u64();
    fpDivBusyUntil_ = d.u64();
    storeBufferDrainCycle_ = d.u64();

    bpred_.restore(d);
    statGroup_.restore(d);

    // System::restore only rebinds threads when the binding changed,
    // so the decoded-program table must be refreshed here as well —
    // a restored core may run immediately without a bindThread().
    rebuildDecoded();
}

} // namespace remap::cpu
