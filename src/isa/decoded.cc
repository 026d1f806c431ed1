#include "isa/decoded.hh"

namespace remap::isa
{

DecodedInst
decodeOne(const Instruction &inst)
{
    DecodedInst d;
    d.cls = inst.opClass();

    std::uint16_t f = 0;
    if (inst.readsIntRs1())
        f |= kReadsIntRs1;
    if (inst.readsFpRs1())
        f |= kReadsFpRs1;
    if (inst.readsIntRs2())
        f |= kReadsIntRs2;
    if (inst.readsFpRs2())
        f |= kReadsFpRs2;
    if (inst.writesIntReg())
        f |= kWritesInt;
    if (inst.writesFpReg())
        f |= kWritesFp;
    if (inst.isBranch())
        f |= kIsBranch;
    if (inst.isJump())
        f |= kIsJump;

    switch (d.cls) {
      case OpClass::FpAlu:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        f |= kUsesFpQueue;
        break;
      case OpClass::Load:
        f |= kLsqLoad;
        break;
      case OpClass::Amo:
        f |= kLsqLoad | kStoreLike | kMemWrite;
        break;
      case OpClass::Store:
        f |= kLsqStore | kStoreLike | kMemWrite;
        break;
      case OpClass::Fence:
        f |= kStoreLike;
        break;
      case OpClass::SplLoadMem:
        f |= kLsqLoad;
        break;
      case OpClass::SplStoreMem:
        f |= kLsqStore | kStoreLike | kMemWrite | kSplPop;
        break;
      case OpClass::SplStore:
        f |= kSplPop;
        break;
      default:
        break;
    }

    // Run terminators: control flow, thread termination, the FENCE
    // serialization point, and every SPL opcode (SPL_STORE /
    // SPL_STOREM can stall in funcExecute; the rest are kept out of
    // fused runs so run membership implies "plain ALU/memory work").
    if ((f & kIsBranch) || d.cls == OpClass::Halt ||
        d.cls == OpClass::Fence || inst.isSpl()) {
        f |= kEndsRun;
    }

    d.flags = f;
    return d;
}

void
DecodedProgram::build(const Program &prog)
{
    const std::size_t n = prog.code.size();
    insts.resize(n);
    runEnd.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        insts[i] = decodeOne(prog.code[i]);
    // Backwards pass: a run extends to the next terminator (or the
    // end of the program, for code that trails off without a HALT —
    // fetch asserts the pc bound before using the table).
    for (std::size_t i = n; i-- > 0;) {
        if ((insts[i].flags & kEndsRun) || i + 1 == n)
            runEnd[i] = static_cast<std::uint32_t>(i + 1);
        else
            runEnd[i] = runEnd[i + 1];
    }
}

} // namespace remap::isa
