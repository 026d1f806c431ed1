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

    d.flags = f;
    return d;
}

void
DecodedProgram::build(const Program &prog)
{
    const std::size_t n = prog.code.size();
    insts.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        insts[i] = decodeOne(prog.code[i]);
}

} // namespace remap::isa
