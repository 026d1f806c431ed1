/**
 * @file
 * The functional interpreter: one `switch` per instruction, no
 * pre-decode and no run structure. Its simplicity is the point — it
 * shares nothing with the core's DecodedProgram run construction, so
 * Differential.CoreMatchesInterpreter checks that construction
 * against an independent reference.
 */

#include "isa/interp.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace remap::isa
{

InterpResult
interpret(const Program &prog, mem::MemoryImage &mem,
          std::uint64_t max_steps)
{
    InterpResult r;
    std::uint32_t pc = 0;

    auto wr_int = [&](RegIndex x, std::int64_t v) {
        if (x != 0)
            r.intRegs[x] = v;
    };

    while (r.instructions < max_steps) {
        REMAP_ASSERT(pc < prog.code.size(),
                     "interpreter pc out of range in '%s'",
                     prog.name.c_str());
        const Instruction *ip = &prog.code[pc];
        const std::int64_t a = ip->rs1 == 0 ? 0 : r.intRegs[ip->rs1];
        const std::int64_t b = ip->rs2 == 0 ? 0 : r.intRegs[ip->rs2];
        const double fa = r.fpRegs[ip->rs1];
        const double fb = r.fpRegs[ip->rs2];
        std::uint32_t next = pc + 1;

        // No default: -Wswitch (an error under -Werror) flags any
        // opcode added to the enum without a body here.
        switch (ip->op) {
          case Opcode::ADD: wr_int(ip->rd, a + b); break;
          case Opcode::SUB: wr_int(ip->rd, a - b); break;
          case Opcode::AND: wr_int(ip->rd, a & b); break;
          case Opcode::OR: wr_int(ip->rd, a | b); break;
          case Opcode::XOR: wr_int(ip->rd, a ^ b); break;
          case Opcode::SLL:
            wr_int(ip->rd, std::int64_t(std::uint64_t(a) << (b & 63)));
            break;
          case Opcode::SRL:
            wr_int(ip->rd, std::int64_t(std::uint64_t(a) >> (b & 63)));
            break;
          case Opcode::SRA: wr_int(ip->rd, a >> (b & 63)); break;
          case Opcode::SLT: wr_int(ip->rd, a < b ? 1 : 0); break;
          case Opcode::SLTU:
            wr_int(ip->rd, std::uint64_t(a) < std::uint64_t(b) ? 1 : 0);
            break;
          case Opcode::MIN: wr_int(ip->rd, std::min(a, b)); break;
          case Opcode::MAX: wr_int(ip->rd, std::max(a, b)); break;
          case Opcode::MUL: wr_int(ip->rd, a * b); break;
          case Opcode::DIV: wr_int(ip->rd, b == 0 ? -1 : a / b); break;
          case Opcode::REM: wr_int(ip->rd, b == 0 ? a : a % b); break;
          case Opcode::ADDI: wr_int(ip->rd, a + ip->imm); break;
          case Opcode::ANDI: wr_int(ip->rd, a & ip->imm); break;
          case Opcode::ORI: wr_int(ip->rd, a | ip->imm); break;
          case Opcode::XORI: wr_int(ip->rd, a ^ ip->imm); break;
          case Opcode::SLLI:
            wr_int(ip->rd,
                   std::int64_t(std::uint64_t(a) << (ip->imm & 63)));
            break;
          case Opcode::SRLI:
            wr_int(ip->rd,
                   std::int64_t(std::uint64_t(a) >> (ip->imm & 63)));
            break;
          case Opcode::SRAI: wr_int(ip->rd, a >> (ip->imm & 63)); break;
          case Opcode::SLTI: wr_int(ip->rd, a < ip->imm ? 1 : 0); break;
          case Opcode::LI: wr_int(ip->rd, ip->imm); break;
          case Opcode::FADD: r.fpRegs[ip->rd] = fa + fb; break;
          case Opcode::FSUB: r.fpRegs[ip->rd] = fa - fb; break;
          case Opcode::FMUL: r.fpRegs[ip->rd] = fa * fb; break;
          case Opcode::FDIV: r.fpRegs[ip->rd] = fa / fb; break;
          case Opcode::FMIN: r.fpRegs[ip->rd] = std::min(fa, fb); break;
          case Opcode::FMAX: r.fpRegs[ip->rd] = std::max(fa, fb); break;
          case Opcode::FLT: wr_int(ip->rd, fa < fb ? 1 : 0); break;
          case Opcode::FLE: wr_int(ip->rd, fa <= fb ? 1 : 0); break;
          case Opcode::FCVT_I2F:
            r.fpRegs[ip->rd] = static_cast<double>(a);
            break;
          case Opcode::FCVT_F2I:
            wr_int(ip->rd, static_cast<std::int64_t>(fa));
            break;
          case Opcode::FMV: r.fpRegs[ip->rd] = fa; break;
          case Opcode::LD:
            wr_int(ip->rd, mem.readI64(Addr(a + ip->imm)));
            break;
          case Opcode::LW:
            wr_int(ip->rd, mem.readI32(Addr(a + ip->imm)));
            break;
          case Opcode::LBU:
            wr_int(ip->rd, mem.readU8(Addr(a + ip->imm)));
            break;
          case Opcode::SD: mem.writeI64(Addr(a + ip->imm), b); break;
          case Opcode::SW:
            mem.writeI32(Addr(a + ip->imm), static_cast<std::int32_t>(b));
            break;
          case Opcode::SB:
            mem.writeU8(Addr(a + ip->imm), static_cast<std::uint8_t>(b));
            break;
          case Opcode::FLD:
            r.fpRegs[ip->rd] = mem.readF64(Addr(a + ip->imm));
            break;
          case Opcode::FSD: mem.writeF64(Addr(a + ip->imm), fb); break;
          case Opcode::AMOADD: {
            const std::int64_t old = mem.readI64(Addr(a));
            mem.writeI64(Addr(a), old + b);
            wr_int(ip->rd, old);
            break;
          }
          case Opcode::AMOSWAP: {
            const std::int64_t old = mem.readI64(Addr(a));
            mem.writeI64(Addr(a), b);
            wr_int(ip->rd, old);
            break;
          }
          case Opcode::FENCE: break;
          case Opcode::BEQ: if (a == b) next = ip->target; break;
          case Opcode::BNE: if (a != b) next = ip->target; break;
          case Opcode::BLT: if (a < b) next = ip->target; break;
          case Opcode::BGE: if (a >= b) next = ip->target; break;
          case Opcode::BLTU:
            if (std::uint64_t(a) < std::uint64_t(b))
                next = ip->target;
            break;
          case Opcode::BGEU:
            if (std::uint64_t(a) >= std::uint64_t(b))
                next = ip->target;
            break;
          case Opcode::J: next = ip->target; break;
          case Opcode::SPL_CFG: break;
          case Opcode::SPL_LOAD:
          case Opcode::SPL_LOADM:
          case Opcode::SPL_LOADMB:
          case Opcode::SPL_INIT:
          case Opcode::SPL_BAR:
          case Opcode::SPL_STORE:
          case Opcode::SPL_STOREM:
            REMAP_FATAL("interpreter cannot execute SPL opcode in '%s'",
                        prog.name.c_str());
          case Opcode::HALT:
            ++r.instructions;
            r.halted = true;
            return r;
          case Opcode::NOP: break;
        }
        ++r.instructions;
        pc = next;
    }
    return r;
}

} // namespace remap::isa
