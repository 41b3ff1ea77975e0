//===- vm/Exec.h - Single-instruction execution semantics -------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one and only definition of guest instruction semantics: one
/// always-inline stepOp<Op>() per opcode, listed once by
/// PCC_VM_OPCODES. Two executors are expanded from that list, which
/// keeps the paper's correctness baseline — running under the run-time
/// compiler must be observably identical to native execution:
///
///  - step() switches over the list. The reference interpreter and the
///    DBI engine's instrumented loop call it; they visit every slot,
///    because tools observe Nops and faulting instructions too.
///  - dbi::Engine's tool-less trace loop threads its dispatch through a
///    labels-as-values table with one handler per listed opcode.
///
/// stepOp() returns an 8-byte StepResult, so the executors pay only for
/// the guest work. A fault comes back as StepKind::Faulted; its Status,
/// with the guest-visible message, is built out of line by
/// faultStatus() on the cold path.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_VM_EXEC_H
#define PCC_VM_EXEC_H

#include "isa/Instruction.h"
#include "loader/AddressSpace.h"
#include "vm/Cpu.h"

#include <iterator>

namespace pcc {
namespace vm {

/// What a single executed instruction did to control flow.
enum class StepKind : uint8_t {
  Sequential, ///< Fell through to Pc + 8.
  Control,    ///< Redirected the PC (branch taken, jump, call, return).
  Syscall,    ///< Performed a system call (falls through unless Exit).
  Halted,     ///< Halt, or Sys Exit.
  Faulted,    ///< Guest fault; see StepResult::NextPc and faultStatus().
};

/// Result of executing one instruction.
struct StepResult {
  StepKind Kind = StepKind::Sequential;
  /// The next PC. For a Faulted step: the first unmapped byte of the
  /// access, or the instruction's own PC for an invalid opcode.
  uint32_t NextPc = 0;
};
static_assert(sizeof(StepResult) == 8, "StepResult must stay register-sized");

/// The GuestFault Status of a Faulted step of \p Inst at \p Pc:
/// "invalid opcode at 0x..." or "access to unmapped address 0x...".
[[gnu::cold]] Status faultStatus(const isa::Instruction &Inst, uint32_t Pc,
                                 StepResult Fault);

/// Every opcode, in isa::Opcode order, as X(Name). step()'s switch and
/// the trace executor's dispatch table are both expanded from it.
#define PCC_VM_OPCODES(X)                                                  \
  X(Nop) X(Halt) X(Add) X(Sub) X(Mul) X(Divu) X(And) X(Or) X(Xor) X(Shl)  \
  X(Shr) X(Sltu) X(Seq) X(Addi) X(Muli) X(Andi) X(Ori) X(Xori) X(Shli)    \
  X(Shri) X(Sltiu) X(Ldi) X(Ld) X(St) X(Beq) X(Bne) X(Bltu) X(Bgeu)      \
  X(Jmp) X(Jr) X(Call) X(Callr) X(Ret) X(Sys)

namespace detail {
#define PCC_VM_LISTED_OPCODE(Name) isa::Opcode::Name,
inline constexpr isa::Opcode ListedOpcodes[] = {
    PCC_VM_OPCODES(PCC_VM_LISTED_OPCODE)};
#undef PCC_VM_LISTED_OPCODE

/// True when PCC_VM_OPCODES lists every opcode exactly once, in
/// encoding order, so a table expanded from it is indexed by opcode.
constexpr bool opcodeListMatchesEnum() {
  if (std::size(ListedOpcodes) !=
      static_cast<size_t>(isa::Opcode::NumOpcodes))
    return false;
  for (size_t I = 0; I != std::size(ListedOpcodes); ++I)
    if (static_cast<size_t>(ListedOpcodes[I]) != I)
      return false;
  return true;
}
} // namespace detail
static_assert(detail::opcodeListMatchesEnum(),
              "PCC_VM_OPCODES must list isa::Opcode in encoding order");

/// Executes \p Inst, whose opcode is \p Op, located at \p Pc against
/// \p Cpu / \p Space / \p Env. Does not modify Cpu.Pc; the caller
/// advances to the returned NextPc. A faulting instruction changes no
/// register; a page-spanning store that faults has written the bytes
/// before the first unmapped one. Op == NumOpcodes stands for every
/// invalid opcode, which faults at its own PC.
template <isa::Opcode Op>
[[gnu::always_inline]] inline StepResult
stepOp(const isa::Instruction &Inst, uint32_t Pc, CpuState &Cpu,
       loader::AddressSpace &Space, SyscallEnv &Env) {
  using isa::Opcode;
  const uint32_t FallThrough = Pc + isa::InstructionSize;
  auto &Regs = Cpu.Regs;
  const uint32_t A = Regs[Inst.Rs1];
  const uint32_t B = Regs[Inst.Rs2];
  const StepResult Next{StepKind::Sequential, FallThrough};
  uint32_t FaultAddr = 0;

  switch (Op) {
  case Opcode::Nop:
    return Next;
  case Opcode::Halt:
    return {StepKind::Halted, Pc};

  case Opcode::Add:
    Regs[Inst.Rd] = A + B;
    return Next;
  case Opcode::Sub:
    Regs[Inst.Rd] = A - B;
    return Next;
  case Opcode::Mul:
    Regs[Inst.Rd] = A * B;
    return Next;
  case Opcode::Divu:
    Regs[Inst.Rd] = B == 0 ? 0 : A / B;
    return Next;
  case Opcode::And:
    Regs[Inst.Rd] = A & B;
    return Next;
  case Opcode::Or:
    Regs[Inst.Rd] = A | B;
    return Next;
  case Opcode::Xor:
    Regs[Inst.Rd] = A ^ B;
    return Next;
  case Opcode::Shl:
    Regs[Inst.Rd] = A << (B & 31);
    return Next;
  case Opcode::Shr:
    Regs[Inst.Rd] = A >> (B & 31);
    return Next;
  case Opcode::Sltu:
    Regs[Inst.Rd] = A < B ? 1 : 0;
    return Next;
  case Opcode::Seq:
    Regs[Inst.Rd] = A == B ? 1 : 0;
    return Next;

  case Opcode::Addi:
    Regs[Inst.Rd] = A + Inst.Imm;
    return Next;
  case Opcode::Muli:
    Regs[Inst.Rd] = A * Inst.Imm;
    return Next;
  case Opcode::Andi:
    Regs[Inst.Rd] = A & Inst.Imm;
    return Next;
  case Opcode::Ori:
    Regs[Inst.Rd] = A | Inst.Imm;
    return Next;
  case Opcode::Xori:
    Regs[Inst.Rd] = A ^ Inst.Imm;
    return Next;
  case Opcode::Shli:
    Regs[Inst.Rd] = A << (Inst.Imm & 31);
    return Next;
  case Opcode::Shri:
    Regs[Inst.Rd] = A >> (Inst.Imm & 31);
    return Next;
  case Opcode::Sltiu:
    Regs[Inst.Rd] = A < Inst.Imm ? 1 : 0;
    return Next;
  case Opcode::Ldi:
    Regs[Inst.Rd] = Inst.Imm;
    return Next;

  case Opcode::Ld: {
    uint32_t Value = 0;
    if (!Space.load32(A + Inst.Imm, Value, FaultAddr))
      return {StepKind::Faulted, FaultAddr};
    Regs[Inst.Rd] = Value;
    return Next;
  }
  case Opcode::St:
    if (!Space.store32(A + Inst.Imm, B, FaultAddr))
      return {StepKind::Faulted, FaultAddr};
    return Next;

  case Opcode::Beq:
    return A == B ? StepResult{StepKind::Control, Inst.Imm} : Next;
  case Opcode::Bne:
    return A != B ? StepResult{StepKind::Control, Inst.Imm} : Next;
  case Opcode::Bltu:
    return A < B ? StepResult{StepKind::Control, Inst.Imm} : Next;
  case Opcode::Bgeu:
    return A >= B ? StepResult{StepKind::Control, Inst.Imm} : Next;

  case Opcode::Jmp:
    return {StepKind::Control, Inst.Imm};
  case Opcode::Jr:
    return {StepKind::Control, A};

  case Opcode::Call:
  case Opcode::Callr: {
    const uint32_t NewSp = Cpu.sp() - 4;
    if (!Space.store32(NewSp, FallThrough, FaultAddr))
      return {StepKind::Faulted, FaultAddr};
    Cpu.setSp(NewSp);
    return {StepKind::Control, Op == Opcode::Call ? Inst.Imm : A};
  }
  case Opcode::Ret: {
    uint32_t ReturnAddr = 0;
    if (!Space.load32(Cpu.sp(), ReturnAddr, FaultAddr))
      return {StepKind::Faulted, FaultAddr};
    Cpu.setSp(Cpu.sp() + 4);
    return {StepKind::Control, ReturnAddr};
  }

  case Opcode::Sys:
    Env.handle(Inst.Imm, Cpu);
    if (Env.Exited)
      return {StepKind::Halted, Pc};
    return {StepKind::Syscall, FallThrough};

  case Opcode::NumOpcodes:
    break;
  }
  return {StepKind::Faulted, Pc};
}

/// Executes \p Inst at \p Pc: the stepOp() of its opcode, chosen by one
/// switch expanded from PCC_VM_OPCODES.
[[gnu::always_inline]] inline StepResult
step(const isa::Instruction &Inst, uint32_t Pc, CpuState &Cpu,
     loader::AddressSpace &Space, SyscallEnv &Env) {
  switch (Inst.Op) {
#define PCC_VM_STEP_CASE(Name)                                             \
  case isa::Opcode::Name:                                                  \
    return stepOp<isa::Opcode::Name>(Inst, Pc, Cpu, Space, Env);
    PCC_VM_OPCODES(PCC_VM_STEP_CASE)
#undef PCC_VM_STEP_CASE
  default:
    return stepOp<isa::Opcode::NumOpcodes>(Inst, Pc, Cpu, Space, Env);
  }
}

} // namespace vm
} // namespace pcc

#endif // PCC_VM_EXEC_H
