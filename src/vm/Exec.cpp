//===- vm/Exec.cpp --------------------------------------------------------===//

#include "vm/Exec.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace pcc;
using namespace pcc::vm;
using isa::Instruction;
using isa::Opcode;

void SyscallEnv::handle(uint32_t Number, CpuState &Cpu) {
  ++SyscallCount;
  switch (static_cast<SyscallNumber>(Number)) {
  case SyscallNumber::Exit:
    Exited = true;
    ExitCode = Cpu.Regs[1];
    return;
  case SyscallNumber::WriteChar:
    Output.push_back(static_cast<char>(Cpu.Regs[1] & 0xff));
    return;
  case SyscallNumber::WriteWord:
    WordLog.push_back(Cpu.Regs[1]);
    return;
  case SyscallNumber::Yield:
    return;
  case SyscallNumber::Spawn:
    PendingSpawn = SpawnRequest{Cpu.Regs[1], Cpu.Regs[2]};
    return;
  case SyscallNumber::ThreadExit:
    CurrentThreadExited = true;
    return;
  }
  // Unknown syscall: guest bug, terminate deterministically.
  Exited = true;
  ExitCode = 127;
}

Status pcc::vm::faultStatus(const Instruction &Inst, uint32_t Pc,
                            StepResult Fault) {
  assert(Fault.Kind == StepKind::Faulted && "not a faulted step");
  if (Inst.Op >= Opcode::NumOpcodes)
    return Status::error(ErrorCode::GuestFault,
                         formatString("invalid opcode at 0x%x", Pc));
  return loader::unmappedAccess(Fault.NextPc);
}
