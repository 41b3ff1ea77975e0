//===- vm/Interpreter.cpp -------------------------------------------------===//

#include "vm/Interpreter.h"

#include "isa/Instruction.h"
#include "vm/Threads.h"

using namespace pcc;
using namespace pcc::vm;

RunResult Interpreter::run(CpuState Cpu, const RunLimits &Limits,
                           const NativeCostModel &Costs) {
  RunResult Result;
  SyscallEnv Env;
  ThreadScheduler Threads(Cpu);

  auto finish = [&](uint32_t ExitCode) {
    Result.ExitCode = ExitCode;
    Result.Output = std::move(Env.Output);
    Result.WordLog = std::move(Env.WordLog);
    Result.SyscallCount = Env.SyscallCount;
    return Result;
  };

  while (Result.InstructionsExecuted < Limits.MaxInstructions) {
    CpuState &Current = Threads.current().Cpu;
    uint8_t Raw[isa::InstructionSize];
    Status FetchStatus = Space.fetchInstructionBytes(Current.Pc, Raw);
    if (!FetchStatus.ok()) {
      Result.Error = FetchStatus;
      break;
    }
    auto Inst = isa::Instruction::decode(Raw);
    if (!Inst) {
      Result.Error = Inst.status();
      break;
    }
    const StepResult Step = step(*Inst, Current.Pc, Current, Space, Env);
    if (Step.Kind == StepKind::Faulted) {
      Result.Error = faultStatus(*Inst, Current.Pc, Step);
      break;
    }
    ++Result.InstructionsExecuted;
    Result.Cycles += Costs.CyclesPerInstruction;

    if (Step.Kind == StepKind::Halted) {
      if (Env.Exited)
        Result.Cycles += Costs.CyclesPerSyscall; // The Exit syscall.
      return finish(Env.Exited ? Env.ExitCode : 0);
    }

    if (Step.Kind == StepKind::Syscall) {
      // Context switches happen only here; the DBI engine switches at
      // the same points (syscalls terminate traces), keeping thread
      // interleavings identical across engines.
      Result.Cycles += Costs.CyclesPerSyscall;
      auto Alive = Threads.afterSyscall(Env, Space, Step.NextPc);
      if (!Alive) {
        Result.Error = Alive.status();
        break;
      }
      if (!*Alive)
        return finish(0); // Every thread exited.
      continue;
    }
    Current.Pc = Step.NextPc;
  }

  if (Result.Error.ok())
    Result.Error = Status::error(ErrorCode::GuestFault,
                                 "instruction limit exceeded");
  Result.Output = std::move(Env.Output);
  Result.WordLog = std::move(Env.WordLog);
  Result.SyscallCount = Env.SyscallCount;
  return Result;
}
