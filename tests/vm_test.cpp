//===- tests/vm_test.cpp - CPU semantics and interpreter tests ------------===//

#include "dbi/Engine.h"
#include "vm/Exec.h"
#include "vm/Interpreter.h"
#include "vm/Machine.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;
using namespace pcc::isa;
using namespace pcc::vm;

namespace {

/// Executes a single instruction against a fresh CPU with a small mapped
/// memory window at 0x1000 and returns the step result.
struct SingleStep {
  CpuState Cpu;
  loader::AddressSpace Space;
  SyscallEnv Env;

  SingleStep() {
    EXPECT_TRUE(Space.mapRegion(0x1000, 0x2000).ok());
    Cpu.setSp(0x3000);
  }

  StepResult step(const Instruction &Inst, uint32_t Pc = 0x1000) {
    return pcc::vm::step(Inst, Pc, Cpu, Space, Env);
  }
};

bool ok(StepResult R) { return R.Kind != StepKind::Faulted; }

/// Builds an executable module (one page of bss) around raw
/// instructions and runs it natively, or under the DBI engine when
/// \p UnderEngine. \p ByteAt, when given, receives the guest byte at
/// \p ProbeAddr after the run.
RunResult runProgram(const std::vector<Instruction> &Insts,
                     bool UnderEngine = false, uint32_t ProbeAddr = 0,
                     uint32_t *ByteAt = nullptr) {
  auto Mod = std::make_shared<binary::Module>(
      "prog", "/bin/prog", binary::ModuleKind::Executable);
  Mod->setInstructions(Insts);
  Mod->setBssSize(binary::PageSize);
  loader::ModuleRegistry Registry;
  auto M = Machine::create(Mod, Registry);
  EXPECT_TRUE(M.ok()) << (M.ok() ? "" : M.status().toString());
  RunResult R;
  if (UnderEngine) {
    dbi::Engine E(*M, nullptr);
    R = E.run();
  } else {
    R = M->runNative();
  }
  if (ByteAt)
    *ByteAt = *M->space().read8(ProbeAddr);
  return R;
}

} // namespace

TEST(Exec, AluRegisterOps) {
  SingleStep S;
  S.Cpu.Regs[1] = 10;
  S.Cpu.Regs[2] = 3;

  auto check = [&](Opcode Op, uint32_t Expected) {
    StepResult R = S.step(makeAlu(Op, 3, 1, 2));
    EXPECT_EQ(S.Cpu.Regs[3], Expected) << opcodeName(Op);
    EXPECT_EQ(R.Kind, StepKind::Sequential);
    EXPECT_EQ(R.NextPc, 0x1008u);
  };
  check(Opcode::Add, 13);
  check(Opcode::Sub, 7);
  check(Opcode::Mul, 30);
  check(Opcode::Divu, 3);
  check(Opcode::And, 2);
  check(Opcode::Or, 11);
  check(Opcode::Xor, 9);
  check(Opcode::Shl, 80);
  check(Opcode::Shr, 1);
  check(Opcode::Sltu, 0);
  check(Opcode::Seq, 0);
}

TEST(Exec, DivideByZeroYieldsZero) {
  SingleStep S;
  S.Cpu.Regs[1] = 99;
  S.Cpu.Regs[2] = 0;
  ASSERT_TRUE(ok(S.step(makeAlu(Opcode::Divu, 3, 1, 2))));
  EXPECT_EQ(S.Cpu.Regs[3], 0u);
}

TEST(Exec, AluImmediateOps) {
  SingleStep S;
  S.Cpu.Regs[1] = 7;
  ASSERT_TRUE(ok(S.step(makeAluImm(Opcode::Addi, 2, 1, 5))));
  EXPECT_EQ(S.Cpu.Regs[2], 12u);
  ASSERT_TRUE(ok(S.step(makeAluImm(Opcode::Muli, 2, 1, 3))));
  EXPECT_EQ(S.Cpu.Regs[2], 21u);
  ASSERT_TRUE(ok(S.step(makeAluImm(Opcode::Sltiu, 2, 1, 8))));
  EXPECT_EQ(S.Cpu.Regs[2], 1u);
  // Wrap-around subtraction idiom used by generated loop code.
  ASSERT_TRUE(ok(S.step(makeAluImm(Opcode::Addi, 1, 1, 0xffffffffu))));
  EXPECT_EQ(S.Cpu.Regs[1], 6u);
}

TEST(Exec, ShiftAmountsMasked) {
  SingleStep S;
  S.Cpu.Regs[1] = 1;
  S.Cpu.Regs[2] = 33; // 33 & 31 == 1.
  ASSERT_TRUE(ok(S.step(makeAlu(Opcode::Shl, 3, 1, 2))));
  EXPECT_EQ(S.Cpu.Regs[3], 2u);
  ASSERT_TRUE(ok(S.step(makeAluImm(Opcode::Shri, 3, 1, 32))));
  EXPECT_EQ(S.Cpu.Regs[3], 1u); // Shift by 0.
}

TEST(Exec, LoadStoreRoundTrip) {
  SingleStep S;
  S.Cpu.Regs[1] = 0x1800;
  S.Cpu.Regs[2] = 0xcafebabe;
  ASSERT_TRUE(ok(S.step(makeStore(1, 16, 2))));
  ASSERT_TRUE(ok(S.step(makeLoad(3, 1, 16))));
  EXPECT_EQ(S.Cpu.Regs[3], 0xcafebabeU);
}

TEST(Exec, LoadFromUnmappedFaults) {
  SingleStep S;
  S.Cpu.Regs[1] = 0x90000000;
  StepResult R = S.step(makeLoad(3, 1, 0));
  ASSERT_EQ(R.Kind, StepKind::Faulted);
  Status Fault = faultStatus(makeLoad(3, 1, 0), 0x1000, R);
  EXPECT_EQ(Fault.code(), ErrorCode::GuestFault);
  EXPECT_EQ(Fault.message(), "access to unmapped address 0x90000000");
}

TEST(Exec, BranchTakenAndNotTaken) {
  SingleStep S;
  S.Cpu.Regs[1] = 5;
  S.Cpu.Regs[2] = 5;
  StepResult Taken = S.step(makeBranch(Opcode::Beq, 1, 2, 0x1400));
  EXPECT_EQ(Taken.Kind, StepKind::Control);
  EXPECT_EQ(Taken.NextPc, 0x1400u);

  StepResult NotTaken = S.step(makeBranch(Opcode::Bne, 1, 2, 0x1400));
  EXPECT_EQ(NotTaken.Kind, StepKind::Sequential);
  EXPECT_EQ(NotTaken.NextPc, 0x1008u);
}

TEST(Exec, UnsignedBranchComparisons) {
  SingleStep S;
  S.Cpu.Regs[1] = 0xffffffff; // Large unsigned, not -1.
  S.Cpu.Regs[2] = 1;
  StepResult R = S.step(makeBranch(Opcode::Bltu, 1, 2, 0x1400));
  EXPECT_EQ(R.Kind, StepKind::Sequential) << "0xffffffff !< 1 unsigned";
  StepResult R2 = S.step(makeBranch(Opcode::Bgeu, 1, 2, 0x1400));
  EXPECT_EQ(R2.Kind, StepKind::Control);
}

TEST(Exec, CallPushesReturnAddressAndRetPops) {
  SingleStep S;
  uint32_t Sp = S.Cpu.sp();
  StepResult CallStep = S.step(makeCall(0x1800), 0x1000);
  ASSERT_EQ(CallStep.Kind, StepKind::Control);
  EXPECT_EQ(CallStep.NextPc, 0x1800u);
  EXPECT_EQ(S.Cpu.sp(), Sp - 4);
  auto Pushed = S.Space.read32(S.Cpu.sp());
  ASSERT_TRUE(Pushed.ok());
  EXPECT_EQ(*Pushed, 0x1008u);

  StepResult RetStep = S.step(makeRet(), 0x1800);
  ASSERT_EQ(RetStep.Kind, StepKind::Control);
  EXPECT_EQ(RetStep.NextPc, 0x1008u);
  EXPECT_EQ(S.Cpu.sp(), Sp);
}

TEST(Exec, IndirectCallThroughRegister) {
  SingleStep S;
  S.Cpu.Regs[4] = 0x1900;
  StepResult R = S.step(makeCallr(4), 0x1000);
  EXPECT_EQ(R.Kind, StepKind::Control);
  EXPECT_EQ(R.NextPc, 0x1900u);
}

TEST(Exec, JumpAndJr) {
  SingleStep S;
  StepResult J = S.step(makeJmp(0x1500));
  EXPECT_EQ(J.Kind, StepKind::Control);
  EXPECT_EQ(J.NextPc, 0x1500u);
  S.Cpu.Regs[6] = 0x1600;
  StepResult R = S.step(makeJr(6));
  EXPECT_EQ(R.Kind, StepKind::Control);
  EXPECT_EQ(R.NextPc, 0x1600u);
}

TEST(Exec, SyscallExit) {
  SingleStep S;
  S.Cpu.Regs[1] = 17;
  StepResult R =
      S.step(makeSys(static_cast<uint32_t>(SyscallNumber::Exit)));
  EXPECT_EQ(R.Kind, StepKind::Halted);
  EXPECT_TRUE(S.Env.Exited);
  EXPECT_EQ(S.Env.ExitCode, 17u);
}

TEST(Exec, SyscallWriteCharAndWord) {
  SingleStep S;
  S.Cpu.Regs[1] = 'h';
  ASSERT_TRUE(
      ok(S.step(makeSys(static_cast<uint32_t>(SyscallNumber::WriteChar)))));
  S.Cpu.Regs[1] = 'i';
  ASSERT_TRUE(
      ok(S.step(makeSys(static_cast<uint32_t>(SyscallNumber::WriteChar)))));
  S.Cpu.Regs[1] = 99;
  StepResult R =
      S.step(makeSys(static_cast<uint32_t>(SyscallNumber::WriteWord)));
  EXPECT_EQ(R.Kind, StepKind::Syscall);
  EXPECT_EQ(S.Env.Output, "hi");
  EXPECT_EQ(S.Env.WordLog, (std::vector<uint32_t>{99}));
  EXPECT_EQ(S.Env.SyscallCount, 3u);
}

TEST(Exec, UnknownSyscallTerminates) {
  SingleStep S;
  StepResult R = S.step(makeSys(999));
  EXPECT_EQ(R.Kind, StepKind::Halted);
  EXPECT_EQ(S.Env.ExitCode, 127u);
}

TEST(Exec, HaltStops) {
  SingleStep S;
  StepResult R = S.step(makeHalt());
  EXPECT_EQ(R.Kind, StepKind::Halted);
  EXPECT_FALSE(S.Env.Exited);
}

// Fast/slow-path boundary of the word accessors. SingleStep maps pages
// 0x1000 and 0x2000; 0x3000 is unmapped. A word at page offset 4092
// is the last one inside its page; offsets 4093-4095 span into the
// next page and take the byte-wise path.

TEST(Exec, WordAccessAcrossPagesWithNextPageMapped) {
  for (uint32_t Offset : {4092u, 4093u, 4094u, 4095u}) {
    SingleStep S;
    const uint32_t Addr = 0x1000 + Offset;
    S.Cpu.Regs[1] = Addr;
    S.Cpu.Regs[2] = 0xa1b2c3d4;
    ASSERT_TRUE(ok(S.step(makeStore(1, 0, 2)))) << Offset;
    for (uint32_t I = 0; I != 4; ++I)
      EXPECT_EQ(*S.Space.read8(Addr + I), (0xa1b2c3d4u >> (8 * I)) & 0xff)
          << Offset << " byte " << I;
    ASSERT_TRUE(ok(S.step(makeLoad(3, 1, 0)))) << Offset;
    EXPECT_EQ(S.Cpu.Regs[3], 0xa1b2c3d4u) << Offset;
  }
}

TEST(Exec, WordAccessAcrossPagesWithNextPageUnmappedFaults) {
  for (uint32_t Offset : {4093u, 4094u, 4095u}) {
    SingleStep S;
    const uint32_t Addr = 0x2000 + Offset;
    S.Cpu.Regs[1] = Addr;
    S.Cpu.Regs[2] = 0xa1b2c3d4;
    S.Cpu.Regs[3] = 0x5555;

    StepResult Store = S.step(makeStore(1, 0, 2));
    ASSERT_EQ(Store.Kind, StepKind::Faulted) << Offset;
    EXPECT_EQ(Store.NextPc, 0x3000u) << "fault names the first unmapped byte";
    EXPECT_EQ(faultStatus(makeStore(1, 0, 2), 0x1000, Store).message(),
              "access to unmapped address 0x3000");
    // The bytes before the first unmapped one were written.
    for (uint32_t A = Addr; A != 0x3000; ++A)
      EXPECT_EQ(*S.Space.read8(A), (0xa1b2c3d4u >> (8 * (A - Addr))) & 0xff)
          << Offset << " byte " << A - Addr;

    StepResult Load = S.step(makeLoad(3, 1, 0));
    ASSERT_EQ(Load.Kind, StepKind::Faulted) << Offset;
    EXPECT_EQ(Load.NextPc, 0x3000u);
    EXPECT_EQ(faultStatus(makeLoad(3, 1, 0), 0x1000, Load).message(),
              "access to unmapped address 0x3000");
    EXPECT_EQ(S.Cpu.Regs[3], 0x5555u) << "a faulting load writes no register";
  }
  // The last in-page word still takes the fast path.
  SingleStep S;
  S.Cpu.Regs[1] = 0x2ffc;
  S.Cpu.Regs[2] = 7;
  ASSERT_TRUE(ok(S.step(makeStore(1, 0, 2))));
  ASSERT_TRUE(ok(S.step(makeLoad(3, 1, 0))));
  EXPECT_EQ(S.Cpu.Regs[3], 7u);
}

TEST(Exec, AccessToUnmappedPageNamesItsFirstByte) {
  SingleStep S;
  S.Cpu.Regs[1] = 0x0ffe; // Page 0 is unmapped, page 1 mapped.
  StepResult R = S.step(makeLoad(3, 1, 0));
  ASSERT_EQ(R.Kind, StepKind::Faulted);
  EXPECT_EQ(R.NextPc, 0x0ffeu);
}

TEST(Exec, CallAndRetAcrossPages) {
  for (uint32_t Offset : {4093u, 4094u, 4095u}) {
    for (bool NextMapped : {true, false}) {
      SingleStep S;
      const uint32_t Slot = (NextMapped ? 0x1000 : 0x2000) + Offset;
      S.Cpu.setSp(Slot + 4);
      StepResult Call = S.step(makeCall(0x1800), 0x1000);
      if (NextMapped) {
        ASSERT_EQ(Call.Kind, StepKind::Control) << Offset;
        EXPECT_EQ(Call.NextPc, 0x1800u);
        EXPECT_EQ(S.Cpu.sp(), Slot);
        EXPECT_EQ(*S.Space.read32(Slot), 0x1008u);
        StepResult Ret = S.step(makeRet(), 0x1800);
        ASSERT_EQ(Ret.Kind, StepKind::Control) << Offset;
        EXPECT_EQ(Ret.NextPc, 0x1008u);
        EXPECT_EQ(S.Cpu.sp(), Slot + 4);
        continue;
      }
      ASSERT_EQ(Call.Kind, StepKind::Faulted) << Offset;
      EXPECT_EQ(Call.NextPc, 0x3000u);
      EXPECT_EQ(faultStatus(makeCall(0x1800), 0x1000, Call).message(),
                "access to unmapped address 0x3000");
      EXPECT_EQ(S.Cpu.sp(), Slot + 4) << "a faulting call keeps sp";
      for (uint32_t A = Slot; A != 0x3000; ++A)
        EXPECT_EQ(*S.Space.read8(A), (0x1008u >> (8 * (A - Slot))) & 0xff)
            << Offset << " byte " << A - Slot;

      S.Cpu.setSp(Slot);
      StepResult Ret = S.step(makeRet(), 0x1800);
      ASSERT_EQ(Ret.Kind, StepKind::Faulted) << Offset;
      EXPECT_EQ(Ret.NextPc, 0x3000u);
      EXPECT_EQ(faultStatus(makeRet(), 0x1800, Ret).message(),
                "access to unmapped address 0x3000");
      EXPECT_EQ(S.Cpu.sp(), Slot) << "a faulting ret keeps sp";
    }
  }
}

TEST(Exec, CallrThroughStackPointerJumpsToOldSp) {
  // The target register is read before the push moves sp.
  SingleStep S;
  S.Cpu.setSp(0x1800);
  StepResult R = S.step(makeCallr(StackPointerReg), 0x1000);
  ASSERT_EQ(R.Kind, StepKind::Control);
  EXPECT_EQ(R.NextPc, 0x1800u);
  EXPECT_EQ(S.Cpu.sp(), 0x17fcu);
  EXPECT_EQ(*S.Space.read32(0x17fc), 0x1008u);
}

TEST(Exec, InvalidOpcodeFaults) {
  SingleStep S;
  Instruction Bad;
  Bad.Op = Opcode::NumOpcodes;
  StepResult R = S.step(Bad, 0x1234);
  ASSERT_EQ(R.Kind, StepKind::Faulted);
  EXPECT_EQ(R.NextPc, 0x1234u);
  Status Fault = faultStatus(Bad, 0x1234, R);
  EXPECT_EQ(Fault.code(), ErrorCode::GuestFault);
  EXPECT_EQ(Fault.message(), "invalid opcode at 0x1234");
}

TEST(Interpreter, RunsStraightLineProgram) {
  RunResult R = runProgram({
      makeLdi(1, 6),
      makeAluImm(Opcode::Muli, 1, 1, 7),
      makeSys(static_cast<uint32_t>(SyscallNumber::WriteWord)),
      makeLdi(1, 3),
      makeSys(static_cast<uint32_t>(SyscallNumber::Exit)),
  });
  ASSERT_TRUE(R.ok()) << R.Error.toString();
  EXPECT_EQ(R.ExitCode, 3u);
  EXPECT_EQ(R.WordLog, (std::vector<uint32_t>{42}));
  EXPECT_EQ(R.InstructionsExecuted, 5u);
  EXPECT_EQ(R.SyscallCount, 2u);
}

TEST(Interpreter, LoopExecutesCorrectCount) {
  // r1 = 10; loop: r2 += 2; r1 -= 1; bne r1, r0, loop.
  constexpr uint32_t Base = 0x00400000; // Executable load base.
  RunResult R = runProgram({
      makeLdi(1, 10),
      makeLdi(2, 0),
      makeLdi(3, 0),
      /*loop @ idx 3:*/ makeAluImm(Opcode::Addi, 2, 2, 2),
      makeAluImm(Opcode::Addi, 1, 1, 0xffffffffu),
      makeBranch(Opcode::Bne, 1, 3, Base + 3 * 8),
      makeAlu(Opcode::Add, 1, 2, 3), // r1 = r2 = 20.
      makeSys(static_cast<uint32_t>(SyscallNumber::Exit)),
  });
  ASSERT_TRUE(R.ok()) << R.Error.toString();
  EXPECT_EQ(R.ExitCode, 20u);
  // 3 setup + 10 * 3 loop + 2 tail.
  EXPECT_EQ(R.InstructionsExecuted, 35u);
}

TEST(Interpreter, InstructionLimitEnforced) {
  constexpr uint32_t Base = 0x00400000;
  auto Mod = std::make_shared<binary::Module>(
      "spin", "/bin/spin", binary::ModuleKind::Executable);
  Mod->setInstructions({makeJmp(Base)}); // Infinite loop.
  loader::ModuleRegistry Registry;
  auto M = Machine::create(Mod, Registry);
  ASSERT_TRUE(M.ok());
  RunLimits Limits;
  Limits.MaxInstructions = 1000;
  RunResult R = M->runNative(Limits);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error.code(), ErrorCode::GuestFault);
  EXPECT_EQ(R.InstructionsExecuted, 1000u);
}

TEST(Interpreter, NativeCostModelCharges) {
  RunResult R = runProgram({
      makeLdi(1, 0),
      makeSys(static_cast<uint32_t>(SyscallNumber::Exit)),
  });
  ASSERT_TRUE(R.ok());
  NativeCostModel Costs;
  EXPECT_EQ(R.Cycles, 2 * Costs.CyclesPerInstruction +
                          1 * Costs.CyclesPerSyscall);
}

TEST(Interpreter, FaultOnJumpToUnmapped) {
  RunResult R = runProgram({makeJmp(0x09000000)});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error.code(), ErrorCode::GuestFault);
}

TEST(Machine, InputRegionVisible) {
  tests::TinyWorkload W = tests::makeTinyWorkload(2, 0);
  auto Input = W.allSlotsInput(1);
  auto M = workloads::makeMachine(W.Registry, W.App, Input);
  ASSERT_TRUE(M.ok());
  auto N = M->space().read32(Machine::InputRegionBase);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(*N, 2u); // Work-item count.
}

namespace {

constexpr uint32_t ProgramBase = 0x00400000; // Executable load base.

Instruction writeWord() {
  return makeSys(static_cast<uint32_t>(SyscallNumber::WriteWord));
}

} // namespace

TEST(Exec, PageBoundaryProgramAgreesAcrossEngines) {
  // The stack [0x7ffe0000, 0x80000000) is contiguous, so its inner page
  // boundaries exercise the byte-wise paths with the next page mapped.
  constexpr uint32_t Boundary = 0x7ffefffc; // Page offset 4092.
  constexpr uint32_t Sub1 = ProgramBase + 1 * InstructionSize;
  constexpr uint32_t Sub2 = ProgramBase + 6 * InstructionSize;
  constexpr uint32_t Main = ProgramBase + 9 * InstructionSize;
  std::vector<Instruction> P = {
      makeJmp(Main),
      // Sub1: log the return address pushed at a page-spanning sp.
      makeLoad(5, StackPointerReg, 0),
      makeAluImm(Opcode::Addi, 1, 5, 0),
      writeWord(),
      makeRet(),
      // Never executed: Callr through r15 = Sub2 pushes into its Imm.
      makeHalt(),
      // Sub2: log sp, then return through the pushed address.
      makeAluImm(Opcode::Addi, 1, StackPointerReg, 0),
      writeWord(),
      makeRet(),
  };
  ASSERT_EQ(P.size() * InstructionSize, Main - ProgramBase);
  P.push_back(makeAluImm(Opcode::Addi, 14, StackPointerReg, 0));
  P.push_back(makeLdi(2, Boundary));
  for (uint32_t Off = 0; Off != 4; ++Off) {
    P.push_back(makeLdi(3, 0xa1b2c3d0 + Off));
    P.push_back(makeStore(2, static_cast<int32_t>(Off), 3));
    P.push_back(makeLoad(4, 2, static_cast<int32_t>(Off)));
    P.push_back(makeAluImm(Opcode::Addi, 1, 4, 0));
    P.push_back(writeWord());
  }
  P.push_back(makeLoad(1, 2, 0)); // Mixed bytes of the four stores.
  P.push_back(writeWord());
  for (uint32_t Off = 1; Off != 4; ++Off) {
    P.push_back(makeLdi(StackPointerReg, Boundary + Off + 4));
    P.push_back(makeCall(Sub1));
  }
  P.push_back(makeLdi(StackPointerReg, Sub2));
  P.push_back(makeCallr(StackPointerReg));
  P.push_back(makeAluImm(Opcode::Addi, StackPointerReg, 14, 0));
  P.push_back(makeLdi(1, 0));
  P.push_back(makeSys(static_cast<uint32_t>(SyscallNumber::Exit)));

  RunResult Native = runProgram(P);
  RunResult Translated = runProgram(P, /*UnderEngine=*/true);
  ASSERT_TRUE(Native.ok()) << Native.Error.toString();
  ASSERT_TRUE(Translated.ok()) << Translated.Error.toString();
  EXPECT_TRUE(Native.observablyEquals(Translated));
  ASSERT_EQ(Native.WordLog.size(), 9u);
  for (uint32_t Off = 0; Off != 4; ++Off)
    EXPECT_EQ(Native.WordLog[Off], 0xa1b2c3d0 + Off);
  EXPECT_EQ(Native.WordLog[4], 0xd3d2d1d0u);
  EXPECT_EQ(Native.WordLog[8], Sub2 - 4) << "Callr r15 pushed below Sub2";
}

TEST(Exec, PageSpanningStoreFaultAgreesAcrossEngines) {
  // The stack's top page ends at 0x80000000, which is unmapped: the
  // store writes its first two bytes, then faults on the third.
  std::vector<Instruction> P = {
      makeLdi(2, 0x7ffffffe), makeLdi(3, 0xa1b2c3d4), makeLdi(1, 5),
      writeWord(),            makeStore(2, 0, 3),     makeHalt(),
  };
  for (uint32_t Probe : {0x7ffffffeu, 0x7fffffffu}) {
    uint32_t NativeByte = 0;
    uint32_t EngineByte = 0;
    RunResult Native = runProgram(P, false, Probe, &NativeByte);
    RunResult Translated = runProgram(P, true, Probe, &EngineByte);
    ASSERT_FALSE(Native.ok());
    ASSERT_FALSE(Translated.ok());
    EXPECT_EQ(Native.Error.toString(), Translated.Error.toString());
    EXPECT_EQ(Native.Error.message(),
              "access to unmapped address 0x80000000");
    EXPECT_EQ(Native.InstructionsExecuted, 4u);
    EXPECT_EQ(Translated.InstructionsExecuted, 4u);
    EXPECT_EQ(Native.WordLog, Translated.WordLog);
    const uint32_t Expected = Probe == 0x7ffffffe ? 0xd4 : 0xc3;
    EXPECT_EQ(NativeByte, Expected);
    EXPECT_EQ(EngineByte, Expected);
  }
}
