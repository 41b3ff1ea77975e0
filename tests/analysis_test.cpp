//===- tests/analysis_test.cpp - CFG, dataflow, translation validation ----===//
//
// The static-analysis subsystem and its integration into the engine and
// the persistence layer: CFG reconstruction (loops, unreachable code,
// trace mode), dataflow fixpoints, the trace translation validator
// (identity, sound elision, and 100% detection of seeded single-
// instruction miscompiles), the --opt-flags elision pass, deep
// verification at prime/finalize, and `pcc-dbcheck --deep`.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/Validator.h"
#include "dbi/Compiler.h"
#include "persist/CacheDatabase.h"
#include "persist/DbCheck.h"
#include "persist/Session.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;
using isa::Opcode;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

// A counted loop: A = [ldi, ldi], B = [add, addi, bne -> B | C],
// C = [halt]. r1 counts down, r2 accumulates.
std::vector<Instruction> loopProgram(uint32_t Base) {
  return {
      isa::makeLdi(1, 10),
      isa::makeLdi(2, 0),
      isa::makeAlu(Opcode::Add, 2, 2, 1),
      isa::makeAluImm(Opcode::Addi, 1, 1, 0xffffffffu),
      isa::makeBranch(Opcode::Bne, 1, 0, Base + 2 * 8),
      isa::makeHalt(),
  };
}

// A straight-line trace body touching every effect class: constant,
// load, ALU, store, conditional branch, immediate ALU, syscall
// terminator.
std::vector<Instruction> effectBody() {
  return {
      isa::makeLdi(1, 0x40),
      isa::makeLoad(2, 1, 0),
      isa::makeAlu(Opcode::Add, 3, 2, 2),
      isa::makeStore(1, 4, 3),
      isa::makeBranch(Opcode::Beq, 3, 0, 0x2000),
      isa::makeAluImm(Opcode::Addi, 4, 3, 1),
      isa::makeSys(7),
  };
}

// Instruction slots symExecute can reach: everything up to and
// including the first trace terminator.
size_t reachableLen(const std::vector<Instruction> &Body) {
  for (size_t I = 0; I != Body.size(); ++I)
    if (isa::isTraceTerminator(Body[I].Op))
      return I + 1;
  return Body.size();
}

// A single-instruction mutation guaranteed to change guest-visible
// effects: a mid-body Halt introduces an exit the source does not
// have, and a Halt becomes a direct jump.
Instruction semanticMutation(const Instruction &Inst, uint32_t InstPc) {
  if (Inst.Op == Opcode::Halt)
    return isa::makeJmp(InstPc + isa::InstructionSize);
  return isa::makeHalt();
}

// Seeds one guaranteed-semantic miscompile into every trace of a cache
// file (at a per-trace position, cycling through the reachable prefix)
// and returns the mutated trace count. Re-serializing afterwards
// recomputes every CRC, so only the deep semantic pass can tell.
unsigned mutateEveryTrace(persist::CacheFile &File) {
  unsigned Mutated = 0;
  for (persist::TraceRecord &Rec : File.Traces) {
    auto Body = isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                               Rec.GuestInstCount);
    EXPECT_TRUE(Body.ok());
    if (!Body.ok())
      continue;
    size_t Idx = Mutated % reachableLen(*Body);
    auto Enc = semanticMutation(
                   (*Body)[Idx],
                   Rec.GuestStart +
                       static_cast<uint32_t>(Idx) * isa::InstructionSize)
                   .encode();
    std::copy(Enc.begin(), Enc.end(),
              Rec.Code.begin() + dbi::TracePrologueBytes +
                  Idx * isa::InstructionSize);
    ++Mutated;
  }
  return Mutated;
}

// Corrupts every trace of the (single) cache file in \p Db's directory
// in a CRC-transparent, semantics-changing way.
unsigned mutateDatabase(const std::string &Dir) {
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.ok());
  unsigned Mutated = 0;
  for (const std::string &Name : *Names) {
    if (Name.size() < 4 || Name.substr(Name.size() - 4) != ".pcc")
      continue;
    std::string Path = Dir + "/" + Name;
    auto Bytes = readFile(Path);
    EXPECT_TRUE(Bytes.ok());
    auto File = persist::CacheFile::deserialize(*Bytes);
    EXPECT_TRUE(File.ok());
    Mutated += mutateEveryTrace(*File);
    EXPECT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
  }
  return Mutated;
}

// Serializes the tiny workload's modules for `pcc-dbcheck --deep`.
std::vector<std::string> writeModuleFiles(const TinyWorkload &W,
                                          const std::string &Dir,
                                          bool IncludeLibrary = true) {
  std::vector<std::string> Paths;
  std::string AppPath = Dir + "/app.mod";
  EXPECT_TRUE(writeFileAtomic(AppPath, W.App->serialize()).ok());
  Paths.push_back(AppPath);
  if (IncludeLibrary) {
    auto Lib = W.Registry.find("libtest.so");
    EXPECT_TRUE(Lib != nullptr);
    std::string LibPath = Dir + "/lib.mod";
    EXPECT_TRUE(writeFileAtomic(LibPath, Lib->serialize()).ok());
    Paths.push_back(LibPath);
  }
  return Paths;
}

} // namespace

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

TEST(Cfg, LoopBlocksAndEdges) {
  const uint32_t Base = 0x1000;
  Cfg G = buildCfg(loopProgram(Base), Base, {Base});
  ASSERT_EQ(G.blocks().size(), 3u);

  int A = G.blockStartingAt(Base);
  int B = G.blockStartingAt(Base + 2 * 8);
  int C = G.blockStartingAt(Base + 5 * 8);
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);
  ASSERT_GE(C, 0);

  EXPECT_EQ(G.blocks()[A].InstCount, 2u);
  EXPECT_EQ(G.blocks()[B].InstCount, 3u);
  EXPECT_EQ(G.blocks()[C].InstCount, 1u);

  EXPECT_EQ(G.blocks()[A].Succs,
            std::vector<uint32_t>{static_cast<uint32_t>(B)});
  // The loop: B branches back to itself and falls through to C.
  std::vector<uint32_t> WantB{static_cast<uint32_t>(B),
                              static_cast<uint32_t>(C)};
  std::sort(WantB.begin(), WantB.end());
  EXPECT_EQ(G.blocks()[B].Succs, WantB);
  EXPECT_FALSE(G.blocks()[B].HasExternalSucc);
  EXPECT_TRUE(G.blocks()[C].Succs.empty());

  ASSERT_EQ(G.roots().size(), 1u);
  EXPECT_EQ(G.roots()[0], static_cast<uint32_t>(A));
}

TEST(Cfg, UnreachableInstructionsBelongToNoBlock) {
  const uint32_t Base = 0x2000;
  std::vector<Instruction> P{
      isa::makeJmp(Base + 3 * 8), // 0: skip over dead code
      isa::makeLdi(1, 1),         // 1: unreachable
      isa::makeLdi(2, 2),         // 2: unreachable
      isa::makeHalt(),            // 3
  };
  Cfg G = buildCfg(P, Base, {Base});
  ASSERT_EQ(G.blocks().size(), 2u);
  EXPECT_GE(G.blockContaining(Base), 0);
  EXPECT_EQ(G.blockContaining(Base + 1 * 8), -1);
  EXPECT_EQ(G.blockContaining(Base + 2 * 8), -1);
  EXPECT_GE(G.blockContaining(Base + 3 * 8), 0);

  // The solvers run over exactly the discovered blocks.
  LivenessResult L = solveLiveness(G);
  EXPECT_EQ(L.LiveIn.size(), G.blocks().size());
}

TEST(Cfg, TraceModeMakesBranchTargetsExternal) {
  const uint32_t Base = 0x1000;
  CfgOptions Opts;
  Opts.BranchTargetsExternal = true;
  Cfg G = buildCfg(loopProgram(Base), Base, {Base}, Opts);

  // The backedge target is not even a leader: traces are entered only
  // at their head, so the first block runs straight through the branch
  // and the taken edge leaves the region through the dispatcher.
  ASSERT_EQ(G.blocks().size(), 2u);
  int A = G.blockStartingAt(Base);
  int C = G.blockStartingAt(Base + 5 * 8);
  ASSERT_GE(A, 0);
  ASSERT_GE(C, 0);
  EXPECT_EQ(G.blocks()[A].InstCount, 5u);
  EXPECT_EQ(G.blocks()[A].Succs,
            std::vector<uint32_t>{static_cast<uint32_t>(C)});
  EXPECT_TRUE(G.blocks()[A].HasExternalSucc);
}

TEST(Cfg, IndirectTransfersAreSummarized) {
  const uint32_t Base = 0x1000;
  std::vector<Instruction> P{
      isa::makeLdi(5, 0x3000),
      isa::makeJr(5),
  };
  Cfg G = buildCfg(P, Base, {Base});
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_TRUE(G.blocks()[0].EndsInIndirect);
  EXPECT_TRUE(G.blocks()[0].HasExternalSucc);
  EXPECT_EQ(G.indirectSources(), std::vector<uint32_t>{1u});
}

TEST(Cfg, DecodeFaultTruncatesRegion) {
  std::vector<uint8_t> Bytes = isa::encodeAll(
      {isa::makeLdi(1, 7), isa::makeAlu(Opcode::Add, 2, 1, 1)});
  Bytes.push_back(0xff); // garbage opcode, then a truncated slot
  Bytes.push_back(0x00);

  Cfg G = buildCfgFromBytes(Bytes.data(), Bytes.size(), 0x4000,
                            {0x4000});
  ASSERT_TRUE(G.decodeFault().has_value());
  EXPECT_EQ(G.decodeFault()->InstIndex, 2u);
  EXPECT_EQ(G.decodeFault()->ByteOffset, 16u);
  EXPECT_EQ(G.instructions().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Length-aware decoding
//===----------------------------------------------------------------------===//

TEST(DecodeBuffer, TruncatedTailIsLocated) {
  std::vector<uint8_t> Bytes =
      isa::encodeAll({isa::makeLdi(1, 1), isa::makeHalt()});
  Bytes.resize(Bytes.size() + 3); // partial third instruction
  isa::DecodeResult R = isa::decodeBuffer(Bytes.data(), Bytes.size());
  EXPECT_EQ(R.Insts.size(), 2u);
  ASSERT_FALSE(R.complete());
  EXPECT_EQ(R.Error->InstIndex, 2u);
  EXPECT_EQ(R.Error->ByteOffset, 16u);
}

TEST(DecodeBuffer, InvalidOpcodeIsLocated) {
  std::vector<uint8_t> Bytes = isa::encodeAll(
      {isa::makeLdi(1, 1), isa::makeHalt(), isa::makeNop()});
  Bytes[8] = 0xee; // clobber the second opcode
  isa::DecodeResult R = isa::decodeBuffer(Bytes.data(), Bytes.size());
  EXPECT_EQ(R.Insts.size(), 1u);
  ASSERT_FALSE(R.complete());
  EXPECT_EQ(R.Error->InstIndex, 1u);
  EXPECT_EQ(R.Error->ByteOffset, 8u);
}

//===----------------------------------------------------------------------===//
// Dataflow fixpoints
//===----------------------------------------------------------------------===//

TEST(Dataflow, LivenessLoopFixpoint) {
  const uint32_t Base = 0x1000;
  Cfg G = buildCfg(loopProgram(Base), Base, {Base});
  int A = G.blockStartingAt(Base);
  int B = G.blockStartingAt(Base + 2 * 8);
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);

  LivenessResult L = solveLiveness(G);
  // r1 and r2 are loop-carried: live around the backedge and into B.
  EXPECT_TRUE(L.LiveIn[B] & (1u << 1));
  EXPECT_TRUE(L.LiveIn[B] & (1u << 2));
  EXPECT_TRUE(L.LiveOut[B] & (1u << 1));
  // Both are defined in A before any use: dead at A's entry.
  EXPECT_FALSE(L.LiveIn[A] & (1u << 1));
  EXPECT_FALSE(L.LiveIn[A] & (1u << 2));
  // liveBefore agrees with the block summaries: before the add, r1 and
  // r2 are both live; before the bne only r1 (and r0) matter, but r2
  // stays live across it on the loop path.
  RegSet BeforeAdd = L.liveBefore(G, static_cast<uint32_t>(B),
                                  G.blocks()[B].FirstInst);
  EXPECT_TRUE(BeforeAdd & (1u << 1));
  EXPECT_TRUE(BeforeAdd & (1u << 2));
}

TEST(Dataflow, LivenessBoundaryIsAllRegsInTraceMode) {
  const uint32_t Base = 0x1000;
  CfgOptions Opts;
  Opts.BranchTargetsExternal = true;
  Cfg G = buildCfg(loopProgram(Base), Base, {Base}, Opts);
  int A = G.blockStartingAt(Base);
  ASSERT_GE(A, 0);
  LivenessResult L = solveLiveness(G);
  // The taken branch leaves the region, so everything is observable.
  EXPECT_EQ(L.LiveOut[A], AllRegs);
}

TEST(Dataflow, DeadTraceDefs) {
  // Shadowed pure def with no intervening exit: dead.
  std::vector<Instruction> Shadowed{
      isa::makeLdi(3, 5),
      isa::makeLdi(4, 7),
      isa::makeAlu(Opcode::Add, 3, 4, 4),
      isa::makeJmp(0x2000),
  };
  std::vector<bool> Dead = findDeadTraceDefs(Shadowed, 0x1000);
  ASSERT_EQ(Dead.size(), Shadowed.size());
  EXPECT_TRUE(Dead[0]);
  EXPECT_FALSE(Dead[1]);
  EXPECT_FALSE(Dead[2]);
  EXPECT_FALSE(Dead[3]);

  // A branch between def and redef makes every register observable at
  // the exit: nothing is dead.
  std::vector<Instruction> AcrossExit{
      isa::makeLdi(3, 5),
      isa::makeBranch(Opcode::Beq, 1, 2, 0x2000),
      isa::makeLdi(3, 7),
      isa::makeJmp(0x3000),
  };
  Dead = findDeadTraceDefs(AcrossExit, 0x1000);
  EXPECT_TRUE(std::none_of(Dead.begin(), Dead.end(),
                           [](bool B) { return B; }));

  // A shadowed load is not pure (it can fault): never elided.
  std::vector<Instruction> DeadLoad{
      isa::makeLoad(3, 1, 0),
      isa::makeLdi(3, 1),
      isa::makeJmp(0x2000),
  };
  Dead = findDeadTraceDefs(DeadLoad, 0x1000);
  EXPECT_TRUE(std::none_of(Dead.begin(), Dead.end(),
                           [](bool B) { return B; }));
}

//===----------------------------------------------------------------------===//
// Translation validation
//===----------------------------------------------------------------------===//

TEST(Validator, IdentityValidates) {
  std::vector<std::vector<Instruction>> Bodies{
      effectBody(),
      {isa::makeLdi(5, 0x3000), isa::makeCallr(5)},
      {isa::makeRet()},
      {isa::makeAlu(Opcode::Add, 1, 2, 3)}, // fall-through exit
      loopProgram(0x1000),
  };
  for (const auto &Body : Bodies) {
    ValidationResult R = validateTranslation(0x1000, Body, Body);
    EXPECT_TRUE(R.Equivalent) << R.message();
  }
}

TEST(Validator, AcceptsDeadDefNopElision) {
  std::vector<Instruction> Source{
      isa::makeLdi(3, 5),
      isa::makeLdi(4, 7),
      isa::makeAlu(Opcode::Add, 3, 4, 4),
      isa::makeJmp(0x2000),
  };
  std::vector<Instruction> Elided = Source;
  Elided[0] = isa::makeNop();
  ValidationResult R = validateTranslation(0x1000, Source, Elided);
  EXPECT_TRUE(R.Equivalent) << R.message();
}

TEST(Validator, RejectsLoadElision) {
  // The loaded value is dead, but the access can fault: eliding the
  // load removes a guest-visible memory read.
  std::vector<Instruction> Source{
      isa::makeLoad(3, 1, 0),
      isa::makeLdi(3, 1),
      isa::makeJmp(0x2000),
  };
  std::vector<Instruction> Elided = Source;
  Elided[0] = isa::makeNop();
  ValidationResult R = validateTranslation(0x1000, Source, Elided);
  ASSERT_FALSE(R.Equivalent);
  ASSERT_TRUE(R.Mismatch.has_value());
}

TEST(Validator, CatchesTargetedMutations) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Source = effectBody();
  struct Case {
    size_t Index;
    Instruction Replacement;
    const char *What;
  };
  const Case Cases[] = {
      {0, isa::makeLdi(1, 0x44), "constant changed"},
      {1, isa::makeLoad(2, 1, 4), "load offset changed"},
      {2, isa::makeAlu(Opcode::Sub, 3, 2, 2), "ALU opcode swapped"},
      {3, isa::makeStore(1, 8, 3), "store offset changed"},
      {4, isa::makeBranch(Opcode::Bne, 3, 0, 0x2000),
       "branch condition inverted"},
      {4, isa::makeBranch(Opcode::Beq, 3, 0, 0x2008),
       "branch target shifted"},
      {5, isa::makeAluImm(Opcode::Addi, 4, 3, 2), "live imm changed"},
      {6, isa::makeSys(8), "syscall number changed"},
  };
  for (const Case &C : Cases) {
    std::vector<Instruction> Mutated = Source;
    Mutated[C.Index] = C.Replacement;
    ValidationResult R = validateTranslation(Start, Source, Mutated);
    EXPECT_FALSE(R.Equivalent) << C.What << " not flagged";
  }

  // Indirect-transfer and terminator mutations.
  const std::vector<Instruction> CallrBody{isa::makeLdi(5, 0x3000),
                                           isa::makeCallr(5)};
  std::vector<Instruction> M = CallrBody;
  M[1] = isa::makeCallr(6);
  EXPECT_FALSE(
      validateTranslation(Start, CallrBody, M).Equivalent)
      << "indirect register change not flagged";
  M = CallrBody;
  M[1] = isa::makeJr(5);
  EXPECT_FALSE(
      validateTranslation(Start, CallrBody, M).Equivalent)
      << "callr -> jr (missing return push) not flagged";

  const std::vector<Instruction> RetBody{isa::makeRet()};
  M = RetBody;
  M[0] = isa::makeJr(isa::StackPointerReg);
  EXPECT_FALSE(validateTranslation(Start, RetBody, M).Equivalent)
      << "ret -> jr (missing pop) not flagged";
}

TEST(Validator, CatchesEverySeededSingleInstructionMiscompile) {
  // 100% detection, zero false negatives: for every reachable slot of
  // every body, the universal seeder mutation must be flagged.
  std::vector<std::vector<Instruction>> Bodies{
      effectBody(),
      {isa::makeLdi(5, 0x3000), isa::makeCallr(5)},
      {isa::makeRet()},
      {isa::makeNop(), isa::makeHalt()},
      {isa::makeAlu(Opcode::Add, 1, 2, 3)},
      loopProgram(0x1000),
  };
  const uint32_t Start = 0x1000;
  unsigned Seeded = 0, Flagged = 0;
  for (const auto &Body : Bodies) {
    for (size_t I = 0; I != reachableLen(Body); ++I) {
      std::vector<Instruction> Mutated = Body;
      Mutated[I] = semanticMutation(
          Body[I],
          Start + static_cast<uint32_t>(I) * isa::InstructionSize);
      if (Mutated[I] == Body[I])
        continue;
      ++Seeded;
      ValidationResult R = validateTranslation(Start, Body, Mutated);
      Flagged += !R.Equivalent;
      EXPECT_FALSE(R.Equivalent)
          << "mutation at slot " << I << " not flagged";
    }
  }
  EXPECT_GT(Seeded, 0u);
  EXPECT_EQ(Flagged, Seeded) << "validator missed a seeded miscompile";
}

TEST(Validator, MismatchDiagnosticsAreStructured) {
  std::vector<Instruction> Source = effectBody();
  std::vector<Instruction> Mutated = Source;
  Mutated[6] = isa::makeSys(8);
  ValidationResult R = validateTranslation(0x1000, Source, Mutated);
  ASSERT_FALSE(R.Equivalent);
  ASSERT_TRUE(R.Mismatch.has_value());
  EXPECT_EQ(R.Mismatch->InstIndex, 6u);
  EXPECT_NE(R.message().find("syscall number"), std::string::npos);

  // Body-shape mismatches report the first differing position.
  std::vector<Instruction> Longer = Source;
  Longer.push_back(isa::makeNop());
  R = validateTranslation(0x1000, Source, Longer);
  ASSERT_FALSE(R.Equivalent);
  EXPECT_EQ(R.Mismatch->ExitIndex, ~0u);
}

//===----------------------------------------------------------------------===//
// --opt-flags elision under the engine
//===----------------------------------------------------------------------===//

namespace {

void expectArchitecturalStatsEqual(const dbi::EngineStats &A,
                                   const dbi::EngineStats &B) {
  EXPECT_EQ(A.GuestInstsExecuted, B.GuestInstsExecuted);
  EXPECT_EQ(A.SyscallCount, B.SyscallCount);
  EXPECT_EQ(A.TracesCompiled, B.TracesCompiled);
  EXPECT_EQ(A.TraceExecutions, B.TraceExecutions);
  EXPECT_EQ(A.LinksCreated, B.LinksCreated);
  EXPECT_EQ(A.ExecCycles, B.ExecCycles);
  EXPECT_EQ(A.Timeline.size(), B.Timeline.size());
}

void expectRunsEqual(const vm::RunResult &A, const vm::RunResult &B) {
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.WordLog, B.WordLog);
  EXPECT_EQ(A.InstructionsExecuted, B.InstructionsExecuted);
}

} // namespace

TEST(Elision, ArchitecturalResultsIdenticalAndValidated) {
  dbi::EngineOptions Plain;
  dbi::EngineOptions Optimized;
  Optimized.OptimizeFlags = true;

  uint64_t TotalElided = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    TinyWorkload W = makeTinyWorkload(3, 0, Seed);
    std::vector<uint8_t> Input = W.allSlotsInput(2);
    auto Base = workloads::runUnderEngine(W.Registry, W.App, Input,
                                          nullptr, Plain);
    auto Opt = workloads::runUnderEngine(W.Registry, W.App, Input,
                                         nullptr, Optimized);
    ASSERT_TRUE(Base.ok());
    ASSERT_TRUE(Opt.ok());
    expectRunsEqual(Base->Run, Opt->Run);
    expectArchitecturalStatsEqual(Base->Stats, Opt->Stats);
    // Every elided trace was proved equivalent; none rejected means no
    // unsound substitution was ever attempted on this workload.
    EXPECT_EQ(Opt->Stats.VerifyFailures, 0u);
    EXPECT_EQ(Base->Stats.FlagsElided, 0u);
    TotalElided += Opt->Stats.FlagsElided;
    if (Opt->Stats.FlagsElided != 0) {
      EXPECT_GT(Opt->Stats.TracesVerified, 0u);
    }
  }
  EXPECT_GT(TotalElided, 0u)
      << "no workload seed produced an elidable dead def";
}

TEST(Elision, StatsBitIdenticalWhenOff) {
  TinyWorkload W = makeTinyWorkload();
  std::vector<uint8_t> Input = W.allSlotsInput(2);
  auto A = workloads::runUnderEngine(W.Registry, W.App, Input);
  auto B = workloads::runUnderEngine(W.Registry, W.App, Input);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  expectRunsEqual(A->Run, B->Run);
  expectArchitecturalStatsEqual(A->Stats, B->Stats);
  EXPECT_EQ(A->Stats.CompileCycles, B->Stats.CompileCycles);
  EXPECT_EQ(A->Stats.DispatchCycles, B->Stats.DispatchCycles);
  EXPECT_EQ(A->Stats.TracesVerified, 0u);
  EXPECT_EQ(A->Stats.VerifyFailures, 0u);
  EXPECT_EQ(A->Stats.FlagsElided, 0u);
}

//===----------------------------------------------------------------------===//
// Deep verification through persistence
//===----------------------------------------------------------------------===//

TEST(SemanticPersist, ValidateSemanticCleanRoundTrip) {
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  std::vector<uint8_t> Input = W.allSlotsInput(2);

  persist::PersistOptions Opts;
  Opts.ValidateSemantic = true;

  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       Opts);
  ASSERT_TRUE(Cold.ok());
  // finalize() re-proved every written trace.
  EXPECT_GT(Cold->Stats.TracesVerified, 0u);
  EXPECT_EQ(Cold->Stats.VerifyFailures, 0u);

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       Opts);
  ASSERT_TRUE(Warm.ok());
  EXPECT_GT(Warm->Prime.TracesInstalled, 0u);
  // Primed traces validated at first materialization, plus the
  // finalize re-proof.
  EXPECT_GT(Warm->Stats.TracesVerified, 0u);
  EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
  expectRunsEqual(Cold->Run, Warm->Run);

  auto Quarantined = Db.quarantined();
  ASSERT_TRUE(Quarantined.ok());
  EXPECT_TRUE(Quarantined->empty());
}

TEST(SemanticPersist, PrimedMiscompileDroppedAndQuarantined) {
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  std::vector<uint8_t> Input = W.allSlotsInput(2);

  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  // Seed a CRC-transparent miscompile into every persisted trace.
  unsigned Mutated = mutateDatabase(Dir.path());
  ASSERT_GT(Mutated, 0u);

  persist::PersistOptions Opts;
  Opts.ValidateSemantic = true;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       Opts);
  ASSERT_TRUE(Warm.ok());
  // Every mutated trace the run touched was rejected at first decode
  // and retranslated; guest-visible results are unaffected.
  EXPECT_GT(Warm->Stats.VerifyFailures, 0u);
  expectRunsEqual(Cold->Run, Warm->Run);

  // The poisoned source cache went to quarantine, machine-readably.
  auto Quarantined = Db.quarantined();
  ASSERT_TRUE(Quarantined.ok());
  ASSERT_EQ(Quarantined->size(), 1u);
  EXPECT_EQ((*Quarantined)[0].Code,
            persist::QuarantineReasonCode::SemanticMismatch);

  // Without validation the same database would have been trusted — the
  // mutated payloads pass every CRC. (Fresh database state: restore is
  // not needed, the warm run re-published a clean cache.)
  auto Check = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Check.ok());
  EXPECT_EQ(Check->FilesCorrupt, 0u);
}

TEST(DeepCheck, CleanDatabaseHasNoFalsePositives) {
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(2), Db)
                  .ok());

  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.ModulePaths = writeModuleFiles(W, ModDir.path());
  auto Report = persist::checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Report.ok());
  EXPECT_TRUE(Report->clean());
  EXPECT_GT(Report->TracesVerified, 0u);
  EXPECT_EQ(Report->TracesMismatched, 0u);
  EXPECT_EQ(Report->TracesUnverifiable, 0u);
}

TEST(DeepCheck, ElidedTracesStillVerify) {
  // --opt-flags bodies persist with Nops where dead defs were; the
  // deep pass must accept them (sound elision is invisible at exits).
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  dbi::EngineOptions Optimized;
  Optimized.OptimizeFlags = true;

  uint64_t Elided = 0;
  for (uint64_t Seed = 1; Seed <= 20 && Elided == 0; ++Seed) {
    TinyWorkload W = makeTinyWorkload(3, 0, Seed);
    auto R = workloads::runPersistent(W.Registry, W.App,
                                      W.allSlotsInput(2), Db,
                                      persist::PersistOptions(), nullptr,
                                      Optimized);
    ASSERT_TRUE(R.ok());
    Elided = R->Stats.FlagsElided;
    if (Elided == 0) {
      ASSERT_TRUE(Db.clear().ok());
      continue;
    }
    persist::DbCheckOptions Opts;
    Opts.Deep = true;
    Opts.ModulePaths = writeModuleFiles(W, ModDir.path(),
                                        /*IncludeLibrary=*/false);
    auto Report = persist::checkDatabase(Dir.path(), Opts);
    ASSERT_TRUE(Report.ok());
    EXPECT_TRUE(Report->clean());
    EXPECT_EQ(Report->TracesMismatched, 0u);
    EXPECT_GT(Report->TracesVerified, 0u);
  }
  EXPECT_GT(Elided, 0u)
      << "no workload seed produced an elidable dead def";
}

TEST(DeepCheck, SeededMiscompilesAllFlagged) {
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(2), Db)
                  .ok());

  unsigned Mutated = mutateDatabase(Dir.path());
  ASSERT_GT(Mutated, 0u);

  // The CRC-only pass sees nothing wrong.
  auto Shallow = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Shallow.ok());
  EXPECT_EQ(Shallow->FilesCorrupt, 0u);

  // The deep pass flags every single seeded miscompile.
  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.ModulePaths = writeModuleFiles(W, ModDir.path());
  auto Report = persist::checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report->TracesMismatched, Mutated)
      << "deep verify must flag 100% of seeded miscompiles";
  EXPECT_EQ(Report->TracesVerified, 0u);
  EXPECT_GE(Report->FilesCorrupt, 1u);
  EXPECT_FALSE(Report->clean());
}

TEST(DeepCheck, RepairQuarantinesSemanticMismatches) {
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(2), Db)
                  .ok());
  ASSERT_GT(mutateDatabase(Dir.path()), 0u);

  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.Repair = true;
  Opts.ModulePaths = writeModuleFiles(W, ModDir.path());
  auto Report = persist::checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Report.ok());
  EXPECT_GE(Report->FilesQuarantined, 1u);
  ASSERT_GE(Report->Quarantine.size(), 1u);
  EXPECT_EQ(Report->Quarantine[0].Code,
            persist::QuarantineReasonCode::SemanticMismatch);

  // The database is clean afterwards — nothing poisoned remains.
  auto After = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After->FilesScanned, 0u);
}

TEST(DeepCheck, MissingModuleIsUnverifiableNotCorrupt) {
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  TinyWorkload W = makeTinyWorkload();
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(2), Db)
                  .ok());

  // Only the app module is supplied: library traces cannot be judged,
  // and must never be reported as mismatches.
  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.ModulePaths = writeModuleFiles(W, ModDir.path(),
                                      /*IncludeLibrary=*/false);
  auto Report = persist::checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Report.ok());
  EXPECT_TRUE(Report->clean());
  EXPECT_EQ(Report->TracesMismatched, 0u);
  EXPECT_GT(Report->TracesVerified, 0u);
  EXPECT_GT(Report->TracesUnverifiable, 0u);
}

TEST(DeepCheck, UnreadableModuleFileIsAWholePassError) {
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.ModulePaths = {Dir.path() + "/missing.mod"};
  auto Report = persist::checkDatabase(Dir.path(), Opts);
  EXPECT_FALSE(Report.ok());
}
