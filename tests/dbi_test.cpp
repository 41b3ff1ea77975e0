//===- tests/dbi_test.cpp - DBI engine unit and integration tests ---------===//

#include "dbi/CodeCache.h"
#include "dbi/Compiler.h"
#include "dbi/Engine.h"
#include "dbi/Tool.h"
#include "dbi/Trace.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;
using namespace pcc::isa;
using namespace pcc::dbi;
using tests::makeTinyWorkload;
using tests::TinyWorkload;

namespace {

/// Maps raw instructions at \p Base for trace-selection tests.
loader::AddressSpace spaceWith(const std::vector<Instruction> &Insts,
                               uint32_t Base = 0x1000) {
  loader::AddressSpace Space;
  EXPECT_TRUE(Space.mapRegion(Base, 0x4000).ok());
  std::vector<uint8_t> Bytes = encodeAll(Insts);
  EXPECT_TRUE(
      Space.writeBytes(Base, Bytes.data(),
                       static_cast<uint32_t>(Bytes.size()))
          .ok());
  return Space;
}

} // namespace

TEST(TraceSelection, EndsAtUnconditionalBranch) {
  auto Space = spaceWith({makeLdi(1, 1), makeAlu(Opcode::Add, 2, 1, 1),
                          makeJmp(0x2000), makeLdi(3, 3)});
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->numInsts(), 3u);
  ASSERT_EQ(T->Exits.size(), 1u);
  EXPECT_EQ(T->Exits[0].Kind, ExitKind::Direct);
  EXPECT_EQ(T->Exits[0].Target, 0x2000u);
  EXPECT_EQ(T->Exits[0].InstIndex, 2u);
}

TEST(TraceSelection, ConditionalBranchContinuesTrace) {
  auto Space = spaceWith({makeBranch(Opcode::Beq, 1, 2, 0x3000),
                          makeLdi(1, 1), makeRet()});
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->numInsts(), 3u);
  ASSERT_EQ(T->Exits.size(), 2u);
  EXPECT_EQ(T->Exits[0].Kind, ExitKind::Branch);
  EXPECT_EQ(T->Exits[0].Target, 0x3000u);
  EXPECT_EQ(T->Exits[1].Kind, ExitKind::Indirect);
}

TEST(TraceSelection, InstructionLimitProducesFallThrough) {
  std::vector<Instruction> Insts(20, makeAlu(Opcode::Add, 1, 1, 2));
  auto Space = spaceWith(Insts);
  auto T = selectTrace(Space, 0x1000, 8);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->numInsts(), 8u);
  ASSERT_EQ(T->Exits.size(), 1u);
  EXPECT_EQ(T->Exits[0].Kind, ExitKind::FallThrough);
  EXPECT_EQ(T->Exits[0].Target, 0x1000u + 8 * InstructionSize);
}

TEST(TraceSelection, SyscallEndsTraceWithFallThroughTarget) {
  auto Space = spaceWith({makeLdi(1, 1), makeSys(4), makeLdi(2, 2)});
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->numInsts(), 2u);
  ASSERT_EQ(T->Exits.size(), 1u);
  EXPECT_EQ(T->Exits[0].Kind, ExitKind::Syscall);
  EXPECT_EQ(T->Exits[0].Target, 0x1010u);
}

TEST(TraceSelection, HaltEndsTrace) {
  auto Space = spaceWith({makeHalt()});
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_TRUE(T.ok());
  ASSERT_EQ(T->Exits.size(), 1u);
  EXPECT_EQ(T->Exits[0].Kind, ExitKind::Halt);
}

TEST(TraceSelection, CountsBlocksAndMemoryOps) {
  auto Space = spaceWith({makeLoad(1, 15, 0),
                          makeBranch(Opcode::Beq, 1, 2, 0x3000),
                          makeStore(15, 4, 1), makeRet()});
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->numBasicBlocks(), 2u);
  EXPECT_EQ(T->numMemoryAccesses(), 2u);
}

TEST(TraceSelection, UnmappedCodeFaults) {
  loader::AddressSpace Space;
  auto T = selectTrace(Space, 0x1000, 16);
  ASSERT_FALSE(T.ok());
  EXPECT_EQ(T.status().code(), ErrorCode::GuestFault);
}

TEST(CodeCache, AllocateAndLookup) {
  CodeCache Cache(1 << 20, 1 << 20);
  auto Offset = Cache.allocateCode(64);
  ASSERT_TRUE(Offset.ok());
  EXPECT_EQ(*Offset, 0u);
  auto T = std::make_unique<TranslatedTrace>(
      0x1000, 2, *Offset, 64, std::vector<TraceExit>{},
      /*FromPersistentCache=*/false);
  auto Added = Cache.addTrace(std::move(T));
  ASSERT_TRUE(Added.ok());
  EXPECT_EQ(Cache.lookup(0x1000), *Added);
  EXPECT_EQ(Cache.lookup(0x2000), nullptr);
}

TEST(CodeCache, CodePoolExhaustion) {
  CodeCache Cache(100, 1 << 20);
  ASSERT_TRUE(Cache.allocateCode(80).ok());
  auto Fail = Cache.allocateCode(80);
  ASSERT_FALSE(Fail.ok());
  EXPECT_EQ(Fail.status().code(), ErrorCode::OutOfMemory);
}

TEST(CodeCache, DataPoolExhaustion) {
  CodeCache Cache(1 << 20, 100); // Data pool smaller than one trace.
  auto T = std::make_unique<TranslatedTrace>(
      0x1000, 4, 0, 0, std::vector<TraceExit>{}, false);
  auto Added = Cache.addTrace(std::move(T));
  ASSERT_FALSE(Added.ok());
  EXPECT_EQ(Added.status().code(), ErrorCode::OutOfMemory);
}

TEST(CodeCache, FlushDiscardsEverything) {
  CodeCache Cache(1 << 20, 1 << 20);
  ASSERT_TRUE(Cache.allocateCode(64).ok());
  auto T = std::make_unique<TranslatedTrace>(
      0x1000, 2, 0, 64, std::vector<TraceExit>{}, false);
  ASSERT_TRUE(Cache.addTrace(std::move(T)).ok());
  Cache.flush();
  EXPECT_EQ(Cache.lookup(0x1000), nullptr);
  EXPECT_EQ(Cache.codeBytesUsed(), 0u);
  EXPECT_EQ(Cache.dataBytesUsed(), 0u);
  EXPECT_TRUE(Cache.traces().empty());
}

TEST(CodeCache, LinkAndRemoveRangeUnlinks) {
  CodeCache Cache(1 << 20, 1 << 20);
  std::vector<TraceExit> ExitsA = {
      TraceExit{ExitKind::Direct, 0, 0x2000}};
  auto A = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x1000, 1, 0, 0, ExitsA, false));
  auto B = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x2000, 1, 0, 0, std::vector<TraceExit>{}, false));
  ASSERT_TRUE(A.ok() && B.ok());
  Cache.link(*A, 0, *B);
  EXPECT_EQ((*A)->exits()[0].Link, *B);
  ASSERT_EQ((*B)->incomingLinks().size(), 1u);

  // Removing B's range must unlink A's exit.
  EXPECT_EQ(Cache.removeTracesInRange(0x2000, 0x100), 1u);
  EXPECT_EQ((*A)->exits()[0].Link, nullptr);
  EXPECT_EQ(Cache.lookup(0x2000), nullptr);
  EXPECT_EQ(Cache.lookup(0x1000), *A);
}

TEST(CodeCache, RemoveRangeDropsOutgoingIncomingEdges) {
  CodeCache Cache(1 << 20, 1 << 20);
  std::vector<TraceExit> ExitsA = {
      TraceExit{ExitKind::Direct, 0, 0x2000}};
  auto A = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x1000, 1, 0, 0, ExitsA, false));
  auto B = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x2000, 1, 0, 0, std::vector<TraceExit>{}, false));
  ASSERT_TRUE(A.ok() && B.ok());
  Cache.link(*A, 0, *B);
  // Removing A (the source) must clear B's incoming list.
  EXPECT_EQ(Cache.removeTracesInRange(0x1000, 0x100), 1u);
  EXPECT_TRUE((*B)->incomingLinks().empty());
}

TEST(CodeCache, TouchPagesCountsNewPagesOnce) {
  CodeCache Cache(1 << 20, 1 << 20);
  ASSERT_TRUE(Cache.installPersistedPool(
      std::vector<uint8_t>(3 * binary::PageSize, 0)).ok());
  EXPECT_EQ(Cache.touchPages(0, 100), 1u);
  EXPECT_EQ(Cache.touchPages(50, 100), 0u); // Same page.
  EXPECT_EQ(Cache.touchPages(4000, 200), 1u); // Crosses into page 1.
  EXPECT_EQ(Cache.touchPages(0, 3 * binary::PageSize), 1u); // Page 2.
}

TEST(Compiler, ChargesCompileCycles) {
  auto Space = spaceWith({makeLdi(1, 1), makeJmp(0x2000)});
  CodeCache Cache(1 << 20, 1 << 20);
  CostModel Costs;
  Compiler Comp(Space, Cache, Costs, InstrumentationSpec(), 16);
  EngineStats Stats;
  auto T = Comp.compile(0x1000, Stats);
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(Stats.TracesCompiled, 1u);
  EXPECT_EQ(Stats.CompileCycles,
            Costs.CompileCyclesPerTrace + 2 * Costs.CompileCyclesPerInst);
  EXPECT_EQ(Stats.Timeline.size(), 1u);
  EXPECT_TRUE((*T)->isMaterialized());
  EXPECT_EQ((*T)->guestInstCount(), 2u);
}

TEST(Compiler, InstrumentationAddsCompileCostAndCodeBytes) {
  auto Space = spaceWith({makeLoad(1, 15, 0), makeJmp(0x2000)});
  CostModel Costs;
  InstrumentationSpec Spec;
  Spec.MemoryAccesses = true;

  CodeCache Plain(1 << 20, 1 << 20);
  EngineStats PlainStats;
  Compiler PlainComp(Space, Plain, Costs, InstrumentationSpec(), 16);
  ASSERT_TRUE(PlainComp.compile(0x1000, PlainStats).ok());

  CodeCache Instr(1 << 20, 1 << 20);
  EngineStats InstrStats;
  Compiler InstrComp(Space, Instr, Costs, Spec, 16);
  ASSERT_TRUE(InstrComp.compile(0x1000, InstrStats).ok());

  EXPECT_GT(InstrStats.CompileCycles, PlainStats.CompileCycles);
  EXPECT_GT(Instr.codeBytesUsed(), Plain.codeBytesUsed());
}

TEST(Engine, MatchesInterpreterObservably) {
  TinyWorkload W = makeTinyWorkload(4, 3);
  auto Input = W.allSlotsInput(3);

  auto Native = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Native.ok()) << Native.status().toString();
  auto Translated = workloads::runUnderEngine(W.Registry, W.App, Input);
  ASSERT_TRUE(Translated.ok()) << Translated.status().toString();

  EXPECT_TRUE(Native->observablyEquals(Translated->Run));
  EXPECT_GT(Translated->Run.Cycles, Native->Cycles)
      << "translation must cost something";
}

TEST(Engine, StatsAccounting) {
  TinyWorkload W = makeTinyWorkload(3, 0);
  auto R = workloads::runUnderEngine(W.Registry, W.App,
                                     W.allSlotsInput(2));
  ASSERT_TRUE(R.ok());
  const EngineStats &S = R->Stats;
  EXPECT_GT(S.TracesCompiled, 0u);
  EXPECT_GT(S.CompileCycles, 0u);
  EXPECT_GT(S.DispatchCycles, 0u);
  EXPECT_GT(S.ExecCycles, 0u);
  EXPECT_EQ(S.TracesLoadedFromCache, 0u);
  EXPECT_EQ(S.CacheFlushes, 0u);
  EXPECT_EQ(S.GuestInstsExecuted, R->Run.InstructionsExecuted);
  EXPECT_EQ(S.totalCycles(), R->Run.Cycles);
  EXPECT_EQ(S.vmCycles() + S.translatedCycles() + S.EmulationCycles,
            S.totalCycles());
}

TEST(Engine, SecondIterationReusesTraces) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  auto Once = workloads::runUnderEngine(W.Registry, W.App,
                                        W.allSlotsInput(1));
  auto Many = workloads::runUnderEngine(W.Registry, W.App,
                                        W.allSlotsInput(50));
  ASSERT_TRUE(Once.ok() && Many.ok());
  // 50x the execution discovers at most a few extra paths (the code
  // cache amortizes translation), and executions dwarf compilations.
  EXPECT_LE(Many->Stats.TracesCompiled,
            2 * Once->Stats.TracesCompiled);
  EXPECT_GT(Many->Stats.TraceExecutions,
            10 * Many->Stats.TracesCompiled);
  EXPECT_GT(Many->Run.InstructionsExecuted,
            10 * Once->Run.InstructionsExecuted);
}

TEST(Engine, LinkingReducesDispatches) {
  TinyWorkload W = makeTinyWorkload(3, 0);
  auto Input = W.allSlotsInput(40);

  dbi::EngineOptions Linked;
  auto WithLinks =
      workloads::runUnderEngine(W.Registry, W.App, Input, nullptr,
                                Linked);
  dbi::EngineOptions Unlinked;
  Unlinked.EnableLinking = false;
  auto WithoutLinks =
      workloads::runUnderEngine(W.Registry, W.App, Input, nullptr,
                                Unlinked);
  ASSERT_TRUE(WithLinks.ok() && WithoutLinks.ok());
  EXPECT_TRUE(WithLinks->Run.observablyEquals(WithoutLinks->Run));
  EXPECT_GT(WithLinks->Stats.LinksCreated, 0u);
  EXPECT_EQ(WithoutLinks->Stats.LinksCreated, 0u);
  EXPECT_LT(WithLinks->Stats.DispatchCycles,
            WithoutLinks->Stats.DispatchCycles);
  EXPECT_LT(WithLinks->Run.Cycles, WithoutLinks->Run.Cycles);
}

TEST(Engine, CacheFlushRecoversAndStaysCorrect) {
  TinyWorkload W = makeTinyWorkload(6, 0);
  auto Input = W.allSlotsInput(4);

  auto Reference = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Reference.ok());

  dbi::EngineOptions Tiny;
  Tiny.CodePoolBytes = 3000; // Forces repeated flushes.
  Tiny.DataPoolBytes = 3000;
  auto R = workloads::runUnderEngine(W.Registry, W.App, Input, nullptr,
                                     Tiny);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_GT(R->Stats.CacheFlushes, 0u);
  EXPECT_TRUE(Reference->observablyEquals(R->Run));
  // Flushing forces retranslation of the same code.
  auto Roomy = workloads::runUnderEngine(W.Registry, W.App, Input);
  ASSERT_TRUE(Roomy.ok());
  EXPECT_GT(R->Stats.TracesCompiled, Roomy->Stats.TracesCompiled);
}

TEST(Engine, SyscallsGoThroughEmulation) {
  TinyWorkload W = makeTinyWorkload(1, 0, /*Seed=*/5);
  // Region with yields: rebuild app with syscall pressure.
  workloads::AppDef Def;
  Def.Name = "sysapp";
  Def.Path = "/bin/sysapp";
  workloads::RegionDef Region;
  Region.Name = "r0";
  Region.Blocks = 4;
  Region.InstsPerBlock = 8;
  Region.YieldEveryBlocks = 1;
  Region.Seed = 7;
  Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Region)));
  auto App = workloads::buildExecutable(Def);
  loader::ModuleRegistry Registry;
  auto Input =
      workloads::encodeWorkload({workloads::WorkItem{0, 10}});
  auto R = workloads::runUnderEngine(Registry, App, Input);
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R->Stats.EmulationCycles, 0u);
  EXPECT_GT(R->Run.SyscallCount, 1u);
}

TEST(Tools, BasicBlockCounterSeesAllInstructions) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  auto Input = W.allSlotsInput(5);
  BasicBlockCounterTool Tool;
  auto R = workloads::runUnderEngine(W.Registry, W.App, Input, &Tool);
  ASSERT_TRUE(R.ok());
  // Block-attributed instruction counts must equal execution counts.
  EXPECT_EQ(Tool.totalInstructions(), R->Run.InstructionsExecuted);
  EXPECT_GT(Tool.totalBlocks(), 0u);
  EXPECT_GT(Tool.counts().size(), 4u);
  EXPECT_GT(R->Stats.ToolCycles, 0u);
}

TEST(Tools, InstructionCounterExact) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  auto Input = W.allSlotsInput(3);
  InstructionCounterTool Tool;
  auto R = workloads::runUnderEngine(W.Registry, W.App, Input, &Tool);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Tool.count(), R->Run.InstructionsExecuted);
}

TEST(Tools, MemTraceDeterministicChecksum) {
  TinyWorkload W = makeTinyWorkload(2, 2);
  auto Input = W.allSlotsInput(4);
  MemRefTraceTool A, B;
  auto R1 = workloads::runUnderEngine(W.Registry, W.App, Input, &A);
  auto R2 = workloads::runUnderEngine(W.Registry, W.App, Input, &B);
  ASSERT_TRUE(R1.ok() && R2.ok());
  EXPECT_GT(A.loadCount() + A.storeCount(), 0u);
  EXPECT_EQ(A.loadCount(), B.loadCount());
  EXPECT_EQ(A.storeCount(), B.storeCount());
  EXPECT_EQ(A.checksum(), B.checksum());
}

TEST(Tools, InstrumentationDoesNotChangeResults) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  auto Input = W.allSlotsInput(6);
  auto Plain = workloads::runUnderEngine(W.Registry, W.App, Input);
  BasicBlockCounterTool Tool;
  auto Instr =
      workloads::runUnderEngine(W.Registry, W.App, Input, &Tool);
  ASSERT_TRUE(Plain.ok() && Instr.ok());
  EXPECT_TRUE(Plain->Run.observablyEquals(Instr->Run));
  EXPECT_GT(Instr->Run.Cycles, Plain->Run.Cycles);
  EXPECT_GT(Instr->Stats.CompileCycles, Plain->Stats.CompileCycles);
}

TEST(Tools, KeyHashesDifferAcrossTools) {
  BasicBlockCounterTool Bb;
  MemRefTraceTool Mem;
  InstructionCounterTool Icount;
  NullTool Null;
  EXPECT_NE(Bb.keyHash(), Mem.keyHash());
  EXPECT_NE(Bb.keyHash(), Icount.keyHash());
  EXPECT_NE(Bb.keyHash(), Null.keyHash());
  EXPECT_NE(Null.keyHash(), persist::noToolHash());
}

TEST(CodeCache, EvictOldestCompactsPool) {
  CodeCache Cache(1 << 20, 1 << 20);
  std::vector<TranslatedTrace *> Added;
  for (uint32_t I = 0; I != 4; ++I) {
    auto Offset = Cache.allocateCode(100);
    ASSERT_TRUE(Offset.ok());
    Cache.writeCode(*Offset, std::vector<uint8_t>(100,
                                                  static_cast<uint8_t>(I)));
    auto T = Cache.addTrace(std::make_unique<TranslatedTrace>(
        0x1000 + I * 0x100, 2, *Offset, 100,
        std::vector<TraceExit>{}, false));
    ASSERT_TRUE(T.ok());
    Added.push_back(*T);
  }
  uint64_t GenBefore = Cache.modificationGeneration();
  EXPECT_EQ(Cache.evictOldest(0.5), 2u);
  EXPECT_GT(Cache.modificationGeneration(), GenBefore);
  // Oldest two gone from the map; survivors relocated to pool start.
  EXPECT_EQ(Cache.lookup(0x1000), nullptr);
  EXPECT_EQ(Cache.lookup(0x1100), nullptr);
  ASSERT_EQ(Cache.lookup(0x1200), Added[2]);
  ASSERT_EQ(Cache.lookup(0x1300), Added[3]);
  EXPECT_EQ(Cache.codeBytesUsed(), 200u);
  EXPECT_EQ(Added[2]->poolOffset(), 0u);
  EXPECT_EQ(Added[3]->poolOffset(), 100u);
  // Compaction preserved the bytes.
  EXPECT_EQ(Cache.codeAt(0)[0], 2);
  EXPECT_EQ(Cache.codeAt(100)[0], 3);
}

TEST(CodeCache, EvictOldestUnlinksAcrossTheCut) {
  CodeCache Cache(1 << 20, 1 << 20);
  std::vector<TraceExit> ExitsOld = {
      TraceExit{ExitKind::Direct, 0, 0x2000}};
  auto Old = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x1000, 1, 0, 0, ExitsOld, false));
  std::vector<TraceExit> ExitsNew = {
      TraceExit{ExitKind::Direct, 0, 0x1000}};
  auto New = Cache.addTrace(std::make_unique<TranslatedTrace>(
      0x2000, 1, 0, 0, ExitsNew, false));
  ASSERT_TRUE(Old.ok() && New.ok());
  Cache.link(*Old, 0, *New); // old -> new
  Cache.link(*New, 0, *Old); // new -> old
  EXPECT_EQ(Cache.evictOldest(0.5), 1u); // Evicts 0x1000.
  // The survivor's dangling link must be cleared.
  EXPECT_EQ((*New)->exits()[0].Link, nullptr);
  EXPECT_TRUE((*New)->incomingLinks().empty());
}

TEST(Engine, GranularEvictionOutperformsFlushUnderPressure) {
  TinyWorkload W = makeTinyWorkload(8, 0, /*Seed=*/21);
  auto Input = W.allSlotsInput(6);
  auto Reference = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Reference.ok());

  dbi::EngineOptions Flush;
  Flush.CodePoolBytes = 4000;
  Flush.DataPoolBytes = 4000;
  auto FlushRun = workloads::runUnderEngine(W.Registry, W.App, Input,
                                            nullptr, Flush);
  ASSERT_TRUE(FlushRun.ok());
  ASSERT_GT(FlushRun->Stats.CacheFlushes, 0u);

  dbi::EngineOptions Evict = Flush;
  Evict.Eviction = dbi::EvictionPolicy::EvictOldestHalf;
  auto EvictRun = workloads::runUnderEngine(W.Registry, W.App, Input,
                                            nullptr, Evict);
  ASSERT_TRUE(EvictRun.ok());
  EXPECT_GT(EvictRun->Stats.TracesEvicted, 0u);

  // Correctness is identical; granular eviction retranslates less.
  EXPECT_TRUE(Reference->observablyEquals(FlushRun->Run));
  EXPECT_TRUE(Reference->observablyEquals(EvictRun->Run));
  EXPECT_LT(EvictRun->Stats.TracesCompiled,
            FlushRun->Stats.TracesCompiled);
}

// Nop skipping in promoted bodies. The executor runs OptGen >= 1
// bodies over their live-op streams, which leave the Nop slots out,
// and accounts guest work once per trace exit; the counters must still
// equal a walk of every slot. The guest
// programs below contain real Nops, every trace they run is compiled
// up front and promoted by hand, so each translated body equals its
// guest code and the native instruction stream is the slot stream.

namespace {

constexpr uint32_t ProgBase = 0x00400000; // Executable load base.

std::shared_ptr<binary::Module>
programModule(const std::vector<Instruction> &Insts) {
  auto Mod = std::make_shared<binary::Module>(
      "prog", "/bin/prog", binary::ModuleKind::Executable);
  Mod->setInstructions(Insts);
  Mod->setBssSize(binary::PageSize);
  return Mod;
}

Instruction sysCall(vm::SyscallNumber N) {
  return makeSys(static_cast<uint32_t>(N));
}

/// Guest instructions and Nops completed by a one-instruction-at-a-time
/// walk (a faulting instruction does not complete).
struct SlotCounts {
  uint64_t Insts = 0;
  uint64_t Nops = 0;
};

SlotCounts referenceWalk(const std::vector<Instruction> &Insts) {
  loader::ModuleRegistry Registry;
  auto M = vm::Machine::create(programModule(Insts), Registry);
  EXPECT_TRUE(M.ok());
  vm::CpuState Cpu = M->initialCpuState();
  vm::SyscallEnv Env;
  SlotCounts Counts;
  for (;;) {
    uint8_t Raw[InstructionSize];
    if (!M->space().fetchInstructionBytes(Cpu.Pc, Raw).ok())
      break;
    auto Inst = Instruction::decode(Raw);
    EXPECT_TRUE(Inst.ok());
    vm::StepResult Step = vm::step(*Inst, Cpu.Pc, Cpu, M->space(), Env);
    if (Step.Kind == vm::StepKind::Faulted)
      break;
    ++Counts.Insts;
    Counts.Nops += Inst->Op == Opcode::Nop ? 1 : 0;
    if (Step.Kind == vm::StepKind::Halted)
      break;
    Cpu.Pc = Step.NextPc; // Single-threaded: a syscall falls through.
  }
  return Counts;
}

struct PromotedRun {
  vm::RunResult Run;
  EngineStats Stats;
  uint64_t ExpectedExecCycles = 0;
};

/// Compiles into \p E's cache every trace that a run of \p Insts
/// executes, and promotes each to generation 1, so that E.run()
/// executes promoted bodies only.
void promoteAllTraces(Engine &E, const std::vector<Instruction> &Insts) {
  std::vector<uint32_t> Starts;
  {
    loader::ModuleRegistry Registry;
    auto Discover = vm::Machine::create(programModule(Insts), Registry);
    ASSERT_TRUE(Discover.ok());
    Engine D(*Discover, nullptr);
    (void)D.run();
    for (const auto &T : D.cache().traces())
      Starts.push_back(T->guestStart());
  }
  Compiler Precompile(E.machine().space(), E.cache(), E.options().Costs,
                      E.spec(), E.options().MaxTraceInsts);
  EngineStats Scratch;
  for (uint32_t Start : Starts) {
    auto T = Precompile.compile(Start, Scratch);
    ASSERT_TRUE(T.ok());
    (*T)->setOptGen(1);
  }
}

/// Runs \p Insts under the engine with every trace the program executes
/// compiled beforehand and promoted to generation 1.
PromotedRun runPromoted(const std::vector<Instruction> &Insts,
                        Tool *ClientTool,
                        const SlotCounts &Reference) {
  loader::ModuleRegistry Registry;
  auto M = vm::Machine::create(programModule(Insts), Registry);
  EXPECT_TRUE(M.ok());
  Engine E(*M, ClientTool);
  promoteAllTraces(E, Insts);
  PromotedRun Out;
  Out.Run = E.run();
  Out.Stats = E.stats();
  Out.ExpectedExecCycles =
      E.options().Costs.translatedExecCycles(Reference.Insts -
                                             Reference.Nops);
  EXPECT_EQ(Out.Stats.TracesCompiled, 0u) << "a trace was left unpromoted";
  return Out;
}

struct NopProgram {
  const char *Name;
  std::vector<Instruction> Insts;
  bool Faults = false;
};

std::vector<NopProgram> nopPrograms() {
  const Instruction Exit0[] = {makeLdi(1, 0),
                               sysCall(vm::SyscallNumber::Exit)};
  std::vector<NopProgram> Programs;

  Programs.push_back({"leading nops",
                      {makeNop(), makeNop(), makeNop(), makeLdi(1, 7),
                       sysCall(vm::SyscallNumber::WriteWord), Exit0[0],
                       Exit0[1]}});

  // 13 live slots then 3 Nops: the 16-slot trace ends in Nops and
  // leaves through its fall-through exit, three times around a loop.
  NopProgram Trailing{"trailing nops", {makeLdi(5, 3)}};
  for (int I = 0; I != 12; ++I)
    Trailing.Insts.push_back(makeAluImm(Opcode::Addi, 2, 2, 1));
  Trailing.Insts.insert(Trailing.Insts.end(),
                        {makeNop(), makeNop(), makeNop(),
                         makeAluImm(Opcode::Addi, 5, 5, 0xffffffffu),
                         makeBranch(Opcode::Bne, 5, 0, ProgBase + 8),
                         makeAluImm(Opcode::Addi, 1, 2, 0),
                         sysCall(vm::SyscallNumber::WriteWord), Exit0[0],
                         Exit0[1]});
  Programs.push_back(std::move(Trailing));

  NopProgram AllNops{"all-nop body", std::vector<Instruction>(20, makeNop())};
  AllNops.Insts.insert(AllNops.Insts.end(), {Exit0[0], Exit0[1]});
  Programs.push_back(std::move(AllNops));

  // A loop whose back edge is taken right after a Nop run.
  Programs.push_back(
      {"branch after nops",
       {makeLdi(1, 10), makeAluImm(Opcode::Addi, 1, 1, 0xffffffffu),
        makeNop(), makeNop(), makeNop(),
        makeBranch(Opcode::Bne, 1, 0, ProgBase + 8), makeNop(),
        makeLdi(1, 42), sysCall(vm::SyscallNumber::WriteWord), Exit0[0],
        Exit0[1]}});

  Programs.push_back({"fault after nops",
                      {makeLdi(1, 5), sysCall(vm::SyscallNumber::WriteWord),
                       makeLdi(2, 0x90000000), makeNop(), makeNop(),
                       makeLoad(3, 2, 0), makeNop(), makeHalt()},
                      /*Faults=*/true});

  Programs.push_back({"syscall in promoted body",
                      {makeNop(), makeLdi(1, 9), makeNop(),
                       sysCall(vm::SyscallNumber::WriteWord), makeNop(),
                       makeNop(), sysCall(vm::SyscallNumber::Yield),
                       makeNop(), Exit0[0], Exit0[1]}});
  return Programs;
}

} // namespace

TEST(NopSkip, PromotedBodiesCountEverySlot) {
  for (const NopProgram &P : nopPrograms()) {
    SCOPED_TRACE(P.Name);
    SlotCounts Reference = referenceWalk(P.Insts);
    ASSERT_GT(Reference.Nops, 0u);

    PromotedRun Plain = runPromoted(P.Insts, nullptr, Reference);
    EXPECT_EQ(Plain.Stats.GuestInstsExecuted, Reference.Insts);
    EXPECT_EQ(Plain.Stats.OptNopsExecuted, Reference.Nops);
    EXPECT_EQ(Plain.Stats.ExecCycles, Plain.ExpectedExecCycles);
    EXPECT_EQ(Plain.Run.InstructionsExecuted, Reference.Insts);

    // The instrumented loop walks every slot instead of skipping.
    InstructionCounterTool Counter;
    PromotedRun Counted = runPromoted(P.Insts, &Counter, Reference);
    EXPECT_EQ(Counted.Stats.GuestInstsExecuted, Reference.Insts);
    EXPECT_EQ(Counted.Stats.OptNopsExecuted, Reference.Nops);
    EXPECT_EQ(Counted.Stats.ExecCycles, Plain.Stats.ExecCycles);
    const uint64_t Faulting = P.Faults ? 1 : 0;
    EXPECT_EQ(Counter.count(), Reference.Insts + Faulting)
        << "the tool sees every slot, Nops and a faulting one included";

    loader::ModuleRegistry Registry;
    auto Native = vm::Machine::create(programModule(P.Insts), Registry);
    ASSERT_TRUE(Native.ok());
    vm::RunResult Expected = Native->runNative();
    if (P.Faults) {
      ASSERT_FALSE(Plain.Run.ok());
      EXPECT_EQ(Plain.Run.Error.toString(), Expected.Error.toString());
      EXPECT_EQ(Counted.Run.Error.toString(), Expected.Error.toString());
      EXPECT_EQ(Plain.Run.WordLog, Expected.WordLog);
    } else {
      EXPECT_TRUE(Expected.observablyEquals(Plain.Run));
      EXPECT_TRUE(Expected.observablyEquals(Counted.Run));
    }
  }
}

TEST(NopSkip, UnpromotedBodiesEarnNoDiscount) {
  // The same Nops in generation-0 bodies are guest work like any other.
  std::vector<Instruction> P = {makeNop(), makeNop(), makeLdi(1, 0),
                                sysCall(vm::SyscallNumber::Exit)};
  loader::ModuleRegistry Registry;
  auto M = vm::Machine::create(programModule(P), Registry);
  ASSERT_TRUE(M.ok());
  Engine E(*M, nullptr);
  ASSERT_TRUE(E.run().ok());
  EXPECT_EQ(E.stats().GuestInstsExecuted, 4u);
  EXPECT_EQ(E.stats().OptNopsExecuted, 0u);
  EXPECT_EQ(E.stats().ExecCycles, E.options().Costs.translatedExecCycles(4));
}

TEST(NopSkip, LiveOpStreamListsNonNopSlotsInOrder) {
  TranslatedTrace T(0x1000, 6, 0, 0, {}, /*FromPersistentCache=*/false);
  T.materialize({makeNop(), makeLdi(1, 1), makeNop(), makeNop(),
                 makeAluImm(Opcode::Addi, 1, 1, 2), makeNop()});
  std::span<const LiveOp> Ops = T.liveOps();
  ASSERT_EQ(Ops.size(), 2u);
  EXPECT_EQ(Ops[0].Inst, makeLdi(1, 1));
  EXPECT_EQ(Ops[0].Slot, 1u);
  EXPECT_EQ(Ops[1].Inst, makeAluImm(Opcode::Addi, 1, 1, 2));
  EXPECT_EQ(Ops[1].Slot, 4u);

  TranslatedTrace AllNops(0x2000, 3, 0, 0, {}, false);
  AllNops.materialize({makeNop(), makeNop(), makeNop()});
  EXPECT_TRUE(AllNops.liveOps().empty());
}

//===----------------------------------------------------------------------===//
// Executor equivalence. The tool-less threaded loop (gen-0 bodies in
// place, promoted bodies as live-op streams), the instrumented loop and
// the reference interpreter must agree on every opcode and every way of
// leaving a trace: the run result, the final memory, and, between the
// two engine loops, every EngineStats counter the tool does not charge.
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t at(uint32_t Index) {
  return ProgBase + Index * InstructionSize;
}

struct ExecCase {
  const char *Name;
  std::vector<Instruction> Insts;
  /// When nonzero, the word every run must leave at this address.
  uint32_t ProbeAddr = 0;
  uint32_t ProbeWord = 0;
};

std::vector<ExecCase> execCases() {
  const Instruction WriteWord = sysCall(vm::SyscallNumber::WriteWord);
  const Instruction Exit = sysCall(vm::SyscallNumber::Exit);
  std::vector<ExecCase> Cases;

  {
    // Every ALU opcode, folded into r5, with divide-by-zero and shift
    // amounts of 32 and more among the operands.
    ExecCase C{"alu", {}};
    auto &P = C.Insts;
    P = {makeLdi(2, 0x80000001u), makeLdi(3, 7), makeNop()};
    auto Mix = [&](Instruction Inst) {
      P.insert(P.end(), {Inst, makeAlu(Opcode::Xor, 5, 5, 1),
                         makeAluImm(Opcode::Muli, 5, 5, 31), makeNop()});
    };
    for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Divu,
                      Opcode::And, Opcode::Or, Opcode::Xor, Opcode::Shl,
                      Opcode::Shr, Opcode::Sltu, Opcode::Seq})
      Mix(makeAlu(Op, 1, 2, 3));
    P.insert(P.end(), {makeAluImm(Opcode::Addi, 1, 5, 0), WriteWord});
    P.push_back(makeLdi(3, 0));
    Mix(makeAlu(Opcode::Divu, 1, 2, 3));
    Mix(makeAlu(Opcode::Seq, 1, 3, 0));
    for (uint32_t Amount : {32u, 33u, 63u}) {
      P.push_back(makeLdi(3, Amount));
      Mix(makeAlu(Opcode::Shl, 1, 2, 3));
      Mix(makeAlu(Opcode::Shr, 1, 2, 3));
    }
    for (Opcode Op : {Opcode::Addi, Opcode::Muli, Opcode::Andi, Opcode::Ori,
                      Opcode::Xori, Opcode::Sltiu})
      Mix(makeAluImm(Op, 1, 2, 0xfffffff0u));
    for (uint32_t Amount : {31u, 35u, 40u}) {
      Mix(makeAluImm(Opcode::Shli, 1, 2, Amount));
      Mix(makeAluImm(Opcode::Shri, 1, 2, Amount));
    }
    Mix(makeLdi(1, 0xdeadbeefu));
    P.insert(P.end(), {makeAluImm(Opcode::Addi, 1, 5, 0), WriteWord,
                       makeLdi(1, 0), Exit});
    Cases.push_back(std::move(C));
  }

  // Every conditional branch taken and not taken, a loop, and a Jmp.
  Cases.push_back(
      {"branches",
       {/*0*/ makeLdi(1, 3), makeLdi(2, 0),
        /*2*/ makeAluImm(Opcode::Addi, 2, 2, 5), makeNop(),
        /*4*/ makeAluImm(Opcode::Addi, 1, 1, 0xffffffffu),
        /*5*/ makeBranch(Opcode::Bne, 1, 0, at(2)), makeNop(),
        /*7*/ makeBranch(Opcode::Beq, 1, 0, at(9)), makeHalt(),
        /*9*/ makeBranch(Opcode::Bltu, 2, 1, at(8)),
        /*10*/ makeBranch(Opcode::Bgeu, 2, 1, at(12)), makeHalt(),
        /*12*/ makeBranch(Opcode::Bltu, 1, 2, at(14)), makeHalt(),
        /*14*/ makeBranch(Opcode::Bgeu, 1, 2, at(17)),
        /*15*/ makeBranch(Opcode::Beq, 2, 1, at(17)),
        /*16*/ makeJmp(at(18)), makeHalt(),
        /*18*/ makeAluImm(Opcode::Addi, 1, 2, 0), WriteWord, makeLdi(1, 0),
        Exit}});

  // Call, Callr and Ret through the stack, and a Jr indirect exit, three
  // times around a loop so the indirect lookups also hit.
  Cases.push_back(
      {"calls and indirect exits",
       {/*0*/ makeLdi(6, 3),
        /*1*/ makeCall(at(14)), makeLdi(7, at(17)), makeCallr(7),
        /*4*/ makeLdi(8, at(8)), makeNop(), makeJr(8), makeHalt(),
        /*8*/ makeAluImm(Opcode::Addi, 6, 6, 0xffffffffu),
        /*9*/ makeBranch(Opcode::Bne, 6, 0, at(1)),
        /*10*/ makeAluImm(Opcode::Addi, 1, 5, 0), WriteWord, makeLdi(1, 0),
        Exit,
        /*14*/ makeAluImm(Opcode::Addi, 5, 5, 3), makeNop(), makeRet(),
        /*17*/ makeAluImm(Opcode::Muli, 5, 5, 7), makeRet()}});

  Cases.push_back({"syscalls then halt",
                   {makeLdi(1, 'h'), sysCall(vm::SyscallNumber::WriteChar),
                    makeNop(), makeLdi(1, 'i'),
                    sysCall(vm::SyscallNumber::WriteChar), makeNop(),
                    sysCall(vm::SyscallNumber::Yield), makeNop(),
                    makeLdi(1, 77), WriteWord, makeNop(), makeNop(),
                    makeHalt()}});

  Cases.push_back({"exit code", {makeNop(), makeLdi(1, 3), makeNop(), Exit}});

  {
    // The trace-length cutoff: an all-Nop first trace, then a 16-slot
    // loop body that leaves through its fall-through exit.
    ExecCase C{"trace-length cutoff",
               std::vector<Instruction>(18, makeNop())};
    auto &P = C.Insts;
    P.push_back(makeLdi(4, 2)); // 18
    for (int I = 0; I != 12; ++I) // 19..30
      P.push_back(makeAluImm(Opcode::Addi, 1, 1, 1));
    P.insert(P.end(), {makeNop(), makeNop(), makeNop(), // 31..33
                       makeAluImm(Opcode::Addi, 4, 4, 0xffffffffu),
                       makeBranch(Opcode::Bne, 4, 0, at(19)), WriteWord,
                       makeLdi(1, 0), Exit});
    Cases.push_back(std::move(C));
  }

  {
    // Loads and stores across an inner stack page boundary, where the
    // next page is mapped.
    ExecCase C{"page-spanning loads and stores",
               {makeLdi(2, 0x7ffefffc), makeLdi(5, 0)}};
    for (uint32_t Off = 1; Off != 4; ++Off)
      C.Insts.insert(C.Insts.end(),
                     {makeLdi(3, 0xa1b2c3d0 + Off), makeNop(),
                      makeStore(2, static_cast<int32_t>(Off), 3),
                      makeLoad(4, 2, static_cast<int32_t>(Off)),
                      makeAlu(Opcode::Xor, 5, 5, 4)});
    C.Insts.insert(C.Insts.end(),
                   {makeLoad(1, 2, 0), WriteWord,
                    makeAluImm(Opcode::Addi, 1, 5, 0), WriteWord,
                    makeLdi(1, 0), Exit});
    C.ProbeAddr = 0x7ffefffc;
    C.ProbeWord = 0xd3d2d100; // Offset 0 was never stored.
    Cases.push_back(std::move(C));
  }

  Cases.push_back({"load from unmapped memory",
                   {makeLdi(1, 5), WriteWord, makeLdi(2, 0x90000000),
                    makeNop(), makeNop(), makeLoad(3, 2, 0), makeNop(),
                    makeHalt()}});

  Cases.push_back({"load spanning into unmapped memory",
                   {makeLdi(2, 0x7ffffffe), makeNop(), makeLoad(3, 2, 0),
                    makeNop(), makeHalt()}});

  // The second store writes its two mapped bytes, then faults at
  // 0x80000000.
  Cases.push_back({"store spanning into unmapped memory",
                   {makeLdi(2, 0x7ffffffc), makeLdi(3, 0xa1b2c3d4),
                    makeStore(2, 0, 3), makeLdi(3, 0x11223344), makeNop(),
                    makeNop(), makeStore(2, 2, 3), makeNop(), makeHalt()},
                   0x7ffffffc, 0x3344c3d4});

  Cases.push_back({"call pushing into unmapped memory",
                   {makeLdi(StackPointerReg, 0x7ffe0002), makeNop(),
                    makeCall(at(5)), makeNop(), makeHalt(), makeHalt()}});

  // The pushed return address spans the top of the stack: its two low
  // bytes land, then the push faults.
  Cases.push_back({"callr pushing across the stack top",
                   {makeLdi(StackPointerReg, 0x80000002), makeLdi(7, at(5)),
                    makeNop(), makeCallr(7), makeHalt(), makeHalt()},
                   0x7ffffffc, 0x00200000});

  Cases.push_back({"ret from unmapped memory",
                   {makeLdi(StackPointerReg, 0x90000000), makeNop(),
                    makeRet()}});
  return Cases;
}

/// One run of a case, with what the equivalence check compares.
struct ExecRun {
  vm::RunResult Run;
  EngineStats Stats;
  uint64_t MemoryHash = 0;
  uint32_t Probe = 0;
};

void finishRun(ExecRun &Out, vm::Machine &M, const ExecCase &C) {
  Out.MemoryHash = M.space().contentHash();
  if (C.ProbeAddr != 0) {
    auto Word = M.space().read32(C.ProbeAddr);
    ASSERT_TRUE(Word.ok());
    Out.Probe = *Word;
  }
}

ExecRun runCaseUnderEngine(const ExecCase &C, Tool *ClientTool,
                           bool Promote) {
  loader::ModuleRegistry Registry;
  auto M = vm::Machine::create(programModule(C.Insts), Registry);
  EXPECT_TRUE(M.ok());
  Engine E(*M, ClientTool);
  if (Promote)
    promoteAllTraces(E, C.Insts);
  ExecRun Out;
  Out.Run = E.run();
  Out.Stats = E.stats();
  if (Promote) {
    EXPECT_EQ(Out.Stats.TracesCompiled, 0u) << "a trace was left unpromoted";
  }
  finishRun(Out, *M, C);
  return Out;
}

ExecRun runCaseNatively(const ExecCase &C) {
  loader::ModuleRegistry Registry;
  auto M = vm::Machine::create(programModule(C.Insts), Registry);
  EXPECT_TRUE(M.ok());
  ExecRun Out;
  Out.Run = M->runNative();
  finishRun(Out, *M, C);
  return Out;
}

void expectSameOutcome(const ExecRun &A, const ExecRun &B,
                       const std::string &Label) {
  EXPECT_EQ(A.Run.Error.toString(), B.Run.Error.toString()) << Label;
  EXPECT_EQ(A.Run.ExitCode, B.Run.ExitCode) << Label;
  EXPECT_EQ(A.Run.Output, B.Run.Output) << Label;
  EXPECT_EQ(A.Run.WordLog, B.Run.WordLog) << Label;
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted)
      << Label;
  EXPECT_EQ(A.Run.SyscallCount, B.Run.SyscallCount) << Label;
  EXPECT_EQ(A.MemoryHash, B.MemoryHash) << Label;
  EXPECT_EQ(A.Probe, B.Probe) << Label;
}

/// \p S without what an instruction-counting tool adds: its analysis
/// calls and, for traces it compiles, their instrumentation points
/// (which also land in the time to first trace).
EngineStats withoutToolCharges(EngineStats S) {
  S.ToolCycles = 0;
  S.CompileCycles = 0;
  S.FirstTraceReadyCycles = 0;
  return S;
}

} // namespace

TEST(ExecutorEquivalence, ThreadedInstrumentedAndInterpretedRunsAgree) {
  for (const ExecCase &C : execCases()) {
    SCOPED_TRACE(C.Name);
    const SlotCounts Reference = referenceWalk(C.Insts);
    const ExecRun Native = runCaseNatively(C);
    if (C.ProbeAddr != 0) {
      EXPECT_EQ(Native.Probe, C.ProbeWord);
    }
    for (bool Promote : {false, true}) {
      const std::string Body = Promote ? "promoted" : "gen-0";
      const ExecRun Threaded = runCaseUnderEngine(C, nullptr, Promote);
      InstructionCounterTool Counter;
      const ExecRun Instrumented = runCaseUnderEngine(C, &Counter, Promote);

      expectSameOutcome(Threaded, Native, Body + " threaded vs interpreter");
      expectSameOutcome(Instrumented, Native,
                        Body + " instrumented vs interpreter");
      EXPECT_EQ(Threaded.Stats.GuestInstsExecuted, Reference.Insts);
      EXPECT_EQ(Threaded.Stats.OptNopsExecuted,
                Promote ? Reference.Nops : 0u);

      EXPECT_GT(Instrumented.Stats.ToolCycles, 0u);
      EXPECT_GE(Instrumented.Stats.CompileCycles,
                Threaded.Stats.CompileCycles);
      tests::expectStatsEqual(withoutToolCharges(Threaded.Stats),
                              withoutToolCharges(Instrumented.Stats),
                              Body + " threaded vs instrumented");
      EXPECT_EQ(Instrumented.Run.Cycles - Instrumented.Stats.ToolCycles -
                    Instrumented.Stats.CompileCycles,
                Threaded.Run.Cycles - Threaded.Stats.CompileCycles);
    }
  }
}

//===----------------------------------------------------------------------===//
// The EngineStats counter table.
//===----------------------------------------------------------------------===//

TEST(StatsTable, AccountsAreExactlyWhatTotalCyclesSums) {
  // Distinct powers of two: any account totalCycles() skips, or any
  // non-account it sums, changes the total.
  EngineStats S;
  uint64_t Accounts = 0;
  unsigned Bit = 0;
  for (const StatsCounter &C : EngineStatsCounters) {
    S.*C.Field = uint64_t(1) << Bit++;
    if (C.Kind == StatKind::Account)
      Accounts += S.*C.Field;
  }
  EXPECT_EQ(S.totalCycles(), Accounts);
}
