//===- dbi/Engine.cpp -----------------------------------------------------===//

#include "dbi/Engine.h"

#include "support/Hashing.h"
#include "vm/Exec.h"
#include "vm/Threads.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <optional>

using namespace pcc;
using namespace pcc::dbi;
using isa::Instruction;
using isa::Opcode;

uint64_t pcc::dbi::engineVersionHash() {
  // Bump the string when the translation scheme or persistent format
  // changes incompatibly.
  return fnv1a64("pcc-dbi-engine-1.0");
}

Engine::Engine(vm::Machine &M, Tool *ClientTool, EngineOptions Opts)
    : M(M), ClientTool(ClientTool), Opts(Opts),
      Cache(Opts.CodePoolBytes, Opts.DataPoolBytes),
      TheCompiler(M.space(), Cache, this->Opts.Costs, spec(),
                  this->Opts.MaxTraceInsts, this->Opts.OptimizeFlags) {}

ErrorOr<TranslatedTrace *> Engine::lookupOrCompile(uint32_t Pc) {
  if (TranslatedTrace *T = Cache.lookup(Pc))
    return T;
  auto Compiled = TheCompiler.compile(Pc, Stats);
  if (Compiled)
    return Compiled;
  if (Compiled.status().code() != ErrorCode::OutOfMemory)
    return Compiled;
  if (Opts.Eviction == EvictionPolicy::EvictOldestHalf) {
    // Granular reaction: drop the oldest half, compact, retry.
    uint32_t Evicted = Cache.evictOldest(0.5);
    Prevalidated.clear();
    Stats.TracesEvicted += Evicted;
    Stats.EvictionCycles +=
        Evicted * Opts.Costs.EvictionCyclesPerTrace;
    auto Retry = TheCompiler.compile(Pc, Stats);
    if (Retry || Retry.status().code() != ErrorCode::OutOfMemory)
      return Retry;
  }
  // A pool filled up: flush the whole cache (translated code and data
  // structures) and retry once, as Pin does.
  Cache.flush();
  Prevalidated.clear();
  ++Stats.CacheFlushes;
  return TheCompiler.compile(Pc, Stats);
}

void Engine::chargePersistFirstTouch(TranslatedTrace *T) {
  if (!ProbeResidency) {
    uint32_t NewPages = Cache.touchPages(T->poolOffset(), T->poolBytes());
    Stats.PersistCycles += Opts.Costs.PersistTraceMaterializeCycles +
                           NewPages * Opts.Costs.PersistPageTouchCycles;
    return;
  }
  std::vector<uint32_t> NewPages;
  Cache.touchPages(T->poolOffset(), T->poolBytes(), &NewPages);
  Stats.PersistCycles += Opts.Costs.PersistTraceMaterializeCycles;
  for (uint32_t Page : NewPages) {
    if (ProbeResidency(Page)) {
      // Another process already has this page: soft fault, not I/O.
      Stats.PersistCycles += Opts.Costs.SharedPageTouchCycles;
      ++Stats.PersistSharedPageHits;
    } else {
      Stats.PersistCycles += Opts.Costs.PersistPageTouchCycles;
    }
  }
}

Status Engine::ensureMaterialized(TranslatedTrace *T) {
  if (T->isMaterialized())
    return Status::success();
  assert(T->isFromPersistentCache() &&
         "only persisted traces are unmaterialized");
  PersistedPayload *P = T->persistedPayload();
  assert(P && "an unmaterialized trace keeps its persisted payload");
  Stats.PersistCycles += Opts.Costs.PersistTraceCrcCycles;
  ++Stats.TracePayloadsValidated;
  if (P->Xip) {
    // Execute-in-place materialization: the pool bytes live in a
    // borrowed read-only mapping. CRC-check them where they lie,
    // bounds-scan the instruction fields in place (the executor
    // indexes the register file unchecked, so a CRC-intact but
    // malicious body must still be rejected), and point the trace's
    // body at the mapping — no decode, no copy. The modeled charges
    // are exactly the materializing path's: per-trace CRC +
    // materialize + first-touch paging, so EngineStats stay
    // bit-identical across the two paths.
    assert(P->RebaseDelta == 0 && "XIP requires an unrelocated load");
    const uint8_t *Raw = Cache.codeAt(T->poolOffset());
    if (crc32(Raw, T->poolBytes()) != P->ExpectedCodeCrc)
      return Status::error(ErrorCode::InvalidFormat,
                           "persisted trace payload checksum mismatch");
    const auto *InPlace =
        reinterpret_cast<const Instruction *>(Raw + TracePrologueBytes);
    if (!isa::validInPlace(InPlace, T->guestInstCount()))
      return Status::error(
          ErrorCode::InvalidFormat,
          "persisted trace body fails in-place field validation");
    if (ValidateMaterialize) {
      std::vector<Instruction> Copy(InPlace, InPlace + T->guestInstCount());
      Status Verdict = ValidateMaterialize(*T, Copy, Stats);
      if (!Verdict.ok())
        return Verdict;
    }
    T->clearPersistedPayload();
    T->materializeBorrowed(InPlace);
    chargePersistFirstTouch(T);
    ++Stats.TracesReused;
    return Status::success();
  }
  // Deferred per-trace validation (cache format v2): prime() checked
  // only the header, module table and trace index, so the payload CRC
  // runs here, on first execution — over the raw stored bytes, before
  // any position-independent rebase touches them. A pool worker may
  // already have done this host work in a published chunk; the modeled
  // charges above are made here either way, so the cost model cannot
  // observe the worker count.
  std::optional<ReadyTrace> Ready;
  if (InstallQ) {
    auto It = Prevalidated.find(T->planSlot());
    if (It != Prevalidated.end()) {
      Ready = std::move(It->second);
      Prevalidated.erase(It);
    } else {
      // Empty unless a worker already published the chunk covering
      // this trace. Its chunk-mates are stashed for their own first
      // executions, except those that can have none: already
      // materialized (inline, while the chunk was in flight) or no
      // longer resident.
      for (ReadyTrace &R : InstallQ->takeFor(T->planSlot())) {
        if (R.Slot == T->planSlot())
          Ready = std::move(R);
        else if (Cache.slotAwaitsMaterialize(R.Slot))
          Prevalidated.emplace(R.Slot, std::move(R));
      }
    }
  }
  if (!Ready)
    Ready = validatePersistedPayload(T->guestStart(), T->guestInstCount(),
                                     Cache.codeAt(T->poolOffset()),
                                     T->poolBytes(), *P);
  if (!Ready->CrcOk)
    return Status::error(ErrorCode::InvalidFormat,
                         "persisted trace payload checksum mismatch");
  // The decoded body is rebased; the pool still holds the raw stored
  // bytes, and finalize() harvests code from the pool.
  rebaseTranslatedImage(Cache.mutableCodeAt(T->poolOffset()), T->poolBytes(),
                        T->guestInstCount(), P->RelocMask, P->RebaseDelta);
  T->clearPersistedPayload();
  if (!Ready->DecodeError.ok())
    return Ready->DecodeError;
  if (ValidateMaterialize) {
    // Deep semantic verification: the decoded (rebased) body must be
    // effect-equivalent to the guest instructions it claims to
    // translate. Runs before materialize so a rejected trace follows
    // the same drop-and-retranslate path as a CRC mismatch.
    Status Verdict = ValidateMaterialize(*T, Ready->Body, Stats);
    if (!Verdict.ok())
      return Verdict;
  }
  T->materialize(std::move(Ready->Body));
  chargePersistFirstTouch(T);
  ++Stats.TracesReused;
  return Status::success();
}

namespace {

/// Size in instructions of the basic block starting at \p StartIndex:
/// through the next conditional branch (inclusive) or the trace end.
uint32_t basicBlockSize(std::span<const Instruction> Body,
                        uint32_t StartIndex) {
  for (uint32_t I = StartIndex; I != Body.size(); ++I)
    if (isa::isConditionalBranch(Body[I].Op))
      return I - StartIndex + 1;
  return static_cast<uint32_t>(Body.size()) - StartIndex;
}

/// How control left a trace body.
struct BodyExit {
  /// The exiting instruction's step; Sequential when the body ran off
  /// its end (the trace-length cutoff's fall-through exit).
  vm::StepResult Step;
  /// Body slot of the exiting instruction: the faulting one, the one
  /// that left, or the last slot when the body ran off its end.
  uint32_t Slot = 0;
  /// Nop slots of a promoted body that the exit counts as executed.
  uint32_t OptNops = 0;
};

const Instruction &instOf(const Instruction &Inst) { return Inst; }
const Instruction &instOf(const LiveOp &Op) { return Op.Inst; }
uint32_t slotOf(const Instruction *P, const Instruction *Begin) {
  return static_cast<uint32_t>(P - Begin);
}
uint32_t slotOf(const LiveOp *P, const LiveOp *) { return P->Slot; }

/// The tool-less trace executor: runs the ops [\p Begin, \p End) of a
/// body of \p BodySize slots until one leaves the trace or the ops run
/// out. \p OpT is Instruction for a body threaded in place (every slot
/// is an op) and LiveOp for a promoted body's live-op stream. Dispatch
/// is threaded: each handler ends in its own jump through the opcode
/// table, so every opcode gets its own indirect-branch history.
template <typename OpT>
BodyExit runThreaded(const OpT *Begin, const OpT *End, uint32_t BodySize,
                     uint32_t TraceStart, vm::CpuState &Cpu,
                     loader::AddressSpace &Space, vm::SyscallEnv &Env) {
#define PCC_EXEC_LABEL(Name) &&Exec##Name,
  static void *const Table[] = {PCC_VM_OPCODES(PCC_EXEC_LABEL)};
#undef PCC_EXEC_LABEL
  static_assert(std::size(Table) ==
                    static_cast<size_t>(Opcode::NumOpcodes),
                "one handler per opcode");
  const OpT *P = Begin;
  if (P == End)
    goto RanOff;
  goto *Table[static_cast<uint8_t>(instOf(*P).Op)];

  // An exit at P has passed P - Begin ops; the other slots before its
  // own were Nops (none when the body is threaded in place).
#define PCC_EXEC_HANDLER(Name)                                             \
  Exec##Name : {                                                           \
    const uint32_t Slot = slotOf(P, Begin);                                \
    const vm::StepResult Step = vm::stepOp<Opcode::Name>(                  \
        instOf(*P), TraceStart + Slot * isa::InstructionSize, Cpu, Space,  \
        Env);                                                              \
    if (Step.Kind != vm::StepKind::Sequential)                             \
      return BodyExit{Step, Slot, Slot - static_cast<uint32_t>(P - Begin)}; \
    if (++P == End)                                                        \
      goto RanOff;                                                         \
    goto *Table[static_cast<uint8_t>(instOf(*P).Op)];                      \
  }
  PCC_VM_OPCODES(PCC_EXEC_HANDLER)
#undef PCC_EXEC_HANDLER

RanOff:
  return BodyExit{{vm::StepKind::Sequential, 0},
                  BodySize - 1,
                  BodySize - static_cast<uint32_t>(End - Begin)};
}

/// A direct exit waiting to be linked once its target trace exists.
struct PendingLink {
  TranslatedTrace *From = nullptr;
  uint32_t ExitIndex = 0;
  /// CodeCache::modificationGeneration() when the exit was recorded;
  /// a flush or eviction in between invalidates the pointer.
  uint64_t CacheGeneration = 0;
};

} // namespace

vm::RunResult Engine::run() {
  assert(!HasRun && "Engine::run is single-shot");
  HasRun = true;

  const CostModel &Costs = Opts.Costs;
  const InstrumentationSpec Spec = spec();
  vm::SyscallEnv Env;
  vm::ThreadScheduler Threads(M.initialCpuState());
  loader::AddressSpace &Space = M.space();
  vm::RunResult Result;

  uint32_t Pc = Threads.current().Cpu.Pc;
  TranslatedTrace *Current = nullptr;
  PendingLink Pending;
  bool Done = false;

  while (!Done) {
    if (Stats.GuestInstsExecuted >= Opts.Limits.MaxInstructions) {
      Result.Error = Status::error(ErrorCode::GuestFault,
                                   "instruction limit exceeded");
      break;
    }

    if (!Current) {
      // Dispatcher: context switch out of the code cache plus
      // translation-map lookup; compile on a miss.
      Stats.DispatchCycles += Costs.DispatchCycles;
      auto Found = lookupOrCompile(Pc);
      if (!Found) {
        Result.Error = Found.status();
        break;
      }
      Current = *Found;
      // Link the exit that brought us here, unless a flush invalidated
      // the source trace in the meantime.
      if (Pending.From && Opts.EnableLinking &&
          Pending.CacheGeneration == Cache.modificationGeneration()) {
        Cache.link(Pending.From, Pending.ExitIndex, Current);
        Stats.LinkCycles += Costs.LinkCycles;
        ++Stats.LinksCreated;
      }
      Pending = PendingLink();
    }

    if (!Current->isMaterialized()) {
      Status MatStatus = ensureMaterialized(Current);
      if (!MatStatus.ok()) {
        if (Current->isFromPersistentCache() &&
            !Current->isMaterialized()) {
          // Corrupt persisted payload caught at first use (lazy CRC):
          // drop just this trace and retranslate it from guest memory.
          // The run continues; only the damaged translation is lost.
          Pc = Current->guestStart();
          Cache.removeTracesInRange(Pc, 1);
          Prevalidated.clear();
          ++Stats.TracesDroppedCorrupt;
          Current = nullptr;
          Pending = PendingLink();
          continue;
        }
        Result.Error = MatStatus;
        break;
      }
    }
    Current->countExecution();
    ++Stats.TraceExecutions;
    if (Stats.TraceExecutions == 1)
      // Time-to-first-trace: every modeled cycle spent before guest
      // code first ran — key hashing, cache open, remote fetches,
      // first compiles/materializations. Guest execution cycles are
      // still zero here, so totalCycles() is pure startup cost.
      Stats.FirstTraceReadyCycles = Stats.totalCycles();

    const std::span<const Instruction> Body = Current->body();
    const uint32_t BodySize = static_cast<uint32_t>(Body.size());
    const uint32_t TraceStart = Current->guestStart();
    // Promoted (gen >= 1) bodies earn the modeled execution discount for
    // their Nop slots: the optimizer proved the slot's work redundant,
    // so a real backend would not emit it. Gen-0 bodies get no discount
    // even when flag elision produced Nops, keeping unpromoted runs
    // bit-identical to the pre-opt-tier engine.
    const bool Promoted = Current->optGen() > 0;
    TranslatedTrace *Next = nullptr;
    vm::CpuState &Cpu = Threads.current().Cpu;

    // The instrumented trace body loop: step() over every slot, because
    // tools observe every slot, Nops and a faulting one included. The
    // tool-less run takes runThreaded() instead, so the null-tool
    // baseline pays none of the Spec checks.
    auto runInstrumented = [&]() -> BodyExit {
      for (uint32_t Index = 0;; ++Index) {
        const Instruction &Inst = Body[Index];
        const uint32_t InstPc =
            TraceStart + Index * isa::InstructionSize;

        // Analysis callbacks compiled in by the tool.
        if (Spec.BasicBlocks && Index == 0) {
          ClientTool->onBasicBlock(InstPc, basicBlockSize(Body, 0));
          Stats.ToolCycles += Costs.AnalysisCyclesPerBlockCall;
        }
        if (Spec.Instructions) {
          ClientTool->onInstruction(InstPc);
          Stats.ToolCycles += Costs.AnalysisCyclesPerInstCall;
        }
        if (Spec.MemoryAccesses && isa::isMemoryAccess(Inst.Op)) {
          uint32_t EffectiveAddr = Cpu.Regs[Inst.Rs1] + Inst.Imm;
          ClientTool->onMemoryAccess(InstPc, EffectiveAddr,
                                     Inst.Op == Opcode::St);
          Stats.ToolCycles += Costs.AnalysisCyclesPerMemoryCall;
        }

        const vm::StepResult Step =
            vm::step(Inst, InstPc, Cpu, Space, Env);
        if (Step.Kind != vm::StepKind::Sequential || Index + 1 == BodySize)
          return BodyExit{Step, Index, 0};
        if (isa::isConditionalBranch(Inst.Op) && Spec.BasicBlocks) {
          // Fell through into the next basic block of this trace.
          uint32_t NextBlockPc = InstPc + isa::InstructionSize;
          ClientTool->onBasicBlock(NextBlockPc,
                                   basicBlockSize(Body, Index + 1));
          Stats.ToolCycles += Costs.AnalysisCyclesPerBlockCall;
        }
      }
    };

    const bool Instrumented =
        Spec.BasicBlocks || Spec.Instructions || Spec.MemoryAccesses;
    BodyExit Exit;
    if (Instrumented) {
      Exit = runInstrumented();
    } else if (Promoted) {
      const std::span<const LiveOp> Ops = Current->liveOps();
      Exit = runThreaded(Ops.data(), Ops.data() + Ops.size(), BodySize,
                         TraceStart, Cpu, Space, Env);
    } else {
      Exit = runThreaded(Body.data(), Body.data() + BodySize, BodySize,
                         TraceStart, Cpu, Space, Env);
    }
    // Every slot through the exit slot ran, or those before a faulting
    // one.
    const uint32_t Executed =
        Exit.Slot + (Exit.Step.Kind == vm::StepKind::Faulted ? 0 : 1);
    if (Instrumented && Promoted)
      Exit.OptNops = static_cast<uint32_t>(std::count_if(
          Body.begin(), Body.begin() + Executed,
          [](const Instruction &I) { return I.Op == Opcode::Nop; }));

    // Leaves the trace through linkable \p Exit: straight into the
    // linked successor, or to the dispatcher, which links it. A pending
    // persisted link is made here, outside the dispatcher: prime
    // restored it.
    auto leaveThrough = [&](TraceExit *Exit) {
      assert(isLinkableExit(Exit->Kind) && "unexpected exit kind");
      if (Exit->Link) {
        Next = Exit->Link;
        return;
      }
      const auto Index =
          static_cast<uint32_t>(Exit - Current->exits().data());
      if (Exit->LinkPending) [[unlikely]] {
        Next = Cache.resolvePendingLink(Current, Index);
        return;
      }
      Pc = Exit->Target;
      Pending = PendingLink{Current, Index, Cache.modificationGeneration()};
    };

    const Instruction &ExitInst = Body[Exit.Slot];
    switch (Exit.Step.Kind) {
    case vm::StepKind::Sequential: {
      // Ran off the end of the body: the trace-length cutoff's
      // fall-through exit.
      TraceExit *FallThrough = &Current->finalExit();
      assert(FallThrough->Kind == ExitKind::FallThrough &&
             "missing fall-through exit");
      leaveThrough(FallThrough);
      break;
    }

    case vm::StepKind::Control: {
      TraceExit *Taken = isa::isConditionalBranch(ExitInst.Op)
                             ? Current->findBranchExit(Exit.Slot)
                             : &Current->finalExit();
      assert(Taken && "control transfer without an exit record");
      if (Taken->Kind == ExitKind::Indirect) {
        // Inline indirect-target lookup; a hit stays in the cache, a
        // miss surfaces through the dispatcher.
        Stats.IndirectCycles += Costs.IndirectLookupCycles;
        Pc = Exit.Step.NextPc;
        Next = Cache.lookup(Pc);
        break;
      }
      assert(Taken->Target == Exit.Step.NextPc && "exit target mismatch");
      leaveThrough(Taken);
      break;
    }

    case vm::StepKind::Syscall: {
      // Control leaves the code cache for the emulation unit; the
      // syscall exit is never linked. This is also the cooperative
      // thread-switch point — the same point the interpreter switches
      // at, so interleavings match across engines.
      Stats.EmulationCycles += Costs.SyscallEmulationCycles;
      auto Alive = Threads.afterSyscall(Env, Space, Exit.Step.NextPc);
      if (!Alive) {
        Result.Error = Alive.status();
        Done = true;
      } else if (!*Alive) {
        Done = true; // Every thread exited: program ends, code 0.
      } else {
        Pc = Threads.current().Cpu.Pc;
      }
      break;
    }

    case vm::StepKind::Halted:
      Done = true;
      break;

    case vm::StepKind::Faulted:
      Result.Error = vm::faultStatus(
          ExitInst, TraceStart + Exit.Slot * isa::InstructionSize,
          Exit.Step);
      Done = true;
      break;
    }

    // Account the trace's guest work once, from its exit slot: the
    // instruction limit and the compile timeline read these counters at
    // the dispatcher, which runs only between traces.
    Stats.GuestInstsExecuted += Executed;
    Stats.OptNopsExecuted += Exit.OptNops;

    Current = Next;
  }

  assert(Stats.OptNopsExecuted <= Stats.GuestInstsExecuted);
  Stats.ExecCycles = Costs.translatedExecCycles(Stats.GuestInstsExecuted -
                                                Stats.OptNopsExecuted);
  if (Opts.IntermixPools)
    Stats.ExecCycles = Stats.ExecCycles * Costs.IntermixExecPenaltyNum /
                       Costs.IntermixExecPenaltyDen;
  Stats.SyscallCount = Env.SyscallCount;

  Result.ExitCode = Env.Exited ? Env.ExitCode : 0;
  Result.Output = std::move(Env.Output);
  Result.WordLog = std::move(Env.WordLog);
  Result.InstructionsExecuted = Stats.GuestInstsExecuted;
  Result.SyscallCount = Stats.SyscallCount;
  Result.Cycles = Stats.totalCycles();
  return Result;
}
