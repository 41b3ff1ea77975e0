//===- dbi/Engine.cpp -----------------------------------------------------===//

#include "dbi/Engine.h"

#include "support/Hashing.h"
#include "vm/Exec.h"
#include "vm/Threads.h"

#include <cassert>
#include <type_traits>

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
  if (PersistedPayload *P = T->persistedPayload()) {
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
      Stats.PersistCycles += Opts.Costs.PersistTraceCrcCycles;
      ++Stats.TracePayloadsValidated;
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
        std::vector<Instruction> Copy(InPlace,
                                      InPlace + T->guestInstCount());
        Status Verdict = runMaterializeCheck(T->guestStart(), Copy);
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
    // any position-independent rebase touches them. With an install
    // queue the host-side CRC + decode may already have happened on a
    // worker (over the same stored bytes); the modeled charges below
    // are made here either way, so the cost model cannot observe the
    // worker count.
    std::optional<ReadyTrace> Ready;
    if (InstallQ) {
      auto It = Prevalidated.find(T->guestStart());
      if (It != Prevalidated.end()) {
        Ready = std::move(It->second);
        Prevalidated.erase(It);
      } else {
        // Unclaimed jobs are withdrawn (we validate inline); in-flight
        // jobs are waited for so the work happens exactly once. The
        // chunk-mates that arrive alongside the requested trace are
        // stashed for their own first executions.
        for (ReadyTrace &R : InstallQ->takeFor(T->guestStart())) {
          if (R.GuestStart == T->guestStart())
            Ready = std::move(R);
          else
            Prevalidated.emplace(R.GuestStart, std::move(R));
        }
      }
    }
    Stats.PersistCycles += Opts.Costs.PersistTraceCrcCycles;
    ++Stats.TracePayloadsValidated;
    if (Ready) {
      if (!Ready->CrcOk)
        return Status::error(ErrorCode::InvalidFormat,
                             "persisted trace payload checksum mismatch");
      // The worker rebased the decoded body; the pool copy still holds
      // the raw stored bytes and finalize() harvests code from the
      // pool, so it must be rebased here exactly as the inline path
      // does.
      if (P->RebaseDelta != 0)
        rebaseTranslatedImage(Cache.mutableCodeAt(T->poolOffset()),
                              T->poolBytes(), T->guestInstCount(),
                              P->RelocMask, P->RebaseDelta);
      T->clearPersistedPayload();
      if (!Ready->DecodeError.ok())
        return Ready->DecodeError;
      if (ValidateMaterialize) {
        Status Verdict =
            runMaterializeCheck(T->guestStart(), Ready->Body);
        if (!Verdict.ok())
          return Verdict;
      }
      T->materialize(std::move(Ready->Body));
      chargePersistFirstTouch(T);
      ++Stats.TracesReused;
      return Status::success();
    }
    const uint8_t *Raw = Cache.codeAt(T->poolOffset());
    if (crc32(Raw, T->poolBytes()) != P->ExpectedCodeCrc)
      return Status::error(ErrorCode::InvalidFormat,
                           "persisted trace payload checksum mismatch");
    if (P->RebaseDelta != 0)
      rebaseTranslatedImage(Cache.mutableCodeAt(T->poolOffset()),
                            T->poolBytes(), T->guestInstCount(),
                            P->RelocMask, P->RebaseDelta);
    T->clearPersistedPayload();
  }
  auto Body = isa::decodeAll(
      Cache.codeAt(T->poolOffset() + TracePrologueBytes),
      T->guestInstCount());
  if (!Body)
    return Body.status();
  std::vector<Instruction> Decoded = Body.take();
  if (ValidateMaterialize) {
    // Deep semantic verification: the decoded (rebased) body must be
    // effect-equivalent to the guest instructions it claims to
    // translate. Runs before materialize so a rejected trace follows
    // the same drop-and-retranslate path as a CRC mismatch.
    Status Verdict = runMaterializeCheck(T->guestStart(), Decoded);
    if (!Verdict.ok())
      return Verdict;
  }
  T->materialize(std::move(Decoded));
  chargePersistFirstTouch(T);
  ++Stats.TracesReused;
  return Status::success();
}

Status Engine::runMaterializeCheck(
    uint32_t GuestStart, const std::vector<Instruction> &Body) {
  MaterializeCheckInfo Info;
  Status Verdict = ValidateMaterialize(GuestStart, Body, Info);
  Stats.CertsChecked += Info.CertsChecked;
  Stats.CertChecksFailed += Info.CertChecksFailed;
  Stats.ProofsReplayed += Info.ProofsReplayed;
  if (!Verdict.ok()) {
    ++Stats.VerifyFailures;
    return Verdict;
  }
  if (Info.Verified)
    ++Stats.TracesVerified;
  return Status::success();
}

void Engine::drainInstallQueue() {
  for (ReadyTrace &R : InstallQ->drainReady()) {
    uint32_t Start = R.GuestStart;
    Prevalidated.emplace(Start, std::move(R));
  }
}

void Engine::prevalidatePersistedTraces() {
  // Snapshot the starts first: dropping a corrupt trace mutates the
  // trace list mid-iteration otherwise.
  std::vector<uint32_t> Starts;
  Starts.reserve(Cache.traces().size());
  for (const auto &T : Cache.traces())
    if (T->isFromPersistentCache() && !T->isMaterialized())
      Starts.push_back(T->guestStart());
  for (uint32_t Start : Starts) {
    TranslatedTrace *T = Cache.lookup(Start);
    if (!T || T->isMaterialized())
      continue;
    if (ensureMaterialized(T).ok())
      continue;
    // Same disposition as a first-execution failure: drop just this
    // trace; the dispatcher retranslates it if the run ever needs it.
    Cache.removeTracesInRange(Start, 1);
    ++Stats.TracesDroppedCorrupt;
  }
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
      // Dispatcher boundary: collect payloads the async-prime workers
      // finished since the last exit from the code cache. Host-side
      // bookkeeping only — no modeled charge, no translation-map
      // change, so the cost model is blind to it.
      if (InstallQ)
        drainInstallQueue();
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
    // bit-identical to the pre-opt-tier engine. The skip table lets the
    // host skip those slots too, and counts them exactly.
    const NopSkipEntry *Skip =
        Current->optGen() > 0 ? Current->nopSkipTable().data() : nullptr;
    TranslatedTrace *Next = nullptr;
    vm::CpuState &Cpu = Threads.current().Cpu;

    // Leaves the trace through linkable \p Exit: straight into the
    // linked successor, or to the dispatcher, which links it.
    auto leaveThrough = [&](TraceExit *Exit) {
      assert(isLinkableExit(Exit->Kind) && "unexpected exit kind");
      if (Exit->Link) {
        Next = Exit->Link;
        return;
      }
      Pc = Exit->Target;
      Pending = PendingLink{
          Current, static_cast<uint32_t>(Exit - Current->exits().data()),
          Cache.modificationGeneration()};
    };

    // The trace body loop, stamped out three times: instrumented,
    // plain, and plain with Nop skipping. The null-tool baseline must
    // not pay the three Spec branches per guest instruction, so the
    // tool dispatch is decided once per trace and `if constexpr`
    // deletes the checks from the fast copies. Tools observe every
    // slot, Nops included, so only the plain loop skips. Returns the
    // number of body slots executed: every slot through the exit slot,
    // or those before a faulting one.
    auto runBody = [&](auto WithToolTag, auto SkipNopsTag) -> uint32_t {
      constexpr bool WithTool = decltype(WithToolTag)::value;
      constexpr bool SkipNops = decltype(SkipNopsTag)::value;
      uint32_t Index = SkipNops ? Skip[0].NextLive : 0;
      while (Index != BodySize) {
        const Instruction &Inst = Body[Index];
        const uint32_t InstPc =
            TraceStart + Index * isa::InstructionSize;

        if constexpr (WithTool) {
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
        }

        const vm::StepResult Step =
            vm::step(Inst, InstPc, Cpu, Space, Env);
        switch (Step.Kind) {
        case vm::StepKind::Sequential:
          if constexpr (WithTool) {
            if (isa::isConditionalBranch(Inst.Op) && Spec.BasicBlocks &&
                Index + 1 != BodySize) {
              // Fell through into the next basic block of this trace.
              uint32_t NextBlockPc = InstPc + isa::InstructionSize;
              ClientTool->onBasicBlock(NextBlockPc,
                                       basicBlockSize(Body, Index + 1));
              Stats.ToolCycles += Costs.AnalysisCyclesPerBlockCall;
            }
          }
          Index = SkipNops ? Skip[Index + 1].NextLive : Index + 1;
          continue;

        case vm::StepKind::Control: {
          TraceExit *Exit = isa::isConditionalBranch(Inst.Op)
                                ? Current->findBranchExit(Index)
                                : &Current->finalExit();
          assert(Exit && "control transfer without an exit record");
          if (Exit->Kind == ExitKind::Indirect) {
            // Inline indirect-target lookup; a hit stays in the cache, a
            // miss surfaces through the dispatcher.
            Stats.IndirectCycles += Costs.IndirectLookupCycles;
            Pc = Step.NextPc;
            Next = Cache.lookup(Pc);
            return Index + 1;
          }
          assert(Exit->Target == Step.NextPc && "exit target mismatch");
          leaveThrough(Exit);
          return Index + 1;
        }

        case vm::StepKind::Syscall: {
          // Control leaves the code cache for the emulation unit; the
          // syscall exit is never linked. This is also the cooperative
          // thread-switch point — the same point the interpreter
          // switches at, so interleavings match across engines.
          Stats.EmulationCycles += Costs.SyscallEmulationCycles;
          auto Alive = Threads.afterSyscall(Env, Space, Step.NextPc);
          if (!Alive) {
            Result.Error = Alive.status();
            Done = true;
          } else if (!*Alive) {
            Done = true; // Every thread exited: program ends, code 0.
          } else {
            Pc = Threads.current().Cpu.Pc;
          }
          return Index + 1;
        }

        case vm::StepKind::Halted:
          Done = true;
          return Index + 1;

        case vm::StepKind::Faulted:
          Result.Error = vm::faultStatus(Inst, InstPc, Step);
          Done = true;
          return Index;
        }
      }
      // Ran off the end of the body (its last slots may be skipped
      // Nops): the instruction-limit cutoff's fall-through exit.
      TraceExit *Exit = &Current->finalExit();
      assert(Exit->Kind == ExitKind::FallThrough &&
             "missing fall-through exit");
      leaveThrough(Exit);
      return BodySize;
    };
    uint32_t Executed = 0;
    if (Spec.BasicBlocks || Spec.Instructions || Spec.MemoryAccesses)
      Executed = runBody(std::true_type{}, std::false_type{});
    else if (Skip)
      Executed = runBody(std::false_type{}, std::true_type{});
    else
      Executed = runBody(std::false_type{}, std::false_type{});

    // Account the trace's guest work once, from its exit slot: the
    // instruction limit and the compile timeline read these counters at
    // the dispatcher, which runs only between traces.
    Stats.GuestInstsExecuted += Executed;
    if (Skip)
      Stats.OptNopsExecuted += Skip[Executed].NopsBefore;

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
