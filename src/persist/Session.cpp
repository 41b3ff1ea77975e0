//===- persist/Session.cpp ------------------------------------------------===//

#include "persist/Session.h"

#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Optimizer.h"
#include "analysis/Validator.h"
#include "persist/RecordingHooks.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_map>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;
using dbi::ExitKind;
using dbi::TranslatedTrace;
using loader::LoadedModule;

uint64_t pcc::persist::noToolHash() { return fnv1a64("pcc-no-tool"); }

static uint64_t toolHashOf(const dbi::Engine &Engine) {
  return Engine.tool() ? Engine.tool()->keyHash() : noToolHash();
}

static uint8_t specBitsOf(const dbi::InstrumentationSpec &Spec) {
  return static_cast<uint8_t>((Spec.BasicBlocks ? 1 : 0) |
                              (Spec.MemoryAccesses ? 2 : 0) |
                              (Spec.Instructions ? 4 : 0));
}

static const LoadedModule *
findLoadedByPath(const loader::LoadedImage &Image,
                 const std::string &Path) {
  for (const LoadedModule &Mod : Image.Modules)
    if (Mod.Image->path() == Path)
      return &Mod;
  return nullptr;
}

static bool regionsOverlap(uint32_t BaseA, uint32_t SizeA, uint32_t BaseB,
                           uint32_t SizeB) {
  return BaseA < BaseB + SizeB && BaseB < BaseA + SizeA;
}

static uint64_t pagesOf(uint64_t Bytes) {
  return (Bytes + binary::PageSize - 1) / binary::PageSize;
}

/// Lifetime heat written back for a trace: persisted-in heat plus this
/// run's executions, saturating at the 32-bit index field.
static uint32_t accumulatedHeat(uint32_t Prior, uint64_t Executions) {
  uint64_t Sum = Prior + Executions;
  return Sum > 0xffffffffull ? 0xffffffffu
                             : static_cast<uint32_t>(Sum);
}

/// Reads and decodes \p Count guest instructions starting at \p Start
/// from the live address space — the source side of a deep semantic
/// verification.
static ErrorOr<std::vector<isa::Instruction>>
fetchGuestSource(const loader::AddressSpace &Space, uint32_t Start,
                 uint32_t Count) {
  std::vector<isa::Instruction> Out;
  Out.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint8_t Bytes[isa::InstructionSize];
    Status S = Space.fetchInstructionBytes(
        Start + I * isa::InstructionSize, Bytes);
    if (!S.ok())
      return S;
    auto Inst = isa::Instruction::decode(Bytes);
    if (!Inst)
      return Inst.status();
    Out.push_back(*Inst);
  }
  return Out;
}

std::string pcc::persist::describePrime(const PrimeResult &R) {
  if (!R.RejectReason.empty())
    return "rejected (" + R.RejectReason + ")";
  if (!R.CacheFound)
    return "not found";
  return formatString("found (%u traces installed, %u skipped, %u modules "
                      "invalidated)",
                      R.TracesInstalled, R.TracesSkipped,
                      R.ModulesInvalidated);
}

/// One trace the prime installs: an index entry that passed every
/// usability check, translated to this run's load addresses.
struct PersistentSession::PlannedTrace {
  uint32_t TraceIndex = 0; ///< Index into the source trace index.
  uint32_t Start = 0;      ///< Rebased guest start (the install key).
  uint32_t GuestInstCount = 0;
  uint32_t CodeSize = 0;
  /// Pool offset of the code image, set by the pool strategy: the file
  /// code offset when borrowing, the packed offset when copying.
  uint32_t PoolOffset = 0;
  int64_t Delta = 0; ///< Load-address delta of the trace's module.
  std::vector<dbi::TraceExit> Exits;
  std::vector<uint32_t> LinkedStarts; ///< Rebased, one per exit.
};

/// What one walk of the trace index decided.
struct PersistentSession::InstallPlan {
  std::vector<PlannedTrace> Traces; ///< Usable entries, in index order.
  uint32_t Skipped = 0;             ///< Entries the walk refused.
  uint64_t CodeBytes = 0;           ///< Sum of the usable code images.
  bool Rebased = false; ///< Some validated module moved since the write.
};

/// The traces prime() admitted, one per code-cache plan slot, in plan
/// order, with what building one needs beyond the view. Immutable once
/// prime() returns; shared by the cache's slot builder, the async
/// payload jobs and finalize().
struct PersistentSession::AdmittedPlan {
  struct Slot {
    uint32_t TraceIndex = 0; ///< Index into the view's trace index.
    uint32_t Start = 0;      ///< Rebased guest start.
    uint32_t PoolOffset = 0; ///< Where the pool strategy put the code.
    int64_t Delta = 0;       ///< Load-address delta of its module.
  };
  std::shared_ptr<const CacheFileView> View;
  std::vector<Slot> Slots;
  bool Pic = false;      ///< Payloads carry reloc masks.
  bool Xip = false;      ///< The pool borrows the view's payload.
  bool Linking = false;  ///< Persisted links are restored.
  bool Promoted = false; ///< Some admitted trace has OptGen > 0.

  const TraceIndexEntry &entry(uint32_t S) const {
    return View->entry(Slots[S].TraceIndex);
  }

  /// Slot \p S's deferred-validation state. The reloc mask rides along
  /// only when the body must be rebased; finalize() takes the mask it
  /// re-emits from the view.
  dbi::PersistedPayload payloadOf(uint32_t S) const {
    dbi::PersistedPayload P;
    P.ExpectedCodeCrc = entry(S).CodeCrc;
    P.RebaseDelta = Slots[S].Delta;
    if (P.RebaseDelta != 0)
      P.RelocMask = View->readRelocMask(Slots[S].TraceIndex);
    P.Xip = Xip;
    return P;
  }

  /// Slot \p S's exits, rebased, with LinkPending set where the
  /// persisted link is restored.
  void exitsOf(const dbi::CodeCache &Cache, uint32_t S,
               std::vector<dbi::TraceExit> &Out) const {
    const uint32_t TraceIndex = Slots[S].TraceIndex;
    const uint32_t NumExits = View->entry(TraceIndex).ExitCount;
    const int64_t D = Slots[S].Delta;
    Out.clear();
    Out.reserve(NumExits);
    for (uint32_t K = 0; K != NumExits; ++K) {
      const ExitRecord Exit = View->exitRecord(TraceIndex, K);
      const auto Kind = static_cast<ExitKind>(Exit.Kind);
      uint32_t Target =
          Exit.Target ? static_cast<uint32_t>(Exit.Target + D) : 0;
      uint32_t Linked =
          Exit.LinkedStart ? static_cast<uint32_t>(Exit.LinkedStart + D)
                           : 0;
      Out.push_back(dbi::TraceExit{
          Kind, Exit.InstIndex, Target,
          restoresLink(Cache, Linking, Kind, Target, Linked), nullptr});
    }
  }

  std::unique_ptr<TranslatedTrace> build(const dbi::CodeCache &Cache,
                                         uint32_t S) const {
    const TraceIndexEntry &E = entry(S);
    std::vector<dbi::TraceExit> Exits;
    exitsOf(Cache, S, Exits);
    auto T = std::make_unique<TranslatedTrace>(
        Slots[S].Start, E.GuestInstCount, Slots[S].PoolOffset, E.CodeSize,
        std::move(Exits), /*FromPersistentCache=*/true);
    T->setPersistedPayload(
        std::make_unique<dbi::PersistedPayload>(payloadOf(S)));
    T->setPersistedHeat(E.Heat);
    T->setOptGen(E.OptGen);
    T->setPlanSlot(S);
    return T;
  }

  /// Slot \p S's certificate blob, read in place from the view; empty
  /// when it has none. A certificate binds to the exact stored body
  /// bytes, so a rebased slot has none.
  std::span<const uint8_t> certOf(uint32_t S) const {
    if (Slots[S].Delta != 0)
      return {};
    auto [Data, Size] = View->certBlobOf(Slots[S].TraceIndex);
    return {Data, Size};
  }

  /// True when an exit's persisted link to \p Linked is restored: the
  /// exit is linkable, the link targets the exit's own target, and that
  /// target was admitted. Decides LinksRestored at prime and each
  /// pending mark at build, so the two always agree.
  static bool restoresLink(const dbi::CodeCache &Cache, bool Linking,
                           ExitKind Kind, uint32_t Target, uint32_t Linked) {
    return Linking && Linked != 0 && Target == Linked &&
           dbi::isLinkableExit(Kind) &&
           Cache.slotOf(Linked) != dbi::CodeCache::NoSlot;
  }
};

ErrorOr<StoredCache>
PersistentSession::locateCache(dbi::Engine &Engine, PrimeResult &Result) {
  CacheStore &Store = *Db.backend();
  auto tryLoad = [&](const std::string &Ref,
                     bool IsOwn) -> ErrorOr<StoredCache> {
    // Indexed open: header, module table and trace index are
    // CRC-validated here; trace payloads stay unread until first
    // execution.
    auto Cache = Store.openRef(Ref, CacheFileView::Depth::Index);
    if (Cache) {
      Result.CachePath = Ref;
      Result.RejectReason.clear();
      LoadedWasOwn = IsOwn;
      return Cache;
    }
    // Corrupt or unreadable caches must never break the run: record the
    // reason and fall back to an empty code cache. An I/O failure is
    // not the same as no cache existing — count it so operators can
    // tell a sick disk from a cold database.
    if (Cache.status().code() == ErrorCode::IoError) {
      ++Result.CandidatesSkippedIo;
      ++Engine.stats().PersistCandidatesSkippedIo;
    } else if (Cache.status().code() != ErrorCode::NotFound) {
      Result.RejectReason = Cache.status().toString();
    }
    return Status::error(ErrorCode::NotFound, "no usable cache");
  };

  if (!Opts.ExplicitCachePath.empty())
    return tryLoad(Opts.ExplicitCachePath,
                   Opts.ExplicitCachePath == Store.refFor(LookupKey));

  if (Store.exists(LookupKey)) {
    auto Own = tryLoad(Store.refFor(LookupKey), /*IsOwn=*/true);
    // An unreadable or rejected own slot still allows the
    // inter-application fallback below.
    if (Own || !Opts.InterApplication)
      return Own;
  }

  if (Opts.InterApplication) {
    // Try every compatible candidate, not just the first: one
    // unreadable or freshly corrupted donor must not disqualify the
    // rest of the database.
    auto Candidates = Store.findCompatible(EngineHash, ToolHash);
    if (Candidates)
      for (const std::string &Ref : *Candidates) {
        if (Ref == Store.refFor(LookupKey))
          continue; // Own slot was already tried above.
        auto Cache = tryLoad(Ref, /*IsOwn=*/false);
        if (Cache)
          return Cache;
      }
  }
  return Status::error(ErrorCode::NotFound, "no usable cache");
}

ErrorOr<PrimeResult> PersistentSession::prime(dbi::Engine &Engine) {
  assert(!Primed && "prime() is single-shot per session");
  Primed = true;

  const dbi::CostModel &Costs = Engine.options().Costs;
  const loader::LoadedImage &Image = Engine.machine().image();
  assert(!Image.Modules.empty() && "engine machine has no modules");

  EngineHash = dbi::engineVersionHash();
  ToolHash = toolHashOf(Engine);
  // Keys are computed for every executable mapping plus the engine and
  // the tool (Section 3.2.1).
  Engine.stats().PersistCycles +=
      Costs.KeyHashCyclesPerModule * (Image.Modules.size() + 2);

  ModuleKey AppKey = ModuleKey::compute(Image.Modules.front());
  LookupKey = computeLookupKey(AppKey, EngineHash, ToolHash);

  PrimeResult Result;
  auto Source = locateCache(Engine, Result);
  if (!Source)
    return Result; // No cache: start empty, still success.

  if (Source->engineHash() != EngineHash) {
    Result.RejectReason = "engine version mismatch";
    return Result;
  }
  if (Source->toolHash() != ToolHash) {
    Result.RejectReason = "tool key mismatch";
    return Result;
  }
  if (Source->positionIndependent() != Opts.PositionIndependent) {
    Result.RejectReason = "translation addressing mode mismatch";
    return Result;
  }

  Result.CacheFound = true;
  Engine.stats().PersistCycles += Costs.PersistOpenCycles;
  // Tiered stores stamp which tier satisfied the open; a read-through
  // hit additionally carries the modeled remote-link charge.
  if (Source->Tier == CacheTier::L1) {
    ++Engine.stats().PersistL1Hits;
  } else if (Source->Tier == CacheTier::L2) {
    ++Engine.stats().PersistL2Hits;
    ++Engine.stats().PersistRemoteFetches;
    Engine.stats().PersistRemoteBytes += Source->RemoteFetchBytes;
    Engine.stats().PersistCycles += Source->RemoteFetchCycles;
  }
  // A recorder (if one is active) learns which cache the run actually
  // consumed, and at what modeled remote cost, so replay can seed a
  // scratch store with the identical bytes and charges.
  if (RecordingHooks *Hooks = recordingHooks())
    Hooks->onCacheConsumed(Result.CachePath, Source->Tier,
                           Source->RemoteFetchBytes,
                           Source->RemoteFetchCycles);

  // The session owns the view before installing: a borrowed pool keeps
  // it alive as the keepalive of the mapped payload, and async payload
  // jobs read its bytes from pool workers.
  LoadedView = std::make_shared<CacheFileView>(std::move(*Source->View));
  InstallPlan Plan = planInstall(Engine, *LoadedView, Result);
  Status S = installPlan(Engine, Plan, Result);
  if (!S.ok())
    return S;
  // A borrowed pool has no decode work to offload: the queue is never
  // created.
  if (Admitted && !Admitted->Xip && !Admitted->Slots.empty() && Opts.Pool &&
      Opts.Pool->workerCount() > 0)
    startAsyncPrime(Engine, Result);
  if (Opts.SharedResidency && Result.TracesInstalled != 0) {
    // One shared physical copy per (cache file, generation): every
    // simulated process priming the same payload probes and populates
    // the same residency entries. touch() marks the page and reports
    // whether another process got there first — exactly the soft-fault
    // condition the cost model wants. The probe is attached on both the
    // XIP and materializing paths, so their stats stay bit-identical.
    uint64_t PayloadId =
        fnv1a64U64(LoadedView->generation(), fnv1a64(Result.CachePath));
    SharedResidencyMap *Map = Opts.SharedResidency;
    Engine.setResidencyProbe([Map, PayloadId](uint32_t Page) {
      return Map->touch(PayloadId, Page);
    });
  }
  if (Admitted && (Opts.ValidateSemantic ||
                   (Opts.CheckCertificates && Admitted->Promoted))) {
    // Verification at materialization: whenever a primed trace's body
    // is materialized at first execution (decoded inline or by a pool
    // worker), it is checked against the guest instructions at its
    // start address. A promoted trace under certificate checking is
    // checked against the certificate that rode in with it, read in
    // place from the view through its plan slot; a rejected
    // certificate, or none, falls back to the full prover (counted in
    // ProofsReplayed). Under Opts.ValidateSemantic, unpromoted traces
    // are fully proved too. A trace that fails is dropped for
    // retranslation — and, once per session, the source cache is
    // quarantined so later runs stop re-priming a miscompiled database
    // (CertificateInvalid when a certificate lied and the re-proof
    // agreed it was wrong; SemanticMismatch otherwise).
    std::shared_ptr<CacheStore> StorePtr = Db.backend();
    auto AlreadyQuarantined = std::make_shared<bool>(false);
    std::string Ref = Result.CachePath;
    loader::AddressSpace &Space = Engine.machine().space();
    const bool CheckCerts = Opts.CheckCertificates;
    const bool ValidateAll = Opts.ValidateSemantic;
    Engine.setMaterializeValidator(
        [&Space, StorePtr, AlreadyQuarantined, Ref, Plan = Admitted,
         CheckCerts, ValidateAll](const TranslatedTrace &T,
                                  const std::vector<isa::Instruction> &Body,
                                  dbi::EngineStats &Stats) -> Status {
          const uint32_t Slot = T.planSlot();
          assert(Slot != TranslatedTrace::NoPlanSlot &&
                 "only plan-built traces materialize");
          const bool Promoted = CheckCerts && Plan->entry(Slot).OptGen > 0;
          if (!Promoted && !ValidateAll)
            return Status::success(); // Unpromoted, not validating.
          auto Source = fetchGuestSource(
              Space, T.guestStart(), static_cast<uint32_t>(Body.size()));
          if (!Source) {
            ++Stats.VerifyFailures;
            return Source.status();
          }
          const analysis::TranslationVerdict V = analysis::checkTranslation(
              {.GuestStart = T.guestStart(),
               .Body = &Body,
               .Source = &*Source,
               .Cert = Promoted ? Plan->certOf(Slot)
                                : std::span<const uint8_t>(),
               .ProveOnFallback = true});
          Stats.CertsChecked += V.CertChecked;
          Stats.CertChecksFailed += V.CertRejected;
          Stats.ProofsReplayed += Promoted && V.ProverRan;
          if (V.Equivalent) {
            ++Stats.TracesVerified;
            return Status::success();
          }
          ++Stats.VerifyFailures;
          const std::string Proof = V.Proof.message();
          if (!*AlreadyQuarantined && !Ref.empty()) {
            *AlreadyQuarantined = true;
            (void)StorePtr->quarantineRef(
                Ref, V.CertRejected
                         ? annotatedQuarantineReason(
                               Ref, QuarantineReasonCode::CertificateInvalid,
                               "certificate rejected (" + V.Cert.describe() +
                                   ") and re-proof failed: " + Proof)
                         : annotatedQuarantineReason(
                               Ref, QuarantineReasonCode::SemanticMismatch,
                               Proof));
          }
          return Status::error(
              ErrorCode::InvalidFormat,
              (V.CertRejected ? "certificate rejected and re-proof failed: "
                              : "translation validation failed: ") +
                  Proof);
        });
  }
  return Result;
}

void PersistentSession::startAsyncPrime(dbi::Engine &Engine,
                                        PrimeResult &Result) {
  Queue = std::make_shared<dbi::TraceInstallQueue>();
  // The jobs read only the view and the admitted plan — immutable and
  // kept alive by the closures — never engine memory, so a mid-run
  // flush or eviction cannot race them.
  std::shared_ptr<const AdmittedPlan> Plan = Admitted;
  const auto NumSlots = static_cast<uint32_t>(Plan->Slots.size());
  for (uint32_t Begin = 0; Begin < NumSlots;
       Begin += dbi::PayloadChunkSlots) {
    const uint32_t End = std::min(Begin + dbi::PayloadChunkSlots, NumSlots);
    Queue->addJob([Plan, Begin, End]() -> std::vector<dbi::ReadyTrace> {
      std::vector<dbi::ReadyTrace> Out;
      Out.reserve(End - Begin);
      for (uint32_t S = Begin; S != End; ++S) {
        const TraceIndexEntry &E = Plan->entry(S);
        Out.push_back(dbi::validatePersistedPayload(
            S, E.GuestInstCount,
            Plan->View->codeBytesOf(Plan->Slots[S].TraceIndex), E.CodeSize,
            Plan->payloadOf(S)));
      }
      return Out;
    });
  }
  Result.PayloadJobsQueued = static_cast<uint32_t>(Queue->jobCount());
  Engine.setInstallQueue(Queue);
  Opts.Pool->submitPerWorker([Q = Queue] {
    while (Q->runNextJob()) {
    }
  });
}

void PersistentSession::validateModules(
    dbi::Engine &Engine, const std::vector<ModuleKey> &Persisted,
    PrimeResult &Result, std::vector<int64_t> &Delta,
    std::vector<std::pair<uint32_t, uint32_t>> &Region) {
  const loader::LoadedImage &Image = Engine.machine().image();
  const size_t NumModules = Persisted.size();
  ModuleValidated.assign(NumModules, false);
  ModuleLoadedNow.assign(NumModules, false);
  Delta.assign(NumModules, 0);
  Region.assign(NumModules, {0, 0});
  for (size_t I = 0; I != NumModules; ++I) {
    const ModuleKey &Old = Persisted[I];
    const LoadedModule *Now = findLoadedByPath(Image, Old.Path);
    if (!Now)
      continue; // Module absent this run; its traces stay on disk.
    ModuleLoadedNow[I] = true;
    ModuleKey NowKey = ModuleKey::compute(*Now);
    bool Match = Opts.PositionIndependent
                     ? Old.matchesIgnoringBase(NowKey)
                     : Old.matches(NowKey);
    if (!Match) {
      // Key conflict: the binary changed or (without PIC) relocated.
      // All its persisted translations are invalid; the engine falls
      // back to retranslation.
      ++Result.ModulesInvalidated;
      ++Engine.stats().ModulesInvalidated;
      continue;
    }
    ModuleValidated[I] = true;
    ++Result.ModulesValidated;
    Delta[I] = static_cast<int64_t>(NowKey.Base) -
               static_cast<int64_t>(Old.Base);
    Region[I] = {NowKey.Base, NowKey.Size};
  }
}

PersistentSession::InstallPlan
PersistentSession::planInstall(dbi::Engine &Engine,
                               const CacheFileView &View,
                               PrimeResult &Result) {
  // Validate every persisted module key against the image loaded now.
  std::vector<int64_t> Delta;
  std::vector<std::pair<uint32_t, uint32_t>> Region;
  validateModules(Engine, View.modules(), Result, Delta, Region);

  InstallPlan Plan;
  for (size_t I = 0; I != Delta.size(); ++I)
    Plan.Rebased |= ModuleValidated[I] && Delta[I] != 0;
  std::unordered_set<uint32_t> SeenStarts;
  Plan.Traces.reserve(View.numTraces());
  SeenStarts.reserve(View.numTraces());
  for (uint32_t TraceI = 0; TraceI != View.numTraces(); ++TraceI) {
    const TraceIndexEntry &E = View.entry(TraceI);
    if (!ModuleValidated[E.ModuleIndex]) {
      ++Plan.Skipped;
      continue;
    }
    const int64_t D = Delta[E.ModuleIndex];
    const auto [RegionBase, RegionSize] = Region[E.ModuleIndex];
    const uint32_t NewStart = static_cast<uint32_t>(E.GuestStart + D);
    const size_t MinCodeBytes =
        dbi::TracePrologueBytes +
        static_cast<size_t>(E.GuestInstCount) * isa::InstructionSize;
    bool Usable = NewStart >= RegionBase &&
                  NewStart - RegionBase < RegionSize &&
                  E.CodeSize >= MinCodeBytes && !SeenStarts.count(NewStart);
    if (!Usable) {
      ++Plan.Skipped;
      continue;
    }

    PlannedTrace P;
    P.TraceIndex = TraceI;
    P.Start = NewStart;
    P.GuestInstCount = E.GuestInstCount;
    P.CodeSize = E.CodeSize;
    P.Delta = D;
    bool BadExit = false;
    // Exits and links come from the trace index, whose CRC was already
    // validated at open — so restoring links here is safe even though
    // the code payload is still unverified.
    for (const ExitRecord &Exit : View.readExits(TraceI)) {
      if (Exit.Kind > static_cast<uint8_t>(ExitKind::Halt)) {
        BadExit = true;
        break;
      }
      uint32_t Target =
          Exit.Target ? static_cast<uint32_t>(Exit.Target + D) : 0;
      uint32_t Linked =
          Exit.LinkedStart ? static_cast<uint32_t>(Exit.LinkedStart + D)
                           : 0;
      P.Exits.push_back(dbi::TraceExit{static_cast<ExitKind>(Exit.Kind),
                                       Exit.InstIndex, Target});
      P.LinkedStarts.push_back(Linked);
    }
    if (BadExit) {
      ++Plan.Skipped;
      continue;
    }
    Plan.CodeBytes += E.CodeSize;
    SeenStarts.insert(NewStart);
    Plan.Traces.push_back(std::move(P));
  }
  return Plan;
}

Status PersistentSession::installPlan(dbi::Engine &Engine,
                                      InstallPlan &Plan,
                                      PrimeResult &Result) {
  const CacheFileView &View = *LoadedView;
  dbi::CodeCache &Cache = Engine.cache();
  Result.TracesSkipped += Plan.Skipped;

  // Borrow gate. XIP executes the mapped payload bytes as-is, so it is
  // only sound when nothing about this run wants to transform or
  // re-decode them: the file must have been written page-aligned and
  // relocation-free (v3), the host's in-memory instruction layout must
  // equal the encoding, no validation mode may demand decoded private
  // bodies, and no validated module may have moved (a rebase would
  // dirty shared pages). Every entry must also be usable: a borrowed
  // trace sits at its file code offset, which matches the copied
  // pool's packed offset only when the plan skipped nothing — the
  // invariant behind the two strategies' identical page-touch
  // sequences (and thus identical stats). An oversized payload copies,
  // so the copy strategy reports the capacity rejection.
  const bool Borrow =
      View.executeInPlace() && isa::HostExecutesInPlace &&
      !Opts.ValidateSemantic && !Plan.Rebased &&
      Plan.Skipped == 0 &&
      View.payloadSize() <= Engine.options().CodePoolBytes;
  if (Borrow) {
    // Zero bytes copied, zero decode jobs queued. The view (keepalive)
    // stays alive until the cache unmaps it — flush/eviction release,
    // never free.
    for (PlannedTrace &P : Plan.Traces)
      P.PoolOffset = View.entry(P.TraceIndex).CodeOffset;
    Status S = Cache.installBorrowedPool(
        View.payloadBytes(), View.payloadSize(),
        std::shared_ptr<const void>(LoadedView));
    if (!S.ok())
      return S;
  } else {
    Result.PayloadBytesCopied += Plan.CodeBytes;
    if (Plan.CodeBytes > Engine.options().CodePoolBytes) {
      // Persistent pools unavailable: abandon persistence for this run
      // (Section 3.2.2), continue with an empty code cache.
      Result.RejectReason = "persistent pool exceeds code cache capacity";
      Result.TracesSkipped += static_cast<uint32_t>(Plan.Traces.size());
      Result.TracesInstalled = 0;
      return Status::success();
    }
    // Code bytes are copied *raw* — no rebase — because each trace's
    // CRC must run over the stored bytes at first execution; the rebase
    // parameters ride along as the trace's PersistedPayload.
    std::vector<uint8_t> Pool;
    Pool.reserve(Plan.CodeBytes);
    for (PlannedTrace &P : Plan.Traces) {
      P.PoolOffset = static_cast<uint32_t>(Pool.size());
      const uint8_t *Code = View.codeBytesOf(P.TraceIndex);
      Pool.insert(Pool.end(), Code, Code + P.CodeSize);
    }
    Status S = Cache.installPersistedPool(std::move(Pool));
    if (!S.ok())
      return S;
  }

  // Admission: each planned trace the data pool still has room for
  // becomes a resident, unbuilt plan slot, in plan order. Its trace is
  // built at the first lookup that needs it (AdmittedPlan::build).
  auto Admit = std::make_shared<AdmittedPlan>();
  Admit->View = LoadedView;
  Admit->Pic = Opts.PositionIndependent;
  Admit->Xip = Borrow;
  Admit->Linking = Engine.options().EnableLinking;
  Admit->Slots.reserve(Plan.Traces.size());
  Cache.reserveTraces(Plan.Traces.size());
  for (PlannedTrace &P : Plan.Traces) {
    if (!Cache.admitSlot(P.Start, TranslatedTrace::dataBytesFor(
                                      static_cast<uint32_t>(P.Exits.size()),
                                      P.GuestInstCount))) {
      // Data pool exhausted: this trace falls back to translation (both
      // pool strategies hit the identical limit at the identical trace,
      // so parity holds), and none of its links is restored.
      ++Result.TracesSkipped;
      P.LinkedStarts.clear();
      continue;
    }
    Admit->Promoted |= View.entry(P.TraceIndex).OptGen > 0;
    Admit->Slots.push_back({P.TraceIndex, P.Start, P.PoolOffset, P.Delta});
    ++Result.TracesInstalled;
  }
  Engine.stats().TracesLoadedFromCache += Result.TracesInstalled;
  Cache.sealPlan([Admit](const dbi::CodeCache &C, uint32_t Slot) {
    return Admit->build(C, Slot);
  });

  // Count the persisted links between admitted traces; each is restored
  // as a pending mark when its source trace is built.
  for (const PlannedTrace &P : Plan.Traces)
    for (size_t I = 0; I != P.LinkedStarts.size(); ++I)
      if (AdmittedPlan::restoresLink(Cache, Admit->Linking, P.Exits[I].Kind,
                                     P.Exits[I].Target, P.LinkedStarts[I]))
        ++Result.LinksRestored;
  Admitted = std::move(Admit);
  Result.XipInstalled = Borrow;
  return Status::success();
}

namespace {

bool sameInst(const isa::Instruction &A, const isa::Instruction &B) {
  return A.Op == B.Op && A.Rd == B.Rd && A.Rs1 == B.Rs1 &&
         A.Rs2 == B.Rs2 && A.Imm == B.Imm;
}

void clearRelocBit(TraceRecord &Rec, uint32_t I) {
  if (Rec.RelocMask.size() > I / 8)
    Rec.RelocMask[I / 8] &= static_cast<uint8_t>(~(1u << (I % 8)));
}

/// The promotion tail shared by scalar traces and merged superblocks:
/// optimizes \p Body (\p Rec's decoded body), proves the result
/// equivalent to \p Source, then re-encodes it into \p Rec's image
/// behind the prologue (same size — slot-for-slot rewriting) and bumps
/// the record's generation. Rejection leaves the record untouched.
/// Replaced slots lose their reloc bits: a Nop or register move carries
/// no address-bearing immediate to rebase.
bool promoteBody(TraceRecord &Rec, std::vector<isa::Instruction> Body,
                 const std::vector<isa::Instruction> &Source, bool Pic,
                 bool EmitCerts, dbi::EngineStats &Stats) {
  const std::vector<isa::Instruction> Original = Body;
  analysis::TraceOptStats OS;
  analysis::optimizeTraceBody(Body, Rec.GuestStart,
                              /*AllowConstFold=*/!Pic, OS);
  analysis::Certificate Cert;
  auto Check = analysis::validateTranslation(
      Rec.GuestStart, Source, Body, EmitCerts ? &Cert : nullptr);
  if (!Check.Equivalent) {
    ++Stats.OptValidatorRejections;
    return false;
  }
  if (Pic)
    for (uint32_t I = 0; I != Body.size(); ++I)
      if (!sameInst(Body[I], Original[I]))
        clearRelocBit(Rec, I);
  std::vector<uint8_t> Encoded = isa::encodeAll(Body);
  std::copy(Encoded.begin(), Encoded.end(),
            Rec.Code.begin() + dbi::TracePrologueBytes);
  ++Rec.OptGen;
  // The proof just ran against the new body: persist it as this
  // record's certificate. Any prior-generation certificate is stale
  // (it bound to the pre-promotion bytes) and must not survive.
  if (EmitCerts) {
    Cert.OptGen = Rec.OptGen;
    Rec.Cert = Cert.serialize();
  } else {
    Rec.Cert.clear();
  }
  ++Stats.TracesPromoted;
  Stats.OptLoadsEliminated += OS.LoadsEliminated;
  Stats.OptConstsFolded += OS.ConstsFolded;
  return true;
}

/// The finalize-time AOT promotion pass: merges contiguous fall-through
/// chains of hot traces into superblocks, then runs the optimizer over
/// every candidate body, accepting only what validateTranslation
/// proves against the guest source read from \p Space.
void promoteCacheFile(CacheFile &File, const loader::AddressSpace &Space,
                      const PersistOptions &Opts, dbi::EngineStats &Stats) {
  const bool Pic = File.PositionIndependent;
  const bool EmitCerts = Opts.EmitCertificates;

  // Candidate set: traces at or above the heat threshold, with
  // generation headroom and readable guest source.
  std::unordered_map<uint32_t, std::vector<isa::Instruction>> Sources;
  std::vector<size_t> CandIdx;
  std::vector<analysis::SuperblockCandidate> Cands;
  for (size_t I = 0; I != File.Traces.size(); ++I) {
    const TraceRecord &Rec = File.Traces[I];
    if (Rec.Heat < Opts.OptHeatThreshold || Rec.OptGen >= Opts.OptMaxGen)
      continue;
    auto Src = fetchGuestSource(Space, Rec.GuestStart, Rec.GuestInstCount);
    if (!Src)
      continue; // Unreadable source (e.g. a carried trace of a module
                // this run never mapped): stays at its generation.
    Sources.emplace(Rec.GuestStart, Src.take());
    analysis::SuperblockCandidate C;
    C.Start = Rec.GuestStart;
    C.InstCount = Rec.GuestInstCount;
    C.ModuleIndex = Rec.ModuleIndex;
    C.Heat = Rec.Heat;
    if (!Rec.Exits.empty() &&
        Rec.Exits.back().Kind ==
            static_cast<uint8_t>(ExitKind::FallThrough)) {
      C.EndsInFallThrough = true;
      C.FallTarget = Rec.Exits.back().Target;
    }
    CandIdx.push_back(I);
    Cands.push_back(C);
  }

  // Superblock formation first: each planned chain is merged into its
  // head's record — the boundary fall-through exits become internal
  // control flow; every other exit shifts by the head-relative
  // instruction offset; reloc masks concatenate. Tails keep their own
  // records (tail duplication — they remain valid entry points). A
  // chain that fails its proof is abandoned whole; its members stay
  // scalar candidates below.
  std::vector<bool> Done(Cands.size(), false);
  for (const std::vector<uint32_t> &Chain :
       analysis::planSuperblocks(Cands, Opts.OptMaxSuperblockInsts)) {
    std::vector<isa::Instruction> Body, Source;
    std::vector<ExitRecord> Exits;
    TraceRecord Merged;
    bool Bad = false;
    uint32_t Offset = 0;
    for (size_t K = 0; K != Chain.size(); ++K) {
      const TraceRecord &Rec = File.Traces[CandIdx[Chain[K]]];
      auto Part = Rec.decodeBody();
      if (!Part) {
        Bad = true;
        break;
      }
      Body.insert(Body.end(), Part->begin(), Part->end());
      const std::vector<isa::Instruction> &Src =
          Sources.at(Rec.GuestStart);
      Source.insert(Source.end(), Src.begin(), Src.end());
      for (size_t X = 0; X != Rec.Exits.size(); ++X) {
        if (K + 1 != Chain.size() && X + 1 == Rec.Exits.size())
          break; // Boundary fall-through: now internal, exit dropped.
        ExitRecord E = Rec.Exits[X];
        E.InstIndex += Offset;
        Exits.push_back(E);
      }
      if (Pic)
        for (uint32_t B = 0; B != Rec.GuestInstCount; ++B)
          if (Rec.relocBit(B))
            Merged.setRelocBit(Offset + B);
      Offset += Rec.GuestInstCount;
    }
    if (Bad)
      continue;
    const TraceRecord &Head = File.Traces[CandIdx[Chain[0]]];
    Merged.GuestStart = Head.GuestStart;
    Merged.ModuleIndex = Head.ModuleIndex;
    Merged.GuestInstCount = Offset;
    Merged.Heat = Head.Heat;
    Merged.OptGen = Head.OptGen;
    Merged.Exits = std::move(Exits);
    Merged.Code.assign(dbi::TracePrologueBytes +
                           Body.size() * isa::InstructionSize +
                           Merged.Exits.size() * dbi::ExitStubBytes,
                       0);
    if (!promoteBody(Merged, std::move(Body), Source, Pic, EmitCerts, Stats))
      continue;
    File.Traces[CandIdx[Chain[0]]] = std::move(Merged);
    Done[Chain[0]] = true;
    ++Stats.SuperblocksFormed;
  }

  // Scalar promotion for every remaining candidate — superblock tails
  // included, since direct entries to their starts still execute them.
  for (size_t CI = 0; CI != CandIdx.size(); ++CI) {
    if (Done[CI])
      continue;
    TraceRecord &Rec = File.Traces[CandIdx[CI]];
    auto Body = Rec.decodeBody();
    if (Body)
      promoteBody(Rec, Body.take(), Sources.at(Cands[CI].Start), Pic,
                  EmitCerts, Stats);
  }
}

/// Text-relocated instruction indices of every loaded module, sorted,
/// for the PIC relocation masks. A list already in instruction order
/// (the assembler's) is used in place; an unsorted one is copied into
/// \p Copies, one buffer shared by all modules, and sorted there.
std::vector<std::span<const uint32_t>>
sortedTextRelocations(const loader::LoadedImage &Image,
                      std::vector<uint32_t> &Copies) {
  size_t Unsorted = 0;
  for (const LoadedModule &Mod : Image.Modules) {
    const std::vector<uint32_t> &List = Mod.Image->textRelocations();
    if (!std::is_sorted(List.begin(), List.end()))
      Unsorted += List.size();
  }
  Copies.reserve(Unsorted); // The spans point into it: it never grows.
  std::vector<std::span<const uint32_t>> Lists;
  Lists.reserve(Image.Modules.size());
  for (const LoadedModule &Mod : Image.Modules) {
    const std::vector<uint32_t> &List = Mod.Image->textRelocations();
    if (std::is_sorted(List.begin(), List.end())) {
      Lists.emplace_back(List);
      continue;
    }
    const size_t At = Copies.size();
    Copies.insert(Copies.end(), List.begin(), List.end());
    std::sort(Copies.begin() + At, Copies.end());
    Lists.emplace_back(Copies.data() + At, List.size());
  }
  return Lists;
}

/// A view's trace indices grouped by module, each group in index order:
/// module M's traces are Order[Offsets[M], Offsets[M + 1]). An entry
/// whose module index is out of range is in no group.
struct ModuleBuckets {
  std::vector<uint32_t> Offsets;
  std::vector<uint32_t> Order;

  std::span<const uint32_t> of(size_t M) const {
    return {Order.data() + Offsets[M], Offsets[M + 1] - Offsets[M]};
  }
};

ModuleBuckets bucketByModule(const CacheFileView &View) {
  const size_t NumModules = View.numModules();
  ModuleBuckets B;
  B.Offsets.assign(NumModules + 1, 0);
  for (uint32_t J = 0; J != View.numTraces(); ++J)
    if (View.entry(J).ModuleIndex < NumModules)
      ++B.Offsets[View.entry(J).ModuleIndex + 1];
  for (size_t M = 0; M != NumModules; ++M)
    B.Offsets[M + 1] += B.Offsets[M];
  B.Order.resize(B.Offsets[NumModules]);
  // Offsets[M] walks group M as it fills, ending at group M + 1's
  // start; shifting by one restores the group starts.
  for (uint32_t J = 0; J != View.numTraces(); ++J)
    if (View.entry(J).ModuleIndex < NumModules)
      B.Order[B.Offsets[View.entry(J).ModuleIndex]++] = J;
  for (size_t M = NumModules; M != 0; --M)
    B.Offsets[M] = B.Offsets[M - 1];
  B.Offsets[0] = 0;
  return B;
}

/// Reorders \p Traces hottest first, ties by guest start and then by
/// current position (the order a stable sort gives). Sorts small keys
/// and moves each record once, walking the permutation's cycles.
void sortByHeat(std::vector<TraceRecord> &Traces) {
  std::vector<std::pair<uint64_t, uint32_t>> Order;
  Order.reserve(Traces.size());
  for (uint32_t I = 0; I != Traces.size(); ++I)
    Order.emplace_back(static_cast<uint64_t>(~Traces[I].Heat) << 32 |
                           Traces[I].GuestStart,
                       I);
  std::sort(Order.begin(), Order.end());
  // Position I takes the record now at Order[I].second; a placed
  // position is marked by pointing at itself.
  for (uint32_t I = 0; I != Order.size(); ++I) {
    if (Order[I].second == I)
      continue;
    TraceRecord Held = std::move(Traces[I]);
    uint32_t J = I;
    while (Order[J].second != I) {
      const uint32_t From = Order[J].second;
      Traces[J] = std::move(Traces[From]);
      Order[J].second = J;
      J = From;
    }
    Traces[J] = std::move(Held);
    Order[J].second = J;
  }
}

} // namespace

Status PersistentSession::finalize(dbi::Engine &Engine) {
  assert(Primed && "finalize() requires a prior prime()");
  if (!Opts.WriteBack)
    return Status::success();

  // The prime pipeline is over: withdraw payload jobs no one will
  // consume so the workers stop competing with the publish below.
  // In-flight jobs are left to finish (they read only view bytes, which
  // stay alive until wait()/destruction).
  if (Queue)
    Queue->cancelPending();

  const loader::LoadedImage &Image = Engine.machine().image();
  const dbi::CodeCache &Cache = Engine.cache();

  CacheFile File;
  File.EngineHash = EngineHash;
  File.ToolHash = ToolHash;
  File.SpecBits = specBitsOf(Engine.spec());
  File.PositionIndependent = Opts.PositionIndependent;
  // XIP generations are only written for position-independent sessions:
  // relocation-free bodies are what make the shared payload pages
  // executable as-is by every later mapping at an unchanged base.
  File.ExecuteInPlace = Opts.ExecuteInPlace && Opts.PositionIndependent;
  File.Generation = LoadedView ? LoadedView->generation() + 1 : 1;
  File.WriterTag = static_cast<uint16_t>(currentProcessId() & 0xffff);

  File.Modules.reserve(Image.Modules.size());
  for (const LoadedModule &Mod : Image.Modules)
    File.Modules.push_back(ModuleKey::compute(Mod));
  // Resident traces bound the snapshot (accumulation can push past
  // this, but the resident copy loop is the hot part).
  File.Traces.reserve(Cache.traces().size());

  // Per-module sorted text-relocation lists, for the PIC relocation
  // masks.
  std::vector<uint32_t> RelocCopies;
  std::vector<std::span<const uint32_t>> TextRelocs;
  if (Opts.PositionIndependent)
    TextRelocs = sortedTextRelocations(Image, RelocCopies);

  auto moduleIndexFor = [&](uint32_t Addr) -> int {
    for (size_t I = 0; I != Image.Modules.size(); ++I)
      if (Image.Modules[I].contains(Addr))
        return static_cast<int>(I);
    return -1;
  };

  // Deep verification at write-back (Opts.ValidateSemantic): never
  // sign a trace whose code image is no longer effect-equivalent to
  // the guest code it claims to translate — in-pool corruption would
  // otherwise be re-published under a fresh checksum. A mismatch skips
  // just that trace, and carry-through does not bring its stored copy
  // back from the view.
  const loader::AddressSpace &Space = Engine.machine().space();
  std::vector<uint32_t> Refused; ///< Starts a mismatch skipped.
  auto semanticallyValid = [&](TraceRecord &Rec) -> bool {
    if (!Opts.ValidateSemantic)
      return true;
    auto Translated = Rec.decodeBody();
    auto Source = fetchGuestSource(Space, Rec.GuestStart, Rec.GuestInstCount);
    // A record that still carries its promotion certificate is verified
    // by the trusted checker; only a rejected (or absent) certificate
    // pays for the full symbolic proof.
    analysis::TranslationVerdict V;
    if (Translated && Source)
      V = analysis::checkTranslation(
          {.GuestStart = Rec.GuestStart,
           .Body = &*Translated,
           .Source = &*Source,
           .Bind = analysis::CertBindings::ofBody(Rec.bodyBytes(),
                                                  Rec.GuestInstCount),
           .Cert = Rec.Cert,
           .ProveOnFallback = true});
    if (!V.Equivalent) {
      ++Engine.stats().VerifyFailures;
      Refused.push_back(Rec.GuestStart);
      return false;
    }
    // The prover vouches for the body but the certificate did not:
    // drop the stale certificate, keep the trace.
    if (V.CertRejected)
      Rec.Cert.clear();
    ++Engine.stats().TracesVerified;
    return true;
  };

  // Resident traces harvested from the engine pool lost their record
  // envelopes at install — certificates included. Re-attach each
  // promoted trace's certificate, read in place from the primed view
  // through the trace's plan slot, when the body bytes still match
  // exactly (CRC-bound), so an executed-but-unmodified promotion keeps
  // its proof across generations without re-proving.
  auto reattachCert = [&](TraceRecord &Rec, uint32_t Slot) {
    if (Rec.OptGen == 0 || Slot == TranslatedTrace::NoPlanSlot)
      return;
    const std::span<const uint8_t> Cert = Admitted->certOf(Slot);
    auto Peek = analysis::peekCertificate(Cert.data(), Cert.size());
    if (!Peek || Peek->GuestStart != Rec.GuestStart ||
        Peek->InstCount != Rec.GuestInstCount)
      return;
    const size_t InstBytes =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    if (Rec.Code.size() < dbi::TracePrologueBytes + InstBytes ||
        crc32(Rec.bodyBytes(), InstBytes) != Peek->BodyCrc)
      return; // Body changed (recompile): certificate is stale.
    Rec.Cert.assign(Cert.begin(), Cert.end());
  };

  // The record fields every resident trace shares. Heat accumulates
  // across the runs that carried the trace: what the cache file brought
  // in plus this run's executions. The optimization generation travels
  // with the trace: a promoted body that executed this run is written
  // back at its generation. A pending persisted link is written as the
  // link it stands for.
  auto recordOf = [&](uint32_t Start, int ModIndex, uint32_t InstCount,
                      uint32_t Heat, uint32_t OptGen, uint32_t PoolOffset,
                      uint32_t PoolBytes,
                      std::span<const dbi::TraceExit> Exits) {
    TraceRecord Rec;
    Rec.GuestStart = Start;
    Rec.ModuleIndex = static_cast<uint32_t>(ModIndex);
    Rec.GuestInstCount = InstCount;
    Rec.Heat = Heat;
    Rec.OptGen = OptGen;
    const uint8_t *Code = Cache.codeAt(PoolOffset);
    Rec.Code.assign(Code, Code + PoolBytes);
    Rec.Exits.reserve(Exits.size());
    for (const dbi::TraceExit &Exit : Exits)
      Rec.Exits.push_back(ExitRecord{
          static_cast<uint8_t>(Exit.Kind), Exit.InstIndex, Exit.Target,
          Exit.Link          ? Exit.Link->guestStart()
          : Exit.LinkPending ? Exit.Target
                             : 0});
    return Rec;
  };
  // Admitted and never executed: the pool still holds the raw stored
  // bytes, whose CRC was never checked. Verify now so a damaged payload
  // is dropped (and retranslated by whichever run needs it) rather than
  // re-signed under a fresh checksum; rebase the written copy so the
  // file's bytes match the current base.
  auto writeUnexecuted = [&](TraceRecord &Rec, const dbi::PersistedPayload &P,
                             uint32_t Slot) {
    if (crc32(Rec.Code.data(), Rec.Code.size()) != P.ExpectedCodeCrc)
      return;
    dbi::rebaseTranslatedImage(Rec.Code.data(), Rec.Code.size(),
                               Rec.GuestInstCount, P.RelocMask,
                               P.RebaseDelta);
    if (Opts.PositionIndependent)
      Rec.RelocMask =
          LoadedView->readRelocMask(Admitted->Slots[Slot].TraceIndex);
    reattachCert(Rec, Slot);
    if (semanticallyValid(Rec))
      File.Traces.push_back(std::move(Rec));
  };

  std::vector<dbi::TraceExit> SlotExits;
  for (uint32_t Index = 0; Index != Cache.traces().size(); ++Index) {
    const TranslatedTrace *T = Cache.traces()[Index].get();
    if (!T) {
      // An unbuilt plan slot is written exactly like a built trace that
      // never executed, straight from the plan.
      const AdmittedPlan::Slot &S = Admitted->Slots[Index];
      int ModIndex = moduleIndexFor(S.Start);
      if (ModIndex < 0)
        continue;
      const TraceIndexEntry &E = Admitted->entry(Index);
      Admitted->exitsOf(Cache, Index, SlotExits);
      TraceRecord Rec = recordOf(S.Start, ModIndex, E.GuestInstCount, E.Heat,
                                 E.OptGen, S.PoolOffset, E.CodeSize,
                                 SlotExits);
      writeUnexecuted(Rec, Admitted->payloadOf(Index), Index);
      continue;
    }
    int ModIndex = moduleIndexFor(T->guestStart());
    if (ModIndex < 0)
      continue; // Not backed by a file on disk: never persisted.
    TraceRecord Rec = recordOf(
        T->guestStart(), ModIndex, T->guestInstCount(),
        accumulatedHeat(T->persistedHeat(), T->executionCount()),
        T->optGen(), T->poolOffset(), T->poolBytes(), T->exits());
    if (const dbi::PersistedPayload *P = T->persistedPayload()) {
      writeUnexecuted(Rec, *P, T->planSlot());
      continue;
    }
    const uint8_t *Code = Cache.codeAt(T->poolOffset());

    if (Opts.PositionIndependent) {
      // Mark every address-bearing immediate: branch/call targets plus
      // the module's own text relocations (address materialization).
      // The body is read in place and the sorted relocation list is
      // walked alongside it; the mask is allocated once, at its final
      // capacity, when the first bit is set.
      std::vector<isa::Instruction> Decoded;
      std::span<const isa::Instruction> Body;
      if (T->isMaterialized()) {
        Body = T->body();
      } else {
        auto D = isa::decodeAll(Code + dbi::TracePrologueBytes,
                                T->guestInstCount());
        if (!D)
          return D.status();
        Decoded = D.take();
        Body = Decoded;
      }
      const LoadedModule &Mod = Image.Modules[ModIndex];
      const uint32_t FirstIndex =
          (T->guestStart() - Mod.Base) / isa::InstructionSize;
      std::span<const uint32_t> Relocs = TextRelocs[ModIndex];
      auto Reloc = std::lower_bound(Relocs.begin(), Relocs.end(), FirstIndex);
      for (uint32_t I = 0; I != Body.size(); ++I) {
        while (Reloc != Relocs.end() && *Reloc < FirstIndex + I)
          ++Reloc;
        bool NeedsReloc =
            isa::hasCodeTarget(Body[I].Op) ||
            (Reloc != Relocs.end() && *Reloc == FirstIndex + I);
        if (!NeedsReloc)
          continue;
        if (Rec.RelocMask.empty())
          Rec.RelocMask.reserve((Body.size() + 7) / 8);
        Rec.setRelocBit(I);
      }
    }
    reattachCert(Rec, T->planSlot());
    if (!semanticallyValid(Rec))
      continue;
    File.Traces.push_back(std::move(Rec));
  }

  // Guest starts written so far, kept sorted: carry-through skips the
  // ones already written, and link closure clears links to starts that
  // never made it into the file. Reserved once for the resident
  // snapshot plus everything carry-through could add.
  const bool CarryThrough = LoadedWasOwn && LoadedView;
  std::vector<uint32_t> Starts;
  Starts.reserve(File.Traces.size() +
                 (CarryThrough ? LoadedView->numTraces() : 0));
  for (const TraceRecord &Rec : File.Traces)
    Starts.push_back(Rec.GuestStart);
  std::sort(Starts.begin(), Starts.end());
  std::sort(Refused.begin(), Refused.end());

  if (CarryThrough) {
    const ModuleBuckets Buckets = bucketByModule(*LoadedView);
    const size_t NumCurrent = File.Modules.size();

    // Accumulation carry-through, part 1: traces of *validated* modules
    // that are no longer resident in the engine cache — dropped by a
    // mid-run flush or skipped at install when a pool filled. The paper
    // writes the persistent cache "whenever the intra-execution code
    // cache becomes full" for exactly this reason; merging here keeps
    // accumulation monotone under cache pressure. Only applies to this
    // application's own cache, and only when the module's base is
    // unchanged (always true for validated non-PIC modules; PIC reuse
    // at a new base would require rebasing the stale records, so those
    // are left to retranslation instead). Traces the write-back
    // verification refused stay out. Each carried start is inserted in
    // order; this path runs only after a flush, a full pool or a
    // refusal.
    for (size_t I = 0; I != LoadedView->numModules(); ++I) {
      if (!ModuleLoadedNow[I] || !ModuleValidated[I])
        continue;
      const ModuleKey &Old = LoadedView->modules()[I];
      size_t Now = 0;
      while (Now != NumCurrent && File.Modules[Now].Path != Old.Path)
        ++Now;
      if (Now == NumCurrent || File.Modules[Now].Base != Old.Base)
        continue;
      for (uint32_t J : Buckets.of(I)) {
        const uint32_t Start = LoadedView->entry(J).GuestStart;
        auto At = std::lower_bound(Starts.begin(), Starts.end(), Start);
        if ((At != Starts.end() && *At == Start) ||
            std::binary_search(Refused.begin(), Refused.end(), Start))
          continue;
        auto Copy = LoadedView->record(J);
        if (!Copy)
          continue; // Corrupt prior payload: dropped from carry-through.
        Copy->ModuleIndex = static_cast<uint32_t>(Now);
        Starts.insert(At, Start);
        File.Traces.push_back(Copy.take());
      }
    }

    // Accumulation carry-through, part 2: keep still-valid traces of
    // modules that simply were not loaded by this run, so the cache's
    // coverage only grows over time (Section 4.4). Only applies to this
    // application's own cache; donor caches are never modified or
    // absorbed wholesale.
    const size_t SortedPrefix = Starts.size();
    for (size_t I = 0; I != LoadedView->numModules(); ++I) {
      if (ModuleLoadedNow[I])
        continue;
      const ModuleKey &Old = LoadedView->modules()[I];
      bool Collides = false;
      for (const ModuleKey &Current : File.Modules)
        Collides |= regionsOverlap(Old.Base, Old.Size, Current.Base,
                                   Current.Size);
      if (Collides)
        continue;
      uint32_t NewIndex = static_cast<uint32_t>(File.Modules.size());
      File.Modules.push_back(Old);
      for (uint32_t J : Buckets.of(I)) {
        auto Copy = LoadedView->record(J);
        if (!Copy)
          continue; // Corrupt prior payload: dropped from carry-through.
        Copy->ModuleIndex = NewIndex;
        Starts.push_back(Copy->GuestStart);
        File.Traces.push_back(Copy.take());
      }
    }
    if (Starts.size() != SortedPrefix)
      std::sort(Starts.begin(), Starts.end());
  }

  // Clear links whose targets did not make it into this file (e.g. a
  // link into a trace the engine recompiled differently): readers treat
  // LinkedStart == 0 as "unlinked", and validate() requires closure.
  for (TraceRecord &Rec : File.Traces)
    for (ExitRecord &Exit : Rec.Exits)
      if (Exit.LinkedStart != 0 &&
          !std::binary_search(Starts.begin(), Starts.end(),
                              Exit.LinkedStart))
        Exit.LinkedStart = 0;

  // Heat-ordered layout: hottest traces first in the trace index and
  // payload, so a later run's demand paging touches the fewest payload
  // pages before its hot code is resident. Correctness is order-
  // independent — records address each other by guest start.
  sortByHeat(File.Traces);

  CacheStore &Store = *Db.backend();
  dbi::EngineStats &Stats = Engine.stats();
  // The write charge is modeled on the pre-promotion snapshot:
  // promotion happens off the modeled critical path, so architectural
  // stats stay bit-identical whether the tier is on or off.
  Stats.PersistCycles +=
      Engine.options().Costs.PersistWriteCyclesPerPage *
      pagesOf(File.serializedSize());
  // Optimization tier. Tool-less sessions only: the optimizer deletes
  // instructions, which would change what an instrumentation tool
  // observes.
  if (Opts.OptTier && !Engine.tool() && File.SpecBits == 0)
    promoteCacheFile(File, Space, Opts, Stats);

  // Transactional publish: BaseGeneration is what this session primed
  // from its own slot (a donor prime does not claim the slot's
  // history), so a concurrent finalizer that advanced the slot first is
  // detected and merged with instead of clobbered. Store-write circuit
  // breaker: persistence is an accelerator, so a failing write is
  // retried up to BreakerAttempts times and then abandoned — the run
  // completes correctly either way.
  const uint32_t BaseGeneration =
      LoadedWasOwn && LoadedView ? File.Generation - 1 : 0;
  Status LastError = Status::success();
  for (uint32_t Attempt = 0; Attempt != BreakerAttempts; ++Attempt) {
    if (Attempt != 0)
      ++Stats.PersistStoreRetries;
    if (!Opts.StoreAsPath.empty()) {
      LastError = Store.putRef(Opts.StoreAsPath, File);
      if (LastError.ok())
        return LastError;
    } else {
      auto Published = Store.publish(LookupKey, File, BaseGeneration);
      if (Published) {
        Stats.PersistStoreRetries += Published->LockRetries;
        return Status::success();
      }
      LastError = Published.status();
    }
    ++Stats.PersistStoreFailures;
  }
  if (Opts.FailFast)
    return LastError;
  Stats.PersistDegraded = true;
  Stats.PersistDegradeReason = LastError.toString();
  return Status::success();
}

Status PersistentSession::wait(dbi::EngineStats *) {
  if (Queue) {
    // Jobs the run never consumed are dead weight; in-flight ones must
    // finish before the cache-file view they read can be released.
    Queue->cancelPending();
    Queue->waitInFlight();
    if (RecordingHooks *Hooks = recordingHooks()) {
      // Diagnostic timeline only: engine results are invariant to the
      // claim/withdraw pattern, so replay compares these outcomes to
      // attribute a divergence, never to reproduce one.
      dbi::ScheduleStats Sched = Queue->scheduleStats();
      ScheduleOutcomes Out;
      Out.ChunksPublished = Sched.ChunksPublished;
      Out.ChunksClaimed = Sched.ChunksClaimed;
      Out.ChunksWithdrawn = Sched.ChunksWithdrawn;
      Out.ChunksInFlightSkipped = Sched.ChunksInFlightSkipped;
      Hooks->onScheduleOutcomes(Out);
    }
  }
  return Status::success();
}

ErrorOr<PersistentRunResult> pcc::persist::runWithPersistence(
    vm::Machine &M, dbi::Tool *ClientTool,
    const dbi::EngineOptions &EngineOpts, const CacheDatabase &Db,
    const PersistOptions &Opts) {
  dbi::Engine Engine(M, ClientTool, EngineOpts);
  PersistentSession Session(Db, Opts);
  auto Prime = Session.prime(Engine);
  if (!Prime)
    return Prime.status();

  PersistentRunResult Result;
  Result.Prime = Prime.take();
  Result.Run = Engine.run();
  Status Finalized = Session.finalize(Engine);
  if (!Finalized.ok())
    return Finalized;
  Result.Stats = Engine.stats();
  // Include the cache write-back charged by finalize().
  Result.Run.Cycles = Result.Stats.totalCycles();
  return Result;
}
