//===- tests/session_edge_test.cpp - persistence edge cases ---------------===//
//
// Less-traveled paths of the persistent cache manager: library
// upgrades that change a dependency's path, pool exhaustion during
// install, linking disabled, donor/store path interplay, and the
// thread scheduler's corner cases.
//
//===----------------------------------------------------------------------===//

#include "dbi/Compiler.h"
#include "persist/CacheDatabase.h"
#include "persist/Session.h"
#include "replay/Recorder.h"
#include "replay/Replay.h"
#include "support/FaultInjector.h"
#include "vm/Threads.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

TEST(SessionEdge, LibraryUpgradeWithNewPathDropsStaleTraces) {
  // A library is replaced by a new build at a *different path* (the
  // name the app links stays the same). The old cache's module entry
  // no longer corresponds to any loaded module, and its region is now
  // occupied by the replacement — the stale traces must neither be
  // installed nor carried through accumulation.
  TinyWorkload W = makeTinyWorkload(2, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  // Install the upgraded library: same module name (the app still
  // links "libtest.so"), new on-disk path — copy the code under the
  // new identity.
  auto Fresh = std::make_shared<binary::Module>(
      "libtest.so", "/lib/libtest-2.so",
      binary::ModuleKind::SharedLibrary);
  Fresh->setInstructions(W.Registry.find("libtest.so")->instructions());
  Fresh->setData(W.Registry.find("libtest.so")->data());
  for (const auto &Sym : W.Registry.find("libtest.so")->symbols())
    Fresh->addSymbol(Sym.Name, Sym.Offset);
  for (uint32_t R : W.Registry.find("libtest.so")->textRelocations())
    Fresh->addTextRelocation(R);
  for (uint32_t R : W.Registry.find("libtest.so")->dataRelocations())
    Fresh->addDataRelocation(R);
  W.Registry.add(Fresh);

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  // Old library traces unusable; app traces still fine.
  EXPECT_GT(Warm->Prime.TracesSkipped, 0u);
  EXPECT_GT(Warm->Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));

  // The rewritten cache must reference only current modules: no stale
  // path, no address-overlapping carry-through.
  PersistentSession Probe(Db);
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  auto File = Db.loadPath(Dir.path() + "/" + (*Files)[0]);
  ASSERT_TRUE(File.ok());
  for (const ModuleKey &Key : File->Modules)
    EXPECT_NE(Key.Path, "/lib/libtest.so")
        << "stale module key carried through";
}

TEST(SessionEdge, DataPoolExhaustionDuringInstallDegradesGracefully) {
  TinyWorkload W = makeTinyWorkload(8, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  // Warm run with a data pool too small to hold every persisted trace:
  // install stops early, the rest is retranslated, results unchanged.
  dbi::EngineOptions Tiny;
  Tiny.DataPoolBytes = 6000;
  Tiny.CodePoolBytes = 1 << 20;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       PersistOptions(), nullptr, Tiny);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_GT(Warm->Prime.TracesSkipped, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

TEST(SessionEdge, CodePoolTooSmallAbandonsPersistence) {
  TinyWorkload W = makeTinyWorkload(8, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());

  dbi::EngineOptions Tiny;
  Tiny.CodePoolBytes = 2048; // Smaller than the persisted pool.
  Tiny.DataPoolBytes = 1 << 20;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       PersistOptions(), nullptr, Tiny);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  // Persistence abandoned (Section 3.2.2: "If the pools are
  // unavailable, persistence is abandoned and execution continues").
  EXPECT_EQ(Warm->Prime.TracesInstalled, 0u);
  EXPECT_FALSE(Warm->Prime.RejectReason.empty());
  EXPECT_TRUE(Warm->Run.ok());
}

TEST(SessionEdge, DescribePrimeNamesTheRejectReason) {
  // The lookup key omits the addressing mode, so a position-independent
  // run locates the fixed-address slot and must reject it. The outcome
  // line says so instead of reporting the cache as absent.
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  EXPECT_EQ(describePrime(Cold->Prime), "not found");

  PersistOptions Pic;
  Pic.PositionIndependent = true;
  Pic.WriteBack = false;
  auto Rejected = workloads::runPersistent(W.Registry, W.App, Input, Db, Pic);
  ASSERT_TRUE(Rejected.ok()) << Rejected.status().toString();
  EXPECT_FALSE(Rejected->Prime.CacheFound);
  EXPECT_EQ(Rejected->Prime.RejectReason,
            "translation addressing mode mismatch");
  EXPECT_EQ(describePrime(Rejected->Prime),
            "rejected (translation addressing mode mismatch)");
  EXPECT_TRUE(Cold->Run.observablyEquals(Rejected->Run));

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  ASSERT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(describePrime(Warm->Prime),
            "found (" + std::to_string(Warm->Prime.TracesInstalled) +
                " traces installed, 0 skipped, 0 modules invalidated)");
}

TEST(SessionEdge, LinkingDisabledStillReusesTraces) {
  TinyWorkload W = makeTinyWorkload(3, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);
  dbi::EngineOptions NoLinks;
  NoLinks.EnableLinking = false;
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       PersistOptions(), nullptr,
                                       NoLinks)
                  .ok());
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       PersistOptions(), nullptr,
                                       NoLinks);
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_EQ(Warm->Prime.LinksRestored, 0u);
}

TEST(SessionEdge, StoreAsPathDoesNotTouchDatabaseSlot) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions Opts;
  Opts.StoreAsPath = Dir.path() + "/custom-location.pcc";
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(2), Db, Opts)
                  .ok());
  EXPECT_TRUE(fileExists(Opts.StoreAsPath));
  // The keyed slot stays empty: the next default run finds nothing.
  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto R = workloads::runPersistent(W.Registry, W.App,
                                    W.allSlotsInput(2), Db, ReadOnly);
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R->Prime.CacheFound);
}

TEST(SessionEdge, EmptyProgramCacheRoundTrips) {
  // A program that exits immediately: the cache holds a single trace.
  TinyWorkload W = makeTinyWorkload(1, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.input({}); // No work items at all.
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok());
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_GT(Warm->Prime.TracesInstalled, 0u);
}

TEST(SessionEdge, PrimeOnlySessionLeavesNoFile) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(1), Db,
                                       ReadOnly)
                  .ok());
  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 0u);
}

TEST(ThreadSchedulerUnit, RotatesOnlyOverLiveThreads) {
  vm::CpuState Main;
  Main.Pc = 0x1000;
  vm::ThreadScheduler Threads(Main);
  loader::AddressSpace Space;
  vm::SyscallEnv Env;

  // Spawn two threads.
  for (uint32_t I = 0; I != 2; ++I) {
    Env.PendingSpawn = vm::SpawnRequest{0x2000 + I * 0x100, I};
    auto Alive = Threads.afterSyscall(Env, Space, 0x1008);
    ASSERT_TRUE(Alive.ok());
    EXPECT_TRUE(*Alive);
  }
  EXPECT_EQ(Threads.threadCount(), 3u);
  EXPECT_EQ(Threads.liveCount(), 3u);

  // Kill threads one at a time; rotation must skip the dead.
  unsigned Ends = 0;
  for (unsigned I = 0; I != 3; ++I) {
    Env.CurrentThreadExited = true;
    auto Alive = Threads.afterSyscall(
        Env, Space, Threads.current().Cpu.Pc);
    ASSERT_TRUE(Alive.ok());
    if (!*Alive)
      ++Ends;
    else
      EXPECT_FALSE(Threads.current().Done);
  }
  EXPECT_EQ(Ends, 1u) << "program ends exactly when the last thread "
                         "exits";
}

TEST(ThreadSchedulerUnit, SpawnMapsDisjointStacks) {
  vm::CpuState Main;
  vm::ThreadScheduler Threads(Main);
  loader::AddressSpace Space;
  vm::SyscallEnv Env;
  for (uint32_t I = 0; I != 4; ++I) {
    Env.PendingSpawn = vm::SpawnRequest{0x1000, I};
    ASSERT_TRUE(Threads.afterSyscall(Env, Space, 0).ok());
  }
  // All four stacks mapped, all writable, all distinct.
  for (uint32_t I = 1; I <= 4; ++I) {
    uint32_t Low = vm::ThreadScheduler::ThreadStackBase +
                   (I - 1) * vm::ThreadScheduler::ThreadStackStride;
    EXPECT_TRUE(Space.isMapped(Low));
    EXPECT_TRUE(Space.write32(Low, I).ok());
  }
}

TEST(SessionEdge, FlushDuringPrimedRunDoesNotShrinkCache) {
  // A mid-run cache flush discards resident traces, but the write-back
  // must merge the still-valid persisted records so accumulation stays
  // monotone under pool pressure (the paper writes the cache "whenever
  // the intra-execution code cache becomes full").
  TinyWorkload W = makeTinyWorkload(8, 0, /*Seed=*/31);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Before = Db.loadPath(Path);
  ASSERT_TRUE(Before.ok());

  // Warm run with pools so small that flushes are inevitable. The
  // persisted pool itself does not fit, so install is abandoned, the
  // engine flushes repeatedly — and the rewritten file must still
  // contain at least the old coverage.
  dbi::EngineOptions Tiny;
  Tiny.CodePoolBytes = 3000;
  Tiny.DataPoolBytes = 3000;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       persist::PersistOptions(),
                                       nullptr, Tiny);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_GT(Warm->Stats.CacheFlushes, 0u);

  auto After = Db.loadPath(Path);
  ASSERT_TRUE(After.ok());
  EXPECT_GE(After->Traces.size(), Before->Traces.size())
      << "flush must not shrink the persistent cache";
  EXPECT_TRUE(After->validate().ok());

  // And a roomy warm run now compiles nothing.
  auto Full = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Full.ok());
  EXPECT_EQ(Full->Stats.TracesCompiled, 0u);
}

TEST(SessionEdge, LazyPayloadCorruptionDroppedAtFirstExecution) {
  // A v2 cache whose header, module table and index are intact but
  // whose payload is damaged primes successfully — the corruption is
  // only detectable at the damaged trace's first execution, where the
  // per-trace CRC fails, the trace is dropped and retranslated, and the
  // run completes with unchanged results.
  TinyWorkload W = makeTinyWorkload(4, 2, /*Seed=*/91);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  // The header stores the payload section's offset at byte 56 (see
  // CacheView.h); flip a code byte well inside the section.
  uint32_t PayloadOffset = 0;
  for (unsigned I = 0; I != 4; ++I)
    PayloadOffset |= static_cast<uint32_t>((*Bytes)[56 + I]) << (8 * I);
  size_t Victim = PayloadOffset + (Bytes->size() - PayloadOffset) / 2;
  (*Bytes)[Victim] ^= 0x5a;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       ReadOnly);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Prime.TracesInstalled, Cold->Stats.TracesCompiled)
      << "damaged payload must not be detectable at prime time";
  EXPECT_GT(Warm->Stats.TracesDroppedCorrupt, 0u);
  EXPECT_GT(Warm->Stats.TracesCompiled, 0u)
      << "dropped trace must be retranslated";
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

TEST(SessionEdge, OnlyExecutedTracesAreValidated) {
  // Prime N traces, execute a strict subset: exactly the executed
  // traces' payloads are CRC-checked and decoded.
  TinyWorkload W = makeTinyWorkload(8, 2, /*Seed=*/47);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(3), Db)
                  .ok());

  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto Partial = workloads::runPersistent(
      W.Registry, W.App, W.input({{0, 3}, {1, 3}}), Db, ReadOnly);
  ASSERT_TRUE(Partial.ok());
  EXPECT_GT(Partial->Prime.TracesInstalled, 0u);
  EXPECT_EQ(Partial->Stats.TracesCompiled, 0u);
  EXPECT_EQ(Partial->Stats.TracePayloadsValidated,
            Partial->Stats.TracesReused)
      << "each executed persisted trace is validated exactly once";
  EXPECT_LT(Partial->Stats.TracePayloadsValidated,
            static_cast<uint64_t>(Partial->Prime.TracesInstalled))
      << "unexecuted traces' payloads must never be validated";
}

TEST(SessionEdge, WrittenCachesAlwaysValidateStructurally) {
  // Every write-back path (fresh, accumulated, post-flush merge,
  // inter-app) produces files that pass deep validation.
  TinyWorkload W = makeTinyWorkload(5, 2, /*Seed=*/13);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto InputA = W.input({{0, 3}, {1, 3}, {2, 3}});
  auto InputB = W.input({{3, 3}, {4, 3}, {5, 2}, {6, 2}});
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, InputA, Db).ok());
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, InputB, Db).ok());
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  for (const std::string &Name : *Files) {
    auto File = Db.loadPath(Dir.path() + "/" + Name);
    ASSERT_TRUE(File.ok());
    EXPECT_TRUE(File->validate().ok()) << Name;
  }
}

TEST(SessionEdge, RecordedSemanticMismatchQuarantineReplaysIdentically) {
  // A CRC-transparent miscompile is the nastiest quarantine trigger:
  // only deep validation catches it. Recording such a run must capture
  // the poisoned cache bytes, and replaying the log must re-reach the
  // identical SemanticMismatch verdict bit for bit.
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());

  // Seed one guaranteed-semantic mutation into every persisted trace
  // and re-serialize (which recomputes every CRC).
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  unsigned Mutated = 0;
  for (const std::string &Name : *Files) {
    if (Name.size() < 4 || Name.substr(Name.size() - 4) != ".pcc")
      continue;
    std::string Path = Dir.path() + "/" + Name;
    auto File = Db.loadPath(Path);
    ASSERT_TRUE(File.ok());
    for (TraceRecord &Rec : File->Traces) {
      auto Body = isa::decodeAll(
          Rec.Code.data() + dbi::TracePrologueBytes, Rec.GuestInstCount);
      ASSERT_TRUE(Body.ok());
      // A mid-body Halt (or, for a Halt, a fallthrough jump) always
      // changes guest-visible effects.
      isa::Instruction Mutant =
          Body->front().Op == isa::Opcode::Halt
              ? isa::makeJmp(Rec.GuestStart + isa::InstructionSize)
              : isa::makeHalt();
      auto Enc = Mutant.encode();
      std::copy(Enc.begin(), Enc.end(),
                Rec.Code.begin() + dbi::TracePrologueBytes);
      ++Mutated;
    }
    ASSERT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
  }
  ASSERT_GT(Mutated, 0u);

  replay::RecordSpec Spec;
  Spec.LogName = "miscompile.pcrr";
  PersistOptions Opts;
  Opts.ValidateSemantic = true;
  auto Rec = replay::recordRun(W.Registry, W.App, Input, Db, Opts, Spec);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();
  ASSERT_EQ(Rec->Quarantines.size(), 1u);
  EXPECT_EQ(Rec->Quarantines[0].Code,
            static_cast<uint8_t>(QuarantineReasonCode::SemanticMismatch));

  // The poisoned bytes traveled in the log (they are an input), the
  // quarantine entry names the recording, and the attached evidence
  // replays to the identical verdict.
  ASSERT_EQ(Rec->Caches.size(), 1u);
  auto Entries = Db.quarantined();
  ASSERT_TRUE(Entries.ok());
  ASSERT_EQ(Entries->size(), 1u);
  EXPECT_EQ(Entries->front().ReplayLog, "miscompile.pcrr");
  auto Attached =
      Db.backend()->readQuarantineAttachment("miscompile.pcrr");
  ASSERT_TRUE(Attached.ok());
  auto Parsed = replay::deserializeLog(*Attached);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();

  auto Out = replay::replayRun(*Parsed, replay::ReplayOptions());
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(replay::compareToRecording(*Parsed, *Out), "");
  ASSERT_EQ(Out->Quarantines.size(), 1u);
  EXPECT_EQ(Out->Quarantines[0].Code,
            static_cast<uint8_t>(QuarantineReasonCode::SemanticMismatch));
}
