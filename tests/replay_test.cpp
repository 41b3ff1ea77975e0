//===- tests/replay_test.cpp - deterministic record/replay ----------------===//
//
// The record/replay suite: a recorded run's `.pcrr` log must re-drive
// the engine to bit-identical EngineStats, RunResult and final guest
// memory — across cold and warm caches, any persistence worker count,
// fault storms over many seeds, and every cache configuration (v2,
// opt-flags, XIP, PIC+ASLR, tiered). Tampered logs are rejected with
// the right error class, and replay-based differential verification
// proves the persistent cache invisible to guest semantics.
//
// Built as its own CTest executable (replay_test) so the --replay soak
// leg of scripts/check.sh can run exactly this binary under ASan and
// TSan.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/DirectoryStore.h"
#include "persist/TieredStore.h"
#include "replay/Recorder.h"
#include "replay/Replay.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/ThreadPool.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::replay;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

/// Records one run of \p W against \p Db.
ErrorOr<RecordedRun> record(const TinyWorkload &W,
                            const std::vector<uint8_t> &Input,
                            const persist::CacheDatabase &Db,
                            const persist::PersistOptions &POpts =
                                persist::PersistOptions(),
                            const RecordSpec &Spec = RecordSpec()) {
  return recordRun(W.Registry, W.App, Input, Db, POpts, Spec);
}

/// Replays \p Rec and expects a bit-identical outcome.
void expectCleanReplay(const RecordedRun &Rec,
                       const ReplayOptions &Opts = ReplayOptions()) {
  auto Out = replayRun(Rec, Opts);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(compareToRecording(Rec, *Out), "");
}

/// Flips one byte at absolute \p Offset of the file at \p Path.
void flipByteAt(const std::string &Path, size_t Offset) {
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  ASSERT_GT(Bytes->size(), Offset);
  (*Bytes)[Offset] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());
}

/// Path of the single .pcc file in \p Dir.
std::string soleCachePath(const std::string &Dir) {
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.ok());
  std::string Found;
  if (Names)
    for (const std::string &Name : *Names)
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc")
        Found = Dir + "/" + Name;
  EXPECT_FALSE(Found.empty());
  return Found;
}

} // namespace

//===----------------------------------------------------------------------===//
// The log format.
//===----------------------------------------------------------------------===//

TEST(ReplayLog, SerializeDeserializeRoundTrip) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Rec = record(W, W.allSlotsInput(2), Db);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();

  auto Parsed = deserializeLog(serializeLog(*Rec));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  EXPECT_EQ(Parsed->Config.ToolName, Rec->Config.ToolName);
  EXPECT_EQ(Parsed->Config.AslrSeed, Rec->Config.AslrSeed);
  EXPECT_EQ(Parsed->Modules, Rec->Modules);
  EXPECT_EQ(Parsed->Input, Rec->Input);
  EXPECT_EQ(Parsed->LoadBases, Rec->LoadBases);
  ASSERT_EQ(Parsed->Caches.size(), Rec->Caches.size());
  for (size_t I = 0; I != Rec->Caches.size(); ++I) {
    EXPECT_EQ(Parsed->Caches[I].RefName, Rec->Caches[I].RefName);
    EXPECT_EQ(Parsed->Caches[I].Bytes, Rec->Caches[I].Bytes);
    EXPECT_EQ(Parsed->Caches[I].Consumed, Rec->Caches[I].Consumed);
  }
  for (size_t Op = 0; Op != static_cast<size_t>(FaultOp::OpCount); ++Op)
    EXPECT_EQ(Parsed->FaultDecisions[Op], Rec->FaultDecisions[Op]);
  EXPECT_EQ(diffStats(Parsed->Stats, Rec->Stats), "");
  EXPECT_EQ(diffRunResult(Parsed->Run, Rec->Run), "");
  EXPECT_EQ(Parsed->MemoryDigest, Rec->MemoryDigest);
}

TEST(ReplayLog, EveryTableCounterSurvivesTheCodec) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Rec = record(W, W.allSlotsInput(1), Db);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();

  // A distinct value per counter: a dropped, duplicated or swapped
  // field cannot round-trip.
  uint64_t Value = 0x1000;
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    Rec->Stats.*C.Field = Value++;
  auto Parsed = deserializeLog(serializeLog(*Rec));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  Value = 0x1000;
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    EXPECT_EQ(Parsed->Stats.*C.Field, Value++) << C.Name;
}

TEST(ReplayLog, DiffStatsNamesEveryDivergentCounter) {
  dbi::EngineStats Recorded;
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters) {
    dbi::EngineStats Replayed = Recorded;
    ++(Replayed.*C.Field);
    std::string Prefix = std::string(C.Name) + ": ";
    EXPECT_EQ(diffStats(Recorded, Replayed).substr(0, Prefix.size()),
              Prefix);
  }
  EXPECT_EQ(diffStats(Recorded, Recorded), "");
}

TEST(ReplayLog, TamperedLogsAreRejectedWithTheRightErrorClass) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Rec = record(W, W.allSlotsInput(1), Db);
  ASSERT_TRUE(Rec.ok());
  std::vector<uint8_t> Good = serializeLog(*Rec);

  // Bad magic: not a .pcrr file at all.
  std::vector<uint8_t> Bad = Good;
  Bad[0] ^= 0xff;
  EXPECT_EQ(deserializeLog(Bad).status().code(),
            ErrorCode::InvalidFormat);

  // Newer/older log version: readable header, unsupported layout.
  Bad = Good;
  Bad[4] ^= 0x01; // Version field, little-endian low byte.
  EXPECT_EQ(deserializeLog(Bad).status().code(),
            ErrorCode::VersionMismatch);

  // A log recorded by a different engine build is not replayable here.
  Bad = Good;
  Bad[8] ^= 0xff; // Engine-version hash.
  EXPECT_EQ(deserializeLog(Bad).status().code(),
            ErrorCode::VersionMismatch);

  // Flipped body byte: the CRC catches it.
  Bad = Good;
  Bad[Bad.size() / 2] ^= 0xff;
  EXPECT_EQ(deserializeLog(Bad).status().code(),
            ErrorCode::InvalidFormat);

  // Truncation anywhere is InvalidFormat, never a crash.
  for (size_t Keep : {size_t(0), size_t(3), size_t(10), size_t(20),
                      Good.size() / 2, Good.size() - 1}) {
    std::vector<uint8_t> Cut(Good.begin(), Good.begin() + Keep);
    EXPECT_FALSE(deserializeLog(Cut).ok()) << "kept " << Keep;
  }

  // The untampered image still parses (the mutations above copied).
  EXPECT_TRUE(deserializeLog(Good).ok());
}

//===----------------------------------------------------------------------===//
// Bit-identical replay.
//===----------------------------------------------------------------------===//

TEST(Replay, ColdAndWarmRunsReplayBitIdentically) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  // Cold: nothing in the store yet, the run translates and publishes.
  auto Cold = record(W, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  EXPECT_TRUE(Cold->Caches.empty());
  expectCleanReplay(*Cold);

  // Warm: the run consumes the cache the cold run wrote; the log
  // carries those bytes, so replay primes from the same cache.
  auto Warm = record(W, Input, Db);
  ASSERT_TRUE(Warm.ok());
  ASSERT_EQ(Warm->Caches.size(), 1u);
  EXPECT_TRUE(Warm->Caches[0].Consumed);
  EXPECT_NE(Warm->Stats.TracesLoadedFromCache, 0u);
  expectCleanReplay(*Warm);
}

TEST(Replay, AnyWorkerCountReplaysARecordedParallelRun) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(6, 0);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());

  // Record a warm run on four workers...
  support::ThreadPool Four(4);
  persist::PersistOptions POpts;
  POpts.Pool = &Four;
  auto Rec = record(W, Input, Db, POpts);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();

  // ...and replay it synchronously and on sixteen: the PR 4 invariant
  // makes every leg bit-identical to the recording.
  expectCleanReplay(*Rec);
  support::ThreadPool Sixteen(16);
  ReplayOptions Wide;
  Wide.Pool = &Sixteen;
  expectCleanReplay(*Rec, Wide);
}

TEST(Replay, OptTierRunsReplayTheirPromotions) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 0, 77);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(6);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());

  // A warm run that promotes at finalize: the opt-tier settings travel
  // in the log, so the replay promotes the same traces.
  persist::PersistOptions POpts;
  POpts.OptTier = true;
  auto Rec = record(W, Input, Db, POpts);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();
  ASSERT_GT(Rec->Stats.TracesPromoted, 0u);
  auto Parsed = deserializeLog(serializeLog(*Rec));
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();

  support::ThreadPool Four(4);
  ReplayOptions OnFour;
  OnFour.Pool = &Four;
  for (const ReplayOptions &Opts : {ReplayOptions(), OnFour}) {
    auto Out = replayRun(*Parsed, Opts);
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    EXPECT_EQ(diffStats(Rec->Stats, Out->Stats), "");
    EXPECT_EQ(Out->Stats.TracesPromoted, Rec->Stats.TracesPromoted);
    EXPECT_EQ(compareToRecording(*Parsed, *Out), "");
  }
}

TEST(Replay, FaultStormsReplayAcrossTwentySeeds) {
  // Twenty independent storms: each seeds the probabilistic plan
  // differently and cycles the recording worker count through 0/4/16.
  // Whatever faults fire, the log captures the literal decision stream
  // and the replay (on a different worker count) must reproduce the
  // run bit for bit.
  TinyWorkload W = makeTinyWorkload(4, 0);
  support::ThreadPool Four(4), Sixteen(16);
  support::ThreadPool *Pools[3] = {nullptr, &Four, &Sixteen};
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    FaultScope Scope;
    TempDir Dir;
    persist::CacheDatabase Db(Dir.path());
    auto Input = W.allSlotsInput(2);
    // A fault-free cold run seeds the store so the stormed run has a
    // cache to consume (and to fail reading).
    ASSERT_TRUE(
        workloads::runPersistent(W.Registry, W.App, Input, Db).ok());

    ASSERT_TRUE(FaultInjector::instance()
                    .configureFromPlan(
                        "seed:" + std::to_string(Seed) +
                        ",enospc:0.2,fsync:0.2,lock:0.25,read:0.1")
                    .ok());
    persist::PersistOptions POpts;
    POpts.Pool = Pools[Seed % 3];
    auto Rec = record(W, Input, Db, POpts);
    ASSERT_TRUE(Rec.ok()) << Rec.status().toString();

    ReplayOptions Opts;
    Opts.Pool = Pools[(Seed + 1) % 3];
    expectCleanReplay(*Rec, Opts);
  }
}

//===----------------------------------------------------------------------===//
// Differential verification.
//===----------------------------------------------------------------------===//

TEST(ReplayDiff, PersistenceOnAndOffAgreeAcrossConfigurations) {
  struct Config {
    const char *Name;
    persist::PersistOptions POpts;
    RecordSpec Spec;
  };
  std::vector<Config> Configs;
  Configs.push_back({"v2", {}, {}});
  {
    Config C{"opt-flags", {}, {}};
    C.Spec.OptimizeFlags = true;
    Configs.push_back(C);
  }
  {
    Config C{"xip", {}, {}};
    C.POpts.ExecuteInPlace = true;
    C.POpts.PositionIndependent = true;
    Configs.push_back(C);
  }
  {
    Config C{"pic+aslr", {}, {}};
    C.POpts.PositionIndependent = true;
    C.Spec.Policy = loader::BasePolicy::Randomized;
    C.Spec.AslrSeed = 0xA51A;
    Configs.push_back(C);
  }

  TinyWorkload W = makeTinyWorkload(3, 2);
  for (const Config &C : Configs) {
    SCOPED_TRACE(C.Name);
    FaultScope Scope;
    TempDir Dir;
    persist::CacheDatabase Db(Dir.path());
    auto Input = W.allSlotsInput(2);
    dbi::EngineOptions EngineOpts;
    EngineOpts.OptimizeFlags = C.Spec.OptimizeFlags;
    // Warm the store under the same configuration, then record the
    // consuming run and run both differential legs on its log.
    ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App, Input, Db,
                                         C.POpts, nullptr, EngineOpts,
                                         C.Spec.Policy, C.Spec.AslrSeed)
                    .ok());
    auto Rec = record(W, Input, Db, C.POpts, C.Spec);
    ASSERT_TRUE(Rec.ok()) << Rec.status().toString();
    auto Verdict = replayDiff(*Rec);
    ASSERT_TRUE(Verdict.ok()) << Verdict.status().toString();
    EXPECT_EQ(*Verdict, "");
  }
}

TEST(ReplayDiff, TieredStoreRunsReplayWithTheRecordedShape) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 0);
  TempDir L1, L2;
  auto Tiered = std::make_shared<persist::TieredStore>(
      std::make_shared<persist::DirectoryStore>(L1.path()),
      std::make_shared<persist::DirectoryStore>(L2.path()));
  persist::CacheDatabase Db(Tiered);
  auto Input = W.allSlotsInput(2);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());
  // Drop the local copy: the recorded run must fetch from L2, and the
  // log must remember the tier so replay charges the same fetch.
  ASSERT_TRUE(std::make_shared<persist::DirectoryStore>(L1.path())
                  ->clear()
                  .ok());

  RecordSpec Spec;
  Spec.Tiered = true;
  auto Rec = record(W, Input, Db, persist::PersistOptions(), Spec);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();
  ASSERT_FALSE(Rec->Caches.empty());
  bool SawL2Consume = false;
  for (const RecordedCache &C : Rec->Caches)
    if (C.Consumed &&
        static_cast<persist::CacheTier>(C.Tier) == persist::CacheTier::L2)
      SawL2Consume = true;
  EXPECT_TRUE(SawL2Consume);
  EXPECT_NE(Rec->Stats.PersistRemoteFetches, 0u);

  expectCleanReplay(*Rec);
  auto Verdict = replayDiff(*Rec);
  ASSERT_TRUE(Verdict.ok()) << Verdict.status().toString();
  EXPECT_EQ(*Verdict, "");
}

//===----------------------------------------------------------------------===//
// Quarantine evidence.
//===----------------------------------------------------------------------===//

TEST(ReplayQuarantine, RecordedQuarantineTravelsWithTheStoreAndReplays) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 0);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, Input, Db).ok());
  flipByteAt(soleCachePath(Dir.path()), 10); // Header: InvalidFormat.

  RecordSpec Spec;
  Spec.LogName = "evidence.pcrr";
  auto Rec = record(W, Input, Db, persist::PersistOptions(), Spec);
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();
  ASSERT_EQ(Rec->Quarantines.size(), 1u);
  EXPECT_EQ(Rec->Quarantines[0].Code,
            static_cast<uint8_t>(
                persist::QuarantineReasonCode::InvalidFormat));

  // The quarantine entry names the recording, and the serialized log
  // was attached next to the quarantined cache.
  auto Entries = Db.quarantined();
  ASSERT_TRUE(Entries.ok());
  ASSERT_EQ(Entries->size(), 1u);
  EXPECT_EQ(Entries->front().ReplayLog, "evidence.pcrr");
  auto Attached = Db.backend()->readQuarantineAttachment("evidence.pcrr");
  ASSERT_TRUE(Attached.ok()) << Attached.status().toString();
  auto Parsed = deserializeLog(*Attached);
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();

  // Replaying the attached evidence reproduces the identical verdict.
  auto Out = replayRun(*Parsed, ReplayOptions());
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(compareToRecording(*Parsed, *Out), "");
  ASSERT_EQ(Out->Quarantines.size(), 1u);
  EXPECT_EQ(Out->Quarantines[0].RefName, Rec->Quarantines[0].RefName);
  EXPECT_EQ(Out->Quarantines[0].Code, Rec->Quarantines[0].Code);
}
