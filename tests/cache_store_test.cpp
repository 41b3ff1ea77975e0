//===- tests/cache_store_test.cpp - storage layer: backends + publish -----===//
//
// The transactional CacheStore layer: backend-agnostic contract tests
// run against both DirectoryStore and MemoryStore, the generation-
// conflict merge rule, crash-injected write failures, advisory locks,
// and genuinely concurrent finalizers (threads over the in-memory
// backend, processes over the directory backend).
//
//===----------------------------------------------------------------------===//

#include "dbi/CostModel.h"
#include "persist/CacheDatabase.h"
#include "persist/DirectoryStore.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "support/FaultInjector.h"
#include "support/FileLock.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define PCC_TEST_HAVE_FORK 1
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

/// A valid single-module cache whose traces start at the given guest
/// addresses.
CacheFile makeFileWithStarts(std::initializer_list<uint32_t> Starts,
                             uint32_t Generation = 1,
                             uint64_t ModuleFullHash = 0x1111) {
  CacheFile File;
  File.EngineHash = dbi::engineVersionHash();
  File.ToolHash = noToolHash();
  File.Generation = Generation;
  ModuleKey Key;
  Key.Path = "/bin/x";
  Key.Base = 0x400000;
  Key.Size = 0x10000;
  Key.FullHash = ModuleFullHash;
  File.Modules.push_back(Key);
  for (uint32_t Start : Starts) {
    TraceRecord Trace;
    Trace.GuestStart = Start;
    Trace.GuestInstCount = 4;
    Trace.Code.assign(64, static_cast<uint8_t>(Start & 0xff));
    File.Traces.push_back(std::move(Trace));
  }
  return File;
}

std::set<uint32_t> startsOf(const CacheFile &File) {
  std::set<uint32_t> Starts;
  for (const TraceRecord &Trace : File.Traces)
    Starts.insert(Trace.GuestStart);
  return Starts;
}

} // namespace

//===----------------------------------------------------------------------===//
// Backend-agnostic contract, run against every storage backend: the two
// flat stores and the tiered store over both L1 flavors (a shared
// in-memory L2 behind a directory or in-memory L1).
//===----------------------------------------------------------------------===//

class CacheStoreTest : public ::testing::TestWithParam<const char *> {
protected:
  std::shared_ptr<CacheStore> makeStore() {
    std::string Kind = GetParam();
    if (Kind == "dir")
      return std::make_shared<DirectoryStore>(Dir.path() + "/store");
    if (Kind == "mem")
      return std::make_shared<MemoryStore>();
    std::shared_ptr<CacheStore> L1;
    if (Kind == "tier-dir")
      L1 = std::make_shared<DirectoryStore>(Dir.path() + "/l1");
    else
      L1 = std::make_shared<MemoryStore>("<l1>");
    return std::make_shared<TieredStore>(
        std::move(L1), std::make_shared<MemoryStore>("<remote>"));
  }
  TempDir Dir;
};

INSTANTIATE_TEST_SUITE_P(Backends, CacheStoreTest,
                         ::testing::Values("dir", "mem", "tier-dir",
                                           "tier-mem"));

TEST_P(CacheStoreTest, PutOpenLoadRetireRoundtrip) {
  auto Store = makeStore();
  EXPECT_FALSE(Store->exists(7));
  ASSERT_TRUE(Store->put(7, makeFileWithStarts({0x400000, 0x400040},
                                               /*Generation=*/3))
                  .ok());
  EXPECT_TRUE(Store->exists(7));

  auto Opened = Store->openKey(7, CacheFileView::Depth::Index);
  ASSERT_TRUE(Opened.ok()) << Opened.status().toString();
  EXPECT_EQ(Opened->generation(), 3u);
  EXPECT_EQ(Opened->engineHash(), dbi::engineVersionHash());

  auto Loaded = Store->loadKey(7);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(Loaded->Traces.size(), 2u);

  ASSERT_TRUE(Store->retire(7).ok());
  EXPECT_FALSE(Store->exists(7));
  EXPECT_EQ(Store->loadKey(7).status().code(), ErrorCode::NotFound);
  EXPECT_EQ(Store->openKey(7, CacheFileView::Depth::Index).status().code(),
            ErrorCode::NotFound);
}

TEST_P(CacheStoreTest, PublishWithoutConflictStoresAsGiven) {
  auto Store = makeStore();
  auto First = Store->publish(9, makeFileWithStarts({0x400000}),
                              /*BaseGeneration=*/0);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  EXPECT_FALSE(First->Merged);
  EXPECT_EQ(First->Generation, 1u);

  // The successor run primed from generation 1 and republishes: still
  // no conflict, caller's generation stands.
  auto Second =
      Store->publish(9, makeFileWithStarts({0x400000, 0x400040}, 2),
                     /*BaseGeneration=*/1);
  ASSERT_TRUE(Second.ok());
  EXPECT_FALSE(Second->Merged);
  EXPECT_EQ(Second->Generation, 2u);
  auto Loaded = Store->loadKey(9);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(Loaded->Generation, 2u);
  EXPECT_EQ(Loaded->Traces.size(), 2u);
}

TEST_P(CacheStoreTest, PublishConflictMergesBothWritersTraces) {
  auto Store = makeStore();
  // Writer A wins the slot.
  ASSERT_TRUE(
      Store->publish(5, makeFileWithStarts({0x400000, 0x400040}), 0)
          .ok());
  // Writer B — primed before A published (BaseGeneration 0) — brings
  // different traces. It must merge, not clobber.
  auto B = Store->publish(5, makeFileWithStarts({0x400080}), 0);
  ASSERT_TRUE(B.ok()) << B.status().toString();
  EXPECT_TRUE(B->Merged);
  EXPECT_EQ(B->Generation, 2u);

  auto Merged = Store->loadKey(5);
  ASSERT_TRUE(Merged.ok());
  EXPECT_EQ(Merged->Generation, 2u);
  EXPECT_EQ(startsOf(*Merged),
            (std::set<uint32_t>{0x400000, 0x400040, 0x400080}));
}

TEST_P(CacheStoreTest, PublishConflictDropsStaleWinnerModules) {
  auto Store = makeStore();
  // The winner persisted the module under a different key (stale
  // binary): its traces must not survive into the merge.
  ASSERT_TRUE(Store->publish(5,
                             makeFileWithStarts({0x400000}, 1,
                                                /*ModuleFullHash=*/0xAAAA),
                             0)
                  .ok());
  auto B = Store->publish(
      5, makeFileWithStarts({0x400080}, 1, /*ModuleFullHash=*/0xBBBB), 0);
  ASSERT_TRUE(B.ok());
  EXPECT_TRUE(B->Merged);

  auto Merged = Store->loadKey(5);
  ASSERT_TRUE(Merged.ok());
  EXPECT_EQ(startsOf(*Merged), (std::set<uint32_t>{0x400080}));
  ASSERT_EQ(Merged->Modules.size(), 1u);
  EXPECT_EQ(Merged->Modules[0].FullHash, 0xBBBBu);
}

TEST_P(CacheStoreTest, FindCompatibleFiltersOnBothHashes) {
  auto Store = makeStore();
  ASSERT_TRUE(Store->put(1, makeFileWithStarts({0x400000})).ok());
  CacheFile Alien = makeFileWithStarts({0x400000});
  Alien.EngineHash ^= 1;
  ASSERT_TRUE(Store->put(2, Alien).ok());

  auto Matches =
      Store->findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Matches.ok());
  ASSERT_EQ(Matches->size(), 1u);
  EXPECT_EQ(Matches->front(), Store->refFor(1));
}

TEST_P(CacheStoreTest, StatsAndShrinkFollowGenerationPolicy) {
  auto Store = makeStore();
  ASSERT_TRUE(
      Store->put(1, makeFileWithStarts({0x400000, 0x400040}, 1)).ok());
  ASSERT_TRUE(Store->put(2, makeFileWithStarts({0x400080}, 5)).ok());

  auto Stats = Store->stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 2u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  EXPECT_EQ(Stats->Traces, 3u);

  // Evicting down to one file's worth removes the lower generation.
  auto Removed = Store->shrinkTo(Stats->DiskBytes / 2);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 1u);
  EXPECT_FALSE(Store->exists(1));
  EXPECT_TRUE(Store->exists(2));

  ASSERT_TRUE(Store->clear().ok());
  auto After = Store->stats();
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After->CacheFiles, 0u);
}

TEST_P(CacheStoreTest, ConcurrentPublishersAllSurvive) {
  auto Store = makeStore();
  // Four finalizers of one key, all primed empty, racing. Every
  // trace set must survive the pile-up regardless of ordering.
  constexpr unsigned NumWriters = 4;
  std::vector<std::thread> Writers;
  for (unsigned I = 0; I != NumWriters; ++I)
    Writers.emplace_back([&Store, I] {
      uint32_t Start = 0x400000 + I * 0x100;
      auto R = Store->publish(
          3, makeFileWithStarts({Start, Start + 0x40}), 0);
      ASSERT_TRUE(R.ok()) << R.status().toString();
    });
  for (std::thread &W : Writers)
    W.join();

  auto Final = Store->loadKey(3);
  ASSERT_TRUE(Final.ok()) << Final.status().toString();
  EXPECT_EQ(Final->Traces.size(), 2u * NumWriters);
  std::set<uint32_t> Expect;
  for (unsigned I = 0; I != NumWriters; ++I) {
    Expect.insert(0x400000 + I * 0x100);
    Expect.insert(0x400000 + I * 0x100 + 0x40);
  }
  EXPECT_EQ(startsOf(*Final), Expect);
}

//===----------------------------------------------------------------------===//
// Full sessions over both backends.
//===----------------------------------------------------------------------===//

TEST_P(CacheStoreTest, SessionWarmRunWorksOverEitherBackend) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  CacheDatabase Db(makeStore());
  auto Input = W.allSlotsInput(2);

  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  EXPECT_FALSE(Cold->Prime.CacheFound);

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_GT(Warm->Prime.TracesInstalled, 0u);
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

TEST_P(CacheStoreTest, ConcurrentFinalizeMergesBothSessions) {
  // Two sessions of the same application prime before either
  // finalizes — the deterministic version of two processes racing.
  // Each runs a disjoint part of the workload; both finalize; the slot
  // must end up with the union.
  TinyWorkload W = makeTinyWorkload(4, 0);
  CacheDatabase Db(makeStore());
  auto InputA = W.input({{0, 2}, {1, 2}});
  auto InputB = W.input({{2, 2}, {3, 2}});

  auto MachineA = workloads::makeMachine(W.Registry, W.App, InputA);
  auto MachineB = workloads::makeMachine(W.Registry, W.App, InputB);
  ASSERT_TRUE(MachineA.ok());
  ASSERT_TRUE(MachineB.ok());
  dbi::Engine EngineA(*MachineA, nullptr, dbi::EngineOptions());
  dbi::Engine EngineB(*MachineB, nullptr, dbi::EngineOptions());
  PersistentSession SessionA(Db), SessionB(Db);

  auto PrimeA = SessionA.prime(EngineA);
  auto PrimeB = SessionB.prime(EngineB);
  ASSERT_TRUE(PrimeA.ok());
  ASSERT_TRUE(PrimeB.ok());
  EXPECT_FALSE(PrimeA->CacheFound);
  EXPECT_FALSE(PrimeB->CacheFound);
  ASSERT_EQ(SessionA.lookupKey(), SessionB.lookupKey());

  EngineA.run();
  EngineB.run();
  ASSERT_TRUE(SessionA.finalize(EngineA).ok());
  ASSERT_TRUE(SessionB.finalize(EngineB).ok());

  // The loser merged: generation 2, union of both sessions' traces.
  auto Merged = Db.load(SessionA.lookupKey());
  ASSERT_TRUE(Merged.ok()) << Merged.status().toString();
  EXPECT_EQ(Merged->Generation, 2u);

  // Replaying either input over the merged cache needs no translation.
  for (const auto *Input : {&InputA, &InputB}) {
    auto Replay =
        workloads::runPersistent(W.Registry, W.App, *Input, Db);
    ASSERT_TRUE(Replay.ok()) << Replay.status().toString();
    EXPECT_TRUE(Replay->Prime.CacheFound);
    EXPECT_EQ(Replay->Stats.TracesCompiled, 0u);
  }
}

//===----------------------------------------------------------------------===//
// TieredStore specifics: read-through, write-through, quarantine
// locality, the remote circuit breaker, and the L1 quota.
//===----------------------------------------------------------------------===//

namespace {

/// An in-memory L1 over an in-memory L2, with both tiers reachable.
struct TieredHarness {
  std::shared_ptr<MemoryStore> L1 =
      std::make_shared<MemoryStore>("<l1>");
  std::shared_ptr<MemoryStore> L2 =
      std::make_shared<MemoryStore>("<remote>");
  std::shared_ptr<TieredStore> Store;
  explicit TieredHarness(TieredOptions Opts = TieredOptions())
      : Store(std::make_shared<TieredStore>(L1, L2, Opts)) {}
};

} // namespace

TEST(TieredStoreTest, DefaultChargesMatchTheCostModel) {
  // TieredOptions defaults promise to mirror the engine cost model, so
  // a store built without one still charges honestly.
  dbi::CostModel Costs;
  TieredOptions Opts;
  EXPECT_EQ(Opts.RemoteFetchLatencyCycles, Costs.RemoteFetchLatencyCycles);
  EXPECT_EQ(Opts.RemoteFetchCyclesPerPage, Costs.RemoteFetchCyclesPerPage);
}

TEST(TieredStoreTest, ReadThroughFetchesFillsL1AndStampsTier) {
  TieredHarness H;
  // Published elsewhere in the fleet: only the shared tier has it.
  ASSERT_TRUE(H.L2->put(7, makeFileWithStarts({0x400000})).ok());
  EXPECT_TRUE(H.Store->exists(7));
  EXPECT_FALSE(H.L1->exists(7));

  auto First = H.Store->openKey(7, CacheFileView::Depth::Index);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  EXPECT_EQ(First->Tier, CacheTier::L2);
  EXPECT_GT(First->RemoteFetchBytes, 0u);
  EXPECT_GE(First->RemoteFetchCycles,
            H.Store->options().RemoteFetchLatencyCycles);
  EXPECT_TRUE(H.L1->exists(7)); // Read-through filled the local tier.

  auto Second = H.Store->openKey(7, CacheFileView::Depth::Index);
  ASSERT_TRUE(Second.ok());
  EXPECT_EQ(Second->Tier, CacheTier::L1);
  EXPECT_EQ(Second->RemoteFetchBytes, 0u);

  // loadKey reads through the same way.
  ASSERT_TRUE(H.L2->put(9, makeFileWithStarts({0x400040})).ok());
  auto Loaded = H.Store->loadKey(9);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  EXPECT_TRUE(H.L1->exists(9));

  auto Stats = H.Store->tieredStats();
  EXPECT_EQ(Stats.L1Hits, 1u);
  EXPECT_EQ(Stats.L2Hits, 2u);
  EXPECT_EQ(Stats.RemoteFetches, 2u);
  EXPECT_EQ(Stats.Misses, 0u);
  EXPECT_GT(Stats.ModeledRemoteCycles, 0u);
  EXPECT_FALSE(Stats.RemoteDisabled);

  // A key neither tier holds is a plain miss, not a failure.
  EXPECT_EQ(H.Store->openRef(H.Store->refFor(8), CacheFileView::Depth::Index)
                .status()
                .code(),
            ErrorCode::NotFound);
  EXPECT_EQ(H.Store->tieredStats().Misses, 1u);
  EXPECT_EQ(H.Store->tieredStats().RemoteFailures, 0u);
}

TEST(TieredStoreTest, WritesGoThroughToTheSharedTier) {
  TieredHarness H;
  ASSERT_TRUE(H.Store->put(4, makeFileWithStarts({0x400000})).ok());
  EXPECT_TRUE(H.L1->exists(4));
  EXPECT_TRUE(H.L2->exists(4));

  ASSERT_TRUE(H.Store->publish(5, makeFileWithStarts({0x400080}), 0).ok());
  EXPECT_TRUE(H.L1->exists(5));
  EXPECT_TRUE(H.L2->exists(5));

  auto Stats = H.Store->tieredStats();
  EXPECT_EQ(Stats.RemotePublishes, 2u);
  EXPECT_GT(Stats.RemotePublishBytes, 0u);

  // retire removes from both tiers.
  ASSERT_TRUE(H.Store->retire(4).ok());
  EXPECT_FALSE(H.L1->exists(4));
  EXPECT_FALSE(H.L2->exists(4));
}

TEST(TieredStoreTest, PublishConflictFillsTheMergeBackIntoL1) {
  // Two machines (private L1s, one shared L2) publish the same key:
  // the loser's merge must land in its own L1, and the winner's stale
  // copy refreshes through the normal read path once retired.
  auto L2 = std::make_shared<MemoryStore>("<remote>");
  TieredStore A(std::make_shared<MemoryStore>("<l1-a>"), L2);
  TieredStore B(std::make_shared<MemoryStore>("<l1-b>"), L2);

  ASSERT_TRUE(A.publish(5, makeFileWithStarts({0x400000}), 0).ok());
  auto R = B.publish(5, makeFileWithStarts({0x400080}), 0);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_TRUE(R->Merged);
  EXPECT_EQ(R->Generation, 2u);

  auto Local = B.l1().loadKey(5);
  ASSERT_TRUE(Local.ok());
  EXPECT_EQ(Local->Generation, 2u);
  EXPECT_EQ(startsOf(*Local), (std::set<uint32_t>{0x400000, 0x400080}));

  ASSERT_TRUE(A.l1().retire(5).ok());
  auto Refreshed = A.loadKey(5);
  ASSERT_TRUE(Refreshed.ok());
  EXPECT_EQ(Refreshed->Generation, 2u);
}

TEST(TieredStoreTest, FindCompatibleUnionsRemoteOnlyCandidates) {
  TieredHarness H;
  // One cache this machine already holds, one only the fleet has, and
  // one incompatible remote cache that must be filtered out.
  ASSERT_TRUE(H.Store->put(1, makeFileWithStarts({0x400000})).ok());
  ASSERT_TRUE(H.L2->put(2, makeFileWithStarts({0x400040})).ok());
  CacheFile Alien = makeFileWithStarts({0x400080});
  Alien.EngineHash ^= 1;
  ASSERT_TRUE(H.L2->put(3, Alien).ok());

  auto Matches =
      H.Store->findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Matches.ok()) << Matches.status().toString();
  ASSERT_EQ(Matches->size(), 2u);
  // Local candidates lead (no fetch needed to try them), remote-only
  // ones follow — all refs in L1's namespace.
  EXPECT_EQ((*Matches)[0], H.Store->refFor(1));
  EXPECT_EQ((*Matches)[1], H.Store->refFor(2));

  auto Opened =
      H.Store->openRef((*Matches)[1], CacheFileView::Depth::Index);
  ASSERT_TRUE(Opened.ok()) << Opened.status().toString();
  EXPECT_EQ(Opened->Tier, CacheTier::L2);
  EXPECT_TRUE(H.L1->exists(2));
}

TEST(TieredStoreTest, QuarantineIsLocalAndRoundTrips) {
  TempDir Dir;
  auto L1 = std::make_shared<DirectoryStore>(Dir.path() + "/l1");
  auto L2 = std::make_shared<MemoryStore>("<remote>");
  TieredStore Store(L1, L2);
  ASSERT_TRUE(Store.put(3, makeFileWithStarts({0x400000})).ok());

  // Quarantine is this machine's judgment: the local copy moves aside,
  // the fleet's copy is not ours to condemn.
  ASSERT_TRUE(Store.quarantineRef(Store.refFor(3), "operator").ok());
  EXPECT_FALSE(L1->exists(3));
  EXPECT_TRUE(L2->exists(3));

  auto Q = Store.quarantined();
  ASSERT_TRUE(Q.ok());
  ASSERT_EQ(Q->size(), 1u);
  ASSERT_TRUE(Store.restoreQuarantined((*Q)[0].Name).ok());
  EXPECT_TRUE(L1->exists(3));
  auto Empty = Store.quarantined();
  ASSERT_TRUE(Empty.ok());
  EXPECT_TRUE(Empty->empty());

  ASSERT_TRUE(Store.quarantineRef(Store.refFor(3), "again").ok());
  auto Purged = Store.purgeQuarantine();
  ASSERT_TRUE(Purged.ok());
  EXPECT_EQ(*Purged, 1u);
  // Purged locally — but still only a remote fetch away.
  EXPECT_TRUE(Store.exists(3));
}

TEST(TieredStoreTest, CorruptL1SelfHealsFromRemote) {
  TempDir Dir;
  auto L1 = std::make_shared<DirectoryStore>(Dir.path() + "/l1");
  auto L2 = std::make_shared<MemoryStore>("<remote>");
  TieredStore Store(L1, L2);
  ASSERT_TRUE(Store.put(7, makeFileWithStarts({0x400000})).ok());

  // Trash the local copy on disk; the remote copy stays healthy.
  std::vector<uint8_t> Garbage(32, 0x5a);
  ASSERT_TRUE(writeFileAtomic(Store.refFor(7), Garbage).ok());

  // The open quarantines the bad local file and reads through.
  auto Opened = Store.openKey(7, CacheFileView::Depth::Index);
  ASSERT_TRUE(Opened.ok()) << Opened.status().toString();
  EXPECT_EQ(Opened->Tier, CacheTier::L2);
  auto Q = Store.quarantined();
  ASSERT_TRUE(Q.ok());
  EXPECT_EQ(Q->size(), 1u);

  // The refetched healthy copy serves locally from now on.
  auto Again = Store.openKey(7, CacheFileView::Depth::Index);
  ASSERT_TRUE(Again.ok()) << Again.status().toString();
  EXPECT_EQ(Again->Tier, CacheTier::L1);
}

TEST(TieredStoreTest, RemoteIoFailuresOpenTheBreakerAndDegrade) {
  TempDir Dir;
  // L1 in memory (immune to injected filesystem faults), L2 on disk so
  // the process-global injector only ever hits the remote tier.
  auto L1 = std::make_shared<MemoryStore>("<l1>");
  auto L2 = std::make_shared<DirectoryStore>(Dir.path() + "/l2");
  TieredOptions Opts;
  Opts.RemoteBreakerThreshold = 3;
  TieredStore Store(L1, L2, Opts);
  ASSERT_TRUE(L2->put(7, makeFileWithStarts({0x400000})).ok());

  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::Read, 0, /*Times=*/1000);
  for (int I = 0; I != 3; ++I) {
    auto R = Store.openKey(7, CacheFileView::Depth::Index);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.status().code(), ErrorCode::IoError);
    EXPECT_EQ(Store.remoteDisabled(), I == 2) << "attempt " << I;
  }
  FaultInjector::instance().reset();

  // Breaker open: L1-only for the store's lifetime. The healthy remote
  // copy is invisible, but local work still lands (and stays local).
  EXPECT_FALSE(Store.exists(7));
  ASSERT_TRUE(Store.put(8, makeFileWithStarts({0x400040})).ok());
  EXPECT_TRUE(Store.exists(8));
  EXPECT_FALSE(L2->exists(8));
  auto Stats = Store.tieredStats();
  EXPECT_TRUE(Stats.RemoteDisabled);
  EXPECT_GE(Stats.RemoteFailures, 3u);
}

TEST(TieredStoreTest, SessionSurvivesRemoteOutage) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  auto L1 = std::make_shared<MemoryStore>("<l1>");
  auto L2 = std::make_shared<DirectoryStore>(Dir.path() + "/l2");
  auto Store = std::make_shared<TieredStore>(L1, L2);
  CacheDatabase Db(Store);
  auto Input = W.allSlotsInput(2);

  // The remote tier is down for the whole cold run: every write-through
  // is absorbed, the run succeeds, the cache lands in L1 regardless.
  FaultScope Faults;
  FaultInjector::instance().armProbability(FaultOp::Enospc, 1.0);
  FaultInjector::instance().armProbability(FaultOp::Read, 1.0);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  FaultInjector::instance().reset();

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_GT(Store->tieredStats().RemoteFailures, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

TEST(TieredStoreTest, ReadThroughServesFetchedBytesWhenL1FillFails) {
  // A local tier that cannot take the read-through fill (disk full)
  // must not cost the run its warm start: the fetched image is served
  // as-is, stamped L2 and charged the remote link.
  TinyWorkload W = makeTinyWorkload(3, 2);
  auto Input = W.allSlotsInput(2);
  auto L2 = std::make_shared<MemoryStore>("<remote>");
  CacheDatabase Publisher(std::make_shared<TieredStore>(
      std::make_shared<MemoryStore>("<l1-a>"), L2));
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Publisher);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  TempDir Dir;
  auto L1 = std::make_shared<DirectoryStore>(Dir.path() + "/l1");
  auto Store = std::make_shared<TieredStore>(L1, L2);
  CacheDatabase Db(Store);
  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;

  FaultScope Faults;
  FaultInjector::instance().armProbability(FaultOp::Enospc, 1.0);
  auto Warm =
      workloads::runPersistent(W.Registry, W.App, Input, Db, ReadOnly);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_GT(FaultInjector::instance().injectedCount(FaultOp::Enospc), 0u);
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_GT(Warm->Prime.TracesInstalled, 0u);
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_EQ(Warm->Stats.PersistL1Hits, 0u);
  EXPECT_EQ(Warm->Stats.PersistL2Hits, 1u);
  EXPECT_EQ(Warm->Stats.PersistRemoteFetches, 1u);
  EXPECT_GT(Warm->Stats.PersistRemoteBytes, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
  auto Local = L1->listRefs();
  ASSERT_TRUE(Local.ok());
  EXPECT_TRUE(Local->empty()) << "the failed fill must not land in L1";

  // The store-level open reports the same tier and charges.
  auto Opened =
      Store->openRef(Warm->Prime.CachePath, CacheFileView::Depth::Index);
  ASSERT_TRUE(Opened.ok()) << Opened.status().toString();
  EXPECT_EQ(Opened->Tier, CacheTier::L2);
  EXPECT_GT(Opened->RemoteFetchBytes, 0u);
  EXPECT_GE(Opened->RemoteFetchCycles,
            Store->options().RemoteFetchLatencyCycles);
}

TEST(TieredStoreTest, L1QuotaEvictsColdestLowestHeatFirst) {
  uint64_t OneFile = makeFileWithStarts({0x400000}).serializedSize();
  TieredOptions Opts;
  Opts.L1QuotaBytes = 2 * OneFile + OneFile / 2;
  TieredHarness H(Opts);

  // Key 1 is the oldest but hot (its traces earned heat); key 2 is
  // younger but stone cold.
  CacheFile Hot = makeFileWithStarts({0x400000});
  Hot.Traces[0].Heat = 64;
  ASSERT_TRUE(H.Store->put(1, Hot).ok());
  ASSERT_TRUE(H.Store->put(2, makeFileWithStarts({0x400040})).ok());
  ASSERT_TRUE(H.Store->put(3, makeFileWithStarts({0x400080})).ok());

  // The quota holds two files: the cold key went, age notwithstanding.
  EXPECT_TRUE(H.L1->exists(1));
  EXPECT_FALSE(H.L1->exists(2));
  EXPECT_TRUE(H.L1->exists(3));
  EXPECT_GE(H.Store->tieredStats().L1Evictions, 1u);

  // Evicted, not gone: the shared tier still serves it.
  EXPECT_TRUE(H.Store->exists(2));
  auto Back = H.Store->openKey(2, CacheFileView::Depth::Index);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->Tier, CacheTier::L2);
}

TEST(TieredStoreTest, FinalizersOnDifferentMachinesMergeThroughL2) {
  // The fleet version of ConcurrentFinalizeMergesBothSessions: two
  // machines with private L1s finalize the same key through one shared
  // L2; a third, empty machine then warm-starts from the merge.
  TinyWorkload W = makeTinyWorkload(4, 0);
  auto L2 = std::make_shared<MemoryStore>("<remote>");
  auto storeFor = [&L2](const char *Label) {
    return std::make_shared<TieredStore>(
        std::make_shared<MemoryStore>(Label), L2);
  };
  CacheDatabase DbA(storeFor("<l1-a>")), DbB(storeFor("<l1-b>"));
  auto InputA = W.input({{0, 2}, {1, 2}});
  auto InputB = W.input({{2, 2}, {3, 2}});

  auto MachineA = workloads::makeMachine(W.Registry, W.App, InputA);
  auto MachineB = workloads::makeMachine(W.Registry, W.App, InputB);
  ASSERT_TRUE(MachineA.ok());
  ASSERT_TRUE(MachineB.ok());
  dbi::Engine EngineA(*MachineA, nullptr, dbi::EngineOptions());
  dbi::Engine EngineB(*MachineB, nullptr, dbi::EngineOptions());
  PersistentSession SessionA(DbA), SessionB(DbB);

  auto PrimeA = SessionA.prime(EngineA);
  auto PrimeB = SessionB.prime(EngineB);
  ASSERT_TRUE(PrimeA.ok());
  ASSERT_TRUE(PrimeB.ok());
  EXPECT_FALSE(PrimeA->CacheFound);
  EXPECT_FALSE(PrimeB->CacheFound);
  ASSERT_EQ(SessionA.lookupKey(), SessionB.lookupKey());

  EngineA.run();
  EngineB.run();
  ASSERT_TRUE(SessionA.finalize(EngineA).ok());
  ASSERT_TRUE(SessionB.finalize(EngineB).ok());

  // The loser merged in the shared tier.
  auto Merged = L2->loadKey(SessionA.lookupKey());
  ASSERT_TRUE(Merged.ok()) << Merged.status().toString();
  EXPECT_EQ(Merged->Generation, 2u);

  for (const auto *Input : {&InputA, &InputB}) {
    CacheDatabase DbC(storeFor("<l1-c>"));
    auto Replay = workloads::runPersistent(W.Registry, W.App, *Input, DbC);
    ASSERT_TRUE(Replay.ok()) << Replay.status().toString();
    EXPECT_TRUE(Replay->Prime.CacheFound);
    EXPECT_EQ(Replay->Stats.TracesCompiled, 0u);
    EXPECT_GT(Replay->Stats.PersistL2Hits, 0u);
  }
}

#if PCC_TEST_HAVE_FORK
TEST(TieredStoreFork, ProcessFinalizersMergeThroughSharedL2) {
  // Two processes, each its own "machine" (private in-memory L1), race
  // disjoint halves of one workload through a shared on-disk L2.
  TinyWorkload W = makeTinyWorkload(4, 0);
  TempDir Dir;
  std::string L2Path = Dir.path() + "/l2";
  auto InputA = W.input({{0, 2}, {1, 2}});
  auto InputB = W.input({{2, 2}, {3, 2}});

  std::vector<pid_t> Children;
  for (const auto *Input : {&InputA, &InputB}) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      auto Store = std::make_shared<TieredStore>(
          std::make_shared<MemoryStore>("<l1>"),
          std::make_shared<DirectoryStore>(L2Path));
      CacheDatabase Db(Store);
      auto R = workloads::runPersistent(W.Registry, W.App, *Input, Db);
      _exit(R.ok() ? 0 : 1);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int WStatus = 0;
    ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
    ASSERT_TRUE(WIFEXITED(WStatus));
    EXPECT_EQ(WEXITSTATUS(WStatus), 0);
  }

  // The shared tier holds the merged union and stayed clean.
  DirectoryStore L2(L2Path);
  auto Stats = L2.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 1u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  auto Names = listDirectory(L2Path);
  ASSERT_TRUE(Names.ok());
  for (const std::string &Name : *Names)
    EXPECT_FALSE(isAtomicTempName(Name)) << Name;

  // A fresh machine warm-starts from the union, whichever input.
  for (const auto *Input : {&InputA, &InputB}) {
    auto Store = std::make_shared<TieredStore>(
        std::make_shared<MemoryStore>("<fresh>"),
        std::make_shared<DirectoryStore>(L2Path));
    CacheDatabase Db(Store);
    auto Replay = workloads::runPersistent(W.Registry, W.App, *Input, Db);
    ASSERT_TRUE(Replay.ok()) << Replay.status().toString();
    EXPECT_TRUE(Replay->Prime.CacheFound);
    EXPECT_EQ(Replay->Stats.TracesCompiled, 0u);
  }
}
#endif // PCC_TEST_HAVE_FORK

//===----------------------------------------------------------------------===//
// Directory-backend specifics: crash injection, locks, processes.
//===----------------------------------------------------------------------===//

TEST(DirectoryStoreCrash, FailedWriteLeavesSlotIntactAndNoTemp) {
  TempDir Dir;
  DirectoryStore Store(Dir.path());
  ASSERT_TRUE(Store.put(4, makeFileWithStarts({0x400000})).ok());

  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::ShortWrite);
  EXPECT_FALSE(
      Store.put(4, makeFileWithStarts({0x400000, 0x400040}, 2)).ok());

  // The slot still holds the previous cache and no temporary survived.
  auto Loaded = Store.loadKey(4);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(Loaded->Generation, 1u);
  EXPECT_EQ(Loaded->Traces.size(), 1u);
  auto Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  for (const std::string &Name : *Names)
    EXPECT_FALSE(isAtomicTempName(Name)) << Name;
}

TEST(DirectoryStoreCrash, CrashMidWriteLeavesDirectoryScannable) {
  TempDir Dir;
  DirectoryStore Store(Dir.path());
  ASSERT_TRUE(Store.put(4, makeFileWithStarts({0x400000})).ok());

  // Die halfway through writing the replacement: the orphaned
  // temporary must be invisible to every read path.
  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::TornWrite);
  EXPECT_FALSE(
      Store.put(4, makeFileWithStarts({0x400000, 0x400040}, 2)).ok());

  auto Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  unsigned Temps = 0;
  for (const std::string &Name : *Names)
    Temps += isAtomicTempName(Name) ? 1 : 0;
  EXPECT_EQ(Temps, 1u);

  auto Stats = Store.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 1u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  auto Loaded = Store.loadKey(4);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(Loaded->Generation, 1u);

  // Maintenance sweeps the orphan without touching live caches.
  auto Removed = Store.shrinkTo(UINT64_MAX);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 0u);
  Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  for (const std::string &Name : *Names)
    EXPECT_FALSE(isAtomicTempName(Name)) << Name;
  EXPECT_TRUE(Store.exists(4));
}

TEST(DirectoryStoreCrash, CrashDuringSessionFinalizePreservesPriorCache) {
  TinyWorkload W = makeTinyWorkload(3, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  // Every write-back attempt of the second run dies mid-stream. The
  // run itself still succeeds — persistence degrades, never the guest —
  // and the database keeps serving generation 1.
  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::TornWrite, 0,
                                     /*Times=*/100);
  auto Crashed = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Crashed.ok()) << Crashed.status().toString();
  EXPECT_NE(Crashed->Stats.PersistStoreFailures, 0u);
  FaultInjector::instance().reset();

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

TEST(DirectoryStoreCrash, TransientCrashIsRetriedAndPublishSucceeds) {
  TinyWorkload W = makeTinyWorkload(3, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  // Exactly one torn write: the cold run's first publish attempt dies,
  // the retry lands, and the database ends up warm as if nothing
  // happened.
  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::TornWrite);
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  EXPECT_NE(Cold->Stats.PersistStoreRetries, 0u);

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Stats.TracesCompiled, 0u);
}

TEST(DirectoryStoreLocks, LocksAreCreatedByPublishAndReported) {
  TempDir Dir;
  DirectoryStore Store(Dir.path());
  EXPECT_TRUE(Store.locks().empty());
  ASSERT_TRUE(Store.publish(6, makeFileWithStarts({0x400000}), 0).ok());

  auto Infos = Store.locks();
  ASSERT_EQ(Infos.size(), 2u); // store.lock + one per-key lock.
  for (const LockInfo &Info : Infos)
    EXPECT_FALSE(Info.Held) << Info.Path;

  // Lock files stay out of the cache directory proper: a legacy scan
  // over the store sees nothing but .pcc files.
  auto Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  EXPECT_EQ(Names->size(), 1u);

  // While someone holds the store lock exclusively, the report says so.
  auto Held = FileLock::acquire(Dir.path() + "/.locks/store.lock");
  ASSERT_TRUE(Held.ok());
  unsigned HeldCount = 0;
  for (const LockInfo &Info : Store.locks())
    HeldCount += Info.Held ? 1 : 0;
  EXPECT_EQ(HeldCount, 1u);
}

TEST(DirectoryStoreLocks, ClearKeepsLockFilesButRemovesCaches) {
  TempDir Dir;
  DirectoryStore Store(Dir.path());
  ASSERT_TRUE(Store.publish(6, makeFileWithStarts({0x400000}), 0).ok());
  ASSERT_TRUE(Store.clear().ok());
  EXPECT_FALSE(Store.exists(6));
  EXPECT_EQ(Store.locks().size(), 2u);
}

TEST(FileLockTest, ExclusiveConflictsAndWouldBlock) {
  TempDir Dir;
  std::string Path = Dir.path() + "/x.lock";
  auto First = FileLock::acquire(Path);
  ASSERT_TRUE(First.ok());
  EXPECT_TRUE(First->held());

  auto Second = FileLock::tryAcquire(Path);
#if PCC_TEST_HAVE_FORK
  // flock conflicts are per open-file-description, so a second open in
  // the same process contends like another process would.
  EXPECT_FALSE(Second.ok());
  EXPECT_EQ(Second.status().code(), ErrorCode::WouldBlock);
  EXPECT_TRUE(isFileLockHeld(Path));
#endif

  First->release();
  auto Third = FileLock::tryAcquire(Path);
  EXPECT_TRUE(Third.ok());
}

TEST(FileLockTest, SharedAdmitsSharedButNotExclusive) {
#if PCC_TEST_HAVE_FORK
  TempDir Dir;
  std::string Path = Dir.path() + "/x.lock";
  auto A = FileLock::acquire(Path, FileLock::Mode::Shared);
  ASSERT_TRUE(A.ok());
  auto B = FileLock::tryAcquire(Path, FileLock::Mode::Shared);
  EXPECT_TRUE(B.ok());
  auto C = FileLock::tryAcquire(Path, FileLock::Mode::Exclusive);
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.status().code(), ErrorCode::WouldBlock);
#endif
}

TEST(WriterTagTest, RoundTripsThroughV2HeaderAndView) {
  CacheFile File = makeFileWithStarts({0x400000});
  File.WriterTag = 0xBEEF;
  auto View = CacheFileView::open(File.serialize());
  ASSERT_TRUE(View.ok());
  EXPECT_EQ(View->writerTag(), 0xBEEFu);
  auto Back = CacheFile::deserialize(File.serialize());
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->WriterTag, 0xBEEFu);
}

TEST(WriterTagTest, FinalizeTagsTheCacheWithThisProcess) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto R = workloads::runPersistent(W.Registry, W.App,
                                    W.allSlotsInput(2), Db);
  ASSERT_TRUE(R.ok());

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  std::string CachePath;
  for (const std::string &Name : *Files)
    if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc")
      CachePath = Dir.path() + "/" + Name;
  ASSERT_FALSE(CachePath.empty());
  auto View = CacheFileView::openFile(CachePath,
                                      CacheFileView::Depth::HeaderOnly);
  ASSERT_TRUE(View.ok());
  EXPECT_EQ(View->writerTag(),
            static_cast<uint16_t>(currentProcessId() & 0xffff));
}

#if PCC_TEST_HAVE_FORK
TEST(DirectoryStoreFork, ConcurrentProcessFinalizersMerge) {
  // The real thing: two processes run the same application against the
  // same database directory at the same time, each exercising a
  // disjoint part of it. Whatever the interleaving, both sets of
  // translations must survive and the directory must stay clean.
  TinyWorkload W = makeTinyWorkload(4, 0);
  TempDir Dir;
  auto InputA = W.input({{0, 2}, {1, 2}});
  auto InputB = W.input({{2, 2}, {3, 2}});

  std::vector<pid_t> Children;
  for (const auto *Input : {&InputA, &InputB}) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      CacheDatabase Db(Dir.path());
      auto R =
          workloads::runPersistent(W.Registry, W.App, *Input, Db);
      _exit(R.ok() ? 0 : 1);
    }
    Children.push_back(Pid);
  }
  for (pid_t Pid : Children) {
    int WStatus = 0;
    ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
    ASSERT_TRUE(WIFEXITED(WStatus));
    EXPECT_EQ(WEXITSTATUS(WStatus), 0);
  }

  CacheDatabase Db(Dir.path());
  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 1u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  auto Names = listDirectory(Dir.path());
  ASSERT_TRUE(Names.ok());
  for (const std::string &Name : *Names)
    EXPECT_FALSE(isAtomicTempName(Name)) << Name;

  // Whichever way the race went, exactly two finalizes advanced the
  // slot to generation 2...
  auto Files = Db.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  auto Final = Db.loadPath(Files->front());
  ASSERT_TRUE(Final.ok());
  EXPECT_EQ(Final->Generation, 2u);

  // ...and the union serves both inputs translation-free.
  for (const auto *Input : {&InputA, &InputB}) {
    auto Replay =
        workloads::runPersistent(W.Registry, W.App, *Input, Db);
    ASSERT_TRUE(Replay.ok()) << Replay.status().toString();
    EXPECT_TRUE(Replay->Prime.CacheFound);
    EXPECT_EQ(Replay->Stats.TracesCompiled, 0u);
  }
}
#endif // PCC_TEST_HAVE_FORK
