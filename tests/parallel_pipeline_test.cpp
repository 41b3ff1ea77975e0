//===- tests/parallel_pipeline_test.cpp - concurrency suite ---------------===//
//
// The parallel persistence pipeline: ThreadPool semantics, the
// TraceInstallQueue worker/engine hand-off, determinism of async prime
// across worker counts (EngineStats must be bit-identical for --jobs
// 1/4/16, bad payloads included), fault-injected publishes from
// sessions that own a pool, and the parallel maintenance scans
// (checkDatabase, findCompatible, stats) against their serial
// baselines.
//
// Built as its own CTest executable (parallel_pipeline_test) so the
// soak modes of scripts/check.sh can run exactly this binary under
// TSan; its tests register in the default ctest tier like any other.
//
//===----------------------------------------------------------------------===//

#include "dbi/InstallQueue.h"
#include "persist/CacheDatabase.h"
#include "persist/DbCheck.h"
#include "persist/DirectoryStore.h"
#include "persist/Session.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/ThreadPool.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace pcc;
using namespace pcc::persist;
using tests::expectStatsEqual;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

//===----------------------------------------------------------------------===//
// ThreadPool semantics.
//===----------------------------------------------------------------------===//

TEST(ThreadPool, SubmitRunsEveryTask) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.waitAll();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInlineAtSubmit) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), 0u);
  std::thread::id Runner;
  Pool.submit([&Runner] { Runner = std::this_thread::get_id(); });
  EXPECT_EQ(Runner, std::this_thread::get_id());
  Pool.waitAll(); // Trivially satisfied; must not hang.
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  support::ThreadPool Pool(3);
  std::vector<std::atomic<int>> Hits(257);
  Pool.parallelFor(Hits.size(),
                   [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ParallelForHandlesEdgeSizes) {
  support::ThreadPool Pool(4);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, [&Count](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 0);
  Pool.parallelFor(1, [&Count](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 1);
  // Zero workers: the calling thread drains every index itself.
  support::ThreadPool Inline(0);
  std::vector<int> Order;
  Inline.parallelFor(5, [&Order](size_t I) {
    Order.push_back(static_cast<int>(I));
  });
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForProgressesWhileWorkersAreBusy) {
  // All workers blocked on long tasks: parallelFor must still finish,
  // because the calling thread participates in draining indices.
  support::ThreadPool Pool(2);
  std::atomic<bool> Release{false};
  for (int I = 0; I < 2; ++I)
    Pool.submit([&Release] {
      while (!Release.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  std::atomic<int> Count{0};
  Pool.parallelFor(50, [&Count](size_t) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 50);
  Release.store(true);
  Pool.waitAll();
}

TEST(ThreadPool, BackgroundModeDrainsAndReportsDemotions) {
  support::ThreadPool Pool(4, /*Background=*/true);
  EXPECT_EQ(Pool.workerCount(), 4u);
  // Demotion is best-effort (platform- and privilege-dependent), but
  // no more workers than exist can claim it.
  EXPECT_LE(Pool.backgroundWorkerCount(), Pool.workerCount());

  // Demoted workers still drain everything...
  std::atomic<int> Count{0};
  for (int I = 0; I < 200; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.waitAll();
  EXPECT_EQ(Count.load(), 200);

  // ...and parallelFor, with the (non-demoted) caller participating,
  // covers every index exactly once.
  std::vector<std::atomic<int>> Hits(97);
  Pool.parallelFor(Hits.size(),
                   [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;

#ifdef __linux__
  // setpriority(PRIO_PROCESS, tid, 19) needs no privilege: on Linux
  // every worker must demote itself. Workers record the demotion at
  // thread entry, asynchronously with the constructor, so allow them a
  // bounded moment to get there.
  for (int Spin = 0; Spin < 5000 &&
                     Pool.backgroundWorkerCount() < Pool.workerCount();
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(Pool.backgroundWorkerCount(), Pool.workerCount());
#endif
}

TEST(ThreadPool, BackgroundZeroWorkersNeverDemotesTheCaller) {
  // Inline mode + background must not touch the calling thread's
  // priority: the count stays zero and submit still runs inline.
  support::ThreadPool Pool(0, /*Background=*/true);
  EXPECT_EQ(Pool.backgroundWorkerCount(), 0u);
  std::thread::id Runner;
  Pool.submit([&Runner] { Runner = std::this_thread::get_id(); });
  EXPECT_EQ(Runner, std::this_thread::get_id());
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> Count{0};
  {
    support::ThreadPool Pool(2);
    for (int I = 0; I < 40; ++I)
      Pool.submit([&Count] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Count.fetch_add(1);
      });
  }
  EXPECT_EQ(Count.load(), 40);
}

//===----------------------------------------------------------------------===//
// TraceInstallQueue hand-off protocol.
//===----------------------------------------------------------------------===//

namespace {

dbi::ReadyTrace makeReady(uint32_t Slot) {
  dbi::ReadyTrace R;
  R.Slot = Slot;
  R.CrcOk = true;
  return R;
}

std::vector<dbi::ReadyTrace> makeReadyChunk(std::vector<uint32_t> Slots) {
  std::vector<dbi::ReadyTrace> Out;
  for (uint32_t Slot : Slots)
    Out.push_back(makeReady(Slot));
  return Out;
}

} // namespace

TEST(TraceInstallQueue, TakeForWithdrawsUnclaimedJobs) {
  dbi::TraceInstallQueue Q;
  std::atomic<int> Ran{0};
  Q.addJob([&Ran] {
    Ran.fetch_add(1);
    return makeReadyChunk({0});
  });
  // Unclaimed: the engine withdraws the job and validates inline — the
  // job function must never run afterwards.
  EXPECT_TRUE(Q.takeFor(0).empty());
  EXPECT_FALSE(Q.runNextJob());
  EXPECT_EQ(Ran.load(), 0);
  // And the result slot stays consumed.
  EXPECT_TRUE(Q.takeFor(0).empty());
}

TEST(TraceInstallQueue, TakeForReturnsPublishedResultOnce) {
  dbi::TraceInstallQueue Q;
  Q.addJob([] { return makeReadyChunk({0}); });
  EXPECT_TRUE(Q.runNextJob());
  auto R = Q.takeFor(0);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Slot, 0u);
  EXPECT_TRUE(R[0].CrcOk);
  EXPECT_TRUE(Q.takeFor(0).empty());
  // Never existed: past the last job's chunk.
  EXPECT_TRUE(Q.takeFor(dbi::PayloadChunkSlots).empty());
}

TEST(TraceInstallQueue, TakeForReturnsWholeChunkForAnyMember) {
  dbi::TraceInstallQueue Q;
  Q.addJob([] { return makeReadyChunk({0, 1, 2}); });
  EXPECT_EQ(Q.jobCount(), 1u);
  EXPECT_TRUE(Q.runNextJob());
  // Asking for any chunk member hands over the whole published chunk —
  // the engine stashes the mates for their own first executions.
  auto R = Q.takeFor(1);
  ASSERT_EQ(R.size(), 3u);
  EXPECT_EQ(R[0].Slot, 0u);
  EXPECT_EQ(R[1].Slot, 1u);
  EXPECT_EQ(R[2].Slot, 2u);
  // The chunk is consumed as a unit.
  EXPECT_TRUE(Q.takeFor(0).empty());
  EXPECT_TRUE(Q.takeFor(2).empty());
}

TEST(TraceInstallQueue, TakeForNeverBlocksOnAnInFlightJob) {
  dbi::TraceInstallQueue Q;
  std::atomic<bool> Entered{false};
  std::atomic<bool> Release{false};
  Q.addJob([&Entered, &Release] {
    Entered.store(true);
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    return makeReadyChunk({0});
  });
  std::thread Worker([&Q] { Q.runNextJob(); });
  while (!Entered.load())
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  // The job is claimed and its worker deliberately stuck: takeFor must
  // return empty instead of waiting (the engine validates inline; a
  // background-priority worker must never be able to stall the run).
  EXPECT_TRUE(Q.takeFor(0).empty());
  Release.store(true);
  Worker.join();
  // The late result still publishes; a chunk-mate's first execution
  // would take it, and the engine drops the entry of the
  // already-materialized trace.
  auto Ready = Q.takeFor(0);
  ASSERT_EQ(Ready.size(), 1u);
  EXPECT_EQ(Ready[0].Slot, 0u);
}

TEST(TraceInstallQueue, CancelPendingStopsWorkersAndQuiesces) {
  dbi::TraceInstallQueue Q;
  std::atomic<int> Ran{0};
  for (uint32_t Job = 0; Job < 8; ++Job)
    Q.addJob([&Ran, Job] {
      Ran.fetch_add(1);
      return makeReadyChunk({Job * dbi::PayloadChunkSlots});
    });
  Q.cancelPending();
  EXPECT_FALSE(Q.runNextJob());
  Q.waitInFlight(); // Nothing in flight: returns immediately.
  EXPECT_EQ(Ran.load(), 0);
  EXPECT_TRUE(Q.takeFor(0).empty());
}

//===----------------------------------------------------------------------===//
// Async prime determinism: EngineStats bit-identical across job counts.
//===----------------------------------------------------------------------===//

namespace {

/// One warm persistent run of \p W against a database primed by a cold
/// run, with \p Workers pipeline threads (0 = fully synchronous).
ErrorOr<PersistentRunResult>
warmRunWithWorkers(const TinyWorkload &W, const std::vector<uint8_t> &Input,
                   size_t Workers, bool Pic = false, uint64_t AslrSeed = 0,
                   uint64_t WarmAslrSeed = 0) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  loader::BasePolicy Policy = (AslrSeed || WarmAslrSeed)
                                  ? loader::BasePolicy::Randomized
                                  : loader::BasePolicy::Fixed;
  PersistOptions ColdOpts;
  ColdOpts.PositionIndependent = Pic;
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                       ColdOpts, nullptr,
                                       dbi::EngineOptions(), Policy,
                                       AslrSeed);
  if (!Cold)
    return Cold.status();

  std::unique_ptr<support::ThreadPool> Pool;
  PersistOptions WarmOpts;
  WarmOpts.PositionIndependent = Pic;
  if (Workers > 0) {
    Pool = std::make_unique<support::ThreadPool>(Workers);
    WarmOpts.Pool = Pool.get();
  }
  return workloads::runPersistent(W.Registry, W.App, Input, Db, WarmOpts,
                                  nullptr, dbi::EngineOptions(), Policy,
                                  WarmAslrSeed);
}

} // namespace

TEST(AsyncPrime, StatsBitIdenticalAcrossWorkerCounts) {
  TinyWorkload W = makeTinyWorkload(6, 3);
  auto Input = W.allSlotsInput(3);

  auto Jobs1 = warmRunWithWorkers(W, Input, 0);
  ASSERT_TRUE(Jobs1.ok()) << Jobs1.status().toString();
  EXPECT_TRUE(Jobs1->Prime.CacheFound);
  EXPECT_GT(Jobs1->Stats.TracesReused, 0u);
  EXPECT_EQ(Jobs1->Prime.PayloadJobsQueued, 0u);

  for (size_t Workers : {4u, 16u}) {
    auto JobsN = warmRunWithWorkers(W, Input, Workers);
    ASSERT_TRUE(JobsN.ok()) << JobsN.status().toString();
    EXPECT_TRUE(JobsN->Prime.CacheFound);
    EXPECT_GT(JobsN->Prime.PayloadJobsQueued, 0u);
    std::string Label = "workers=" + std::to_string(Workers);
    EXPECT_TRUE(Jobs1->Run.observablyEquals(JobsN->Run)) << Label;
    expectStatsEqual(Jobs1->Stats, JobsN->Stats, Label);
    EXPECT_EQ(Jobs1->Prime.TracesInstalled, JobsN->Prime.TracesInstalled)
        << Label;
    EXPECT_EQ(Jobs1->Prime.LinksRestored, JobsN->Prime.LinksRestored)
        << Label;
  }
}

TEST(AsyncPrime, StatsBitIdenticalUnderPicRebase) {
  // Different warm-run library base: every payload job carries a
  // non-zero rebase delta, exercising the worker-side immediate rebase
  // against the engine's inline one.
  TinyWorkload W = makeTinyWorkload(4, 4);
  auto Input = W.allSlotsInput(2);

  auto Jobs1 = warmRunWithWorkers(W, Input, 0, /*Pic=*/true,
                                  /*AslrSeed=*/7, /*WarmAslrSeed=*/99);
  ASSERT_TRUE(Jobs1.ok()) << Jobs1.status().toString();
  EXPECT_TRUE(Jobs1->Prime.CacheFound);

  auto Jobs8 = warmRunWithWorkers(W, Input, 8, /*Pic=*/true,
                                  /*AslrSeed=*/7, /*WarmAslrSeed=*/99);
  ASSERT_TRUE(Jobs8.ok()) << Jobs8.status().toString();
  EXPECT_TRUE(Jobs1->Run.observablyEquals(Jobs8->Run));
  expectStatsEqual(Jobs1->Stats, Jobs8->Stats, "pic-rebase");
}

namespace {

/// The only cache file in \p Dir.
std::string onlyCacheFile(const std::string &Dir) {
  auto Names = listDirectory(Dir);
  std::string Found;
  if (Names)
    for (const std::string &Name : *Names)
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc") {
        EXPECT_TRUE(Found.empty()) << "more than one cache file";
        Found = Dir + "/" + Name;
      }
  EXPECT_FALSE(Found.empty()) << "no cache file in " << Dir;
  return Found;
}

/// A warm run of \p W from \p Db driven through the session API. With
/// workers, the pool finishes every payload chunk before the run
/// starts, so each first execution consumes a worker's ReadyTrace.
ErrorOr<PersistentRunResult>
warmRunAfterJobsPublish(const TinyWorkload &W,
                        const std::vector<uint8_t> &Input,
                        const CacheDatabase &Db, size_t Workers) {
  auto M = workloads::makeMachine(W.Registry, W.App, Input);
  if (!M)
    return M.status();
  support::ThreadPool Pool(Workers);
  PersistOptions Opts;
  Opts.Pool = &Pool;
  dbi::Engine Engine(*M, nullptr);
  PersistentSession Session(Db, Opts);
  auto Prime = Session.prime(Engine);
  if (!Prime)
    return Prime.status();
  Pool.waitAll();
  PersistentRunResult Result;
  Result.Prime = Prime.take();
  Result.Run = Engine.run();
  Status Finalized = Session.finalize(Engine);
  if (!Finalized.ok())
    return Finalized;
  Result.Stats = Engine.stats();
  return Result;
}

} // namespace

TEST(AsyncPrime, BadPayloadsDropIdenticallyAcrossWorkerCounts) {
  TinyWorkload W = makeTinyWorkload(6, 3);
  auto Input = W.allSlotsInput(3);
  // One kind of damage per ReadyTrace failure branch.
  const std::pair<std::string, std::function<void(const std::string &)>>
      Damages[] = {
          {"payload byte flipped on disk (CRC mismatch)",
           [](const std::string &Path) {
             // The payload section offset is the u32 at header byte 56;
             // the hottest trace's image comes first. Flip the low byte
             // of its first immediate: the body still decodes, so only
             // the CRC can catch the damage.
             auto Bytes = readFile(Path);
             ASSERT_TRUE(Bytes.ok());
             uint32_t Off = 0;
             for (unsigned I = 0; I != 4; ++I)
               Off |= static_cast<uint32_t>((*Bytes)[56 + I]) << (8 * I);
             Off += dbi::TracePrologueBytes + 4;
             ASSERT_LT(Off, Bytes->size());
             (*Bytes)[Off] ^= 0xff;
             ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());
           }},
          {"out-of-range opcode behind valid CRCs (decode error)",
           [](const std::string &Path) {
             auto Bytes = readFile(Path);
             ASSERT_TRUE(Bytes.ok());
             auto File = CacheFile::deserialize(*Bytes);
             ASSERT_TRUE(File.ok());
             ASSERT_FALSE(File->Traces.empty());
             File->Traces.front().Code[dbi::TracePrologueBytes] = 0xff;
             ASSERT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
           }},
      };
  for (const auto &[Label, Damage] : Damages) {
    std::vector<PersistentRunResult> Runs;
    for (size_t Workers : {0u, 4u}) {
      TempDir Dir;
      CacheDatabase Db(Dir.path());
      ASSERT_TRUE(
          workloads::runPersistent(W.Registry, W.App, Input, Db).ok());
      Damage(onlyCacheFile(Dir.path()));
      auto Warm = warmRunAfterJobsPublish(W, Input, Db, Workers);
      ASSERT_TRUE(Warm.ok()) << Label << ": " << Warm.status().toString();
      EXPECT_EQ(Warm->Prime.PayloadJobsQueued > 0, Workers > 0) << Label;
      Runs.push_back(Warm.take());
    }
    EXPECT_GT(Runs[0].Stats.TracesDroppedCorrupt, 0u) << Label;
    EXPECT_EQ(Runs[0].Stats.TracesDroppedCorrupt,
              Runs[1].Stats.TracesDroppedCorrupt)
        << Label;
    EXPECT_TRUE(Runs[0].Run.observablyEquals(Runs[1].Run)) << Label;
    expectStatsEqual(Runs[0].Stats, Runs[1].Stats, Label);
  }
}

namespace {

/// A warm run plus what the engine still holds for unexecuted traces.
struct HandQueueRun {
  vm::RunResult Run;
  dbi::EngineStats Stats;
  dbi::ScheduleStats Sched;
  size_t Retained = 0; ///< Published results held for chunk-mates.
  size_t Awaiting = 0; ///< Plan slots never materialized.
};

/// A warm run of \p W over \p Input from \p Db. With \p UseQueue, one
/// hand-driven job covers the whole plan and is claimed by a worker that
/// stays in flight until the first materialization, which then waits
/// for the publish: the first persisted trace validates inline while
/// its chunk is Claimed, and the next first execution takes the
/// published chunk, the first trace's result included.
HandQueueRun runClaimedThenPublished(const TinyWorkload &W,
                                     const std::vector<uint8_t> &Input,
                                     const CacheDatabase &Db,
                                     bool UseQueue) {
  HandQueueRun Out;
  auto M = workloads::makeMachine(W.Registry, W.App, Input);
  EXPECT_TRUE(M.ok());
  dbi::Engine Engine(*M, nullptr);
  PersistOptions Opts;
  Opts.WriteBack = false;
  PersistentSession Session(Db, Opts);
  auto Prime = Session.prime(Engine);
  EXPECT_TRUE(Prime.ok() && Prime->CacheFound);
  dbi::CodeCache &Cache = Engine.cache();
  const uint32_t Slots = Cache.planSlots();
  EXPECT_GT(Slots, 2u);
  EXPECT_LE(Slots, dbi::PayloadChunkSlots) << "the job covers one chunk";
  // The job's results, computed up front from the built slots (building
  // charges nothing).
  Cache.completeDeferredInstalls();
  std::vector<dbi::ReadyTrace> Results;
  for (uint32_t S = 0; S != Slots; ++S) {
    const dbi::TranslatedTrace *T = Cache.traces()[S].get();
    Results.push_back(dbi::validatePersistedPayload(
        S, T->guestInstCount(), Cache.codeAt(T->poolOffset()),
        T->poolBytes(), *T->persistedPayload()));
  }
  auto Q = std::make_shared<dbi::TraceInstallQueue>();
  std::atomic<bool> Entered{false};
  std::atomic<bool> Release{false};
  std::thread Worker;
  if (UseQueue) {
    Q->addJob([&Entered, &Release, &Results] {
      Entered.store(true);
      while (!Release.load())
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      return Results;
    });
    Worker = std::thread([Q] { Q->runNextJob(); });
    while (!Entered.load())
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    Engine.setInstallQueue(Q);
  }
  bool Released = !UseQueue;
  Engine.setMaterializeValidator(
      [&Released, &Release, Q](const dbi::TranslatedTrace &,
                               const std::vector<isa::Instruction> &,
                               dbi::EngineStats &) {
        if (!Released) {
          Released = true;
          Release.store(true);
          Q->waitInFlight();
        }
        return Status::success();
      });
  Out.Run = Engine.run();
  if (Worker.joinable())
    Worker.join();
  Out.Stats = Engine.stats();
  Out.Sched = Q->scheduleStats();
  Out.Retained = Engine.prevalidatedResults();
  for (uint32_t S = 0; S != Slots; ++S)
    Out.Awaiting += !Cache.traces()[S]->isMaterialized();
  return Out;
}

} // namespace

TEST(AsyncPrime, ClaimedThenPublishedChunkKeepsNoStaleResults) {
  TinyWorkload W = makeTinyWorkload(6, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(
      workloads::runPersistent(W.Registry, W.App, W.allSlotsInput(2), Db)
          .ok());
  // The warm run reaches only some of the persisted traces.
  const std::vector<uint8_t> Input =
      W.input({{0, 2}, {4, 1}, {7, 1}});

  HandQueueRun Inline = runClaimedThenPublished(W, Input, Db, false);
  HandQueueRun Queued = runClaimedThenPublished(W, Input, Db, true);
  EXPECT_EQ(Queued.Sched.ChunksInFlightSkipped, 1u);
  EXPECT_EQ(Queued.Sched.ChunksPublished, 1u);
  // The taken chunk carried the result of the trace materialized while
  // it was in flight; only results of slots still awaiting their first
  // execution may stay behind.
  EXPECT_GT(Queued.Awaiting, 0u);
  EXPECT_EQ(Queued.Retained, Queued.Awaiting);
  EXPECT_EQ(Inline.Retained, 0u);
  EXPECT_TRUE(Inline.Run.observablyEquals(Queued.Run));
  expectStatsEqual(Inline.Stats, Queued.Stats, "claimed then published");
}

//===----------------------------------------------------------------------===//
// Finalize in a session that owns a worker pool: fault injection, and
// the publish happening before finalize() returns.
//===----------------------------------------------------------------------===//

TEST(FinalizeWithPool, PublishLandsAndNextRunPrimesFromIt) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  support::ThreadPool Pool(4);
  PersistOptions Opts;
  Opts.Pool = &Pool;
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_GT(Warm->Stats.TracesReused, 0u);
}

TEST(FinalizeWithPool, BreakerDegradesAsWithoutAPool) {
  TinyWorkload W = makeTinyWorkload(3, 0);
  auto Input = W.allSlotsInput(2);

  // Baseline without a pool under a deterministic always-fail plan.
  dbi::EngineStats SyncStats;
  {
    TempDir Dir;
    CacheDatabase Db(Dir.path());
    FaultScope Scope;
    FaultInjector::instance().armProbability(FaultOp::Enospc, 1.0);
    auto R = workloads::runPersistent(W.Registry, W.App, Input, Db);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_TRUE(R->Stats.PersistDegraded);
    SyncStats = R->Stats;
  }
  // Same plan with a pool: the degradation, its reason and the failure
  // counts must be recorded identically.
  {
    TempDir Dir;
    CacheDatabase Db(Dir.path());
    support::ThreadPool Pool(4);
    FaultScope Scope;
    FaultInjector::instance().armProbability(FaultOp::Enospc, 1.0);
    PersistOptions Opts;
    Opts.Pool = &Pool;
    auto R = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_TRUE(R->Stats.PersistDegraded);
    EXPECT_EQ(R->Stats.PersistStoreFailures,
              SyncStats.PersistStoreFailures);
    // The reason embeds the per-run temp path, so compare the stable
    // part: both runs failed on the same injected error.
    EXPECT_NE(R->Stats.PersistDegradeReason.find("no space left"),
              std::string::npos)
        << R->Stats.PersistDegradeReason;
  }
}

TEST(FinalizeWithPool, FailFastReturnsTheStoreErrorFromFinalize) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  support::ThreadPool Pool(2);
  auto M = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput(1));
  ASSERT_TRUE(M.ok()) << M.status().toString();
  dbi::Engine Engine(*M, nullptr);
  PersistOptions Opts;
  Opts.FailFast = true;
  Opts.Pool = &Pool;
  PersistentSession Session(Db, Opts);
  ASSERT_TRUE(Session.prime(Engine).ok());
  Engine.run();

  FaultScope Scope;
  FaultInjector::instance().armProbability(FaultOp::Enospc, 1.0);
  // The publish runs inside finalize(), pool or not: the store error is
  // finalize()'s own result, and wait() has nothing left to report.
  Status Finalized = Session.finalize(Engine);
  EXPECT_EQ(Finalized.code(), ErrorCode::IoError) << Finalized.toString();
  EXPECT_TRUE(Session.wait(&Engine.stats()).ok());
}

//===----------------------------------------------------------------------===//
// Parallel maintenance: identical reports at any worker count.
//===----------------------------------------------------------------------===//

namespace {

/// A TinyWorkload under a distinct app identity, so each populates its
/// own cache slot.
TinyWorkload makeNamedWorkload(const std::string &Name, uint64_t Seed) {
  TinyWorkload W;
  W.NumLocal = 3;
  workloads::AppDef Def;
  Def.Name = Name;
  Def.Path = "/bin/" + Name;
  for (uint32_t I = 0; I != W.NumLocal; ++I) {
    workloads::RegionDef Region;
    Region.Name = "local" + std::to_string(I);
    Region.Blocks = 4;
    Region.InstsPerBlock = 8;
    Region.Seed = Seed + I;
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Region)));
  }
  W.App = workloads::buildExecutable(Def);
  return W;
}

/// Populates \p Dir with several caches (distinct apps), one of them
/// payload-corrupt.
void populateDatabase(const std::string &Dir) {
  CacheDatabase Db(Dir);
  for (uint64_t Seed : {1u, 2u, 3u, 4u}) {
    TinyWorkload W =
        makeNamedWorkload("app" + std::to_string(Seed), Seed * 10);
    auto R = workloads::runPersistent(W.Registry, W.App,
                                      W.allSlotsInput(1), Db);
    ASSERT_TRUE(R.ok()) << R.status().toString();
  }
  // Flip a byte near the end of one file: payload damage that header
  // and index scans miss but the deep check catches.
  auto Names = listDirectory(Dir);
  ASSERT_TRUE(Names.ok());
  for (const std::string &Name : *Names)
    if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc") {
      auto Bytes = readFile(Dir + "/" + Name);
      ASSERT_TRUE(Bytes.ok());
      ASSERT_GT(Bytes->size(), 200u);
      (*Bytes)[Bytes->size() / 2] ^= 0xff;
      ASSERT_TRUE(writeFileAtomic(Dir + "/" + Name, *Bytes).ok());
      break;
    }
}

} // namespace

TEST(ParallelMaintenance, CheckDatabaseReportMatchesSerial) {
  TempDir Dir;
  populateDatabase(Dir.path());

  auto Serial = checkDatabase(Dir.path());
  ASSERT_TRUE(Serial.ok()) << Serial.status().toString();
  EXPECT_GE(Serial->FilesScanned, 4u);

  support::ThreadPool Pool(4);
  DbCheckOptions Opts;
  Opts.Pool = &Pool;
  auto Parallel = checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Parallel.ok()) << Parallel.status().toString();

  EXPECT_EQ(Serial->FilesScanned, Parallel->FilesScanned);
  EXPECT_EQ(Serial->FilesClean, Parallel->FilesClean);
  EXPECT_EQ(Serial->FilesCorrupt, Parallel->FilesCorrupt);
  EXPECT_EQ(Serial->FilesUnreadable, Parallel->FilesUnreadable);
  EXPECT_EQ(Serial->TracesDropped, Parallel->TracesDropped);
  ASSERT_EQ(Serial->Files.size(), Parallel->Files.size());
  for (size_t I = 0; I < Serial->Files.size(); ++I) {
    EXPECT_EQ(Serial->Files[I].Name, Parallel->Files[I].Name);
    EXPECT_EQ(Serial->Files[I].State, Parallel->Files[I].State);
    EXPECT_EQ(Serial->Files[I].Detail, Parallel->Files[I].Detail);
    EXPECT_EQ(Serial->Files[I].TracesKept, Parallel->Files[I].TracesKept);
    EXPECT_EQ(Serial->Files[I].TracesDropped,
              Parallel->Files[I].TracesDropped);
  }
}

TEST(ParallelMaintenance, ParallelRepairFixesTheDatabase) {
  TempDir Dir;
  populateDatabase(Dir.path());

  support::ThreadPool Pool(4);
  DbCheckOptions Opts;
  Opts.Repair = true;
  Opts.Pool = &Pool;
  auto Repaired = checkDatabase(Dir.path(), Opts);
  ASSERT_TRUE(Repaired.ok()) << Repaired.status().toString();
  EXPECT_GE(Repaired->FilesRepaired + Repaired->FilesQuarantined, 1u);

  auto After = checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_TRUE(After->clean());
}

TEST(ParallelMaintenance, ScanPoolKeepsStatsAndFindCompatibleIdentical) {
  TempDir Dir;
  populateDatabase(Dir.path());
  DirectoryStore Store(Dir.path());
  Store.setAutoQuarantine(false);

  auto SerialStats = Store.stats();
  ASSERT_TRUE(SerialStats.ok());
  auto SerialMatches =
      Store.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(SerialMatches.ok());
  EXPECT_GE(SerialMatches->size(), 3u);

  support::ThreadPool Pool(4);
  Store.setScanPool(&Pool);
  auto ParallelStats = Store.stats();
  ASSERT_TRUE(ParallelStats.ok());
  auto ParallelMatches =
      Store.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(ParallelMatches.ok());

  EXPECT_EQ(SerialStats->CacheFiles, ParallelStats->CacheFiles);
  EXPECT_EQ(SerialStats->CorruptFiles, ParallelStats->CorruptFiles);
  EXPECT_EQ(SerialStats->UnreadableFiles, ParallelStats->UnreadableFiles);
  EXPECT_EQ(SerialStats->DiskBytes, ParallelStats->DiskBytes);
  EXPECT_EQ(SerialStats->CodeBytes, ParallelStats->CodeBytes);
  EXPECT_EQ(SerialStats->DataBytes, ParallelStats->DataBytes);
  EXPECT_EQ(SerialStats->Traces, ParallelStats->Traces);
  EXPECT_EQ(*SerialMatches, *ParallelMatches);
}
