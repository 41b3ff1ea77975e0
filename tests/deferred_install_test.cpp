//===- tests/deferred_install_test.cpp - deferred-install oracle ----------===//
//
// prime() admits the persisted plan as unbuilt code-cache slots and the
// first lookup builds each trace (dbi/CodeCache.h). These tests hold the
// deferral to the eager install it replaces: every scenario runs prime ->
// run -> finalize twice from identical databases, once as shipped and
// once with every deferred install completed right after prime through
// CodeCache::completeDeferredInstalls() — the entry point eviction and
// removal use — and requires equal RunResults, EngineStats, PrimeResults
// and published bytes. The rows cover XIP and materializing primes, PIC
// relocation, the opt tier with and without certificate checks, the
// memory-trace tool, 0 and 2 workers, a mid-run flush, eviction under
// small pools, a corrupt payload dropped through removeTracesInRange(),
// and indirect exits into unbuilt slots.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/Session.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Spec2k.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

using namespace pcc;
using namespace pcc::persist;
using tests::TempDir;

namespace {

struct Job {
  std::shared_ptr<binary::Module> App;
  std::vector<uint8_t> Input;
};

/// One database history plus the run under test.
struct Scenario {
  const loader::ModuleRegistry *Registry = nullptr;
  /// Runs that fill the database, in order, with Opts and default pools.
  std::vector<Job> Prep;
  Job Measured;
  PersistOptions Opts;
  dbi::EngineOptions EngineOpts; ///< For the measured run.
  bool MemTrace = false;
  size_t Workers = 0;
  loader::BasePolicy Policy = loader::BasePolicy::Fixed;
  uint64_t PrepAslr = 0;
  uint64_t RunAslr = 0;
  /// Applied to the database directory between Prep and Measured.
  std::function<void(const std::string &Dir)> Damage;
  /// Derives the measured run's pools from the primed database.
  std::function<void(const std::string &Dir, dbi::EngineOptions &)> Pools;
};

/// What one measured run produced.
struct Leg {
  vm::RunResult Run;
  dbi::EngineStats Stats;
  PrimeResult Prime;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> Published;
  uint32_t Admitted = 0;
  uint32_t Built = 0;
  /// Links among the plan's traces right after completion (eager only).
  uint32_t LinksAfterCompletion = 0;
};

std::unique_ptr<dbi::Tool> makeTool(bool MemTrace) {
  if (MemTrace)
    return std::make_unique<dbi::MemRefTraceTool>();
  return nullptr;
}

std::vector<std::string> cacheFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  auto Names = listDirectory(Dir);
  if (Names)
    for (const std::string &Name : *Names)
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc")
        Out.push_back(Dir + "/" + Name);
  std::sort(Out.begin(), Out.end());
  return Out;
}

Leg runLeg(const Scenario &S, bool Eager) {
  Leg L;
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  for (const Job &J : S.Prep) {
    auto Tool = makeTool(S.MemTrace);
    auto R = workloads::runPersistent(*S.Registry, J.App, J.Input, Db, S.Opts,
                                      Tool.get(), dbi::EngineOptions(),
                                      S.Policy, S.PrepAslr);
    EXPECT_TRUE(R.ok()) << R.status().toString();
  }
  if (S.Damage)
    S.Damage(Dir.path());
  dbi::EngineOptions EngineOpts = S.EngineOpts;
  if (S.Pools)
    S.Pools(Dir.path(), EngineOpts);

  auto M = workloads::makeMachine(*S.Registry, S.Measured.App,
                                  S.Measured.Input, S.Policy, S.RunAslr);
  EXPECT_TRUE(M.ok());
  if (!M.ok())
    return L;
  std::unique_ptr<support::ThreadPool> Pool;
  PersistOptions Opts = S.Opts;
  if (S.Workers > 0) {
    Pool = std::make_unique<support::ThreadPool>(S.Workers);
    Opts.Pool = Pool.get();
  }
  auto Tool = makeTool(S.MemTrace);
  {
    dbi::Engine Engine(*M, Tool.get(), EngineOpts);
    PersistentSession Session(Db, Opts);
    auto Prime = Session.prime(Engine);
    EXPECT_TRUE(Prime.ok());
    if (!Prime.ok())
      return L;
    L.Prime = Prime.take();
    dbi::CodeCache &Cache = Engine.cache();
    L.Admitted = Cache.planSlots();
    if (Eager) {
      Cache.completeDeferredInstalls();
      for (uint32_t Slot = 0; Slot != L.Admitted; ++Slot)
        for (const dbi::TraceExit &Exit : Cache.traces()[Slot]->exits())
          L.LinksAfterCompletion += Exit.Link != nullptr;
    }
    L.Run = Engine.run();
    EXPECT_TRUE(Session.finalize(Engine).ok());
    EXPECT_TRUE(Session.wait(nullptr).ok());
    L.Stats = Engine.stats();
    L.Built = Cache.tracesBuilt();
  }
  for (const std::string &Path : cacheFiles(Dir.path())) {
    auto Bytes = readFile(Path);
    EXPECT_TRUE(Bytes.ok());
    if (Bytes.ok())
      L.Published.emplace_back(Path.substr(Dir.path().size()), Bytes.take());
  }
  return L;
}

void expectSameOutcome(const Leg &A, const Leg &B, const std::string &Label) {
  EXPECT_EQ(A.Run.Error.toString(), B.Run.Error.toString()) << Label;
  EXPECT_EQ(A.Run.ExitCode, B.Run.ExitCode) << Label;
  EXPECT_EQ(A.Run.Output, B.Run.Output) << Label;
  EXPECT_EQ(A.Run.WordLog, B.Run.WordLog) << Label;
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted) << Label;
  EXPECT_EQ(A.Run.Cycles, B.Run.Cycles) << Label;
  tests::expectStatsEqual(A.Stats, B.Stats, Label);
  const PrimeResult &P = A.Prime, &Q = B.Prime;
  EXPECT_EQ(P.CacheFound, Q.CacheFound) << Label;
  EXPECT_EQ(P.RejectReason, Q.RejectReason) << Label;
  EXPECT_EQ(P.TracesInstalled, Q.TracesInstalled) << Label;
  EXPECT_EQ(P.TracesSkipped, Q.TracesSkipped) << Label;
  EXPECT_EQ(P.ModulesValidated, Q.ModulesValidated) << Label;
  EXPECT_EQ(P.ModulesInvalidated, Q.ModulesInvalidated) << Label;
  EXPECT_EQ(P.LinksRestored, Q.LinksRestored) << Label;
  EXPECT_EQ(P.PayloadJobsQueued, Q.PayloadJobsQueued) << Label;
  EXPECT_EQ(P.XipInstalled, Q.XipInstalled) << Label;
  EXPECT_EQ(P.PayloadBytesCopied, Q.PayloadBytesCopied) << Label;
  ASSERT_EQ(A.Published.size(), B.Published.size()) << Label;
  for (size_t I = 0; I != A.Published.size(); ++I) {
    EXPECT_EQ(A.Published[I].first, B.Published[I].first) << Label;
    EXPECT_TRUE(A.Published[I].second == B.Published[I].second)
        << Label << ": published bytes of " << A.Published[I].first;
  }
}

/// Runs \p S as shipped and eagerly and checks the two agree; returns
/// the shipped leg for row-specific assertions.
Leg checkScenario(const Scenario &S, const std::string &Label) {
  Leg Shipped = runLeg(S, /*Eager=*/false);
  Leg Eager = runLeg(S, /*Eager=*/true);
  expectSameOutcome(Shipped, Eager, Label);
  EXPECT_TRUE(Shipped.Prime.CacheFound) << Label;
  EXPECT_EQ(Shipped.Admitted, Shipped.Prime.TracesInstalled) << Label;
  EXPECT_EQ(Eager.Built, Eager.Admitted) << Label;
  EXPECT_LE(Shipped.Built, Shipped.Admitted) << Label;
  // Every persisted link the prime counted is a real link once the
  // deferred installs complete.
  EXPECT_EQ(Eager.LinksAfterCompletion, Eager.Prime.LinksRestored) << Label;
  return Shipped;
}

/// A random app (0-2 libraries, 1-6 local regions) with a prep input over
/// its first half of slots and a measured input over all of them, so the
/// measured run both reuses persisted traces and compiles new ones.
struct RandomProgram {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  std::vector<uint8_t> PrepInput;
  std::vector<uint8_t> RunInput;
};

RandomProgram makeRandomProgram(uint64_t Seed) {
  Rng Gen(Seed);
  RandomProgram P;
  auto region = [&](std::string Name) {
    workloads::RegionDef Region;
    Region.Name = std::move(Name);
    Region.Blocks = 2 + static_cast<uint32_t>(Gen.nextBelow(8));
    Region.InstsPerBlock = 5 + static_cast<uint32_t>(Gen.nextBelow(8));
    Region.YieldEveryBlocks =
        Gen.nextBool(0.3) ? 1 + static_cast<uint32_t>(Gen.nextBelow(4)) : 0;
    Region.Seed = Gen.next();
    return Region;
  };
  workloads::AppDef Def;
  Def.Name = "defer" + std::to_string(Seed);
  Def.Path = "/bin/" + Def.Name;
  const unsigned NumLibs = static_cast<unsigned>(Gen.nextBelow(3));
  for (unsigned L = 0; L != NumLibs; ++L) {
    workloads::LibraryDef Lib;
    Lib.Name = "libdefer" + std::to_string(L) + ".so";
    Lib.Path = "/lib/" + Lib.Name;
    const unsigned NumFns = 1 + static_cast<unsigned>(Gen.nextBelow(4));
    for (unsigned F = 0; F != NumFns; ++F) {
      Lib.Regions.push_back(region("f" + std::to_string(F)));
      Def.Slots.push_back(
          workloads::FunctionSlot::import(Lib.Name, "f" + std::to_string(F)));
    }
    P.Registry.add(workloads::buildLibrary(Lib));
  }
  const unsigned NumLocal = 2 + static_cast<unsigned>(Gen.nextBelow(5));
  for (unsigned I = 0; I != NumLocal; ++I)
    Def.Slots.push_back(
        workloads::FunctionSlot::local(region("l" + std::to_string(I))));
  const auto NumSlots = static_cast<uint32_t>(Def.Slots.size());
  P.App = workloads::buildExecutable(Def);
  std::vector<workloads::WorkItem> Prep, Run;
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    const auto Iters = 1 + static_cast<uint32_t>(Gen.nextBelow(6));
    if (Slot < (NumSlots + 1) / 2)
      Prep.push_back(workloads::WorkItem{Slot, Iters});
    Run.push_back(workloads::WorkItem{Slot, Iters});
  }
  P.PrepInput = workloads::encodeWorkload(Prep);
  P.RunInput = workloads::encodeWorkload(Run);
  return P;
}

Scenario randomScenario(const RandomProgram &P) {
  Scenario S;
  S.Registry = &P.Registry;
  S.Prep = {{P.App, P.PrepInput}, {P.App, P.PrepInput}};
  S.Measured = {P.App, P.RunInput};
  return S;
}

/// Sizes the data pool to the primed database's plan plus \p Slack
/// bytes, so the whole plan is admitted and the measured run's first
/// compiles overflow it.
std::function<void(const std::string &, dbi::EngineOptions &)>
tightDataPool(uint64_t Slack) {
  return [Slack](const std::string &Dir, dbi::EngineOptions &Opts) {
    std::vector<std::string> Files = cacheFiles(Dir);
    ASSERT_EQ(Files.size(), 1u);
    auto View = CacheFileView::openFile(Files.front());
    ASSERT_TRUE(View.ok());
    Opts.DataPoolBytes = View->dataBytes() + Slack;
  };
}

/// Flips a byte inside the first (hottest) payload image: it still
/// decodes, so only its CRC catches the damage at first execution.
void damageHottestPayload(const std::string &Dir) {
  std::vector<std::string> Files = cacheFiles(Dir);
  ASSERT_EQ(Files.size(), 1u);
  auto Bytes = readFile(Files.front());
  ASSERT_TRUE(Bytes.ok());
  uint32_t Off = 0;
  for (unsigned I = 0; I != 4; ++I)
    Off |= static_cast<uint32_t>((*Bytes)[56 + I]) << (8 * I);
  Off += dbi::TracePrologueBytes + 4;
  ASSERT_LT(Off, Bytes->size());
  (*Bytes)[Off] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Files.front(), *Bytes).ok());
}

class DeferredInstall : public ::testing::TestWithParam<uint64_t> {
protected:
  RandomProgram P = makeRandomProgram(GetParam());
  std::string label(const char *Row) const {
    return std::string(Row) + " seed " + std::to_string(GetParam());
  }
};

} // namespace

TEST_P(DeferredInstall, Materializing) {
  Leg L = checkScenario(randomScenario(P), label("materializing"));
  EXPECT_FALSE(L.Prime.XipInstalled);
  EXPECT_GT(L.Stats.TracesReused, 0u);
}

TEST_P(DeferredInstall, ExecuteInPlace) {
  Scenario S = randomScenario(P);
  S.Opts.PositionIndependent = true;
  S.Opts.ExecuteInPlace = true;
  Leg L = checkScenario(S, label("xip"));
  EXPECT_TRUE(L.Prime.XipInstalled);
}

TEST_P(DeferredInstall, PicRelocated) {
  Scenario S = randomScenario(P);
  S.Opts.PositionIndependent = true;
  S.Policy = loader::BasePolicy::Randomized;
  S.PrepAslr = 7;
  S.RunAslr = 99;
  Leg L = checkScenario(S, label("pic relocated"));
  EXPECT_GT(L.Stats.TracesReused, 0u);
}

TEST_P(DeferredInstall, OptTierWithCertificates) {
  Scenario S = randomScenario(P);
  S.Opts.OptTier = true;
  Leg L = checkScenario(S, label("opt tier, certificates checked"));
  EXPECT_GT(L.Stats.CertsChecked, 0u);
}

TEST_P(DeferredInstall, OptTierWithoutCertificateChecks) {
  Scenario S = randomScenario(P);
  S.Opts.OptTier = true;
  S.Opts.CheckCertificates = false;
  Leg L = checkScenario(S, label("opt tier, certificates unchecked"));
  EXPECT_EQ(L.Stats.CertsChecked, 0u);
}

TEST_P(DeferredInstall, MemoryTraceTool) {
  Scenario S = randomScenario(P);
  S.MemTrace = true;
  Leg L = checkScenario(S, label("memtrace"));
  EXPECT_GT(L.Stats.ToolCycles, 0u);
}

TEST_P(DeferredInstall, TwoWorkers) {
  Scenario S = randomScenario(P);
  S.Workers = 2;
  Leg L = checkScenario(S, label("two workers"));
  EXPECT_GT(L.Prime.PayloadJobsQueued, 0u);
}

TEST_P(DeferredInstall, MidRunFlush) {
  Scenario S = randomScenario(P);
  S.Workers = 2;
  S.Pools = tightDataPool(64);
  Leg L = checkScenario(S, label("mid-run flush"));
  EXPECT_GT(L.Stats.CacheFlushes, 0u);
}

TEST_P(DeferredInstall, EvictionUnderSmallPools) {
  Scenario S = randomScenario(P);
  S.Workers = 2;
  S.EngineOpts.Eviction = dbi::EvictionPolicy::EvictOldestHalf;
  S.Pools = tightDataPool(64);
  Leg L = checkScenario(S, label("eviction"));
  EXPECT_GT(L.Stats.TracesEvicted, 0u);
}

TEST_P(DeferredInstall, CorruptPayloadDropped) {
  for (size_t Workers : {0u, 2u}) {
    Scenario S = randomScenario(P);
    S.Workers = Workers;
    S.Damage = damageHottestPayload;
    Leg L = checkScenario(S, label("corrupt payload") + " workers " +
                                 std::to_string(Workers));
    EXPECT_GT(L.Stats.TracesDroppedCorrupt, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeferredInstall,
                         ::testing::Values(3u, 17u, 29u, 40u));

TEST(DeferredInstallPaths, IndirectExitIntoUnbuiltSlotAddsNoDispatch) {
  // Every return and import call leaves its trace through an indirect
  // exit. The shipped leg reaches those targets unbuilt, the eager leg
  // built: equal DispatchCycles means the inline indirect lookup built
  // them without a trip through the dispatcher.
  tests::TinyWorkload W = tests::makeTinyWorkload(6, 3);
  Scenario S;
  S.Registry = &W.Registry;
  S.Prep = {{W.App, W.allSlotsInput(2)}};
  S.Measured = {W.App, W.allSlotsInput(3)};
  Leg L = checkScenario(S, "indirect exits");
  EXPECT_GT(L.Stats.IndirectCycles, 0u);
  EXPECT_EQ(L.Stats.TracesCompiled, 0u);
  EXPECT_GT(L.Built, 0u);
}

TEST(DeferredInstallSuites, OracleWorkPhase) {
  workloads::OracleSetup Oracle = workloads::buildOracleSetup(0.1);
  Scenario S;
  S.Registry = &Oracle.Registry;
  for (const std::vector<uint8_t> &In : Oracle.PhaseInputs)
    S.Prep.push_back({Oracle.App, In});
  S.Measured = {Oracle.App, Oracle.PhaseInputs[3]};
  S.MemTrace = true;
  S.Workers = 2;
  checkScenario(S, "oracle work");
}

TEST(DeferredInstallSuites, GuiStartupExecuteInPlace) {
  workloads::GuiSuite Gui = workloads::buildGuiSuite();
  Scenario S;
  S.Registry = &Gui.Registry;
  for (const workloads::GuiApp &App : Gui.Apps)
    S.Prep.push_back({App.App, App.StartupInput});
  S.Measured = {Gui.Apps[1].App, Gui.Apps[1].StartupInput};
  S.Opts.InterApplication = true;
  S.Opts.PositionIndependent = true;
  S.Opts.ExecuteInPlace = true;
  Leg L = checkScenario(S, "gui startup");
  EXPECT_TRUE(L.Prime.XipInstalled);
}

TEST(DeferredInstallSuites, SpecReferenceOptTier) {
  loader::ModuleRegistry Registry;
  workloads::SpecBenchmark Bench = workloads::buildSpecBenchmark(
      workloads::defaultSpecProfiles().front(), Registry, 0.05);
  ASSERT_GE(Bench.RefInputs.size(), 3u);
  Scenario S;
  S.Registry = &Registry;
  S.Prep = {{Bench.App, Bench.RefInputs[0]}, {Bench.App, Bench.RefInputs[1]}};
  S.Measured = {Bench.App, Bench.RefInputs[2]};
  S.Opts.OptTier = true;
  checkScenario(S, "spec reference");
}

TEST(DeferredInstallSuites, OracleBuildsTrackUse) {
  // Each phase primes from the database every phase accumulated. A
  // build happens only for a trace the run looked up and then ran, and
  // the counts prime reports still describe the whole admitted plan.
  workloads::OracleSetup Oracle = workloads::buildOracleSetup(0.1);
  for (unsigned Phase = 0; Phase != workloads::OraclePhases; ++Phase) {
    Scenario S;
    S.Registry = &Oracle.Registry;
    for (const std::vector<uint8_t> &In : Oracle.PhaseInputs)
      S.Prep.push_back({Oracle.App, In});
    S.Measured = {Oracle.App, Oracle.PhaseInputs[Phase]};
    S.MemTrace = true;
    S.Workers = 2;
    const std::string Label = workloads::oraclePhaseName(Phase);
    Leg L = checkScenario(S, Label);
    EXPECT_EQ(L.Built, L.Stats.TracesReused) << Label;
    EXPECT_EQ(L.Stats.TracesDroppedCorrupt, 0u) << Label;
    EXPECT_EQ(L.Stats.TracesLoadedFromCache, L.Prime.TracesInstalled)
        << Label;
    EXPECT_EQ(L.Admitted, L.Prime.TracesInstalled) << Label;
    EXPECT_GT(L.Prime.LinksRestored, 0u) << Label;
    if (Phase == 3) {
      EXPECT_LT(L.Built, L.Stats.TracesLoadedFromCache) << Label;
    }
  }
}
