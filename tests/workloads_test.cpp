//===- tests/workloads_test.cpp - workload generator tests ----------------===//

#include "persist/Session.h"
#include "workloads/Codegen.h"
#include "workloads/Coverage.h"
#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Runner.h"
#include "workloads/Spec2k.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;
using namespace pcc::workloads;

TEST(Codegen, RegionSizeFormulaMatchesEmission) {
  RegionDef Def;
  Def.Name = "r";
  Def.Blocks = 5;
  Def.InstsPerBlock = 9;
  Def.YieldEveryBlocks = 2;
  Def.Seed = 3;
  LibraryDef Lib;
  Lib.Name = "l.so";
  Lib.Path = "/l.so";
  Lib.Regions.push_back(Def);
  auto M = buildLibrary(Lib);
  EXPECT_EQ(M->instructions().size(), Def.sizeInInsts());
}

TEST(Codegen, LibraryExportsAllRegions) {
  LibraryDef Lib;
  Lib.Name = "l.so";
  Lib.Path = "/l.so";
  for (int I = 0; I != 3; ++I) {
    RegionDef Def;
    Def.Name = "fn" + std::to_string(I);
    Def.Seed = I;
    Lib.Regions.push_back(Def);
  }
  auto M = buildLibrary(Lib);
  EXPECT_EQ(M->symbols().size(), 3u);
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(M->findSymbol("fn" + std::to_string(I)).has_value());
  // Regions are laid out back to back.
  EXPECT_EQ(M->findSymbol("fn0").value(), 0u);
  EXPECT_GT(M->findSymbol("fn1").value(), 0u);
}

TEST(Codegen, ExecutableRunsEveryLocalAndImportedSlot) {
  tests::TinyWorkload W = tests::makeTinyWorkload(3, 3);
  auto R = runNative(W.Registry, W.App, W.allSlotsInput(2));
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(R->ExitCode, 0u);
  EXPECT_GT(R->InstructionsExecuted, 100u);
}

TEST(Codegen, IterationCountScalesWork) {
  tests::TinyWorkload W = tests::makeTinyWorkload(2, 0);
  auto One = runNative(W.Registry, W.App, W.allSlotsInput(1));
  auto Ten = runNative(W.Registry, W.App, W.allSlotsInput(10));
  ASSERT_TRUE(One.ok() && Ten.ok());
  EXPECT_GT(Ten->InstructionsExecuted, 5 * One->InstructionsExecuted);
}

TEST(Codegen, DifferentInputsExerciseDifferentCode) {
  tests::TinyWorkload W = tests::makeTinyWorkload(4, 0);
  auto A = runUnderEngine(W.Registry, W.App, W.input({{0, 2}, {1, 2}}));
  auto B = runUnderEngine(W.Registry, W.App, W.input({{2, 2}, {3, 2}}));
  ASSERT_TRUE(A.ok() && B.ok());
  // Coverage beyond the common main/driver must differ.
  double Cov = codeCoverage(A->Coverage, B->Coverage);
  EXPECT_LT(Cov, 0.9);
  EXPECT_GT(Cov, 0.0);
}

TEST(Codegen, YieldRegionsMakeSyscalls) {
  workloads::AppDef Def;
  Def.Name = "y";
  Def.Path = "/y";
  RegionDef Quiet;
  Quiet.Name = "quiet";
  Quiet.Seed = 1;
  Def.Slots.push_back(FunctionSlot::local(Quiet));
  RegionDef Noisy;
  Noisy.Name = "noisy";
  Noisy.YieldEveryBlocks = 1;
  Noisy.Seed = 2;
  Def.Slots.push_back(FunctionSlot::local(Noisy));
  auto App = buildExecutable(Def);
  loader::ModuleRegistry Registry;
  auto OnlyQuiet = runNative(Registry, App, encodeWorkload({{0, 5}}));
  auto OnlyNoisy = runNative(Registry, App, encodeWorkload({{1, 5}}));
  ASSERT_TRUE(OnlyQuiet.ok() && OnlyNoisy.ok());
  EXPECT_EQ(OnlyQuiet->SyscallCount, 1u); // Just the exit.
  EXPECT_GT(OnlyNoisy->SyscallCount, 5u);
}

TEST(CoverageDesigner, HitsUniformTarget) {
  CoverageMatrix Target(3, std::vector<double>(3, 0.8));
  for (int I = 0; I != 3; ++I)
    Target[I][I] = 1.0;
  CoverageDesign Design = designCoverage(Target, 50, 42);
  EXPECT_LT(Design.RmsError, 0.05);
  EXPECT_EQ(Design.InputRegions.size(), 3u);
  for (const auto &Set : Design.InputRegions)
    EXPECT_GT(Set.size(), 20u);
}

TEST(CoverageDesigner, HitsAsymmetricOracleTarget) {
  CoverageDesign Design =
      designCoverage(oracleCoverageTarget(), 90, 7);
  EXPECT_LT(Design.RmsError, 0.05);
  // The achieved matrix must reproduce Start's asymmetry: Start covered
  // ~47% by Mount, Mount covered only ~22% by Start.
  EXPECT_NEAR(Design.Achieved[0][1], 0.47, 0.08);
  EXPECT_NEAR(Design.Achieved[1][0], 0.22, 0.08);
}

TEST(CoverageDesigner, AchievedMatrixConsistentWithSets) {
  CoverageDesign Design = designCoverage(gccCoverageTarget(), 120, 9);
  CoverageMatrix FromSets = coverageOfSets(Design.InputRegions);
  for (size_t I = 0; I != FromSets.size(); ++I)
    for (size_t J = 0; J != FromSets.size(); ++J)
      EXPECT_NEAR(FromSets[I][J], Design.Achieved[I][J], 1e-9);
}

TEST(CoverageIntervals, BytesAndIntersection) {
  AddressIntervals A = {{0, 100}, {200, 300}};
  AddressIntervals B = {{50, 250}};
  EXPECT_EQ(intervalBytes(A), 200u);
  EXPECT_EQ(intervalIntersectionBytes(A, B), 100u);
  EXPECT_DOUBLE_EQ(codeCoverage(A, B), 0.5);
  EXPECT_DOUBLE_EQ(codeCoverage(B, A), 0.5);
  EXPECT_DOUBLE_EQ(codeCoverage(AddressIntervals{}, A), 1.0);
}

TEST(CoverageIntervals, ModuleRelativeAcrossBases) {
  // The same library at different bases in two processes: coverage must
  // match in module-relative space.
  auto Lib = std::make_shared<binary::Module>(
      "lib.so", "/lib.so", binary::ModuleKind::SharedLibrary);
  loader::LoadedModule At1000{Lib, 0x1000, 0x1000};
  loader::LoadedModule At8000{Lib, 0x8000, 0x1000};
  AddressIntervals CoverA = {{0x1100, 0x1200}};
  AddressIntervals CoverB = {{0x8100, 0x8200}};
  auto RelA = moduleRelativeCoverage(CoverA, {At1000});
  auto RelB = moduleRelativeCoverage(CoverB, {At8000});
  EXPECT_DOUBLE_EQ(moduleRelativeCodeCoverage(RelA, RelB), 1.0);
}

TEST(CoverageIntervals, PrimedCacheReportsBuiltTranslationsOnly) {
  tests::TinyWorkload W = tests::makeTinyWorkload(3, 2);
  tests::TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(2);
  auto Cold = runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  auto M = makeMachine(W.Registry, W.App, Input);
  ASSERT_TRUE(M.ok());
  dbi::Engine Engine(*M, nullptr);
  persist::PersistentSession Session(Db);
  auto Prime = Session.prime(Engine);
  ASSERT_TRUE(Prime.ok());
  ASSERT_GT(Prime->TracesInstalled, 0u);
  // Right after prime every admitted trace is an unbuilt plan slot: no
  // translation is built yet, so nothing is covered.
  EXPECT_TRUE(coveredCode(Engine.cache()).empty());

  ASSERT_TRUE(Engine.run().ok());
  // The run built the traces it needed; they cover what a cold run
  // covers.
  auto Cover = coveredCode(Engine.cache());
  EXPECT_FALSE(Cover.empty());
  auto Fresh = runUnderEngine(W.Registry, W.App, Input);
  ASSERT_TRUE(Fresh.ok());
  EXPECT_EQ(intervalBytes(Cover), intervalBytes(Fresh->Coverage));
}

TEST(SpecSuite, BuildsElevenBenchmarks) {
  SpecSuite Suite = buildSpecSuite(/*Scale=*/0.05);
  EXPECT_EQ(Suite.Benchmarks.size(), 11u);
  for (const SpecBenchmark &Bench : Suite.Benchmarks) {
    EXPECT_EQ(Bench.RefInputs.size(), Bench.Profile.NumRefInputs);
    EXPECT_FALSE(Bench.TrainInput.empty());
    // 252.eon is omitted, as in the paper.
    EXPECT_NE(Bench.Profile.Name, "252.eon");
  }
}

TEST(SpecSuite, BenchmarksRunCorrectlyUnderBothEngines) {
  SpecSuite Suite = buildSpecSuite(/*Scale=*/0.02);
  const SpecBenchmark &Bench = Suite.Benchmarks[0]; // gzip, scaled down.
  auto Native = runNative(Suite.Registry, Bench.App, Bench.TrainInput);
  auto Engine =
      runUnderEngine(Suite.Registry, Bench.App, Bench.TrainInput);
  ASSERT_TRUE(Native.ok() && Engine.ok());
  EXPECT_TRUE(Native->observablyEquals(Engine->Run));
}

TEST(SpecSuite, GccSpreadsDiscovery) {
  SpecSuite Suite = buildSpecSuite(/*Scale=*/0.25);
  const SpecBenchmark *Gcc = nullptr;
  const SpecBenchmark *Gzip = nullptr;
  for (const SpecBenchmark &Bench : Suite.Benchmarks) {
    if (Bench.Profile.Name == "176.gcc")
      Gcc = &Bench;
    if (Bench.Profile.Name == "164.gzip")
      Gzip = &Bench;
  }
  ASSERT_TRUE(Gcc && Gzip);
  auto lateFraction = [&](const SpecBenchmark &Bench) {
    auto R = runUnderEngine(Suite.Registry, Bench.App,
                            Bench.RefInputs[0]);
    EXPECT_TRUE(R.ok());
    uint64_t Late = 0;
    for (const dbi::CompileEvent &Event : R->Stats.Timeline)
      if (Event.GuestInstsExecuted * 10 > R->Stats.GuestInstsExecuted)
        ++Late;
    return static_cast<double>(Late) / R->Stats.Timeline.size();
  };
  EXPECT_GT(lateFraction(*Gcc), 0.3);
  EXPECT_LT(lateFraction(*Gzip), 0.1);
}

TEST(GuiSuite, FiveAppsWithSharedLibraries) {
  GuiSuite Suite = buildGuiSuite();
  ASSERT_EQ(Suite.Apps.size(), 5u);
  for (const GuiApp &App : Suite.Apps) {
    EXPECT_GT(App.Libraries.size(), 5u);
    EXPECT_FALSE(App.StartupInput.empty());
  }
  // Every pair shares at least one library.
  for (size_t I = 0; I != 5; ++I)
    for (size_t J = I + 1; J != 5; ++J) {
      bool Shared = false;
      for (const std::string &Lib : Suite.Apps[I].Libraries)
        for (const std::string &Other : Suite.Apps[J].Libraries)
          Shared |= Lib == Other;
      EXPECT_TRUE(Shared) << I << " vs " << J;
    }
}

TEST(GuiSuite, AppsRunToCompletion) {
  GuiSuite Suite = buildGuiSuite();
  for (const GuiApp &App : Suite.Apps) {
    auto R = runNative(Suite.Registry, App.App, App.StartupInput);
    ASSERT_TRUE(R.ok()) << App.Name << ": " << R.status().toString();
    EXPECT_EQ(R->ExitCode, 0u);
  }
}

TEST(GuiSuite, SharedLibrariesLoadAtStableBases) {
  // Prelink-style bases: the same library maps at the same address in
  // different applications (the precondition for inter-application
  // reuse without PIC).
  GuiSuite Suite = buildGuiSuite();
  auto A = runUnderEngine(Suite.Registry, Suite.Apps[0].App,
                          Suite.Apps[0].StartupInput);
  auto B = runUnderEngine(Suite.Registry, Suite.Apps[1].App,
                          Suite.Apps[1].StartupInput);
  ASSERT_TRUE(A.ok() && B.ok());
  unsigned SharedAtSameBase = 0;
  unsigned SharedTotal = 0;
  for (const loader::LoadedModule &ModA : A->Modules) {
    if (ModA.Image->isExecutable())
      continue;
    for (const loader::LoadedModule &ModB : B->Modules) {
      if (ModB.Image->name() != ModA.Image->name())
        continue;
      ++SharedTotal;
      SharedAtSameBase += ModA.Base == ModB.Base ? 1 : 0;
    }
  }
  ASSERT_GT(SharedTotal, 0u);
  EXPECT_GT(SharedAtSameBase * 2, SharedTotal)
      << "most shared libraries must land at stable bases";
}

TEST(OracleSuite, FivePhasesRun) {
  OracleSetup Setup = buildOracleSetup(/*Scale=*/0.2);
  ASSERT_EQ(Setup.PhaseInputs.size(), OraclePhases);
  for (unsigned Phase = 0; Phase != OraclePhases; ++Phase) {
    auto R = runNative(Setup.Registry, Setup.App,
                       Setup.PhaseInputs[Phase]);
    ASSERT_TRUE(R.ok()) << oraclePhaseName(Phase);
    EXPECT_GT(R->SyscallCount, 1u) << "oracle is syscall-heavy";
  }
}

TEST(OracleSuite, PhaseNamesMatchPaper) {
  EXPECT_STREQ(oraclePhaseName(0), "Start");
  EXPECT_STREQ(oraclePhaseName(1), "Mount");
  EXPECT_STREQ(oraclePhaseName(2), "Open");
  EXPECT_STREQ(oraclePhaseName(3), "Work");
  EXPECT_STREQ(oraclePhaseName(4), "Close");
}

TEST(OracleSuite, StartPhaseIsLoner) {
  // Start is covered least by the other phases (Table 3b row maxima).
  OracleSetup Setup = buildOracleSetup(/*Scale=*/0.2);
  std::vector<AddressIntervals> Covers;
  for (unsigned Phase = 0; Phase != OraclePhases; ++Phase) {
    auto R = runUnderEngine(Setup.Registry, Setup.App,
                            Setup.PhaseInputs[Phase]);
    ASSERT_TRUE(R.ok());
    Covers.push_back(R->Coverage);
  }
  // Mount..Close cover each other far better than they cover Start's
  // counterpart direction.
  double StartByOthers = codeCoverage(Covers[1], Covers[0]);
  double OthersByOpen = codeCoverage(Covers[1], Covers[2]);
  EXPECT_LT(StartByOthers, 0.4);
  EXPECT_GT(OthersByOpen, 0.6);
}
