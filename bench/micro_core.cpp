//===- bench/micro_core.cpp -----------------------------------------------===//
//
// google-benchmark microbenchmarks of the core engine operations whose
// costs the cycle model abstracts: module key hashing, translation-map
// lookup, trace selection+compilation, persistent cache file
// serialization/deserialization, and CRC validation. These measure the
// *host* implementation (how fast the simulator itself runs), not the
// modeled guest cycles.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Validator.h"
#include "binary/Assembler.h"
#include "dbi/Compiler.h"
#include "dbi/Engine.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheFile.h"
#include "persist/DbCheck.h"
#include "persist/Key.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"
#include "workloads/Codegen.h"
#include "workloads/Fleet.h"
#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Runner.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <memory>

using namespace pcc;

namespace {

/// A loaded machine shared by the microbenchmarks.
struct Fixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  std::unique_ptr<vm::Machine> M;

  Fixture() {
    workloads::AppDef Def;
    Def.Name = "micro";
    Def.Path = "/bin/micro";
    for (uint32_t I = 0; I != 16; ++I) {
      workloads::RegionDef Region;
      Region.Name = "r" + std::to_string(I);
      Region.Blocks = 6;
      Region.InstsPerBlock = 10;
      Region.Seed = I + 1;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    std::vector<workloads::WorkItem> Items;
    for (uint32_t I = 0; I != 16; ++I)
      Items.push_back(workloads::WorkItem{I, 20});
    auto Machine = workloads::makeMachine(
        Registry, App, workloads::encodeWorkload(Items));
    M = std::make_unique<vm::Machine>(Machine.take());
  }
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_ModuleKeyCompute(benchmark::State &State) {
  const auto &Mod = fixture().M->image().Modules[0];
  for (auto _ : State)
    benchmark::DoNotOptimize(persist::ModuleKey::compute(Mod));
}
BENCHMARK(BM_ModuleKeyCompute);

void BM_Fnv1a64(benchmark::State &State) {
  std::vector<uint8_t> Data(State.range(0), 0x5a);
  for (auto _ : State)
    benchmark::DoNotOptimize(fnv1a64Bytes(Data.data(), Data.size()));
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32(benchmark::State &State) {
  std::vector<uint8_t> Data(State.range(0), 0xa5);
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Data.data(), Data.size()));
  State.SetBytesProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536);

void BM_TraceSelection(benchmark::State &State) {
  Fixture &F = fixture();
  uint32_t Entry = F.M->image().EntryAddress;
  for (auto _ : State)
    benchmark::DoNotOptimize(dbi::selectTrace(F.M->space(), Entry, 16));
}
BENCHMARK(BM_TraceSelection);

void BM_TraceCompile(benchmark::State &State) {
  Fixture &F = fixture();
  uint32_t Entry = F.M->image().EntryAddress;
  dbi::CostModel Costs;
  for (auto _ : State) {
    dbi::CodeCache Cache(1 << 20, 1 << 20);
    dbi::Compiler Comp(F.M->space(), Cache, Costs,
                       dbi::InstrumentationSpec(), 16);
    dbi::EngineStats Stats;
    benchmark::DoNotOptimize(Comp.compile(Entry, Stats));
  }
}
BENCHMARK(BM_TraceCompile);

void BM_TranslationMapLookup(benchmark::State &State) {
  dbi::CodeCache Cache(1 << 20, 1 << 24);
  for (uint32_t I = 0; I != 4096; ++I)
    (void)Cache.addTrace(std::make_unique<dbi::TranslatedTrace>(
        0x1000 + I * 64, 4, 0, 0, std::vector<dbi::TraceExit>{},
        false));
  uint32_t Probe = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Cache.lookup(0x1000 + (Probe & 4095) * 64));
    ++Probe;
  }
}
BENCHMARK(BM_TranslationMapLookup);

persist::CacheFile makeCacheFile(unsigned NumTraces) {
  persist::CacheFile File;
  File.EngineHash = 1;
  persist::ModuleKey Key;
  Key.Path = "/bin/micro";
  File.Modules.push_back(Key);
  for (unsigned I = 0; I != NumTraces; ++I) {
    persist::TraceRecord Trace;
    Trace.GuestStart = 0x400000 + I * 128;
    Trace.GuestInstCount = 12;
    Trace.Code.assign(160, static_cast<uint8_t>(I));
    Trace.Exits.push_back(
        persist::ExitRecord{0, 11, Trace.GuestStart + 96, 0});
    File.Traces.push_back(std::move(Trace));
  }
  return File;
}

void BM_CacheFileSerialize(benchmark::State &State) {
  persist::CacheFile File =
      makeCacheFile(static_cast<unsigned>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(File.serialize());
}
BENCHMARK(BM_CacheFileSerialize)->Arg(128)->Arg(1024);

void BM_CacheFileDeserialize(benchmark::State &State) {
  std::vector<uint8_t> Bytes =
      makeCacheFile(static_cast<unsigned>(State.range(0))).serialize();
  for (auto _ : State)
    benchmark::DoNotOptimize(persist::CacheFile::deserialize(Bytes));
}
BENCHMARK(BM_CacheFileDeserialize)->Arg(128)->Arg(1024);

/// A 64-file database, half of it compatible with (engine 1, tool 0),
/// for the header-scan vs. eager-scan comparison.
struct ScanDb {
  bench::ScratchDir Dir{"pcc-bench-scan"};
  persist::CacheDatabase Db{Dir.path()};

  ScanDb() {
    persist::CacheFile File = makeCacheFile(256);
    for (uint64_t Key = 1; Key <= 64; ++Key) {
      File.EngineHash = (Key % 2) ? 1 : 2;
      if (!Db.store(Key, File).ok())
        std::abort();
    }
  }
};

ScanDb &scanDb() {
  static ScanDb S;
  return S;
}

void BM_HeaderScan(benchmark::State &State) {
  persist::CacheDatabase &Db = scanDb().Db;
  for (auto _ : State)
    benchmark::DoNotOptimize(Db.findCompatible(1, 0));
  State.SetItemsProcessed(State.iterations() * 64);
  State.SetLabel("cache files");
}
BENCHMARK(BM_HeaderScan);

/// The same compatibility scan done eagerly — every file fully
/// deserialized and CRC-checked — as the baseline BM_HeaderScan is
/// measured against.
void BM_DatabaseEagerScan(benchmark::State &State) {
  ScanDb &S = scanDb();
  auto Names = listDirectory(S.Dir.path());
  if (!Names)
    std::abort();
  for (auto _ : State) {
    uint32_t Matches = 0;
    for (const std::string &Name : *Names) {
      auto File = S.Db.loadPath(S.Dir.path() + "/" + Name);
      if (File && File->EngineHash == 1 && File->ToolHash == 0)
        ++Matches;
    }
    benchmark::DoNotOptimize(Matches);
  }
  State.SetItemsProcessed(State.iterations() * 64);
  State.SetLabel("cache files");
}
BENCHMARK(BM_DatabaseEagerScan);

/// Records the wall-clock instant the first translated basic block
/// executes. Keyed into the cache like any tool, so fixtures that prime
/// under it must also have cold-populated under it.
struct FirstBlockTimerTool : dbi::Tool {
  std::chrono::steady_clock::time_point FirstBlock;
  bool Seen = false;

  std::string name() const override { return "first-block-timer"; }
  dbi::InstrumentationSpec spec() const override {
    dbi::InstrumentationSpec Spec;
    Spec.BasicBlocks = true;
    return Spec;
  }
  void onBasicBlock(uint32_t, uint32_t) override {
    if (!Seen) {
      Seen = true;
      FirstBlock = std::chrono::steady_clock::now();
    }
  }
};

/// A large persisted application whose warm runs touch only a couple of
/// regions: measures prime + partial execution, where lazy validation
/// means only the executed traces' payloads are CRC-checked and decoded.
struct PrimeFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir Dir{"pcc-bench-prime"};
  persist::CacheDatabase Db{Dir.path()};
  std::vector<uint8_t> FullInput;
  std::vector<uint8_t> WarmInput;

  PrimeFixture() {
    workloads::AppDef Def;
    Def.Name = "prime";
    Def.Path = "/bin/prime";
    for (uint32_t I = 0; I != 208; ++I) {
      workloads::RegionDef Region;
      Region.Name = "p" + std::to_string(I);
      Region.Blocks = 32;
      Region.InstsPerBlock = 10;
      Region.Seed = I + 101;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    std::vector<workloads::WorkItem> All;
    for (uint32_t I = 0; I != 208; ++I)
      All.push_back(workloads::WorkItem{I, 1});
    FullInput = workloads::encodeWorkload(All);
    bench::mustOk(workloads::runPersistent(Registry, App, FullInput, Db),
                  "cold run populating the prime-bench cache");
    std::vector<workloads::WorkItem> Few;
    for (uint32_t I = 0; I != 2; ++I)
      Few.push_back(workloads::WorkItem{I, 1});
    WarmInput = workloads::encodeWorkload(Few);
  }
};

PrimeFixture &primeFixture() {
  static PrimeFixture F;
  return F;
}

void BM_PrimeCold(benchmark::State &State) {
  PrimeFixture &F = primeFixture();
  persist::PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  // A residency map observes which payload pages the partial run
  // actually faults in: lazy validation means only the executed traces'
  // pages are touched, and that count is the modeled I/O bill of
  // getting to the first N traces (the paper's "disk I/O occurs based
  // on the access pattern of the executing code").
  persist::SharedResidencyMap Touched;
  ReadOnly.SharedResidency = &Touched;
  uint64_t Installed = 0;
  uint64_t Materialized = 0;
  uint64_t PagesTouched = 0;
  for (auto _ : State) {
    Touched.clear(); // Fresh process model each iteration.
    auto R = workloads::runPersistent(F.Registry, F.App, F.WarmInput,
                                      F.Db, ReadOnly);
    if (R) {
      Installed = R->Prime.TracesInstalled;
      Materialized = R->Stats.TracePayloadsValidated;
      PagesTouched = Touched.residentPages();
    }
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(formatString(
      "%llu traces primed, %llu payloads validated, "
      "%llu pages touched to first %llu traces",
      (unsigned long long)Installed, (unsigned long long)Materialized,
      (unsigned long long)PagesTouched,
      (unsigned long long)Materialized));
}
BENCHMARK(BM_PrimeCold);

/// Fixture for the execute-in-place prime benchmark: the PrimeFixture
/// application persisted twice — once as a materializing v2 cache and
/// once as an XIP v3 generation — so the two warm-prime mechanisms are
/// measured over identical trace populations.
struct XipPrimeFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir MatDir{"pcc-bench-xip-mat"};
  bench::ScratchDir XipDir{"pcc-bench-xip"};
  persist::CacheDatabase MatDb{MatDir.path()};
  persist::CacheDatabase XipDb{XipDir.path()};
  std::vector<uint8_t> WarmInput;

  XipPrimeFixture() {
    workloads::AppDef Def;
    Def.Name = "xip";
    Def.Path = "/bin/xip";
    for (uint32_t I = 0; I != 208; ++I) {
      workloads::RegionDef Region;
      Region.Name = "x" + std::to_string(I);
      Region.Blocks = 32;
      Region.InstsPerBlock = 10;
      Region.Seed = I + 701;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    std::vector<workloads::WorkItem> All;
    for (uint32_t I = 0; I != 208; ++I)
      All.push_back(workloads::WorkItem{I, 1});
    auto Input = workloads::encodeWorkload(All);
    persist::PersistOptions Mat;
    Mat.PositionIndependent = true;
    bench::mustOk(
        workloads::runPersistent(Registry, App, Input, MatDb, Mat),
        "cold run populating the materializing xip-bench cache");
    persist::PersistOptions Xip = Mat;
    Xip.ExecuteInPlace = true;
    bench::mustOk(
        workloads::runPersistent(Registry, App, Input, XipDb, Xip),
        "cold run populating the xip-bench cache");
    std::vector<workloads::WorkItem> Few;
    for (uint32_t I = 0; I != 2; ++I)
      Few.push_back(workloads::WorkItem{I, 1});
    WarmInput = workloads::encodeWorkload(Few);
  }
};

XipPrimeFixture &xipPrimeFixture() {
  static XipPrimeFixture F;
  return F;
}

/// Warm prime + partial run over the same trace population, Arg 0 via
/// the materializing path (every installed trace's payload copied into
/// the private code pool) and Arg 1 execute-in-place (the payload
/// section borrowed as mapped executable bodies — zero per-trace
/// decode/copy charges at prime). The label reports the copy bill.
void BM_XipPrime(benchmark::State &State) {
  XipPrimeFixture &F = xipPrimeFixture();
  const bool Xip = State.range(0) != 0;
  persist::PersistOptions Opts;
  Opts.PositionIndependent = true;
  Opts.ExecuteInPlace = Xip;
  Opts.WriteBack = false;
  uint64_t Installed = 0;
  uint64_t BytesCopied = 0;
  for (auto _ : State) {
    auto R = workloads::runPersistent(F.Registry, F.App, F.WarmInput,
                                      Xip ? F.XipDb : F.MatDb, Opts);
    if (!R || !R->Prime.CacheFound || R->Prime.XipInstalled != Xip)
      std::abort();
    Installed = R->Prime.TracesInstalled;
    BytesCopied = R->Prime.PayloadBytesCopied;
    benchmark::DoNotOptimize(R);
  }
  if (Xip && BytesCopied != 0)
    std::abort();
  State.SetLabel(formatString(
      "%s, %llu traces primed, %llu payload bytes copied",
      Xip ? "execute-in-place" : "materializing",
      (unsigned long long)Installed, (unsigned long long)BytesCopied));
}
BENCHMARK(BM_XipPrime)->Arg(0)->Arg(1);

/// A warm shared Oracle database: one slot accumulated over two passes
/// of all five phases under the memory-trace tool, as in the
/// oracle-memtrace end-to-end workload. Each prime admits the traces
/// every phase left behind; a phase runs only a part of them.
struct OraclePhaseFixture {
  workloads::OracleSetup Oracle = workloads::buildOracleSetup(0.25);
  bench::ScratchDir Dir{"pcc-bench-oracle"};
  persist::CacheDatabase Db{Dir.path()};
  support::ThreadPool Pool{2, /*Background=*/true};

  OraclePhaseFixture() {
    persist::PersistOptions Opts;
    Opts.Pool = &Pool;
    for (int Pass = 0; Pass != 2; ++Pass)
      for (const std::vector<uint8_t> &In : Oracle.PhaseInputs) {
        dbi::MemRefTraceTool Tool;
        bench::mustOk(workloads::runPersistent(Oracle.Registry, Oracle.App,
                                               In, Db, Opts, &Tool),
                      "warm-up run of an Oracle phase");
      }
  }
};

OraclePhaseFixture &oraclePhaseFixture() {
  static OraclePhaseFixture F;
  return F;
}

/// prime() plus the run of Oracle phase Arg (3 = Work) from the warm
/// shared database, write-back off so every iteration primes the same
/// plan. Counters: traces the prime admitted, and traces the run built
/// (deferred install builds a trace at its first lookup).
void BM_PrimeOraclePhase(benchmark::State &State) {
  OraclePhaseFixture &F = oraclePhaseFixture();
  const auto Phase = static_cast<unsigned>(State.range(0));
  persist::PersistOptions Opts;
  Opts.WriteBack = false;
  Opts.Pool = &F.Pool;
  uint32_t Admitted = 0;
  uint32_t Built = 0;
  for (auto _ : State) {
    auto M = workloads::makeMachine(F.Oracle.Registry, F.Oracle.App,
                                    F.Oracle.PhaseInputs[Phase]);
    if (!M)
      std::abort();
    dbi::MemRefTraceTool Tool;
    dbi::Engine Engine(*M, &Tool);
    persist::PersistentSession Session(F.Db, Opts);
    auto Prime = Session.prime(Engine);
    if (!Prime || !Prime->CacheFound)
      std::abort();
    vm::RunResult Run = Engine.run();
    if (!Run.ok())
      std::abort();
    Admitted = Prime->TracesInstalled;
    Built = Engine.cache().tracesBuilt();
  }
  State.counters["admitted"] = Admitted;
  State.counters["built"] = Built;
  State.SetLabel(workloads::oraclePhaseName(Phase));
}
BENCHMARK(BM_PrimeOraclePhase)->Arg(0)->Arg(3);

/// Fixture for the prime/execution overlap benchmark: the same scale of
/// application as PrimeFixture, but traced with MaxTraceInsts = 64.
/// Longer traces shift prime()'s cost balance away from trace install
/// (a per-trace constant) toward payload validation (CRC + decode,
/// proportional to instructions) — which is exactly the work the async
/// pipeline moves off the critical path. Cold-populated under
/// FirstBlockTimerTool, since the tool identity keys the cache and the
/// benchmark always runs under the timer.
struct OverlapFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir Dir{"pcc-bench-overlap"};
  persist::CacheDatabase Db{Dir.path()};
  dbi::EngineOptions EngineOpts;
  std::vector<uint8_t> WarmInput;

  OverlapFixture() {
    EngineOpts.MaxTraceInsts = 128;
    workloads::AppDef Def;
    Def.Name = "overlap";
    Def.Path = "/bin/overlap";
    for (uint32_t I = 0; I != 208; ++I) {
      workloads::RegionDef Region;
      Region.Name = "o" + std::to_string(I);
      Region.Blocks = 32;
      Region.InstsPerBlock = 16;
      Region.Seed = I + 301;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    std::vector<workloads::WorkItem> All;
    for (uint32_t I = 0; I != 208; ++I)
      All.push_back(workloads::WorkItem{I, 1});
    FirstBlockTimerTool Timer;
    bench::mustOk(workloads::runPersistent(
                      Registry, App, workloads::encodeWorkload(All), Db,
                      persist::PersistOptions(), &Timer, EngineOpts),
                  "cold run populating the overlap-bench cache");
    std::vector<workloads::WorkItem> Few;
    for (uint32_t I = 0; I != 2; ++I)
      Few.push_back(workloads::WorkItem{I, 1});
    WarmInput = workloads::encodeWorkload(Few);
  }
};

OverlapFixture &overlapFixture() {
  static OverlapFixture F;
  return F;
}

/// Time-to-first-trace-execution on a warm cache: from run start until
/// the first translated basic block executes. Arg 0 is the default
/// synchronous prime (lazy: each payload is CRC-checked and decoded at
/// its first execution); Arg N > 0 primes asynchronously with N
/// background workers, so execution starts while payload validation is
/// still in flight.
void BM_PrimeAsyncOverlap(benchmark::State &State) {
  OverlapFixture &F = overlapFixture();
  const bool Async = State.range(0) != 0;
  std::unique_ptr<support::ThreadPool> Pool;
  persist::PersistOptions Opts;
  Opts.WriteBack = false;
  if (Async) {
    Pool = std::make_unique<support::ThreadPool>(
        static_cast<size_t>(State.range(0)), /*Background=*/true);
    Opts.Pool = Pool.get();
  }
  for (auto _ : State) {
    FirstBlockTimerTool Timer;
    auto Start = std::chrono::steady_clock::now();
    auto R = workloads::runPersistent(F.Registry, F.App, F.WarmInput,
                                      F.Db, Opts, &Timer, F.EngineOpts);
    if (!R || !R->Prime.CacheFound || !Timer.Seen)
      std::abort();
    State.SetIterationTime(
        std::chrono::duration<double>(Timer.FirstBlock - Start).count());
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Async ? "async prime" : "synchronous lazy prime");
}
BENCHMARK(BM_PrimeAsyncOverlap)->Arg(0)->Arg(1)->Arg(2)->UseManualTime();

/// finalize() latency after a full run: snapshot, serialize, CRC and
/// publish, all on the calling thread.
void BM_FinalizeBackground(benchmark::State &State) {
  PrimeFixture &F = primeFixture();
  for (auto _ : State) {
    vm::Machine M = bench::mustOk(
        workloads::makeMachine(F.Registry, F.App, F.FullInput),
        "machine for the finalize bench");
    dbi::Engine Engine(M, nullptr);
    persist::PersistentSession Session(F.Db);
    bench::mustOk(Session.prime(Engine), "prime for the finalize bench");
    benchmark::DoNotOptimize(Engine.run());
    auto Start = std::chrono::steady_clock::now();
    Status Finalized = Session.finalize(Engine);
    auto End = std::chrono::steady_clock::now();
    if (!Finalized.ok())
      std::abort();
    State.SetIterationTime(
        std::chrono::duration<double>(End - Start).count());
  }
  State.SetLabel("inline publish");
}
BENCHMARK(BM_FinalizeBackground)->Arg(0)->UseManualTime();

/// The GUI suite persisted position-independent and execute-in-place
/// into one shared inter-application database, warmed until every
/// application primes from its own slot: the write-back path of a warm
/// GUI startup.
struct FinalizeXipFixture {
  workloads::GuiSuite Gui = workloads::buildGuiSuite();
  bench::ScratchDir Dir{"pcc-bench-finalize-xip"};
  persist::CacheDatabase Db{Dir.path()};
  persist::PersistOptions Opts;

  FinalizeXipFixture() {
    Opts.InterApplication = true;
    Opts.PositionIndependent = true;
    Opts.ExecuteInPlace = true;
    for (int Round = 0; Round != 2; ++Round)
      for (const workloads::GuiApp &A : Gui.Apps)
        bench::mustOk(workloads::runPersistent(Gui.Registry, A.App,
                                               A.StartupInput, Db, Opts),
                      "warming the finalize-xip database");
  }
};

FinalizeXipFixture &finalizeXipFixture() {
  static FinalizeXipFixture F;
  return F;
}

/// finalize() latency of a warm GUI startup (the gui-startup-xip path):
/// snapshot of a mostly borrowed XIP pool, carry-through, link closure,
/// heat-ordered layout, serialize and publish. Applications take turns.
void BM_FinalizeXip(benchmark::State &State) {
  FinalizeXipFixture &F = finalizeXipFixture();
  size_t Next = 0;
  uint64_t Installed = 0;
  for (auto _ : State) {
    const workloads::GuiApp &A = F.Gui.Apps[Next++ % F.Gui.Apps.size()];
    vm::Machine M = bench::mustOk(
        workloads::makeMachine(F.Gui.Registry, A.App, A.StartupInput),
        "machine for the finalize-xip bench");
    dbi::Engine Engine(M, nullptr);
    persist::PersistentSession Session(F.Db, F.Opts);
    persist::PrimeResult Primed = bench::mustOk(
        Session.prime(Engine), "prime for the finalize-xip bench");
    if (!Primed.XipInstalled)
      std::abort();
    benchmark::DoNotOptimize(Engine.run());
    auto Start = std::chrono::steady_clock::now();
    Status Finalized = Session.finalize(Engine);
    auto End = std::chrono::steady_clock::now();
    if (!Finalized.ok())
      std::abort();
    Installed += Primed.TracesInstalled;
    State.SetIterationTime(
        std::chrono::duration<double>(End - Start).count());
  }
  State.SetLabel(formatString(
      "%.0f traces primed per execution",
      State.iterations() ? double(Installed) / State.iterations() : 0.0));
}
BENCHMARK(BM_FinalizeXip)->UseManualTime();

/// Host-side cost of one cache open through the tiered store. Arg 0 is
/// an L1 hit, Arg 1 forces a read-through fetch from L2 on every open
/// (the L1 copy is retired first, so the fill + quota path runs each
/// iteration), Arg 2 is a miss in both tiers. The modeled remote cycles
/// are a guest-side charge; this measures what the *simulator* pays.
void BM_TieredLoad(benchmark::State &State) {
  auto L1 = std::make_shared<persist::MemoryStore>("<l1>");
  auto L2 = std::make_shared<persist::MemoryStore>("<remote>");
  persist::TieredStore Store(L1, L2);
  if (!Store.put(1, makeCacheFile(256)).ok())
    std::abort();
  const int Mode = static_cast<int>(State.range(0));
  for (auto _ : State) {
    if (Mode == 1 && !L1->retire(1).ok())
      std::abort();
    uint64_t Key = Mode == 2 ? 999 : 1;
    auto R = Store.openKey(Key, persist::CacheFileView::Depth::Index);
    if ((Mode == 2) == R.ok())
      std::abort();
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Mode == 0   ? "L1 hit"
                 : Mode == 1 ? "L2 read-through fetch"
                             : "miss in both tiers");
}
BENCHMARK(BM_TieredLoad)->Arg(0)->Arg(1)->Arg(2);

/// End-to-end host cost of one small fleet simulation (64 machines x 3
/// rounds), Arg 0 without and Arg 1 with the shared L2. The label
/// carries the cumulative hit rate, so the run doubles as a smoke check
/// that the tiered fleet actually converges.
void BM_FleetConvergence(benchmark::State &State) {
  workloads::FleetOptions Opts;
  Opts.Machines = 64;
  Opts.Rounds = 3;
  Opts.Libraries = 4;
  Opts.RegionsPerLibrary = 6;
  Opts.WithL2 = State.range(0) != 0;
  uint64_t Hits = 0, Runs = 0;
  for (auto _ : State) {
    auto R = workloads::runFleet(Opts);
    if (!R || (Opts.WithL2 && !R->MonotoneConvergence))
      std::abort();
    Hits += R->TotalHits;
    Runs += R->TotalRuns;
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(formatString(
      "%s, cumulative hit rate %.1f%%",
      Opts.WithL2 ? "shared L2" : "no L2",
      Runs ? 100.0 * double(Hits) / double(Runs) : 0.0));
}
BENCHMARK(BM_FleetConvergence)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Input of the engine-throughput benchmark: every region, 50 times.
std::vector<uint8_t> engineThroughputInput() {
  std::vector<workloads::WorkItem> Items;
  for (uint32_t I = 0; I != 16; ++I)
    Items.push_back(workloads::WorkItem{I, 50});
  return workloads::encodeWorkload(Items);
}

/// The shared fixture's program on the engine-throughput input,
/// persisted with the optimization tier on until its hot traces run as
/// promoted (generation >= 1) bodies.
struct PromotedEngineFixture {
  bench::ScratchDir Dir{"pcc-bench-engine-opt"};
  persist::CacheDatabase Db{Dir.path()};

  PromotedEngineFixture() {
    Fixture &F = fixture();
    persist::PersistOptions Opt;
    Opt.OptTier = true;
    // A cold run, then a warm run whose finalize promotes the hot traces.
    for (int Run = 0; Run != 2; ++Run)
      bench::mustOk(workloads::runPersistent(F.Registry, F.App,
                                             engineThroughputInput(), Db,
                                             Opt),
                    "run populating the promoted engine cache");
  }
};

PromotedEngineFixture &promotedEngineFixture() {
  static PromotedEngineFixture F;
  return F;
}

/// Guest instructions per second under the engine with no tool. Arg 0
/// runs without persistence, so every body is a freshly compiled
/// generation-0 body threaded in place; Arg 1 primes read-only from a
/// warm opt-tier database, so the hot traces run as promoted bodies
/// over their live-op streams. Arg 1 skips certificate checks to keep
/// the time on execution; its label reports the Nop slots the streams
/// compacted away.
void BM_EngineThroughput(benchmark::State &State) {
  Fixture &F = fixture();
  const bool Promoted = State.range(0) != 0;
  const std::vector<uint8_t> Input = engineThroughputInput();
  const persist::CacheDatabase *Db =
      Promoted ? &promotedEngineFixture().Db : nullptr;
  persist::PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  ReadOnly.CheckCertificates = false;
  uint64_t GuestInsts = 0;
  uint64_t OptNops = 0;
  for (auto _ : State) {
    if (Promoted) {
      auto R =
          workloads::runPersistent(F.Registry, F.App, Input, *Db, ReadOnly);
      if (!R || !R->Prime.CacheFound || R->Stats.OptNopsExecuted == 0)
        std::abort(); // The leg must run promoted bodies.
      GuestInsts += R->Run.InstructionsExecuted;
      OptNops = R->Stats.OptNopsExecuted;
      benchmark::DoNotOptimize(R);
    } else {
      auto R = workloads::runUnderEngine(F.Registry, F.App, Input);
      if (R)
        GuestInsts += R->Run.InstructionsExecuted;
      benchmark::DoNotOptimize(R);
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(GuestInsts));
  State.SetLabel(Promoted ? formatString("guest insts/s, %llu promoted "
                                         "nop slots per run",
                                         (unsigned long long)OptNops)
                          : std::string("guest insts/s"));
}
BENCHMARK(BM_EngineThroughput)->Arg(0)->Arg(1);

/// A persisted database plus the serialized guest module that resolves
/// it, for the deep semantic-verification benchmark.
struct DeepVerifyFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir Dir{"pcc-bench-deep"};
  bench::ScratchDir ModDir{"pcc-bench-deep-mod"};
  persist::CacheDatabase Db{Dir.path()};

  DeepVerifyFixture() {
    workloads::AppDef Def;
    Def.Name = "deep";
    Def.Path = "/bin/deep";
    for (uint32_t I = 0; I != 32; ++I) {
      workloads::RegionDef Region;
      Region.Name = "d" + std::to_string(I);
      Region.Blocks = 16;
      Region.InstsPerBlock = 12;
      Region.Seed = I + 501;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    std::vector<workloads::WorkItem> All;
    for (uint32_t I = 0; I != 32; ++I)
      All.push_back(workloads::WorkItem{I, 1});
    bench::mustOk(workloads::runPersistent(
                      Registry, App, workloads::encodeWorkload(All), Db),
                  "cold run populating the deep-verify cache");
    if (!writeFileAtomic(ModDir.path() + "/app.mod", App->serialize())
             .ok())
      std::abort();
  }
};

DeepVerifyFixture &deepVerifyFixture() {
  static DeepVerifyFixture F;
  return F;
}

/// pcc-dbcheck --deep over a persisted database: CRC pass plus a
/// symbolic equivalence proof of every trace against its module's guest
/// code. Arg is the worker count — 1 checks serially, N fans the
/// per-file passes across a thread pool.
void BM_DeepVerify(benchmark::State &State) {
  DeepVerifyFixture &F = deepVerifyFixture();
  const auto Jobs = static_cast<size_t>(State.range(0));
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<support::ThreadPool>(Jobs);
  persist::DbCheckOptions Opts;
  Opts.Deep = true;
  Opts.Pool = Pool.get();
  Opts.ModulePaths.push_back(F.ModDir.path() + "/app.mod");
  uint64_t Verified = 0;
  for (auto _ : State) {
    auto Report = persist::checkDatabase(F.Dir.path(), Opts);
    if (!Report || Report->TracesMismatched != 0 ||
        Report->TracesVerified == 0)
      std::abort();
    Verified += Report->TracesVerified;
    benchmark::DoNotOptimize(Report);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Verified));
  State.SetLabel("traces proved");
}
BENCHMARK(BM_DeepVerify)->Arg(1)->Arg(4);

/// Engine run with the dead-def elision pass off (Arg 0) and on
/// (Arg 1). The pass costs liveness plus a validator proof per
/// compiled trace, so the delta is the compile-time price of the
/// optimization; guest-visible results and architectural statistics
/// are identical either way.
void BM_FlagElision(benchmark::State &State) {
  Fixture &F = fixture();
  dbi::EngineOptions Opts;
  Opts.OptimizeFlags = State.range(0) != 0;
  std::vector<workloads::WorkItem> Items;
  for (uint32_t I = 0; I != 16; ++I)
    Items.push_back(workloads::WorkItem{I, 50});
  auto Input = workloads::encodeWorkload(Items);
  uint64_t Proved = 0;
  uint64_t Elided = 0;
  for (auto _ : State) {
    auto R = workloads::runUnderEngine(F.Registry, F.App, Input,
                                       nullptr, Opts);
    if (!R || R->Stats.VerifyFailures != 0)
      std::abort();
    Proved += R->Stats.TracesVerified;
    Elided += R->Stats.FlagsElided;
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Opts.OptimizeFlags
                     ? formatString("%llu traces proved, %llu defs elided",
                                    (unsigned long long)Proved,
                                    (unsigned long long)Elided)
                     : "elision off");
}
BENCHMARK(BM_FlagElision)->Arg(0)->Arg(1);

/// Fixture for the heat-ordered layout benchmark: 128 small regions,
/// every 8th one hot, persisted twice — once as finalize writes today
/// (hot-first payload layout) and once re-sorted into guest-address
/// order (the pre-heat-layout writer) — so the page-touch bill of a
/// warm run over just the hot slots is measured over identical trace
/// populations.
struct HotFirstFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir HotDir{"pcc-bench-hotfirst"};
  bench::ScratchDir AddrDir{"pcc-bench-addrorder"};
  persist::CacheDatabase HotDb{HotDir.path()};
  persist::CacheDatabase AddrDb{AddrDir.path()};
  std::vector<uint8_t> WarmInput;

  HotFirstFixture() {
    workloads::AppDef Def;
    Def.Name = "hotfirst";
    Def.Path = "/bin/hotfirst";
    for (uint32_t I = 0; I != 128; ++I) {
      workloads::RegionDef Region;
      Region.Name = "h" + std::to_string(I);
      Region.Blocks = 2;
      Region.InstsPerBlock = 10;
      Region.Seed = I + 901;
      Def.Slots.push_back(
          workloads::FunctionSlot::local(std::move(Region)));
    }
    App = workloads::buildExecutable(Def);
    // Cold run: everything executes once, but every 8th slot re-runs
    // enough to dominate the heat counters — a hot minority scattered
    // across the whole address space.
    // Hot slots are heated by *repeated work items*, not a bigger
    // iteration count: repeating the call re-executes the region's
    // whole trace path (entry, body, exit), so every trace the warm
    // run will walk ranks above the run-once majority.
    std::vector<workloads::WorkItem> Cold;
    for (uint32_t I = 0; I != 128; ++I)
      for (uint32_t Rep = 0, N = I % 8 == 0 ? 12u : 1u; Rep != N; ++Rep)
        Cold.push_back(workloads::WorkItem{I, 1});
    bench::mustOk(workloads::runPersistent(
                      Registry, App, workloads::encodeWorkload(Cold),
                      HotDb),
                  "cold run populating the hot-first bench cache");
    // Address-ordered baseline: the identical records with the payload
    // re-laid-out by guest start, stored under the same lookup key.
    auto Names = listDirectory(HotDir.path());
    if (!Names)
      std::abort();
    std::string PccName;
    for (const std::string &N : *Names)
      if (N.size() >= 4 && N.substr(N.size() - 4) == ".pcc")
        PccName = N;
    if (PccName.empty())
      std::abort();
    auto File = HotDb.loadPath(HotDir.path() + "/" + PccName);
    if (!File)
      std::abort();
    std::stable_sort(File->Traces.begin(), File->Traces.end(),
                     [](const persist::TraceRecord &A,
                        const persist::TraceRecord &B) {
                       return A.GuestStart < B.GuestStart;
                     });
    uint64_t Key = std::strtoull(
        PccName.substr(0, PccName.size() - 4).c_str(), nullptr, 16);
    if (!AddrDb.store(Key, *File).ok())
      std::abort();
    // Warm work list: one call per hot slot — the exact trace path the
    // cold run heated.
    std::vector<workloads::WorkItem> Warm;
    for (uint32_t I = 0; I != 128; I += 8)
      Warm.push_back(workloads::WorkItem{I, 1});
    WarmInput = workloads::encodeWorkload(Warm);
  }
};

HotFirstFixture &hotFirstFixture() {
  static HotFirstFixture F;
  return F;
}

/// Warm prime + hot-slots-only run, Arg 0 over the address-ordered
/// payload layout and Arg 1 over the hot-first layout finalize writes.
/// With lazy validation only the executed traces' payload pages fault
/// in, so packing the hot traces first shrinks the pages-touched bill
/// (BM_PrimeCold's metric) without changing a single record.
void BM_PrimeHotFirst(benchmark::State &State) {
  HotFirstFixture &F = hotFirstFixture();
  const bool HotFirst = State.range(0) != 0;
  persist::PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  persist::SharedResidencyMap Touched;
  ReadOnly.SharedResidency = &Touched;
  uint64_t Installed = 0;
  uint64_t PagesTouched = 0;
  for (auto _ : State) {
    Touched.clear();
    auto R = workloads::runPersistent(F.Registry, F.App, F.WarmInput,
                                      HotFirst ? F.HotDb : F.AddrDb,
                                      ReadOnly);
    if (!R || !R->Prime.CacheFound)
      std::abort();
    Installed = R->Prime.TracesInstalled;
    PagesTouched = Touched.residentPages();
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(formatString(
      "%s payload layout: %llu traces primed, %llu payload pages "
      "touched by the hot slots",
      HotFirst ? "hot-first" : "address-ordered",
      (unsigned long long)Installed,
      (unsigned long long)PagesTouched));
}
BENCHMARK(BM_PrimeHotFirst)->Arg(0)->Arg(1);

/// A hot loop whose body re-loads the same word it just loaded — the
/// redundancy the finalize-time optimization tier eliminates. Written
/// by hand so the win is structural, not an accident of the generator.
constexpr const char *OptWarmAsm = R"(
.module optwarm "/bin/optwarm"
.entry main
.data
count: .word 512
buf:   .word 7
.text
main:
  ldi r4, @count
  ld r10, [r4+0]
  ldi r9, @buf
  ldi r12, 0
loop:
  ld r1, [r9+0]
  add r2, r1, r1
  ld r1, [r9+0]
  add r3, r1, r2
  ld r1, [r9+0]
  add r2, r1, r3
  addi r10, r10, -1
  bne r10, r12, loop
  ldi r1, 0
  sys 1
)";

/// Fixture for the optimization-tier benchmark: the same hand-written
/// redundant-load program persisted twice, once plain (generation 0)
/// and once with the finalize promotion tier on (generation 1+). The
/// constructor asserts the tier's contract: cold-run modeled cycles
/// are bit-identical (promotion is free background work), warm
/// guest-visible results agree, and the promoted warm run costs
/// strictly fewer modeled cycles.
struct OptTierFixture {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir Gen0Dir{"pcc-bench-opt0"};
  bench::ScratchDir Gen1Dir{"pcc-bench-opt1"};
  persist::CacheDatabase Gen0Db{Gen0Dir.path()};
  persist::CacheDatabase Gen1Db{Gen1Dir.path()};

  OptTierFixture() {
    auto M = binary::assemble(OptWarmAsm);
    if (!M)
      std::abort();
    App = std::make_shared<binary::Module>(M.take());
    persist::PersistOptions Plain;
    auto Cold0 = bench::mustOk(
        workloads::runPersistent(Registry, App, {}, Gen0Db, Plain),
        "cold run populating the gen-0 opt-tier cache");
    persist::PersistOptions Opt;
    Opt.OptTier = true;
    auto Cold1 = bench::mustOk(
        workloads::runPersistent(Registry, App, {}, Gen1Db, Opt),
        "cold run populating the promoted opt-tier cache");
    if (Cold0.Stats.totalCycles() != Cold1.Stats.totalCycles())
      std::abort(); // Promotion must never charge the cold run.
    persist::PersistOptions ReadOnly;
    ReadOnly.WriteBack = false;
    auto Warm0 = bench::mustOk(
        workloads::runPersistent(Registry, App, {}, Gen0Db, ReadOnly),
        "gen-0 warm run");
    auto Warm1 = bench::mustOk(
        workloads::runPersistent(Registry, App, {}, Gen1Db, ReadOnly),
        "promoted warm run");
    if (Warm0.Run.ExitCode != Warm1.Run.ExitCode ||
        Warm0.Run.InstructionsExecuted != Warm1.Run.InstructionsExecuted)
      std::abort(); // Architectural results must be identical.
    if (Warm1.Stats.ExecCycles >= Warm0.Stats.ExecCycles)
      std::abort(); // The promoted cache must show a modeled exec win.
  }
};

OptTierFixture &optTierFixture() {
  static OptTierFixture F;
  return F;
}

/// Warm run of the redundant-load program, Arg 0 primed from the gen-0
/// cache and Arg 1 from the promoted (gen-1+) cache. The label carries
/// the modeled cycle split; eliminated loads execute as discounted
/// Nops, so the promoted leg's translated-exec bill is strictly lower
/// at identical guest-visible results.
void BM_OptTierWarm(benchmark::State &State) {
  OptTierFixture &F = optTierFixture();
  const bool Promoted = State.range(0) != 0;
  persist::PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  uint64_t Exec = 0;
  uint64_t Total = 0;
  uint64_t NopsDiscounted = 0;
  for (auto _ : State) {
    auto R = workloads::runPersistent(F.Registry, F.App, {},
                                      Promoted ? F.Gen1Db : F.Gen0Db,
                                      ReadOnly);
    if (!R || !R->Prime.CacheFound)
      std::abort();
    Exec = R->Stats.ExecCycles;
    Total = R->Stats.totalCycles();
    NopsDiscounted = R->Stats.OptNopsExecuted;
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(formatString(
      "%s: %llu modeled exec cycles (%llu total, %llu eliminated-load "
      "nops discounted)",
      Promoted ? "gen-1+ cache" : "gen-0 cache",
      (unsigned long long)Exec, (unsigned long long)Total,
      (unsigned long long)NopsDiscounted));
}
BENCHMARK(BM_OptTierWarm)->Arg(0)->Arg(1);

/// Fixture for the proof-check benchmark: a certified cache grown by
/// the real opt-tier pipeline (cold run hot enough to promote), with
/// every promoted record's guest start, certificate blob, embedded
/// source, and decoded gen-N body pre-extracted so the measured loop
/// is pure proof work — trusted-checker replay vs full re-prove.
struct ProofCheckFixture {
  struct Item {
    uint32_t GuestStart = 0;
    std::vector<isa::Instruction> Source;
    std::vector<isa::Instruction> Body;
    std::vector<uint8_t> Cert;
    /// Raw at-rest encodings of Source/Body, kept alive so the checker
    /// can run its binding CRCs over stored bytes (CertBindings) the
    /// way dbcheck and L2 fills do.
    std::vector<uint8_t> SrcBytes;
    std::vector<uint8_t> BodyBytes;
  };
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> App;
  bench::ScratchDir Dir{"pcc-bench-proof"};
  persist::CacheDatabase Db{Dir.path()};
  std::vector<Item> Items;

  ProofCheckFixture() {
    // Several hot loops with superblock-scale straight-line bodies: a
    // long run of distinct loads, a redundantly re-loaded word whose
    // first occurrence sits late in the load order, and a long ALU
    // dependence chain over the loaded values. The finalize tier
    // promotes each body and eliminates the repeated loads, so the
    // full re-prove pays its map-based hash-consing per expression
    // plus a linear witness search per eliminated load, while the
    // trusted checker verifies recorded steps and witnesses in
    // constant time each — the record shape the certificate layer
    // exists for.
    std::string Asm = ".module proof \"/bin/proof\"\n"
                      ".entry main\n"
                      ".data\n"
                      "count: .word 96\n"
                      "buf:   .space 1024\n"
                      ".text\n"
                      "main:\n"
                      "  ldi r9, @buf\n"
                      "  ldi r12, 0\n";
    for (int L = 0; L != 6; ++L) {
      Asm += formatString("  ldi r4, @count\n"
                          "  ld r10, [r4+0]\n"
                          "loop%d:\n",
                          L);
      for (int I = 0; I != 238; ++I)
        Asm += formatString("  ld r1, [r9+%d]\n", 4 + 4 * I);
      for (int I = 0; I != 12; ++I)
        Asm += "  ld r5, [r9+0]\n";
      Asm += formatString("  add r2, r5, r1\n"
                          "  addi r10, r10, -1\n"
                          "  bne r10, r12, loop%d\n",
                          L);
    }
    Asm += "  ldi r1, 0\n  sys 1\n";
    auto M = binary::assemble(Asm.c_str());
    if (!M)
      std::abort();
    App = std::make_shared<binary::Module>(M.take());
    persist::PersistOptions Opt;
    Opt.OptTier = true;
    dbi::EngineOptions EngineOpts;
    EngineOpts.MaxTraceInsts = 256; // Superblock-scale trace bodies.
    bench::mustOk(workloads::runPersistent(Registry, App, {}, Db, Opt,
                                           nullptr, EngineOpts),
                  "cold run populating the certified proof cache");
    auto Names = listDirectory(Dir.path());
    if (!Names)
      std::abort();
    for (const std::string &Name : *Names) {
      if (Name.size() < 4 || Name.substr(Name.size() - 4) != ".pcc")
        continue;
      auto File = Db.loadPath(Dir.path() + "/" + Name);
      if (!File)
        std::abort();
      for (const persist::TraceRecord &Rec : File->Traces) {
        if (Rec.OptGen == 0 || Rec.Cert.empty())
          continue;
        auto Cert = analysis::Certificate::deserialize(Rec.Cert.data(),
                                                       Rec.Cert.size());
        auto Body = isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                                   Rec.GuestInstCount);
        if (!Cert || !Body)
          std::abort();
        const uint8_t *Enc = Rec.Code.data() + dbi::TracePrologueBytes;
        const size_t EncLen =
            static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
        Items.push_back(Item{Rec.GuestStart, Cert->Source, Body.take(),
                             Rec.Cert, isa::encodeAll(Cert->Source),
                             std::vector<uint8_t>(Enc, Enc + EncLen)});
      }
    }
    if (Items.empty())
      std::abort(); // No promoted traces: the benchmark would be vacuous.
    if (getenv("PCC_PROOF_SIZES")) {
      for (const Item &It : Items) {
        auto C = bench::mustOk(analysis::Certificate::deserialize(
                                   It.Cert.data(), It.Cert.size()),
                               "size probe");
        std::fprintf(stderr,
                     "body=%zu insts cert=%zu B steps=%zu wits=%zu "
                     "flat-steps=%zu B src-section=%zu B\n",
                     It.Body.size(), It.Cert.size(), C.Steps.size(),
                     C.Witnesses.size(), C.Steps.size() * 4,
                     It.SrcBytes.size());
      }
    }
    for (const Item &It : Items) {
      if (!analysis::checkCertificateBlob(It.Cert.data(), It.Cert.size(),
                                          It.GuestStart, It.Body, &It.Source)
               .ok())
        std::abort();
      if (!analysis::validateTranslation(It.GuestStart, It.Source, It.Body)
               .Equivalent)
        std::abort();
    }
  }
};

ProofCheckFixture &proofCheckFixture() {
  static ProofCheckFixture F;
  return F;
}

/// Prime-time proof work over every promoted trace of the certified
/// cache. Args are {mode, jobs}: mode 0 replays the persisted
/// certificate through the minimal trusted checker
/// (analysis::checkCertificateBlob), mode 1 re-proves from scratch with
/// the full validator; jobs 1 runs serially, jobs N fans the per-trace
/// work across a thread pool (the shape of parallel prime). Any
/// rejected proof aborts — these are untampered records, so both modes
/// must accept everything.
void BM_ProofCheck(benchmark::State &State) {
  ProofCheckFixture &F = proofCheckFixture();
  const bool Reprove = State.range(0) != 0;
  const auto Jobs = static_cast<size_t>(State.range(1));
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<support::ThreadPool>(Jobs);
  uint64_t Checked = 0;
  for (auto _ : State) {
    std::atomic<uint64_t> Bad{0};
    auto CheckOne = [&](size_t I) {
      const ProofCheckFixture::Item &It = F.Items[I];
      if (Reprove) {
        auto R =
            analysis::validateTranslation(It.GuestStart, It.Source, It.Body);
        if (!R.Equivalent)
          ++Bad;
        benchmark::DoNotOptimize(R);
      } else {
        // Bind the at-rest encodings exactly as a primed install or a
        // dbcheck sweep would, so the measured check is the deployed
        // fast path.
        analysis::CertBindings Bind;
        Bind.BodyBytes = It.BodyBytes.data();
        Bind.BodyByteCount = It.BodyBytes.size();
        Bind.SourceBytes = It.SrcBytes.data();
        Bind.SourceByteCount = It.SrcBytes.size();
        auto R = analysis::checkCertificateBlob(It.Cert.data(),
                                                It.Cert.size(), It.GuestStart,
                                                It.Body, &It.Source, &Bind);
        if (!R.ok())
          ++Bad;
        benchmark::DoNotOptimize(R);
      }
    };
    if (Pool)
      Pool->parallelFor(F.Items.size(), CheckOne);
    else
      for (size_t I = 0; I != F.Items.size(); ++I)
        CheckOne(I);
    if (Bad.load() != 0)
      std::abort();
    Checked += F.Items.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Checked));
  State.SetLabel(formatString(
      "%s, %zu promoted traces",
      Reprove ? "full re-prove" : "certificate check", F.Items.size()));
}
BENCHMARK(BM_ProofCheck)->Args({0, 1})->Args({0, 4})->Args({1, 1})->Args({1, 4});

} // namespace

BENCHMARK_MAIN();
