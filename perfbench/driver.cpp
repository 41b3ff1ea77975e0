//===- perfbench/driver.cpp - End-to-end benchmark driver -----------------===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one of the paper's workloads as a closed loop — one client, each
/// guest process ("execution") starting only after the previous one has
/// finished — and reports end-to-end metrics in host time and modeled
/// cycles, or, in a traced run, per-layer metrics.
///
/// One execution is one guest process: makeMachine, Engine construction,
/// PersistentSession::prime, Engine::run, finalize, wait, and teardown.
/// Every layer is measured from outside: spans around the calls into its
/// public functions, plus the EngineStats and PrimeResult counters. The
/// library itself is not instrumented.
///
/// Set-up builds the workload, runs one native reference per execution,
/// runs the no-persistence baseline, and warms a fresh database until one
/// full pass compiles and promotes nothing; the timed window is therefore
/// steady state. The window runs whole passes, so every modeled metric is
/// an average over complete passes and repeats exactly for a given seed
/// and number of passes.
///
/// The last line of standard output is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
//===----------------------------------------------------------------------===//

#include "dbi/Tool.h"
#include "persist/Session.h"
#include "support/FileSystem.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Runner.h"
#include "workloads/Spec2k.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace pcc;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point ProcessStart = Clock::now();

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ProcessStart)
          .count());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log, written out as Chrome trace-event JSON at exit.
class SpanLog {
public:
  struct Span {
    const char *Name = "";
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
    uint32_t Parent = 0; ///< 1-based index of the parent span, 0 = root.
    uint64_t Exec = 0;   ///< Execution id, 0 outside executions.
  };

  uint32_t begin(const char *Name, uint32_t Parent, uint64_t Exec) {
    Spans.push_back({Name, nowNs(), 0, Parent, Exec});
    return static_cast<uint32_t>(Spans.size());
  }
  void end(uint32_t Id) { Spans[Id - 1].EndNs = nowNs(); }

  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
};

/// RAII span; a null log makes it a no-op (untraced passes).
class Scope {
public:
  Scope(SpanLog *Log, const char *Name, uint32_t Parent, uint64_t Exec = 0)
      : Log(Log), Id(Log ? Log->begin(Name, Parent, Exec) : 0) {}
  ~Scope() {
    if (Log)
      Log->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

  uint32_t id() const { return Id; }

private:
  SpanLog *Log;
  uint32_t Id;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Job {
  std::shared_ptr<const binary::Module> App;
  const std::vector<uint8_t> *Input = nullptr;
};

struct Workload {
  std::string Name;
  const loader::ModuleRegistry *Registry = nullptr;
  std::vector<Job> Jobs;
  persist::PersistOptions Opts;
  bool MemTrace = false;
  bool Shuffle = false;
  /// Owners of the suites Registry and Jobs point into.
  std::unique_ptr<workloads::SpecSuite> Spec;
  std::unique_ptr<workloads::GuiSuite> Gui;
  std::unique_ptr<workloads::OracleSetup> Oracle;
};

bool isKnownWorkload(const std::string &Name) {
  return Name == "spec-ref-opt" || Name == "spec-ref-noopt" ||
         Name == "gui-startup-xip" || Name == "oracle-memtrace";
}

/// Hot-loop iterations of the SPEC-like Reference inputs, as a share of
/// buildSpecSuite()'s. At full length a pass takes about 2 s, so a window
/// holds only a handful of executions per job, too few to read a steady
/// host time on a busy host; a quarter keeps every trace, promotion and
/// certificate check, and the run still dominates each execution.
constexpr double SpecScale = 0.25;

/// Builds \p Name. spec-ref-noopt is spec-ref-opt without the opt tier;
/// it is not a benchmark workload, only the ablation that shows whether
/// the opt tier's modeled discount reaches host time.
Workload buildWorkload(const std::string &Name, double Scale,
                       support::ThreadPool *Pool) {
  Workload W;
  W.Name = Name;
  if (Name == "spec-ref-opt" || Name == "spec-ref-noopt") {
    W.Spec = std::make_unique<workloads::SpecSuite>(
        workloads::buildSpecSuite(SpecScale * Scale));
    W.Registry = &W.Spec->Registry;
    for (const workloads::SpecBenchmark &B : W.Spec->Benchmarks)
      for (const std::vector<uint8_t> &In : B.RefInputs)
        W.Jobs.push_back({B.App, &In});
    W.Opts.OptTier = Name == "spec-ref-opt";
    W.Shuffle = true;
  } else if (Name == "gui-startup-xip") {
    W.Gui = std::make_unique<workloads::GuiSuite>(workloads::buildGuiSuite());
    W.Registry = &W.Gui->Registry;
    for (const workloads::GuiApp &A : W.Gui->Apps)
      W.Jobs.push_back({A.App, &A.StartupInput});
    W.Opts.InterApplication = true;
    W.Opts.PositionIndependent = true;
    W.Opts.ExecuteInPlace = true;
    W.Shuffle = true;
  } else {
    // The phase order Start -> Mount -> Open -> Work -> Close is part of
    // the scenario, so the seed does not shuffle it.
    W.Oracle = std::make_unique<workloads::OracleSetup>(
        workloads::buildOracleSetup(Scale));
    W.Registry = &W.Oracle->Registry;
    for (const std::vector<uint8_t> &In : W.Oracle->PhaseInputs)
      W.Jobs.push_back({W.Oracle->App, &In});
    W.Opts.Pool = Pool;
    W.MemTrace = true;
  }
  return W;
}

std::unique_ptr<dbi::Tool> makeTool(const Workload &W) {
  if (W.MemTrace)
    return std::make_unique<dbi::MemRefTraceTool>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// One execution
//===----------------------------------------------------------------------===//

struct ExecSample {
  uint32_t Job = 0;
  bool Traced = false;
  bool Ok = false;
  std::string Error;
  uint64_t ExecNs = 0;
  uint64_t ReadyNs = 0;
  uint64_t RunNs = 0;
  uint64_t RunCycles = 0; ///< Modeled cycles at the end of run().
  size_t ModulesMapped = 0;
  dbi::EngineStats Stats;
  persist::PrimeResult Prime;
};

/// Runs the guest process of one execution into \p S and \p Run. The
/// execution span and S.ExecNs end with its teardown.
Status runProcess(const Workload &W, const Job &J,
                  const persist::CacheDatabase &Db, SpanLog *Log,
                  uint64_t ExecId, ExecSample &S, vm::RunResult &Run) {
  const uint64_t Start = nowNs();
  Scope Exec(Log, "execution", 0, ExecId);
  const uint32_t Root = Exec.id();

  std::optional<vm::Machine> M;
  std::unique_ptr<dbi::Tool> Tool;
  std::optional<dbi::Engine> Engine;
  std::optional<persist::PersistentSession> Session;

  Status St = [&]() -> Status {
    {
      Scope L(Log, "loader.makeMachine", Root, ExecId);
      auto Made = workloads::makeMachine(*W.Registry, J.App, *J.Input);
      if (!Made)
        return Made.status();
      M.emplace(Made.take());
    }
    S.ModulesMapped = M->image().Modules.size();
    {
      Scope L(Log, "dbi.Engine", Root, ExecId);
      Tool = makeTool(W);
      Engine.emplace(*M, Tool.get(), dbi::EngineOptions());
    }
    {
      Scope L(Log, "persist.prime", Root, ExecId);
      Session.emplace(Db, W.Opts);
      auto Primed = Session->prime(*Engine);
      if (!Primed)
        return Primed.status();
      S.Prime = Primed.take();
    }
    S.ReadyNs = nowNs() - Start;
    {
      Scope L(Log, "dbi.run", Root, ExecId);
      const uint64_t RunStart = nowNs();
      Run = Engine->run();
      S.RunNs = nowNs() - RunStart;
    }
    S.RunCycles = Engine->stats().totalCycles();
    {
      Scope L(Log, "persist.finalize", Root, ExecId);
      Status F = Session->finalize(*Engine);
      if (!F.ok())
        return F;
    }
    {
      Scope L(Log, "persist.wait", Root, ExecId);
      Status Waited = Session->wait(&Engine->stats());
      if (!Waited.ok())
        return Waited;
    }
    S.Stats = Engine->stats();
    return Run.Error;
  }();
  {
    Scope L(Log, "teardown", Root, ExecId);
    Session.reset();
    Engine.reset();
    Tool.reset();
    M.reset();
  }
  S.ExecNs = nowNs() - Start;
  return St;
}

ExecSample runExecution(const Workload &W, uint32_t JobIdx,
                        const persist::CacheDatabase &Db,
                        const vm::RunResult &Reference, SpanLog *Log,
                        uint64_t ExecId) {
  ExecSample S;
  S.Job = JobIdx;
  S.Traced = Log != nullptr;
  vm::RunResult Run;
  Status St = runProcess(W, W.Jobs[JobIdx], Db, Log, ExecId, S, Run);
  if (St.ok() && !Run.observablyEquals(Reference))
    St = Status::error(ErrorCode::InvalidArgument,
                       "output differs from the native reference");
  S.Ok = St.ok();
  if (!St.ok())
    S.Error = St.toString();
  return S;
}

//===----------------------------------------------------------------------===//
// Statistics helpers
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile, \p P in (0, 1].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return ratio(S, static_cast<double>(V.size()));
}

/// Resets the process's peak resident set size (VmHWM) to its current
/// size, so that a later peakRssKib() covers only what runs after this.
/// Returns false where the kernel does not allow it.
bool resetPeakRss() {
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  const bool Written = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Written;
}

/// VmHWM of this process in KiB, or ru_maxrss where /proc is unreadable.
double peakRssKib() {
  if (FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    unsigned long Kib = 0;
    bool Found = false;
    while (!Found && std::fgets(Line, sizeof(Line), F))
      Found = std::sscanf(Line, "VmHWM: %lu kB", &Kib) == 1;
    std::fclose(F);
    if (Found)
      return static_cast<double>(Kib);
  }
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss);
}

void shuffle(std::vector<uint32_t> &Order, Rng &R) {
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".perfbench/work";
  std::string TraceOut;
  std::string Commit = "unknown";
  double Scale = 1.0;
  /// Run exactly this many window passes instead of --seconds (0: time).
  uint32_t Passes = 0;
  uint32_t Workers = 2;
  /// Minimum set-up repetitions; setup_s is their median. Traced runs,
  /// which do not report setup_s, set up once by default.
  uint32_t SetupReps = 3;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: pcc-perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--commit SHA] [--scale X] [--passes N] [--workers N] "
               "[--setup-reps N]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool RepsGiven = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    auto num = [&](const char *What) {
      double D = std::strtod(Val.c_str(), &End);
      if (End == Val.c_str() || *End != '\0' || !(D >= 0))
        usage((std::string("bad value for ") + What).c_str());
      return D;
    };
    if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = static_cast<uint64_t>(num("--seed"));
    else if (Flag == "--seconds")
      O.Seconds = num("--seconds");
    else if (Flag == "--trace")
      O.Trace = num("--trace") != 0;
    else if (Flag == "--work-dir")
      O.WorkDir = Val;
    else if (Flag == "--trace-out")
      O.TraceOut = Val;
    else if (Flag == "--commit")
      O.Commit = Val;
    else if (Flag == "--scale")
      O.Scale = num("--scale");
    else if (Flag == "--passes")
      O.Passes = static_cast<uint32_t>(num("--passes"));
    else if (Flag == "--workers")
      O.Workers = static_cast<uint32_t>(num("--workers"));
    else if (Flag == "--setup-reps") {
      O.SetupReps = static_cast<uint32_t>(num("--setup-reps"));
      RepsGiven = true;
    } else
      usage(("unknown flag " + Flag).c_str());
  }
  if (!isKnownWorkload(O.Workload))
    usage("--workload must be spec-ref-opt, gui-startup-xip, "
          "oracle-memtrace or spec-ref-noopt");
  if (O.Scale <= 0 || O.SetupReps == 0)
    usage("--scale and --setup-reps must be positive");
  if (O.Trace && !RepsGiven)
    O.SetupReps = 1;
  return O;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

[[noreturn]] void fatal(const std::string &Msg, int Code = 2) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(Code);
}

struct SetupResult {
  Workload W;
  std::vector<vm::RunResult> Native;
  std::vector<uint64_t> BaselineCycles;
  std::unique_ptr<persist::CacheDatabase> Db;
  uint64_t BuildNs = 0;
  uint64_t NativeNs = 0;
  uint64_t NativeInsts = 0;
  uint32_t WarmupPasses = 0;
  uint64_t WarmupPromoted = 0;
  uint64_t TotalNs = 0;
};

SetupResult setUp(const Options &O, support::ThreadPool *Pool,
                  const std::string &DbDir, SpanLog *Log) {
  const uint64_t Start = nowNs();
  Scope Root(Log, "setup", 0);
  SetupResult R;
  {
    Scope S(Log, "workloads.build", Root.id());
    R.W = buildWorkload(O.Workload, O.Scale, Pool);
    R.BuildNs = nowNs() - Start;
  }
  const Workload &W = R.W;
  {
    Scope S(Log, "vm.native_refs", Root.id());
    const uint64_t T0 = nowNs();
    for (const Job &J : W.Jobs) {
      auto Ref = workloads::runNative(*W.Registry, J.App, *J.Input);
      if (!Ref)
        fatal("native reference failed: " + Ref.status().toString());
      R.NativeInsts += Ref->InstructionsExecuted;
      R.Native.push_back(Ref.take());
    }
    R.NativeNs = nowNs() - T0;
  }
  {
    Scope S(Log, "dbi.baseline", Root.id());
    for (size_t I = 0; I != W.Jobs.size(); ++I) {
      std::unique_ptr<dbi::Tool> Tool = makeTool(W);
      auto Base = workloads::runUnderEngine(*W.Registry, W.Jobs[I].App,
                                            *W.Jobs[I].Input, Tool.get());
      if (!Base)
        fatal("no-persistence baseline failed: " + Base.status().toString());
      if (!Base->Run.observablyEquals(R.Native[I]))
        fatal("no-persistence baseline differs from the native reference");
      R.BaselineCycles.push_back(Base->Stats.totalCycles());
    }
  }
  {
    Scope S(Log, "persist.warmup", Root.id());
    (void)removeRecursively(DbDir);
    Status Made = createDirectories(DbDir);
    if (!Made.ok())
      fatal("cannot create " + DbDir + ": " + Made.toString());
    R.Db = std::make_unique<persist::CacheDatabase>(DbDir);
    // Warm-up runs the jobs in their canonical order, so the database the
    // window starts from does not depend on the seed.
    constexpr uint32_t MaxWarmupPasses = 24;
    for (;;) {
      if (R.WarmupPasses == MaxWarmupPasses)
        fatal("guard failed: warm-up did not reach a pass that compiles "
              "and promotes nothing",
              3);
      Scope P(Log, "warmup.pass", S.id());
      ++R.WarmupPasses;
      uint64_t Compiled = 0, Promoted = 0;
      for (uint32_t JobIdx = 0; JobIdx != W.Jobs.size(); ++JobIdx) {
        ExecSample E =
            runExecution(W, JobIdx, *R.Db, R.Native[JobIdx], nullptr, 0);
        if (!E.Ok)
          fatal("warm-up execution failed: " + E.Error);
        Compiled += E.Stats.TracesCompiled;
        Promoted += E.Stats.TracesPromoted;
        R.WarmupPromoted += E.Stats.TracesPromoted;
      }
      if (Compiled == 0 && Promoted == 0)
        break;
    }
  }
  R.TotalNs = nowNs() - Start;
  return R;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string fmtNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.15g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

struct Fingerprint {
  unsigned Nproc = 0;
  std::string Compiler = PERFBENCH_COMPILER;
  std::string BuildType = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  bool Asserts = false;
#else
  bool Asserts = true;
#endif
  std::string Commit;

  std::string json() const {
    return "{\"nproc\": " + std::to_string(Nproc) + ", \"compiler\": \"" +
           jsonEscape(Compiler) + "\", \"build_type\": \"" +
           jsonEscape(BuildType) + "\", \"asserts\": " +
           (Asserts ? "true" : "false") + ", \"commit\": \"" +
           jsonEscape(Commit) + "\"}";
  }
};

/// Union length of [Start, End) intervals clipped to [Lo, Hi).
uint64_t coveredNs(std::vector<std::pair<uint64_t, uint64_t>> Iv,
                   uint64_t Lo, uint64_t Hi) {
  std::sort(Iv.begin(), Iv.end());
  uint64_t Covered = 0, Cursor = Lo;
  for (auto [S, E] : Iv) {
    S = std::max(S, Cursor);
    E = std::min(E, Hi);
    if (E > S) {
      Covered += E - S;
      Cursor = E;
    }
  }
  return Covered;
}

/// Self time (duration minus child coverage) of every span, by index.
std::vector<uint64_t> selfTimes(const std::vector<SpanLog::Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(
      Spans.size());
  for (const SpanLog::Span &S : Spans)
    if (S.Parent)
      Children[S.Parent - 1].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    uint64_t Dur = Spans[I].EndNs - Spans[I].StartNs;
    Self[I] = Dur - coveredNs(Children[I], Spans[I].StartNs, Spans[I].EndNs);
  }
  return Self;
}

void writeTrace(const std::string &Path, const SpanLog &Log,
                const Fingerprint &Fp, const Options &O) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    fatal("cannot write trace file " + Path);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\",\n\"otherData\": "
                  "{\"workload\": \"%s\", \"seed\": %llu, \"host\": %s},\n"
                  "\"traceEvents\": [\n",
               jsonEscape(O.Workload).c_str(),
               (unsigned long long)O.Seed, Fp.json().c_str());
  const auto &Spans = Log.spans();
  for (size_t I = 0; I != Spans.size(); ++I) {
    const SpanLog::Span &S = Spans[I];
    std::string Name = S.Name;
    std::string Cat = Name.substr(0, Name.find('.'));
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %u, \"exec\": "
                 "%llu}}%s\n",
                 S.Name, Cat.c_str(), static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, I + 1,
                 S.Parent, (unsigned long long)S.Exec,
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  if (std::fclose(F) != 0)
    fatal("cannot write trace file " + Path);
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parseArgs(Argc, Argv);
  Fingerprint Fp;
  Fp.Nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  Fp.Commit = O.Commit;

  std::unique_ptr<support::ThreadPool> Pool;
  if (O.Workers > 0)
    Pool = std::make_unique<support::ThreadPool>(O.Workers,
                                                 /*Background=*/true);

  SpanLog Log;
  SpanLog *SetupLog = O.Trace ? &Log : nullptr;
  Rng OrderRng(O.Seed);
  const std::string DbDir = O.WorkDir + "/db";

  // Set up several times and report the median, so that set-up time is a
  // steady metric even where one set-up takes milliseconds: at least
  // --setup-reps times, and an untraced run repeats until MinSetupSecs of
  // set-up have been timed. The last set-up's database feeds the window.
  constexpr double MinSetupSecs = 2;
  constexpr uint32_t MaxSetupReps = 25;
  std::vector<double> SetupSecs, BuildMs;
  double SetupTotal = 0;
  uint64_t NativeNs = 0, NativeInsts = 0;
  std::optional<SetupResult> Setup;
  for (uint32_t Rep = 0;
       Rep < O.SetupReps ||
       (!O.Trace && SetupTotal < MinSetupSecs && Rep < MaxSetupReps);
       ++Rep) {
    Setup.reset();
    Setup.emplace(setUp(O, Pool.get(), DbDir, SetupLog));
    SetupSecs.push_back(static_cast<double>(Setup->TotalNs) / 1e9);
    SetupTotal += SetupSecs.back();
    BuildMs.push_back(static_cast<double>(Setup->BuildNs) / 1e6);
    NativeNs += Setup->NativeNs;
    NativeInsts += Setup->NativeInsts;
  }
  const Workload &W = Setup->W;

  // peak_rss_mb is the window's peak: give the set-ups' freed heap back
  // and start the peak from the current size.
  malloc_trim(0);
  if (!resetPeakRss())
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS; "
                         "peak_rss_mb includes set-up\n");

  // Timed window: whole passes in a closed loop. A traced run alternates
  // untraced and traced passes; the untraced ones give the reference for
  // the tracing overhead.
  std::vector<ExecSample> Samples;
  std::vector<uint32_t> Order(W.Jobs.size());
  const uint64_t WindowStart = nowNs();
  const uint64_t WindowNs = static_cast<uint64_t>(O.Seconds * 1e9);
  uint64_t ExecId = 0;
  for (uint32_t Pass = 0;; ++Pass) {
    bool Done = O.Passes ? Pass >= O.Passes
                         : nowNs() - WindowStart >= WindowNs &&
                               Pass >= (O.Trace ? 2u : 1u);
    if (Done)
      break;
    for (uint32_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    if (W.Shuffle)
      shuffle(Order, OrderRng);
    SpanLog *PassLog = O.Trace && Pass % 2 == 1 ? &Log : nullptr;
    for (uint32_t JobIdx : Order) {
      Samples.push_back(runExecution(W, JobIdx, *Setup->Db,
                                     Setup->Native[JobIdx], PassLog,
                                     ++ExecId));
    }
  }
  const double WindowSecs =
      static_cast<double>(nowNs() - WindowStart) / 1e9;
  const double PeakRssMb = peakRssKib() / 1024;

  // Aggregate the window over all its executions.
  const double N = static_cast<double>(Samples.size());
  uint64_t Failed = 0;
  std::vector<double> ExecMs, ReadyMs, UntracedMs, TracedMs, Ttft;
  double SumCycles = 0, SumBase = 0, SumRunNs = 0, SumRunCycles = 0,
         SumGuestInsts = 0, Hits = 0, Xip = 0;
  dbi::EngineStats Sum;
  uint64_t Installed = 0, Links = 0, ModInval = 0, Copied = 0, Jobs = 0,
           Mapped = 0;
  for (const ExecSample &S : Samples) {
    if (!S.Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: execution %u failed: %s\n", S.Job,
                   S.Error.c_str());
    }
    const double Ms = static_cast<double>(S.ExecNs) / 1e6;
    ExecMs.push_back(Ms);
    (S.Traced ? TracedMs : UntracedMs).push_back(Ms);
    ReadyMs.push_back(static_cast<double>(S.ReadyNs) / 1e6);
    Ttft.push_back(static_cast<double>(S.Stats.FirstTraceReadyCycles) / 1e3);
    const dbi::EngineStats &St = S.Stats;
    SumCycles += static_cast<double>(St.totalCycles());
    SumBase += static_cast<double>(Setup->BaselineCycles[S.Job]);
    SumRunNs += static_cast<double>(S.RunNs);
    SumRunCycles += static_cast<double>(S.RunCycles);
    SumGuestInsts += static_cast<double>(St.GuestInstsExecuted);
    Hits += S.Prime.CacheFound && S.Prime.RejectReason.empty() &&
            S.Prime.TracesInstalled > 0;
    Xip += S.Prime.XipInstalled;
    Installed += S.Prime.TracesInstalled;
    Links += S.Prime.LinksRestored;
    ModInval += S.Prime.ModulesInvalidated;
    Copied += S.Prime.PayloadBytesCopied;
    Jobs += S.Prime.PayloadJobsQueued;
    Mapped += S.ModulesMapped;
    Sum.CompileCycles += St.CompileCycles;
    Sum.DispatchCycles += St.DispatchCycles;
    Sum.LinkCycles += St.LinkCycles;
    Sum.ExecCycles += St.ExecCycles;
    Sum.ToolCycles += St.ToolCycles;
    Sum.EmulationCycles += St.EmulationCycles;
    Sum.PersistCycles += St.PersistCycles;
    Sum.TracesCompiled += St.TracesCompiled;
    Sum.TracesLoadedFromCache += St.TracesLoadedFromCache;
    Sum.TracesReused += St.TracesReused;
    Sum.TracePayloadsValidated += St.TracePayloadsValidated;
    Sum.CertsChecked += St.CertsChecked;
    Sum.CertChecksFailed += St.CertChecksFailed;
    Sum.ProofsReplayed += St.ProofsReplayed;
    Sum.OptNopsExecuted += St.OptNopsExecuted;
    Sum.TracesPromoted += St.TracesPromoted;
    Sum.OptValidatorRejections += St.OptValidatorRejections;
    Sum.PersistStoreRetries += St.PersistStoreRetries;
    Sum.PersistStoreFailures += St.PersistStoreFailures;
  }
  auto perExec = [&](double V) { return ratio(V, N); };
  auto mcyc = [&](uint64_t V) { return perExec(static_cast<double>(V)) / 1e6; };

  auto DbStats = Setup->Db->stats();
  if (!DbStats)
    fatal("database stats failed: " + DbStats.status().toString());
  std::vector<Metric> EndToEnd = {
      {"setup_s", median(SetupSecs), "s"},
      {"execs_per_s", ratio(N, WindowSecs), "1/s"},
      {"exec_ms_p50", percentile(ExecMs, 0.5), "ms"},
      {"exec_ms_p90", percentile(ExecMs, 0.9), "ms"},
      {"ready_ms_p50", percentile(ReadyMs, 0.5), "ms"},
      {"modeled_mcycles_per_exec", perExec(SumCycles) / 1e6, "Mcycles"},
      {"ttft_kcycles_p50", percentile(Ttft, 0.5), "kcycles"},
      {"ttft_kcycles_p90", percentile(Ttft, 0.9), "kcycles"},
      {"modeled_speedup", ratio(SumBase, SumCycles), "x"},
      {"db_mb", static_cast<double>(DbStats->DiskBytes) / (1 << 20), "MiB"},
      {"peak_rss_mb", PeakRssMb, "MiB"},
  };
  const double FailedRatio = ratio(static_cast<double>(Failed), N);

  // Per-layer host times come from the traced passes' spans: a layer's
  // mean self time per traced execution, so the layers add up to the mean
  // traced execution.
  std::map<std::string, std::vector<double>> SelfMs;
  double CoverageMin = 1;
  {
    const auto &Spans = Log.spans();
    std::vector<uint64_t> Self = selfTimes(Spans);
    for (size_t I = 0; I != Spans.size(); ++I) {
      if (!Spans[I].Exec)
        continue;
      SelfMs[Spans[I].Name].push_back(static_cast<double>(Self[I]) / 1e6);
      if (!Spans[I].Parent) {
        double Dur = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
        CoverageMin = std::min(
            CoverageMin, Dur == 0 ? 1 : 1 - static_cast<double>(Self[I]) / Dur);
      }
    }
  }
  auto selfMs = [&](const char *Name) { return mean(SelfMs[Name]); };
  const double TracedP50 = percentile(TracedMs, 0.5);
  const double UntracedP50 = percentile(UntracedMs, 0.5);

  std::vector<Metric> PerLayer = {
      {"loader.load_ms", selfMs("loader.makeMachine"), "ms"},
      {"loader.modules_mapped", perExec(static_cast<double>(Mapped)), "count"},
      {"dbi.engine_init_ms", selfMs("dbi.Engine"), "ms"},
      {"persist.prime_ms", selfMs("persist.prime"), "ms"},
      {"persist.hit_ratio", perExec(Hits), "ratio"},
      {"persist.traces_installed", perExec(static_cast<double>(Installed)),
       "count"},
      {"persist.links_restored", perExec(static_cast<double>(Links)),
       "count"},
      {"persist.modules_invalidated", perExec(static_cast<double>(ModInval)),
       "count"},
      {"persist.xip_ratio", perExec(Xip), "ratio"},
      {"persist.payload_kb_copied", perExec(static_cast<double>(Copied)) / 1024,
       "KiB"},
      {"persist.mcycles", mcyc(Sum.PersistCycles), "Mcycles"},
      {"persist.finalize_ms", selfMs("persist.finalize"), "ms"},
      {"persist.wait_ms", selfMs("persist.wait"), "ms"},
      {"persist.store_retries",
       perExec(static_cast<double>(Sum.PersistStoreRetries)), "count"},
      {"persist.store_failures",
       perExec(static_cast<double>(Sum.PersistStoreFailures)), "count"},
      {"dbi.run_ms", selfMs("dbi.run"), "ms"},
      {"dbi.guest_minsts_per_s", ratio(SumGuestInsts, SumRunNs) * 1e3,
       "Minsts/s"},
      {"dbi.traces_compiled", perExec(static_cast<double>(Sum.TracesCompiled)),
       "count"},
      {"dbi.compile_mcycles", mcyc(Sum.CompileCycles), "Mcycles"},
      {"dbi.traces_reused", perExec(static_cast<double>(Sum.TracesReused)),
       "count"},
      {"dbi.payloads_validated",
       perExec(static_cast<double>(Sum.TracePayloadsValidated)), "count"},
      {"dbi.reuse_ratio",
       ratio(static_cast<double>(Sum.TracesReused),
             static_cast<double>(Sum.TracesLoadedFromCache)),
       "ratio"},
      {"dbi.exec_mcycles", mcyc(Sum.ExecCycles), "Mcycles"},
      {"dbi.dispatch_mcycles", mcyc(Sum.DispatchCycles), "Mcycles"},
      {"dbi.link_mcycles", mcyc(Sum.LinkCycles), "Mcycles"},
      {"dbi.emulation_mcycles", mcyc(Sum.EmulationCycles), "Mcycles"},
      {"dbi.tool_mcycles", mcyc(Sum.ToolCycles), "Mcycles"},
      {"dbi.host_ns_per_modeled_kcycle",
       ratio(SumRunNs, SumRunCycles / 1e3), "ns/kcycle"},
      {"analysis.certs_checked", perExec(static_cast<double>(Sum.CertsChecked)),
       "count"},
      {"analysis.cert_checks_failed",
       perExec(static_cast<double>(Sum.CertChecksFailed)), "count"},
      {"analysis.proofs_replayed",
       perExec(static_cast<double>(Sum.ProofsReplayed)), "count"},
      {"analysis.opt_nops_executed",
       perExec(static_cast<double>(Sum.OptNopsExecuted)), "count"},
      {"analysis.traces_promoted",
       perExec(static_cast<double>(Sum.TracesPromoted)), "count"},
      {"analysis.validator_rejections",
       perExec(static_cast<double>(Sum.OptValidatorRejections)), "count"},
      {"analysis.setup_traces_promoted",
       static_cast<double>(Setup->WarmupPromoted), "count"},
      {"support.payload_jobs_queued", perExec(static_cast<double>(Jobs)),
       "count"},
      {"vm.native_minsts_per_s",
       ratio(static_cast<double>(NativeInsts), static_cast<double>(NativeNs)) *
           1e3,
       "Minsts/s"},
      {"workloads.build_ms", median(BuildMs), "ms"},
      {"exec.teardown_ms", selfMs("teardown"), "ms"},
      {"exec.untraced_gap_ms", selfMs("execution"), "ms"},
      {"trace.child_coverage_min", CoverageMin, "ratio"},
      {"trace.overhead_pct", (ratio(TracedP50, UntracedP50) - 1) * 100, "%"},
  };

  // Mechanism guards: without them a number could silently come from a
  // different program than the workload claims to run.
  std::vector<std::string> GuardFailures;
  auto guard = [&](bool Holds, const char *Name) {
    if (!Holds)
      GuardFailures.push_back(Name);
  };
  guard(Hits == N, "persist.hit_ratio == 1");
  guard(Sum.TracesCompiled == 0, "dbi.traces_compiled == 0");
  if (W.Name == "spec-ref-opt") {
    guard(Setup->WarmupPromoted > 0, "set-up promoted traces");
    guard(Sum.CertsChecked > 0, "analysis.certs_checked > 0");
  } else if (W.Name == "gui-startup-xip") {
    guard(Xip == N, "persist.xip_ratio == 1");
    guard(Copied == 0, "persist.payload_kb_copied == 0");
  } else if (W.Name == "oracle-memtrace") {
    guard(!Pool || Jobs > 0, "support.payload_jobs_queued > 0");
    guard(Sum.ToolCycles > 0, "dbi.tool_mcycles > 0");
  }

  std::printf("perfbench %s seed=%llu: %zu executions in %.3f s (%zu "
              "set-up(s), %u warm-up passes in the last)\n",
              W.Name.c_str(), (unsigned long long)O.Seed, Samples.size(),
              WindowSecs, SetupSecs.size(), Setup->WarmupPasses);
  std::printf("host: %s\n", Fp.json().c_str());
  for (const Metric &M : O.Trace ? PerLayer : EndToEnd)
    std::printf("  %-34s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("  %-34s %16.6f %s\n", "failed_exec_ratio", FailedRatio,
              "ratio");
  if (O.Trace)
    std::printf("tracing overhead: exec_ms_p50 %.4f ms traced vs %.4f ms "
                "untraced\n",
                TracedP50, UntracedP50);

  if (O.Trace && !O.TraceOut.empty())
    writeTrace(O.TraceOut, Log, Fp, O);
  Setup.reset();
  (void)removeRecursively(O.WorkDir);

  if (!GuardFailures.empty()) {
    for (const std::string &G : GuardFailures)
      std::fprintf(stderr, "perfbench: guard failed: %s\n", G.c_str());
    return 3;
  }

  std::string Json = "{\"correct\": ";
  Json += Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Samples.size());
  Json += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const Metric &M : O.Trace ? PerLayer : EndToEnd) {
    Json += First ? "" : ", ";
    First = false;
    Json += "\"" + M.Name + "\": {\"value\": " + fmtNum(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
