//===- tools/pccrun.cpp - run guest programs under the engine --------------===//
//
// The front-end driver: loads a serialized guest executable (plus
// libraries), and runs it natively, under dynamic binary translation,
// or under translation with persistent code caching — with any of the
// canned instrumentation tools.
//
//   pccrun [options] app.mod
//     --lib FILE           register a library module (repeatable)
//     --mode MODE          native | engine | persist   (default engine)
//     --tool TOOL          none | bbcount | memtrace | icount
//     --db DIR             cache database directory (persist mode;
//                          default ./pcc-cache)
//     --l2 DIR             remote (L2) store directory: the database
//                          becomes a tiered store with --db as the
//                          local L1 — reads miss through to DIR and
//                          publishes write through to it, with modeled
//                          remote-link cycle charges on every fetch
//     --store-stats        print the storage backend's entry/byte/lock
//                          counters after the run (persist mode); for
//                          tiered stores, also the per-tier hit/fetch
//                          split
//     --work S:I[,S:I...]  work-list input: run slot S for I iterations
//     --inter-app          allow priming from another app's cache
//     --pic                position-independent translations
//     --xip                write execute-in-place (format v3)
//                          generations: page-aligned payloads later
//                          runs mmap directly as executable trace
//                          bodies instead of copying and decoding
//                          them. Implies --pic. Consuming an XIP
//                          cache needs no flag — prime engages the
//                          in-place path automatically when the file
//                          qualifies
//     --read-only          do not write the cache back
//     --opt-flags          liveness-driven dead-flag-def elision; each
//                          touched trace is proved effect-equivalent by
//                          the translation validator before the
//                          optimized body is accepted
//     --opt-tier           finalize-time AOT optimization tier (persist
//                          mode, tool-less runs): hot traces are merged
//                          into superblocks, constant-propagated and
//                          redundant-load-eliminated in the background,
//                          each promoted body validator-proved, and
//                          written back at a higher optimization
//                          generation that later primes prefer
//     --validate           deep semantic verification (persist mode):
//                          primed traces are revalidated against the
//                          guest code at first decode and finalize
//                          re-proves every trace it writes back
//     --aslr SEED          randomized library bases
//     --stats              print every EngineStats counter: the cycle
//                          accounts as shares of the run, then one
//                          "Name value" line per other counter
//     --disasm             print the app module and exit
//     --fault-plan PLAN    arm the fault injector for the run (see
//                          support/FaultInjector.h for the grammar,
//                          e.g. "enospc:0.1,fsync:0.1,lock:0.25");
//                          armed after guest modules are loaded, so
//                          only cache-database I/O is subjected
//     --jobs N             worker threads for the persistence pipeline
//                          (persist mode): async payload validation at
//                          prime and a background cache publish at
//                          finalize. N <= 1 keeps everything on the
//                          main thread; results are identical either
//                          way
//     --record FILE        record the run's nondeterministic inputs
//                          (modules, input, load bases, cache bytes
//                          served, fault decisions) plus its results
//                          into a .pcrr log (persist mode)
//     --replay FILE        re-drive a recorded run from its log in a
//                          scratch store and assert bit-identical
//                          stats, results and final memory. Exit 0
//                          clean, 3 divergence, 4 unreadable or
//                          version-mismatched log. --jobs still
//                          applies: any worker count must replay
//                          identically
//     --replay-diff FILE   replay FILE twice — persistence on (checked
//                          against the log) and off — and require
//                          guest-observable agreement between the two
//                          legs. Same exit-code contract as --replay
//
//===----------------------------------------------------------------------===//

#include "binary/Assembler.h"
#include "persist/DirectoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "replay/Recorder.h"
#include "replay/Replay.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workloads/Codegen.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pcc;

namespace {

int usage(int Code) {
  std::fprintf(
      stderr,
      "usage: pccrun [options] app.mod\n"
      "  --lib FILE   --mode native|engine|persist   --tool NAME\n"
      "  --db DIR     --work S:I,S:I   --inter-app   --pic\n"
      "  --l2 DIR     remote store tier behind --db (persist mode)\n"
      "  --store-stats  storage backend counters after the run\n"
      "  --xip        write execute-in-place (v3) generations; "
      "implies --pic\n"
      "  --read-only  --aslr SEED      --stats       --disasm\n"
      "  --opt-flags  validated dead-flag-def elision\n"
      "  --opt-tier   finalize-time AOT promotion of hot traces "
      "(persist)\n"
      "  --validate   deep semantic trace verification (persist)\n"
      "  --fault-plan PLAN  (e.g. enospc:0.1,fsync:0.1,lock:0.25)\n"
      "  --jobs N     persistence pipeline worker threads (persist "
      "mode)\n"
      "  --record FILE  record the run into a .pcrr replay log\n"
      "  --replay FILE  re-drive a recorded run; exit 3 on divergence, "
      "4 on a bad log\n"
      "  --replay-diff FILE  replay with persistence on and off and "
      "compare\n");
  return Code;
}

/// Exit-code contract of the replay modes.
constexpr int ExitReplayDiverged = 3;
constexpr int ExitReplayBadLog = 4;

/// Runs --replay / --replay-diff: both load FILE, re-drive it, and
/// map outcomes onto the exit-code contract.
int runReplayMode(const std::string &LogPath, bool Diff,
                  unsigned Jobs) {
  auto Rec = replay::readLogFile(LogPath);
  if (!Rec) {
    std::fprintf(stderr, "pccrun: %s: %s\n", LogPath.c_str(),
                 Rec.status().toString().c_str());
    return ExitReplayBadLog;
  }
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<support::ThreadPool>(Jobs,
                                                 /*Background=*/true);
  if (Diff) {
    auto Verdict = replay::replayDiff(*Rec, Pool.get());
    if (!Verdict) {
      std::fprintf(stderr, "pccrun: replay failed: %s\n",
                   Verdict.status().toString().c_str());
      return 1;
    }
    if (!Verdict->empty()) {
      std::fprintf(stderr, "pccrun: replay diverged: %s\n",
                   Verdict->c_str());
      return ExitReplayDiverged;
    }
    std::printf("replay-diff: both legs clean (%llu instructions, "
                "%llu recorded cycles)\n",
                (unsigned long long)Rec->Run.InstructionsExecuted,
                (unsigned long long)Rec->Run.Cycles);
    return 0;
  }
  replay::ReplayOptions Opts;
  Opts.Pool = Pool.get();
  auto Out = replay::replayRun(*Rec, Opts);
  if (!Out) {
    std::fprintf(stderr, "pccrun: replay failed: %s\n",
                 Out.status().toString().c_str());
    return 1;
  }
  std::string Divergence = replay::compareToRecording(*Rec, *Out);
  if (!Divergence.empty()) {
    std::fprintf(stderr, "pccrun: replay diverged: %s\n",
                 Divergence.c_str());
    return ExitReplayDiverged;
  }
  std::printf("replay: bit-identical (%llu instructions, %llu cycles, "
              "%zu quarantine decision(s) reproduced)\n",
              (unsigned long long)Out->Run.InstructionsExecuted,
              (unsigned long long)Out->Run.Cycles,
              Out->Quarantines.size());
  return 0;
}

ErrorOr<std::shared_ptr<binary::Module>>
loadModule(const std::string &Path) {
  auto Bytes = readFile(Path);
  if (!Bytes)
    return Bytes.status();
  auto M = binary::Module::deserialize(*Bytes);
  if (!M)
    return M.status();
  return std::make_shared<binary::Module>(M.take());
}

ErrorOr<std::vector<uint8_t>> parseWork(const std::string &Spec) {
  std::vector<workloads::WorkItem> Items;
  for (const std::string &Part : splitString(Spec, ',')) {
    auto Fields = splitString(Part, ':');
    if (Fields.size() != 2)
      return Status::error(ErrorCode::InvalidArgument,
                           "bad work item: " + Part);
    workloads::WorkItem Item;
    Item.Slot = static_cast<uint32_t>(std::strtoul(
        Fields[0].c_str(), nullptr, 0));
    Item.Iterations = static_cast<uint32_t>(std::strtoul(
        Fields[1].c_str(), nullptr, 0));
    if (Item.Iterations == 0)
      return Status::error(ErrorCode::InvalidArgument,
                           "iterations must be >= 1: " + Part);
    Items.push_back(Item);
  }
  return workloads::encodeWorkload(Items);
}

/// Every EngineStats table counter: the cycle accounts as shares of the
/// run (they sum to 100%), then one "Name value" line per other
/// counter, zeros included.
void printStats(const dbi::EngineStats &S) {
  double Total = static_cast<double>(S.totalCycles());
  std::printf("engine cycle breakdown:\n");
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    if (C.Kind == dbi::StatKind::Account)
      std::printf("  %-16s %12llu cycles (%5.1f%%)\n", C.Name,
                  (unsigned long long)(S.*C.Field),
                  Total == 0 ? 0.0 : 100.0 * (S.*C.Field) / Total);
  std::printf("engine counters:\n");
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    if (C.Kind == dbi::StatKind::Counter)
      std::printf("  %s %llu\n", C.Name,
                  (unsigned long long)(S.*C.Field));
}

} // namespace

int main(int Argc, char **Argv) {
  std::string AppPath;
  std::vector<std::string> LibPaths;
  std::string Mode = "engine";
  std::string ToolName = "none";
  std::string DbDir = "pcc-cache";
  std::string L2Dir;
  std::string WorkSpec;
  std::string FaultPlan;
  std::string RecordPath, ReplayPath;
  bool ReplayDiff = false;
  bool InterApp = false, Pic = false, Xip = false, ReadOnly = false;
  bool Stats = false, Disasm = false, StoreStats = false;
  bool OptFlags = false, OptTier = false, Validate = false;
  uint64_t AslrSeed = 0;
  bool Randomized = false;
  unsigned Jobs = 1;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--help")
      return usage(0);
    if (Arg == "--lib") {
      if (const char *V = next())
        LibPaths.push_back(V);
      else
        return usage(2);
    } else if (Arg == "--mode") {
      if (const char *V = next())
        Mode = V;
      else
        return usage(2);
    } else if (Arg == "--tool") {
      if (const char *V = next())
        ToolName = V;
      else
        return usage(2);
    } else if (Arg == "--db") {
      if (const char *V = next())
        DbDir = V;
      else
        return usage(2);
    } else if (Arg == "--l2") {
      if (const char *V = next())
        L2Dir = V;
      else
        return usage(2);
    } else if (Arg == "--work") {
      if (const char *V = next())
        WorkSpec = V;
      else
        return usage(2);
    } else if (Arg == "--fault-plan") {
      if (const char *V = next())
        FaultPlan = V;
      else
        return usage(2);
    } else if (Arg == "--record") {
      if (const char *V = next())
        RecordPath = V;
      else
        return usage(2);
    } else if (Arg == "--replay") {
      if (const char *V = next())
        ReplayPath = V;
      else
        return usage(2);
    } else if (Arg == "--replay-diff") {
      if (const char *V = next()) {
        ReplayPath = V;
        ReplayDiff = true;
      } else
        return usage(2);
    } else if (Arg == "--jobs") {
      if (const char *V = next())
        Jobs = static_cast<unsigned>(std::strtoul(V, nullptr, 0));
      else
        return usage(2);
    } else if (Arg == "--aslr") {
      if (const char *V = next()) {
        AslrSeed = std::strtoull(V, nullptr, 0);
        Randomized = true;
      } else
        return usage(2);
    } else if (Arg == "--inter-app")
      InterApp = true;
    else if (Arg == "--pic")
      Pic = true;
    else if (Arg == "--xip")
      Xip = Pic = true; // XIP generations are position independent.
    else if (Arg == "--read-only")
      ReadOnly = true;
    else if (Arg == "--opt-flags")
      OptFlags = true;
    else if (Arg == "--opt-tier")
      OptTier = true;
    else if (Arg == "--validate")
      Validate = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--store-stats")
      StoreStats = true;
    else if (Arg == "--disasm")
      Disasm = true;
    else if (!Arg.empty() && Arg[0] == '-')
      return usage(2);
    else if (AppPath.empty())
      AppPath = Arg;
    else
      return usage(2);
  }
  // Replay modes take everything from the log; no app module needed.
  if (!ReplayPath.empty())
    return runReplayMode(ReplayPath, ReplayDiff, Jobs);
  if (AppPath.empty())
    return usage(2);

  auto App = loadModule(AppPath);
  if (!App) {
    std::fprintf(stderr, "pccrun: %s: %s\n", AppPath.c_str(),
                 App.status().toString().c_str());
    return 1;
  }
  if (Disasm) {
    std::string Text = binary::disassembleModule(**App);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return 0;
  }

  loader::ModuleRegistry Registry;
  for (const std::string &LibPath : LibPaths) {
    auto Lib = loadModule(LibPath);
    if (!Lib) {
      std::fprintf(stderr, "pccrun: %s: %s\n", LibPath.c_str(),
                   Lib.status().toString().c_str());
      return 1;
    }
    Registry.add(*Lib);
  }

  std::vector<uint8_t> Input;
  if (!WorkSpec.empty()) {
    auto Parsed = parseWork(WorkSpec);
    if (!Parsed) {
      std::fprintf(stderr, "pccrun: %s\n",
                   Parsed.status().toString().c_str());
      return 1;
    }
    Input = Parsed.take();
  }

  std::unique_ptr<dbi::Tool> Tool;
  if (ToolName == "bbcount")
    Tool = std::make_unique<dbi::BasicBlockCounterTool>();
  else if (ToolName == "memtrace")
    Tool = std::make_unique<dbi::MemRefTraceTool>();
  else if (ToolName == "icount")
    Tool = std::make_unique<dbi::InstructionCounterTool>();
  else if (ToolName != "none") {
    std::fprintf(stderr, "pccrun: unknown tool %s\n",
                 ToolName.c_str());
    return 2;
  }

  loader::BasePolicy Policy = Randomized
                                  ? loader::BasePolicy::Randomized
                                  : loader::BasePolicy::Fixed;

  // Arm the fault injector only now, with every guest module already
  // read from disk: the plan exercises the cache database's I/O, not
  // the driver's own module loading.
  if (!FaultPlan.empty()) {
    Status S = FaultInjector::instance().configureFromPlan(FaultPlan);
    if (!S.ok()) {
      std::fprintf(stderr, "pccrun: %s\n", S.toString().c_str());
      return 2;
    }
  }

  vm::RunResult Run;
  dbi::EngineStats EngineStats;
  bool HaveStats = false;

  dbi::EngineOptions EngineOpts;
  EngineOpts.OptimizeFlags = OptFlags;

  if (!RecordPath.empty() && Mode != "persist") {
    std::fprintf(stderr, "pccrun: --record requires --mode persist\n");
    return 2;
  }

  if (Mode == "native") {
    auto R = workloads::runNative(Registry, *App, Input);
    if (!R) {
      std::fprintf(stderr, "pccrun: %s\n",
                   R.status().toString().c_str());
      return 1;
    }
    Run = R.take();
  } else if (Mode == "engine") {
    auto R = workloads::runUnderEngine(Registry, *App, Input,
                                       Tool.get(), EngineOpts, Policy,
                                       AslrSeed);
    if (!R) {
      std::fprintf(stderr, "pccrun: %s\n",
                   R.status().toString().c_str());
      return 1;
    }
    Run = R->Run;
    EngineStats = R->Stats;
    HaveStats = true;
  } else if (Mode == "persist") {
    // With --l2, the database is a tiered store: --db is the local L1,
    // --l2 the shared remote tier every fetch is charged against.
    persist::TieredStore *Tier = nullptr;
    std::shared_ptr<persist::CacheStore> Backend;
    if (L2Dir.empty()) {
      Backend = std::make_shared<persist::DirectoryStore>(DbDir);
    } else {
      auto Tiered = std::make_shared<persist::TieredStore>(
          std::make_shared<persist::DirectoryStore>(DbDir),
          std::make_shared<persist::DirectoryStore>(L2Dir));
      Tier = Tiered.get();
      Backend = std::move(Tiered);
    }
    persist::CacheDatabase Db(Backend);
    persist::PersistOptions Opts;
    Opts.InterApplication = InterApp;
    Opts.PositionIndependent = Pic;
    Opts.ExecuteInPlace = Xip;
    Opts.WriteBack = !ReadOnly;
    Opts.ValidateSemantic = Validate;
    Opts.OptTier = OptTier;
    // The pool outlives the run: runPersistent's session waits for the
    // background publish and any in-flight payload jobs before it
    // returns, so destruction order here is safe. Background priority:
    // the pipeline exists to hide latency, never to compete with the
    // engine thread for the CPU.
    std::unique_ptr<support::ThreadPool> Pool;
    if (Jobs > 1) {
      Pool = std::make_unique<support::ThreadPool>(Jobs,
                                                   /*Background=*/true);
      Opts.Pool = Pool.get();
    }
    if (!RecordPath.empty()) {
      // Recording drives the run itself (it owns the hooks and the
      // tool); the log lands at RecordPath and, if the run quarantined
      // anything, as an attachment next to the quarantined cache.
      replay::RecordSpec Spec;
      size_t Slash = RecordPath.rfind('/');
      Spec.LogName = Slash == std::string::npos
                         ? RecordPath
                         : RecordPath.substr(Slash + 1);
      Spec.ToolName = ToolName;
      Spec.OptimizeFlags = OptFlags;
      Spec.Policy = Policy;
      Spec.AslrSeed = AslrSeed;
      Spec.Tiered = !L2Dir.empty();
      auto Rec = replay::recordRun(Registry, *App, Input, Db, Opts,
                                   Spec);
      if (!Rec) {
        std::fprintf(stderr, "pccrun: record failed: %s\n",
                     Rec.status().toString().c_str());
        return 1;
      }
      Status W = replay::writeLogFile(RecordPath, *Rec);
      if (!W.ok()) {
        std::fprintf(stderr, "pccrun: %s\n", W.toString().c_str());
        return 1;
      }
      std::printf("recorded: %s (%zu cache file(s) observed, %zu "
                  "quarantine decision(s))\n",
                  RecordPath.c_str(), Rec->Caches.size(),
                  Rec->Quarantines.size());
      if (!FaultPlan.empty())
        std::printf("fault plan: %llu fault(s) injected\n",
                    (unsigned long long)
                        FaultInjector::instance().totalInjected());
      std::printf("exit code %u; %llu instructions, %llu syscalls, "
                  "%llu cycles\n",
                  Rec->Run.ExitCode,
                  (unsigned long long)Rec->Run.InstructionsExecuted,
                  (unsigned long long)Rec->Run.SyscallCount,
                  (unsigned long long)Rec->Run.Cycles);
      if (Stats)
        printStats(Rec->Stats);
      return static_cast<int>(Rec->Run.ExitCode);
    }
    auto R = workloads::runPersistent(Registry, *App, Input, Db, Opts,
                                      Tool.get(), EngineOpts, Policy,
                                      AslrSeed);
    if (!R) {
      std::fprintf(stderr, "pccrun: %s\n",
                   R.status().toString().c_str());
      return 1;
    }
    if (Jobs > 1)
      std::printf("persistence pipeline: %u worker(s), %u payload "
                  "job(s) queued at prime\n",
                  Jobs, R->Prime.PayloadJobsQueued);
    std::printf("persistent cache: %s\n",
                persist::describePrime(R->Prime).c_str());
    if (R->Prime.CacheFound && R->Prime.RejectReason.empty())
      std::printf("persistent cache: %s (%llu payload bytes copied)\n",
                  R->Prime.XipInstalled
                      ? "primed execute-in-place from the mapped payload"
                      : "primed by materializing payload copies",
                  (unsigned long long)R->Prime.PayloadBytesCopied);
    if (R->Prime.CandidatesSkippedIo != 0)
      std::printf("persistent cache: %u candidate(s) skipped on I/O "
                  "errors\n",
                  R->Prime.CandidatesSkippedIo);
    if (R->Stats.PersistStoreRetries != 0)
      std::printf("persistence: %llu store retr%s absorbed\n",
                  (unsigned long long)R->Stats.PersistStoreRetries,
                  R->Stats.PersistStoreRetries == 1 ? "y" : "ies");
    if (R->Stats.PersistDegraded)
      std::printf("persistence degraded to in-memory only: %s\n",
                  R->Stats.PersistDegradeReason.c_str());
    if (R->Stats.PersistL2Hits != 0)
      std::printf("persistent cache: primed by remote read-through "
                  "(%llu bytes fetched over the modeled link)\n",
                  (unsigned long long)R->Stats.PersistRemoteBytes);
    if (StoreStats) {
      auto S = Backend->stats();
      if (S)
        std::printf("store: %u cache file(s) (%u corrupt, %u "
                    "quarantined), %llu bytes on disk, %llu trace(s), "
                    "%zu lock file(s)\n",
                    S->CacheFiles, S->CorruptFiles, S->QuarantinedFiles,
                    (unsigned long long)S->DiskBytes,
                    (unsigned long long)S->Traces,
                    Backend->locks().size());
      else
        std::printf("store: stats unavailable: %s\n",
                    S.status().toString().c_str());
      if (Tier) {
        persist::TieredStats T = Tier->tieredStats();
        std::printf("store tiers: %llu L1 hit(s), %llu L2 hit(s), %llu "
                    "miss(es); %llu fetch(es) / %llu bytes in, %llu "
                    "publish(es) / %llu bytes out; %llu remote "
                    "failure(s)%s\n",
                    (unsigned long long)T.L1Hits,
                    (unsigned long long)T.L2Hits,
                    (unsigned long long)T.Misses,
                    (unsigned long long)T.RemoteFetches,
                    (unsigned long long)T.RemoteFetchBytes,
                    (unsigned long long)T.RemotePublishes,
                    (unsigned long long)T.RemotePublishBytes,
                    (unsigned long long)T.RemoteFailures,
                    T.RemoteDisabled ? "; remote DISABLED (breaker)"
                                     : "");
      }
    }
    Run = R->Run;
    EngineStats = R->Stats;
    HaveStats = true;
  } else {
    return usage(2);
  }

  if (!FaultPlan.empty())
    std::printf("fault plan: %llu fault(s) injected\n",
                (unsigned long long)
                    FaultInjector::instance().totalInjected());

  if (!Run.Output.empty())
    std::printf("guest output: %s\n", Run.Output.c_str());
  for (uint32_t Word : Run.WordLog)
    std::printf("guest word: %u (0x%x)\n", Word, Word);
  std::printf("exit code %u; %llu instructions, %llu syscalls, "
              "%llu cycles\n",
              Run.ExitCode,
              (unsigned long long)Run.InstructionsExecuted,
              (unsigned long long)Run.SyscallCount,
              (unsigned long long)Run.Cycles);
  if (Stats && HaveStats)
    printStats(EngineStats);

  // The tool's concrete type is known from its name (no RTTI).
  if (ToolName == "bbcount") {
    auto *Bb = static_cast<dbi::BasicBlockCounterTool *>(Tool.get());
    std::printf("bbcount: %llu blocks over %zu sites\n",
                (unsigned long long)Bb->totalBlocks(),
                Bb->counts().size());
  } else if (ToolName == "memtrace") {
    auto *Mem = static_cast<dbi::MemRefTraceTool *>(Tool.get());
    std::printf("memtrace: %llu loads, %llu stores, checksum %016llx\n",
                (unsigned long long)Mem->loadCount(),
                (unsigned long long)Mem->storeCount(),
                (unsigned long long)Mem->checksum());
  } else if (ToolName == "icount") {
    auto *Ic = static_cast<dbi::InstructionCounterTool *>(Tool.get());
    std::printf("icount: %llu instructions\n",
                (unsigned long long)Ic->count());
  }
  return static_cast<int>(Run.ExitCode);
}
