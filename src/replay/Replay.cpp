//===- replay/Replay.cpp --------------------------------------------------===//

#include "replay/Replay.h"

#include "dbi/Engine.h"
#include "persist/DirectoryStore.h"
#include "persist/TieredStore.h"
#include "replay/Recorder.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pcc;
using namespace pcc::replay;

namespace {

/// Raw stdio file I/O: the replay layer must never route its own reads
/// and writes through pcc::readFile/writeFileAtomic, which would
/// consume fault-injector decisions meant for the run under test.
bool readRaw(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  Out.clear();
  uint8_t Buffer[1 << 16];
  size_t Got = 0;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.insert(Out.end(), Buffer, Buffer + Got);
  bool Ok = std::ferror(File) == 0;
  std::fclose(File);
  return Ok;
}

bool writeRaw(const std::string &Path,
              const std::vector<uint8_t> &Bytes) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return false;
  size_t Wrote = std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  bool Ok = Wrote == Bytes.size() && std::fflush(File) == 0;
  return std::fclose(File) == 0 && Ok;
}

/// Deletes the scratch tree and resets the injector on every exit path.
struct ReplayScope {
  std::string ScratchDir;
  ~ReplayScope() {
    FaultInjector::instance().reset();
    persist::setRecordingHooks(nullptr);
    if (!ScratchDir.empty())
      (void)removeRecursively(ScratchDir);
  }
};

/// Collects the replay leg's quarantine and schedule events. logName()
/// is empty so quarantine reasons written during replay carry no
/// annotation of their own.
class ReplayCollector final : public persist::RecordingHooks {
public:
  void onCacheObserved(const std::string &,
                       const std::vector<uint8_t> &) override {}
  void onCacheConsumed(const std::string &, persist::CacheTier,
                       uint64_t, uint64_t) override {}
  void onQuarantine(const std::string &Ref,
                    persist::QuarantineReasonCode Code,
                    const std::string &Detail) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    RecordedQuarantine Q;
    size_t Slash = Ref.rfind('/');
    Q.RefName = Slash == std::string::npos ? Ref : Ref.substr(Slash + 1);
    Q.Code = static_cast<uint8_t>(Code);
    Q.Detail = Detail;
    Quarantines.push_back(std::move(Q));
  }
  void onScheduleOutcomes(
      const persist::ScheduleOutcomes &Outcomes) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    Schedule = Outcomes;
  }
  std::string logName() const override { return ""; }

  void moveInto(ReplayOutcome &Out) {
    std::lock_guard<std::mutex> Guard(Mutex);
    Out.Quarantines = std::move(Quarantines);
    Out.Schedule = Schedule;
  }

private:
  std::mutex Mutex;
  std::vector<RecordedQuarantine> Quarantines;
  persist::ScheduleOutcomes Schedule;
};

} // namespace

ErrorOr<ReplayOutcome> replay::replayRun(const RecordedRun &Rec,
                                         const ReplayOptions &Opts) {
  // Rebuild the module universe: [0] is the app, the rest the registry.
  auto App = binary::Module::deserialize(Rec.Modules[0]);
  if (!App)
    return App.status();
  auto AppPtr = std::make_shared<const binary::Module>(App.take());
  loader::ModuleRegistry Registry;
  for (size_t I = 1; I != Rec.Modules.size(); ++I) {
    auto Mod = binary::Module::deserialize(Rec.Modules[I]);
    if (!Mod)
      return Mod.status();
    Registry.add(std::make_shared<const binary::Module>(Mod.take()));
  }

  // Scratch store of the recorded shape, seeded with the exact bytes
  // the recorded run observed. Seeding happens before the injector is
  // armed, so it consumes no fault decisions.
  auto Scratch = createUniqueTempDir("pcc-replay");
  if (!Scratch)
    return Scratch.status();
  ReplayScope Scope;
  Scope.ScratchDir = *Scratch;
  std::string L1Dir = *Scratch + "/l1";
  std::string L2Dir = *Scratch + "/l2";
  Status S = createDirectories(L1Dir);
  if (S.ok() && Rec.Config.Tiered)
    S = createDirectories(L2Dir);
  if (!S.ok())
    return S;
  for (const RecordedCache &C : Rec.Caches) {
    bool ToL2 = Rec.Config.Tiered && C.Consumed &&
                static_cast<persist::CacheTier>(C.Tier) ==
                    persist::CacheTier::L2;
    std::string Path = (ToL2 ? L2Dir : L1Dir) + "/" + C.RefName;
    if (!writeRaw(Path, C.Bytes))
      return Status::error(ErrorCode::IoError,
                           "cannot seed scratch cache " + Path);
  }

  // Re-arm the injector with the literal recorded decision streams:
  // call K of op X fails exactly when it failed at record time, and
  // each stream disarms at the recorded rule's disarm point.
  FaultInjector &Injector = FaultInjector::instance();
  Injector.reset();
  for (size_t Op = 0; Op != static_cast<size_t>(FaultOp::OpCount); ++Op)
    if (!Rec.FaultDecisions[Op].empty())
      Injector.armReplay(static_cast<FaultOp>(Op),
                         Rec.FaultDecisions[Op]);

  ReplayOutcome Out;
  auto M = vm::Machine::create(
      AppPtr, Registry,
      static_cast<loader::BasePolicy>(Rec.Config.BasePolicy),
      Rec.Config.AslrSeed,
      [&Rec, &Out](const loader::LoadedModule &Mod) {
        for (const auto &[Name, Base] : Rec.LoadBases) {
          if (Name != Mod.Image->name())
            continue;
          if (Base != Mod.Base)
            Out.BaseMismatches.push_back(formatString(
                "%s: recorded 0x%x, replayed 0x%x", Name.c_str(),
                Base, Mod.Base));
          return;
        }
        Out.BaseMismatches.push_back(
            Mod.Image->name() + ": not present in the recording");
      });
  if (!M)
    return M.status();
  S = M->installInput(Rec.Input);
  if (!S.ok())
    return S;

  auto Tool = makeNamedTool(Rec.Config.ToolName);
  if (!Tool)
    return Tool.status();
  dbi::EngineOptions EngineOpts;
  EngineOpts.OptimizeFlags = Rec.Config.OptimizeFlags;

  ReplayCollector Collector;
  persist::setRecordingHooks(&Collector);

  if (Opts.Persistence) {
    std::shared_ptr<persist::CacheStore> Backend;
    if (Rec.Config.Tiered)
      Backend = std::make_shared<persist::TieredStore>(
          std::make_shared<persist::DirectoryStore>(L1Dir),
          std::make_shared<persist::DirectoryStore>(L2Dir));
    else
      Backend = std::make_shared<persist::DirectoryStore>(L1Dir);
    persist::CacheDatabase Db(Backend);
    persist::PersistOptions POpts;
    POpts.InterApplication = Rec.Config.InterApplication;
    POpts.PositionIndependent = Rec.Config.PositionIndependent;
    POpts.ExecuteInPlace = Rec.Config.ExecuteInPlace;
    POpts.WriteBack = Rec.Config.WriteBack;
    POpts.OptTier = Rec.Config.OptTier;
    POpts.OptHeatThreshold = Rec.Config.OptHeatThreshold;
    POpts.OptMaxGen = Rec.Config.OptMaxGen;
    POpts.OptMaxSuperblockInsts = Rec.Config.OptMaxSuperblockInsts;
    POpts.ValidateSemantic =
        Rec.Config.ValidateSemantic || Opts.ForceValidate;
    POpts.Pool = Opts.Pool;
    auto R = persist::runWithPersistence(*M, Tool->get(), EngineOpts,
                                         Db, POpts);
    if (!R)
      return R.status();
    Out.Stats = R->Stats;
    Out.Run = R->Run;
  } else {
    dbi::Engine Engine(*M, Tool->get(), EngineOpts);
    Out.Run = Engine.run();
    Out.Stats = Engine.stats();
    Out.Run.Cycles = Out.Stats.totalCycles();
  }
  persist::setRecordingHooks(nullptr);
  Out.MemoryDigest = M->space().contentHash();
  Collector.moveInto(Out);
  return Out;
}

std::string replay::compareToRecording(const RecordedRun &Rec,
                                       const ReplayOutcome &Out) {
  if (!Out.BaseMismatches.empty())
    return "load base: " + Out.BaseMismatches.front();
  std::string Diff = diffStats(Rec.Stats, Out.Stats);
  if (!Diff.empty())
    return "stats: " + Diff;
  Diff = diffRunResult(Rec.Run, Out.Run);
  if (!Diff.empty())
    return "run: " + Diff;
  if (Rec.MemoryDigest != Out.MemoryDigest)
    return formatString(
        "final memory digest: recorded %016llx, replayed %016llx",
        (unsigned long long)Rec.MemoryDigest,
        (unsigned long long)Out.MemoryDigest);
  if (Rec.Quarantines.size() != Out.Quarantines.size())
    return formatString("quarantines: recorded %zu, replayed %zu",
                        Rec.Quarantines.size(), Out.Quarantines.size());
  for (size_t I = 0; I != Rec.Quarantines.size(); ++I) {
    const RecordedQuarantine &A = Rec.Quarantines[I];
    const RecordedQuarantine &B = Out.Quarantines[I];
    if (A.RefName != B.RefName || A.Code != B.Code)
      return formatString(
          "quarantine %zu: recorded %s (code %u), replayed %s "
          "(code %u)",
          I, A.RefName.c_str(), A.Code, B.RefName.c_str(), B.Code);
  }
  return "";
}

ErrorOr<std::string> replay::replayDiff(const RecordedRun &Rec,
                                        support::ThreadPool *Pool) {
  ReplayOptions OnOpts;
  OnOpts.Pool = Pool;
  auto On = replayRun(Rec, OnOpts);
  if (!On)
    return On.status();
  std::string Diff = compareToRecording(Rec, *On);
  if (!Diff.empty())
    return "persistence-on leg: " + Diff;

  ReplayOptions OffOpts;
  OffOpts.Persistence = false;
  auto Off = replayRun(Rec, OffOpts);
  if (!Off)
    return Off.status();
  if (!On->Run.observablyEquals(Off->Run))
    return std::string("differential: guest-observable results differ "
                       "between the persistence-on and -off legs");
  if (On->MemoryDigest != Off->MemoryDigest)
    return std::string("differential: final guest memory differs "
                       "between the persistence-on and -off legs");
  return std::string();
}

ErrorOr<RecordedRun> replay::readLogFile(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  if (!readRaw(Path, Bytes))
    return Status::error(ErrorCode::IoError,
                         "cannot read replay log " + Path);
  return deserializeLog(Bytes);
}

Status replay::writeLogFile(const std::string &Path,
                            const RecordedRun &Run) {
  if (!writeRaw(Path, serializeLog(Run)))
    return Status::error(ErrorCode::IoError,
                         "cannot write replay log " + Path);
  return Status::success();
}
