//===- replay/Recorder.cpp ------------------------------------------------===//

#include "replay/Recorder.h"

#include "support/FaultInjector.h"

#include <algorithm>

using namespace pcc;
using namespace pcc::replay;

namespace {

std::string baseNameOf(const std::string &Ref) {
  size_t Slash = Ref.rfind('/');
  return Slash == std::string::npos ? Ref : Ref.substr(Slash + 1);
}

/// The RecordingHooks implementation: accumulates observed state under
/// a mutex (callbacks can arrive from pool workers during a background
/// publish).
class Recorder final : public persist::RecordingHooks {
public:
  explicit Recorder(std::string LogName) : LogName(std::move(LogName)) {}

  void onCacheObserved(const std::string &Ref,
                       const std::vector<uint8_t> &Bytes) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    std::string Name = baseNameOf(Ref);
    // First observation wins: that is the pre-run state of the slot
    // (a later open may see bytes this very run wrote back).
    for (const RecordedCache &C : Caches)
      if (C.RefName == Name)
        return;
    RecordedCache C;
    C.RefName = std::move(Name);
    C.Bytes = Bytes;
    Caches.push_back(std::move(C));
  }

  void onCacheConsumed(const std::string &Ref, persist::CacheTier Tier,
                       uint64_t FetchBytes,
                       uint64_t FetchCycles) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    std::string Name = baseNameOf(Ref);
    for (RecordedCache &C : Caches) {
      if (C.RefName != Name)
        continue;
      C.Consumed = true;
      C.Tier = static_cast<uint8_t>(Tier);
      C.FetchBytes = FetchBytes;
      C.FetchCycles = FetchCycles;
      return;
    }
  }

  void onQuarantine(const std::string &Ref,
                    persist::QuarantineReasonCode Code,
                    const std::string &Detail) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    RecordedQuarantine Q;
    Q.RefName = baseNameOf(Ref);
    Q.Code = static_cast<uint8_t>(Code);
    Q.Detail = Detail;
    Quarantines.push_back(std::move(Q));
  }

  void onScheduleOutcomes(
      const persist::ScheduleOutcomes &Outcomes) override {
    std::lock_guard<std::mutex> Guard(Mutex);
    Schedule = Outcomes;
  }

  std::string logName() const override { return LogName; }

  void noteFaultDecision(FaultOp Op, bool Failed) {
    // Serialized by the injector's own mutex; no further locking.
    Decisions[static_cast<size_t>(Op)].push_back(Failed ? 1 : 0);
  }

  void moveInto(RecordedRun &Run) {
    std::lock_guard<std::mutex> Guard(Mutex);
    Run.Caches = std::move(Caches);
    Run.Quarantines = std::move(Quarantines);
    Run.Schedule = Schedule;
    for (size_t Op = 0;
         Op != static_cast<size_t>(FaultOp::OpCount); ++Op)
      Run.FaultDecisions[Op] = std::move(Decisions[Op]);
  }

private:
  std::string LogName;
  std::mutex Mutex;
  std::vector<RecordedCache> Caches;
  std::vector<RecordedQuarantine> Quarantines;
  persist::ScheduleOutcomes Schedule;
  std::vector<uint8_t>
      Decisions[static_cast<size_t>(FaultOp::OpCount)];
};

/// Detaches the global hooks and the injector observer on every exit
/// path.
struct TapGuard {
  ~TapGuard() {
    persist::setRecordingHooks(nullptr);
    FaultInjector::instance().setDecisionObserver(nullptr);
  }
};

} // namespace

ErrorOr<std::unique_ptr<dbi::Tool>>
replay::makeNamedTool(const std::string &Name) {
  std::unique_ptr<dbi::Tool> Tool;
  if (Name == "bbcount")
    Tool = std::make_unique<dbi::BasicBlockCounterTool>();
  else if (Name == "memtrace")
    Tool = std::make_unique<dbi::MemRefTraceTool>();
  else if (Name == "icount")
    Tool = std::make_unique<dbi::InstructionCounterTool>();
  else if (Name != "none")
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown tool: " + Name);
  return Tool;
}

ErrorOr<RecordedRun>
replay::recordRun(const loader::ModuleRegistry &Registry,
                  std::shared_ptr<const binary::Module> App,
                  const std::vector<uint8_t> &Input,
                  const persist::CacheDatabase &Db,
                  const persist::PersistOptions &PersistOpts,
                  const RecordSpec &Spec) {
  RecordedRun Run;
  Run.LogName = Spec.LogName;
  Run.Config.ToolName = Spec.ToolName;
  Run.Config.OptimizeFlags = Spec.OptimizeFlags;
  Run.Config.InterApplication = PersistOpts.InterApplication;
  Run.Config.PositionIndependent = PersistOpts.PositionIndependent;
  Run.Config.ExecuteInPlace = PersistOpts.ExecuteInPlace;
  Run.Config.WriteBack = PersistOpts.WriteBack;
  Run.Config.ValidateSemantic = PersistOpts.ValidateSemantic;
  Run.Config.Tiered = Spec.Tiered;
  Run.Config.OptTier = PersistOpts.OptTier;
  Run.Config.OptHeatThreshold = PersistOpts.OptHeatThreshold;
  Run.Config.OptMaxGen = PersistOpts.OptMaxGen;
  Run.Config.OptMaxSuperblockInsts = PersistOpts.OptMaxSuperblockInsts;
  Run.Config.BasePolicy = static_cast<uint8_t>(Spec.Policy);
  Run.Config.AslrSeed = Spec.AslrSeed;
  // Snapshot of the armed rules *with their consumed state*: replay
  // re-arms the exact same generators, or (preferably) the literal
  // decision streams recorded below.
  Run.Config.FaultPlan = FaultInjector::instance().planString();

  // The guest program and its library universe, app first, then the
  // registry sorted by name — a deterministic serialization order.
  Run.Modules.push_back(App->serialize());
  for (const auto &Mod : Registry.all())
    Run.Modules.push_back(Mod->serialize());
  Run.Input = Input;

  auto Tool = makeNamedTool(Spec.ToolName);
  if (!Tool)
    return Tool.status();

  Recorder Rec(Spec.LogName);
  TapGuard Guard;
  FaultInjector::instance().setDecisionObserver(
      [&Rec](FaultOp Op, bool Failed) {
        Rec.noteFaultDecision(Op, Failed);
      });
  persist::setRecordingHooks(&Rec);

  auto M = vm::Machine::create(
      App, Registry, Spec.Policy, Spec.AslrSeed,
      [&Run](const loader::LoadedModule &Mod) {
        Run.LoadBases.emplace_back(Mod.Image->name(), Mod.Base);
      });
  if (!M)
    return M.status();
  Status S = M->installInput(Input);
  if (!S.ok())
    return S;

  dbi::EngineOptions EngineOpts;
  EngineOpts.OptimizeFlags = Spec.OptimizeFlags;
  auto Result = persist::runWithPersistence(*M, Tool->get(), EngineOpts,
                                            Db, PersistOpts);
  if (!Result)
    return Result.status();

  // Trailer: what the replayer must reproduce bit-identically.
  Run.Stats = Result->Stats;
  Run.Run = Result->Run;
  Run.MemoryDigest = M->space().contentHash();
  Rec.moveInto(Run);

  // Detach before touching the store again: the attachment write must
  // not record itself.
  persist::setRecordingHooks(nullptr);
  FaultInjector::instance().setDecisionObserver(nullptr);

  // A quarantining run leaves its log next to the evidence, so
  // `pcc-dbcheck --replay <name>` can re-drive the offending run.
  if (!Run.Quarantines.empty() && !Spec.LogName.empty())
    (void)Db.backend()->attachToQuarantine(Spec.LogName,
                                           serializeLog(Run));
  return Run;
}
