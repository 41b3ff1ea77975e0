//===- replay/Log.cpp -----------------------------------------------------===//

#include "replay/Log.h"

#include "dbi/Engine.h"
#include "support/ByteStream.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

using namespace pcc;
using namespace pcc::replay;

namespace {

constexpr size_t NumFaultOps = static_cast<size_t>(FaultOp::OpCount);

void writeStats(ByteWriter &W, const dbi::EngineStats &Stats) {
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    W.writeU64(Stats.*C.Field);
  W.writeU8(Stats.PersistDegraded ? 1 : 0);
  W.writeString(Stats.PersistDegradeReason);
  W.writeU32(static_cast<uint32_t>(Stats.Timeline.size()));
  for (const dbi::CompileEvent &E : Stats.Timeline) {
    W.writeU64(E.GuestInstsExecuted);
    W.writeU32(E.TraceInsts);
  }
}

dbi::EngineStats readStats(ByteReader &R) {
  dbi::EngineStats Stats;
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    Stats.*C.Field = R.readU64();
  Stats.PersistDegraded = R.readU8() != 0;
  Stats.PersistDegradeReason = R.readString();
  uint32_t Events = R.readU32();
  // Cap pre-reservation against a hostile length field; push_back
  // fails naturally when the reader runs dry.
  Stats.Timeline.reserve(std::min<uint32_t>(Events, 1u << 16));
  for (uint32_t I = 0; I != Events && !R.failed(); ++I) {
    dbi::CompileEvent E;
    E.GuestInstsExecuted = R.readU64();
    E.TraceInsts = R.readU32();
    Stats.Timeline.push_back(E);
  }
  return Stats;
}

void writeRunResult(ByteWriter &W, const vm::RunResult &Run) {
  W.writeU8(Run.ok() ? 1 : 0);
  W.writeU32(static_cast<uint32_t>(Run.Error.code()));
  W.writeString(Run.Error.message());
  W.writeU32(Run.ExitCode);
  W.writeString(Run.Output);
  W.writeU32(static_cast<uint32_t>(Run.WordLog.size()));
  for (uint32_t Word : Run.WordLog)
    W.writeU32(Word);
  W.writeU64(Run.InstructionsExecuted);
  W.writeU64(Run.SyscallCount);
  W.writeU64(Run.Cycles);
}

vm::RunResult readRunResult(ByteReader &R) {
  vm::RunResult Run;
  bool Ok = R.readU8() != 0;
  auto Code = static_cast<ErrorCode>(R.readU32());
  std::string Message = R.readString();
  if (!Ok)
    Run.Error = Status::error(Code, Message);
  Run.ExitCode = R.readU32();
  Run.Output = R.readString();
  uint32_t Words = R.readU32();
  Run.WordLog.reserve(std::min<uint32_t>(Words, 1u << 20));
  for (uint32_t I = 0; I != Words && !R.failed(); ++I)
    Run.WordLog.push_back(R.readU32());
  Run.InstructionsExecuted = R.readU64();
  Run.SyscallCount = R.readU64();
  Run.Cycles = R.readU64();
  return Run;
}

Status badLog(const std::string &What) {
  return Status::error(ErrorCode::InvalidFormat,
                       "replay log: " + What);
}

} // namespace

std::vector<uint8_t> replay::serializeLog(const RecordedRun &Run) {
  ByteWriter Body;
  // Config.
  Body.writeString(Run.Config.ToolName);
  Body.writeU8(Run.Config.OptimizeFlags ? 1 : 0);
  Body.writeU8(Run.Config.InterApplication ? 1 : 0);
  Body.writeU8(Run.Config.PositionIndependent ? 1 : 0);
  Body.writeU8(Run.Config.ExecuteInPlace ? 1 : 0);
  Body.writeU8(Run.Config.WriteBack ? 1 : 0);
  Body.writeU8(Run.Config.ValidateSemantic ? 1 : 0);
  Body.writeU8(Run.Config.Tiered ? 1 : 0);
  Body.writeU8(Run.Config.OptTier ? 1 : 0);
  Body.writeU32(Run.Config.OptHeatThreshold);
  Body.writeU32(Run.Config.OptMaxGen);
  Body.writeU32(Run.Config.OptMaxSuperblockInsts);
  Body.writeU8(Run.Config.BasePolicy);
  Body.writeU64(Run.Config.AslrSeed);
  Body.writeString(Run.Config.FaultPlan);
  // Guest program and input.
  Body.writeU32(static_cast<uint32_t>(Run.Modules.size()));
  for (const std::vector<uint8_t> &Mod : Run.Modules)
    Body.writeBlob(Mod);
  Body.writeBlob(Run.Input);
  Body.writeU32(static_cast<uint32_t>(Run.LoadBases.size()));
  for (const auto &[Name, Base] : Run.LoadBases) {
    Body.writeString(Name);
    Body.writeU32(Base);
  }
  // Observed cache state.
  Body.writeU32(static_cast<uint32_t>(Run.Caches.size()));
  for (const RecordedCache &C : Run.Caches) {
    Body.writeString(C.RefName);
    Body.writeBlob(C.Bytes);
    Body.writeU8(C.Consumed ? 1 : 0);
    Body.writeU8(C.Tier);
    Body.writeU64(C.FetchBytes);
    Body.writeU64(C.FetchCycles);
  }
  // Fault decision streams.
  for (size_t Op = 0; Op != NumFaultOps; ++Op)
    Body.writeBlob(Run.FaultDecisions[Op]);
  // Quarantines.
  Body.writeU32(static_cast<uint32_t>(Run.Quarantines.size()));
  for (const RecordedQuarantine &Q : Run.Quarantines) {
    Body.writeString(Q.RefName);
    Body.writeU8(Q.Code);
    Body.writeString(Q.Detail);
  }
  // Schedule diagnostics.
  Body.writeU64(Run.Schedule.ChunksPublished);
  Body.writeU64(Run.Schedule.ChunksClaimed);
  Body.writeU64(Run.Schedule.ChunksWithdrawn);
  Body.writeU64(Run.Schedule.ChunksInFlightSkipped);
  // Trailer.
  writeStats(Body, Run.Stats);
  writeRunResult(Body, Run.Run);
  Body.writeU64(Run.MemoryDigest);
  Body.writeString(Run.LogName);

  ByteWriter Out;
  Out.reserve(Body.size() + 24);
  Out.writeU32(LogMagic);
  Out.writeU32(LogVersion);
  Out.writeU64(dbi::engineVersionHash());
  Out.writeU32(static_cast<uint32_t>(Body.size()));
  Out.writeBytes(Body.bytes().data(), Body.size());
  Out.writeU32(crc32(Body.bytes().data(), Body.size()));
  return Out.take();
}

ErrorOr<RecordedRun> replay::deserializeLog(
    const std::vector<uint8_t> &Bytes) {
  ByteReader Header(Bytes);
  if (Header.readU32() != LogMagic || Header.failed())
    return badLog("bad magic (not a .pcrr file)");
  uint32_t Version = Header.readU32();
  uint64_t EngineHash = Header.readU64();
  uint32_t BodySize = Header.readU32();
  if (Header.failed() || BodySize > Header.remaining())
    return badLog("truncated header");
  if (Version != LogVersion)
    return Status::error(
        ErrorCode::VersionMismatch,
        formatString("replay log: version %u, this binary reads %u",
                     Version, LogVersion));
  const uint8_t *BodyData = Bytes.data() + Header.offset();
  ByteReader Body(BodyData, BodySize);
  ByteReader Trailer(BodyData + BodySize,
                     Bytes.size() - Header.offset() - BodySize);
  if (Trailer.readU32() != crc32(BodyData, BodySize) || Trailer.failed())
    return badLog("body CRC mismatch (truncated or corrupted)");
  if (EngineHash != dbi::engineVersionHash())
    return Status::error(
        ErrorCode::VersionMismatch,
        "replay log: recorded under a different engine version");

  RecordedRun Run;
  Run.Config.ToolName = Body.readString();
  Run.Config.OptimizeFlags = Body.readU8() != 0;
  Run.Config.InterApplication = Body.readU8() != 0;
  Run.Config.PositionIndependent = Body.readU8() != 0;
  Run.Config.ExecuteInPlace = Body.readU8() != 0;
  Run.Config.WriteBack = Body.readU8() != 0;
  Run.Config.ValidateSemantic = Body.readU8() != 0;
  Run.Config.Tiered = Body.readU8() != 0;
  Run.Config.OptTier = Body.readU8() != 0;
  Run.Config.OptHeatThreshold = Body.readU32();
  Run.Config.OptMaxGen = Body.readU32();
  Run.Config.OptMaxSuperblockInsts = Body.readU32();
  Run.Config.BasePolicy = Body.readU8();
  Run.Config.AslrSeed = Body.readU64();
  Run.Config.FaultPlan = Body.readString();
  uint32_t NumModules = Body.readU32();
  for (uint32_t I = 0; I != NumModules && !Body.failed(); ++I)
    Run.Modules.push_back(Body.readBlob());
  Run.Input = Body.readBlob();
  uint32_t NumBases = Body.readU32();
  for (uint32_t I = 0; I != NumBases && !Body.failed(); ++I) {
    std::string Name = Body.readString();
    uint32_t Base = Body.readU32();
    Run.LoadBases.emplace_back(std::move(Name), Base);
  }
  uint32_t NumCaches = Body.readU32();
  for (uint32_t I = 0; I != NumCaches && !Body.failed(); ++I) {
    RecordedCache C;
    C.RefName = Body.readString();
    C.Bytes = Body.readBlob();
    C.Consumed = Body.readU8() != 0;
    C.Tier = Body.readU8();
    C.FetchBytes = Body.readU64();
    C.FetchCycles = Body.readU64();
    Run.Caches.push_back(std::move(C));
  }
  for (size_t Op = 0; Op != NumFaultOps; ++Op)
    Run.FaultDecisions[Op] = Body.readBlob();
  uint32_t NumQuarantines = Body.readU32();
  for (uint32_t I = 0; I != NumQuarantines && !Body.failed(); ++I) {
    RecordedQuarantine Q;
    Q.RefName = Body.readString();
    Q.Code = Body.readU8();
    Q.Detail = Body.readString();
    Run.Quarantines.push_back(std::move(Q));
  }
  Run.Schedule.ChunksPublished = Body.readU64();
  Run.Schedule.ChunksClaimed = Body.readU64();
  Run.Schedule.ChunksWithdrawn = Body.readU64();
  Run.Schedule.ChunksInFlightSkipped = Body.readU64();
  Run.Stats = readStats(Body);
  Run.Run = readRunResult(Body);
  Run.MemoryDigest = Body.readU64();
  Run.LogName = Body.readString();
  if (Body.failed())
    return badLog("truncated body");
  if (Run.Modules.empty())
    return badLog("no application module recorded");
  return Run;
}

std::string replay::diffStats(const dbi::EngineStats &A,
                              const dbi::EngineStats &B) {
  auto Diff = [](const char *Name, uint64_t X, uint64_t Y) {
    return formatString("%s: recorded %llu, replayed %llu", Name,
                        (unsigned long long)X, (unsigned long long)Y);
  };
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    if (A.*C.Field != B.*C.Field)
      return Diff(C.Name, A.*C.Field, B.*C.Field);
  if (A.PersistDegraded != B.PersistDegraded)
    return formatString("PersistDegraded: recorded %d, replayed %d",
                        A.PersistDegraded ? 1 : 0,
                        B.PersistDegraded ? 1 : 0);
  // The degrade reason embeds host paths; only its presence is part of
  // the deterministic surface.
  if (A.PersistDegradeReason.empty() != B.PersistDegradeReason.empty())
    return "PersistDegradeReason: presence differs";
  if (A.Timeline.size() != B.Timeline.size())
    return Diff("Timeline.size", A.Timeline.size(), B.Timeline.size());
  for (size_t I = 0; I != A.Timeline.size(); ++I) {
    if (A.Timeline[I].GuestInstsExecuted !=
        B.Timeline[I].GuestInstsExecuted ||
        A.Timeline[I].TraceInsts != B.Timeline[I].TraceInsts)
      return formatString("Timeline[%zu] differs", I);
  }
  return "";
}

std::string replay::diffRunResult(const vm::RunResult &A,
                                  const vm::RunResult &B) {
  if (A.ok() != B.ok())
    return formatString("run outcome: recorded %s, replayed %s",
                        A.ok() ? "success" : "failure",
                        B.ok() ? "success" : "failure");
  if (!A.ok() && A.Error.code() != B.Error.code())
    return "run error code differs";
  if (A.ExitCode != B.ExitCode)
    return formatString("ExitCode: recorded %u, replayed %u",
                        A.ExitCode, B.ExitCode);
  if (A.Output != B.Output)
    return "guest Output differs";
  if (A.WordLog != B.WordLog)
    return "guest WordLog differs";
  if (A.InstructionsExecuted != B.InstructionsExecuted)
    return formatString(
        "InstructionsExecuted: recorded %llu, replayed %llu",
        (unsigned long long)A.InstructionsExecuted,
        (unsigned long long)B.InstructionsExecuted);
  if (A.SyscallCount != B.SyscallCount)
    return "SyscallCount differs";
  if (A.Cycles != B.Cycles)
    return formatString("Cycles: recorded %llu, replayed %llu",
                        (unsigned long long)A.Cycles,
                        (unsigned long long)B.Cycles);
  return "";
}
