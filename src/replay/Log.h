//===- replay/Log.h - Record/replay event-log format ------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `.pcrr` log: a compact, versioned, CRC-protected capture of one
/// run's *nondeterministic inputs* plus a trailer of its expected
/// results. rr-style, the log records only what the environment chose —
/// the guest program and input, library load bases, the cache bytes the
/// store served, the armed fault plan and every fired fault decision —
/// and the replayer re-derives everything else by re-executing. The
/// trailer (full EngineStats, RunResult, final memory digest) is what
/// replay asserts bit-identical.
///
/// Deliberately *not* recorded (see DESIGN.md "Record & replay"):
/// host wall-clock, thread interleavings (the PR 4 invariant makes
/// engine results independent of them; the install queue's outcomes are
/// kept as diagnostics only), host paths inside degrade/status messages
/// (compared by presence, not bytes), and the written-back cache (an
/// output, not an input).
///
/// Layout: magic "PCRR" | u32 version | u64 engine-version hash |
/// u32 body length | body | u32 CRC-32 of body. A magic or CRC failure
/// reads as InvalidFormat; a version or engine-hash mismatch as
/// VersionMismatch — tools map both to their "unreadable log" exit.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_REPLAY_LOG_H
#define PCC_REPLAY_LOG_H

#include "dbi/Stats.h"
#include "persist/RecordingHooks.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "vm/Interpreter.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pcc {
namespace replay {

/// "PCRR" in little-endian byte order.
inline constexpr uint32_t LogMagic = 0x52524350;
/// Bump on any layout change to the body or trailer.
/// v2: EngineStats gained the certificate counters (CertsChecked,
/// CertChecksFailed, ProofsReplayed).
/// v3: the stats trailer is written from dbi::EngineStatsCounters, which
/// adds the six opt-tier counters v2 dropped, and the config records the
/// opt-tier finalize settings (OptTier, OptHeatThreshold, OptMaxGen,
/// OptMaxSuperblockInsts).
inline constexpr uint32_t LogVersion = 3;

/// The run configuration knobs that affect engine-visible results.
struct RecordedConfig {
  std::string ToolName = "none"; ///< none|bbcount|memtrace|icount.
  bool OptimizeFlags = false;
  bool InterApplication = false;
  bool PositionIndependent = false;
  bool ExecuteInPlace = false;
  bool WriteBack = true;
  bool ValidateSemantic = false;
  bool Tiered = false;  ///< Store was L1 + remote L2.
  /// Finalize-time opt tier: these set the run's promotion counters.
  bool OptTier = false;
  uint32_t OptHeatThreshold = 0;
  uint32_t OptMaxGen = 0;
  uint32_t OptMaxSuperblockInsts = 0;
  uint8_t BasePolicy = 0; ///< loader::BasePolicy.
  uint64_t AslrSeed = 0;
  /// FaultInjector::planString() at record start: the armed rules with
  /// their consumed state, so replay re-arms the exact generators.
  std::string FaultPlan;
};

/// One cache file the run observed through the store, captured raw
/// (before parsing — corrupt caches are inputs too).
struct RecordedCache {
  std::string RefName;             ///< Basename ("<hex16>.pcc").
  std::vector<uint8_t> Bytes;      ///< Raw contents as served.
  bool Consumed = false;           ///< The prime committed to this one.
  uint8_t Tier = 0;                ///< persist::CacheTier at consume.
  uint64_t FetchBytes = 0;         ///< Modeled remote-fetch charges
  uint64_t FetchCycles = 0;        ///< (diagnostic cross-check).
};

/// One quarantine decision the run made.
struct RecordedQuarantine {
  std::string RefName;  ///< Basename of the quarantined cache.
  uint8_t Code = 0;     ///< persist::QuarantineReasonCode.
  std::string Detail;   ///< Human detail (not byte-compared at replay).
};

/// Everything one recorded run needs to be replayed and checked.
struct RecordedRun {
  RecordedConfig Config;
  /// Serialized guest modules: [0] is the application, the rest the
  /// registry's libraries sorted by name.
  std::vector<std::vector<uint8_t>> Modules;
  std::vector<uint8_t> Input;
  /// Module name -> base address as the loader chose them (replay
  /// verifies ASLR reproduced the same layout).
  std::vector<std::pair<std::string, uint32_t>> LoadBases;
  /// Caches observed, in first-observation order.
  std::vector<RecordedCache> Caches;
  /// Per-op fault decision streams, in call order (index =
  /// support::FaultOp). Nonzero byte = that call failed.
  std::vector<uint8_t>
      FaultDecisions[static_cast<size_t>(FaultOp::OpCount)];
  std::vector<RecordedQuarantine> Quarantines;
  /// Install-queue scheduling outcomes (diagnostics; never asserted).
  persist::ScheduleOutcomes Schedule;

  /// \name Trailer: the expected results replay must reproduce.
  /// @{
  dbi::EngineStats Stats;
  vm::RunResult Run;
  uint64_t MemoryDigest = 0; ///< AddressSpace::contentHash() after run.
  /// @}

  /// Name this log is persisted under ("" for anonymous recordings);
  /// quarantine reasons embed it.
  std::string LogName;
};

/// Serializes \p Run into a `.pcrr` image.
std::vector<uint8_t> serializeLog(const RecordedRun &Run);

/// Parses a `.pcrr` image. InvalidFormat on bad magic/CRC/structure;
/// VersionMismatch when the log version or the recording engine's
/// version hash differs from this binary.
ErrorOr<RecordedRun> deserializeLog(const std::vector<uint8_t> &Bytes);

/// First difference between recorded and replayed stats as a
/// human-readable "field: recorded X, replayed Y" string; "" when
/// bit-identical. Every dbi::EngineStatsCounters entry is compared,
/// then PersistDegraded and the Timeline; PersistDegradeReason is
/// compared by presence only (the message embeds host paths).
std::string diffStats(const dbi::EngineStats &Recorded,
                      const dbi::EngineStats &Replayed);

/// Same contract for the guest-visible run result (all fields,
/// including modeled cycles).
std::string diffRunResult(const vm::RunResult &Recorded,
                          const vm::RunResult &Replayed);

} // namespace replay
} // namespace pcc

#endif // PCC_REPLAY_LOG_H
