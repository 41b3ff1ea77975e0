//===- persist/RecordingHooks.h - record/replay taps ------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-global observation points the record/replay layer installs
/// while a run is being recorded. The persistence stack reports the
/// nondeterministic inputs it consumes — the cache bytes an open
/// observed, which tier satisfied the prime, every quarantine decision,
/// and the install queue's scheduling outcomes — without depending on
/// `pcc::replay` (the recorder lives above this layer and implements
/// the interface).
///
/// The hooks are off in normal operation: every tap site guards itself
/// with a single relaxed atomic load of the installed pointer, so an
/// unrecorded run pays one predictable branch per site (the same
/// discipline FaultInjector::enabled() uses).
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_RECORDINGHOOKS_H
#define PCC_PERSIST_RECORDINGHOOKS_H

#include "persist/CacheStore.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// Install-queue scheduling outcomes of one run — how the racing of
/// background payload validation against the engine thread resolved.
/// Recorded as *diagnostics*: the PR 4 invariant makes EngineStats
/// independent of these numbers, so replay never asserts on them, but a
/// human minimizing a divergence wants to see how the schedule fell.
struct ScheduleOutcomes {
  uint64_t ChunksPublished = 0;      ///< Worker-validated chunks posted.
  uint64_t ChunksClaimed = 0;        ///< Chunks the engine consumed.
  uint64_t ChunksWithdrawn = 0;      ///< Unclaimed chunks taken back.
  uint64_t ChunksInFlightSkipped = 0; ///< Claims lost to a busy worker.
};

/// Interface the recorder implements. Callbacks may arrive from worker
/// threads; implementations synchronize internally. All callbacks must
/// be cheap and must not call back into the persistence layer.
class RecordingHooks {
public:
  virtual ~RecordingHooks() = default;

  /// A store open observed the raw bytes of the cache at \p Ref (fired
  /// before parsing, so corrupt caches are captured too).
  virtual void onCacheObserved(const std::string &Ref,
                               const std::vector<uint8_t> &Bytes) = 0;

  /// The session committed to priming from the cache at \p Ref, served
  /// by \p Tier with the given modeled remote-fetch charges.
  virtual void onCacheConsumed(const std::string &Ref, CacheTier Tier,
                               uint64_t FetchBytes,
                               uint64_t FetchCycles) = 0;

  /// A cache was quarantined (auto-quarantine on open, or the semantic
  /// validator's verdict) with the given parsed reason.
  virtual void onQuarantine(const std::string &Ref,
                            QuarantineReasonCode Code,
                            const std::string &Detail) = 0;

  /// The run's install-queue scheduling outcomes (fired when the
  /// session's wait() has quiesced the queue).
  virtual void onScheduleOutcomes(const ScheduleOutcomes &Outcomes) = 0;

  /// Name under which the in-progress recording will be persisted
  /// ("" when the recording is anonymous). Quarantine reasons embed it
  /// so `pcc-dbcheck --replay` can find the log.
  virtual std::string logName() const = 0;
};

namespace detail {
extern std::atomic<RecordingHooks *> ActiveRecordingHooks;
} // namespace detail

/// The installed hooks, or nullptr. One relaxed load — cheap enough for
/// every tap site to call unconditionally.
inline RecordingHooks *recordingHooks() {
  return detail::ActiveRecordingHooks.load(std::memory_order_acquire);
}

/// Installs \p Hooks process-globally (nullptr to detach). The caller
/// owns the object and must keep it alive until after detaching; runs
/// are recorded one at a time.
void setRecordingHooks(RecordingHooks *Hooks);

/// Encoded reason for a quarantine, annotated with the active
/// recording's log name (when a recording is in progress) so the
/// quarantine carries a pointer to the run that produced it. Also fires
/// RecordingHooks::onQuarantine. Every quarantine site in the
/// persistence stack funnels through here.
std::string annotatedQuarantineReason(const std::string &Ref,
                                      QuarantineReasonCode Code,
                                      const std::string &Detail);

/// Splits the "replay-log: <name>" annotation (if any) out of a stored
/// quarantine reason: returns the reason without the annotation line
/// and sets \p ReplayLog to the log name or "".
std::string splitReplayAnnotation(const std::string &Stored,
                                  std::string *ReplayLog);

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_RECORDINGHOOKS_H
