//===- dbi/InstallQueue.h - Async persisted-trace validation ----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-off between background payload validation and the engine:
/// prime() admits persisted traces synchronously (so the translation
/// map, links and every modeled cost are identical at any worker
/// count) but defers the *host-side* work of each payload — CRC over
/// the stored bytes and decoding the translated body — to jobs on the
/// shared ThreadPool. Jobs address the admitted plan by slot: job K
/// covers slots [K * PayloadChunkSlots, (K + 1) * PayloadChunkSlots).
/// Workers publish finished chunks here; at a trace's first execution
/// the engine takes the published chunk that covers its slot, so first
/// execution skips the inline CRC + decode stall while charging exactly
/// the modeled cycles the synchronous path charges. Both sides validate
/// through validatePersistedPayload().
///
/// Invariants that keep results bit-identical for any worker count:
///
///   * Jobs read only immutable, session-owned data — the cache-file
///     view and the admitted plan's payload parameters — never engine
///     memory or code-cache slots, so a flush or eviction can never race
///     a worker.
///   * All modeled charges (CRC, materialize, page-touch cycles) are
///     made by the engine thread at first execution, whether the body
///     came from a worker or was validated inline.
///   * takeFor() never blocks: an unclaimed job is withdrawn and an
///     in-flight one skipped, and either way the engine validates its
///     trace inline from the same stored bytes, producing the same
///     trace.
///   * A result whose trace already materialized, or was flushed or
///     evicted, is dropped by the engine, never consumed — the guest PC
///     recompiles through the normal dispatcher path, same as a cold
///     run.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_INSTALLQUEUE_H
#define PCC_DBI_INSTALLQUEUE_H

#include "dbi/CodeCache.h"
#include "isa/Instruction.h"
#include "support/Error.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace pcc {
namespace dbi {

/// Counters of the scheduling decisions the queue made over its
/// lifetime. The engine's results are invariant to them by design
/// (see the class invariants below); a recorder captures them as a
/// *diagnostic* timeline so a replay divergence can be attributed to
/// scheduling vs. input drift.
struct ScheduleStats {
  uint64_t ChunksPublished = 0; ///< Worker jobs that ran to publish.
  uint64_t ChunksClaimed = 0;   ///< Jobs claimed by a worker.
  uint64_t ChunksWithdrawn = 0; ///< Unclaimed jobs takeFor() withdrew.
  uint64_t ChunksInFlightSkipped = 0; ///< takeFor() hit a Claimed job.
};

/// Plan slots per install-queue job. Batching keeps the producer loop —
/// which runs on the engine thread inside prime() — and the queue's
/// bookkeeping off the run's critical path; a chunk is still small
/// enough that losing a withdrawn chunk's background work is
/// negligible.
inline constexpr uint32_t PayloadChunkSlots = 64;

/// One validated persisted payload, ready to install — whether a
/// worker or the engine's first-execution path validated it.
struct ReadyTrace {
  uint32_t Slot = 0; ///< The trace's plan slot.
  /// Payload CRC over the raw stored bytes matched the trace index.
  bool CrcOk = false;
  /// Decode failure of a CRC-clean payload (success otherwise). The
  /// engine returns it as the trace's materialize error.
  Status DecodeError = Status::success();
  /// Decoded translated body with the position-independent rebase
  /// already applied; empty unless CrcOk and DecodeError is success.
  std::vector<isa::Instruction> Body;
};

/// Validates one persisted payload for materialization: CRC over the
/// \p RawBytes raw stored bytes at \p Raw against the trace index, then
/// decode of the \p InstCount-instruction body, rebased by \p P's
/// load delta through rebaseTranslatedImage. Reads nothing but its
/// arguments, so the engine's first-execution path and async-prime
/// workers run the identical check.
ReadyTrace validatePersistedPayload(uint32_t Slot, uint32_t InstCount,
                                    const uint8_t *Raw, uint32_t RawBytes,
                                    const PersistedPayload &P);

/// Lock-protected queue of payload-validation jobs and their results.
/// One producer (the session, before run()), N worker threads, one
/// consumer (the engine thread).
///
/// Jobs are *batched*: each covers a chunk of PayloadChunkSlots plan
/// slots and publishes one ReadyTrace per slot. Batching keeps the
/// producer/consumer overhead (closure allocation, lock round-trips)
/// proportional to the chunk count rather than the trace count, which
/// matters because the producer loop runs on the engine thread inside
/// prime().
class TraceInstallQueue {
public:
  using JobFn = std::function<std::vector<ReadyTrace>()>;

  /// Registers the job for the next chunk of plan slots: job K produces
  /// the payloads of slots [K * PayloadChunkSlots, ...), one ReadyTrace
  /// each, in slot order. Called only before workers start.
  void addJob(JobFn Fn);

  /// Worker protocol: claims the next unclaimed job, runs it outside
  /// the lock, publishes the results. Returns false when no unclaimed
  /// job remains (the worker loop exits).
  bool runNextJob();

  /// Engine side: the published results of the job covering plan slot
  /// \p Slot — the requested trace plus its chunk-mates, which
  /// the caller stashes for their own first executions. An unclaimed
  /// job is withdrawn and empty returned: the caller validates the one
  /// trace it needs inline (exactly the synchronous path), and the
  /// withdrawn chunk-mates fall back to the same inline path at their
  /// own first executions. An in-flight job also returns empty — the
  /// engine never blocks on a worker (the workers may be running at
  /// background priority, so waiting would invert priorities); it
  /// validates inline, and the worker's duplicate result for that
  /// trace is never consumed.
  /// Empty also when no job covers the slot or the job was already
  /// consumed.
  std::vector<ReadyTrace> takeFor(uint32_t Slot);

  /// Withdraws every still-unclaimed job (the session is done with the
  /// prime pipeline; workers drain out).
  void cancelPending();

  /// Blocks until no job is mid-execution on a worker. Combined with
  /// cancelPending() this quiesces the queue so the bytes the jobs
  /// read (the session's cache-file view) can be released.
  void waitInFlight();

  size_t jobCount() const { return Jobs.size(); }

  /// Snapshot of the scheduling decisions made so far (thread-safe).
  ScheduleStats scheduleStats() const;

private:
  enum class JobState : uint8_t {
    Unclaimed, ///< Waiting for a worker (or a takeFor withdrawal).
    Claimed,   ///< Running on a worker right now.
    Published, ///< Results available, not yet consumed.
    Consumed,  ///< Taken by the engine (or withdrawn/cancelled).
  };

  struct Job {
    JobFn Fn;
    JobState State = JobState::Unclaimed;
    std::vector<ReadyTrace> Results;
  };

  mutable std::mutex Mutex;
  std::condition_variable Advanced; ///< Signalled on publish.
  std::vector<Job> Jobs; ///< Job K covers chunk K of the plan slots.
  size_t NextScan = 0;  ///< Claim cursor (everything before is taken).
  size_t InFlight = 0;  ///< Jobs in state Claimed.
  ScheduleStats Sched;  ///< Guarded by Mutex.
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_INSTALLQUEUE_H
