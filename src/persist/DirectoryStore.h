//===- persist/DirectoryStore.h - Directory-of-files backend ----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production CacheStore backend: a host directory of cache files,
/// one `<lookup-key-hex>.pcc` per slot — the database of Figure 1 as it
/// actually lives on disk.
///
/// Writer coordination (multi-process, advisory):
///
///   * publish() holds the store-wide lock *shared* plus the slot's
///     per-key lock *exclusive* — concurrent publishers of different
///     keys proceed in parallel; two finalizers of one key serialize,
///     and the loser merges the winner's novel traces before writing.
///     It serializes the caller's CacheFile in place; only the merge
///     builds a new file, and the caller's object is never modified.
///   * shrinkTo() and clear() hold the store-wide lock *exclusive*,
///     quiescing all publishers, and sweep any temporaries a crashed
///     writer orphaned.
///   * Readers take no locks at all: every visible cache file is the
///     product of an atomic rename, so scans and priming always see a
///     complete file (possibly one generation stale).
///
/// Lock files live in a `.locks/` subdirectory (`store.lock`,
/// `k<hex>.lock`) so the store directory itself holds nothing but cache
/// files; they are created on demand and never deleted — see FileLock.h
/// for the inode-split hazard.
///
/// Fault tolerance: publishers acquire their locks with bounded retry
/// (exponential backoff + jitter) instead of blocking forever, and
/// caches whose contents fail validation are moved into a
/// `.quarantine/` subdirectory — with the failure reason recorded in a
/// sibling `.reason` file — rather than silently skipped, so
/// `pcc-dbcheck` can diagnose, restore or purge them later.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_DIRECTORYSTORE_H
#define PCC_PERSIST_DIRECTORYSTORE_H

#include "persist/CacheStore.h"

#include "support/FileLock.h"

namespace pcc {
namespace persist {

/// Bounded-retry policy for publisher lock acquisition. Delays grow
/// exponentially from Base to Cap with uniform jitter in the upper half
/// of each step (decorrelating publishers that collided once).
struct RetryPolicy {
  uint32_t MaxAttempts = 12;
  uint32_t BaseDelayMicros = 200;
  uint32_t MaxDelayMicros = 50000;
};

/// Directory-backed store of persistent cache files.
class DirectoryStore : public CacheStore {
public:
  /// Opens (creating if needed) the store at \p Dir.
  explicit DirectoryStore(std::string Dir);

  const std::string &location() const override { return Dir; }
  std::string refFor(uint64_t LookupKey) const override;
  bool exists(uint64_t LookupKey) const override;
  ErrorOr<StoredCache> openRef(const std::string &Ref,
                               CacheFileView::Depth D) override;
  ErrorOr<CacheFile> loadRef(const std::string &Ref) override;
  Status put(uint64_t LookupKey, const CacheFile &File) override;
  Status putRef(const std::string &Ref, const CacheFile &File) override;
  ErrorOr<PublishResult> publish(uint64_t LookupKey, const CacheFile &File,
                                 uint32_t BaseGeneration) override;
  Status retire(uint64_t LookupKey) override;
  Status clear() override;
  ErrorOr<std::vector<std::string>>
  findCompatible(uint64_t EngineHash, uint64_t ToolHash) override;
  ErrorOr<std::vector<std::string>> listRefs() const override;
  ErrorOr<StoreStats> stats() override;
  ErrorOr<uint32_t> shrinkTo(uint64_t MaxBytes) override;
  std::vector<LockInfo> locks() const override;
  Status quarantineRef(const std::string &Ref,
                       const std::string &Reason) override;
  ErrorOr<std::vector<QuarantineEntry>> quarantined() override;
  Status restoreQuarantined(const std::string &Name) override;
  ErrorOr<uint32_t> purgeQuarantine() override;
  Status attachToQuarantine(const std::string &FileName,
                            const std::vector<uint8_t> &Bytes) override;
  ErrorOr<std::vector<uint8_t>>
  readQuarantineAttachment(const std::string &FileName) override;

  /// Replaces the publisher lock-retry policy (tests tighten it).
  void setRetryPolicy(const RetryPolicy &P) { Policy = P; }
  const RetryPolicy &retryPolicy() const { return Policy; }

  /// Quarantine subdirectory path (may not exist yet).
  std::string quarantineDir() const;

  /// Store-wide lock-file path (creating `.locks/` on first use).
  /// Maintenance passes (pcc-dbcheck --repair) acquire it exclusively
  /// to quiesce every publisher.
  std::string storeLockPath() const;

private:
  /// Lock-file subdirectory, created on first use by the *LockPath
  /// accessors (so read-only stores never grow one).
  std::string lockDir() const;
  std::string keyLockPath(uint64_t LookupKey) const;
  /// Current generation of the slot at \p Ref: 0 when missing or
  /// unreadable (an unreadable slot is overwritten, not merged).
  uint32_t slotGeneration(const std::string &Ref) const;
  /// Deletes temporaries orphaned by crashed writers. Caller must hold
  /// the store-wide lock exclusively.
  void sweepOrphanedTemps();
  /// Acquires the lock at \p Path with bounded retry on WouldBlock,
  /// accumulating the retry count into *\p Retries when given.
  ErrorOr<FileLock> lockWithRetry(const std::string &Path,
                                  FileLock::Mode M, uint32_t *Retries);
  /// Best-effort quarantine of a cache that just failed validation.
  /// Takes the slot's key lock non-blocking and re-validates under it,
  /// so a concurrently republished healthy file is never swept up;
  /// skips silently when the slot is busy or AutoQuarantine is off.
  void maybeAutoQuarantine(const std::string &Ref,
                           const Status &Failure);

  std::string Dir;
  RetryPolicy Policy;
};

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_DIRECTORYSTORE_H
