//===- persist/CacheStore.h - Pluggable cache storage -----------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage layer under the persistent cache database: an abstract
/// CacheStore keyed by the lookup key of Section 3.2.1, with caches
/// addressed by opaque refs (host paths for the directory backend,
/// slot names for the in-memory backend). The cache manager and the
/// database facade speak only this interface; all filesystem knowledge
/// lives in the backends.
///
/// The write side is transactional. publish() is the multi-process-safe
/// path: it installs a cache under a key using whatever atomicity the
/// backend offers (the directory backend: write-to-temp + fsync +
/// rename under advisory locks) and resolves concurrent finalizers of
/// the same key by *merging* — the loser re-reads the winner's cache
/// and re-accumulates the traces the winner did not have, so no run's
/// translations are clobbered (the paper's Oracle deployment has many
/// worker processes racing on one database).
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_CACHESTORE_H
#define PCC_PERSIST_CACHESTORE_H

#include "persist/CacheFile.h"
#include "persist/CacheView.h"

#include <optional>
#include <string>
#include <vector>

namespace pcc {

namespace support {
class ThreadPool;
}

namespace persist {

/// Which tier of a hierarchical store satisfied an open. Flat backends
/// (DirectoryStore, MemoryStore) leave it None; the TieredStore stamps
/// L1 (local hit) or L2 (read-through from the remote tier) so the
/// session can charge modeled remote-fetch cycles and split its hit
/// statistics.
enum class CacheTier : uint8_t { None, L1, L2 };

/// A located cache: the indexed view whose payloads stay unread until
/// first execution, plus where it came from. The view is engaged on
/// every successful open.
struct StoredCache {
  std::optional<CacheFileView> View;

  /// Tier that satisfied the open (None for flat backends).
  CacheTier Tier = CacheTier::None;
  /// Bytes pulled over the modeled remote link to satisfy this open
  /// (0 for local hits).
  uint64_t RemoteFetchBytes = 0;
  /// Modeled cycle charge for the remote fetch: request latency plus
  /// per-page transfer cost (0 for local hits).
  uint64_t RemoteFetchCycles = 0;

  uint64_t engineHash() const { return View->engineHash(); }
  uint64_t toolHash() const { return View->toolHash(); }
  bool positionIndependent() const { return View->positionIndependent(); }
  uint32_t generation() const { return View->generation(); }
};

/// Aggregate statistics over a store (for operators and the
/// maintenance policy).
struct StoreStats {
  uint32_t CacheFiles = 0;
  uint32_t CorruptFiles = 0;
  /// Files the scan could not read at all (open/stat failures, as
  /// opposed to readable-but-corrupt contents).
  uint32_t UnreadableFiles = 0;
  /// Entries currently sitting in the quarantine.
  uint32_t QuarantinedFiles = 0;
  uint64_t DiskBytes = 0;
  uint64_t CodeBytes = 0;
  uint64_t DataBytes = 0;
  uint64_t Traces = 0;
};

/// Machine-readable classification of why a cache was quarantined,
/// recorded alongside the free-form reason so `pcc-dbcheck` and
/// `pcc-dbstat` can distinguish a structurally broken file from one
/// that is well-formed but semantically wrong.
enum class QuarantineReasonCode : uint8_t {
  /// Legacy entry or reason written outside the encoding below.
  Unknown,
  /// Unparseable bytes / checksum mismatch (ErrorCode::InvalidFormat).
  InvalidFormat,
  /// Engine or format version the reader refuses.
  VersionMismatch,
  /// Parsed, but the cross-record invariants do not hold.
  StructuralInvalid,
  /// Deep verification: a persisted trace is not effect-equivalent to
  /// the guest code it claims to translate.
  SemanticMismatch,
  /// A persisted validation certificate failed its check (tampered,
  /// stale against a newer body, or its obligations do not discharge)
  /// AND the full-validator fallback also rejected the body.
  CertificateInvalid,
};

/// Short stable name ("semantic-mismatch") for display and encoding.
const char *quarantineReasonCodeName(QuarantineReasonCode Code);

/// Renders \p Code plus the free-form \p Detail as the string stored in
/// a quarantine record: "<code-name>: <detail>". Older readers see a
/// plain reason string; parseQuarantineReason() recovers the code.
std::string encodeQuarantineReason(QuarantineReasonCode Code,
                                   const std::string &Detail);

/// Splits a stored reason string into its code and detail. Reasons
/// written before the encoding existed (or by hand) come back as
/// {Unknown, <whole string>}.
QuarantineReasonCode parseQuarantineReason(const std::string &Stored,
                                           std::string *Detail = nullptr);

/// One cache sitting in a store's quarantine: pulled out of the
/// candidate set because its contents failed validation, kept (with the
/// failure reason) for diagnosis instead of silently skipped or
/// deleted.
struct QuarantineEntry {
  /// The cache's name within the store (e.g. `<hex16>.pcc`).
  std::string Name;
  /// Why it was quarantined, as recorded at quarantine time (the
  /// detail part; the code prefix is parsed off into Code).
  std::string Reason;
  /// Parsed classification of Reason.
  QuarantineReasonCode Code = QuarantineReasonCode::Unknown;
  uint64_t Bytes = 0;
  /// Name of the record/replay log attached to this entry ("" when the
  /// quarantining run was not recorded). `pcc-dbcheck --replay` uses it
  /// to re-run the offending execution.
  std::string ReplayLog;
};

/// One advisory lock a store uses for writer coordination, with its
/// (racy, diagnostic-only) current status.
struct LockInfo {
  std::string Path;
  bool Held = false;
};

/// What publish() did.
struct PublishResult {
  /// Generation of the cache now stored under the key.
  uint32_t Generation = 0;
  /// True when a concurrent writer won the slot first and the caller's
  /// cache was merged with the winner's instead of replacing it.
  bool Merged = false;
  /// Lock-acquisition retries the publish needed (contention that the
  /// backoff policy absorbed before succeeding).
  uint32_t LockRetries = 0;
};

/// Abstract storage backend for persistent caches.
class CacheStore {
public:
  virtual ~CacheStore() = default;

  /// Human-readable location of the store (directory path, "<memory>").
  virtual const std::string &location() const = 0;

  /// Opaque ref of the cache slot for \p LookupKey. For directory
  /// stores this is the host path of the cache file.
  virtual std::string refFor(uint64_t LookupKey) const = 0;

  virtual bool exists(uint64_t LookupKey) const = 0;

  /// Opens the cache at \p Ref for reuse as a CRC-validated indexed
  /// view (payloads untouched). NotFound/IoError when there is nothing
  /// usable; InvalidFormat/VersionMismatch on bad contents (a legacy v1
  /// file is a VersionMismatch).
  virtual ErrorOr<StoredCache> openRef(const std::string &Ref,
                                       CacheFileView::Depth D) = 0;

  /// Opens the cache slot for \p LookupKey (NotFound when empty).
  ErrorOr<StoredCache> openKey(uint64_t LookupKey,
                               CacheFileView::Depth D);

  /// Eagerly loads and fully CRC-validates the cache at \p Ref — the
  /// compatibility path for tools and cross-cache accumulation.
  virtual ErrorOr<CacheFile> loadRef(const std::string &Ref) = 0;

  /// Eagerly loads the cache slot for \p LookupKey.
  ErrorOr<CacheFile> loadKey(uint64_t LookupKey);

  /// Unconditionally replaces the cache slot for \p LookupKey
  /// (atomically, but with no conflict detection — last writer wins).
  virtual Status put(uint64_t LookupKey, const CacheFile &File) = 0;

  /// Writes \p File to an explicit ref outside any key slot (donor
  /// fixtures, StoreAsPath experiments). No locking or merging.
  virtual Status putRef(const std::string &Ref,
                        const CacheFile &File) = 0;

  /// Transactionally installs \p File under \p LookupKey.
  /// \p BaseGeneration is the generation of the cache the caller primed
  /// from (0 when it started empty). When the slot still holds that
  /// generation the file is stored as given; when a concurrent writer
  /// advanced the slot first, the caller's file is merged with the
  /// winner's (the winner's still-novel traces are re-accumulated into
  /// the caller's) and the merge is stored at the next generation.
  ///
  /// \p File is read, never modified or copied: a store serializes it
  /// straight from the caller's object. The merge path is the only one
  /// that builds a second CacheFile (mergeCacheFiles), and the caller's
  /// file is unchanged after it, so a failed publish can be retried
  /// with the same object and writes the same bytes.
  virtual ErrorOr<PublishResult> publish(uint64_t LookupKey,
                                         const CacheFile &File,
                                         uint32_t BaseGeneration) = 0;

  /// Removes the cache slot for \p LookupKey if present.
  virtual Status retire(uint64_t LookupKey) = 0;

  /// Removes every cache in the store (lock files survive).
  virtual Status clear() = 0;

  /// Refs of every cache whose engine and tool hashes match — the
  /// inter-application candidate set ("a cache corresponding to any
  /// application instrumented identically", Section 3.2.3). Sorted by
  /// ref for determinism.
  virtual ErrorOr<std::vector<std::string>>
  findCompatible(uint64_t EngineHash, uint64_t ToolHash) = 0;

  /// Refs of every cache slot currently in the store, sorted. Unlike
  /// findCompatible this is a pure enumeration — no per-file opens —
  /// so hierarchical stores can reconcile their tiers cheaply.
  virtual ErrorOr<std::vector<std::string>> listRefs() const = 0;

  virtual ErrorOr<StoreStats> stats() = 0;

  /// Maintenance: shrinks the store until its total size is at most
  /// \p MaxBytes, deleting the smallest-generation (least accumulated,
  /// i.e. least reused) caches first; ties broken by size, largest
  /// first. Corrupt caches are always deleted. \returns the number of
  /// caches removed.
  virtual ErrorOr<uint32_t> shrinkTo(uint64_t MaxBytes) = 0;

  /// The store's writer-coordination locks and their current status
  /// (empty for backends that need none).
  virtual std::vector<LockInfo> locks() const { return {}; }

  /// Moves the cache at \p Ref into the store's quarantine, recording
  /// \p Reason. A quarantined cache is invisible to every scan and open
  /// until restored; unlike deletion, the evidence survives for
  /// `pcc-dbcheck` to report or repair.
  virtual Status quarantineRef(const std::string &Ref,
                               const std::string &Reason) = 0;

  /// Current quarantine contents, sorted by name.
  virtual ErrorOr<std::vector<QuarantineEntry>> quarantined() = 0;

  /// Moves the quarantined cache \p Name back into the store. Fails
  /// with InvalidArgument when the slot is occupied again (a healthy
  /// replacement was published since).
  virtual Status restoreQuarantined(const std::string &Name) = 0;

  /// Deletes every quarantined cache. \returns how many were purged.
  virtual ErrorOr<uint32_t> purgeQuarantine() = 0;

  /// Stores an auxiliary artifact (e.g. a `.pcrr` record/replay log)
  /// next to the quarantined caches under \p FileName, so the evidence
  /// for a quarantine travels with it. Purging the quarantine removes
  /// attachments too. Backends without quarantine storage may refuse.
  virtual Status attachToQuarantine(const std::string &FileName,
                                    const std::vector<uint8_t> &Bytes) {
    (void)FileName;
    (void)Bytes;
    return Status::error(ErrorCode::InvalidArgument,
                         "store does not support quarantine attachments");
  }

  /// Reads back an attachment stored by attachToQuarantine().
  virtual ErrorOr<std::vector<uint8_t>>
  readQuarantineAttachment(const std::string &FileName) {
    (void)FileName;
    return Status::error(ErrorCode::InvalidArgument,
                         "store does not support quarantine attachments");
  }

  /// Whether corrupt caches found by opens and scans are moved to the
  /// quarantine automatically (default) or merely reported. Report-only
  /// passes (pcc-dbcheck without --repair) turn this off so observing a
  /// database never mutates it. Virtual so hierarchical stores can
  /// forward the setting to their tiers.
  virtual void setAutoQuarantine(bool Enabled) {
    AutoQuarantine = Enabled;
  }
  bool autoQuarantine() const { return AutoQuarantine; }

  /// Worker pool for whole-store scans (findCompatible, stats):
  /// backends whose scans do per-file I/O fan the files across the pool
  /// when one is set. Results are identical with and without a pool —
  /// parallel scans collect into per-file slots and aggregate in
  /// listing order. The pool must outlive the store's use of it.
  /// Virtual so hierarchical stores can forward it to their tiers.
  virtual void setScanPool(support::ThreadPool *Pool) {
    ScanPool = Pool;
  }
  support::ThreadPool *scanPool() const { return ScanPool; }

protected:
  /// See setAutoQuarantine().
  bool AutoQuarantine = true;
  /// See setScanPool().
  support::ThreadPool *ScanPool = nullptr;
};

/// Merges two caches produced from the same application under the same
/// engine/tool: \p Novel is the cache a finalizer just built (its
/// module keys were validated against the live image moments ago) and
/// \p Winner is the cache a concurrent finalizer got into the slot
/// first. The result keeps all of Novel and re-accumulates from Winner
/// every trace Novel does not cover: winner modules are matched to
/// novel modules by path (key mismatch drops that module's traces);
/// winner-only modules are carried over unless their mapping overlaps
/// a retained module; trace links whose targets did not survive are
/// cleared. Generation and WriterTag are left as Novel's — publish()
/// assigns the final generation.
CacheFile mergeCacheFiles(const CacheFile &Winner, CacheFile Novel);

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_CACHESTORE_H
