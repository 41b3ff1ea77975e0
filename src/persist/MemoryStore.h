//===- persist/MemoryStore.h - In-memory store backend ----------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory CacheStore for tests and benchmarks: slots are
/// serialized cache images in a mutex-guarded map, so the full
/// persistence protocol — including transactional publish with
/// generation-conflict merging — can be exercised without touching the
/// host filesystem. Storing the *serialized* bytes (not CacheFile
/// objects) keeps the backend honest: every open round-trips through
/// the same format and CRC checks as the directory store. publish()
/// serializes the caller's CacheFile by reference, like the directory
/// store; only a generation-conflict merge builds a new file.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_MEMORYSTORE_H
#define PCC_PERSIST_MEMORYSTORE_H

#include "persist/CacheStore.h"

#include <map>
#include <mutex>

namespace pcc {
namespace persist {

/// Map-backed store of serialized cache images. Thread-safe; a single
/// mutex stands in for the directory store's file locks.
class MemoryStore : public CacheStore {
public:
  MemoryStore();
  /// A store reporting \p Label as its location — distinguishes the
  /// tiers when several memory backends coexist (e.g. "<remote>" for a
  /// TieredStore's L2). Refs are "<label>/<hex16>.pcc".
  explicit MemoryStore(std::string Label);

  const std::string &location() const override { return Location; }
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
  Status quarantineRef(const std::string &Ref,
                       const std::string &Reason) override;
  ErrorOr<std::vector<QuarantineEntry>> quarantined() override;
  Status restoreQuarantined(const std::string &Name) override;
  ErrorOr<uint32_t> purgeQuarantine() override;
  Status attachToQuarantine(const std::string &FileName,
                            const std::vector<uint8_t> &Bytes) override;
  ErrorOr<std::vector<uint8_t>>
  readQuarantineAttachment(const std::string &FileName) override;

  /// Stores \p Bytes at \p Ref as-is, without parsing them — the
  /// in-memory counterpart of writing a file into a store directory
  /// (foreign-format or damaged images).
  void putImage(const std::string &Ref, std::vector<uint8_t> Bytes);

private:
  /// A quarantined image plus the reason it was pulled aside.
  struct QuarantinedImage {
    std::vector<uint8_t> Bytes;
    std::string Reason;
  };

  /// Ref name within the store (the part after "<memory>/").
  std::string nameOf(const std::string &Ref) const;
  /// Locked-context quarantine move (caller holds Mutex).
  void quarantineLocked(const std::string &Ref, const std::string &Reason);

  std::string Location = "<memory>";
  mutable std::mutex Mutex;
  /// Slot ref -> serialized cache image. Ordered so scans are
  /// deterministic like the directory store's sorted listings.
  std::map<std::string, std::vector<uint8_t>> Slots;
  /// Name -> quarantined image; the in-memory `.quarantine/`.
  std::map<std::string, QuarantinedImage> Quarantine;
  /// Name -> attachment bytes (e.g. replay logs); purged with the
  /// quarantine.
  std::map<std::string, std::vector<uint8_t>> Attachments;
};

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_MEMORYSTORE_H
