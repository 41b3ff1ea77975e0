//===- persist/TieredStore.h - L1 + remote L2 store backend -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-scale CacheStore backend: a local L1 (any CacheStore —
/// DirectoryStore on a machine, MemoryStore in simulations) backed by a
/// shared remote L2. One L2 serves many machines, so translations
/// published anywhere in the fleet become a read-through hit everywhere
/// else — the paper's inter-application reuse (Section 3.2.3) lifted
/// from one desktop's database to a population of them.
///
/// Policy, by operation:
///
///   * Reads are read-through: L1 first; on an L1 miss the file is
///     fetched from L2 (charged with modeled remote latency+bandwidth
///     cycles, reported on the StoredCache and in TieredStats), filled
///     into L1, and served locally from then on.
///   * Writes are write-through: put/publish land in L2 first (the
///     global merge truth — concurrent finalizers across machines
///     resolve there by the generation protocol) and the result is
///     filled back into L1 under a generation compare, so a stale racer
///     never overwrites a newer local copy. publish() hands the caller's
///     CacheFile by reference to L2, to the L1 fill and to the L1-only
///     fallback; nothing is copied unless L2 merged, in which case the
///     fill loads the merged file back from L2.
///   * findCompatible unions the tiers: local matches first (no fetch
///     needed to try them), then remote-only candidates, which read
///     through on open — version-skewed machines pick up compatible
///     caches the fleet published under keys they have never seen.
///   * The remote tier is an accelerator, never a dependency: every L2
///     failure is absorbed (counted in TieredStats::RemoteFailures) and
///     RemoteBreakerThreshold consecutive failures open a circuit
///     breaker that degrades the store to L1-only for its lifetime.
///   * Quarantine is local: a cache this machine proved bad moves into
///     L1's quarantine; the L2 copy stays for other machines to judge.
///     A corrupt L1 copy self-heals — the open quarantines it locally
///     and the read-through refetches the healthy remote copy.
///   * Quotas: L1QuotaBytes caps the local tier with heat-aware LRU
///     eviction (files whose traces accumulated the least v3 Heat go
///     first, ties broken least-recently-used; evicted files remain a
///     remote fetch away). L2QuotaBytes forwards to the remote tier's
///     generation-ordered shrinkTo after each publish.
///
/// All refs the store hands out are in L1's namespace; shrinkTo applies
/// to the authoritative L2 and reconciles L1 against the survivors.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_TIEREDSTORE_H
#define PCC_PERSIST_TIEREDSTORE_H

#include "persist/CacheStore.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pcc {
namespace persist {

/// Tiered-store tuning. The remote cycle charges default to the
/// dbi::CostModel values (kept in sync by a test) so the store can be
/// built without a CostModel in hand.
struct TieredOptions {
  /// Local-tier byte cap; 0 = unbounded. Enforced after every fill
  /// with heat-aware LRU eviction.
  uint64_t L1QuotaBytes = 0;
  /// Remote-tier byte cap; 0 = unbounded. Enforced via the remote
  /// store's shrinkTo after each publish.
  uint64_t L2QuotaBytes = 0;
  /// Modeled fixed latency of one remote fetch, in cycles
  /// (CostModel::RemoteFetchLatencyCycles).
  uint64_t RemoteFetchLatencyCycles = 400000;
  /// Modeled transfer cost per 4 KiB page fetched
  /// (CostModel::RemoteFetchCyclesPerPage).
  uint64_t RemoteFetchCyclesPerPage = 2000;
  /// Consecutive remote failures that open the circuit breaker and
  /// degrade the store to L1-only.
  uint32_t RemoteBreakerThreshold = 3;
};

/// Telemetry snapshot of one TieredStore (monotone counters since
/// construction).
struct TieredStats {
  uint64_t L1Hits = 0;        ///< Opens satisfied locally.
  uint64_t L2Hits = 0;        ///< Opens satisfied by read-through.
  uint64_t Misses = 0;        ///< Opens neither tier could satisfy.
  uint64_t RemoteFetches = 0; ///< Files pulled from L2.
  uint64_t RemoteFetchBytes = 0;
  uint64_t RemotePublishes = 0; ///< Files pushed to L2 (put/publish).
  uint64_t RemotePublishBytes = 0;
  uint64_t RemoteFailures = 0; ///< L2 operations absorbed as failures.
  uint64_t L1Evictions = 0;   ///< Files the L1 quota evicted.
  uint64_t ModeledRemoteCycles = 0; ///< Latency+bandwidth charges of
                                    ///< every fetch and publish.
  uint64_t CertFillChecks = 0;  ///< Validation certificates
                                ///< self-checked on L2->L1 fills (the
                                ///< module-less trusted-checker pass).
  uint64_t CertFillRejects = 0; ///< Of those, rejected. The blob is
                                ///< passed through unmodified — prime
                                ///< re-checks and quarantines with the
                                ///< full story; this counter is the
                                ///< fleet's early-warning signal.
  bool RemoteDisabled = false; ///< Circuit breaker currently open.
};

/// Two-tier store: local L1 backed by a shared remote L2.
class TieredStore : public CacheStore {
public:
  /// Both tiers are required; the L2 is typically shared by many
  /// TieredStore instances (one per simulated machine).
  TieredStore(std::shared_ptr<CacheStore> L1,
              std::shared_ptr<CacheStore> L2,
              TieredOptions Opts = TieredOptions());

  const std::string &location() const override {
    return L1->location();
  }
  std::string refFor(uint64_t LookupKey) const override {
    return L1->refFor(LookupKey);
  }
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
  // Quarantine (and its attachments) is a local judgment: L1 only.
  Status attachToQuarantine(const std::string &FileName,
                            const std::vector<uint8_t> &Bytes) override {
    return L1->attachToQuarantine(FileName, Bytes);
  }
  ErrorOr<std::vector<uint8_t>>
  readQuarantineAttachment(const std::string &FileName) override {
    return L1->readQuarantineAttachment(FileName);
  }
  void setAutoQuarantine(bool Enabled) override;
  void setScanPool(support::ThreadPool *Pool) override;

  /// Telemetry snapshot (thread-safe).
  TieredStats tieredStats() const;

  /// True once the circuit breaker has degraded the store to L1-only.
  bool remoteDisabled() const {
    return !RemoteEnabled.load(std::memory_order_relaxed);
  }

  CacheStore &l1() { return *L1; }
  CacheStore &l2() { return *L2; }
  const TieredOptions &options() const { return Opts; }

private:
  /// Basename ("<hex16>.pcc") of a ref in either tier's namespace.
  static std::string nameOf(const std::string &Ref);
  std::string l1RefOf(const std::string &Name) const;
  std::string l2RefOf(const std::string &Name) const;

  bool remoteUsable() const {
    return RemoteEnabled.load(std::memory_order_relaxed);
  }
  /// Breaker bookkeeping around every remote operation.
  void noteRemoteFailure();
  void noteRemoteSuccess();
  /// Modeled cycles of moving \p Bytes over the remote link once.
  uint64_t remoteCycles(uint64_t Bytes) const;

  /// Fetches \p Name from L2 (charging the fetch) and fills it into L1.
  /// Caller must hold FillMutex. Never evicts the just-filled name.
  ErrorOr<CacheFile> fetchIntoL1Locked(const std::string &Name,
                                       uint64_t *FetchBytes,
                                       uint64_t *FetchCycles);
  /// Fills \p File into L1 unless L1 already holds the same or a newer
  /// generation under \p Name (publish/fetch racers stay monotone).
  void fillL1IfNewer(const std::string &Name, const CacheFile &File);
  /// Evicts lowest-(heat, recency) L1 files until the quota holds,
  /// sparing \p Protect. Caller must hold FillMutex.
  void enforceL1QuotaLocked(const std::string &Protect);
  /// Stamps \p Name as just used (LRU clock).
  void touchUseLocked(const std::string &Name);

  std::shared_ptr<CacheStore> L1;
  std::shared_ptr<CacheStore> L2;
  TieredOptions Opts;

  /// Serializes every L1 fill and eviction: fills compare generations
  /// and the quota sweep must not race them.
  mutable std::mutex FillMutex;
  /// Basename -> last-use tick for LRU ties (guarded by FillMutex).
  std::unordered_map<std::string, uint64_t> LastUse;
  std::atomic<uint64_t> UseClock{0};

  /// Circuit breaker: consecutive failures and the (sticky) enable bit.
  std::atomic<uint32_t> RemoteConsecFailures{0};
  std::atomic<bool> RemoteEnabled{true};

  /// TieredStats counters.
  std::atomic<uint64_t> L1Hits{0}, L2Hits{0}, Misses{0};
  std::atomic<uint64_t> RemoteFetches{0}, RemoteFetchBytes{0};
  std::atomic<uint64_t> RemotePublishes{0}, RemotePublishBytes{0};
  std::atomic<uint64_t> RemoteFailures{0}, L1Evictions{0};
  std::atomic<uint64_t> ModeledRemoteCycles{0};
  std::atomic<uint64_t> CertFillChecks{0}, CertFillRejects{0};
};

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_TIEREDSTORE_H
