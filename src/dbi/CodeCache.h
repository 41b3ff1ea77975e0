//===- dbi/CodeCache.h - Software code cache --------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The software-managed code cache: two linear memory pools (translated
/// code and its supporting data structures — kept separate per Section
/// 3.2.2 of the paper), the translation map from original guest addresses
/// to translated traces, and trace links. When either pool fills, the
/// whole cache is flushed, discarding all translated code and data
/// structures (Section 4.1).
///
/// Persisted traces are installed *unmaterialized*: their translated code
/// lives in the memory-mapped pool and is decoded on first execution,
/// charging demand-paging costs — mirroring "disk I/O occurs based on the
/// access pattern of the executing code" (Section 3.2.3).
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_CODECACHE_H
#define PCC_DBI_CODECACHE_H

#include "dbi/Trace.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

namespace pcc {
namespace dbi {

class TranslatedTrace;

/// One exit of a translated trace, linkable to a successor trace.
struct TraceExit {
  ExitKind Kind = ExitKind::Halt;
  uint32_t InstIndex = 0;
  uint32_t Target = 0;
  /// Linked successor, or nullptr when the exit still goes through the
  /// dispatcher. Only linkable exits are ever linked.
  TranslatedTrace *Link = nullptr;
};

/// Deferred-validation state for a trace installed from an indexed (v2)
/// persistent cache: the payload CRC recorded in the cache file's trace
/// index, plus the position-independent rebase that must be applied to
/// the raw stored bytes *after* the CRC is verified. Cleared once the
/// trace materializes successfully.
struct PersistedPayload {
  uint32_t ExpectedCodeCrc = 0;
  /// Load-address delta to rebase position-independent immediates by;
  /// zero when no rebase is needed.
  int64_t RebaseDelta = 0;
  /// Per-instruction reloc bitmask (empty when RebaseDelta == 0).
  std::vector<uint8_t> RelocMask;
  /// Index of this trace in the source cache file's trace index, so
  /// finalize() can harvest unexecuted traces without decoding them.
  uint32_t SourceTraceIndex = 0;
  /// True when the trace's pool bytes live in a borrowed executable
  /// mapping: first execution CRC-checks and bounds-scans the mapped
  /// bytes in place instead of decoding a private copy. Cleared when
  /// eviction compacts the pool into owned storage.
  bool Xip = false;
};

/// One entry of a body's host-side Nop-skip table: one per body slot,
/// plus a sentinel for the slot past the end.
struct NopSkipEntry {
  /// First slot at or after this one that is not a Nop (the body size
  /// when there is none).
  uint32_t NextLive = 0;
  /// Nop slots before this one.
  uint32_t NopsBefore = 0;
};

/// A compiled trace resident in the code cache.
class TranslatedTrace {
public:
  TranslatedTrace(uint32_t GuestStart, uint32_t GuestInstCount,
                  uint32_t PoolOffset, uint32_t PoolBytes,
                  std::vector<TraceExit> Exits, bool FromPersistentCache)
      : GuestStart(GuestStart), GuestInstCount(GuestInstCount),
        PoolOffset(PoolOffset), PoolBytes(PoolBytes),
        Exits(std::move(Exits)),
        FromPersistentCache(FromPersistentCache) {}

  uint32_t guestStart() const { return GuestStart; }
  uint32_t guestInstCount() const { return GuestInstCount; }
  uint32_t poolOffset() const { return PoolOffset; }
  uint32_t poolBytes() const { return PoolBytes; }

  bool isFromPersistentCache() const { return FromPersistentCache; }
  bool isMaterialized() const { return Materialized; }

  /// Translated body; valid only when materialized. Owned traces view
  /// their decoded vector; XIP traces view the borrowed mapping.
  std::span<const isa::Instruction> body() const {
    assert(Materialized && "trace not materialized");
    if (BorrowedBody)
      return {BorrowedBody, GuestInstCount};
    return {Body.data(), Body.size()};
  }

  /// Installs the decoded body (at compile time, or on demand for
  /// persisted traces).
  void materialize(std::vector<isa::Instruction> DecodedBody) {
    assert(DecodedBody.size() == GuestInstCount && "body size mismatch");
    Body = std::move(DecodedBody);
    BorrowedBody = nullptr;
    Materialized = true;
  }

  /// Installs an execute-in-place body: \p InPlaceBody points at
  /// GuestInstCount instructions inside a borrowed mapping owned by the
  /// cache. The caller has already CRC-checked and bounds-scanned them.
  void materializeBorrowed(const isa::Instruction *InPlaceBody) {
    assert(InPlaceBody && "null in-place body");
    BorrowedBody = InPlaceBody;
    Materialized = true;
  }

  /// The Nop-skip table of the materialized body (GuestInstCount + 1
  /// entries), built on first call. Host-side only: the executor uses
  /// it to jump over the Nop slots of promoted bodies and still count
  /// them exactly; it is never persisted.
  std::span<const NopSkipEntry> nopSkipTable() {
    if (NopSkip.empty())
      buildNopSkipTable();
    return NopSkip;
  }

  /// True when body() views a borrowed mapping rather than owned memory.
  bool isBorrowed() const { return BorrowedBody != nullptr; }

  /// Converts a borrowed body into an owned copy (the mapping is about
  /// to go away, e.g. eviction compaction).
  void disownBody() {
    if (!BorrowedBody)
      return;
    Body.assign(BorrowedBody, BorrowedBody + GuestInstCount);
    BorrowedBody = nullptr;
  }

  /// Moves the trace's code within the pool (cache compaction).
  void relocateInPool(uint32_t NewOffset) { PoolOffset = NewOffset; }

  /// \name Lazy payload validation (format v2)
  /// @{
  void setPersistedPayload(std::unique_ptr<PersistedPayload> P) {
    Pending = std::move(P);
  }
  PersistedPayload *persistedPayload() const { return Pending.get(); }
  void clearPersistedPayload() { Pending.reset(); }
  /// @}

  std::vector<TraceExit> &exits() { return Exits; }
  const std::vector<TraceExit> &exits() const { return Exits; }

  /// Exit taken when the conditional branch at \p InstIndex is taken.
  /// A branch in the final trace slot shares its instruction index with
  /// the fall-through exit, so the kinds are distinct lookups.
  TraceExit *findBranchExit(uint32_t InstIndex);

  /// The final exit (always present, always last).
  TraceExit &finalExit() {
    assert(!Exits.empty() && "trace without exits");
    return Exits.back();
  }

  /// Traces whose exits link to this trace (for unlinking on removal).
  std::vector<std::pair<TranslatedTrace *, uint32_t>> &incomingLinks() {
    return Incoming;
  }

  uint64_t executionCount() const { return ExecCount; }
  void countExecution() { ++ExecCount; }

  /// Lifetime execution heat carried in from the persistent cache file
  /// (0 for freshly compiled traces); finalize adds the current run's
  /// executions on top, saturating.
  uint32_t persistedHeat() const { return PersistedHeat; }
  void setPersistedHeat(uint32_t Heat) { PersistedHeat = Heat; }

  /// Optimization generation carried in from the persistent cache file
  /// (0 for freshly compiled or unpromoted traces). Promoted bodies
  /// earn a modeled execution discount for their Nop slots, and
  /// finalize re-persists the generation so it survives accumulation.
  uint32_t optGen() const { return OptGen; }
  void setOptGen(uint32_t Gen) { OptGen = Gen; }

  /// Bytes of supporting data structures this trace consumes in the data
  /// pool: trace descriptor, exit records, translation-map node, and
  /// per-instruction bookkeeping (liveness, register bindings). The
  /// paper's Figure 9 observes these outweigh the code itself.
  uint32_t dataBytes() const {
    return 64 + 40 * static_cast<uint32_t>(Exits.size()) + 24 +
           8 * GuestInstCount;
  }

private:
  void buildNopSkipTable();

  uint32_t GuestStart;
  uint32_t GuestInstCount;
  uint32_t PoolOffset;
  uint32_t PoolBytes;
  std::vector<TraceExit> Exits;
  bool FromPersistentCache;
  bool Materialized = false;
  std::unique_ptr<PersistedPayload> Pending;
  std::vector<isa::Instruction> Body;
  /// Non-null when the body executes in place from a borrowed mapping.
  const isa::Instruction *BorrowedBody = nullptr;
  /// Built by nopSkipTable(); empty until then.
  std::vector<NopSkipEntry> NopSkip;
  std::vector<std::pair<TranslatedTrace *, uint32_t>> Incoming;
  uint64_t ExecCount = 0;
  uint32_t PersistedHeat = 0;
  uint32_t OptGen = 0;
};

/// The code cache: pools, translation map, and link bookkeeping.
class CodeCache {
public:
  CodeCache(uint64_t CodePoolCapacity, uint64_t DataPoolCapacity)
      : CodePoolCapacity(CodePoolCapacity),
        DataPoolCapacity(DataPoolCapacity) {}

  /// \name Translation map
  /// @{
  TranslatedTrace *lookup(uint32_t GuestAddr) const;
  /// @}

  /// Reserves \p NumBytes in the code pool; fails with OutOfMemory when
  /// the pool is full (the engine then flushes). Returns the offset.
  ErrorOr<uint32_t> allocateCode(uint32_t NumBytes);

  /// Writes translated code bytes at \p Offset (within an allocation).
  void writeCode(uint32_t Offset, const std::vector<uint8_t> &Bytes);

  /// Code-pool bytes starting at \p Offset (for materialization).
  const uint8_t *codeAt(uint32_t Offset) const;

  /// Writable code-pool bytes at \p Offset (for in-place rebasing of
  /// position-independent persisted code after its CRC is verified).
  uint8_t *mutableCodeAt(uint32_t Offset);

  /// Registers a freshly compiled or persisted trace. Fails with
  /// OutOfMemory when the data pool is exhausted. A trace for the same
  /// guest address must not already exist.
  ErrorOr<TranslatedTrace *> addTrace(std::unique_ptr<TranslatedTrace> T);

  /// Pre-sizes the translation map and trace list for \p N upcoming
  /// addTrace() calls (bulk install at prime: avoids rehashing on the
  /// run's critical path).
  void reserveTraces(size_t N);

  /// Replaces the code pool with the memory-mapped contents of a
  /// persistent cache; only valid on an empty cache. Subsequent
  /// allocateCode() calls append after the mapped image.
  Status installPersistedPool(std::vector<uint8_t> PoolBytes);

  /// Execute-in-place variant: the pool's first \p Size bytes are a
  /// *borrowed* read-only mapping (an XIP cache file's payload section)
  /// kept alive by \p Keepalive; nothing is copied. Only valid on an
  /// empty cache. Offsets below \p Size resolve into the mapping and
  /// are never writable (shared pages stay clean); allocateCode()
  /// appends owned storage after it. flush() and eviction release the
  /// keepalive — unmap, not free.
  Status installBorrowedPool(const uint8_t *Data, size_t Size,
                             std::shared_ptr<const void> Keepalive);

  /// Size of the borrowed mapping prefix (0 when the pool is fully
  /// owned).
  uint64_t borrowedCodeBytes() const { return BorrowedSize; }

  /// Links \p Exit of \p From to \p To and records the incoming edge.
  void link(TranslatedTrace *From, uint32_t ExitIndex,
            TranslatedTrace *To);

  /// Removes every trace whose guest start lies in
  /// [\p Base, \p Base + \p Size), unlinking all edges in and out.
  /// Pool space is not reclaimed (linear pools, as in Pin).
  /// \returns the number of traces removed.
  uint32_t removeTracesInRange(uint32_t Base, uint32_t Size);

  /// Discards all traces, links, map entries and pool contents.
  void flush();

  /// Granular alternative to flush() (beyond the paper, which always
  /// flushes wholesale; finer-grained code-cache management follows the
  /// Hazelwood line of work the paper cites): evicts the oldest
  /// \p Fraction of resident traces and *compacts* the code pool around
  /// the survivors, reclaiming their bytes. All evicted traces are
  /// unlinked; surviving pool pages are resident afterwards.
  /// \returns the number of traces evicted.
  uint32_t evictOldest(double Fraction);

  /// Monotonic counter bumped by flush() and evictOldest(); callers
  /// holding trace pointers across cache mutations use it as a guard.
  uint64_t modificationGeneration() const {
    return ModificationGeneration;
  }

  /// \name Demand-paging support
  /// Marks the code-pool pages of [Offset, Offset+Bytes) as resident and
  /// returns how many pages were newly touched (persisted pages fault in
  /// on first touch; freshly written pages are already resident). When
  /// \p NewlyTouched is non-null, the newly touched page numbers are
  /// appended to it (shared-residency accounting asks whether another
  /// process already has each page).
  /// @{
  uint32_t touchPages(uint32_t Offset, uint32_t Bytes,
                      std::vector<uint32_t> *NewlyTouched = nullptr);
  /// @}

  /// \name Accounting
  /// @{
  uint64_t codeBytesUsed() const { return BorrowedSize + CodePool.size(); }
  uint64_t dataBytesUsed() const { return DataPoolUsed; }
  uint64_t codePoolCapacity() const { return CodePoolCapacity; }
  uint64_t dataPoolCapacity() const { return DataPoolCapacity; }
  /// @}

  /// All resident traces, in insertion order.
  const std::vector<std::unique_ptr<TranslatedTrace>> &traces() const {
    return Traces;
  }

private:
  uint64_t CodePoolCapacity;
  uint64_t DataPoolCapacity;
  std::vector<uint8_t> CodePool;
  /// Borrowed read-only pool prefix (XIP): pool offsets below
  /// BorrowedSize resolve to Borrowed + Offset, offsets at or above it
  /// to CodePool[Offset - BorrowedSize].
  const uint8_t *Borrowed = nullptr;
  size_t BorrowedSize = 0;
  std::shared_ptr<const void> BorrowedKeepalive;
  uint64_t DataPoolUsed = 0;
  std::vector<std::unique_ptr<TranslatedTrace>> Traces;
  std::unordered_map<uint32_t, TranslatedTrace *> TranslationMap;
  /// One bit per 4 KiB code-pool page: resident or not.
  std::vector<bool> ResidentPages;
  uint64_t ModificationGeneration = 0;

  /// Detaches \p T from the link graph (both directions).
  void unlinkTrace(TranslatedTrace *T);
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_CODECACHE_H
