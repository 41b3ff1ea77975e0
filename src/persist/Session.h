//===- persist/Session.h - Persistent cache manager -------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent cache manager (Figure 1, shaded components): performs
/// "the fundamental tasks of generating persistent caches, verifying
/// possible reuse, and storing them in the database" (Section 3.2).
///
/// A PersistentSession brackets one engine run:
///
///   prime()    — before run(): locate a cache by key (or donor path),
///                validate every module key against the loaded image,
///                and admit valid traces as unbuilt code-cache slots
///                (built on first lookup, with their persisted links;
///                materialized on first execution, demand-paged);
///                invalid modules' traces are dropped for
///                retranslation.
///   finalize() — after run(): write the resident traces back to the
///                database, accumulating newly discovered translations
///                into the persistent cache (Section 4.4) and carrying
///                forward still-valid traces of modules not loaded by
///                this particular run.
///
/// Inter-application persistence (Section 3.2.3 end): lookup ignores the
/// application key and accepts a cache from any program instrumented
/// identically; the donor's application traces fail validation and are
/// retranslated while shared-library traces are reused when bases match.
///
/// Position-independent translations (Opts.PositionIndependent) are this
/// reproduction's implementation of the paper's noted future work: module
/// keys match ignoring the base address, and the install path rebases
/// every address-bearing immediate, so relocated libraries keep their
/// persisted translations instead of falling back to retranslation.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_SESSION_H
#define PCC_PERSIST_SESSION_H

#include "dbi/Engine.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheFile.h"
#include "persist/CacheStore.h"
#include "persist/CacheView.h"
#include "persist/Key.h"
#include "persist/Residency.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// Session configuration.
struct PersistOptions {
  /// Ignore the application key at lookup (inter-application mode).
  bool InterApplication = false;
  /// Write the cache back at finalize().
  bool WriteBack = true;
  /// Generate/consume position-independent translations (extension).
  bool PositionIndependent = false;
  /// Write an execute-in-place (XIP) generation at finalize: format v3
  /// with a page-aligned payload that later runs mmap directly as
  /// executable trace bodies instead of decoding private copies.
  /// Requires PositionIndependent (relocation-free bodies are what make
  /// the shared pages reusable as-is). Consuming an XIP cache needs no
  /// option — prime() engages the in-place path automatically whenever
  /// the file, host and session qualify, and falls back to the
  /// materializing path (bit-identical stats) otherwise.
  bool ExecuteInPlace = false;
  /// Cross-process page-residency model shared by every simulated
  /// process of a scenario (null: single process, every first touch is
  /// demand-paged I/O). When set, prime() attaches an engine residency
  /// probe keyed by (cache path, generation): the first toucher of each
  /// payload page pays PersistPageTouchCycles, later processes pay
  /// SharedPageTouchCycles — one shared physical copy per library
  /// cache. The map must outlive the session.
  SharedResidencyMap *SharedResidency = nullptr;
  /// Donor cache file to prime from, overriding key lookup (cross-input
  /// and inter-application experiments pick donors explicitly).
  std::string ExplicitCachePath;
  /// Write the cache to this path instead of the database slot.
  std::string StoreAsPath;
  /// Propagate store-write failures as finalize() errors instead of
  /// degrading (strict tools and tests that must observe the failure).
  bool FailFast = false;
  /// Worker pool for async prime (null: fully synchronous). With
  /// workers, prime() returns after the header/index scan and trace
  /// installation while payload CRC + decode run in the background.
  /// finalize() runs on the calling thread either way. Guest-visible
  /// results and EngineStats are bit-identical for any worker count.
  /// The pool must outlive the session.
  support::ThreadPool *Pool = nullptr;
  /// Deep semantic verification (analysis::validateTranslation): every
  /// primed trace must prove effect-equivalent to the guest code it
  /// claims to translate when its body is first decoded, and finalize()
  /// re-proves every trace it writes back. A primed trace that fails is
  /// dropped for retranslation and its source cache is quarantined with
  /// QuarantineReasonCode::SemanticMismatch; a finalize-time failure
  /// skips just that trace. Verified/failed counts land in
  /// EngineStats::TracesVerified / VerifyFailures.
  bool ValidateSemantic = false;
  /// Check persisted validation certificates at prime time: every
  /// promoted (OptGen > 0) trace that rode in with a certificate is
  /// re-verified by the minimal trusted checker (through
  /// analysis::checkTranslation) when its body is first materialized —
  /// no fixpoint solving, just replaying the recorded proof against
  /// the live guest bytes. The certificate is read in place from the
  /// primed view by the trace's plan slot. A rejected certificate falls
  /// back to the full symbolic validator; if that also fails, the
  /// trace is dropped and the source cache quarantined with
  /// QuarantineReasonCode::CertificateInvalid. Promoted traces with no
  /// usable certificate (rebased, or written before certificates
  /// existed) are re-proved in full. Counts land in
  /// EngineStats::CertsChecked / CertChecksFailed / ProofsReplayed.
  bool CheckCertificates = true;
  /// Emit a validation certificate with every finalize-time promotion:
  /// the validator's successful proof is serialized into the trace
  /// record so later primes can verify the promoted body with the
  /// trusted checker instead of re-proving it. Files with no certified
  /// traces stay byte-identical to pre-certificate output.
  bool EmitCertificates = true;
  /// Finalize-time AOT optimization tier: promote hot traces (lifetime
  /// heat >= OptHeatThreshold) to a higher optimization generation
  /// before the cache is published — superblock formation across
  /// contiguous fall-through chains, constant propagation (non-PIC
  /// only), redundant-load elimination, and dead-def elision — with
  /// every transformed body proved by analysis::validateTranslation;
  /// rejection keeps the generation-0 body. The transform + proof run
  /// in finalize(), just before the publish. Only engaged for tool-less
  /// sessions: the optimizer deletes instructions, which would change
  /// instrumentation callback sequences.
  bool OptTier = false;
  /// Minimum lifetime heat for a trace to be considered for promotion.
  uint32_t OptHeatThreshold = 2;
  /// Generation ceiling: traces already at this generation are left
  /// alone (each proved promotion pass bumps a trace by one).
  uint32_t OptMaxGen = 4;
  /// Combined instruction cap for a merged superblock body.
  uint32_t OptMaxSuperblockInsts = 256;
};

/// Circuit breaker: store-write attempts finalize() makes (retrying in
/// between) before giving up on persistence for the session. The run
/// itself still succeeds — it just leaves nothing behind, recorded in
/// EngineStats::PersistDegraded.
inline constexpr uint32_t BreakerAttempts = 3;

/// What prime() did, for reporting and tests.
struct PrimeResult {
  bool CacheFound = false;
  std::string CachePath;
  /// Why a located cache was rejected wholesale (empty otherwise).
  std::string RejectReason;
  uint32_t TracesInstalled = 0;
  uint32_t TracesSkipped = 0;
  uint32_t ModulesValidated = 0;
  uint32_t ModulesInvalidated = 0;
  uint32_t LinksRestored = 0;
  /// Candidate caches that exist but could not be read (I/O errors) —
  /// distinct from there being no cache at all.
  uint32_t CandidatesSkippedIo = 0;
  /// Payload-validation jobs handed to the worker pool (0 when priming
  /// synchronously).
  uint32_t PayloadJobsQueued = 0;
  /// True when the cache payload was installed execute-in-place: the
  /// code pool borrows the file's mapped payload section and prime()
  /// copied zero payload bytes.
  bool XipInstalled = false;
  /// Payload bytes the install path copied into the private code pool
  /// (0 under XIP — that is the point).
  uint64_t PayloadBytesCopied = 0;
};

/// One-line outcome of a prime for operators: "found (N traces
/// installed, M skipped, K modules invalidated)", "rejected (<reason>)"
/// when a cache was located but refused, or "not found".
std::string describePrime(const PrimeResult &R);

/// Brackets one engine run with persistent-cache reuse and generation.
class PersistentSession {
public:
  PersistentSession(const CacheDatabase &Db,
                    PersistOptions Opts = PersistOptions())
      : Db(Db), Opts(std::move(Opts)) {}

  /// Quiesces the async prime: unclaimed payload jobs are cancelled
  /// and in-flight ones waited for.
  ~PersistentSession() { (void)wait(nullptr); }

  PersistentSession(const PersistentSession &) = delete;
  PersistentSession &operator=(const PersistentSession &) = delete;

  /// Locates, validates and installs a persistent cache into \p Engine's
  /// code cache. Must be called before Engine::run(), on an engine whose
  /// cache is empty. A missing cache is success with
  /// PrimeResult::CacheFound == false.
  ErrorOr<PrimeResult> prime(dbi::Engine &Engine);

  /// Writes the persistent cache for \p Engine's application after its
  /// run. Requires a prior prime() on the same engine. Runs on the
  /// calling thread: on return the cache is published, or the store
  /// failure is recorded in the engine's stats (or returned, under
  /// FailFast). The write goes through the store's transactional
  /// publish: when a concurrent session finalized the same key since
  /// prime(), the two caches are merged rather than clobbered.
  Status finalize(dbi::Engine &Engine);

  /// Quiesces the async prime: cancels payload jobs no one will consume
  /// anymore, waits for in-flight ones (they read the session-owned
  /// cache view), and reports the queue's scheduling outcomes to the
  /// recording hooks. Always succeeds and leaves the stats untouched;
  /// the parameter is kept for existing callers. Idempotent; a no-op
  /// for synchronous sessions.
  Status wait(dbi::EngineStats *Stats);

  /// Database slot key for this application/engine/tool (valid after
  /// prime()).
  uint64_t lookupKey() const { return LookupKey; }

private:
  ErrorOr<StoredCache> locateCache(dbi::Engine &Engine,
                                   PrimeResult &Result);
  /// Validates \p Persisted module keys against the loaded image,
  /// filling ModuleValidated/ModuleLoadedNow and the per-module load
  /// deltas and current mapping regions.
  void validateModules(dbi::Engine &Engine,
                       const std::vector<ModuleKey> &Persisted,
                       PrimeResult &Result, std::vector<int64_t> &Delta,
                       std::vector<std::pair<uint32_t, uint32_t>> &Region);
  struct PlannedTrace;
  struct InstallPlan;
  struct AdmittedPlan;
  /// The one walk of \p View's trace index: validates the module keys,
  /// then applies the usability and exit-kind checks, translates each
  /// usable entry by its module's load delta, and picks up the
  /// optimization generations.
  InstallPlan planInstall(dbi::Engine &Engine, const CacheFileView &View,
                          PrimeResult &Result);
  /// Admits \p Plan into the engine's code cache from LoadedView. Each
  /// trace the data pool has room for becomes a resident, unbuilt plan
  /// slot, in plan order; its trace is built on the first lookup that
  /// needs it, its persisted links restored then as pending marks, and
  /// its CRC + decode (and PIC rebase) deferred further, to
  /// Engine::ensureMaterialized() at first execution. Every count in
  /// \p Result (installed, skipped, links restored) is decided here.
  /// The pool is either *borrowed* — the code cache executes the view's
  /// page-aligned v3 payload in place at each trace's file code offset,
  /// zero bytes copied, zero decode work queued — or *copied* into a
  /// packed private pool when the file, session or host does not
  /// qualify (any rebase delta, any skipped entry, validation modes,
  /// big-endian host). Both strategies charge bit-identical modeled
  /// stats.
  Status installPlan(dbi::Engine &Engine, InstallPlan &Plan,
                     PrimeResult &Result);

  /// Hands one payload job per chunk of Admitted's plan slots to the
  /// worker pool and attaches the install queue to \p Engine.
  void startAsyncPrime(dbi::Engine &Engine, PrimeResult &Result);

  const CacheDatabase &Db;
  PersistOptions Opts;

  /// The plan installPlan() admitted (null when nothing was): per plan
  /// slot, the view entry, rebased start, pool offset and load delta.
  /// The code cache's slot builder and the async payload jobs share it
  /// and read nothing else, so a job never touches a code-cache slot.
  /// Every trace built from it keeps its plan slot, through which the
  /// materialize hook reads the trace's certificate in place from the
  /// view (nothing is copied at prime) and finalize() writes unbuilt
  /// slots and re-attaches certificates.
  std::shared_ptr<const AdmittedPlan> Admitted;
  /// Shared with the engine (consumer) and the pool workers.
  std::shared_ptr<dbi::TraceInstallQueue> Queue;

  /// State carried from prime() to finalize(). The view is shared
  /// because a borrowed pool hands it to the code cache as the
  /// keepalive of the mapped payload.
  std::shared_ptr<CacheFileView> LoadedView;
  std::vector<bool> ModuleValidated; ///< Per LoadedView module.
  std::vector<bool> ModuleLoadedNow; ///< Per LoadedView module.
  bool LoadedWasOwn = false; ///< Cache came from this app's own slot.
  uint64_t LookupKey = 0;
  uint64_t EngineHash = 0;
  uint64_t ToolHash = 0;
  bool Primed = false;
};

/// Tool hash used when the engine runs without a tool.
uint64_t noToolHash();

/// Outcome of a full persistent run.
struct PersistentRunResult {
  vm::RunResult Run;
  dbi::EngineStats Stats;
  PrimeResult Prime;
};

/// Convenience wrapper: construct an engine over \p M with \p ClientTool,
/// prime from \p Db, run, finalize, and return everything measured.
/// EngineStats include the persistence costs charged by finalize().
ErrorOr<PersistentRunResult>
runWithPersistence(vm::Machine &M, dbi::Tool *ClientTool,
                   const dbi::EngineOptions &EngineOpts,
                   const CacheDatabase &Db,
                   const PersistOptions &Opts = PersistOptions());

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_SESSION_H
