//===- dbi/Engine.h - The run-time compilation engine -----------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine that runs a guest program completely under its
/// control — the Pin analogue of Figure 1 in the paper. The dispatcher
/// looks up traces in the translation map, invokes the compilation unit
/// on misses (the dominant VM overhead), links traces so hot paths stay
/// inside the code cache, and hands syscalls to the emulation unit.
///
/// Persistence (the paper's contribution) is layered on top by
/// pcc::persist: it pre-populates this engine's code cache from a
/// persistent cache file before run() and harvests resident traces after.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_ENGINE_H
#define PCC_DBI_ENGINE_H

#include "dbi/CodeCache.h"
#include "dbi/Compiler.h"
#include "dbi/CostModel.h"
#include "dbi/InstallQueue.h"
#include "dbi/Stats.h"
#include "dbi/Tool.h"
#include "vm/Machine.h"

#include <functional>
#include <memory>
#include <unordered_map>

namespace pcc {
namespace dbi {

/// What the engine does when a code-cache pool fills up.
enum class EvictionPolicy : uint8_t {
  /// Discard everything (Pin's behaviour, and the paper's: "a code
  /// cache flush discards all translated code and data structures").
  FlushAll,
  /// Evict the oldest half of the traces and compact the pool —
  /// granular code-cache management in the spirit of the Hazelwood
  /// work the paper builds on. Evaluated in bench/ablate_eviction.
  EvictOldestHalf,
};

/// Engine configuration. Defaults mirror the paper's setup scaled to the
/// synthetic workloads (the paper reserves 512 MB split evenly between
/// code cache and data structures; a flush discards everything).
struct EngineOptions {
  /// Fixed instruction count bounding trace selection.
  uint32_t MaxTraceInsts = 16;
  uint64_t CodePoolBytes = 64ull << 20;
  uint64_t DataPoolBytes = 64ull << 20;
  /// Trace linking (proactive branch patching). On in Pin; switchable
  /// for ablation.
  bool EnableLinking = true;
  /// Ablation of the separate code/data pools (Section 3.2.2): when
  /// true, data structures are intermixed with code in a single pool,
  /// degrading translated-code locality.
  bool IntermixPools = false;
  /// Reaction to a full pool.
  EvictionPolicy Eviction = EvictionPolicy::FlushAll;
  /// Liveness-driven dead-def elision in the compilation unit: defs
  /// that cannot be observed at any trace exit are replaced with Nop in
  /// the translated image. Every elided trace is proved
  /// effect-equivalent to its source by analysis::validateTranslation;
  /// on a validator rejection the unelided translation is kept.
  /// Architectural results are identical either way.
  bool OptimizeFlags = false;
  CostModel Costs;
  vm::RunLimits Limits;
};

/// Version stamp of the engine implementation. Part of every persistent
/// cache key: "code and the data structures are specific to a version of
/// the system and cannot be utilized across versions" (Section 3.2.1).
uint64_t engineVersionHash();

/// One run of one guest program under dynamic binary translation.
class Engine {
public:
  /// \p ClientTool may be nullptr (no instrumentation — the paper's
  /// "minimum overhead Pin must overcome" baseline).
  Engine(vm::Machine &M, Tool *ClientTool,
         EngineOptions Opts = EngineOptions());

  /// Executes the guest to completion. Callable once per Engine.
  vm::RunResult run();

  CodeCache &cache() { return Cache; }
  const CodeCache &cache() const { return Cache; }
  EngineStats &stats() { return Stats; }
  const EngineStats &stats() const { return Stats; }
  const EngineOptions &options() const { return Opts; }
  vm::Machine &machine() { return M; }
  Tool *tool() const { return ClientTool; }

  /// Instrumentation compiled into every trace (empty without a tool).
  InstrumentationSpec spec() const {
    return ClientTool ? ClientTool->spec() : InstrumentationSpec();
  }

  /// Attaches the async-prime install queue: worker threads publish
  /// CRC-validated, pre-decoded persisted payloads there and a trace's
  /// first execution takes the published chunk covering it. Results
  /// are bit-identical with and without a queue — the background work
  /// is host-side only and every modeled cycle is still charged here at
  /// first execution.
  void setInstallQueue(std::shared_ptr<TraceInstallQueue> Q) {
    InstallQ = std::move(Q);
  }

  /// What a materialize-time verification hook did, reported back so
  /// the engine can account for it without knowing how the session
  /// verifies (full symbolic re-proof, certificate check, or neither).
  struct MaterializeCheckInfo {
    /// The hook established effect-equivalence for this body (counts in
    /// EngineStats::TracesVerified). False when the hook passed the
    /// trace through unverified (e.g. an unpromoted trace under
    /// certificate-only checking).
    bool Verified = false;
    /// Certificate checks attempted / failed for this body.
    uint32_t CertsChecked = 0;
    uint32_t CertChecksFailed = 0;
    /// Full symbolic re-proofs run (certificate missing or rejected).
    uint32_t ProofsReplayed = 0;
  };

  /// Deep-verification hook run when a persisted trace's body is
  /// materialized at first execution (whether a pool worker or the
  /// engine thread decoded it), before the trace becomes executable.
  /// Receives the trace's guest start address, its decoded (rebased)
  /// body, and an Info out-param describing the verification work
  /// done; a non-success Status rejects the trace, which is then
  /// dropped and retranslated from guest memory exactly like a payload
  /// CRC failure. Installed by
  /// persist::Session when PersistOptions::ValidateSemantic or
  /// certificate checking applies; the engine itself stays
  /// persistence-agnostic.
  using MaterializeValidator = std::function<Status(
      uint32_t GuestStart, const std::vector<isa::Instruction> &Body,
      MaterializeCheckInfo &Info)>;
  void setMaterializeValidator(MaterializeValidator V) {
    ValidateMaterialize = std::move(V);
  }

  /// Shared-residency probe for persisted code pages: given a code-pool
  /// page number, returns true when another process already has that
  /// page mapped and resident. A newly touched page that probes true is
  /// charged CostModel::SharedPageTouchCycles (a soft fault wiring in a
  /// shared page) instead of PersistPageTouchCycles (demand-paged I/O),
  /// and counts in EngineStats::PersistSharedPageHits. The probe
  /// applies identically to XIP and materializing primes, so attaching
  /// it never breaks their stats bit-identity. Null = every first touch
  /// is I/O (the single-process default).
  using ResidencyProbe = std::function<bool(uint32_t Page)>;
  void setResidencyProbe(ResidencyProbe P) {
    ProbeResidency = std::move(P);
  }

private:
  /// Dispatcher slow path: translation-map lookup, compiling on a miss,
  /// flushing and retrying when a pool fills.
  ErrorOr<TranslatedTrace *> lookupOrCompile(uint32_t Pc);

  /// Decodes a persisted trace's body on first execution, charging
  /// demand-paging costs. Consumes a background-validated body when a
  /// published chunk covers the trace; otherwise validates inline. XIP
  /// traces are CRC-checked and bounds-scanned in place instead of
  /// decoded.
  Status ensureMaterialized(TranslatedTrace *T);

  /// Charges the first-execution materialize + page-touch cycles for
  /// \p T, splitting newly touched pages into shared soft faults and
  /// demand-paged I/O when a residency probe is attached.
  void chargePersistFirstTouch(TranslatedTrace *T);

  /// Runs ValidateMaterialize over \p Body, folding the hook's
  /// MaterializeCheckInfo into Stats (certificate and re-proof
  /// counters; TracesVerified only when the hook actually verified).
  /// Must only be called with the hook installed.
  Status runMaterializeCheck(uint32_t GuestStart,
                             const std::vector<isa::Instruction> &Body);

  vm::Machine &M;
  Tool *ClientTool;
  EngineOptions Opts;
  CodeCache Cache;
  Compiler TheCompiler;
  EngineStats Stats;
  bool HasRun = false;
  /// Async-prime plumbing (null when priming is synchronous).
  std::shared_ptr<TraceInstallQueue> InstallQ;
  /// Semantic-verification hook for persisted bodies (null = off).
  MaterializeValidator ValidateMaterialize;
  /// Cross-process page-residency probe (null = single process).
  ResidencyProbe ProbeResidency;
  /// Chunk-mates of a taken chunk, awaiting their own first
  /// executions, by guest start. An entry whose trace was flushed
  /// before first execution simply goes unused; the dispatcher
  /// recompiles that PC as on a cold run.
  std::unordered_map<uint32_t, ReadyTrace> Prevalidated;
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_ENGINE_H
