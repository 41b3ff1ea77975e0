//===- dbi/Stats.h - Engine execution statistics ----------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle and event accounting for one engine run, split exactly the way
/// the paper reports results: VM overhead (translation + dispatch +
/// linking + persistence bookkeeping) vs. translated-code execution vs.
/// emulation. The compile-event timeline feeds Figure 2(a).
///
/// PCC_ENGINE_STATS_COUNTERS is the single list of EngineStats'
/// uint64_t counters. The struct members and the EngineStatsCounters
/// descriptor array are both expanded from it, and every field-by-field
/// consumer walks that array: the `.pcrr` trailer codec and
/// replay::diffStats, the tests' all-fields equality helper and
/// `pccrun --stats`. To add a counter, add one X(Name, Kind) line to
/// the table: Account if totalCycles() must sum it (then also add it to
/// vmCycles() or translatedCycles()), Counter otherwise. Appending or
/// reordering entries changes the `.pcrr` trailer layout, so bump
/// replay::LogVersion with it.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_STATS_H
#define PCC_DBI_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pcc {
namespace dbi {

/// One VM translation request, recorded for the Figure 2(a) timeline.
struct CompileEvent {
  /// Guest instructions executed when the request occurred.
  uint64_t GuestInstsExecuted = 0;
  /// Number of guest instructions in the compiled trace.
  uint32_t TraceInsts = 0;
};

/// How a table counter relates to the paper's cycle split.
enum class StatKind : uint8_t {
  Account, ///< A cycle account totalCycles() sums.
  Counter, ///< Anything else: events, bytes, latencies.
};

/// The EngineStats counter table: one X(Name, Kind) entry per uint64_t
/// counter, in member (and `.pcrr` trailer) order.
#define PCC_ENGINE_STATS_COUNTERS(X)                                         \
  /* Cycle accounts: the nine totalCycles() sums. */                         \
  X(CompileCycles, Account)           /* Trace translation work. */          \
  X(DispatchCycles, Account)          /* Code cache exits to the VM. */      \
  X(LinkCycles, Account)              /* Trace link patching. */             \
  X(IndirectCycles, Account)          /* Inline indirect-target lookups. */  \
  X(ExecCycles, Account)              /* Translated guest instructions. */   \
  X(ToolCycles, Account)              /* Analysis-routine execution. */      \
  X(EmulationCycles, Account)         /* Syscall interception/emulation. */  \
  X(PersistCycles, Account)           /* Keys, cache open, demand paging,    \
                                         cache write-back. */                \
  X(EvictionCycles, Account)          /* Granular cache eviction work. */    \
  /* Event counts. */                                                        \
  X(GuestInstsExecuted, Counter)                                             \
  X(SyscallCount, Counter)                                                   \
  X(TracesCompiled, Counter)                                                 \
  X(TracesLoadedFromCache, Counter)   /* Persisted traces installed. */      \
  X(TracesReused, Counter)            /* Persisted traces executed. */       \
  X(TraceExecutions, Counter)                                                \
  X(LinksCreated, Counter)                                                   \
  X(CacheFlushes, Counter)                                                   \
  X(TracesEvicted, Counter)                                                  \
  X(ModulesInvalidated, Counter)      /* Key conflicts at load time. */      \
  X(TracePayloadsValidated, Counter)  /* Lazy per-trace CRC checks run at    \
                                         first materialization. */           \
  X(TracesDroppedCorrupt, Counter)    /* Persisted traces whose payload      \
                                         CRC failed; retranslated. */        \
  X(PersistSharedPageHits, Counter)   /* First-touched persisted pages       \
                                         already resident in another         \
                                         process (soft fault, not I/O).      \
                                         0 unless a shared-residency map     \
                                         is attached; attaching one          \
                                         affects XIP and materializing       \
                                         runs identically. */                \
  X(TracesVerified, Counter)          /* Traces proven effect-equivalent     \
                                         at materialization (full            \
                                         symbolic proof or certificate       \
                                         check). */                          \
  X(VerifyFailures, Counter)          /* Traces the validator rejected. */   \
  X(CertsChecked, Counter)            /* Persisted validation                \
                                         certificates checked at prime       \
                                         time. */                            \
  X(CertChecksFailed, Counter)        /* Of those, rejected (tampered,       \
                                         stale, or unsound); each falls      \
                                         back to a full re-proof. */         \
  X(ProofsReplayed, Counter)          /* Promoted bodies re-proved with      \
                                         the full symbolic validator at      \
                                         prime (certificate missing/         \
                                         rebased or rejected). */            \
  X(FlagsElided, Counter)             /* Dead pure defs replaced with Nop    \
                                         by the --opt-flags pass. */         \
  X(TracesPromoted, Counter)          /* Traces finalize promoted to a       \
                                         higher optimization generation      \
                                         (validator-proved). */              \
  X(SuperblocksFormed, Counter)       /* Fall-through trace chains           \
                                         merged into one straight-line       \
                                         body. */                            \
  X(OptLoadsEliminated, Counter)      /* Redundant loads the promotion       \
                                         pipeline removed. */                \
  X(OptConstsFolded, Counter)         /* ALU results constant-folded by      \
                                         the promotion pipeline. */          \
  X(OptValidatorRejections, Counter)  /* Promotion attempts the              \
                                         validator refused; the gen-0        \
                                         body was kept. */                   \
  X(OptNopsExecuted, Counter)         /* Nop slots executed inside           \
                                         promoted (gen >= 1) bodies;         \
                                         these earn the modeled              \
                                         execution discount. Gen-0           \
                                         elision Nops are deliberately       \
                                         not counted, so unpromoted runs     \
                                         cost exactly what they did          \
                                         before the opt tier. */             \
  X(PersistL1Hits, Counter)           /* Primes satisfied by the local       \
                                         (L1) tier of a tiered store. */     \
  X(PersistL2Hits, Counter)           /* Primes satisfied by read-           \
                                         through from the remote (L2)        \
                                         tier. */                            \
  X(PersistRemoteFetches, Counter)    /* Cache files pulled over the         \
                                         modeled remote link. */             \
  X(PersistRemoteBytes, Counter)      /* Bytes those fetches moved. */       \
  X(FirstTraceReadyCycles, Counter)   /* A latency, not an account:          \
                                         modeled cycles from engine          \
                                         start until the first trace         \
                                         began executing (key hashing,       \
                                         cache open, remote fetch and        \
                                         compile/materialize charges         \
                                         included); 0 if no trace ever       \
                                         ran. */                             \
  /* Fault tolerance (see PersistDegraded below). */                         \
  X(PersistStoreFailures, Counter)    /* Failed store operations             \
                                         (publish attempts included). */     \
  X(PersistStoreRetries, Counter)     /* Publish attempts retried after      \
                                         a failure, plus lock-contention     \
                                         retries the backoff absorbed. */    \
  X(PersistCandidatesSkippedIo, Counter) /* Candidate caches skipped         \
                                         because of I/O errors (as           \
                                         opposed to none existing). */

/// Aggregated counters for one engine run.
struct EngineStats {
#define PCC_STATS_MEMBER(Name, Kind) uint64_t Name = 0;
  PCC_ENGINE_STATS_COUNTERS(PCC_STATS_MEMBER)
#undef PCC_STATS_MEMBER

  /// \name Fault tolerance
  /// Persistence is an accelerator: store failures are absorbed here,
  /// never surfaced as run failures (the paper's Oracle deployment
  /// cannot afford a worker dying to a full disk).
  /// @{
  bool PersistDegraded = false; ///< Session tripped its circuit breaker
                                ///< and fell back to in-memory-only.
  std::string PersistDegradeReason; ///< What tripped the breaker.
  /// @}

  /// Translation-request timeline (Figure 2(a)).
  std::vector<CompileEvent> Timeline;

  /// The paper's "VM overhead": everything spent inside the virtual
  /// machine generating and managing code.
  uint64_t vmCycles() const {
    return CompileCycles + DispatchCycles + LinkCycles + PersistCycles +
           EvictionCycles;
  }

  /// The paper's "translated code performance" time.
  uint64_t translatedCycles() const {
    return ExecCycles + ToolCycles + IndirectCycles;
  }

  /// Total run cycles under the engine.
  uint64_t totalCycles() const {
    return vmCycles() + translatedCycles() + EmulationCycles;
  }
};

/// One table counter, for consumers that walk every field.
struct StatsCounter {
  const char *Name;
  StatKind Kind;
  uint64_t EngineStats::*Field;
};

/// Every table counter, in table order.
inline constexpr StatsCounter EngineStatsCounters[] = {
#define PCC_STATS_DESCRIPTOR(Name, Kind)                                      \
  {#Name, StatKind::Kind, &EngineStats::Name},
    PCC_ENGINE_STATS_COUNTERS(PCC_STATS_DESCRIPTOR)
#undef PCC_STATS_DESCRIPTOR
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_STATS_H
