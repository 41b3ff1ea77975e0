//===- dbi/Compiler.h - Trace compilation unit ------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation unit: selects a trace from guest memory, emits its
/// translated form into the code cache pool (original layout preserved —
/// Pin "does not attempt original program optimization"), weaves in the
/// tool's instrumentation points, and charges the translation cycles that
/// constitute the paper's VM overhead.
///
/// Translated code layout in the pool:
///
///   [ prologue 16B ][ N guest instructions re-encoded, 8B each ]
///   [ one 16B exit stub per exit ][ one 16B stub per instr. point ]
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_COMPILER_H
#define PCC_DBI_COMPILER_H

#include "dbi/CodeCache.h"
#include "dbi/CostModel.h"
#include "dbi/Stats.h"
#include "dbi/Tool.h"
#include "dbi/Trace.h"

namespace pcc {
namespace dbi {

/// Pool-layout constants of the translated form.
inline constexpr uint32_t TracePrologueBytes = 16;
inline constexpr uint32_t ExitStubBytes = 16;
inline constexpr uint32_t InstrumentStubBytes = 16;

/// Rebases by \p Delta (wrapping modulo 2^32) the 32-bit immediate of
/// every translated instruction whose bit is set in \p RelocMask, inside
/// a trace's pool image of \p InstCount instructions. Used for
/// position-independent persisted code: the stored bytes keep the
/// original immediates, and the load-address delta is applied in place
/// after the deferred CRC check, or to the copy finalize() writes back
/// for a trace that never executed.
void rebaseTranslatedImage(uint8_t *TraceImage, size_t ImageBytes,
                           uint32_t InstCount,
                           const std::vector<uint8_t> &RelocMask,
                           int64_t Delta);

/// Compiles traces on behalf of one engine run.
class Compiler {
public:
  /// \p OptFlags enables the liveness-driven dead-def elision pass
  /// (EngineOptions::OptimizeFlags): pure defs proved dead at every
  /// trace exit are replaced with Nop in the emitted image, and every
  /// touched trace must pass analysis::validateTranslation against the
  /// unmodified selection or the elision is discarded.
  Compiler(const loader::AddressSpace &Space, CodeCache &Cache,
           const CostModel &Costs, InstrumentationSpec Spec,
           uint32_t MaxTraceInsts, bool OptFlags = false)
      : Space(Space), Cache(Cache), Costs(Costs), Spec(Spec),
        MaxTraceInsts(MaxTraceInsts), OptFlags(OptFlags) {}

  /// Translates the code starting at \p StartAddr into a new resident
  /// trace, charging compile cycles into \p Stats. Fails with
  /// OutOfMemory when a pool is full (caller flushes and retries) and
  /// with GuestFault/InvalidFormat on unexecutable guest memory.
  ErrorOr<TranslatedTrace *> compile(uint32_t StartAddr,
                                     EngineStats &Stats);

  /// Number of instrumentation points \p Spec inserts into \p T.
  static uint32_t instrumentationPoints(const Trace &T,
                                        const InstrumentationSpec &Spec);

  /// Translated size in pool bytes of \p T under \p Spec.
  static uint32_t translatedBytes(const Trace &T,
                                  const InstrumentationSpec &Spec);

private:
  const loader::AddressSpace &Space;
  CodeCache &Cache;
  const CostModel &Costs;
  InstrumentationSpec Spec;
  uint32_t MaxTraceInsts;
  bool OptFlags;
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_COMPILER_H
