//===- analysis/Validator.h - Trace translation validator -------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation for DBI traces: proves that a translated
/// trace body has the same guest-visible effects as the source guest
/// instructions it claims to translate. Both sequences are executed
/// symbolically over a shared hash-consed expression DAG; at every
/// point where control can leave the trace (taken branch, terminator,
/// syscall, instruction-count fall-through) the two executions must
/// agree on
///
///   * the exit's kind, position and (symbolic) target,
///   * the branch condition, for conditional exits,
///   * the full register state (all 16 registers),
///   * the ordered list of memory writes (address and value), and
///   * the ordered list of memory-read addresses (a load can fault,
///     which is guest-visible even when the loaded value is dead).
///
/// Structural expression equality is sound, never complete: identical
/// instruction sequences always validate, and the one transformation
/// this system performs — Nop substitution of defs that are dead at
/// every exit (analysis::findDeadTraceDefs) — is invisible at exit
/// points by construction, so it validates too. Any mutation of a
/// semantically live instruction changes some exit summary and is
/// reported as a structured TraceMismatch.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ANALYSIS_VALIDATOR_H
#define PCC_ANALYSIS_VALIDATOR_H

#include "isa/Instruction.h"

#include <optional>
#include <string>
#include <vector>

namespace pcc {
namespace analysis {

struct Certificate;

/// Structured diagnostic for a failed validation.
struct TraceMismatch {
  /// Instruction index (in the source body) of the exit point — or for
  /// body-shape mismatches, the first differing position.
  uint32_t InstIndex = 0;
  /// Which exit point diverged (index into the exit sequence), or ~0u
  /// when the divergence is not tied to one exit.
  uint32_t ExitIndex = ~0u;
  /// What differed ("register r3", "store 2 address", "exit kind", ...).
  std::string What;
};

/// Outcome of validating one trace translation.
struct ValidationResult {
  bool Equivalent = true;
  std::optional<TraceMismatch> Mismatch;

  /// Human-readable one-line summary ("equivalent" or the mismatch).
  std::string message() const;
};

/// Validates that \p Translated (the decoded body of a compiled or
/// persisted trace starting at guest address \p GuestStart) is
/// effect-equivalent to \p Source (the guest instructions at that
/// address).
ValidationResult
validateTranslation(uint32_t GuestStart,
                    const std::vector<isa::Instruction> &Source,
                    const std::vector<isa::Instruction> &Translated);

/// As above, and on success additionally emits into \p CertOut a
/// proof-carrying certificate (analysis::Certificate) from which the
/// minimal checker (analysis::checkCertificateBlob) can re-establish the
/// verdict without re-running the prover. \p CertOut may be null (then
/// this is exactly the plain overload); on failure it is reset to an
/// empty certificate. The caller fills Certificate::OptGen — the
/// validator does not know the generation the body publishes as.
ValidationResult
validateTranslation(uint32_t GuestStart,
                    const std::vector<isa::Instruction> &Source,
                    const std::vector<isa::Instruction> &Translated,
                    Certificate *CertOut);

} // namespace analysis
} // namespace pcc

#endif // PCC_ANALYSIS_VALIDATOR_H
