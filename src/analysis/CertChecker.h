//===- analysis/CertChecker.h - Minimal certificate checker -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trusted checker for translation-validation certificates. Where
/// the prover (analysis::validateTranslation) hash-conses expressions
/// through a map and searches for redundancy witnesses, the checker
/// only *re-evaluates and compares* what the certificate recorded:
///
///   * it re-runs the shared symbolic execution (SymExec.h) over both
///     the embedded source and the presented body, but replaces every
///     map lookup with a verification of the recorded step stream —
///     each recorded id must either append a brand-new node or name an
///     existing node whose payload equals the request;
///   * it checks each recorded skip witness in O(1) instead of
///     searching (the witness must precede the elided load and carry an
///     identical value expression);
///   * it recomputes and compares the per-exit / store / load digests
///     and the CRCs binding the certificate to the exact source and
///     body bytes.
///
/// Soundness does not rest on the certificate being honest: a verified
/// step stream reconstructs, by induction, exactly the node payloads
/// the ids denote, and the comparison loop is the prover's own. A
/// tampered or fabricated certificate can make the checker *reject*
/// (then the caller falls back to the full prover), never make it
/// accept an inequivalent translation.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ANALYSIS_CERTCHECKER_H
#define PCC_ANALYSIS_CERTCHECKER_H

#include "analysis/Certificate.h"
#include "analysis/Validator.h"
#include "isa/Instruction.h"

#include <span>
#include <string>
#include <vector>

namespace pcc {
namespace analysis {

/// Why a certificate check failed (or Ok).
enum class CertCheckStatus : uint8_t {
  Ok,
  Malformed,     ///< Blob does not parse or fails its own CRC.
  BindMismatch,  ///< Cert is for different bytes (stale gen, wrong
                 ///< address, source/body CRC mismatch).
  StepMismatch,  ///< Step stream diverges from the re-run executions.
  ObligationMismatch, ///< Recorded obligations do not discharge: a
                      ///< witness fails, or an exit/store/register
                      ///< comparison differs.
  DigestMismatch,     ///< Recomputed effect digests differ from the
                      ///< recorded ones.
};

const char *certCheckStatusName(CertCheckStatus S);

/// Outcome of checking one certificate.
struct CertCheckResult {
  CertCheckStatus Status = CertCheckStatus::Ok;
  /// One-line failure description (empty on Ok).
  std::string Detail;

  bool ok() const { return Status == CertCheckStatus::Ok; }
  /// "<status name>" or "<status name>: <detail>".
  std::string describe() const;
};

/// Optional raw-byte bindings for at-rest checks (dbcheck, L2 fills,
/// benchmarks), letting the checker CRC the caller's stored encodings
/// instead of re-encoding the decoded vectors. Sound because the
/// instruction encoding is canonical: decode validates every field and
/// the in-memory layout equals the 8-byte wire form, so raw bytes and
/// encodeAll(decodeAll(bytes)) are the same bytes. Do NOT bind BodyBytes
/// to a rebased (position-adjusted) body — at prime time the body bytes
/// in memory are no longer the bytes the proof covers; leave the
/// binding empty there and the checker re-encodes.
struct CertBindings {
  /// The stored GuestInstCount * 8 body encodings, exactly as persisted.
  const uint8_t *BodyBytes = nullptr;
  size_t BodyByteCount = 0;
  /// The raw guest bytes \p ExpectedSource was decoded from; enables a
  /// memcmp against the embedded source instead of decode + compare.
  const uint8_t *SourceBytes = nullptr;
  size_t SourceByteCount = 0;

  /// Binds \p InstCount stored body encodings at \p Bytes.
  static CertBindings ofBody(const uint8_t *Bytes, uint32_t InstCount) {
    CertBindings B;
    B.BodyBytes = Bytes;
    B.BodyByteCount = static_cast<size_t>(InstCount) * isa::InstructionSize;
    return B;
  }
};

/// Structurally validates the certificate blob \p Data/\p Size
/// (returning Malformed on damage) and checks that it proves \p Body
/// (the decoded gen-N instructions of a trace at guest address
/// \p GuestStart) equivalent to the certificate's embedded source,
/// consuming the blob's sections in place — no Certificate is
/// materialized. When \p ExpectedSource is provided (prime with the
/// module mapped, dbcheck --deep), the embedded source must equal it,
/// binding the proof to the real guest bytes; when null (L2 fills,
/// module-less checks), the embedded source is still covered by SrcCrc,
/// and the check establishes body-vs-embedded-source equivalence.
/// \p Bind, when provided, supplies the caller's raw at-rest encodings
/// (see CertBindings) so the binding CRCs run over existing bytes. When
/// Bind->SourceBytes and \p ExpectedSource are both given they must
/// describe the same instructions (ExpectedSource == decodeAll of
/// SourceBytes); the checker then verifies the embedded source by
/// memcmp and executes \p *ExpectedSource directly.
CertCheckResult checkCertificateBlob(
    const uint8_t *Data, size_t Size, uint32_t GuestStart,
    const std::vector<isa::Instruction> &Body,
    const std::vector<isa::Instruction> *ExpectedSource = nullptr,
    const CertBindings *Bind = nullptr);

/// One verification of a translated body, as every consumer of
/// persisted translations asks for it: check the certificate (when one
/// is given), and fall back to the full prover when it is missing or
/// rejected (when asked to).
struct TranslationCheck {
  uint32_t GuestStart = 0;
  /// The decoded body. Required.
  const std::vector<isa::Instruction> *Body = nullptr;
  /// The guest instructions the body claims to translate. Null: the
  /// certificate is checked against its own embedded source, and the
  /// prover cannot run.
  const std::vector<isa::Instruction> *Source = nullptr;
  /// The body's stored encodings (see CertBindings); empty when the
  /// body was not decoded from them unchanged.
  CertBindings Bind = {};
  /// Certificate blob; empty when there is none.
  std::span<const uint8_t> Cert = {};
  /// Run the prover when the certificate is missing or rejected.
  /// Requires Source.
  bool ProveOnFallback = false;
  /// When the prover runs and proves the body, its proof is emitted
  /// here (the caller fills Certificate::OptGen).
  Certificate *FreshProof = nullptr;
};

/// What checkTranslation did. Callers map it onto their own counters
/// and dispositions.
struct TranslationVerdict {
  bool CertChecked = false;  ///< A certificate was checked...
  bool CertRejected = false; ///< ...and rejected, for Cert's reason.
  CertCheckResult Cert;
  bool ProverRan = false; ///< The prover ran; Proof is its result.
  ValidationResult Proof;
  /// The certificate or the prover established equivalence. False when
  /// neither could (nothing to check, rejected without fallback, or
  /// the prover found a mismatch).
  bool Equivalent = false;
};

/// The certificate-or-proof decision, written once for prime,
/// finalize, pcc-dbcheck and tiered-store fills. A certificate can only
/// make this accept a body the checker verifies; a forged or stale one
/// is rejected and, under ProveOnFallback, the prover decides.
TranslationVerdict checkTranslation(const TranslationCheck &C);

} // namespace analysis
} // namespace pcc

#endif // PCC_ANALYSIS_CERTCHECKER_H
