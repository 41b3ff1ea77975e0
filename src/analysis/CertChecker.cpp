//===- analysis/CertChecker.cpp -------------------------------------------===//

#include "analysis/CertChecker.h"

#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;

namespace {

uint32_t getU32(const uint8_t *P) {
  return static_cast<uint32_t>(P[0]) |
         (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

/// The checker's expression pool: no map, no search. Every intern
/// request consumes the next packed step — a set fresh-bit appends the
/// requested payload as the next dense id; a clear bit decodes a varint
/// backref distance D and verifies that node (fresh count - D) holds
/// exactly the requested payload. After a successful replay every id in
/// the pool provably denotes its payload, which is all the comparison
/// loop relies on. The stream is consumed in place from the blob; no
/// decoded id vector is ever materialized.
///
/// On the first divergence (including a malformed or out-of-range
/// backref) the pool latches Failed and every subsequent operation
/// returns id 0 without touching state, so one corrupted step cannot
/// push later reads out of bounds.
class ReplayPool {
public:
  ReplayPool(const uint8_t *Bitmap, const uint8_t *Refs,
             const uint8_t *RefsEnd, uint32_t StepCount)
      : Bitmap(Bitmap), Ref(Refs), RefEnd(RefsEnd), StepCount(StepCount) {
    // A genuine stream appends at most one node per step; cap the
    // reserve so a fabricated StepCount cannot demand a huge upfront
    // allocation.
    Nodes.reserve(std::min<uint32_t>(StepCount, 1u << 16));
  }

  bool failed() const { return Failed; }
  bool exhausted() const { return Next == StepCount && Ref == RefEnd; }

  uint32_t init(unsigned Reg) {
    return take({static_cast<uint8_t>(ExprKind::Init), 0, 0, 0, Reg});
  }
  uint32_t konst(uint32_t Value) {
    return take({static_cast<uint8_t>(ExprKind::Const), 0, 0, 0, Value});
  }
  uint32_t bin(isa::Opcode Op, uint32_t A, uint32_t B) {
    return canonicalBin(*this, Op, A, B);
  }
  uint32_t load(uint32_t Addr, uint32_t Version) {
    return take({static_cast<uint8_t>(ExprKind::Load), 0, Addr, 0,
                 Version});
  }

  uint32_t binNode(isa::Opcode Op, uint32_t A, uint32_t B) {
    return take({static_cast<uint8_t>(ExprKind::Bin),
                 static_cast<uint8_t>(Op), A, B, 0});
  }
  bool constValue(uint32_t Id, uint32_t &Value) const {
    if (Id >= Nodes.size())
      return false; // Only reachable after a latched failure.
    const ExprKey &N = Nodes[Id];
    if (std::get<0>(N) != static_cast<uint8_t>(ExprKind::Const))
      return false;
    Value = std::get<4>(N);
    return true;
  }

private:
  const uint8_t *Bitmap;
  const uint8_t *Ref;
  const uint8_t *RefEnd;
  uint32_t StepCount;
  std::vector<ExprKey> Nodes;
  uint32_t Next = 0;
  bool Failed = false;

  uint32_t take(const ExprKey &Want) {
    if (Failed)
      return 0;
    if (Next == StepCount) {
      Failed = true;
      return 0;
    }
    const uint32_t I = Next++;
    if ((Bitmap[I >> 3] >> (I & 7)) & 1) {
      const uint32_t Id = static_cast<uint32_t>(Nodes.size());
      Nodes.push_back(Want);
      return Id;
    }
    uint32_t D = 0;
    int Shift = 0;
    while (true) {
      if (Ref == RefEnd || Shift > 28) {
        Failed = true;
        return 0;
      }
      const uint8_t B = *Ref++;
      D |= static_cast<uint32_t>(B & 0x7f) << Shift;
      if (!(B & 0x80))
        break;
      Shift += 7;
    }
    if (D == 0 || D > Nodes.size()) {
      Failed = true;
      return 0;
    }
    const uint32_t Id = static_cast<uint32_t>(Nodes.size()) - D;
    if (Nodes[Id] == Want)
      return Id;
    Failed = true;
    return 0;
  }
};

CertCheckResult fail(CertCheckStatus S, std::string Detail) {
  CertCheckResult R;
  R.Status = S;
  R.Detail = std::move(Detail);
  return R;
}

} // namespace

const char *pcc::analysis::certCheckStatusName(CertCheckStatus S) {
  switch (S) {
  case CertCheckStatus::Ok:
    return "ok";
  case CertCheckStatus::Malformed:
    return "malformed";
  case CertCheckStatus::BindMismatch:
    return "bind-mismatch";
  case CertCheckStatus::StepMismatch:
    return "step-mismatch";
  case CertCheckStatus::ObligationMismatch:
    return "obligation-mismatch";
  case CertCheckStatus::DigestMismatch:
    return "digest-mismatch";
  }
  return "?";
}

std::string CertCheckResult::describe() const {
  std::string Out = certCheckStatusName(Status);
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

TranslationVerdict pcc::analysis::checkTranslation(const TranslationCheck &C) {
  assert(C.Body && "checkTranslation needs the decoded body");
  TranslationVerdict V;
  if (!C.Cert.empty()) {
    V.CertChecked = true;
    V.Cert = checkCertificateBlob(C.Cert.data(), C.Cert.size(), C.GuestStart,
                                  *C.Body, C.Source, &C.Bind);
    if (V.Cert.ok()) {
      V.Equivalent = true;
      return V;
    }
    V.CertRejected = true;
  }
  if (!C.ProveOnFallback)
    return V;
  assert(C.Source && "the prover needs the guest source");
  V.ProverRan = true;
  V.Proof =
      validateTranslation(C.GuestStart, *C.Source, *C.Body, C.FreshProof);
  V.Equivalent = V.Proof.Equivalent;
  return V;
}

CertCheckResult pcc::analysis::checkCertificateBlob(
    const uint8_t *Data, size_t Size, uint32_t GuestStart,
    const std::vector<Instruction> &Body,
    const std::vector<Instruction> *ExpectedSource,
    const CertBindings *Bind) {
  auto View = viewCertificate(Data, Size);
  if (!View)
    return fail(CertCheckStatus::Malformed, View.status().message());
  const CertView &V = *View;

  // 1. Binding: this certificate must be about exactly these bytes.
  if (V.GuestStart != GuestStart)
    return fail(CertCheckStatus::BindMismatch,
                formatString("guest start differs: cert %u, trace %u",
                             V.GuestStart, GuestStart));
  if (V.InstCount != Body.size())
    return fail(CertCheckStatus::BindMismatch,
                formatString("body length differs: cert source %u, "
                             "body %zu",
                             V.InstCount, Body.size()));
  const size_t SectionBytes =
      static_cast<size_t>(V.InstCount) * isa::InstructionSize;
  if (crc32(V.SourceBytes, SectionBytes) != V.SrcCrc)
    return fail(CertCheckStatus::BindMismatch,
                "embedded source CRC mismatch");
  if (Bind && Bind->BodyBytes) {
    // Raw at-rest encodings: decode validated them and the encoding is
    // canonical, so their CRC equals encodeAll(Body)'s.
    if (Bind->BodyByteCount != SectionBytes ||
        crc32(Bind->BodyBytes, Bind->BodyByteCount) != V.BodyCrc)
      return fail(CertCheckStatus::BindMismatch,
                  "body CRC mismatch (stale or foreign certificate)");
  } else {
    const std::vector<uint8_t> BodyBytes = isa::encodeAll(Body);
    if (crc32(BodyBytes.data(), BodyBytes.size()) != V.BodyCrc)
      return fail(CertCheckStatus::BindMismatch,
                  "body CRC mismatch (stale or foreign certificate)");
  }

  // 2. The source execution's instructions. With raw source bytes
  // bound, a memcmp against the embedded section both verifies the
  // guest-memory binding and licenses executing the caller's already
  // decoded ExpectedSource; otherwise decode the embedded section.
  const std::vector<Instruction> *Src = nullptr;
  std::vector<Instruction> DecodedSrc;
  if (ExpectedSource && Bind && Bind->SourceBytes) {
    if (Bind->SourceByteCount != SectionBytes ||
        std::memcmp(Bind->SourceBytes, V.SourceBytes, SectionBytes) != 0)
      return fail(CertCheckStatus::BindMismatch,
                  "embedded source differs from guest memory");
    Src = ExpectedSource;
  } else {
    auto Decoded = isa::decodeAll(V.SourceBytes, V.InstCount);
    if (!Decoded)
      return fail(CertCheckStatus::Malformed,
                  "certificate: embedded source does not decode");
    DecodedSrc = Decoded.take();
    if (ExpectedSource && *ExpectedSource != DecodedSrc)
      return fail(CertCheckStatus::BindMismatch,
                  "embedded source differs from guest memory");
    Src = &DecodedSrc;
  }

  // 3. Replay both symbolic executions through the recorded step
  // stream: source first, then the body, exactly as the prover ran
  // them. A verified stream reconstructs the prover's node ids.
  ReplayPool Pool(V.StepBitmap, V.StepRefs, V.StepRefsEnd, V.StepCount);
  SymTrace S = symExecute(Pool, GuestStart, *Src);
  SymTrace T = symExecute(Pool, GuestStart, Body);
  if (Pool.failed())
    return fail(CertCheckStatus::StepMismatch,
                "step stream diverges from re-evaluated executions");
  if (!Pool.exhausted())
    return fail(CertCheckStatus::StepMismatch,
                "step stream longer than the executions consume");

  // 4. Load lineup with recorded witnesses: a source load may be
  // absent from the body only when its recorded witness is an earlier
  // source load with the identical value expression (same address,
  // same observed-store version).
  std::vector<uint32_t> MatchedPrefix(S.Loads.size() + 1, 0);
  {
    size_t J = 0, W = 0;
    for (size_t I = 0; I != S.Loads.size(); ++I) {
      if (J < T.Loads.size() && S.Loads[I] == T.Loads[J]) {
        ++J;
      } else {
        if (W == V.WitnessCount)
          return fail(CertCheckStatus::ObligationMismatch,
                      formatString("load %zu elided without a witness",
                                   I));
        const uint32_t K = getU32(V.WitnessWords + 4 * W++);
        if (K >= I || !(S.Loads[K].Val == S.Loads[I].Val))
          return fail(CertCheckStatus::ObligationMismatch,
                      formatString("witness for elided load %zu does "
                                   "not prove redundancy",
                                   I));
      }
      MatchedPrefix[I + 1] = static_cast<uint32_t>(J);
    }
    if (J != T.Loads.size())
      return fail(CertCheckStatus::ObligationMismatch,
                  "body performs memory reads the source does not");
    if (W != V.WitnessCount)
      return fail(CertCheckStatus::ObligationMismatch,
                  "unconsumed witnesses in certificate");
  }

  // 5. The prover's own exit/store comparison, re-evaluated.
  if (S.Exits.size() != T.Exits.size())
    return fail(CertCheckStatus::ObligationMismatch,
                "exit count differs");
  for (uint32_t E = 0; E != S.Exits.size(); ++E) {
    const SymExit &A = S.Exits[E];
    const SymExit &B = T.Exits[E];
    if (A.InstIndex != B.InstIndex || A.K != B.K || A.Cond != B.Cond ||
        A.Target != B.Target || A.SysNumber != B.SysNumber ||
        A.NumStores != B.NumStores ||
        MatchedPrefix[A.NumLoads] != B.NumLoads)
      return fail(CertCheckStatus::ObligationMismatch,
                  formatString("exit %u summary differs", E));
    for (unsigned R = 0; R != isa::NumRegisters; ++R)
      if (A.Regs[R] != B.Regs[R])
        return fail(CertCheckStatus::ObligationMismatch,
                    formatString("exit %u register r%u differs", E, R));
  }
  if (S.Stores.size() != T.Stores.size())
    return fail(CertCheckStatus::ObligationMismatch,
                "memory-write count differs");
  for (uint32_t I = 0; I != S.Stores.size(); ++I)
    if (S.Stores[I] != T.Stores[I])
      return fail(CertCheckStatus::ObligationMismatch,
                  formatString("store %u differs", I));

  // 6. Recorded effect digests must match the re-evaluated state —
  // the per-exit symbolic summaries the proof claims to have checked.
  if (V.ExitCount != S.Exits.size())
    return fail(CertCheckStatus::DigestMismatch,
                "exit digest count differs");
  for (uint32_t E = 0; E != S.Exits.size(); ++E)
    if (exitDigest(S.Exits[E], MatchedPrefix[S.Exits[E].NumLoads]) !=
        getU32(V.ExitDigestWords + 4 * static_cast<size_t>(E)))
      return fail(CertCheckStatus::DigestMismatch,
                  formatString("exit %u digest differs", E));
  if (storesDigest(S) != V.StoresDigest)
    return fail(CertCheckStatus::DigestMismatch, "stores digest differs");
  if (loadsDigest(S) != V.LoadsDigest)
    return fail(CertCheckStatus::DigestMismatch, "loads digest differs");

  return CertCheckResult{};
}
