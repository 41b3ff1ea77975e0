//===- tests/cert_test.cpp - proof-carrying certificate adversarial suite -===//
//
// The certificate layer under attack: a genuine certificate must check
// (self-contained and against the real source), while every tampered,
// stale, rebound or fabricated certificate must be REJECTED — never
// falsely accepted — with the full symbolic prover as the fallback.
// Covers the trusted checker directly (bit flips over the whole blob,
// body/source rebinding, seeded miscompiles across 20 seeds with the
// adversary allowed to fix up the binding CRCs), the persisted cert
// section (flag-gated byte identity for uncertified files, corrupt
// section degrade), the prime-time policy (checker-served warm runs,
// prover fallback and quarantine-free recovery from tampering), the
// offline passes (pcc-dbcheck plain reject / repair strip / deep
// regenerate), the tiered store's fill-time self-check, and the fleet
// simulation's proof-work ledger on both the honest and tampered legs.
//
// Built as its own CTest executable (cert_test) so the --certs soak leg
// of scripts/check.sh can run exactly this binary under ASan and TSan.
//
//===----------------------------------------------------------------------===//

#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Validator.h"
#include "dbi/Compiler.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/DbCheck.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "workloads/Fleet.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;
using isa::Opcode;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

// A straight-line trace body touching every effect class.
std::vector<Instruction> effectBody() {
  return {
      isa::makeLdi(1, 0x40),
      isa::makeLoad(2, 1, 0),
      isa::makeAlu(Opcode::Add, 3, 2, 2),
      isa::makeStore(1, 4, 3),
      isa::makeBranch(Opcode::Beq, 3, 0, 0x2000),
      isa::makeAluImm(Opcode::Addi, 4, 3, 1),
      isa::makeSys(7),
  };
}

// Deterministic pseudo-random straight-line body for \p Seed: a mix of
// constants, loads, stores, ALU ops and a conditional branch, ending in
// a syscall terminator. Every seed yields a different proof shape.
std::vector<Instruction> seededBody(uint64_t Seed) {
  Rng R(Seed * 2654435761u + 17);
  std::vector<Instruction> Body;
  Body.push_back(isa::makeLdi(1, 0x100 + (Seed % 64) * 8));
  uint32_t Len = 5 + static_cast<uint32_t>(R.nextBelow(8));
  for (uint32_t I = 0; I != Len; ++I) {
    uint32_t A = 1 + static_cast<uint32_t>(R.nextBelow(6));
    uint32_t B = 1 + static_cast<uint32_t>(R.nextBelow(6));
    uint32_t D = 1 + static_cast<uint32_t>(R.nextBelow(6));
    switch (R.nextBelow(6)) {
    case 0:
      Body.push_back(isa::makeLdi(D, static_cast<uint32_t>(R.next())));
      break;
    case 1:
      Body.push_back(
          isa::makeLoad(D, 1, static_cast<uint32_t>(R.nextBelow(8)) * 4));
      break;
    case 2:
      Body.push_back(
          isa::makeStore(1, static_cast<uint32_t>(R.nextBelow(8)) * 4, A));
      break;
    case 3:
      Body.push_back(isa::makeAlu(
          R.nextBelow(2) ? Opcode::Add : Opcode::Sub, D, A, B));
      break;
    case 4:
      Body.push_back(isa::makeAluImm(
          Opcode::Addi, D, A, static_cast<uint32_t>(R.nextBelow(64))));
      break;
    default:
      Body.push_back(isa::makeBranch(
          Opcode::Beq, A, 0,
          0x4000 + static_cast<uint32_t>(R.nextBelow(16)) * 8));
      break;
    }
  }
  Body.push_back(isa::makeSys(3 + static_cast<uint32_t>(Seed % 5)));
  return Body;
}

// A single-instruction mutation guaranteed to change guest-visible
// effects.
Instruction semanticMutation(const Instruction &Inst, uint32_t InstPc) {
  if (Inst.Op == Opcode::Halt)
    return isa::makeJmp(InstPc + isa::InstructionSize);
  return isa::makeHalt();
}

// Emits a certificate for the identity translation of \p Body.
std::vector<uint8_t> certify(uint32_t Start,
                             const std::vector<Instruction> &Body) {
  Certificate Cert;
  ValidationResult R = validateTranslation(Start, Body, Body, &Cert);
  EXPECT_TRUE(R.Equivalent) << R.message();
  Cert.OptGen = 1;
  return Cert.serialize();
}

/// Path of the single .pcc file in \p Dir.
std::string soleCachePath(const std::string &Dir) {
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.ok());
  std::string Found;
  if (Names)
    for (const std::string &Name : *Names)
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc")
        Found = Dir + "/" + Name;
  EXPECT_FALSE(Found.empty());
  return Found;
}

/// One persistent run of \p W.
ErrorOr<persist::PersistentRunResult>
run(const TinyWorkload &W, const std::vector<uint8_t> &Input,
    const persist::CacheDatabase &Db,
    const persist::PersistOptions &Opts = persist::PersistOptions()) {
  return workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
}

/// Runs \p W cold+warm with the optimization tier until the sole cache
/// file carries promoted, certificate-bearing traces. Returns the file
/// path.
std::string growCertifiedCache(const TinyWorkload &W,
                               const persist::CacheDatabase &Db,
                               const std::string &Dir,
                               const std::vector<uint8_t> &Input) {
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Cold = run(W, Input, Db, Opt);
  EXPECT_TRUE(Cold.ok()) << Cold.status().toString();
  std::string Path = soleCachePath(Dir);
  auto File = Db.loadPath(Path);
  EXPECT_TRUE(File.ok());
  unsigned Certified = 0;
  for (const persist::TraceRecord &Rec : File->Traces)
    Certified += Rec.OptGen > 0 && !Rec.Cert.empty();
  EXPECT_GT(Certified, 0u) << "no promoted+certified traces to attack";
  return Path;
}

/// Flips one bit in every persisted certificate of the cache at
/// \p Path; returns how many were tampered.
unsigned tamperCerts(const persist::CacheDatabase &Db,
                     const std::string &Path) {
  auto File = Db.loadPath(Path);
  EXPECT_TRUE(File.ok());
  unsigned Tampered = 0;
  for (persist::TraceRecord &Rec : File->Traces) {
    if (Rec.Cert.empty())
      continue;
    Rec.Cert[Rec.Cert.size() / 2] ^= 0x10;
    ++Tampered;
  }
  EXPECT_GT(Tampered, 0u);
  EXPECT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
  return Tampered;
}

} // namespace

//===----------------------------------------------------------------------===//
// Trusted checker: genuine certificates check, everything else rejects.
//===----------------------------------------------------------------------===//

TEST(CertProof, RoundTripAndSelfContainedCheck) {
  const uint32_t Start = 0x1000;
  std::vector<std::vector<Instruction>> Bodies{
      effectBody(),
      {isa::makeLdi(5, 0x3000), isa::makeCallr(5)},
      {isa::makeRet()},
      seededBody(7),
  };
  for (const auto &Body : Bodies) {
    std::vector<uint8_t> Blob = certify(Start, Body);
    // Self-contained: no expected source supplied (the L2-fill and
    // module-less dbcheck situation).
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Blob.size(), Start, Body);
    EXPECT_TRUE(R.ok()) << R.Detail;
    // Bound to the real guest bytes (the prime-time situation).
    R = checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                             &Body);
    EXPECT_TRUE(R.ok()) << R.Detail;
  }

  // Sound elision: dead pure defs may be nopped out; the certificate
  // still proves the elided body against the original source.
  std::vector<Instruction> Source{
      isa::makeLdi(3, 5),
      isa::makeLdi(4, 7),
      isa::makeAlu(Opcode::Add, 3, 4, 4),
      isa::makeJmp(0x2000),
  };
  std::vector<Instruction> Elided = Source;
  Elided[0] = isa::makeNop();
  Certificate Cert;
  ValidationResult V = validateTranslation(Start, Source, Elided, &Cert);
  ASSERT_TRUE(V.Equivalent) << V.message();
  std::vector<uint8_t> Blob = Cert.serialize();
  CertCheckResult R =
      checkCertificateBlob(Blob.data(), Blob.size(), Start, Elided,
                           &Source);
  EXPECT_TRUE(R.ok()) << R.Detail;
}

TEST(CertProof, RejectsStaleAndReboundBodies) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = effectBody();
  std::vector<uint8_t> Blob = certify(Start, Body);

  // Stale generation: the body was re-promoted (here: one instruction
  // legally replaced) after the certificate was cut. BodyCrc binding
  // must reject — the proof covers bytes that no longer exist.
  std::vector<Instruction> NewerGen = Body;
  NewerGen[5] = isa::makeAluImm(Opcode::Addi, 4, 3, 2);
  CertCheckResult R =
      checkCertificateBlob(Blob.data(), Blob.size(), Start, NewerGen);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;

  // Wrong address: a certificate for another trace's start.
  R = checkCertificateBlob(Blob.data(), Blob.size(), Start + 8, Body);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;

  // Source rebinding: the module's bytes at Start changed since the
  // proof (the embedded source no longer matches reality).
  std::vector<Instruction> OtherSource = Body;
  OtherSource[0] = isa::makeLdi(1, 0x44);
  R = checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                           &OtherSource);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
}

TEST(CertProof, EveryByteFlipRejectedNeverAccepted) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = effectBody();
  const std::vector<uint8_t> Blob = certify(Start, Body);

  // Flip every byte of the blob (header, embedded source, steps,
  // witnesses, digests, trailing CRC): the check may fail at any stage
  // but must NEVER pass. Zero false accepts.
  unsigned Rejected = 0;
  for (size_t I = 0; I != Blob.size(); ++I) {
    std::vector<uint8_t> Bad = Blob;
    Bad[I] ^= 0xff;
    CertCheckResult R =
        checkCertificateBlob(Bad.data(), Bad.size(), Start, Body);
    Rejected += !R.ok();
    EXPECT_FALSE(R.ok()) << "byte " << I << " flip accepted";
  }
  EXPECT_EQ(Rejected, Blob.size());

  // Single-bit flips across the fixed header (the adversary's cheapest
  // edit: version, counts, binding CRCs).
  for (size_t I = 0; I != std::min<size_t>(48, Blob.size()); ++I)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::vector<uint8_t> Bad = Blob;
      Bad[I] ^= static_cast<uint8_t>(1u << Bit);
      CertCheckResult R =
          checkCertificateBlob(Bad.data(), Bad.size(), Start, Body);
      EXPECT_FALSE(R.ok())
          << "header bit " << I << ":" << Bit << " flip accepted";
    }

  // Truncation at every length short of the full blob.
  for (size_t Len = 0; Len != Blob.size(); ++Len) {
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Len, Start, Body);
    EXPECT_FALSE(R.ok()) << "truncation to " << Len << " accepted";
  }
}

TEST(CertProof, SeededMiscompileNeverCertifiedNorAccepted) {
  // Over 20 seeds: (a) the prover must refuse to emit a certificate for
  // a miscompiled body, and (b) a genuine certificate re-bound by the
  // adversary to the miscompiled body — with the binding CRC fixed up
  // so BindMismatch alone cannot save us — must still be rejected by
  // the replayed obligations. 100% rejection, zero false accepts.
  const uint32_t Start = 0x1000;
  unsigned Seeded = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    const std::vector<Instruction> Source = seededBody(Seed);
    Certificate Genuine;
    ValidationResult V =
        validateTranslation(Start, Source, Source, &Genuine);
    ASSERT_TRUE(V.Equivalent) << V.message();

    size_t Idx = Seed % Source.size();
    std::vector<Instruction> Bad = Source;
    Bad[Idx] = semanticMutation(
        Bad[Idx],
        Start + static_cast<uint32_t>(Idx) * isa::InstructionSize);
    if (Bad[Idx] == Source[Idx])
      continue;
    ++Seeded;

    // (a) The prover refuses: no certificate for a miscompile.
    Certificate None;
    V = validateTranslation(Start, Source, Bad, &None);
    ASSERT_FALSE(V.Equivalent);
    EXPECT_TRUE(None.Steps.empty() && None.Source.empty())
        << "prover emitted a certificate for a miscompile";

    // (b) The adversary re-binds the genuine proof to the bad body,
    // fixing up BodyCrc so the cheap binding check passes.
    Certificate Forged = Genuine;
    const std::vector<uint8_t> BadBytes = isa::encodeAll(Bad);
    Forged.BodyCrc = crc32(BadBytes.data(), BadBytes.size());
    std::vector<uint8_t> Blob = Forged.serialize();
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Blob.size(), Start, Bad);
    Rejected += !R.ok();
    EXPECT_FALSE(R.ok()) << "forged certificate accepted";
  }
  EXPECT_GT(Seeded, 0u);
  EXPECT_EQ(Rejected, Seeded) << "a seeded miscompile was accepted";
}

//===----------------------------------------------------------------------===//
// Persisted certificate section.
//===----------------------------------------------------------------------===//

TEST(CertSection, UncertifiedFilesStayByteIdentical) {
  TinyWorkload W = makeTinyWorkload(3, 2, 777);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);

  auto Certified = readFile(Path);
  ASSERT_TRUE(Certified.ok());
  auto View = persist::CacheFileView::open(*Certified);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  EXPECT_TRUE(View->certsFlagged());
  EXPECT_TRUE(View->certsPresent());

  // Clearing every certificate and re-serializing must drop the whole
  // trailing section AND the header flag — everything between the
  // header and the payload end is byte-identical, so a consumer that
  // never sees certificates reads exactly the bytes it always did.
  auto File = persist::CacheFile::deserialize(*Certified);
  ASSERT_TRUE(File.ok());
  for (persist::TraceRecord &Rec : File->Traces)
    Rec.Cert.clear();
  std::vector<uint8_t> Plain = File->serialize();
  ASSERT_LT(Plain.size(), Certified->size());
  auto PlainView = persist::CacheFileView::open(Plain);
  ASSERT_TRUE(PlainView.ok());
  EXPECT_FALSE(PlainView->certsFlagged());
  const size_t HeaderBytes = 76;
  ASSERT_GT(Plain.size(), HeaderBytes);
  EXPECT_TRUE(std::equal(Plain.begin() + HeaderBytes, Plain.end(),
                         Certified->begin() + HeaderBytes))
      << "cert section not purely trailing";

  // A run that never emits certificates produces an unflagged file.
  TempDir Dir2;
  persist::CacheDatabase Db2(Dir2.path());
  persist::PersistOptions NoEmit;
  NoEmit.OptTier = true;
  NoEmit.EmitCertificates = false;
  ASSERT_TRUE(run(W, Input, Db2, NoEmit).ok());
  auto File2 = Db2.loadPath(soleCachePath(Dir2.path()));
  ASSERT_TRUE(File2.ok());
  unsigned Promoted = 0;
  for (const persist::TraceRecord &Rec : File2->Traces) {
    Promoted += Rec.OptGen > 0;
    EXPECT_TRUE(Rec.Cert.empty());
  }
  EXPECT_GT(Promoted, 0u);
  auto Bytes2 = readFile(soleCachePath(Dir2.path()));
  ASSERT_TRUE(Bytes2.ok());
  auto View2 = persist::CacheFileView::open(*Bytes2);
  ASSERT_TRUE(View2.ok());
  EXPECT_FALSE(View2->certsFlagged());
}

TEST(CertSection, CorruptSectionDegradesFileStaysUsable) {
  TinyWorkload W = makeTinyWorkload(3, 2, 778);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);

  // Smash the section magic ("PCRT", scanned from the file tail): the
  // header still flags certificates but the section no longer parses.
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  const uint8_t Magic[4] = {'P', 'C', 'R', 'T'};
  size_t MagicAt = Bytes->size();
  for (size_t I = Bytes->size(); I-- >= 4;)
    if (std::equal(Magic, Magic + 4, Bytes->begin() + (I - 4))) {
      MagicAt = I - 4;
      break;
    }
  ASSERT_LT(MagicAt, Bytes->size()) << "cert section magic not found";
  (*Bytes)[MagicAt] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto View = persist::CacheFileView::openFile(Path);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  EXPECT_TRUE(View->certsFlagged());
  EXPECT_TRUE(View->certSectionCorrupt());
  EXPECT_FALSE(View->certsPresent());

  // The warm run still primes and executes correctly — it simply has
  // no certificates to check (and no verification demanded, none run).
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Stats.CertsChecked, 0u);
}

//===----------------------------------------------------------------------===//
// Prime-time policy: checker serves, prover backstops, results intact.
//===----------------------------------------------------------------------===//

TEST(CertPrime, WarmRunsServedByTrustedChecker) {
  TinyWorkload W = makeTinyWorkload(3, 2, 779);
  TempDir Dir, RefDir;
  persist::CacheDatabase Db(Dir.path()), Ref(RefDir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  growCertifiedCache(W, Db, Dir.path(), Input);

  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  auto Baseline = run(W, Input, Ref);
  ASSERT_TRUE(Baseline.ok());
  EXPECT_TRUE(Warm->Run.observablyEquals(Baseline->Run));
  // Every promoted install was served by the checker; the prover never
  // ran and nothing failed.
  EXPECT_GT(Warm->Stats.CertsChecked, 0u);
  EXPECT_EQ(Warm->Stats.CertChecksFailed, 0u);
  EXPECT_EQ(Warm->Stats.ProofsReplayed, 0u);
  EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
}

TEST(CertPrime, TamperedCertsFallBackToProverWithoutQuarantine) {
  TinyWorkload W = makeTinyWorkload(3, 2, 780);
  TempDir Dir, RefDir;
  persist::CacheDatabase Db(Dir.path()), Ref(RefDir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);
  unsigned Tampered = tamperCerts(Db, Path);

  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  auto Baseline = run(W, Input, Ref);
  ASSERT_TRUE(Baseline.ok());
  EXPECT_TRUE(Warm->Run.observablyEquals(Baseline->Run));

  // 100% rejection: every tampered certificate that was checked failed,
  // and the prover re-vouched for each rejected body (they are genuine
  // translations, only the proof blob lied) — so nothing quarantined.
  EXPECT_GT(Warm->Stats.CertsChecked, 0u);
  EXPECT_EQ(Warm->Stats.CertChecksFailed, Warm->Stats.CertsChecked);
  EXPECT_GE(Warm->Stats.CertChecksFailed, 1u);
  EXPECT_LE(Warm->Stats.CertChecksFailed, Tampered);
  EXPECT_GE(Warm->Stats.ProofsReplayed, Warm->Stats.CertChecksFailed);
  EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
  auto Q = Db.quarantined();
  ASSERT_TRUE(Q.ok());
  EXPECT_TRUE(Q->empty());
}

//===----------------------------------------------------------------------===//
// Offline passes: pcc-dbcheck plain / repair / deep.
//===----------------------------------------------------------------------===//

TEST(CertDbCheck, PlainPassRejectsTamperRepairStrips) {
  TinyWorkload W = makeTinyWorkload(3, 2, 781);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  std::string Path =
      growCertifiedCache(W, Db, Dir.path(), W.allSlotsInput(4));

  // Clean database: certificates checked, none rejected.
  auto Before = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Before.ok());
  EXPECT_GT(Before->CertsChecked, 0u);
  EXPECT_EQ(Before->CertsRejected, 0u);
  EXPECT_TRUE(Before->clean());

  unsigned Tampered = tamperCerts(Db, Path);

  // Plain pass: every tampered certificate rejected, database NOT
  // clean even though every payload CRC passes.
  auto Report = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report->CertsRejected, Tampered);
  EXPECT_FALSE(Report->clean());

  // Repair strips the lying blobs; the database is clean again (the
  // traces themselves were never bad) and nothing is left to check.
  persist::DbCheckOptions Fix;
  Fix.Repair = true;
  auto Repaired = persist::checkDatabase(Dir.path(), Fix);
  ASSERT_TRUE(Repaired.ok());
  EXPECT_EQ(Repaired->CertsRejected, Tampered);
  EXPECT_GT(Repaired->FilesRepaired, 0u);
  auto After = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After->CertsChecked, 0u);
  EXPECT_TRUE(After->clean());
}

TEST(CertDbCheck, DeepRepairRegeneratesCertificates) {
  TinyWorkload W = makeTinyWorkload(3, 2, 782);
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  std::string Path =
      growCertifiedCache(W, Db, Dir.path(), W.allSlotsInput(4));
  unsigned Tampered = tamperCerts(Db, Path);

  persist::DbCheckOptions Deep;
  Deep.Deep = true;
  Deep.Repair = true;
  std::string AppPath = ModDir.path() + "/app.mod";
  ASSERT_TRUE(writeFileAtomic(AppPath, W.App->serialize()).ok());
  Deep.ModulePaths.push_back(AppPath);
  auto Lib = W.Registry.find("libtest.so");
  ASSERT_TRUE(Lib != nullptr);
  std::string LibPath = ModDir.path() + "/lib.mod";
  ASSERT_TRUE(writeFileAtomic(LibPath, Lib->serialize()).ok());
  Deep.ModulePaths.push_back(LibPath);

  // Deep repair: rejected certificates are replayed by the full prover
  // (which vouches for the bodies) and regenerated in place.
  auto Report = persist::checkDatabase(Dir.path(), Deep);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report->CertsRejected, Tampered);
  EXPECT_GE(Report->CertsReplayedByProver, Tampered);
  EXPECT_EQ(Report->TracesMismatched, 0u);

  // The regenerated certificates check clean on a plain pass.
  auto After = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_GE(After->CertsChecked, Tampered);
  EXPECT_EQ(After->CertsRejected, 0u);
  EXPECT_TRUE(After->clean());
}

//===----------------------------------------------------------------------===//
// Tiered store: fill-time self-check flags tampered blobs early.
//===----------------------------------------------------------------------===//

TEST(CertTiered, FillSelfCheckFlagsTamperedBlobs) {
  TinyWorkload W = makeTinyWorkload(3, 2, 783);
  auto L2 = std::make_shared<persist::MemoryStore>("<remote>");
  const std::vector<uint8_t> Input = W.allSlotsInput(4);

  // Machine A publishes a certified cache through its tier.
  {
    auto Tier = std::make_shared<persist::TieredStore>(
        std::make_shared<persist::MemoryStore>("<l1-a>"), L2);
    persist::CacheDatabase Db(Tier);
    persist::PersistOptions Opt;
    Opt.OptTier = true;
    ASSERT_TRUE(run(W, Input, Db, Opt).ok());
    ASSERT_TRUE(run(W, Input, Db, Opt).ok()); // publish promoted gen
  }

  // The adversary flips one bit in every L2 certificate.
  auto Refs = L2->listRefs();
  ASSERT_TRUE(Refs.ok());
  unsigned Tampered = 0;
  for (const std::string &Ref : *Refs) {
    auto File = L2->loadRef(Ref);
    ASSERT_TRUE(File.ok());
    for (persist::TraceRecord &Rec : File->Traces) {
      if (Rec.Cert.empty())
        continue;
      Rec.Cert[Rec.Cert.size() / 2] ^= 0x10;
      ++Tampered;
    }
    ASSERT_TRUE(L2->putRef(Ref, *File).ok());
  }
  ASSERT_GT(Tampered, 0u);

  // Machine B fills from L2: the module-less self-check counts every
  // tampered blob, the blob passes through, and prime's checker +
  // prover recover the run bit-exactly.
  auto Tier = std::make_shared<persist::TieredStore>(
      std::make_shared<persist::MemoryStore>("<l1-b>"), L2);
  persist::CacheDatabase Db(Tier);
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  persist::TieredStats S = Tier->tieredStats();
  EXPECT_GT(S.CertFillChecks, 0u);
  EXPECT_GT(S.CertFillRejects, 0u);
  EXPECT_EQ(S.CertFillRejects, S.CertFillChecks)
      << "an untampered blob was flagged, or a tampered one passed";
  EXPECT_GT(Warm->Stats.CertChecksFailed, 0u);
  EXPECT_GE(Warm->Stats.ProofsReplayed, Warm->Stats.CertChecksFailed);
}

//===----------------------------------------------------------------------===//
// Fleet: the proof-work ledger on the honest and the tampered legs.
//===----------------------------------------------------------------------===//

TEST(CertFleet, LedgerCertServedAndTamperSoundness) {
  workloads::FleetOptions Opts;
  Opts.Machines = 6;
  Opts.Rounds = 3;
  Opts.Apps = 3;
  Opts.AppVersions = 2;
  Opts.Libraries = 3;
  Opts.RegionsPerLibrary = 4;
  Opts.Seed = 11;
  Opts.OptTier = true;

  // Honest leg: the checker carries >= 90% of the verification load
  // and never rejects a genuine certificate.
  auto Honest = workloads::runFleet(Opts);
  ASSERT_TRUE(Honest.ok()) << Honest.status().toString();
  EXPECT_GT(Honest->CertsChecked, 0u);
  EXPECT_EQ(Honest->CertChecksFailed, 0u);
  EXPECT_GE(Honest->certServedRatio(), 0.90);
  EXPECT_EQ(Honest->CertFillRejects, 0u);

  // Tampered leg: every certificate in L2 is bit-flipped between
  // rounds; the checker rejects (soundness: a tampered cert can only
  // be rejected), the prover re-vouches for every affected body, and
  // every run still completes.
  Opts.TamperCerts = true;
  auto Tampered = workloads::runFleet(Opts);
  ASSERT_TRUE(Tampered.ok()) << Tampered.status().toString();
  EXPECT_GT(Tampered->CertsTampered, 0u);
  EXPECT_GT(Tampered->CertChecksFailed, 0u);
  EXPECT_GE(Tampered->ProofsReplayed, Tampered->CertChecksFailed);
  EXPECT_GT(Tampered->CertFillRejects, 0u);
  EXPECT_EQ(Tampered->TotalRuns,
            uint64_t(Opts.Machines) * Opts.Rounds);
}

//===----------------------------------------------------------------------===//
// One adversary, every consumer: forged certificates and miscompiled
// bodies, each written with every CRC in the file valid, fed to the
// warm prime, finalize under ValidateSemantic, pcc-dbcheck plain and
// --deep, and a tiered-store L2 fill.
//===----------------------------------------------------------------------===//

namespace {

/// What every consumer counted for one variant of a cache file.
struct ConsumerCounts {
  // Warm prime: a run that executes the attacked trace.
  persist::PersistentRunResult Prime;
  bool PrimeQuarantined = false;
  // Finalize under ValidateSemantic: a run that admits the attacked
  // trace but never executes it, and what it wrote at its start.
  uint64_t FinalizeVerifyFailures = 0;
  std::optional<persist::TraceRecord> Written;
  // pcc-dbcheck plain and --deep.
  persist::DbCheckReport Plain, Deep;
  // Tiered store: the L2 fill's self-check and the prime it serves.
  persist::TieredStats Fill;
  persist::PersistentRunResult TieredPrime;
};

std::optional<persist::TraceRecord>
findRecord(const persist::CacheFile &File, uint32_t Start) {
  for (const persist::TraceRecord &Rec : File.Traces)
    if (Rec.GuestStart == Start)
      return Rec;
  return std::nullopt;
}

persist::TraceRecord &recordAt(persist::CacheFile &File, uint32_t Start) {
  for (persist::TraceRecord &Rec : File.Traces)
    if (Rec.GuestStart == Start)
      return Rec;
  ADD_FAILURE() << "no record at " << Start;
  return File.Traces.front();
}

/// Feeds \p File, stored under \p Name, to all five consumers.
ConsumerCounts consumeEverywhere(const TinyWorkload &W,
                                 const std::string &Name,
                                 const persist::CacheFile &File,
                                 uint32_t Start,
                                 const std::vector<std::string> &Modules) {
  ConsumerCounts C;
  const std::vector<uint8_t> Bytes = File.serialize();
  {
    TempDir Dir;
    EXPECT_TRUE(writeFileAtomic(Dir.path() + "/" + Name, Bytes).ok());
    persist::CacheDatabase Db(Dir.path());
    auto Warm = run(W, W.allSlotsInput(4), Db);
    EXPECT_TRUE(Warm.ok()) << Warm.status().toString();
    if (Warm)
      C.Prime = *Warm;
    auto Q = Db.quarantined();
    C.PrimeQuarantined = Q.ok() && !Q->empty();
  }
  {
    TempDir Dir;
    EXPECT_TRUE(writeFileAtomic(Dir.path() + "/" + Name, Bytes).ok());
    persist::CacheDatabase Db(Dir.path());
    persist::PersistOptions Opts;
    Opts.ValidateSemantic = true;
    auto Idle = run(W, W.input({}), Db, Opts);
    EXPECT_TRUE(Idle.ok()) << Idle.status().toString();
    if (Idle)
      C.FinalizeVerifyFailures = Idle->Stats.VerifyFailures;
    auto Out = Db.loadPath(Dir.path() + "/" + Name);
    EXPECT_TRUE(Out.ok());
    if (Out)
      C.Written = findRecord(*Out, Start);
  }
  {
    TempDir Dir;
    EXPECT_TRUE(writeFileAtomic(Dir.path() + "/" + Name, Bytes).ok());
    auto Plain = persist::checkDatabase(Dir.path());
    EXPECT_TRUE(Plain.ok());
    if (Plain)
      C.Plain = *Plain;
    persist::DbCheckOptions DeepOpts;
    DeepOpts.Deep = true;
    DeepOpts.ModulePaths = Modules;
    auto Deep = persist::checkDatabase(Dir.path(), DeepOpts);
    EXPECT_TRUE(Deep.ok());
    if (Deep)
      C.Deep = *Deep;
  }
  {
    auto L2 = std::make_shared<persist::MemoryStore>("<remote>");
    EXPECT_TRUE(L2->putRef(L2->location() + "/" + Name, File).ok());
    auto Tier = std::make_shared<persist::TieredStore>(
        std::make_shared<persist::MemoryStore>("<l1>"), L2);
    persist::CacheDatabase Db(Tier);
    auto Warm = run(W, W.allSlotsInput(4), Db);
    EXPECT_TRUE(Warm.ok()) << Warm.status().toString();
    if (Warm)
      C.TieredPrime = *Warm;
    C.Fill = Tier->tieredStats();
  }
  return C;
}

} // namespace

TEST(CertConsumers, ForgedCertsAndMiscompilesRejectedAlikeEverywhere) {
  TinyWorkload W = makeTinyWorkload(3, 2, 784);
  TempDir Dir, RefDir, ProbeDir, ModDir;
  persist::CacheDatabase Db(Dir.path()), Ref(RefDir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  const std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);
  const std::string Name = Path.substr(Path.rfind('/') + 1);
  auto Original = Db.loadPath(Path);
  ASSERT_TRUE(Original.ok());
  auto Baseline = run(W, Input, Ref);
  ASSERT_TRUE(Baseline.ok());

  std::vector<std::string> Modules = {ModDir.path() + "/app.mod",
                                      ModDir.path() + "/lib.mod"};
  ASSERT_TRUE(writeFileAtomic(Modules[0], W.App->serialize()).ok());
  auto Lib = W.Registry.find("libtest.so");
  ASSERT_TRUE(Lib != nullptr);
  ASSERT_TRUE(writeFileAtomic(Modules[1], Lib->serialize()).ok());

  // The attacked trace: a certified library trace that a warm run over
  // the same input executes (its heat grows) and an idle run, which
  // calls no library code, leaves alone.
  ASSERT_TRUE(
      writeFileAtomic(ProbeDir.path() + "/" + Name, Original->serialize())
          .ok());
  persist::CacheDatabase Probe(ProbeDir.path());
  ASSERT_TRUE(run(W, Input, Probe).ok());
  auto Probed = Probe.loadPath(ProbeDir.path() + "/" + Name);
  ASSERT_TRUE(Probed.ok());
  uint32_t Start = 0;
  for (const persist::TraceRecord &Rec : Original->Traces) {
    auto After = findRecord(*Probed, Rec.GuestStart);
    if (Rec.OptGen > 0 && !Rec.Cert.empty() && Rec.ModuleIndex != 0 &&
        After && After->Heat > Rec.Heat) {
      Start = Rec.GuestStart;
      break;
    }
  }
  ASSERT_NE(Start, 0u) << "no executed, certified library trace";
  const persist::TraceRecord &Victim = recordAt(*Original, Start);
  auto Body = Victim.decodeBody();
  ASSERT_TRUE(Body.ok());
  auto Cert = Certificate::deserialize(Victim.Cert.data(), Victim.Cert.size());
  ASSERT_TRUE(Cert.ok());

  // A miscompile: one changed immediate the prover refuses.
  std::vector<Instruction> Bad;
  for (size_t I = 0; I != Body->size() && Bad.empty(); ++I) {
    if ((*Body)[I].Op == Opcode::Nop || isa::hasCodeTarget((*Body)[I].Op))
      continue;
    std::vector<Instruction> Try = *Body;
    Try[I].Imm += 1;
    if (!validateTranslation(Start, Cert->Source, Try).Equivalent)
      Bad = std::move(Try);
  }
  ASSERT_FALSE(Bad.empty()) << "no immediate whose change is observable";
  const std::vector<uint8_t> BadBytes = isa::encodeAll(Bad);

  struct Variant {
    const char *Name;
    bool Forged;      ///< The certificate does not prove the body.
    bool Miscompiled; ///< The body does not translate the guest code.
    persist::CacheFile File;
  };
  std::vector<Variant> Variants;
  Variants.push_back({"intact", false, false, *Original});
  {
    Certificate Flipped = *Cert;
    Flipped.StoresDigest ^= 0x10; // One byte; serialize() re-CRCs.
    Variant V{"flipped-byte", true, false, *Original};
    recordAt(V.File, Start).Cert = Flipped.serialize();
    Variants.push_back(std::move(V));
  }
  {
    Variant V{"miscompiled-old-cert", true, true, *Original};
    persist::TraceRecord &Rec = recordAt(V.File, Start);
    std::copy(BadBytes.begin(), BadBytes.end(),
              Rec.Code.begin() + dbi::TracePrologueBytes);
    Variants.push_back(std::move(V));
  }
  {
    Certificate Rebound = *Cert;
    Rebound.BodyCrc = crc32(BadBytes.data(), BadBytes.size());
    Variant V{"miscompiled-rebound-cert", true, true, *Original};
    persist::TraceRecord &Rec = recordAt(V.File, Start);
    std::copy(BadBytes.begin(), BadBytes.end(),
              Rec.Code.begin() + dbi::TracePrologueBytes);
    Rec.Cert = Rebound.serialize();
    Variants.push_back(std::move(V));
  }

  const ConsumerCounts K =
      consumeEverywhere(W, Name, Variants[0].File, Start, Modules);
  // The intact file: every consumer checks certificates and none
  // rejects one.
  EXPECT_GT(K.Prime.Stats.CertsChecked, 0u);
  EXPECT_EQ(K.Prime.Stats.CertChecksFailed, 0u);
  EXPECT_EQ(K.Prime.Stats.VerifyFailures, 0u);
  EXPECT_EQ(K.FinalizeVerifyFailures, 0u);
  EXPECT_EQ(K.Plain.CertsRejected, 0u);
  EXPECT_EQ(K.Deep.CertsRejected, 0u);
  EXPECT_EQ(K.Deep.TracesMismatched, 0u);
  EXPECT_GT(K.Fill.CertFillChecks, 0u);
  EXPECT_EQ(K.Fill.CertFillRejects, 0u);
  ASSERT_TRUE(K.Written.has_value());
  EXPECT_EQ(K.Written->Heat, Victim.Heat) << "the idle run executed it";
  EXPECT_EQ(K.Written->Cert, Victim.Cert);

  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    const ConsumerCounts C =
        consumeEverywhere(W, Name, V.File, Start, Modules);
    const uint64_t Rejected = V.Forged ? 1 : 0;
    const uint64_t Refused = V.Miscompiled ? 1 : 0;

    // No consumer accepts a forged certificate or a miscompiled body.
    // Prime: the certificate is rejected, the prover backstops, a
    // miscompile is dropped (and its cache quarantined), and the guest
    // sees the baseline.
    EXPECT_TRUE(C.Prime.Run.observablyEquals(Baseline->Run));
    // (Retranslating a dropped trace can steer the run into promoted
    // traces the intact run never entered, each checked once more.)
    EXPECT_GE(C.Prime.Stats.CertsChecked, K.Prime.Stats.CertsChecked);
    EXPECT_EQ(C.Prime.Stats.CertChecksFailed - K.Prime.Stats.CertChecksFailed,
              Rejected);
    EXPECT_EQ(C.Prime.Stats.VerifyFailures - K.Prime.Stats.VerifyFailures,
              Refused);
    EXPECT_EQ(C.PrimeQuarantined, V.Miscompiled);
    // Finalize: a miscompile is not written back; a forged certificate
    // is stripped from the genuine body it claimed to prove.
    EXPECT_EQ(C.FinalizeVerifyFailures - K.FinalizeVerifyFailures, Refused);
    if (V.Miscompiled) {
      EXPECT_FALSE(C.Written.has_value());
    } else {
      ASSERT_TRUE(C.Written.has_value());
      EXPECT_EQ(C.Written->Code, Victim.Code);
      EXPECT_EQ(C.Written->Cert.empty(), V.Forged);
    }
    // pcc-dbcheck: plain replays every certificate self-contained,
    // --deep binds it to the module text and re-proves a rejection.
    EXPECT_EQ(C.Plain.CertsChecked, K.Plain.CertsChecked);
    EXPECT_EQ(C.Plain.CertsRejected - K.Plain.CertsRejected, Rejected);
    EXPECT_EQ(C.Plain.clean(), !V.Forged);
    EXPECT_EQ(C.Deep.CertsChecked, K.Deep.CertsChecked);
    EXPECT_EQ(C.Deep.CertsRejected - K.Deep.CertsRejected, Rejected);
    EXPECT_EQ(C.Deep.TracesMismatched - K.Deep.TracesMismatched, Refused);
    // Tiered store: the fill flags the blob, and the prime it serves
    // still rejects it.
    EXPECT_EQ(C.Fill.CertFillChecks, K.Fill.CertFillChecks);
    EXPECT_EQ(C.Fill.CertFillRejects - K.Fill.CertFillRejects, Rejected);
    EXPECT_TRUE(C.TieredPrime.Run.observablyEquals(Baseline->Run));

    // The consumers agree: one rejected certificate each, and every
    // prover run at prime is one deep re-proof (vouched or mismatched).
    EXPECT_EQ(C.Prime.Stats.CertChecksFailed - K.Prime.Stats.CertChecksFailed,
              C.Plain.CertsRejected - K.Plain.CertsRejected);
    EXPECT_EQ(C.Prime.Stats.CertChecksFailed - K.Prime.Stats.CertChecksFailed,
              C.Deep.CertsRejected - K.Deep.CertsRejected);
    EXPECT_EQ(C.Prime.Stats.CertChecksFailed - K.Prime.Stats.CertChecksFailed,
              C.Fill.CertFillRejects - K.Fill.CertFillRejects);
    EXPECT_EQ(C.TieredPrime.Stats.CertChecksFailed,
              C.Prime.Stats.CertChecksFailed);
    EXPECT_EQ(C.Prime.Stats.ProofsReplayed - K.Prime.Stats.ProofsReplayed,
              (C.Deep.CertsReplayedByProver - K.Deep.CertsReplayedByProver) +
                  (C.Deep.TracesMismatched - K.Deep.TracesMismatched));
    EXPECT_EQ(C.Prime.Stats.VerifyFailures - K.Prime.Stats.VerifyFailures,
              C.Deep.TracesMismatched - K.Deep.TracesMismatched);
  }
}
