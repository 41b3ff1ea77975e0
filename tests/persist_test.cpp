//===- tests/persist_test.cpp - persistent code caching tests -------------===//
//
// Covers the paper's core mechanisms: keys (Section 3.2.1), cache
// generation (3.2.2), reuse/validation/invalidation (3.2.3), cross-input
// reuse (4.3), accumulation (4.4), inter-application persistence (4.5),
// and the position-independent-translation extension.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/CacheFile.h"
#include "persist/CacheView.h"
#include "persist/DirectoryStore.h"
#include "persist/Key.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"

#include "TestUtils.h"

#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <functional>

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;
using workloads::WorkItem;

namespace {

/// Run (app, input) with persistence against Db; asserts success.
PersistentRunResult mustRunPersistent(
    const TinyWorkload &W, const std::vector<uint8_t> &Input,
    const CacheDatabase &Db,
    const PersistOptions &Opts = PersistOptions(),
    dbi::Tool *Tool = nullptr,
    loader::BasePolicy Policy = loader::BasePolicy::Fixed,
    uint64_t AslrSeed = 0) {
  auto R = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts,
                                    Tool, dbi::EngineOptions(), Policy,
                                    AslrSeed);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.status().toString());
  return R.take();
}

} // namespace

TEST(Key, ComputedFromMapping) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  auto M = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput());
  ASSERT_TRUE(M.ok());
  ModuleKey Key = ModuleKey::compute(M->image().Modules[0]);
  EXPECT_EQ(Key.Path, "/bin/tinyapp");
  EXPECT_EQ(Key.Base, loader::Loader::ExecutableBase);
  EXPECT_NE(Key.FullHash, 0u);
  EXPECT_NE(Key.FullHash, Key.PicHash);
  EXPECT_TRUE(Key.matches(Key));
}

TEST(Key, TimestampChangesKey) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  auto M1 = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput());
  ASSERT_TRUE(M1.ok());
  ModuleKey Before = ModuleKey::compute(M1->image().Modules[0]);

  // Rebuild (touch) the binary, as a static compiler would.
  auto Touched = std::make_shared<binary::Module>(*W.App);
  Touched->touch();
  loader::ModuleRegistry Registry;
  auto M2 = workloads::makeMachine(Registry, Touched, W.allSlotsInput());
  ASSERT_TRUE(M2.ok());
  ModuleKey After = ModuleKey::compute(M2->image().Modules[0]);
  EXPECT_FALSE(Before.matches(After));
  EXPECT_FALSE(Before.matchesIgnoringBase(After));
}

TEST(Key, BaseAddressOnlyAffectsFullHash) {
  TinyWorkload W = makeTinyWorkload(1, 1);
  auto MA = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput(),
                                   loader::BasePolicy::Randomized, 11);
  auto MB = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput(),
                                   loader::BasePolicy::Randomized, 22);
  ASSERT_TRUE(MA.ok() && MB.ok());
  const auto *LibA = MA->image().findByName("libtest.so");
  const auto *LibB = MB->image().findByName("libtest.so");
  ASSERT_TRUE(LibA && LibB);
  ASSERT_NE(LibA->Base, LibB->Base);
  ModuleKey KA = ModuleKey::compute(*LibA);
  ModuleKey KB = ModuleKey::compute(*LibB);
  EXPECT_FALSE(KA.matches(KB));
  EXPECT_TRUE(KA.matchesIgnoringBase(KB));
}

TEST(Key, SerializationRoundTrip) {
  ModuleKey Key;
  Key.Path = "/lib/libx.so";
  Key.Base = 0x10000000;
  Key.Size = 0x4000;
  Key.HeaderHash = 123;
  Key.ModTime = 456;
  Key.FullHash = 789;
  Key.PicHash = 1011;
  ByteWriter Writer;
  Key.serialize(Writer);
  ByteReader Reader(Writer.bytes());
  ModuleKey Back = ModuleKey::deserialize(Reader);
  EXPECT_EQ(Back, Key);
}

TEST(CacheFileFormat, SerializeDeserializeRoundTrip) {
  CacheFile File;
  File.EngineHash = 1;
  File.ToolHash = 2;
  File.SpecBits = 3;
  File.PositionIndependent = true;
  File.Generation = 7;
  ModuleKey Key;
  Key.Path = "/bin/x";
  Key.FullHash = 42;
  File.Modules.push_back(Key);
  TraceRecord Trace;
  Trace.GuestStart = 0x400000;
  Trace.ModuleIndex = 0;
  Trace.GuestInstCount = 2;
  Trace.Code = {1, 2, 3, 4};
  Trace.Exits.push_back(ExitRecord{0, 1, 0x400010, 0x400010});
  Trace.setRelocBit(1);
  File.Traces.push_back(Trace);

  auto Bytes = File.serialize();
  auto Back = CacheFile::deserialize(Bytes);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->EngineHash, 1u);
  EXPECT_EQ(Back->Generation, 7u);
  EXPECT_TRUE(Back->PositionIndependent);
  ASSERT_EQ(Back->Traces.size(), 1u);
  EXPECT_EQ(Back->Traces[0].Code, Trace.Code);
  EXPECT_TRUE(Back->Traces[0].relocBit(1));
  EXPECT_FALSE(Back->Traces[0].relocBit(0));
  ASSERT_EQ(Back->Traces[0].Exits.size(), 1u);
  EXPECT_EQ(Back->Traces[0].Exits[0].LinkedStart, 0x400010u);
}

TEST(CacheFileFormat, CorruptionDetected) {
  CacheFile File;
  File.EngineHash = 5;
  auto Bytes = File.serialize();
  Bytes[Bytes.size() / 2] ^= 1;
  auto Back = CacheFile::deserialize(Bytes);
  ASSERT_FALSE(Back.ok());
  EXPECT_EQ(Back.status().code(), ErrorCode::InvalidFormat);
}

TEST(CacheFileFormat, TruncationDetected) {
  CacheFile File;
  auto Bytes = File.serialize();
  Bytes.resize(Bytes.size() - 5);
  EXPECT_FALSE(CacheFile::deserialize(Bytes).ok());
}

TEST(CacheFileFormat, SizeAccounting) {
  CacheFile File;
  TraceRecord Trace;
  Trace.GuestInstCount = 4;
  Trace.Code.assign(100, 0);
  Trace.Exits.resize(2);
  File.Traces.push_back(Trace);
  EXPECT_EQ(File.codeBytes(), 100u);
  EXPECT_EQ(File.dataBytes(), traceDataBytes(2, 4));
  // Data structures outweigh code for typical short traces (Figure 9).
  EXPECT_GT(File.dataBytes(), File.codeBytes());
}

TEST(Database, StoreLoadRemove) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  CacheFile File;
  File.EngineHash = 99;
  ASSERT_TRUE(Db.store(7, File).ok());
  EXPECT_TRUE(Db.exists(7));
  auto Back = Db.load(7);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->EngineHash, 99u);
  EXPECT_TRUE(Db.remove(7).ok());
  EXPECT_FALSE(Db.exists(7));
  EXPECT_EQ(Db.load(7).status().code(), ErrorCode::NotFound);
}

TEST(Database, FindCompatibleFiltersByEngineAndTool) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  CacheFile A;
  A.EngineHash = 1;
  A.ToolHash = 2;
  CacheFile B;
  B.EngineHash = 1;
  B.ToolHash = 3;
  ASSERT_TRUE(Db.store(100, A).ok());
  ASSERT_TRUE(Db.store(200, B).ok());
  auto Matches = Db.findCompatible(1, 2);
  ASSERT_TRUE(Matches.ok());
  ASSERT_EQ(Matches->size(), 1u);
  EXPECT_EQ((*Matches)[0], Db.pathFor(100));
}

TEST(Database, ClearRemovesEverything) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, CacheFile()).ok());
  ASSERT_TRUE(Db.store(2, CacheFile()).ok());
  ASSERT_TRUE(Db.clear().ok());
  EXPECT_FALSE(Db.exists(1));
  EXPECT_FALSE(Db.exists(2));
}

//===----------------------------------------------------------------------===//
// Format versions: v2 images round-trip; a legacy v1 ("PCC1") file is
// refused like any unsupported version — the run goes cold, nothing is
// quarantined, and the next finalize() overwrites the slot as v2.
//===----------------------------------------------------------------------===//

namespace {

/// A well-formed legacy v1 image: magic, the v1 layout's own version
/// word (2), the identity fields, empty module and trace tables, and a
/// valid trailing whole-file CRC. No library code writes v1 any more.
std::vector<uint8_t> legacyV1Image() {
  ByteWriter Writer;
  Writer.writeU32(LegacyCacheMagic);
  Writer.writeU32(2);
  Writer.writeU64(dbi::engineVersionHash());
  Writer.writeU64(noToolHash());
  Writer.writeU8(0);  // Spec bits.
  Writer.writeU8(0);  // Position independent.
  Writer.writeU32(1); // Generation.
  Writer.writeU32(0); // Module count.
  Writer.writeU32(0); // Trace count.
  Writer.writeU32(crc32(Writer.bytes().data(), Writer.size()));
  return Writer.take();
}

/// Plants a v1 image in the application's own slot of \p Store, then
/// checks the whole rejection contract: a cold prime whose reason
/// names the legacy format, no quarantine, no inter-application
/// candidate, guest output equal to the cold run's, a v2 generation-1
/// rewrite at finalize(), and a warm run after it.
void expectV1RejectedThenRewritten(
    const std::shared_ptr<CacheStore> &Store,
    const std::function<void(const std::string &,
                             const std::vector<uint8_t> &)> &Plant) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(3);
  CacheDatabase Db(Store);
  auto Cold = mustRunPersistent(W, Input, Db);
  ASSERT_FALSE(Cold.Prime.CacheFound);
  auto Refs = Store->listRefs();
  ASSERT_TRUE(Refs.ok());
  ASSERT_EQ(Refs->size(), 1u);
  const std::string Ref = Refs->front();
  Plant(Ref, legacyV1Image());

  auto Open = Store->openRef(Ref, CacheFileView::Depth::Index);
  ASSERT_FALSE(Open.ok());
  EXPECT_EQ(Open.status().code(), ErrorCode::VersionMismatch);
  auto Candidates = Db.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Candidates.ok());
  EXPECT_TRUE(Candidates->empty()) << "a v1 file is no candidate";

  auto Rejected = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Rejected.Prime.CacheFound);
  EXPECT_NE(Rejected.Prime.RejectReason.find("legacy (v1)"),
            std::string::npos)
      << Rejected.Prime.RejectReason;
  EXPECT_EQ(Rejected.Stats.TracesCompiled, Cold.Stats.TracesCompiled);
  EXPECT_TRUE(Cold.Run.observablyEquals(Rejected.Run));
  auto Quarantined = Db.quarantined();
  ASSERT_TRUE(Quarantined.ok());
  EXPECT_TRUE(Quarantined->empty()) << "a version mismatch is not damage";

  auto Rewritten = Store->openRef(Ref, CacheFileView::Depth::Index);
  ASSERT_TRUE(Rewritten.ok()) << Rewritten.status().toString();
  EXPECT_EQ(Rewritten->View->formatVersion(), v2::Version);
  EXPECT_EQ(Rewritten->View->generation(), 1u);

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_TRUE(Warm.Prime.RejectReason.empty());
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
}

} // namespace

TEST(FormatMigration, V2RoundTripKeepsLogicalContent) {
  CacheFile File;
  File.EngineHash = 11;
  File.ToolHash = 22;
  File.SpecBits = 3;
  File.PositionIndependent = true;
  File.Generation = 4;
  ModuleKey Key;
  Key.Path = "/bin/y";
  Key.Base = 0x400000;
  Key.Size = 0x10000;
  File.Modules.push_back(Key);
  TraceRecord Trace;
  Trace.GuestStart = 0x400100;
  Trace.GuestInstCount = 3;
  Trace.Code.assign(dbi::TracePrologueBytes + 3 * isa::InstructionSize,
                    0x5c);
  Trace.Exits.push_back(ExitRecord{1, 2, 0x400200, 0});
  Trace.setRelocBit(0);
  Trace.setRelocBit(2);
  File.Traces.push_back(Trace);

  auto Back = CacheFile::deserialize(File.serialize());
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->SourceFormat, 2u);
  EXPECT_TRUE(Back->validate().ok());
  EXPECT_EQ(Back->EngineHash, 11u);
  EXPECT_EQ(Back->Generation, 4u);
  ASSERT_EQ(Back->Modules.size(), 1u);
  EXPECT_EQ(Back->Modules[0].Path, "/bin/y");
  ASSERT_EQ(Back->Traces.size(), 1u);
  EXPECT_EQ(Back->Traces[0].Code, Trace.Code);
  EXPECT_EQ(Back->Traces[0].Exits.size(), 1u);
  EXPECT_TRUE(Back->Traces[0].relocBit(2));
  EXPECT_FALSE(Back->Traces[0].relocBit(1));

  // The eager reader refuses v1 bytes the same way the view does.
  auto Legacy = CacheFile::deserialize(legacyV1Image());
  ASSERT_FALSE(Legacy.ok());
  EXPECT_EQ(Legacy.status().code(), ErrorCode::VersionMismatch);
}

TEST(FormatMigration, V1RejectedThenRewrittenInDirectoryStore) {
  TempDir Dir;
  expectV1RejectedThenRewritten(
      std::make_shared<DirectoryStore>(Dir.path()),
      [](const std::string &Ref, const std::vector<uint8_t> &Bytes) {
        ASSERT_TRUE(writeFileAtomic(Ref, Bytes).ok());
      });
}

TEST(FormatMigration, V1RejectedThenRewrittenInMemoryStore) {
  auto Store = std::make_shared<MemoryStore>();
  expectV1RejectedThenRewritten(
      Store, [&Store](const std::string &Ref,
                      const std::vector<uint8_t> &Bytes) {
        Store->putImage(Ref, Bytes);
      });
}

TEST(SameInput, FirstRunGeneratesCache) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);
  auto R = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(R.Prime.CacheFound);
  EXPECT_GT(R.Stats.TracesCompiled, 0u);

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  auto View = CacheFileView::openFile(Dir.path() + "/" + Files->front(),
                                      CacheFileView::Depth::Index);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  EXPECT_EQ(View->formatVersion(), v2::Version);
  EXPECT_EQ(View->generation(), 1u);
  EXPECT_EQ(View->numTraces(), R.Stats.TracesCompiled);
}

TEST(SameInput, SecondRunEliminatesTranslation) {
  // Large enough that translation savings dwarf the fixed cache-open
  // cost (tiny programs can break even, as the paper notes persistence
  // "does not degrade performance when it is ineffective").
  TinyWorkload W = makeTinyWorkload(30, 10);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);

  auto Cold = mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);

  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_GT(Warm.Prime.TracesInstalled, 0u);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 0u);
  // All code reused: zero translation work (same-input persistence).
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
  EXPECT_EQ(Warm.Stats.CompileCycles, 0u);
  // And the run is observably identical and faster.
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
  EXPECT_LT(Warm.Run.Cycles, Cold.Run.Cycles);
}

TEST(SameInput, PersistedLinksRestored) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);
  mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_GT(Warm.Prime.LinksRestored, 0u);
  // No dispatcher work for already-linked paths ⇒ fewer new links.
  EXPECT_EQ(Warm.Stats.LinksCreated, 0u);
}

TEST(SameInput, ResultsIdenticalToNative) {
  TinyWorkload W = makeTinyWorkload(5, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);
  auto Native = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Native.ok());
  mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Native->observablyEquals(Warm.Run));
}

TEST(Validation, EngineVersionGuardsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  auto Cold = mustRunPersistent(W, Input, Db);
  (void)Cold;

  // Corrupt the stored engine hash to simulate a version change.
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto File = CacheFile::deserialize(*readFile(Path));
  ASSERT_TRUE(File.ok());
  File->EngineHash ^= 1;
  ASSERT_TRUE(writeFileAtomic(Path, File->serialize()).ok());

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.RejectReason, "engine version mismatch");
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
}

TEST(Validation, ToolMismatchRejectsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  dbi::BasicBlockCounterTool Bb;
  auto R1 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Bb);
  ASSERT_TRUE(R1.ok());

  // Different tool ⇒ different lookup key ⇒ fresh cache, not reuse.
  dbi::MemRefTraceTool Mem;
  auto R2 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Mem);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2->Prime.CacheFound);
  EXPECT_GT(R2->Stats.TracesCompiled, 0u);

  // Same tool again ⇒ reuse.
  dbi::BasicBlockCounterTool Bb2;
  auto R3 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Bb2);
  ASSERT_TRUE(R3.ok());
  EXPECT_TRUE(R3->Prime.CacheFound);
  EXPECT_EQ(R3->Stats.TracesCompiled, 0u);
}

TEST(Validation, ModifiedBinaryInvalidatesItsTraces) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);

  // Rebuild the library: same name/path, newer timestamp.
  auto NewLib = std::make_shared<binary::Module>(
      *W.Registry.find("libtest.so"));
  NewLib->touch();
  W.Registry.add(NewLib);

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 1u);
  // App traces still reused; library traces retranslated.
  EXPECT_GT(Warm.Prime.TracesInstalled, 0u);
  EXPECT_GT(Warm.Prime.TracesSkipped, 0u);
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Warm.Run.ok());
}

TEST(Validation, RelocatedLibraryFallsBackToRetranslation) {
  TinyWorkload W = makeTinyWorkload(2, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  // Create the cache under one randomized layout, reuse under another.
  auto Cold = mustRunPersistent(W, Input, Db, PersistOptions(), nullptr,
                                loader::BasePolicy::Randomized, 1);
  auto Warm = mustRunPersistent(W, Input, Db, PersistOptions(), nullptr,
                                loader::BasePolicy::Randomized, 2);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_GE(Warm.Prime.ModulesInvalidated, 1u);
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
}

TEST(Validation, CorruptCacheFileIgnoredSafely) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  (*Bytes)[Bytes->size() / 3] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_FALSE(Warm.Prime.RejectReason.empty());
  EXPECT_TRUE(Warm.Run.ok());
}

TEST(CrossInput, CommonCodeReused) {
  TinyWorkload W = makeTinyWorkload(6, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  // Input A exercises slots 0..3; input B exercises 2..5.
  auto InputA = W.input({{0, 3}, {1, 3}, {2, 3}, {3, 3}});
  auto InputB = W.input({{2, 3}, {3, 3}, {4, 3}, {5, 3}});

  mustRunPersistent(W, InputA, Db);
  auto B = mustRunPersistent(W, InputB, Db);
  EXPECT_TRUE(B.Prime.CacheFound);
  EXPECT_GT(B.Prime.TracesInstalled, 0u);
  // Slots 4 and 5 are new: some translation remains.
  EXPECT_GT(B.Stats.TracesCompiled, 0u);
  // But common code came from the cache.
  EXPECT_GT(B.Stats.TracesReused, 0u);

  auto BFresh = workloads::runUnderEngine(W.Registry, W.App, InputB);
  ASSERT_TRUE(BFresh.ok());
  EXPECT_LT(B.Stats.TracesCompiled, BFresh->Stats.TracesCompiled);
  EXPECT_TRUE(B.Run.observablyEquals(BFresh->Run));
}

TEST(Accumulation, CacheGrowsAcrossInputs) {
  TinyWorkload W = makeTinyWorkload(6, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto InputA = W.input({{0, 3}, {1, 3}});
  auto InputB = W.input({{2, 3}, {3, 3}});
  auto InputAll =
      W.input({{0, 3}, {1, 3}, {2, 3}, {3, 3}});

  mustRunPersistent(W, InputA, Db);
  auto B = mustRunPersistent(W, InputB, Db);
  EXPECT_GT(B.Stats.TracesCompiled, 0u); // B's code was new.

  // After accumulating both, a run touching all code translates none.
  auto All = mustRunPersistent(W, InputAll, Db);
  EXPECT_TRUE(All.Prime.CacheFound);
  EXPECT_EQ(All.Stats.TracesCompiled, 0u)
      << "accumulated cache must cover A ∪ B";
}

TEST(Accumulation, GenerationCounterAdvances) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);
  mustRunPersistent(W, Input, Db);
  mustRunPersistent(W, Input, Db);
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  auto File = CacheFile::deserialize(
      *readFile(Dir.path() + "/" + (*Files)[0]));
  ASSERT_TRUE(File.ok());
  EXPECT_EQ(File->Generation, 3u);
}

TEST(Accumulation, IdempotentForSameInput) {
  TinyWorkload W = makeTinyWorkload(3, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);
  auto Files = listDirectory(Dir.path());
  auto Before = CacheFile::deserialize(
      *readFile(Dir.path() + "/" + (*Files)[0]));
  ASSERT_TRUE(Before.ok());

  mustRunPersistent(W, Input, Db);
  auto After = CacheFile::deserialize(
      *readFile(Dir.path() + "/" + (*Files)[0]));
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(Before->Traces.size(), After->Traces.size());
  EXPECT_EQ(Before->codeBytes(), After->codeBytes());
}

TEST(Accumulation, WriteBackOffLeavesDatabaseUntouched) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions NoWrite;
  NoWrite.WriteBack = false;
  mustRunPersistent(W, W.allSlotsInput(2), Db, NoWrite);
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  EXPECT_TRUE(Files->empty());
}

TEST(CrossInput, ExplicitDonorCache) {
  TinyWorkload W = makeTinyWorkload(4, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto InputA = W.input({{0, 2}, {1, 2}});

  PersistOptions StoreA;
  StoreA.StoreAsPath = Dir.path() + "/donorA.pcc";
  mustRunPersistent(W, InputA, Db, StoreA);

  PersistOptions UseA;
  UseA.ExplicitCachePath = Dir.path() + "/donorA.pcc";
  UseA.WriteBack = false;
  auto R = mustRunPersistent(W, InputA, Db, UseA);
  EXPECT_TRUE(R.Prime.CacheFound);
  EXPECT_EQ(R.Stats.TracesCompiled, 0u);
}

TEST(InterApp, LibraryTranslationsSharedAcrossPrograms) {
  // Two different apps linking the same library, loaded at the same
  // base (library is the first dependency of both).
  loader::ModuleRegistry Registry;
  workloads::LibraryDef Lib;
  Lib.Name = "libshared.so";
  Lib.Path = "/lib/libshared.so";
  for (uint32_t I = 0; I != 5; ++I) {
    workloads::RegionDef Region;
    Region.Name = "fn" + std::to_string(I);
    Region.Blocks = 4;
    Region.InstsPerBlock = 8;
    Region.Seed = 300 + I;
    Lib.Regions.push_back(std::move(Region));
  }
  Registry.add(workloads::buildLibrary(Lib));

  auto makeApp = [&](const std::string &Name) {
    workloads::AppDef Def;
    Def.Name = Name;
    Def.Path = "/bin/" + Name;
    for (uint32_t I = 0; I != 5; ++I)
      Def.Slots.push_back(workloads::FunctionSlot::import(
          "libshared.so", "fn" + std::to_string(I)));
    workloads::RegionDef Local;
    Local.Name = "app";
    Local.Blocks = 4;
    Local.InstsPerBlock = 8;
    Local.Seed = fnv1a64(Name);
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Local)));
    return workloads::buildExecutable(Def);
  };
  auto AppA = makeApp("alpha");
  auto AppB = makeApp("beta");
  auto Input = workloads::encodeWorkload({{0, 2},
                                          {1, 2},
                                          {2, 2},
                                          {3, 2},
                                          {4, 2},
                                          {5, 2}});

  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto RA = workloads::runPersistent(Registry, AppA, Input, Db);
  ASSERT_TRUE(RA.ok());

  // Without inter-application mode, B finds nothing.
  auto RBNo = workloads::runPersistent(Registry, AppB, Input, Db);
  ASSERT_TRUE(RBNo.ok());
  EXPECT_FALSE(RBNo->Prime.CacheFound);

  // With it, B reuses A's library translations; A's application traces
  // fail validation (different binary) and are retranslated.
  ASSERT_TRUE(Db.clear().ok());
  auto RA2 = workloads::runPersistent(Registry, AppA, Input, Db);
  ASSERT_TRUE(RA2.ok());
  PersistOptions Inter;
  Inter.InterApplication = true;
  auto RB = workloads::runPersistent(Registry, AppB, Input, Db, Inter);
  ASSERT_TRUE(RB.ok());
  EXPECT_TRUE(RB->Prime.CacheFound);
  EXPECT_GT(RB->Prime.TracesInstalled, 0u);   // Library traces.
  EXPECT_GT(RB->Prime.TracesSkipped, 0u);     // Donor app traces.
  EXPECT_GT(RB->Stats.TracesCompiled, 0u);    // B's own code.
  // And correctness holds.
  auto Native = workloads::runNative(Registry, AppB, Input);
  ASSERT_TRUE(Native.ok());
  EXPECT_TRUE(Native->observablyEquals(RB->Run));
}

TEST(Pic, RelocatedLibraryReusedWithPositionIndependentTranslations) {
  TinyWorkload W = makeTinyWorkload(2, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);

  PersistOptions Pic;
  Pic.PositionIndependent = true;
  auto Cold = mustRunPersistent(W, Input, Db, Pic, nullptr,
                                loader::BasePolicy::Randomized, 1);
  auto Warm = mustRunPersistent(W, Input, Db, Pic, nullptr,
                                loader::BasePolicy::Randomized, 2);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 0u);
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u)
      << "PIC translations must survive relocation";
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
}

TEST(Pic, ModeMismatchRejectsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  PersistOptions Pic;
  Pic.PositionIndependent = true;
  mustRunPersistent(W, Input, Db, Pic);
  auto Warm = mustRunPersistent(W, Input, Db); // Non-PIC session.
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.RejectReason,
            "translation addressing mode mismatch");
}

TEST(Persistence, InstrumentedRunsReuseInstrumentedCache) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);

  dbi::BasicBlockCounterTool Cold;
  auto R1 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Cold);
  ASSERT_TRUE(R1.ok());
  dbi::BasicBlockCounterTool Warm;
  auto R2 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Warm);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2->Stats.TracesCompiled, 0u);
  // Analysis results identical with and without persistence.
  EXPECT_EQ(Cold.totalBlocks(), Warm.totalBlocks());
  EXPECT_EQ(Cold.totalInstructions(), Warm.totalInstructions());
  EXPECT_EQ(Cold.counts(), Warm.counts());
}

TEST(Persistence, MultiProcessSharedDatabase) {
  // The Oracle model: several processes of one binary, different
  // inputs, one database — each process accumulates into the cache.
  TinyWorkload W = makeTinyWorkload(8, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  std::vector<std::vector<uint8_t>> Phases = {
      W.input({{0, 2}, {1, 2}}),
      W.input({{1, 2}, {2, 2}, {3, 2}}),
      W.input({{3, 2}, {4, 2}, {5, 2}}),
      W.input({{5, 2}, {6, 2}, {7, 2}}),
  };
  uint64_t TotalCompiled = 0;
  for (const auto &Phase : Phases) {
    auto R = mustRunPersistent(W, Phase, Db);
    TotalCompiled += R.Stats.TracesCompiled;
  }
  // Second sweep: everything is cached.
  for (const auto &Phase : Phases) {
    auto R = mustRunPersistent(W, Phase, Db);
    EXPECT_EQ(R.Stats.TracesCompiled, 0u);
  }
  EXPECT_GT(TotalCompiled, 0u);
}
