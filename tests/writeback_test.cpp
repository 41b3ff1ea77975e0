//===- tests/writeback_test.cpp - write-back bytes and publish contract ---===//
//
// The write-back suite. finalize() must publish the same bytes for fixed
// run sequences (golden digests recorded before the write-back path was
// reworked for allocation), every published file must re-serialize to
// itself, and CacheStore::publish, which takes the caller's CacheFile by
// reference, must leave it unchanged: when a concurrent winner forces a
// merge, and when the session's breaker retries a failed first attempt.
//
// Built as its own CTest executable (writeback_test) so the --faults leg
// of scripts/check.sh can run exactly this binary under ASan and TSan.
//
//===----------------------------------------------------------------------===//

#include "dbi/Engine.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/DirectoryStore.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

/// What one execution's finalize() left in the application's slot.
struct Published {
  std::vector<uint8_t> Bytes;
  uint64_t LookupKey = 0;
  PrimeResult Prime;
  dbi::EngineStats Stats;
};

/// Reads the slot for \p LookupKey back out of \p Store as bytes.
std::vector<uint8_t> slotBytes(CacheStore &Store, uint64_t LookupKey) {
  if (auto *Dir = dynamic_cast<DirectoryStore *>(&Store)) {
    auto Raw = readFile(Dir->refFor(LookupKey));
    EXPECT_TRUE(Raw.ok()) << Raw.status().toString();
    return Raw ? Raw.take() : std::vector<uint8_t>();
  }
  auto File = Store.loadKey(LookupKey);
  EXPECT_TRUE(File.ok()) << File.status().toString();
  return File ? File->serialize() : std::vector<uint8_t>();
}

/// One execution of \p App: prime, run and finalize in one session.
/// \p BeforeFinalize, when set, runs between the run and finalize().
Published runOnce(const loader::ModuleRegistry &Registry,
                  std::shared_ptr<binary::Module> App,
                  const std::vector<uint8_t> &Input,
                  const CacheDatabase &Db, const PersistOptions &Opts,
                  const dbi::EngineOptions &EngineOpts =
                      dbi::EngineOptions(),
                  const std::function<void()> &BeforeFinalize = nullptr) {
  Published Out;
  auto Made = workloads::makeMachine(Registry, App, Input);
  EXPECT_TRUE(Made.ok()) << Made.status().toString();
  if (!Made)
    return Out;
  vm::Machine M = Made.take();
  dbi::Engine Engine(M, nullptr, EngineOpts);
  PersistentSession Session(Db, Opts);
  auto Primed = Session.prime(Engine);
  EXPECT_TRUE(Primed.ok()) << Primed.status().toString();
  if (!Primed)
    return Out;
  Out.Prime = Primed.take();
  vm::RunResult Run = Engine.run();
  EXPECT_TRUE(Run.ok()) << Run.Error.toString();
  if (BeforeFinalize)
    BeforeFinalize();
  Status Finalized = Session.finalize(Engine);
  EXPECT_TRUE(Finalized.ok()) << Finalized.toString();
  Out.LookupKey = Session.lookupKey();
  Out.Stats = Engine.stats();
  Out.Bytes = slotBytes(*Db.backend(), Out.LookupKey);
  return Out;
}

/// Digest of a published file with the fields that vary by writer
/// zeroed: WriterTag (u16 at +26, the low bits of the writer's pid) and
/// the HeaderCrc that covers it (the header's last u32).
uint64_t publishDigest(std::vector<uint8_t> Bytes) {
  const size_t HeaderCrcAt = v2::HeaderBytes - 4;
  for (size_t Offset : {size_t(26), size_t(27), HeaderCrcAt,
                        HeaderCrcAt + 1, HeaderCrcAt + 2, HeaderCrcAt + 3})
    if (Offset < Bytes.size())
      Bytes[Offset] = 0;
  return fnv1a64Bytes(Bytes.data(), Bytes.size());
}

/// Asserts deserialize(B)->serialize() == B.
void expectRoundTrips(const std::vector<uint8_t> &Bytes,
                      const std::string &Label) {
  auto File = CacheFile::deserialize(Bytes);
  ASSERT_TRUE(File.ok()) << Label << ": " << File.status().toString();
  EXPECT_TRUE(File->serialize() == Bytes)
      << Label << ": re-serialized bytes differ";
}

/// Checks each publish of a sequence against its golden digest and its
/// own round trip. A mismatch prints the digest the code produced.
void expectGolden(const std::vector<Published> &Runs,
                  const std::vector<uint64_t> &Golden) {
  ASSERT_EQ(Runs.size(), Golden.size());
  for (size_t I = 0; I != Runs.size(); ++I) {
    const std::string Label = "publish " + std::to_string(I);
    ASSERT_FALSE(Runs[I].Bytes.empty()) << Label;
    expectRoundTrips(Runs[I].Bytes, Label);
    uint64_t Digest = publishDigest(Runs[I].Bytes);
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%016llxull",
                  static_cast<unsigned long long>(Digest));
    EXPECT_EQ(Digest, Golden[I]) << Label << " digest is " << Hex;
  }
}

/// Two applications importing overlapping halves of one shared library,
/// each with a few local regions: the inter-application XIP case.
struct SharedLibApps {
  loader::ModuleRegistry Registry;
  std::shared_ptr<binary::Module> AppA;
  std::shared_ptr<binary::Module> AppB;
  std::vector<uint8_t> InputA;
  std::vector<uint8_t> InputB;
};

std::shared_ptr<binary::Module>
makeLibApp(const std::string &Name, uint32_t FirstImport,
           uint32_t NumImports, uint32_t NumLocal, uint64_t Seed) {
  workloads::AppDef Def;
  Def.Name = Name;
  Def.Path = "/bin/" + Name;
  for (uint32_t I = 0; I != NumImports; ++I)
    Def.Slots.push_back(workloads::FunctionSlot::import(
        "libshared.so", "shfn" + std::to_string(FirstImport + I)));
  for (uint32_t I = 0; I != NumLocal; ++I) {
    workloads::RegionDef Region;
    Region.Name = Name + "_local" + std::to_string(I);
    Region.Blocks = 5;
    Region.InstsPerBlock = 8;
    Region.Seed = Seed + I;
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Region)));
  }
  return workloads::buildExecutable(Def);
}

std::vector<uint8_t> allSlots(uint32_t NumSlots, uint32_t Iters) {
  std::vector<workloads::WorkItem> Items;
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
    Items.push_back(workloads::WorkItem{Slot, Iters});
  return workloads::encodeWorkload(Items);
}

SharedLibApps makeSharedLibApps() {
  SharedLibApps S;
  workloads::LibraryDef Lib;
  Lib.Name = "libshared.so";
  Lib.Path = "/lib/libshared.so";
  for (uint32_t I = 0; I != 6; ++I) {
    workloads::RegionDef Region;
    Region.Name = "shfn" + std::to_string(I);
    Region.Blocks = 5;
    Region.InstsPerBlock = 8;
    Region.Seed = 300 + I;
    Lib.Regions.push_back(std::move(Region));
  }
  S.Registry.add(workloads::buildLibrary(Lib));
  S.AppA = makeLibApp("guiA", 0, 4, 3, 500);
  S.AppB = makeLibApp("guiB", 2, 4, 3, 600);
  S.InputA = allSlots(7, 2);
  S.InputB = allSlots(7, 2);
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden bytes: the digests were recorded from the write-back path
// before its allocation rework. Any change here is a cache-format
// change and must be deliberate.
//===----------------------------------------------------------------------===//

TEST(WriteBackGolden, PicXipSharedInterAppColdWarmWarm) {
  SharedLibApps S = makeSharedLibApps();
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions Opts;
  Opts.InterApplication = true;
  Opts.PositionIndependent = true;
  Opts.ExecuteInPlace = true;

  std::vector<Published> Runs;
  Runs.push_back(runOnce(S.Registry, S.AppA, S.InputA, Db, Opts));
  // B has no slot yet: it primes from A's cache as a donor.
  Runs.push_back(runOnce(S.Registry, S.AppB, S.InputB, Db, Opts));
  Runs.push_back(runOnce(S.Registry, S.AppA, S.InputA, Db, Opts));
  EXPECT_FALSE(Runs[0].Prime.CacheFound);
  EXPECT_TRUE(Runs[1].Prime.CacheFound);
  EXPECT_TRUE(Runs[2].Prime.CacheFound);
  EXPECT_TRUE(Runs[2].Prime.XipInstalled);
  expectGolden(Runs, {0xad6f2e9094e25d28ull, 0x83afd02dbb350cd3ull,
                      0xa6ac2558b1952d87ull});
}

TEST(WriteBackGolden, MaterializingOptTierWithCertificates) {
  TinyWorkload W = makeTinyWorkload(3, 2, 77);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(2);
  PersistOptions Plain;
  PersistOptions Promote;
  Promote.OptTier = true;

  std::vector<Published> Runs;
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, Plain));
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, Plain));
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, Promote));
  // The last run executes certified promoted bodies and does not
  // promote, so it writes them back with the certificates re-attached
  // from the file it primed from.
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, Plain));
  EXPECT_GT(Runs[2].Stats.TracesPromoted, 0u);
  EXPECT_GT(Runs[3].Stats.CertsChecked, 0u);
  auto Last = CacheFile::deserialize(Runs.back().Bytes);
  ASSERT_TRUE(Last.ok());
  EXPECT_GE(Last->maxOptGen(), 1u);
  EXPECT_TRUE(Last->hasCerts());
  expectGolden(Runs, {0xbe96ab5e2b79ee4bull, 0x213aa2bba0c5fc63ull,
                      0x0ece677379e06c04ull, 0x4d69d76acf7c9be9ull});
}

TEST(WriteBackGolden, CarryThroughOfAbsentModuleAndFlushedTraces) {
  TinyWorkload W = makeTinyWorkload(6, 3, 131);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(2);

  std::vector<Published> Runs;
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, PersistOptions()));

  // Give the slot a module this application never loads, holding two
  // traces: every later write-back must carry them through.
  auto File = Db.load(Runs[0].LookupKey);
  ASSERT_TRUE(File.ok()) << File.status().toString();
  ASSERT_GE(File->Traces.size(), 2u);
  uint32_t End = 0;
  for (const ModuleKey &Key : File->Modules)
    End = std::max(End, Key.Base + Key.Size);
  ModuleKey Ghost;
  Ghost.Path = "/lib/libghost.so";
  Ghost.Base = (End + 0xfffff) & ~0xfffffu;
  Ghost.Size = 0x4000;
  Ghost.HeaderHash = 0x1234;
  Ghost.FullHash = 0x5678;
  Ghost.PicHash = 0x9abc;
  const uint32_t GhostIndex = static_cast<uint32_t>(File->Modules.size());
  File->Modules.push_back(Ghost);
  // The first links to the second; the second links to a start that
  // holds no trace, which the write-back must clear.
  for (uint32_t I = 0; I != 2; ++I) {
    TraceRecord Rec = File->Traces[I];
    Rec.GuestStart = Ghost.Base + 0x100 * (I + 1);
    Rec.ModuleIndex = GhostIndex;
    Rec.Heat = 7 - I;
    for (ExitRecord &Exit : Rec.Exits)
      Exit.LinkedStart = Ghost.Base + 0x100 * (I + 2);
    File->Traces.push_back(std::move(Rec));
  }
  ASSERT_FALSE(File->validate().ok()); // The dangling link.
  ASSERT_TRUE(Db.store(Runs[0].LookupKey, *File).ok());

  // Pools too small for the persisted traces: install is abandoned and
  // the run flushes, so most validated traces are not resident at exit.
  dbi::EngineOptions Tiny;
  Tiny.CodePoolBytes = 3000;
  Tiny.DataPoolBytes = 3000;
  Runs.push_back(
      runOnce(W.Registry, W.App, Input, Db, PersistOptions(), Tiny));
  EXPECT_GT(Runs[1].Stats.CacheFlushes, 0u);
  Runs.push_back(runOnce(W.Registry, W.App, Input, Db, PersistOptions()));

  for (size_t I = 1; I != Runs.size(); ++I) {
    auto Written = CacheFile::deserialize(Runs[I].Bytes);
    ASSERT_TRUE(Written.ok());
    EXPECT_TRUE(Written->validate().ok());
    size_t GhostTraces = 0;
    for (const TraceRecord &Rec : Written->Traces)
      GhostTraces += Written->Modules[Rec.ModuleIndex].Path == Ghost.Path;
    EXPECT_EQ(GhostTraces, 2u) << "publish " << I;
    EXPECT_GE(Written->Traces.size(), File->Traces.size())
        << "publish " << I;
  }
  expectGolden(Runs, {0xd9324d626aab78a6ull, 0xce3ab8e0ee7a58ccull,
                      0xbbbc57e62ccb4497ull});
}

//===----------------------------------------------------------------------===//
// Publish by reference: every store reads the caller's CacheFile and
// leaves it as it was.
//===----------------------------------------------------------------------===//

namespace {

/// A MemoryStore whose next publish can be made to fail the way a
/// store error does: the breaker-retry case for a backend the fault
/// injector cannot reach.
class FailingMemoryStore : public MemoryStore {
public:
  void failNextPublish() { FailNext = true; }

  ErrorOr<PublishResult> publish(uint64_t LookupKey, const CacheFile &File,
                                 uint32_t BaseGeneration) override {
    if (FailNext) {
      FailNext = false;
      return Status::error(ErrorCode::IoError, "injected publish failure");
    }
    return MemoryStore::publish(LookupKey, File, BaseGeneration);
  }

private:
  bool FailNext = false;
};

/// A valid one-module cache with a trace at each of \p Starts. Each
/// trace's exit links to \p LinkedStart.
CacheFile makeLinkedFile(std::initializer_list<uint32_t> Starts,
                         uint32_t LinkedStart) {
  CacheFile File;
  File.EngineHash = dbi::engineVersionHash();
  File.ToolHash = noToolHash();
  ModuleKey Key;
  Key.Path = "/bin/x";
  Key.Base = 0x400000;
  Key.Size = 0x10000;
  Key.FullHash = 0x1111;
  File.Modules.push_back(Key);
  for (uint32_t Start : Starts) {
    TraceRecord Trace;
    Trace.GuestStart = Start;
    Trace.GuestInstCount = 4;
    Trace.Code.assign(64, static_cast<uint8_t>(Start & 0xff));
    Trace.Exits.push_back(ExitRecord{0, 3, Start + 16, LinkedStart});
    Trace.Heat = Start & 0xff;
    File.Traces.push_back(std::move(Trace));
  }
  return File;
}

/// Builds the store under test: "dir", "mem" or "tier" (a directory L1
/// over a directory L2, so the fault injector reaches both tiers).
class PublishByReference : public ::testing::TestWithParam<const char *> {
protected:
  std::shared_ptr<CacheStore> makeStore(const std::string &Name) {
    const std::string Kind = GetParam();
    const std::string Root = Dir.path() + "/" + Name;
    if (Kind == "dir")
      return std::make_shared<DirectoryStore>(Root);
    if (Kind == "mem")
      return Mem = std::make_shared<FailingMemoryStore>();
    L2 = std::make_shared<DirectoryStore>(Root + "-l2");
    return std::make_shared<TieredStore>(
        std::make_shared<DirectoryStore>(Root + "-l1"), L2);
  }

  /// Makes the next publish attempt of the store made last fail.
  void failNextAttempt() {
    const std::string Kind = GetParam();
    if (Kind == "mem")
      Mem->failNextPublish();
    else // The tiered store falls back to L1 when L2 fails, so both
         // renames of the attempt must fail for the session to retry.
      FaultInjector::instance().armCount(FaultOp::RenameFail, 0,
                                         Kind == "tier" ? 2 : 1);
  }

  TempDir Dir;
  std::shared_ptr<FailingMemoryStore> Mem; ///< The memory store.
  std::shared_ptr<DirectoryStore> L2;      ///< The tiered store's L2.
};

INSTANTIATE_TEST_SUITE_P(
    Stores, PublishByReference, ::testing::Values("dir", "mem", "tier"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });

} // namespace

TEST_P(PublishByReference, MergeLeavesTheCallersFileUnchanged) {
  auto Store = makeStore("merge");
  ASSERT_TRUE(
      Store->publish(9, makeLinkedFile({0x400000, 0x400040}, 0), 0).ok());

  // Primed from an empty slot, so the winner above forces a merge. The
  // dangling link is cleared in the merged file, and only there.
  CacheFile Mine = makeLinkedFile({0x400040, 0x400080}, 0x4000c0);
  const std::vector<uint8_t> Before = Mine.serialize();
  auto R = Store->publish(9, Mine, 0);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_TRUE(R->Merged);
  EXPECT_EQ(R->Generation, 2u);
  EXPECT_TRUE(Mine.serialize() == Before);

  auto Stored = Store->loadKey(9);
  ASSERT_TRUE(Stored.ok()) << Stored.status().toString();
  EXPECT_EQ(Stored->Generation, 2u);
  ASSERT_EQ(Stored->Traces.size(), 3u);
  for (const TraceRecord &Rec : Stored->Traces)
    EXPECT_EQ(Rec.Exits.at(0).LinkedStart, 0u);
  for (const TraceRecord &Rec : Mine.Traces)
    EXPECT_EQ(Rec.Exits.at(0).LinkedStart, 0x4000c0u);
}

TEST_P(PublishByReference, BreakerRetryWritesTheBytesOfAnUnfailedPublish) {
  TinyWorkload W = makeTinyWorkload(4, 2, 19);
  const std::vector<uint8_t> Input = W.allSlotsInput(2);
  const PersistOptions Opts;

  CacheDatabase RefDb(makeStore("ref"));
  runOnce(W.Registry, W.App, Input, RefDb, Opts);
  Published Ref = runOnce(W.Registry, W.App, Input, RefDb, Opts);

  CacheDatabase Db(makeStore("retry"));
  FaultScope Faults;
  runOnce(W.Registry, W.App, Input, Db, Opts);
  Published Retried = runOnce(W.Registry, W.App, Input, Db, Opts,
                              dbi::EngineOptions(),
                              [&] { failNextAttempt(); });

  EXPECT_EQ(Retried.Stats.PersistStoreFailures, 1u);
  EXPECT_GE(Retried.Stats.PersistStoreRetries, 1u);
  EXPECT_FALSE(Retried.Stats.PersistDegraded);
  ASSERT_FALSE(Ref.Bytes.empty());
  EXPECT_TRUE(Retried.Bytes == Ref.Bytes)
      << "the retried publish wrote different bytes";
  if (L2) {
    EXPECT_TRUE(slotBytes(*L2, Retried.LookupKey) == Ref.Bytes)
        << "the L2 copy differs";
  }
}

TEST(TieredPublishByReference, LocalFallbackWritesTheCallersBytes) {
  TempDir Dir;
  auto L1 = std::make_shared<DirectoryStore>(Dir.path() + "/l1");
  auto L2 = std::make_shared<DirectoryStore>(Dir.path() + "/l2");
  TieredStore Store(L1, L2);
  const CacheFile File = makeLinkedFile({0x400000, 0x400040}, 0x400040);
  const std::vector<uint8_t> Expected = File.serialize();

  // L2's rename fails, so the store publishes to L1 alone.
  FaultScope Faults;
  FaultInjector::instance().armCount(FaultOp::RenameFail, 0, 1);
  auto R = Store.publish(3, File, 0);
  ASSERT_TRUE(R.ok()) << R.status().toString();
  EXPECT_EQ(Store.tieredStats().RemoteFailures, 1u);
  EXPECT_FALSE(L2->exists(3));
  EXPECT_TRUE(slotBytes(*L1, 3) == Expected);
  EXPECT_TRUE(File.serialize() == Expected);
}
