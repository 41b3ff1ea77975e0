//===- tests/TestUtils.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//

#ifndef PCC_TESTS_TESTUTILS_H
#define PCC_TESTS_TESTUTILS_H

#include "dbi/Stats.h"
#include "support/FileSystem.h"
#include "workloads/Codegen.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pcc {
namespace tests {

/// RAII temporary directory for cache databases.
class TempDir {
public:
  TempDir() {
    auto Dir = createUniqueTempDir("pcc-test");
    EXPECT_TRUE(Dir.ok()) << (Dir.ok() ? "" : Dir.status().toString());
    if (Dir.ok())
      Path = Dir.take();
  }
  ~TempDir() {
    if (!Path.empty())
      (void)removeRecursively(Path);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// A small self-contained app: \p NumRegions local regions dispatched by
/// a work list, optionally importing \p LibRegions regions from a
/// library "libtest.so" added to \p Registry.
struct TinyWorkload {
  std::shared_ptr<binary::Module> App;
  loader::ModuleRegistry Registry;
  uint32_t NumLocal = 0;
  uint32_t NumImports = 0;

  /// Input running every slot once with \p Iters iterations.
  std::vector<uint8_t> allSlotsInput(uint32_t Iters = 1) const {
    std::vector<workloads::WorkItem> Items;
    for (uint32_t Slot = 0; Slot != NumLocal + NumImports; ++Slot)
      Items.push_back(workloads::WorkItem{Slot, Iters});
    return workloads::encodeWorkload(Items);
  }

  /// Input running the given (slot, iters) pairs.
  std::vector<uint8_t>
  input(const std::vector<workloads::WorkItem> &Items) const {
    return workloads::encodeWorkload(Items);
  }
};

/// Builds a TinyWorkload with deterministic contents.
inline TinyWorkload makeTinyWorkload(uint32_t NumLocal = 4,
                                     uint32_t NumImports = 3,
                                     uint64_t Seed = 42) {
  TinyWorkload W;
  W.NumLocal = NumLocal;
  W.NumImports = NumImports;

  if (NumImports != 0) {
    workloads::LibraryDef Lib;
    Lib.Name = "libtest.so";
    Lib.Path = "/lib/libtest.so";
    for (uint32_t I = 0; I != NumImports; ++I) {
      workloads::RegionDef Region;
      Region.Name = "libfn" + std::to_string(I);
      Region.Blocks = 4;
      Region.InstsPerBlock = 8;
      Region.Seed = Seed + 100 + I;
      Lib.Regions.push_back(std::move(Region));
    }
    W.Registry.add(workloads::buildLibrary(Lib));
  }

  workloads::AppDef Def;
  Def.Name = "tinyapp";
  Def.Path = "/bin/tinyapp";
  for (uint32_t I = 0; I != NumImports; ++I)
    Def.Slots.push_back(workloads::FunctionSlot::import(
        "libtest.so", "libfn" + std::to_string(I)));
  for (uint32_t I = 0; I != NumLocal; ++I) {
    workloads::RegionDef Region;
    Region.Name = "local" + std::to_string(I);
    Region.Blocks = 4;
    Region.InstsPerBlock = 8;
    Region.Seed = Seed + I;
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Region)));
  }
  W.App = workloads::buildExecutable(Def);
  return W;
}

/// Every EngineStats counter in the table plus the degrade state and the
/// compile-event timeline: the XIP/materializing and worker-count
/// contracts are bit-identity, not approximate agreement.
inline void expectStatsEqual(const dbi::EngineStats &A,
                             const dbi::EngineStats &B,
                             const std::string &Label) {
  for (const dbi::StatsCounter &C : dbi::EngineStatsCounters)
    EXPECT_EQ(A.*C.Field, B.*C.Field) << Label << ": " << C.Name;
  EXPECT_EQ(A.PersistDegraded, B.PersistDegraded) << Label;
  EXPECT_EQ(A.PersistDegradeReason, B.PersistDegradeReason) << Label;
  ASSERT_EQ(A.Timeline.size(), B.Timeline.size()) << Label;
  for (size_t I = 0; I < A.Timeline.size(); ++I) {
    EXPECT_EQ(A.Timeline[I].GuestInstsExecuted,
              B.Timeline[I].GuestInstsExecuted)
        << Label << " timeline[" << I << "]";
    EXPECT_EQ(A.Timeline[I].TraceInsts, B.Timeline[I].TraceInsts)
        << Label << " timeline[" << I << "]";
  }
}

} // namespace tests
} // namespace pcc

#endif // PCC_TESTS_TESTUTILS_H
