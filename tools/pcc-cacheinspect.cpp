//===- tools/pcc-cacheinspect.cpp - persistent cache inspector -------------===//
//
// Dumps a persistent code cache file (.pcc): header, module keys, size
// accounting (the Figure 9 split), and optionally every trace record.
//
//   pcc-cacheinspect cache.pcc [--traces]
//
//===----------------------------------------------------------------------===//

#include "persist/CacheFile.h"
#include "persist/DirectoryStore.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <cstring>
#include <map>

using namespace pcc;
using namespace pcc::persist;

int main(int Argc, char **Argv) {
  const char *Path = nullptr;
  bool DumpTraces = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--traces") == 0)
      DumpTraces = true;
    else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf("usage: pcc-cacheinspect cache.pcc [--traces]\n");
      return 0;
    } else if (!Path)
      Path = Argv[I];
  }
  if (!Path) {
    std::fprintf(stderr,
                 "usage: pcc-cacheinspect cache.pcc [--traces]\n");
    return 2;
  }

  auto OnDisk = fileSize(Path);
  if (!OnDisk) {
    std::fprintf(stderr, "pcc-cacheinspect: %s\n",
                 OnDisk.status().toString().c_str());
    return 1;
  }
  // Eager load through the storage interface: full deserialize with
  // every CRC checked, same path accumulation uses.
  std::string PathStr(Path);
  size_t Slash = PathStr.find_last_of('/');
  DirectoryStore Store(Slash == std::string::npos
                           ? std::string(".")
                           : PathStr.substr(0, Slash));
  auto File = Store.loadRef(PathStr);
  if (!File) {
    std::fprintf(stderr, "pcc-cacheinspect: %s: %s\n", Path,
                 File.status().toString().c_str());
    return 1;
  }

  Status Structural = File->validate();
  std::printf("persistent code cache %s (%s on disk, CRC ok, "
              "structure %s)\n",
              Path, formatByteSize(*OnDisk).c_str(),
              Structural.ok() ? "ok"
                              : Structural.toString().c_str());
  std::printf("  format         v%u (indexed, lazy per-trace CRCs)\n",
              File->SourceFormat);
  std::printf("  engine key     %016llx\n",
              (unsigned long long)File->EngineHash);
  std::printf("  tool key       %016llx  (spec bits 0x%02x)\n",
              (unsigned long long)File->ToolHash, File->SpecBits);
  std::printf("  addressing     %s\n",
              File->PositionIndependent ? "position-independent"
                                        : "absolute");
  std::printf("  generation     %u accumulation(s)\n",
              File->Generation);
  if (File->WriterTag)
    std::printf("  last writer    pid tag %u\n", File->WriterTag);
  std::printf("  code pool      %s\n",
              formatByteSize(File->codeBytes()).c_str());
  std::printf("  data structs   %s (%.2fx code)\n",
              formatByteSize(File->dataBytes()).c_str(),
              File->codeBytes()
                  ? static_cast<double>(File->dataBytes()) /
                        static_cast<double>(File->codeBytes())
                  : 0.0);

  TablePrinter Modules("modules (keys)");
  Modules.addRow({"#", "path", "base", "size", "mtime", "traces",
                  "full hash"});
  std::map<uint32_t, uint32_t> TraceCount;
  for (const TraceRecord &Trace : File->Traces)
    ++TraceCount[Trace.ModuleIndex];
  for (size_t I = 0; I != File->Modules.size(); ++I) {
    const ModuleKey &Key = File->Modules[I];
    Modules.addRow({formatString("%zu", I), Key.Path,
                    "0x" + toHex(Key.Base, 8),
                    formatByteSize(Key.Size),
                    formatString("%llu",
                                 (unsigned long long)Key.ModTime),
                    formatString("%u", TraceCount[(uint32_t)I]),
                    toHex(Key.FullHash, 16)});
  }
  Modules.print();

  if (DumpTraces) {
    TablePrinter Traces("traces");
    Traces.addRow({"guest start", "module", "insts", "code bytes",
                   "exits", "linked"});
    for (const TraceRecord &Trace : File->Traces) {
      unsigned Linked = 0;
      for (const ExitRecord &Exit : Trace.Exits)
        Linked += Exit.LinkedStart != 0 ? 1 : 0;
      Traces.addRow({"0x" + toHex(Trace.GuestStart, 8),
                     formatString("%u", Trace.ModuleIndex),
                     formatString("%u", Trace.GuestInstCount),
                     formatString("%zu", Trace.Code.size()),
                     formatString("%zu", Trace.Exits.size()),
                     formatString("%u", Linked)});
    }
    Traces.print();
  } else {
    std::printf("(%zu traces; pass --traces to list them)\n",
                File->Traces.size());
  }
  return 0;
}
