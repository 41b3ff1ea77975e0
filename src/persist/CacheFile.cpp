//===- persist/CacheFile.cpp ----------------------------------------------===//

#include "persist/CacheFile.h"

#include "dbi/Compiler.h"
#include "persist/CacheView.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;

uint32_t pcc::persist::traceDataBytes(uint32_t NumExits,
                                      uint32_t NumInsts) {
  return dbi::TranslatedTrace::dataBytesFor(NumExits, NumInsts);
}

const uint8_t *TraceRecord::bodyBytes() const {
  return Code.data() + dbi::TracePrologueBytes;
}

ErrorOr<std::vector<isa::Instruction>> TraceRecord::decodeBody() const {
  if (Code.size() < dbi::TracePrologueBytes +
                        static_cast<size_t>(GuestInstCount) *
                            isa::InstructionSize)
    return Status::error(ErrorCode::InvalidFormat,
                         "code image smaller than its instruction count");
  return isa::decodeAll(bodyBytes(), GuestInstCount);
}

uint32_t CacheFile::maxOptGen() const {
  uint32_t Max = 0;
  for (const TraceRecord &Trace : Traces)
    Max = std::max(Max, Trace.OptGen);
  return Max;
}

bool CacheFile::hasCerts() const {
  for (const TraceRecord &Trace : Traces)
    if (!Trace.Cert.empty())
      return true;
  return false;
}

uint64_t CacheFile::codeBytes() const {
  uint64_t Total = 0;
  for (const TraceRecord &Trace : Traces)
    Total += Trace.Code.size();
  return Total;
}

uint64_t CacheFile::dataBytes() const {
  uint64_t Total = 0;
  for (const TraceRecord &Trace : Traces)
    Total += traceDataBytes(static_cast<uint32_t>(Trace.Exits.size()),
                            Trace.GuestInstCount);
  return Total;
}

namespace {

/// Serialized size of one ModuleKey: u32 path length + path bytes +
/// Base/Size + four u64 hashes.
size_t moduleKeyBytes(const ModuleKey &Key) {
  return 4 + Key.Path.size() + 4 + 4 + 4 * 8;
}

size_t alignUp(size_t N, size_t Align) {
  return (N + Align - 1) / Align * Align;
}

/// Bytes the trailing certificate section adds (0 when no trace is
/// certified and the section is omitted entirely).
size_t certSectionBytes(const std::vector<TraceRecord> &Traces,
                        bool HasCerts) {
  if (!HasCerts)
    return 0;
  size_t BlobBytes = 0;
  for (const TraceRecord &Trace : Traces)
    BlobBytes += Trace.Cert.size();
  return v2::CertSectHeaderBytes +
         Traces.size() * v2::CertDirEntryBytes + BlobBytes;
}

} // namespace

size_t CacheFile::serializedSize() const {
  size_t ModuleTableSize = 0;
  for (const ModuleKey &Key : Modules)
    ModuleTableSize += moduleKeyBytes(Key);
  size_t HeapSize = 0;
  size_t PayloadBytes = 0;
  for (const TraceRecord &Trace : Traces) {
    HeapSize += Trace.Exits.size() * v2::ExitRecordBytes +
                Trace.RelocMask.size();
    PayloadBytes += Trace.Code.size();
  }
  size_t EntryBytes =
      maxOptGen() > 0 ? v2::OptIndexEntryBytes : v2::IndexEntryBytes;
  size_t IndexSize = Traces.size() * EntryBytes + HeapSize;
  size_t PayloadOffset = v2::HeaderBytes + ModuleTableSize + IndexSize;
  if (ExecuteInPlace)
    PayloadOffset = alignUp(PayloadOffset, v2::PayloadAlign);
  return PayloadOffset + PayloadBytes +
         certSectionBytes(Traces, hasCerts());
}

std::vector<uint8_t> CacheFile::serialize() const {
  // Exact section sizes, so one reserve() covers the whole file.
  size_t ModuleTableSize = 0;
  for (const ModuleKey &Key : Modules)
    ModuleTableSize += moduleKeyBytes(Key);
  size_t HeapSize = 0;
  size_t PayloadBytes = 0;
  for (const TraceRecord &Trace : Traces) {
    HeapSize += Trace.Exits.size() * v2::ExitRecordBytes +
                Trace.RelocMask.size();
    PayloadBytes += Trace.Code.size();
  }
  // Promoted files (any trace with OptGen > 0) use the wide index-entry
  // layout and announce it in the flags byte; unpromoted files keep the
  // 40-byte entries so their bytes are identical to pre-OptGen output.
  const bool HasOptGen = maxOptGen() > 0;
  // Certified files (any trace with a certificate blob) gain a trailing
  // certificate section past the payload and announce it in the flags
  // byte; uncertified files omit it so their bytes are identical to
  // pre-certificate output.
  const bool HasCerts = hasCerts();
  const size_t EntryBytes =
      HasOptGen ? v2::OptIndexEntryBytes : v2::IndexEntryBytes;
  size_t IndexSize = Traces.size() * EntryBytes + HeapSize;
  uint32_t ModuleTableOffset = static_cast<uint32_t>(v2::HeaderBytes);
  uint32_t TraceIndexOffset =
      ModuleTableOffset + static_cast<uint32_t>(ModuleTableSize);
  // XIP generations page-align the payload so consumers can hand the
  // mapped region to the engine as executable trace bodies; the gap is
  // zero padding outside every CRC domain.
  uint32_t IndexEnd = TraceIndexOffset + static_cast<uint32_t>(IndexSize);
  uint32_t PayloadOffset =
      ExecuteInPlace
          ? static_cast<uint32_t>(alignUp(IndexEnd, v2::PayloadAlign))
          : IndexEnd;
  size_t TotalSize = static_cast<size_t>(PayloadOffset) + PayloadBytes +
                     certSectionBytes(Traces, HasCerts);

  ByteWriter Writer;
  Writer.reserve(TotalSize);

  Writer.writeU32(v2::Magic);
  Writer.writeU32(ExecuteInPlace ? v2::XipVersion : v2::Version);
  Writer.writeU64(EngineHash);
  Writer.writeU64(ToolHash);
  Writer.writeU8(SpecBits);
  Writer.writeU8(static_cast<uint8_t>(
      (PositionIndependent ? v2::FlagPositionIndependent : 0) |
      (ExecuteInPlace ? v2::FlagExecuteInPlace : 0) |
      (HasOptGen ? v2::FlagOptGen : 0) |
      (HasCerts ? v2::FlagCertificates : 0)));
  Writer.writeU16(WriterTag); // Former Reserved0: last-writer pid tag.
  Writer.writeU32(Generation);
  Writer.writeU32(static_cast<uint32_t>(Modules.size()));
  Writer.writeU32(static_cast<uint32_t>(Traces.size()));
  Writer.writeU32(ModuleTableOffset);
  Writer.writeU32(static_cast<uint32_t>(ModuleTableSize));
  Writer.writeU32(TraceIndexOffset);
  Writer.writeU32(static_cast<uint32_t>(IndexSize));
  Writer.writeU32(PayloadOffset);
  Writer.writeU32(static_cast<uint32_t>(PayloadBytes));
  size_t CrcFieldsAt = Writer.size();
  Writer.writeU32(0); // ModuleTableCrc, patched below.
  Writer.writeU32(0); // TraceIndexCrc, patched below.
  Writer.writeU32(0); // HeaderCrc, patched below.
  assert(Writer.size() == v2::HeaderBytes && "v2 header layout drifted");

  for (const ModuleKey &Key : Modules)
    Key.serialize(Writer);
  assert(Writer.size() == TraceIndexOffset && "module table size drifted");

  // Index entries first, then the metadata heap they point into.
  uint32_t MetaOffset =
      static_cast<uint32_t>(Traces.size() * EntryBytes);
  uint32_t CodeOffset = 0;
  for (const TraceRecord &Trace : Traces) {
    Writer.writeU32s(Trace.GuestStart, Trace.ModuleIndex,
                     Trace.GuestInstCount, CodeOffset, Trace.Code.size(),
                     crc32(Trace.Code.data(), Trace.Code.size()),
                     MetaOffset, Trace.Exits.size(),
                     Trace.RelocMask.size(),
                     Trace.Heat); // Last: the former Reserved word.
    if (HasOptGen)
      Writer.writeU32(Trace.OptGen);
    CodeOffset += static_cast<uint32_t>(Trace.Code.size());
    MetaOffset += static_cast<uint32_t>(
        Trace.Exits.size() * v2::ExitRecordBytes + Trace.RelocMask.size());
  }
  for (const TraceRecord &Trace : Traces) {
    for (const ExitRecord &Exit : Trace.Exits) {
      Writer.writeU8(Exit.Kind);
      Writer.writeU32s(Exit.InstIndex, Exit.Target, Exit.LinkedStart);
    }
    Writer.writeBytes(Trace.RelocMask.data(), Trace.RelocMask.size());
  }
  assert(Writer.size() == IndexEnd && "trace index size drifted");
  Writer.writeZeros(PayloadOffset - IndexEnd);
  assert(Writer.size() == PayloadOffset && "payload alignment drifted");

  for (const TraceRecord &Trace : Traces)
    Writer.writeBytes(Trace.Code.data(), Trace.Code.size());

  if (HasCerts) {
    // Trailing certificate section: fixed header, per-trace directory,
    // then the concatenated blobs. Sits entirely past the declared
    // (header-covered) file size; the directory carries its own CRC and
    // each blob its own trailing CRC.
    size_t BlobBytes = 0;
    for (const TraceRecord &Trace : Traces)
      BlobBytes += Trace.Cert.size();
    Writer.writeU32(v2::CertSectMagic);
    Writer.writeU32(static_cast<uint32_t>(Traces.size()));
    Writer.writeU32(static_cast<uint32_t>(BlobBytes));
    size_t DirCrcAt = Writer.size();
    Writer.writeU32(0); // DirCrc, patched below.
    size_t DirAt = Writer.size();
    uint32_t BlobOffset = 0;
    for (const TraceRecord &Trace : Traces) {
      Writer.writeU32(Trace.Cert.empty() ? 0 : BlobOffset);
      Writer.writeU32(static_cast<uint32_t>(Trace.Cert.size()));
      BlobOffset += static_cast<uint32_t>(Trace.Cert.size());
    }
    Writer.patchU32(DirCrcAt,
                    crc32(Writer.bytes().data() + DirAt,
                          Traces.size() * v2::CertDirEntryBytes));
    for (const TraceRecord &Trace : Traces)
      Writer.writeBytes(Trace.Cert.data(), Trace.Cert.size());
  }
  assert(Writer.size() == TotalSize && "payload size drifted");

  const uint8_t *Raw = Writer.bytes().data();
  Writer.patchU32(CrcFieldsAt,
                  crc32(Raw + ModuleTableOffset, ModuleTableSize));
  // The trace-index CRC domain excludes the alignment padding, so it is
  // identical whether or not the generation is XIP.
  Writer.patchU32(CrcFieldsAt + 4,
                  crc32(Raw + TraceIndexOffset, IndexSize));
  // Header CRC covers everything before itself, section CRCs included.
  Writer.patchU32(CrcFieldsAt + 8, crc32(Raw, v2::HeaderBytes - 4));
  return Writer.take();
}

ErrorOr<CacheFile> CacheFile::deserialize(
    const std::vector<uint8_t> &Bytes) {
  auto View = CacheFileView::open(Bytes, CacheFileView::Depth::Index);
  if (!View)
    return View.status();
  CacheFile File;
  File.SourceFormat = View->formatVersion();
  File.EngineHash = View->engineHash();
  File.ToolHash = View->toolHash();
  File.SpecBits = View->specBits();
  File.PositionIndependent = View->positionIndependent();
  File.ExecuteInPlace = View->executeInPlace();
  File.Generation = View->generation();
  File.WriterTag = View->writerTag();
  File.Modules = View->modules();
  File.Traces.reserve(View->numTraces());
  for (uint32_t I = 0; I != View->numTraces(); ++I) {
    // The eager path checks every payload CRC up front, the contract
    // callers of deserialize() rely on.
    auto Rec = View->record(I);
    if (!Rec)
      return Rec.status();
    File.Traces.push_back(Rec.take());
  }
  return File;
}

Status CacheFile::validate() const {
  std::unordered_set<uint32_t> Starts;
  for (size_t I = 0; I != Traces.size(); ++I) {
    const TraceRecord &Trace = Traces[I];
    auto traceErr = [&](const std::string &Message) {
      return Status::error(ErrorCode::InvalidFormat,
                           formatString("trace %zu @0x%x: %s", I,
                                        Trace.GuestStart,
                                        Message.c_str()));
    };
    if (Trace.ModuleIndex >= Modules.size())
      return traceErr("module index out of range");
    const ModuleKey &Mod = Modules[Trace.ModuleIndex];
    if (Trace.GuestStart < Mod.Base ||
        Trace.GuestStart - Mod.Base >= Mod.Size)
      return traceErr("guest start outside its module mapping");
    if (!Starts.insert(Trace.GuestStart).second)
      return traceErr("duplicate guest start");
    size_t MinCode = dbi::TracePrologueBytes +
                     static_cast<size_t>(Trace.GuestInstCount) *
                         isa::InstructionSize;
    if (Trace.Code.size() < MinCode)
      return traceErr("code image smaller than instruction count");
    if (Trace.GuestInstCount == 0)
      return traceErr("empty trace");
    for (const ExitRecord &Exit : Trace.Exits) {
      if (Exit.Kind > static_cast<uint8_t>(dbi::ExitKind::Halt))
        return traceErr("invalid exit kind");
      if (Exit.InstIndex >= Trace.GuestInstCount)
        return traceErr("exit instruction index out of range");
    }
  }
  // Second pass: links must reference traces in this file.
  for (size_t I = 0; I != Traces.size(); ++I)
    for (const ExitRecord &Exit : Traces[I].Exits)
      if (Exit.LinkedStart != 0 && !Starts.count(Exit.LinkedStart))
        return Status::error(
            ErrorCode::InvalidFormat,
            formatString("trace %zu @0x%x: dangling link to 0x%x", I,
                         Traces[I].GuestStart, Exit.LinkedStart));
  return Status::success();
}
