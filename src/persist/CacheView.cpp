//===- persist/CacheView.cpp ----------------------------------------------===//

#include "persist/CacheView.h"

#include "support/ByteStream.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace pcc;
using namespace pcc::persist;

static Status formatError(const char *Message) {
  return Status::error(ErrorCode::InvalidFormat, Message);
}

Status CacheFileView::parseHeader(const uint8_t *Bytes, size_t Available) {
  // The magic is checked before the size: a v1 file (which can be
  // shorter than a v2 header) is healthy bytes in a retired format,
  // never corruption.
  ByteReader Reader(Bytes, std::min(Available, v2::HeaderBytes));
  uint32_t Magic = Reader.readU32();
  if (!Reader.failed() && Magic == LegacyCacheMagic)
    return Status::error(ErrorCode::VersionMismatch,
                         "legacy (v1) cache file");
  if (Available < v2::HeaderBytes)
    return formatError("cache file smaller than v2 header");
  if (Magic != v2::Magic)
    return formatError("bad cache magic");
  FormatVersion = Reader.readU32();
  if (FormatVersion != v2::Version && FormatVersion != v2::XipVersion)
    return Status::error(ErrorCode::VersionMismatch,
                         "unsupported cache format version");
  EngineHash = Reader.readU64();
  ToolHash = Reader.readU64();
  SpecBits = Reader.readU8();
  // Flags byte: bit 0 is PIC (bit-compatible with the former 0/1
  // PositionIndependent byte), bit 1 marks an XIP generation.
  uint8_t Flags = Reader.readU8();
  PositionIndependent = (Flags & v2::FlagPositionIndependent) != 0;
  Xip = (Flags & v2::FlagExecuteInPlace) != 0;
  HasOptGen = (Flags & v2::FlagOptGen) != 0;
  HasCerts = (Flags & v2::FlagCertificates) != 0;
  if (Xip != (FormatVersion == v2::XipVersion))
    return formatError("cache XIP flag inconsistent with version");
  WriterTag = Reader.readU16(); // Former Reserved0: last-writer pid tag.
  Generation = Reader.readU32();
  NumModules = Reader.readU32();
  NumTraces = Reader.readU32();
  ModuleTableOffset = Reader.readU32();
  ModuleTableSize = Reader.readU32();
  TraceIndexOffset = Reader.readU32();
  TraceIndexSize = Reader.readU32();
  PayloadOffset = Reader.readU32();
  PayloadSize = Reader.readU32();
  ModuleTableCrc = Reader.readU32();
  TraceIndexCrc = Reader.readU32();
  uint32_t HeaderCrc = Reader.readU32();
  assert(!Reader.failed() && "fixed-size header read cannot fail");
  if (crc32(Bytes, v2::HeaderBytes - 4) != HeaderCrc)
    return formatError("cache header checksum mismatch");

  // Section layout sanity: contiguous, in order, no overflow. A v3
  // (XIP) payload may sit past the trace index by less than one page of
  // zero padding, and must start page-aligned so the mapping is
  // executable in place.
  uint64_t IndexEnd =
      static_cast<uint64_t>(TraceIndexOffset) + TraceIndexSize;
  if (ModuleTableOffset != v2::HeaderBytes ||
      TraceIndexOffset !=
          static_cast<uint64_t>(ModuleTableOffset) + ModuleTableSize)
    return formatError("cache section layout inconsistent");
  if (Xip) {
    if (PayloadOffset < IndexEnd ||
        PayloadOffset - IndexEnd >= v2::PayloadAlign ||
        PayloadOffset % v2::PayloadAlign != 0)
      return formatError("XIP payload section not page-aligned");
  } else if (PayloadOffset != IndexEnd) {
    return formatError("cache section layout inconsistent");
  }
  if (static_cast<uint64_t>(NumTraces) *
          (HasOptGen ? v2::OptIndexEntryBytes : v2::IndexEntryBytes) >
      TraceIndexSize)
    return formatError("trace index smaller than its entry count");
  return Status::success();
}

Status CacheFileView::parseSections() {
  // A certified file carries the certificate section past the declared
  // (header-covered) size; an uncertified file must end exactly there.
  if (HasCerts ? Size < declaredFileBytes()
               : Size != declaredFileBytes())
    return formatError("cache file size does not match header");

  const uint8_t *ModTable = Data + ModuleTableOffset;
  if (crc32(ModTable, ModuleTableSize) != ModuleTableCrc)
    return formatError("module table checksum mismatch");
  ByteReader ModReader(ModTable, ModuleTableSize);
  Modules.reserve(NumModules);
  for (uint32_t I = 0; I != NumModules && !ModReader.failed(); ++I)
    Modules.push_back(ModuleKey::deserialize(ModReader));
  if (ModReader.failed() || !ModReader.atEnd())
    return formatError("truncated or oversized module table");

  const uint8_t *Index = Data + TraceIndexOffset;
  if (crc32(Index, TraceIndexSize) != TraceIndexCrc)
    return formatError("trace index checksum mismatch");
  const size_t EntryBytes =
      HasOptGen ? v2::OptIndexEntryBytes : v2::IndexEntryBytes;
  ByteReader IndexReader(Index,
                         static_cast<size_t>(NumTraces) * EntryBytes);
  Entries.reserve(NumTraces);
  for (uint32_t I = 0; I != NumTraces; ++I) {
    TraceIndexEntry E;
    E.GuestStart = IndexReader.readU32();
    E.ModuleIndex = IndexReader.readU32();
    E.GuestInstCount = IndexReader.readU32();
    E.CodeOffset = IndexReader.readU32();
    E.CodeSize = IndexReader.readU32();
    E.CodeCrc = IndexReader.readU32();
    E.MetaOffset = IndexReader.readU32();
    E.ExitCount = IndexReader.readU32();
    E.RelocSize = IndexReader.readU32();
    E.Heat = IndexReader.readU32(); // Former Reserved word.
    if (HasOptGen)
      E.OptGen = IndexReader.readU32();
    if (IndexReader.failed())
      return formatError("truncated trace index");
    // Entry bounds: everything an entry points at must land inside its
    // section, so later accessors can index without checks.
    if (E.ModuleIndex >= NumModules)
      return formatError("trace module index out of range");
    if (static_cast<uint64_t>(E.CodeOffset) + E.CodeSize > PayloadSize)
      return formatError("trace code outside payload section");
    uint64_t MetaEnd = static_cast<uint64_t>(E.MetaOffset) +
                       static_cast<uint64_t>(E.ExitCount) *
                           v2::ExitRecordBytes +
                       E.RelocSize;
    if (MetaEnd > TraceIndexSize)
      return formatError("trace metadata outside index section");
    Entries.push_back(E);
  }
  if (HasCerts)
    parseCertSection();
  return Status::success();
}

void CacheFileView::parseCertSection() {
  // Certificate damage never fails the open: the code sections stand on
  // their own CRCs, so a corrupt cert section degrades every trace to a
  // full re-prove at consumption instead of discarding the file.
  CertsCorrupt = true;
  const uint64_t Declared = declaredFileBytes();
  if (Size < Declared + v2::CertSectHeaderBytes)
    return;
  const uint8_t *Sect = Data + Declared;
  ByteReader Reader(Sect, v2::CertSectHeaderBytes);
  const uint32_t SectMagic = Reader.readU32();
  const uint32_t Count = Reader.readU32();
  const uint32_t BlobBytes = Reader.readU32();
  const uint32_t DirCrc = Reader.readU32();
  if (SectMagic != v2::CertSectMagic || Count != NumTraces)
    return;
  const uint64_t DirBytes =
      static_cast<uint64_t>(Count) * v2::CertDirEntryBytes;
  if (Size !=
      Declared + v2::CertSectHeaderBytes + DirBytes + BlobBytes)
    return;
  const uint8_t *Dir = Sect + v2::CertSectHeaderBytes;
  if (crc32(Dir, DirBytes) != DirCrc)
    return;
  ByteReader DirReader(Dir, DirBytes);
  std::vector<std::pair<uint32_t, uint32_t>> Parsed;
  Parsed.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    uint32_t Off = DirReader.readU32();
    uint32_t Sz = DirReader.readU32();
    if (static_cast<uint64_t>(Off) + Sz > BlobBytes)
      return;
    Parsed.emplace_back(Off, Sz);
  }
  CertDir = std::move(Parsed);
  CertBlobBase = Dir + DirBytes;
  CertsCorrupt = false;
}

ErrorOr<CacheFileView> CacheFileView::open(std::vector<uint8_t> Bytes,
                                           Depth D) {
  CacheFileView View;
  View.OpenDepth = D;
  View.Owned = std::move(Bytes);
  View.Data = View.Owned.data();
  View.Size = View.Owned.size();
  Status S = View.parseHeader(View.Data, View.Size);
  if (!S.ok())
    return S;
  if (D == Depth::HeaderOnly) {
    // An in-memory image is complete, so the declared size is checkable
    // even without parsing the sections. Certified files legitimately
    // extend past the declared size (the trailing cert section).
    if (View.HasCerts ? View.Size < View.declaredFileBytes()
                      : View.Size != View.declaredFileBytes())
      return formatError("cache file size does not match header");
    return View;
  }
  S = View.parseSections();
  if (!S.ok())
    return S;
  return View;
}

ErrorOr<CacheFileView> CacheFileView::openFile(const std::string &Path,
                                               Depth D) {
  if (D == Depth::HeaderOnly) {
    auto Prefix = readFileRange(Path, 0, v2::HeaderBytes);
    if (!Prefix)
      return Prefix.status();
    CacheFileView View;
    View.OpenDepth = D;
    View.Owned = Prefix.take();
    View.Data = View.Owned.data();
    View.Size = View.Owned.size();
    Status S = View.parseHeader(View.Data, View.Size);
    if (!S.ok())
      return S;
    // Truncation is detectable without reading the body: the header
    // declares the exact file size.
    auto OnDisk = fileSize(Path);
    if (!OnDisk)
      return OnDisk.status();
    if (View.HasCerts ? *OnDisk < View.declaredFileBytes()
                      : *OnDisk != View.declaredFileBytes())
      return formatError("cache file size does not match header");
    return View;
  }

  auto Mapped = MappedFile::open(Path);
  if (!Mapped)
    return Mapped.status();
  CacheFileView View;
  View.OpenDepth = D;
  View.Map = Mapped.take();
  View.Data = View.Map.data();
  View.Size = View.Map.size();
  Status S = View.parseHeader(View.Data, View.Size);
  if (!S.ok())
    return S;
  S = View.parseSections();
  if (!S.ok())
    return S;
  return View;
}

std::vector<ExitRecord> CacheFileView::readExits(uint32_t I) const {
  std::vector<ExitRecord> Exits;
  Exits.reserve(Entries[I].ExitCount);
  for (uint32_t K = 0; K != Entries[I].ExitCount; ++K)
    Exits.push_back(exitRecord(I, K));
  return Exits;
}

ExitRecord CacheFileView::exitRecord(uint32_t I, uint32_t K) const {
  assert(OpenDepth == Depth::Index && "exits need an index-deep open");
  const TraceIndexEntry &E = Entries[I];
  assert(K < E.ExitCount && "exit index out of range");
  ByteReader Reader(Data + TraceIndexOffset + E.MetaOffset +
                        static_cast<size_t>(K) * v2::ExitRecordBytes,
                    v2::ExitRecordBytes);
  ExitRecord Exit;
  Exit.Kind = Reader.readU8();
  Exit.InstIndex = Reader.readU32();
  Exit.Target = Reader.readU32();
  Exit.LinkedStart = Reader.readU32();
  assert(!Reader.failed() && "exit heap bounds were validated at open");
  return Exit;
}

std::vector<uint8_t> CacheFileView::readRelocMask(uint32_t I) const {
  assert(OpenDepth == Depth::Index && "masks need an index-deep open");
  const TraceIndexEntry &E = Entries[I];
  const uint8_t *Mask = Data + TraceIndexOffset + E.MetaOffset +
                        static_cast<size_t>(E.ExitCount) *
                            v2::ExitRecordBytes;
  return std::vector<uint8_t>(Mask, Mask + E.RelocSize);
}

const uint8_t *CacheFileView::codeBytesOf(uint32_t I) const {
  assert(OpenDepth == Depth::Index && "payload needs an index-deep open");
  return Data + PayloadOffset + Entries[I].CodeOffset;
}

const uint8_t *CacheFileView::payloadBytes() const {
  assert(OpenDepth == Depth::Index && "payload needs an index-deep open");
  return Data + PayloadOffset;
}

bool CacheFileView::codeCrcOk(uint32_t I) const {
  const TraceIndexEntry &E = Entries[I];
  return crc32(codeBytesOf(I), E.CodeSize) == E.CodeCrc;
}

std::pair<const uint8_t *, size_t>
CacheFileView::certBlobOf(uint32_t I) const {
  if (!certsPresent() || I >= CertDir.size())
    return {nullptr, 0};
  const auto &[Off, Sz] = CertDir[I];
  if (Sz == 0)
    return {nullptr, 0};
  return {CertBlobBase + Off, Sz};
}

ErrorOr<TraceRecord> CacheFileView::record(uint32_t I) const {
  const TraceIndexEntry &E = Entries[I];
  if (!codeCrcOk(I))
    return formatError("trace code checksum mismatch");
  TraceRecord Rec;
  Rec.GuestStart = E.GuestStart;
  Rec.ModuleIndex = E.ModuleIndex;
  Rec.GuestInstCount = E.GuestInstCount;
  const uint8_t *Code = codeBytesOf(I);
  Rec.Code.assign(Code, Code + E.CodeSize);
  Rec.Exits = readExits(I);
  Rec.RelocMask = readRelocMask(I);
  Rec.Heat = E.Heat;
  Rec.OptGen = E.OptGen;
  auto [CertData, CertSize] = certBlobOf(I);
  if (CertData)
    Rec.Cert.assign(CertData, CertData + CertSize);
  return Rec;
}

uint64_t CacheFileView::codeBytes() const {
  uint64_t Total = 0;
  for (const TraceIndexEntry &E : Entries)
    Total += E.CodeSize;
  return Total;
}

uint64_t CacheFileView::dataBytes() const {
  uint64_t Total = 0;
  for (const TraceIndexEntry &E : Entries)
    Total += traceDataBytes(E.ExitCount, E.GuestInstCount);
  return Total;
}
