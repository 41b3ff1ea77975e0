//===- persist/CacheFile.h - On-disk persistent cache format ----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent code cache file: "a file stored on disk containing
/// traces and their associated data structures... trace links and
/// translation maps" (Section 3.2.1). The file carries:
///
///   * engine-version and tool hashes (reuse across versions or under a
///     different tool is rejected outright),
///   * one ModuleKey per executable mapping present at creation,
///   * one record per trace: guest location, translated code bytes, exit
///     records including persisted trace links, and (in PIC mode) the
///     relocation mask that makes the translation position independent,
///   * CRCs over the header, module table and trace index, plus one per
///     trace code image, so corruption is detected before any trace is
///     reused (docs/CACHE_FORMAT.md has the layout).
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_CACHEFILE_H
#define PCC_PERSIST_CACHEFILE_H

#include "dbi/Trace.h"
#include "isa/Instruction.h"
#include "persist/Key.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// A persisted trace exit, including its persisted link.
struct ExitRecord {
  uint8_t Kind = 0; ///< dbi::ExitKind.
  uint32_t InstIndex = 0;
  uint32_t Target = 0;      ///< Absolute guest target (0 if none).
  uint32_t LinkedStart = 0; ///< Guest start of the linked trace (0 if
                            ///< the exit was unlinked at store time).
};

/// One persisted trace.
struct TraceRecord {
  uint32_t GuestStart = 0;
  /// Index into CacheFile::Modules of the module containing GuestStart.
  uint32_t ModuleIndex = 0;
  uint32_t GuestInstCount = 0;
  /// Translated pool image (prologue + encoded instructions + stubs).
  std::vector<uint8_t> Code;
  std::vector<ExitRecord> Exits;
  /// PIC mode only: bit I set when instruction I's immediate holds an
  /// absolute address that must be rebased on relocated reuse.
  std::vector<uint8_t> RelocMask;
  /// Saturating lifetime execution count, accumulated across the runs
  /// that contributed this trace (stored in the index's former Reserved
  /// word, so v2 readers skip it). Groundwork for profile-guided layout.
  uint32_t Heat = 0;
  /// Optimization generation: how many finalize-time promotion passes
  /// this body has been proven through (0 = the cheap first
  /// translation). Serialized as an extra index word only when some
  /// trace in the file is promoted (header flag bit 2), so gen-0 files
  /// stay byte-identical to pre-OptGen writers and old readers still
  /// parse them.
  uint32_t OptGen = 0;
  /// Serialized analysis::Certificate blob proving this body equivalent
  /// to its gen-0 guest source (empty when uncertified). Stored in the
  /// trailing certificate section only when some trace carries one
  /// (header flag bit 3), so uncertified files stay byte-identical.
  /// The blob is self-checking (trailing CRC), so one tampered
  /// certificate degrades that trace to a full re-prove without
  /// poisoning the rest of the file.
  std::vector<uint8_t> Cert;

  bool relocBit(uint32_t InstIndex) const {
    uint32_t Byte = InstIndex / 8;
    return Byte < RelocMask.size() &&
           (RelocMask[Byte] >> (InstIndex % 8)) & 1;
  }
  void setRelocBit(uint32_t InstIndex) {
    uint32_t Byte = InstIndex / 8;
    if (RelocMask.size() <= Byte)
      RelocMask.resize(Byte + 1, 0);
    RelocMask[Byte] |= uint8_t(1u << (InstIndex % 8));
  }

  /// The stored body encodings: GuestInstCount instructions behind the
  /// code image's prologue.
  const uint8_t *bodyBytes() const;
  /// Decodes the stored body; InvalidFormat when the code image is too
  /// small to hold it.
  ErrorOr<std::vector<isa::Instruction>> decodeBody() const;
};

/// In-memory image of a persistent cache file.
struct CacheFile {
  uint64_t EngineHash = 0;
  uint64_t ToolHash = 0;
  /// Serialized dbi::InstrumentationSpec flags (diagnostics; the tool
  /// hash already covers them).
  uint8_t SpecBits = 0;
  /// True when translations are position independent.
  bool PositionIndependent = false;
  /// True for an execute-in-place (XIP) generation: serialize() emits
  /// format v3 with a page-aligned payload section that consumers mmap
  /// directly as executable trace bodies. Requires PositionIndependent.
  bool ExecuteInPlace = false;
  /// Executable mappings at creation time; index 0 is the application.
  std::vector<ModuleKey> Modules;
  std::vector<TraceRecord> Traces;
  /// Accumulation generation: how many runs contributed to this cache.
  uint32_t Generation = 1;
  /// Low 16 bits of the last writer's process id (diagnostics only; the
  /// v2 header stores it in the former Reserved0 field, so old readers
  /// ignore it). 0 when unknown (unset by caller).
  uint16_t WriterTag = 0;
  /// On-disk format the file was deserialized from (2 = indexed, 3 =
  /// indexed XIP). Not serialized; serialize() emits v2, or v3 when
  /// ExecuteInPlace is set.
  uint32_t SourceFormat = 2;

  /// Highest per-trace optimization generation present (0 when every
  /// trace is an unpromoted first translation). Non-zero switches
  /// serialize() to the wide (OptGen-bearing) index-entry layout.
  uint32_t maxOptGen() const;

  /// True when any trace carries a validation certificate; switches
  /// serialize() to append the trailing certificate section (header
  /// flag bit 3).
  bool hasCerts() const;

  /// Total translated-code bytes (the code half of Figure 9).
  uint64_t codeBytes() const;
  /// Total data-structure bytes (the data half of Figure 9), using the
  /// same footprint formula as the resident cache.
  uint64_t dataBytes() const;

  /// Serializes in the indexed v2 format (header + module table + trace
  /// index + payload, with per-section and per-trace CRCs). The output
  /// buffer is reserved from a computed exact size, so appending never
  /// reallocates.
  std::vector<uint8_t> serialize() const;
  /// Exact byte size serialize() would produce, without producing it
  /// (cost accounting charges by size before the store serializes).
  size_t serializedSize() const;
  /// Deserializes a v2 or v3 image, validating every CRC (header,
  /// module table, trace index, and every trace payload — this is the
  /// eager path for tools and accumulation; scans and priming use
  /// CacheFileView instead). A legacy v1 image is a VersionMismatch.
  /// SourceFormat records which format the bytes were in.
  static ErrorOr<CacheFile> deserialize(const std::vector<uint8_t> &Bytes);

  /// Deep structural validation beyond what deserialize() enforces:
  /// every trace's start lies inside its module's mapping, code images
  /// are large enough for their instruction counts, exit instruction
  /// indices are in range, linked exits reference traces present in the
  /// file, and no two traces share a guest start. Returns the first
  /// violation found.
  Status validate() const;
};

/// Data-structure footprint of one trace with \p NumExits exits and
/// \p NumInsts instructions (must agree with
/// dbi::TranslatedTrace::dataBytes()).
uint32_t traceDataBytes(uint32_t NumExits, uint32_t NumInsts);

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_CACHEFILE_H
