//===- persist/CacheView.h - Indexed cache-file (v2) reader -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-copy reader for cache-file format v2. The v2 layout front-loads
/// everything the database and the prime path need — compatibility
/// hashes, module keys, and a fixed-size per-trace index — so scans and
/// priming never touch trace payload bytes:
///
///   [ header 76 B                                    ] crc: HeaderCrc
///   [ module table: NumModules serialized ModuleKeys ] crc: ModuleTableCrc
///   [ trace index: NumTraces x 40 B entries          ]
///   [   + metadata heap: exits (13 B each) and       ] crc: TraceIndexCrc
///   [     reloc masks, in entry order                ]
///   [ payload: concatenated trace code images        ] crc: per-entry CodeCrc
///
/// Header layout (all fields little-endian):
///
///   +0  u32 Magic "PCC2"        +40 u32 ModuleTableOffset (== 76)
///   +4  u32 Version (2 or 3)    +44 u32 ModuleTableSize
///   +8  u64 EngineHash          +48 u32 TraceIndexOffset
///   +16 u64 ToolHash            +52 u32 TraceIndexSize
///   +24 u8  SpecBits            +56 u32 PayloadOffset
///   +25 u8  Flags               +60 u32 PayloadSize
///   +26 u16 WriterTag           +64 u32 ModuleTableCrc
///   +28 u32 Generation          +68 u32 TraceIndexCrc
///   +32 u32 NumModules          +72 u32 HeaderCrc (over bytes [0, 72))
///   +36 u32 NumTraces
///
/// Flags bit 0 is PositionIndependent (bit-compatible with the former
/// 0/1 byte); bit 1 marks an execute-in-place (XIP) generation; bit 2
/// marks a file whose trace-index entries are 44 bytes wide, the extra
/// trailing u32 being each trace's optimization generation (bit clear:
/// 40-byte entries, every trace generation 0 — the byte-identical
/// legacy layout); bit 3 marks a trailing certificate section past the
/// payload (validation proofs for promoted traces — see the
/// v2::CertSect* constants below). Version stays 2 for materializing
/// files and becomes
/// 3 for XIP files, whose payload section is page-aligned (the gap between the
/// trace index and the payload is zero padding, < one page) so prime
/// can hand the mapped payload directly to the engine as executable
/// trace bodies. Everything else — magic, header size, index entry
/// size — is unchanged, so v2 readers reject v3 files cleanly on the
/// version field.
///
/// CRC domains: the header CRC covers the fixed header (including the
/// two section CRCs); the module-table CRC covers the serialized module
/// keys; the trace-index CRC covers index entries *and* the metadata
/// heap — so exits, links and reloc masks are trusted right after
/// prime-time validation, while each trace's code image carries its own
/// CRC in the index, checked lazily at first execution. The v3
/// alignment padding sits outside every CRC domain and must be zero.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_CACHEVIEW_H
#define PCC_PERSIST_CACHEVIEW_H

#include "persist/CacheFile.h"
#include "support/FileSystem.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// Format v2 layout constants.
namespace v2 {
inline constexpr uint32_t Magic = 0x32434350; // "PCC2"
inline constexpr uint32_t Version = 2;
/// Format v2.1: same layout with a page-aligned, execute-in-place
/// payload section. A distinct version number so v2 readers reject it.
inline constexpr uint32_t XipVersion = 3;
inline constexpr size_t HeaderBytes = 76;
inline constexpr size_t IndexEntryBytes = 40;
/// Index-entry size when the OptGen flag is set: the 40-byte entry plus
/// one trailing u32 per-trace optimization generation.
inline constexpr size_t OptIndexEntryBytes = 44;
inline constexpr size_t ExitRecordBytes = 13;
/// Header flags byte (offset +25).
inline constexpr uint8_t FlagPositionIndependent = 1u << 0;
inline constexpr uint8_t FlagExecuteInPlace = 1u << 1;
/// Some trace in the file carries a non-zero optimization generation;
/// index entries are OptIndexEntryBytes wide. Writers only set this
/// when needed, so unpromoted files stay byte-identical to pre-OptGen
/// output (and readable by pre-OptGen readers).
inline constexpr uint8_t FlagOptGen = 1u << 2;
/// The file carries a trailing certificate section (validation proofs
/// for promoted traces) after the payload. Writers only set this when
/// some trace is certified, so uncertified files stay byte-identical
/// to pre-certificate output.
inline constexpr uint8_t FlagCertificates = 1u << 3;
/// XIP payload sections start on this boundary.
inline constexpr uint32_t PayloadAlign = 4096;

/// Certificate-section layout (appended after the payload when
/// FlagCertificates is set):
///
///   u32 SectMagic 'PCRT'   u32 Count (== NumTraces)
///   u32 BlobBytes           u32 DirCrc (over the directory)
///   Count x { u32 BlobOffset, u32 BlobSize }   (0,0 = uncertified)
///   BlobBytes of concatenated certificate blobs
///
/// The directory is CRC'd as a whole; each blob carries its own
/// trailing CRC (analysis::Certificate), so one tampered blob rejects
/// per-trace while the rest of the section stays usable.
inline constexpr uint32_t CertSectMagic = 0x54524350; // "PCRT"
inline constexpr size_t CertSectHeaderBytes = 16;
inline constexpr size_t CertDirEntryBytes = 8;
} // namespace v2

/// Legacy (v1) on-disk magic. Readers refuse v1 files; the magic
/// is recognised only so a v1 file is refused as a VersionMismatch that
/// names the format, never quarantined as corrupt.
inline constexpr uint32_t LegacyCacheMagic = 0x31434350; // "PCC1"

/// One fixed-size trace-index entry.
struct TraceIndexEntry {
  uint32_t GuestStart = 0;
  uint32_t ModuleIndex = 0;
  uint32_t GuestInstCount = 0;
  /// Code image location, relative to the payload section.
  uint32_t CodeOffset = 0;
  uint32_t CodeSize = 0;
  /// CRC32 of the raw code image (checked lazily at materialization).
  uint32_t CodeCrc = 0;
  /// Exit records + reloc mask, relative to the trace-index section.
  uint32_t MetaOffset = 0;
  uint32_t ExitCount = 0;
  uint32_t RelocSize = 0;
  /// Saturating lifetime execution count, accumulated at finalize
  /// (the former Reserved word; v2 writers emitted 0 there).
  uint32_t Heat = 0;
  /// Optimization generation (trailing word of the wide entry layout;
  /// 0 for files without the FlagOptGen header bit).
  uint32_t OptGen = 0;
};

/// Read-only view of a v2 cache file. Owns its backing bytes (a loaded
/// buffer or a memory mapping); accessors hand out pointers into them,
/// so the view must outlive anything priming from it.
class CacheFileView {
public:
  /// How much of the file open() validates and parses.
  enum class Depth : uint8_t {
    /// Header only: compatibility hashes, generation and declared sizes.
    /// openFile() reads just the first 76 bytes from disk.
    HeaderOnly,
    /// Header + module table + trace index (all CRC-checked). Payload
    /// bytes are mapped but never read.
    Index,
  };

  /// Opens a view over an in-memory file image.
  static ErrorOr<CacheFileView> open(std::vector<uint8_t> Bytes,
                                     Depth D = Depth::Index);

  /// Opens a view over the file at \p Path. HeaderOnly reads a fixed
  /// prefix; Index memory-maps the whole file.
  static ErrorOr<CacheFileView> openFile(const std::string &Path,
                                         Depth D = Depth::Index);

  Depth depth() const { return OpenDepth; }

  /// \name Header fields
  /// @{
  uint64_t engineHash() const { return EngineHash; }
  uint64_t toolHash() const { return ToolHash; }
  uint8_t specBits() const { return SpecBits; }
  bool positionIndependent() const { return PositionIndependent; }
  /// True for a v3 execute-in-place generation (page-aligned payload).
  bool executeInPlace() const { return Xip; }
  /// True when index entries carry per-trace optimization generations
  /// (header FlagOptGen; the wide entry layout).
  bool optGenEntries() const { return HasOptGen; }
  /// True when the header declares a trailing certificate section
  /// (FlagCertificates), whether or not it parsed cleanly.
  bool certsFlagged() const { return HasCerts; }
  uint32_t formatVersion() const { return FormatVersion; }
  uint32_t generation() const { return Generation; }
  /// Low 16 bits of the last writer's pid (0 when untagged).
  uint16_t writerTag() const { return WriterTag; }
  uint32_t numModules() const { return NumModules; }
  uint32_t numTraces() const { return NumTraces; }
  /// Total file size declared by the header.
  uint64_t declaredFileBytes() const {
    return static_cast<uint64_t>(PayloadOffset) + PayloadSize;
  }
  /// Payload section placement (header fields; valid at any depth).
  uint32_t payloadOffset() const { return PayloadOffset; }
  uint32_t payloadSize() const { return PayloadSize; }
  /// @}

  /// \name Index accessors (Depth::Index only)
  /// @{
  const std::vector<ModuleKey> &modules() const { return Modules; }
  const TraceIndexEntry &entry(uint32_t I) const { return Entries[I]; }

  /// Decodes trace \p I's exit records from the metadata heap.
  std::vector<ExitRecord> readExits(uint32_t I) const;
  /// Decodes exit \p K of trace \p I (K < entry(I).ExitCount).
  ExitRecord exitRecord(uint32_t I, uint32_t K) const;
  /// Copies trace \p I's reloc mask from the metadata heap.
  std::vector<uint8_t> readRelocMask(uint32_t I) const;
  /// Raw (stored, never rebased) code image of trace \p I.
  const uint8_t *codeBytesOf(uint32_t I) const;
  /// Base of the whole payload section (Depth::Index only). For XIP
  /// files this is the page-aligned region prime borrows wholesale.
  const uint8_t *payloadBytes() const;
  /// Checks trace \p I's code image against its indexed CRC.
  bool codeCrcOk(uint32_t I) const;

  /// True when a structurally valid certificate section is available
  /// (flagged, directory parsed and CRC-clean). Individual blobs still
  /// verify themselves at consumption.
  bool certsPresent() const { return HasCerts && !CertsCorrupt; }
  /// True when the header flagged certificates but the trailing section
  /// is damaged (truncated, bad magic/count, directory CRC or bounds).
  /// The file itself stays usable; every trace then re-proves at
  /// consumption instead of cert-checking.
  bool certSectionCorrupt() const { return CertsCorrupt; }
  /// Certificate blob of trace \p I, or (nullptr, 0) when the trace is
  /// uncertified or the section is absent/corrupt. The blob bytes are
  /// not yet CRC-verified — consumers verify per blob.
  std::pair<const uint8_t *, size_t> certBlobOf(uint32_t I) const;

  /// Fully decodes trace \p I into a TraceRecord, CRC-checking its code
  /// image (and attaching its certificate blob, when one is present).
  /// The eager-compat path for tools and accumulation.
  ErrorOr<TraceRecord> record(uint32_t I) const;

  /// Totals computed from the index alone (no payload reads).
  uint64_t codeBytes() const;
  uint64_t dataBytes() const;
  /// @}

private:
  Depth OpenDepth = Depth::HeaderOnly;

  /// Backing storage: exactly one of these is active.
  std::vector<uint8_t> Owned;
  MappedFile Map;
  const uint8_t *Data = nullptr;
  size_t Size = 0;

  /// Parsed header.
  uint64_t EngineHash = 0;
  uint64_t ToolHash = 0;
  uint8_t SpecBits = 0;
  bool PositionIndependent = false;
  bool Xip = false;
  bool HasOptGen = false;
  bool HasCerts = false;
  bool CertsCorrupt = false;
  uint32_t FormatVersion = 0;
  uint16_t WriterTag = 0;
  uint32_t Generation = 0;
  uint32_t NumModules = 0;
  uint32_t NumTraces = 0;
  uint32_t ModuleTableOffset = 0;
  uint32_t ModuleTableSize = 0;
  uint32_t TraceIndexOffset = 0;
  uint32_t TraceIndexSize = 0;
  uint32_t PayloadOffset = 0;
  uint32_t PayloadSize = 0;
  uint32_t ModuleTableCrc = 0;
  uint32_t TraceIndexCrc = 0;

  std::vector<ModuleKey> Modules;
  std::vector<TraceIndexEntry> Entries;
  /// Certificate directory: (offset into the blob area, size) per
  /// trace; (0, 0) marks an uncertified trace. Empty when the section
  /// is absent or corrupt.
  std::vector<std::pair<uint32_t, uint32_t>> CertDir;
  const uint8_t *CertBlobBase = nullptr;

  Status parseHeader(const uint8_t *Bytes, size_t Available);
  Status parseSections();
  void parseCertSection();
};

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_CACHEVIEW_H
