//===- support/ByteStream.h - Little-endian byte serialization --*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounds-checked little-endian serialization used by the binary module
/// format and the persistent cache file format. Readers never trust their
/// input: every read is length-checked and failure poisons the reader, so
/// deserializers can check a single error flag at the end.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_SUPPORT_BYTESTREAM_H
#define PCC_SUPPORT_BYTESTREAM_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace pcc {

/// Appends little-endian encoded values to a growable byte buffer.
/// Every write is inline and appends with one copy, so a serializer
/// that reserve()s its exact size writes straight into the buffer:
/// no per-byte calls and no zero-fill ahead of the copy.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Bytes.push_back(Value); }
  void writeU16(uint16_t Value) { writeLittleEndian<2>(Value); }
  void writeU32(uint32_t Value) { writeLittleEndian<4>(Value); }
  void writeU64(uint64_t Value) { writeLittleEndian<8>(Value); }
  void writeI64(int64_t Value) {
    writeU64(static_cast<uint64_t>(Value));
  }

  /// Writes each argument as a u32, all with one append (a fixed-width
  /// record such as a cache-file index entry).
  template <typename... Words> void writeU32s(Words... Values) {
    uint8_t Encoded[4 * sizeof...(Words)];
    uint8_t *Out = Encoded;
    for (uint32_t Value : {static_cast<uint32_t>(Values)...})
      for (unsigned I = 0; I != 4; ++I)
        *Out++ = static_cast<uint8_t>(Value >> (8 * I));
    Bytes.insert(Bytes.end(), Encoded, Out);
  }

  /// Writes a u32 length prefix followed by the raw string bytes.
  void writeString(const std::string &Str);

  /// Writes raw bytes with no length prefix.
  void writeBytes(const void *Data, size_t Size) {
    const uint8_t *First = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), First, First + Size);
  }

  /// Writes \p Count zero bytes (alignment padding).
  void writeZeros(size_t Count) { Bytes.resize(Bytes.size() + Count); }

  /// Writes a u32 length prefix followed by the raw bytes.
  void writeBlob(const std::vector<uint8_t> &Blob);

  /// Overwrites 4 bytes at \p Offset (for back-patching size fields).
  void patchU32(size_t Offset, uint32_t Value);

  /// Pre-allocates capacity for \p Total bytes so a serializer with a
  /// computed size estimate appends without reallocation churn.
  void reserve(size_t Total) { Bytes.reserve(Total); }

  size_t capacity() const { return Bytes.capacity(); }
  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  template <unsigned NumBytes> void writeLittleEndian(uint64_t Value) {
    uint8_t Encoded[NumBytes];
    for (unsigned I = 0; I != NumBytes; ++I)
      Encoded[I] = static_cast<uint8_t>(Value >> (8 * I));
    Bytes.insert(Bytes.end(), Encoded, Encoded + NumBytes);
  }

  std::vector<uint8_t> Bytes;
};

/// Reads little-endian values from a byte span. Any out-of-bounds read
/// sets a sticky failure flag and yields zeroes, so a deserializer can
/// issue all its reads and check failed() once.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  uint8_t readU8();
  uint16_t readU16();
  uint32_t readU32();
  uint64_t readU64();
  int64_t readI64() { return static_cast<int64_t>(readU64()); }

  /// Reads a u32-length-prefixed string. On overflow returns "" and fails.
  std::string readString();

  /// Reads \p Size raw bytes into \p Out. On overflow zero-fills and fails.
  void readBytes(void *Out, size_t Size);

  /// Reads a u32-length-prefixed byte blob.
  std::vector<uint8_t> readBlob();

  /// Skips \p Count bytes.
  void skip(size_t Count);

  bool failed() const { return Failed; }
  size_t offset() const { return Offset; }
  size_t remaining() const { return Failed ? 0 : Size - Offset; }
  bool atEnd() const { return Failed || Offset == Size; }

private:
  uint64_t readLittleEndian(unsigned NumBytes);
  bool checkAvailable(size_t Count);

  const uint8_t *Data;
  size_t Size;
  size_t Offset = 0;
  bool Failed = false;
};

} // namespace pcc

#endif // PCC_SUPPORT_BYTESTREAM_H
