//===- support/ByteStream.cpp ---------------------------------------------===//

#include "support/ByteStream.h"

#include <cassert>

using namespace pcc;

void ByteWriter::writeString(const std::string &Str) {
  assert(Str.size() <= UINT32_MAX && "string too long to serialize");
  writeU32(static_cast<uint32_t>(Str.size()));
  writeBytes(Str.data(), Str.size());
}

void ByteWriter::writeBlob(const std::vector<uint8_t> &Blob) {
  assert(Blob.size() <= UINT32_MAX && "blob too long to serialize");
  writeU32(static_cast<uint32_t>(Blob.size()));
  writeBytes(Blob.data(), Blob.size());
}

void ByteWriter::patchU32(size_t Offset, uint32_t Value) {
  assert(Offset + 4 <= Bytes.size() && "patch offset out of range");
  for (unsigned I = 0; I != 4; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

bool ByteReader::checkAvailable(size_t Count) {
  if (Failed)
    return false;
  if (Count > Size - Offset) {
    Failed = true;
    return false;
  }
  return true;
}

uint64_t ByteReader::readLittleEndian(unsigned NumBytes) {
  if (!checkAvailable(NumBytes))
    return 0;
  uint64_t Value = 0;
  for (unsigned I = 0; I != NumBytes; ++I)
    Value |= static_cast<uint64_t>(Data[Offset + I]) << (8 * I);
  Offset += NumBytes;
  return Value;
}

uint8_t ByteReader::readU8() {
  return static_cast<uint8_t>(readLittleEndian(1));
}

uint16_t ByteReader::readU16() {
  return static_cast<uint16_t>(readLittleEndian(2));
}

uint32_t ByteReader::readU32() {
  return static_cast<uint32_t>(readLittleEndian(4));
}

uint64_t ByteReader::readU64() { return readLittleEndian(8); }

std::string ByteReader::readString() {
  uint32_t Length = readU32();
  if (!checkAvailable(Length))
    return std::string();
  std::string Str(reinterpret_cast<const char *>(Data + Offset), Length);
  Offset += Length;
  return Str;
}

void ByteReader::readBytes(void *Out, size_t Count) {
  if (!checkAvailable(Count)) {
    std::memset(Out, 0, Count);
    return;
  }
  std::memcpy(Out, Data + Offset, Count);
  Offset += Count;
}

std::vector<uint8_t> ByteReader::readBlob() {
  uint32_t Length = readU32();
  if (!checkAvailable(Length))
    return {};
  std::vector<uint8_t> Blob(Data + Offset, Data + Offset + Length);
  Offset += Length;
  return Blob;
}

void ByteReader::skip(size_t Count) {
  if (!checkAvailable(Count))
    return;
  Offset += Count;
}
