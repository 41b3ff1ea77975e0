//===- binary/Module.h - Guest binary module format -------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module is a guest executable or shared library: the analogue of an
/// ELF image in the paper's Linux/IA32 setup. It carries everything the
/// persistent cache keys hash (Section 3.2.1): path, program header,
/// sizes, and a modification timestamp — plus the text/data payload, an
/// export symbol table, import entries resolved through GOT slots, and
/// relocation lists (all code addresses in the ISA are absolute, so text
/// immediates and data words holding addresses are rebased at load).
///
/// Loaded layout (single contiguous mapping at a base address B):
///
///   B .. B+textSize()            encoded instructions
///   B+dataStart() .. +DataSize   initialized data (page aligned start)
///   ... BssSize                  zero-initialized data
///
//===----------------------------------------------------------------------===//

#ifndef PCC_BINARY_MODULE_H
#define PCC_BINARY_MODULE_H

#include "isa/Instruction.h"
#include "support/Error.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace pcc {
namespace binary {

/// Guest page size; module sections and load bases are page aligned.
inline constexpr uint32_t PageSize = 4096;

/// Rounds \p Value up to the next multiple of PageSize.
inline uint32_t alignToPage(uint32_t Value) {
  return (Value + PageSize - 1) & ~(PageSize - 1);
}

/// Executable vs shared library.
enum class ModuleKind : uint8_t { Executable, SharedLibrary };

/// An exported function: name plus module-relative text offset.
struct Symbol {
  std::string Name;
  uint32_t Offset = 0;

  bool operator==(const Symbol &Other) const = default;
};

/// An import resolved at load time: the loader looks up \c SymbolName in
/// \c LibraryName and stores the absolute address into the 32-bit data
/// word at \c GotOffset (module-relative offset of the slot within the
/// data section).
struct ImportEntry {
  std::string SymbolName;
  std::string LibraryName;
  uint32_t GotOffset = 0;

  bool operator==(const ImportEntry &Other) const = default;
};

/// A guest binary image.
class Module {
public:
  Module() = default;
  Module(std::string Name, std::string Path, ModuleKind Kind)
      : Name(std::move(Name)), Path(std::move(Path)), Kind(Kind) {}

  const std::string &name() const { return Name; }
  const std::string &path() const { return Path; }
  ModuleKind kind() const { return Kind; }
  bool isExecutable() const { return Kind == ModuleKind::Executable; }

  /// \name Code
  /// @{
  const std::vector<isa::Instruction> &instructions() const {
    return Insts;
  }
  std::vector<isa::Instruction> &instructions() { return Insts; }
  void setInstructions(std::vector<isa::Instruction> NewInsts) {
    Insts = std::move(NewInsts);
  }
  /// Size of the text section in bytes.
  uint32_t textSize() const {
    return static_cast<uint32_t>(Insts.size()) * isa::InstructionSize;
  }
  /// @}

  /// \name Data
  /// @{
  const std::vector<uint8_t> &data() const { return Data; }
  std::vector<uint8_t> &data() { return Data; }
  void setData(std::vector<uint8_t> NewData) { Data = std::move(NewData); }
  uint32_t bssSize() const { return BssSize; }
  void setBssSize(uint32_t Size) { BssSize = Size; }
  /// Module-relative offset where the data section starts.
  uint32_t dataStart() const { return alignToPage(textSize()); }
  /// Total mapping size in bytes (text + data + bss, page aligned).
  uint32_t imageSize() const {
    return alignToPage(dataStart() +
                       static_cast<uint32_t>(Data.size()) + BssSize);
  }
  /// @}

  /// \name Entry point (executables)
  /// @{
  uint32_t entryOffset() const { return EntryOffset; }
  void setEntryOffset(uint32_t Offset) { EntryOffset = Offset; }
  /// @}

  /// \name Symbols and imports
  /// @{
  const std::vector<Symbol> &symbols() const { return Symbols; }
  void addSymbol(std::string SymName, uint32_t Offset) {
    Symbols.push_back(Symbol{std::move(SymName), Offset});
  }
  /// Module-relative text offset of \p SymName, if exported.
  std::optional<uint32_t> findSymbol(const std::string &SymName) const;

  const std::vector<ImportEntry> &imports() const { return Imports; }
  void addImport(std::string SymName, std::string LibName,
                 uint32_t GotOffset) {
    Imports.push_back(
        ImportEntry{std::move(SymName), std::move(LibName), GotOffset});
  }
  /// Library names this module depends on (deduplicated, insertion order).
  std::vector<std::string> dependencyNames() const;
  /// @}

  /// \name Relocations
  /// @{
  /// Marks the instruction at index \p InstIndex as holding a
  /// module-relative address in Imm that must be rebased at load.
  void addTextRelocation(uint32_t InstIndex) {
    TextRelocs.push_back(InstIndex);
  }
  /// Indices in the order they were added. The assembler adds them in
  /// instruction order, so its lists are sorted; the workload generator
  /// adds data-address fixups before code-address relocations, so its
  /// lists are two sorted runs. Finalize's PIC relocation masks
  /// binary-search a sorted list in place and sort a copy of any other.
  /// The order is part of the module hash (and so of every cache key),
  /// so it is never rearranged in place.
  const std::vector<uint32_t> &textRelocations() const {
    return TextRelocs;
  }
  /// Marks the 32-bit data word at data-section offset \p DataOffset as a
  /// module-relative address that must be rebased at load.
  void addDataRelocation(uint32_t DataOffset) {
    DataRelocs.push_back(DataOffset);
  }
  const std::vector<uint32_t> &dataRelocations() const {
    return DataRelocs;
  }
  /// @}

  /// \name Versioning (for key invalidation experiments)
  /// @{
  /// Synthetic modification timestamp (would be mtime on a real system).
  uint64_t modificationTime() const { return ModTime; }
  void setModificationTime(uint64_t Time) { ModTime = Time; }

  /// Marks the module as rebuilt: bumps the timestamp, as a static
  /// compiler or optimizer would (Section 3.2.1).
  void touch() { ++ModTime; }
  /// @}

  /// Hash of the program header (structural metadata: kind, sizes, entry,
  /// symbol/import shape). One of the key ingredients.
  uint64_t programHeaderHash() const;

  /// Hash of the full content (header + code + data + relocations).
  uint64_t contentHash() const;

  /// \name Serialization
  /// @{
  std::vector<uint8_t> serialize() const;
  static ErrorOr<Module> deserialize(const std::vector<uint8_t> &Bytes);
  /// @}

  bool operator==(const Module &Other) const = default;

private:
  std::string Name;
  std::string Path;
  ModuleKind Kind = ModuleKind::Executable;
  std::vector<isa::Instruction> Insts;
  std::vector<uint8_t> Data;
  uint32_t BssSize = 0;
  uint32_t EntryOffset = 0;
  std::vector<Symbol> Symbols;
  std::vector<ImportEntry> Imports;
  std::vector<uint32_t> TextRelocs;
  std::vector<uint32_t> DataRelocs;
  uint64_t ModTime = 1;
};

} // namespace binary
} // namespace pcc

#endif // PCC_BINARY_MODULE_H
