//===- loader/AddressSpace.h - Guest virtual address space ------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse, paged 32-bit guest address space. Pages are allocated on
/// mapRegion(); access to unmapped memory is a guest fault surfaced as a
/// Status, never undefined behaviour. The interpreter and the DBI engine
/// both execute against this memory, so results are bit-identical across
/// execution modes — the property the equivalence tests rely on.
///
/// Word accesses and instruction fetches that stay inside one page take
/// an inline fast path through a small direct-mapped cache of recently
/// used page pointers in front of the page map. Pages are never unmapped,
/// so a cached page pointer cannot go stale. Accesses that span a page
/// boundary or touch an unmapped page fall back to byte-wise code, which
/// defines the fault rule: the fault names the first unmapped byte, and a
/// store has already written every byte before it.
///
/// Not safe for concurrent use, const accessors included: the page cache
/// is filled on lookup.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_LOADER_ADDRESSSPACE_H
#define PCC_LOADER_ADDRESSSPACE_H

#include "binary/Module.h"
#include "support/Error.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace pcc {
namespace loader {

/// The GuestFault status for an access to unmapped address \p Addr
/// ("access to unmapped address 0x..."). Out of line: only fault paths
/// build the message.
Status unmappedAccess(uint32_t Addr);

/// Paged guest memory. All multi-byte accesses are little-endian and may
/// span page boundaries.
class AddressSpace {
public:
  AddressSpace() = default;
  /// Moving hands the pages over and leaves both page caches empty, so
  /// neither side keeps pointers into pages it no longer owns. Copying
  /// is not supported.
  AddressSpace(AddressSpace &&Other) noexcept
      : Pages(std::move(Other.Pages)) {
    Other.Pages.clear();
    Other.Recent = {};
  }
  AddressSpace &operator=(AddressSpace &&Other) noexcept {
    Pages = std::move(Other.Pages);
    Recent = {};
    Other.Pages.clear();
    Other.Recent = {};
    return *this;
  }

  /// Maps [Addr, Addr+Size) zero-filled. Both ends are page aligned
  /// internally. Fails if any page in the range is already mapped.
  Status mapRegion(uint32_t Addr, uint32_t Size);

  /// True if the byte at \p Addr is mapped.
  bool isMapped(uint32_t Addr) const;

  /// \name Checked accessors (guest-visible semantics)
  /// @{
  ErrorOr<uint8_t> read8(uint32_t Addr) const;
  ErrorOr<uint32_t> read32(uint32_t Addr) const {
    uint32_t Value = 0;
    uint32_t FaultAddr = 0;
    if (load32(Addr, Value, FaultAddr))
      return Value;
    return unmappedAccess(FaultAddr);
  }
  Status write8(uint32_t Addr, uint8_t Value);
  Status write32(uint32_t Addr, uint32_t Value) {
    uint32_t FaultAddr = 0;
    if (store32(Addr, Value, FaultAddr))
      return Status::success();
    return unmappedAccess(FaultAddr);
  }
  Status writeBytes(uint32_t Addr, const void *Data, uint32_t Size);
  Status readBytes(uint32_t Addr, void *Out, uint32_t Size) const;
  /// @}

  /// \name Fault-address accessors (the executor's hot path)
  /// Same semantics as read32/write32 without building a Status: they
  /// return false on a guest fault and set \p FaultAddr to the first
  /// unmapped byte. A faulting store has written the bytes before it.
  /// @{
  bool load32(uint32_t Addr, uint32_t &Value, uint32_t &FaultAddr) const {
    if (const uint8_t *Bytes = inPage(Addr, 4)) {
      Value = static_cast<uint32_t>(Bytes[0]) |
              (static_cast<uint32_t>(Bytes[1]) << 8) |
              (static_cast<uint32_t>(Bytes[2]) << 16) |
              (static_cast<uint32_t>(Bytes[3]) << 24);
      return true;
    }
    return load32Slow(Addr, Value, FaultAddr);
  }
  bool store32(uint32_t Addr, uint32_t Value, uint32_t &FaultAddr) {
    if (uint8_t *Bytes = inPage(Addr, 4)) {
      Bytes[0] = static_cast<uint8_t>(Value);
      Bytes[1] = static_cast<uint8_t>(Value >> 8);
      Bytes[2] = static_cast<uint8_t>(Value >> 16);
      Bytes[3] = static_cast<uint8_t>(Value >> 24);
      return true;
    }
    return store32Slow(Addr, Value, FaultAddr);
  }
  /// @}

  /// Reads the 8 instruction bytes at \p Addr into \p Out. Hot path for
  /// both the interpreter and trace selection.
  Status fetchInstructionBytes(uint32_t Addr, uint8_t *Out) const {
    if (const uint8_t *Bytes = inPage(Addr, isa::InstructionSize)) {
      std::memcpy(Out, Bytes, isa::InstructionSize);
      return Status::success();
    }
    return readBytes(Addr, Out, isa::InstructionSize);
  }

  /// Total mapped bytes (for memory accounting).
  uint64_t mappedBytes() const {
    return static_cast<uint64_t>(Pages.size()) * binary::PageSize;
  }

  /// Order-independent digest of the full mapped contents: pages are
  /// hashed in ascending page-number order, so two spaces with the same
  /// mappings and bytes produce the same value regardless of mapping
  /// order. Replay uses this to prove final memory is bit-identical.
  uint64_t contentHash() const;

private:
  using Page = std::vector<uint8_t>;

  /// One direct-mapped page-cache slot. The sentinel index is above
  /// every real page number, so an empty slot never matches.
  struct RecentPage {
    uint32_t Index = ~0u;
    uint8_t *Data = nullptr;
  };
  static constexpr uint32_t NumRecentPages = 256;

  /// Slot for page \p Index: the low bits folded with the higher ones,
  /// so consecutive pages take consecutive slots while regions whose
  /// bases share their low bits (executable, libraries, input, stacks)
  /// do not collide.
  static uint32_t recentSlot(uint32_t Index) {
    return (Index ^ (Index >> 8) ^ (Index >> 16)) % NumRecentPages;
  }

  /// Host bytes of page \p Index, or nullptr when it is unmapped.
  uint8_t *pageData(uint32_t Index) const {
    const RecentPage &Slot = Recent[recentSlot(Index)];
    if (Slot.Index == Index)
      return Slot.Data;
    return pageDataSlow(Index);
  }

  /// Host pointer to [Addr, Addr+Size) when that range lies inside one
  /// mapped page; nullptr when it spans a page boundary or is unmapped.
  uint8_t *inPage(uint32_t Addr, uint32_t Size) const {
    uint32_t Offset = Addr % binary::PageSize;
    if (Offset > binary::PageSize - Size)
      return nullptr;
    uint8_t *Data = pageData(Addr / binary::PageSize);
    return Data ? Data + Offset : nullptr;
  }

  /// Page-map lookup that refills the page-cache slot on a hit.
  uint8_t *pageDataSlow(uint32_t Index) const;
  bool load32Slow(uint32_t Addr, uint32_t &Value,
                  uint32_t &FaultAddr) const;
  bool store32Slow(uint32_t Addr, uint32_t Value, uint32_t &FaultAddr);

  std::unordered_map<uint32_t, std::unique_ptr<Page>> Pages;
  mutable std::array<RecentPage, NumRecentPages> Recent{};
};

} // namespace loader
} // namespace pcc

#endif // PCC_LOADER_ADDRESSSPACE_H
