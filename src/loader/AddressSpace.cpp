//===- loader/AddressSpace.cpp --------------------------------------------===//

#include "loader/AddressSpace.h"

#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace pcc;
using namespace pcc::loader;
using binary::PageSize;

static uint32_t pageIndex(uint32_t Addr) { return Addr / PageSize; }
static uint32_t pageOffset(uint32_t Addr) { return Addr % PageSize; }

Status pcc::loader::unmappedAccess(uint32_t Addr) {
  return Status::error(ErrorCode::GuestFault,
                       formatString("access to unmapped address 0x%x",
                                    Addr));
}

uint8_t *AddressSpace::pageDataSlow(uint32_t Index) const {
  auto It = Pages.find(Index);
  if (It == Pages.end())
    return nullptr; // Never cached: the page may be mapped later.
  RecentPage &Slot = Recent[recentSlot(Index)];
  Slot.Index = Index;
  Slot.Data = It->second->data();
  return Slot.Data;
}

Status AddressSpace::mapRegion(uint32_t Addr, uint32_t Size) {
  if (Size == 0)
    return Status::success();
  uint32_t First = pageIndex(Addr);
  uint32_t Last = pageIndex(Addr + Size - 1);
  for (uint32_t Index = First;; ++Index) {
    if (Pages.count(Index))
      return Status::error(
          ErrorCode::InvalidArgument,
          formatString("page 0x%x already mapped", Index * PageSize));
    if (Index == Last)
      break;
  }
  for (uint32_t Index = First;; ++Index) {
    Pages.emplace(Index, std::make_unique<Page>(PageSize, 0));
    if (Index == Last)
      break;
  }
  return Status::success();
}

bool AddressSpace::isMapped(uint32_t Addr) const {
  return pageData(pageIndex(Addr)) != nullptr;
}

ErrorOr<uint8_t> AddressSpace::read8(uint32_t Addr) const {
  const uint8_t *Data = pageData(pageIndex(Addr));
  if (!Data)
    return unmappedAccess(Addr);
  return Data[pageOffset(Addr)];
}

Status AddressSpace::write8(uint32_t Addr, uint8_t Value) {
  uint8_t *Data = pageData(pageIndex(Addr));
  if (!Data)
    return unmappedAccess(Addr);
  Data[pageOffset(Addr)] = Value;
  return Status::success();
}

// The byte-wise slow paths: page-spanning or unmapped word accesses.
// Bytes are visited in address order, so the fault names the first
// unmapped byte and a store has written every byte before it.

bool AddressSpace::load32Slow(uint32_t Addr, uint32_t &Value,
                              uint32_t &FaultAddr) const {
  uint32_t Result = 0;
  for (unsigned I = 0; I != 4; ++I) {
    const uint8_t *Data = pageData(pageIndex(Addr + I));
    if (!Data) {
      FaultAddr = Addr + I;
      return false;
    }
    Result |= static_cast<uint32_t>(Data[pageOffset(Addr + I)]) << (8 * I);
  }
  Value = Result;
  return true;
}

bool AddressSpace::store32Slow(uint32_t Addr, uint32_t Value,
                               uint32_t &FaultAddr) {
  for (unsigned I = 0; I != 4; ++I) {
    uint8_t *Data = pageData(pageIndex(Addr + I));
    if (!Data) {
      FaultAddr = Addr + I;
      return false;
    }
    Data[pageOffset(Addr + I)] = static_cast<uint8_t>(Value >> (8 * I));
  }
  return true;
}

Status AddressSpace::writeBytes(uint32_t Addr, const void *Data,
                                uint32_t Size) {
  const auto *Src = static_cast<const uint8_t *>(Data);
  uint32_t Done = 0;
  while (Done != Size) {
    uint8_t *Page = pageData(pageIndex(Addr + Done));
    if (!Page)
      return unmappedAccess(Addr + Done);
    uint32_t Offset = pageOffset(Addr + Done);
    uint32_t Chunk = std::min(Size - Done, PageSize - Offset);
    std::copy(Src + Done, Src + Done + Chunk, Page + Offset);
    Done += Chunk;
  }
  return Status::success();
}

Status AddressSpace::readBytes(uint32_t Addr, void *Out,
                               uint32_t Size) const {
  auto *Dst = static_cast<uint8_t *>(Out);
  uint32_t Done = 0;
  while (Done != Size) {
    const uint8_t *Page = pageData(pageIndex(Addr + Done));
    if (!Page)
      return unmappedAccess(Addr + Done);
    uint32_t Offset = pageOffset(Addr + Done);
    uint32_t Chunk = std::min(Size - Done, PageSize - Offset);
    std::copy(Page + Offset, Page + Offset + Chunk, Dst + Done);
    Done += Chunk;
  }
  return Status::success();
}

uint64_t AddressSpace::contentHash() const {
  std::vector<uint32_t> Indices;
  Indices.reserve(Pages.size());
  for (const auto &[Index, P] : Pages)
    Indices.push_back(Index);
  std::sort(Indices.begin(), Indices.end());
  uint64_t Hash = Fnv1a64Init;
  for (uint32_t Index : Indices) {
    Hash = fnv1a64U64(Index, Hash);
    const Page &P = *Pages.at(Index);
    Hash = fnv1a64Bytes(P.data(), P.size(), Hash);
  }
  return Hash;
}
