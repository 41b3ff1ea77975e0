//===- dbi/CodeCache.cpp --------------------------------------------------===//

#include "dbi/CodeCache.h"

#include "binary/Module.h"

#include <algorithm>

using namespace pcc;
using namespace pcc::dbi;
using binary::PageSize;

TraceExit *TranslatedTrace::findBranchExit(uint32_t InstIndex) {
  for (TraceExit &Exit : Exits)
    if (Exit.Kind == ExitKind::Branch && Exit.InstIndex == InstIndex)
      return &Exit;
  return nullptr;
}

void TranslatedTrace::buildLiveOps() {
  const std::span<const isa::Instruction> Slots = body();
  LiveOps.reserve(std::count_if(
      Slots.begin(), Slots.end(),
      [](const isa::Instruction &I) { return I.Op != isa::Opcode::Nop; }));
  for (uint32_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].Op != isa::Opcode::Nop)
      LiveOps.push_back(LiveOp{Slots[I], I});
  LiveOpsBuilt = true;
}

TranslatedTrace *CodeCache::lookup(uint32_t GuestAddr) {
  auto It = TranslationMap.find(GuestAddr);
  if (It != TranslationMap.end())
    return It->second;
  return Unbuilt == 0 ? nullptr : buildOnMiss(GuestAddr);
}

TranslatedTrace *CodeCache::buildOnMiss(uint32_t GuestAddr) {
  // A built slot is in the map, so a slot found here is unbuilt.
  const uint32_t Slot = slotOf(GuestAddr);
  return Slot == NoSlot ? nullptr : buildSlot(Slot);
}

bool CodeCache::admitSlot(uint32_t GuestStart, uint32_t DataBytes) {
  assert(Traces.size() == PlanSlots && !Build &&
         "admission precedes every other trace");
  if (DataPoolUsed + DataBytes > DataPoolCapacity)
    return false;
  DataPoolUsed += DataBytes;
  Traces.emplace_back();
  SlotByStart.emplace_back(GuestStart, PlanSlots++);
  ++Unbuilt;
  return true;
}

void CodeCache::sealPlan(SlotBuilder B) {
  std::sort(SlotByStart.begin(), SlotByStart.end());
  Build = std::move(B);
}

uint32_t CodeCache::slotOf(uint32_t GuestStart) const {
  if (SlotByStart.empty())
    return NoSlot;
  // Branch-free search for the last entry at or below GuestStart: prime
  // runs one per persisted link, so mispredicted branches would add up.
  const std::pair<uint32_t, uint32_t> *Base = SlotByStart.data();
  for (size_t N = SlotByStart.size(); N > 1; N -= N / 2)
    Base = Base[N / 2].first <= GuestStart ? Base + N / 2 : Base;
  return Base->first == GuestStart ? Base->second : NoSlot;
}

TranslatedTrace *CodeCache::buildSlot(uint32_t Slot) {
  assert(Slot < PlanSlots && !Traces[Slot] && "slot already built");
  std::unique_ptr<TranslatedTrace> T = Build(*this, Slot);
  TranslatedTrace *Raw = T.get();
  TranslationMap.emplace(Raw->guestStart(), Raw);
  Traces[Slot] = std::move(T);
  --Unbuilt;
  ++Built;
  return Raw;
}

TranslatedTrace *CodeCache::resolvePendingLink(TranslatedTrace *From,
                                               uint32_t ExitIndex) {
  TraceExit &Exit = From->exits()[ExitIndex];
  assert(Exit.LinkPending && "no pending link on this exit");
  Exit.LinkPending = false;
  TranslatedTrace *To = lookup(Exit.Target);
  assert(To && "a pending link's target slot is resident");
  link(From, ExitIndex, To);
  return To;
}

void CodeCache::completeDeferredInstalls() {
  if (Unbuilt != 0)
    for (uint32_t Slot = 0; Slot != PlanSlots; ++Slot)
      if (!Traces[Slot])
        buildSlot(Slot);
  // Only plan traces carry pending marks.
  for (uint32_t Slot = 0; Slot != PlanSlots; ++Slot) {
    TranslatedTrace *T = Traces[Slot].get();
    for (uint32_t I = 0; I != T->exits().size(); ++I)
      if (T->exits()[I].LinkPending)
        resolvePendingLink(T, I);
  }
}

bool CodeCache::slotAwaitsMaterialize(uint32_t Slot) const {
  return Slot < PlanSlots &&
         (!Traces[Slot] || !Traces[Slot]->isMaterialized());
}

void CodeCache::dissolvePlan() {
  completeDeferredInstalls();
  PlanSlots = 0;
  SlotByStart = {};
  Build = nullptr;
}

ErrorOr<uint32_t> CodeCache::allocateCode(uint32_t NumBytes) {
  if (BorrowedSize + CodePool.size() + NumBytes > CodePoolCapacity)
    return Status::error(ErrorCode::OutOfMemory, "code pool exhausted");
  uint32_t Offset =
      static_cast<uint32_t>(BorrowedSize + CodePool.size());
  CodePool.resize(CodePool.size() + NumBytes);
  return Offset;
}

void CodeCache::writeCode(uint32_t Offset,
                          const std::vector<uint8_t> &Bytes) {
  assert(Offset >= BorrowedSize && "code write into borrowed mapping");
  assert(Offset - BorrowedSize + Bytes.size() <= CodePool.size() &&
         "code write outside allocation");
  std::copy(Bytes.begin(), Bytes.end(),
            CodePool.begin() + (Offset - BorrowedSize));
  // Freshly written pages are resident by construction.
  touchPages(Offset, static_cast<uint32_t>(Bytes.size()));
}

const uint8_t *CodeCache::codeAt(uint32_t Offset) const {
  if (Offset < BorrowedSize)
    return Borrowed + Offset;
  assert(Offset - BorrowedSize <= CodePool.size() &&
         "offset outside code pool");
  return CodePool.data() + (Offset - BorrowedSize);
}

uint8_t *CodeCache::mutableCodeAt(uint32_t Offset) {
  // Borrowed pages are shared with other processes and must stay clean;
  // rebasing and link patching are only legal in owned storage.
  assert(Offset >= BorrowedSize && "mutating borrowed (shared) code");
  assert(Offset - BorrowedSize <= CodePool.size() &&
         "offset outside code pool");
  return CodePool.data() + (Offset - BorrowedSize);
}

ErrorOr<TranslatedTrace *>
CodeCache::addTrace(std::unique_ptr<TranslatedTrace> T) {
  assert(!TranslationMap.count(T->guestStart()) &&
         "duplicate trace for guest address");
  if (DataPoolUsed + T->dataBytes() > DataPoolCapacity)
    return Status::error(ErrorCode::OutOfMemory, "data pool exhausted");
  DataPoolUsed += T->dataBytes();
  TranslatedTrace *Raw = T.get();
  TranslationMap.emplace(Raw->guestStart(), Raw);
  Traces.push_back(std::move(T));
  return Raw;
}

void CodeCache::reserveTraces(size_t N) {
  TranslationMap.reserve(TranslationMap.size() + N);
  Traces.reserve(Traces.size() + N);
  SlotByStart.reserve(SlotByStart.size() + N);
}

Status CodeCache::installPersistedPool(std::vector<uint8_t> PoolBytes) {
  if (!Traces.empty() || !CodePool.empty() || BorrowedSize != 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "cache not empty at persistent-pool install");
  if (PoolBytes.size() > CodePoolCapacity)
    return Status::error(ErrorCode::OutOfMemory,
                         "persistent pool exceeds code pool capacity");
  CodePool = std::move(PoolBytes);
  // Mapped, not resident: pages fault in on first touch.
  ResidentPages.assign((CodePool.size() + PageSize - 1) / PageSize, false);
  return Status::success();
}

Status CodeCache::installBorrowedPool(const uint8_t *Data, size_t Size,
                                      std::shared_ptr<const void> Keepalive) {
  if (!Traces.empty() || !CodePool.empty() || BorrowedSize != 0)
    return Status::error(ErrorCode::InvalidArgument,
                         "cache not empty at borrowed-pool install");
  if (Size > CodePoolCapacity)
    return Status::error(ErrorCode::OutOfMemory,
                         "borrowed pool exceeds code pool capacity");
  Borrowed = Data;
  BorrowedSize = Size;
  BorrowedKeepalive = std::move(Keepalive);
  // Same demand-paging model as an owned persisted pool: mapped, not
  // resident; pages fault in on first touch.
  ResidentPages.assign((Size + PageSize - 1) / PageSize, false);
  return Status::success();
}

void CodeCache::link(TranslatedTrace *From, uint32_t ExitIndex,
                     TranslatedTrace *To) {
  assert(ExitIndex < From->exits().size() && "bad exit index");
  TraceExit &Exit = From->exits()[ExitIndex];
  assert(isLinkableExit(Exit.Kind) && "linking a non-linkable exit");
  assert(Exit.Target == To->guestStart() && "link target mismatch");
  assert(!Exit.Link && "exit already linked");
  Exit.Link = To;
  To->incomingLinks().emplace_back(From, ExitIndex);
}

void CodeCache::unlinkTrace(TranslatedTrace *T) {
  // Unlink edges into the dying trace.
  for (auto &[Pred, ExitIndex] : T->incomingLinks()) {
    assert(Pred->exits()[ExitIndex].Link == T && "stale incoming link");
    Pred->exits()[ExitIndex].Link = nullptr;
  }
  T->incomingLinks().clear();
  // Unlink edges out of the dying trace.
  for (uint32_t I = 0; I != T->exits().size(); ++I) {
    TranslatedTrace *Succ = T->exits()[I].Link;
    if (!Succ)
      continue;
    auto &In = Succ->incomingLinks();
    In.erase(std::remove(In.begin(), In.end(), std::make_pair(T, I)),
             In.end());
  }
}

uint32_t CodeCache::removeTracesInRange(uint32_t Base, uint32_t Size) {
  dissolvePlan();
  auto inRange = [&](uint32_t Addr) {
    return Addr >= Base && Addr - Base < Size;
  };
  uint32_t Removed = 0;
  for (auto &T : Traces) {
    if (!T || !inRange(T->guestStart()))
      continue;
    unlinkTrace(T.get());
    TranslationMap.erase(T->guestStart());
    DataPoolUsed -= T->dataBytes();
    T.reset();
    ++Removed;
  }
  Traces.erase(std::remove_if(Traces.begin(), Traces.end(),
                              [](const auto &T) { return !T; }),
               Traces.end());
  return Removed;
}

void CodeCache::flush() {
  Traces.clear();
  TranslationMap.clear();
  CodePool.clear();
  // A borrowed pool is unmapped (keepalive released), never freed.
  Borrowed = nullptr;
  BorrowedSize = 0;
  BorrowedKeepalive.reset();
  ResidentPages.clear();
  DataPoolUsed = 0;
  // The plan goes with everything else; nothing needs building first.
  PlanSlots = 0;
  Unbuilt = 0;
  SlotByStart = {};
  Build = nullptr;
  ++ModificationGeneration;
}

uint32_t CodeCache::evictOldest(double Fraction) {
  assert(Fraction > 0 && Fraction <= 1 && "fraction out of range");
  dissolvePlan();
  uint32_t ToEvict = static_cast<uint32_t>(Traces.size() * Fraction);
  if (ToEvict == 0 && !Traces.empty())
    ToEvict = 1;
  if (ToEvict == 0)
    return 0;

  for (uint32_t I = 0; I != ToEvict; ++I) {
    TranslatedTrace *T = Traces[I].get();
    unlinkTrace(T);
    TranslationMap.erase(T->guestStart());
    DataPoolUsed -= T->dataBytes();
  }
  Traces.erase(Traces.begin(), Traces.begin() + ToEvict);

  // Compact the code pool around the survivors so the reclaimed bytes
  // are actually reusable (linear pools do not free holes). Survivors
  // whose storage was a borrowed mapping are copied into owned memory
  // first — their bodies are disowned and their pending payloads drop
  // the XIP flag — because the mapping itself is released (unmapped,
  // not freed) at the end.
  std::vector<uint8_t> NewPool;
  NewPool.reserve(BorrowedSize + CodePool.size());
  for (auto &T : Traces) {
    uint32_t NewOffset = static_cast<uint32_t>(NewPool.size());
    const uint8_t *Src = codeAt(T->poolOffset());
    NewPool.insert(NewPool.end(), Src, Src + T->poolBytes());
    T->relocateInPool(NewOffset);
    T->disownBody();
    if (PersistedPayload *P = T->persistedPayload())
      P->Xip = false;
  }
  CodePool = std::move(NewPool);
  Borrowed = nullptr;
  BorrowedSize = 0;
  BorrowedKeepalive.reset();
  // Compaction copies everything through memory: all pages resident.
  ResidentPages.assign(
      (CodePool.size() + PageSize - 1) / PageSize, true);
  ++ModificationGeneration;
  return ToEvict;
}

uint32_t CodeCache::touchPages(uint32_t Offset, uint32_t Bytes,
                               std::vector<uint32_t> *NewlyTouched) {
  if (Bytes == 0)
    return 0;
  uint32_t First = Offset / PageSize;
  uint32_t Last = (Offset + Bytes - 1) / PageSize;
  if (ResidentPages.size() <= Last)
    ResidentPages.resize(Last + 1, false);
  uint32_t Count = 0;
  for (uint32_t Page = First; Page <= Last; ++Page) {
    if (!ResidentPages[Page]) {
      ResidentPages[Page] = true;
      ++Count;
      if (NewlyTouched)
        NewlyTouched->push_back(Page);
    }
  }
  return Count;
}
