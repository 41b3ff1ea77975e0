//===- dbi/Compiler.cpp ---------------------------------------------------===//

#include "dbi/Compiler.h"

#include "analysis/Dataflow.h"
#include "analysis/Validator.h"

using namespace pcc;
using namespace pcc::dbi;

uint32_t Compiler::instrumentationPoints(const Trace &T,
                                         const InstrumentationSpec &Spec) {
  uint32_t Points = 0;
  if (Spec.BasicBlocks)
    Points += T.numBasicBlocks();
  if (Spec.MemoryAccesses)
    Points += T.numMemoryAccesses();
  if (Spec.Instructions)
    Points += T.numInsts();
  return Points;
}

uint32_t Compiler::translatedBytes(const Trace &T,
                                   const InstrumentationSpec &Spec) {
  return TracePrologueBytes + T.numInsts() * isa::InstructionSize +
         static_cast<uint32_t>(T.Exits.size()) * ExitStubBytes +
         instrumentationPoints(T, Spec) * InstrumentStubBytes;
}

ErrorOr<TranslatedTrace *> Compiler::compile(uint32_t StartAddr,
                                             EngineStats &Stats) {
  auto Selected = selectTrace(Space, StartAddr, MaxTraceInsts);
  if (!Selected)
    return Selected.status();
  const Trace &T = *Selected;

  uint32_t PoolBytes = translatedBytes(T, Spec);
  auto Offset = Cache.allocateCode(PoolBytes);
  if (!Offset)
    return Offset.status();

  // Dead-def elision (--opt-flags): pure defs that cannot reach any
  // trace exit become Nops, in both the emitted image and the resident
  // body so the two never diverge. Instruction count, exit structure
  // and per-instruction PCs are all preserved — only the spelling of
  // provably unobservable computations changes — and the translation
  // validator must agree before the elided form is accepted.
  std::vector<isa::Instruction> Body = T.Insts;
  uint32_t Elided = 0;
  if (OptFlags) {
    std::vector<bool> Dead =
        analysis::findDeadTraceDefs(T.Insts, T.StartAddr);
    for (uint32_t I = 0; I != Body.size(); ++I)
      if (Dead[I]) {
        Body[I] = isa::Instruction{};
        ++Elided;
      }
    if (Elided != 0) {
      auto Check =
          analysis::validateTranslation(T.StartAddr, T.Insts, Body);
      if (Check.Equivalent) {
        ++Stats.TracesVerified;
        Stats.FlagsElided += Elided;
      } else {
        // Never emit an elision the validator cannot prove.
        ++Stats.VerifyFailures;
        Body = T.Insts;
        Elided = 0;
      }
    }
  }

  // Emit the translated image: zeroed prologue, the re-encoded guest
  // instructions, then zeroed stubs. The encoded instruction bytes are
  // what a persistent cache stores and later re-decodes.
  std::vector<uint8_t> Image(PoolBytes, 0);
  std::vector<uint8_t> Encoded = isa::encodeAll(Body);
  std::copy(Encoded.begin(), Encoded.end(),
            Image.begin() + TracePrologueBytes);
  Cache.writeCode(*Offset, Image);

  std::vector<TraceExit> Exits;
  Exits.reserve(T.Exits.size());
  for (const TraceExitInfo &Info : T.Exits)
    Exits.push_back(TraceExit{Info.Kind, Info.InstIndex, Info.Target});

  auto NewTrace = std::make_unique<TranslatedTrace>(
      T.StartAddr, T.numInsts(), *Offset, PoolBytes, std::move(Exits),
      /*FromPersistentCache=*/false);
  NewTrace->materialize(std::move(Body));

  auto Added = Cache.addTrace(std::move(NewTrace));
  if (!Added)
    return Added.status();

  uint64_t InstrumentCycles = 0;
  if (Spec.BasicBlocks)
    InstrumentCycles +=
        Costs.CompileCyclesPerBlockPoint * T.numBasicBlocks();
  if (Spec.MemoryAccesses)
    InstrumentCycles +=
        Costs.CompileCyclesPerMemoryPoint * T.numMemoryAccesses();
  if (Spec.Instructions)
    InstrumentCycles += Costs.CompileCyclesPerInstPoint * T.numInsts();
  Stats.CompileCycles += Costs.CompileCyclesPerTrace +
                         Costs.CompileCyclesPerInst * T.numInsts() +
                         InstrumentCycles;
  ++Stats.TracesCompiled;
  Stats.Timeline.push_back(
      CompileEvent{Stats.GuestInstsExecuted, T.numInsts()});
  return *Added;
}

void pcc::dbi::rebaseTranslatedImage(uint8_t *TraceImage,
                                     size_t ImageBytes, uint32_t InstCount,
                                     const std::vector<uint8_t> &RelocMask,
                                     int64_t Delta) {
  (void)ImageBytes;
  if (Delta == 0)
    return;
  for (uint32_t Inst = 0; Inst != InstCount; ++Inst) {
    if (Inst / 8 >= RelocMask.size() ||
        !((RelocMask[Inst / 8] >> (Inst % 8)) & 1))
      continue;
    size_t Offset = TracePrologueBytes +
                    static_cast<size_t>(Inst) * isa::InstructionSize + 4;
    assert(Offset + 4 <= ImageBytes && "immediate outside code image");
    uint32_t Imm = 0;
    for (unsigned I = 0; I != 4; ++I)
      Imm |= static_cast<uint32_t>(TraceImage[Offset + I]) << (8 * I);
    Imm = static_cast<uint32_t>(Imm + Delta);
    for (unsigned I = 0; I != 4; ++I)
      TraceImage[Offset + I] = static_cast<uint8_t>(Imm >> (8 * I));
  }
}
