//===- analysis/Dataflow.h - Worklist dataflow framework --------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An iterative (worklist) dataflow framework over analysis::Cfg plus
/// the instances the rest of the system uses: liveness of guest
/// registers (backward, may), constant propagation and available loads
/// (forward, must).
///
/// Every edge that leaves the analyzed region — indirect transfers,
/// out-of-region targets, syscalls, and (in trace mode) every taken
/// branch — meets the problem's Boundary value. For liveness the
/// boundary is "all registers live": whatever executes after the region
/// may read anything, which is exactly the conservatism the
/// liveness-driven elision pass in dbi::Compiler needs to stay sound.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ANALYSIS_DATAFLOW_H
#define PCC_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace pcc {
namespace analysis {

/// \name Per-instruction register effects
/// @{

/// A set of guest registers, bit i = register i.
using RegSet = uint32_t;

/// All NumRegisters registers.
inline constexpr RegSet AllRegs =
    (1u << isa::NumRegisters) - 1;

/// Registers the instruction reads (including the implicit stack
/// pointer of Call/Callr/Ret, and everything for Sys — the emulation
/// unit may inspect any register).
RegSet instUses(const isa::Instruction &Inst);

/// The register the instruction writes, or -1. Call/Callr/Ret update
/// the stack pointer; Sys conservatively defines nothing (its clobbers
/// are modeled as uses by the boundary instead).
int instDef(const isa::Instruction &Inst);

/// True for instructions whose only effect is writing instDef(): ALU
/// ops and immediate loads. Ld is excluded — it can fault, which is a
/// guest-visible effect even when the loaded value is dead.
bool isPureDef(const isa::Instruction &Inst);

/// Evaluates a pure binary ALU op over concrete operands with exactly
/// vm::executeInstruction's semantics (uint32 wrap, Divu-by-zero -> 0,
/// shift counts masked to 5 bits, comparisons producing 0/1). For the
/// immediate forms pass the immediate as \p B. Returns nullopt for any
/// opcode that is not a pure ALU op.
std::optional<uint32_t> foldBinaryOp(isa::Opcode Op, uint32_t A,
                                     uint32_t B);

/// @}

/// Direction of a dataflow problem.
enum class Direction : uint8_t { Forward, Backward };

/// An iterative dataflow problem over the blocks of a Cfg. D is the
/// domain value (a value type with operator==).
template <typename D> struct DataflowProblem {
  Direction Dir = Direction::Forward;
  /// Initial interior value (the meet identity / optimistic value).
  D Init{};
  /// Value met in from outside the region: at root blocks (forward)
  /// or across external-successor edges (backward).
  D Boundary{};
  /// Meet of two values (must be monotone, e.g. set union).
  std::function<D(const D &, const D &)> Meet;
  /// Transfer across block \p Block given the value at its input side.
  std::function<D(const Cfg &G, uint32_t Block, const D &)> Transfer;
};

/// Per-block fixpoint: In/Out in the conventional orientation (In is
/// the value before the block's first instruction, Out after its last,
/// for both directions).
template <typename D> struct DataflowSolution {
  std::vector<D> In, Out;
};

/// Runs \p P to fixpoint over \p G with a worklist. Unreachable blocks
/// do not exist in a Cfg; blocks with no predecessors (forward) or no
/// successors and no external edge (backward) keep Init on their meet
/// side.
template <typename D>
DataflowSolution<D> solveDataflow(const Cfg &G,
                                  const DataflowProblem<D> &P) {
  const auto &Blocks = G.blocks();
  const size_t N = Blocks.size();
  DataflowSolution<D> S;
  S.In.assign(N, P.Init);
  S.Out.assign(N, P.Init);

  std::vector<bool> IsRoot(N, false);
  for (uint32_t R : G.roots())
    IsRoot[R] = true;

  std::vector<bool> Queued(N, true);
  std::vector<uint32_t> Work;
  Work.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    Work.push_back(static_cast<uint32_t>(N - 1 - I));

  while (!Work.empty()) {
    uint32_t B = Work.back();
    Work.pop_back();
    Queued[B] = false;

    if (P.Dir == Direction::Forward) {
      D NewIn = IsRoot[B] ? P.Boundary : P.Init;
      for (uint32_t Pred : Blocks[B].Preds)
        NewIn = P.Meet(NewIn, S.Out[Pred]);
      S.In[B] = std::move(NewIn);
      D NewOut = P.Transfer(G, B, S.In[B]);
      if (!(NewOut == S.Out[B])) {
        S.Out[B] = std::move(NewOut);
        for (uint32_t Succ : Blocks[B].Succs)
          if (!Queued[Succ]) {
            Queued[Succ] = true;
            Work.push_back(Succ);
          }
      }
    } else {
      D NewOut = Blocks[B].HasExternalSucc ? P.Boundary : P.Init;
      for (uint32_t Succ : Blocks[B].Succs)
        NewOut = P.Meet(NewOut, S.In[Succ]);
      S.Out[B] = std::move(NewOut);
      D NewIn = P.Transfer(G, B, S.Out[B]);
      if (!(NewIn == S.In[B])) {
        S.In[B] = std::move(NewIn);
        for (uint32_t Pred : Blocks[B].Preds)
          if (!Queued[Pred]) {
            Queued[Pred] = true;
            Work.push_back(Pred);
          }
      }
    }
  }
  return S;
}

/// \name Liveness (backward, may)
/// @{

struct LivenessResult {
  /// Registers live at block entry / exit, per block.
  std::vector<RegSet> LiveIn, LiveOut;

  /// Registers live immediately *before* instruction \p InstIndex of
  /// block \p Block executes (recomputed by a backward walk from
  /// LiveOut).
  RegSet liveBefore(const Cfg &G, uint32_t Block,
                    uint32_t InstIndex) const;
};

LivenessResult solveLiveness(const Cfg &G);

/// @}

/// Dead pure defs of a DBI trace body: instructions whose destination
/// register is overwritten before control can leave the trace (every
/// exit point conservatively treats all registers as live, so only
/// defs shadowed within the trace qualify). The result is what the
/// Compiler's --opt-flags pass may replace with Nop; the translation
/// validator accepts exactly these substitutions.
std::vector<bool>
findDeadTraceDefs(const std::vector<isa::Instruction> &Body,
                  uint32_t StartAddr);

/// \name Constant propagation (forward, must)
/// @{

/// Lattice value of one register: Top (unconstrained optimistic),
/// Konst (known compile-time constant), or Bottom (runtime value).
struct ConstVal {
  enum State : uint8_t { Top, Konst, Bottom };
  uint8_t S = Top;
  uint32_t Value = 0;

  bool operator==(const ConstVal &O) const {
    return S == O.S && (S != Konst || Value == O.Value);
  }
};

/// Per-register constant lattice over a whole machine state.
using ConstState = std::array<ConstVal, isa::NumRegisters>;

struct TraceConstantsResult {
  /// Folded[I] holds the constant a pure binary ALU instruction I is
  /// statically proven to produce (all operands constant at I), i.e.
  /// the value a promoted body may materialize with `Ldi rd, Folded[I]`
  /// instead. Empty optional everywhere else (including Ldi itself).
  std::vector<std::optional<uint32_t>> Folded;
};

/// Constant propagation over a DBI trace body (trace-model CFG: taken
/// branches leave the region; registers are unknown at entry). Built on
/// the generic worklist framework with the must-meet per-register
/// lattice above.
TraceConstantsResult
solveTraceConstants(const std::vector<isa::Instruction> &Body,
                    uint32_t StartAddr);

/// @}

/// \name Available loads (forward, must)
/// @{

/// One available-load fact: register Holder currently contains the
/// value of guest memory [Base + Imm], and neither Base nor Holder has
/// been redefined — and no store or syscall has intervened — since the
/// load that established it.
struct AvailLoad {
  uint8_t Base = 0;
  uint8_t Holder = 0;
  uint32_t Imm = 0;

  bool operator==(const AvailLoad &O) const {
    return Base == O.Base && Holder == O.Holder && Imm == O.Imm;
  }
};

/// The available-loads domain: either the universal set (meet
/// identity, before any path reaches a block) or an explicit fact set.
struct AvailSet {
  bool Universal = false;
  std::vector<AvailLoad> Facts;

  bool operator==(const AvailSet &O) const {
    return Universal == O.Universal &&
           (Universal || Facts == O.Facts);
  }
};

struct TraceRedundantLoadsResult {
  /// Holder[I] >= 0 iff instruction I is a Ld whose loaded value is
  /// already held in register Holder[I] (same base register with the
  /// same value, same displacement, no intervening store/syscall). The
  /// load may be replaced by a register move from that holder (or a
  /// Nop when the holder is the destination itself).
  std::vector<int> Holder;
};

/// Available-load analysis over a DBI trace body (trace-model CFG).
/// Any St conservatively kills every fact — the ISA has no alias
/// information — as does Sys; Call/Callr push to the stack and kill
/// everything too.
TraceRedundantLoadsResult
solveTraceRedundantLoads(const std::vector<isa::Instruction> &Body,
                         uint32_t StartAddr);

/// @}

} // namespace analysis
} // namespace pcc

#endif // PCC_ANALYSIS_DATAFLOW_H
