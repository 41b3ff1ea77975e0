//===- analysis/Dataflow.cpp ----------------------------------------------===//

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;
using isa::Opcode;

RegSet pcc::analysis::instUses(const Instruction &Inst) {
  auto Bit = [](unsigned Reg) { return RegSet(1) << Reg; };
  switch (Inst.Op) {
  case Opcode::Nop:
  case Opcode::Halt:
  case Opcode::Ldi:
  case Opcode::Jmp:
    return 0;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Divu:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Sltu:
  case Opcode::Seq:
    return Bit(Inst.Rs1) | Bit(Inst.Rs2);
  case Opcode::Addi:
  case Opcode::Muli:
  case Opcode::Andi:
  case Opcode::Ori:
  case Opcode::Xori:
  case Opcode::Shli:
  case Opcode::Shri:
  case Opcode::Sltiu:
  case Opcode::Ld:
    return Bit(Inst.Rs1);
  case Opcode::St:
    return Bit(Inst.Rs1) | Bit(Inst.Rs2);
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Bltu:
  case Opcode::Bgeu:
    return Bit(Inst.Rs1) | Bit(Inst.Rs2);
  case Opcode::Jr:
    return Bit(Inst.Rs1);
  case Opcode::Call:
    return Bit(isa::StackPointerReg);
  case Opcode::Callr:
    return Bit(Inst.Rs1) | Bit(isa::StackPointerReg);
  case Opcode::Ret:
    return Bit(isa::StackPointerReg);
  case Opcode::Sys:
    // The emulation unit (and a spawned thread's initial state) may
    // read any register.
    return AllRegs;
  case Opcode::NumOpcodes:
    break;
  }
  return AllRegs; // unreachable; stay conservative
}

int pcc::analysis::instDef(const Instruction &Inst) {
  switch (Inst.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Divu:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Sltu:
  case Opcode::Seq:
  case Opcode::Addi:
  case Opcode::Muli:
  case Opcode::Andi:
  case Opcode::Ori:
  case Opcode::Xori:
  case Opcode::Shli:
  case Opcode::Shri:
  case Opcode::Sltiu:
  case Opcode::Ldi:
  case Opcode::Ld:
    return Inst.Rd;
  case Opcode::Call:
  case Opcode::Callr:
  case Opcode::Ret:
    return static_cast<int>(isa::StackPointerReg);
  default:
    return -1;
  }
}

bool pcc::analysis::isPureDef(const Instruction &Inst) {
  switch (Inst.Op) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Divu:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Sltu:
  case Opcode::Seq:
  case Opcode::Addi:
  case Opcode::Muli:
  case Opcode::Andi:
  case Opcode::Ori:
  case Opcode::Xori:
  case Opcode::Shli:
  case Opcode::Shri:
  case Opcode::Sltiu:
  case Opcode::Ldi:
    return true;
  default:
    return false;
  }
}

RegSet LivenessResult::liveBefore(const Cfg &G, uint32_t Block,
                                  uint32_t InstIndex) const {
  const CfgBlock &B = G.blocks()[Block];
  assert(InstIndex >= B.FirstInst && InstIndex <= B.lastInst() &&
         "instruction outside block");
  RegSet Live = LiveOut[Block];
  for (uint32_t I = B.lastInst();; --I) {
    const Instruction &Inst = G.instructions()[I];
    if (int Def = instDef(Inst); Def >= 0)
      Live &= ~(RegSet(1) << Def);
    Live |= instUses(Inst);
    if (I == InstIndex)
      break;
    assert(I != 0 && "walked past block start");
  }
  return Live;
}

LivenessResult pcc::analysis::solveLiveness(const Cfg &G) {
  DataflowProblem<RegSet> P;
  P.Dir = Direction::Backward;
  P.Init = 0;
  P.Boundary = AllRegs;
  P.Meet = [](const RegSet &A, const RegSet &B) { return A | B; };
  P.Transfer = [](const Cfg &Graph, uint32_t Block, const RegSet &Out) {
    const CfgBlock &B = Graph.blocks()[Block];
    RegSet Live = Out;
    for (uint32_t I = B.lastInst() + 1; I-- != B.FirstInst;) {
      const Instruction &Inst = Graph.instructions()[I];
      if (int Def = instDef(Inst); Def >= 0)
        Live &= ~(RegSet(1) << Def);
      Live |= instUses(Inst);
    }
    return Live;
  };
  auto S = solveDataflow(G, P);
  return LivenessResult{std::move(S.In), std::move(S.Out)};
}

std::optional<uint32_t> pcc::analysis::foldBinaryOp(Opcode Op,
                                                    uint32_t A,
                                                    uint32_t B) {
  switch (Op) {
  case Opcode::Add:
  case Opcode::Addi:
    return A + B;
  case Opcode::Sub:
    return A - B;
  case Opcode::Mul:
  case Opcode::Muli:
    return A * B;
  case Opcode::Divu:
    return B == 0 ? 0 : A / B;
  case Opcode::And:
  case Opcode::Andi:
    return A & B;
  case Opcode::Or:
  case Opcode::Ori:
    return A | B;
  case Opcode::Xor:
  case Opcode::Xori:
    return A ^ B;
  case Opcode::Shl:
  case Opcode::Shli:
    return A << (B & 31);
  case Opcode::Shr:
  case Opcode::Shri:
    return A >> (B & 31);
  case Opcode::Sltu:
  case Opcode::Sltiu:
    return A < B ? 1 : 0;
  case Opcode::Seq:
    return A == B ? 1 : 0;
  default:
    return std::nullopt;
  }
}

std::vector<bool> pcc::analysis::findDeadTraceDefs(
    const std::vector<Instruction> &Body, uint32_t StartAddr) {
  std::vector<bool> Dead(Body.size(), false);
  if (Body.empty())
    return Dead;
  CfgOptions Opts;
  Opts.BranchTargetsExternal = true; // the trace model
  Cfg G = buildCfg(Body, StartAddr, {StartAddr}, Opts);
  LivenessResult L = solveLiveness(G);
  for (uint32_t BI = 0; BI != G.blocks().size(); ++BI) {
    const CfgBlock &B = G.blocks()[BI];
    RegSet Live = L.LiveOut[BI];
    for (uint32_t I = B.lastInst() + 1; I-- != B.FirstInst;) {
      const Instruction &Inst = Body[I];
      int Def = instDef(Inst);
      if (Def >= 0 && isPureDef(Inst) &&
          (Live & (RegSet(1) << Def)) == 0)
        Dead[I] = true;
      if (Def >= 0)
        Live &= ~(RegSet(1) << Def);
      Live |= instUses(Inst);
    }
  }
  return Dead;
}

namespace {

/// Applies one instruction's effect to a per-register constant state,
/// mirroring vm::executeInstruction via foldBinaryOp. Conservative for
/// everything that is not a pure ALU def: the defined register (and for
/// Sys every register) drops to Bottom.
void constTransferInst(const Instruction &Inst, ConstState &Regs) {
  using analysis::ConstVal;
  auto Bottom = [] {
    ConstVal V;
    V.S = ConstVal::Bottom;
    return V;
  };
  if (Inst.Op == Opcode::Sys) {
    // The emulation unit may rewrite any register (thread switches
    // restore a different context).
    Regs.fill(Bottom());
    return;
  }
  int Def = instDef(Inst);
  if (Def < 0)
    return;
  if (Inst.Op == Opcode::Ldi) {
    Regs[Def] = ConstVal{ConstVal::Konst, Inst.Imm};
    return;
  }
  if (isPureDef(Inst)) {
    const ConstVal &A = Regs[Inst.Rs1];
    bool IsImmForm = false;
    switch (Inst.Op) {
    case Opcode::Addi:
    case Opcode::Muli:
    case Opcode::Andi:
    case Opcode::Ori:
    case Opcode::Xori:
    case Opcode::Shli:
    case Opcode::Shri:
    case Opcode::Sltiu:
      IsImmForm = true;
      break;
    default:
      break;
    }
    if (A.S == ConstVal::Konst) {
      if (IsImmForm) {
        if (auto V = foldBinaryOp(Inst.Op, A.Value, Inst.Imm)) {
          Regs[Def] = ConstVal{ConstVal::Konst, *V};
          return;
        }
      } else if (Regs[Inst.Rs2].S == ConstVal::Konst) {
        if (auto V =
                foldBinaryOp(Inst.Op, A.Value, Regs[Inst.Rs2].Value)) {
          Regs[Def] = ConstVal{ConstVal::Konst, *V};
          return;
        }
      }
    }
  }
  Regs[Def] = Bottom();
}

} // namespace

TraceConstantsResult pcc::analysis::solveTraceConstants(
    const std::vector<Instruction> &Body, uint32_t StartAddr) {
  TraceConstantsResult R;
  R.Folded.assign(Body.size(), std::nullopt);
  if (Body.empty())
    return R;

  CfgOptions Opts;
  Opts.BranchTargetsExternal = true; // the trace model
  Cfg G = buildCfg(Body, StartAddr, {StartAddr}, Opts);

  ConstState Top{};
  ConstState Bottom{};
  for (ConstVal &V : Bottom)
    V.S = ConstVal::Bottom;

  DataflowProblem<ConstState> P;
  P.Dir = Direction::Forward;
  P.Init = Top;
  P.Boundary = Bottom; // register values are unknown at trace entry
  P.Meet = [](const ConstState &A, const ConstState &B) {
    ConstState M;
    for (unsigned R = 0; R != isa::NumRegisters; ++R) {
      if (A[R].S == ConstVal::Top)
        M[R] = B[R];
      else if (B[R].S == ConstVal::Top || A[R] == B[R])
        M[R] = A[R];
      else
        M[R].S = ConstVal::Bottom;
    }
    return M;
  };
  P.Transfer = [](const Cfg &Graph, uint32_t Block,
                  const ConstState &In) {
    const CfgBlock &B = Graph.blocks()[Block];
    ConstState Regs = In;
    for (uint32_t I = B.FirstInst; I <= B.lastInst(); ++I)
      constTransferInst(Graph.instructions()[I], Regs);
    return Regs;
  };
  auto S = solveDataflow(G, P);

  for (uint32_t BI = 0; BI != G.blocks().size(); ++BI) {
    const CfgBlock &B = G.blocks()[BI];
    ConstState Regs = S.In[BI];
    for (uint32_t I = B.FirstInst; I <= B.lastInst(); ++I) {
      const Instruction &Inst = Body[I];
      if (isPureDef(Inst) && Inst.Op != Opcode::Ldi) {
        ConstState After = Regs;
        constTransferInst(Inst, After);
        const ConstVal &D = After[instDef(Inst)];
        if (D.S == ConstVal::Konst)
          R.Folded[I] = D.Value;
        Regs = After;
      } else {
        constTransferInst(Inst, Regs);
      }
    }
  }
  return R;
}

namespace {

/// Applies one instruction's effect to an available-load fact set.
void availTransferInst(const Instruction &Inst, AvailSet &S) {
  auto KillReg = [&](unsigned Reg) {
    S.Facts.erase(std::remove_if(S.Facts.begin(), S.Facts.end(),
                                 [&](const AvailLoad &F) {
                                   return F.Base == Reg ||
                                          F.Holder == Reg;
                                 }),
                  S.Facts.end());
  };
  auto KillAll = [&] {
    S.Universal = false;
    S.Facts.clear();
  };

  switch (Inst.Op) {
  case Opcode::Ld:
    KillReg(Inst.Rd);
    // After the load, Rd holds [Rs1 + Imm] — unless the load just
    // clobbered its own base register.
    if (Inst.Rd != Inst.Rs1)
      S.Facts.push_back(AvailLoad{Inst.Rs1, Inst.Rd, Inst.Imm});
    return;
  case Opcode::St:
    // No alias information in the ISA: any store may hit any fact.
    KillAll();
    return;
  case Opcode::Sys:
    // The emulation unit may write memory and registers.
    KillAll();
    return;
  case Opcode::Call:
  case Opcode::Callr:
  case Opcode::Ret:
    // Push/pop touch memory and redefine the stack pointer.
    KillAll();
    return;
  default:
    if (int Def = instDef(Inst); Def >= 0)
      KillReg(static_cast<unsigned>(Def));
    return;
  }
}

/// Canonical order so structurally equal sets compare equal regardless
/// of the path that built them.
void normalizeAvail(AvailSet &S) {
  std::sort(S.Facts.begin(), S.Facts.end(),
            [](const AvailLoad &A, const AvailLoad &B) {
              return std::tie(A.Base, A.Holder, A.Imm) <
                     std::tie(B.Base, B.Holder, B.Imm);
            });
}

} // namespace

TraceRedundantLoadsResult pcc::analysis::solveTraceRedundantLoads(
    const std::vector<Instruction> &Body, uint32_t StartAddr) {
  TraceRedundantLoadsResult R;
  R.Holder.assign(Body.size(), -1);
  if (Body.empty())
    return R;

  CfgOptions Opts;
  Opts.BranchTargetsExternal = true; // the trace model
  Cfg G = buildCfg(Body, StartAddr, {StartAddr}, Opts);

  AvailSet Top;
  Top.Universal = true;
  AvailSet Empty; // nothing available at trace entry

  DataflowProblem<AvailSet> P;
  P.Dir = Direction::Forward;
  P.Init = Top;
  P.Boundary = Empty;
  P.Meet = [](const AvailSet &A, const AvailSet &B) {
    if (A.Universal)
      return B;
    if (B.Universal)
      return A;
    AvailSet M;
    for (const AvailLoad &F : A.Facts)
      if (std::find(B.Facts.begin(), B.Facts.end(), F) !=
          B.Facts.end())
        M.Facts.push_back(F);
    normalizeAvail(M);
    return M;
  };
  P.Transfer = [](const Cfg &Graph, uint32_t Block,
                  const AvailSet &In) {
    const CfgBlock &B = Graph.blocks()[Block];
    AvailSet S = In;
    for (uint32_t I = B.FirstInst; I <= B.lastInst(); ++I)
      availTransferInst(Graph.instructions()[I], S);
    normalizeAvail(S);
    return S;
  };
  auto Sol = solveDataflow(G, P);

  for (uint32_t BI = 0; BI != G.blocks().size(); ++BI) {
    const CfgBlock &B = G.blocks()[BI];
    AvailSet S = Sol.In[BI];
    for (uint32_t I = B.FirstInst; I <= B.lastInst(); ++I) {
      const Instruction &Inst = Body[I];
      if (Inst.Op == Opcode::Ld && !S.Universal) {
        int Holder = -1;
        for (const AvailLoad &F : S.Facts)
          if (F.Base == Inst.Rs1 && F.Imm == Inst.Imm) {
            Holder = F.Holder;
            if (F.Holder == Inst.Rd)
              break; // prefer the in-place form (pure Nop)
          }
        R.Holder[I] = Holder;
      }
      availTransferInst(Inst, S);
    }
  }
  return R;
}
