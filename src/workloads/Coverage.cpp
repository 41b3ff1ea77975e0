//===- workloads/Coverage.cpp ---------------------------------------------===//

#include "workloads/Coverage.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace pcc;
using namespace pcc::workloads;

namespace {

/// Coverage matrix induced by atom weights: atom S (bitmask over inputs)
/// holds W[S] regions; coverage(i by j) = sum of atoms containing both /
/// sum of atoms containing i.
CoverageMatrix matrixFromWeights(const std::vector<uint32_t> &Weights,
                                 unsigned NumInputs) {
  CoverageMatrix M(NumInputs, std::vector<double>(NumInputs, 1.0));
  for (unsigned I = 0; I != NumInputs; ++I) {
    uint64_t SizeI = 0;
    for (size_t S = 1; S != Weights.size(); ++S)
      if (S & (1u << I))
        SizeI += Weights[S];
    for (unsigned J = 0; J != NumInputs; ++J) {
      if (I == J)
        continue;
      uint64_t Both = 0;
      for (size_t S = 1; S != Weights.size(); ++S)
        if ((S & (1u << I)) && (S & (1u << J)))
          Both += Weights[S];
      M[I][J] = SizeI == 0 ? 0.0
                           : static_cast<double>(Both) /
                                 static_cast<double>(SizeI);
    }
  }
  return M;
}

double matrixError(const CoverageMatrix &A, const CoverageMatrix &B) {
  double Sum = 0;
  unsigned Count = 0;
  for (size_t I = 0; I != A.size(); ++I)
    for (size_t J = 0; J != A.size(); ++J) {
      if (I == J)
        continue;
      double D = A[I][J] - B[I][J];
      Sum += D * D;
      ++Count;
    }
  return Count == 0 ? 0.0 : std::sqrt(Sum / Count);
}

} // namespace

CoverageDesign pcc::workloads::designCoverage(const CoverageMatrix &Target,
                                              uint32_t RegionsPerInput,
                                              uint64_t Seed) {
  const unsigned NumInputs = static_cast<unsigned>(Target.size());
  assert(NumInputs >= 1 && NumInputs <= 10 && "unsupported input count");
  const size_t NumAtoms = size_t(1) << NumInputs;

  // Start from a uniform guess: most weight in the all-inputs atom.
  std::vector<uint32_t> Weights(NumAtoms, 1);
  Weights[0] = 0;
  Weights[NumAtoms - 1] = std::max<uint32_t>(RegionsPerInput / 2, 1);

  Rng Gen(Seed);
  CoverageMatrix Current = matrixFromWeights(Weights, NumInputs);
  double CurrentError = matrixError(Current, Target);

  // Greedy local search with random restart steps: perturb one atom
  // weight, keep improvements. Also softly steer per-input sizes toward
  // RegionsPerInput via a size penalty.
  auto sizePenalty = [&](const std::vector<uint32_t> &W) {
    double Penalty = 0;
    for (unsigned I = 0; I != NumInputs; ++I) {
      uint64_t Size = 0;
      for (size_t S = 1; S != NumAtoms; ++S)
        if (S & (1u << I))
          Size += W[S];
      double Rel = (static_cast<double>(Size) - RegionsPerInput) /
                   std::max<double>(RegionsPerInput, 1);
      Penalty += Rel * Rel;
    }
    return Penalty * 1e-3;
  };

  double CurrentScore = CurrentError + sizePenalty(Weights);
  const unsigned Steps = 20000;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    size_t Atom = 1 + Gen.nextBelow(NumAtoms - 1);
    int Delta = Gen.nextBool(0.5) ? 1 : -1;
    if (Gen.nextBool(0.2))
      Delta *= static_cast<int>(1 + Gen.nextBelow(4));
    int64_t NewWeight = static_cast<int64_t>(Weights[Atom]) + Delta;
    if (NewWeight < 0)
      continue;
    uint32_t Saved = Weights[Atom];
    Weights[Atom] = static_cast<uint32_t>(NewWeight);
    CoverageMatrix Candidate = matrixFromWeights(Weights, NumInputs);
    double Score =
        matrixError(Candidate, Target) + sizePenalty(Weights);
    if (Score <= CurrentScore) {
      CurrentScore = Score;
      Current = std::move(Candidate);
    } else {
      Weights[Atom] = Saved;
    }
  }

  // Materialize regions: atoms get contiguous region-id ranges.
  CoverageDesign Design;
  Design.InputRegions.resize(NumInputs);
  uint32_t NextRegion = 0;
  for (size_t S = 1; S != NumAtoms; ++S) {
    for (uint32_t R = 0; R != Weights[S]; ++R) {
      for (unsigned I = 0; I != NumInputs; ++I)
        if (S & (1u << I))
          Design.InputRegions[I].push_back(NextRegion);
      ++NextRegion;
    }
  }
  Design.NumRegions = NextRegion;
  Design.Achieved = matrixFromWeights(Weights, NumInputs);
  Design.RmsError = matrixError(Design.Achieved, Target);
  return Design;
}

CoverageMatrix pcc::workloads::coverageOfSets(
    const std::vector<std::vector<uint32_t>> &Sets) {
  const size_t N = Sets.size();
  CoverageMatrix M(N, std::vector<double>(N, 1.0));
  for (size_t I = 0; I != N; ++I) {
    std::vector<uint32_t> SetI = Sets[I];
    std::sort(SetI.begin(), SetI.end());
    for (size_t J = 0; J != N; ++J) {
      if (I == J)
        continue;
      std::vector<uint32_t> SetJ = Sets[J];
      std::sort(SetJ.begin(), SetJ.end());
      std::vector<uint32_t> Both;
      std::set_intersection(SetI.begin(), SetI.end(), SetJ.begin(),
                            SetJ.end(), std::back_inserter(Both));
      M[I][J] = SetI.empty() ? 1.0
                             : static_cast<double>(Both.size()) /
                                   static_cast<double>(SetI.size());
    }
  }
  return M;
}

AddressIntervals
pcc::workloads::coveredCode(const dbi::CodeCache &Cache) {
  AddressIntervals Intervals;
  for (const auto &T : Cache.traces())
    if (T) // Unbuilt plan slots are null: only built translations count.
      Intervals.emplace_back(T->guestStart(),
                             T->guestStart() +
                                 T->guestInstCount() * isa::InstructionSize);
  std::sort(Intervals.begin(), Intervals.end());
  // Merge overlaps (traces overlap when one starts mid-way into code
  // another trace already covered).
  AddressIntervals Merged;
  for (const auto &[Start, End] : Intervals) {
    if (!Merged.empty() && Start <= Merged.back().second)
      Merged.back().second = std::max(Merged.back().second, End);
    else
      Merged.emplace_back(Start, End);
  }
  return Merged;
}

uint64_t pcc::workloads::intervalBytes(const AddressIntervals &Intervals) {
  uint64_t Total = 0;
  for (const auto &[Start, End] : Intervals)
    Total += End - Start;
  return Total;
}

uint64_t
pcc::workloads::intervalIntersectionBytes(const AddressIntervals &A,
                                          const AddressIntervals &B) {
  uint64_t Total = 0;
  size_t I = 0, J = 0;
  while (I != A.size() && J != B.size()) {
    uint32_t Low = std::max(A[I].first, B[J].first);
    uint32_t High = std::min(A[I].second, B[J].second);
    if (Low < High)
      Total += High - Low;
    if (A[I].second < B[J].second)
      ++I;
    else
      ++J;
  }
  return Total;
}

double pcc::workloads::codeCoverage(const AddressIntervals &Of,
                                    const AddressIntervals &By) {
  uint64_t Bytes = intervalBytes(Of);
  if (Bytes == 0)
    return 1.0;
  return static_cast<double>(intervalIntersectionBytes(Of, By)) /
         static_cast<double>(Bytes);
}

std::map<std::string, AddressIntervals>
pcc::workloads::moduleRelativeCoverage(
    const AddressIntervals &Coverage,
    const std::vector<loader::LoadedModule> &Modules) {
  std::map<std::string, AddressIntervals> Result;
  for (const auto &[Start, End] : Coverage) {
    for (const loader::LoadedModule &Mod : Modules) {
      uint32_t Low = std::max(Start, Mod.Base);
      uint32_t High = std::min(End, Mod.Base + Mod.Size);
      if (Low < High)
        Result[Mod.Image->name()].emplace_back(Low - Mod.Base,
                                               High - Mod.Base);
    }
  }
  for (auto &[Name, Intervals] : Result)
    std::sort(Intervals.begin(), Intervals.end());
  return Result;
}

double pcc::workloads::moduleRelativeCodeCoverage(
    const std::map<std::string, AddressIntervals> &Of,
    const std::map<std::string, AddressIntervals> &By) {
  uint64_t Total = 0;
  uint64_t Shared = 0;
  for (const auto &[Name, Intervals] : Of) {
    Total += intervalBytes(Intervals);
    auto It = By.find(Name);
    if (It != By.end())
      Shared += intervalIntersectionBytes(Intervals, It->second);
  }
  return Total == 0 ? 1.0
                    : static_cast<double>(Shared) /
                          static_cast<double>(Total);
}
