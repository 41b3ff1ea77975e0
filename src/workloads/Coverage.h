//===- workloads/Coverage.h - Code-coverage design and measurement -*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two halves of the coverage story:
///
///   1. CoverageDesigner — fits per-input region sets to a target
///      pairwise code-coverage matrix (Table 3 of the paper) by
///      searching over "atom" weights: an atom is a group of regions
///      executed by exactly one subset of inputs; coverage(i by j) is
///      then a ratio of atom-weight sums. Local search over the 2^n - 1
///      atom weights gets within a few percent of any feasible matrix.
///
///   2. Measurement — code coverage between two runs, computed from the
///      guest address intervals their compiled traces cover, exactly the
///      quantity the paper reports ("the amount of static code
///      corresponding to an input also executed by other inputs").
///
//===----------------------------------------------------------------------===//

#ifndef PCC_WORKLOADS_COVERAGE_H
#define PCC_WORKLOADS_COVERAGE_H

#include "dbi/Engine.h"
#include "loader/Loader.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcc {
namespace workloads {

/// A pairwise coverage matrix; entry [i][j] is the fraction of input i's
/// code also executed by input j (diagonal = 1).
using CoverageMatrix = std::vector<std::vector<double>>;

/// Result of fitting region sets to a coverage matrix.
struct CoverageDesign {
  /// Region indices (into a shared universe 0..NumRegions-1) executed by
  /// each input.
  std::vector<std::vector<uint32_t>> InputRegions;
  uint32_t NumRegions = 0;
  /// The matrix the design actually achieves.
  CoverageMatrix Achieved;
  /// Root-mean-square error vs. the target off-diagonal entries.
  double RmsError = 0;
};

/// Fits region sets for |Target| inputs to the target matrix, using
/// roughly \p RegionsPerInput regions per input (all regions weighted
/// equally). Deterministic for a fixed \p Seed.
CoverageDesign designCoverage(const CoverageMatrix &Target,
                              uint32_t RegionsPerInput, uint64_t Seed);

/// Computes the coverage matrix achieved by a design (unit-weight
/// regions). Exposed for tests.
CoverageMatrix
coverageOfSets(const std::vector<std::vector<uint32_t>> &Sets);

/// Sorted, disjoint guest address intervals [first, second).
using AddressIntervals = std::vector<std::pair<uint32_t, uint32_t>>;

/// Address intervals covered by the translations built in \p Cache —
/// the static code this run executed under the engine. Unbuilt plan
/// slots of a primed cache (admitted, never looked up) are skipped.
AddressIntervals coveredCode(const dbi::CodeCache &Cache);

/// Total bytes covered.
uint64_t intervalBytes(const AddressIntervals &Intervals);

/// Bytes in the intersection of two interval sets.
uint64_t intervalIntersectionBytes(const AddressIntervals &A,
                                   const AddressIntervals &B);

/// Fraction of \p Of's code also present in \p By (the paper's
/// "coverage of input Of by input By"). Returns 1 for empty \p Of.
double codeCoverage(const AddressIntervals &Of,
                    const AddressIntervals &By);

/// Coverage intervals split per module and rebased to module-relative
/// offsets, keyed by module name. Needed to compare library coverage
/// across processes that load the same library at different addresses
/// (Table 4 of the paper). Intervals outside every module are dropped.
std::map<std::string, AddressIntervals>
moduleRelativeCoverage(const AddressIntervals &Coverage,
                       const std::vector<loader::LoadedModule> &Modules);

/// Coverage fraction across per-module interval maps: bytes of \p Of
/// found in \p By (matching module names, module-relative) over total
/// bytes of \p Of.
double moduleRelativeCodeCoverage(
    const std::map<std::string, AddressIntervals> &Of,
    const std::map<std::string, AddressIntervals> &By);

} // namespace workloads
} // namespace pcc

#endif // PCC_WORKLOADS_COVERAGE_H
