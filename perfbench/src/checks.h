// Output checks computed apart from the program: every expected value is
// derived here from the generated rows or from cube cells with the paper's
// formulas, never read back from the program's own answer.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "opmap/car/rule.h"
#include "opmap/compare/comparator.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset.h"
#include "opmap/gi/impressions.h"

namespace perfbench {

/// FNV-1a over every code of `dataset`, column by column: the prepare step
/// records it so the measured process can tell it loaded the rows that
/// were generated.
uint64_t DatasetDigest(const opmap::Dataset& dataset);

/// Counts `samples` random 2-D and `samples` random 3-D cells directly
/// from the rows of `dataset` and compares them with the store.
void CheckCubeCells(const opmap::Dataset& dataset, const opmap::CubeStore& store,
                    Rng* rng, int samples, Report* report);

/// Every pair cube sums out to both of its attribute cubes, every
/// attribute cube sums out to class_counts, and class_counts sums to
/// num_records. Holds for stores built from rows without null values.
void CheckMarginals(const opmap::CubeStore& store, Report* report);

/// Every mined rule with at most two conditions has the support and body
/// counts of its cube cells, and the number of rules equals the number of
/// cube cells whose count clears ceil(min_support * rows).
void CheckRules(const opmap::RuleSet& rules, const opmap::CubeStore& store,
                double min_support, Report* report);

/// Recomputes M(A) = sum_k W_k (Wald CI at 95%, z = 1.96 from Table I) and
/// the property split at tau = 0.9 for every candidate attribute of a
/// value-group comparison, and checks the program's result against it:
/// orientation, populations, per-attribute M, property flags and ranking
/// order. `in_a`/`in_b` are membership masks over the compared attribute's
/// domain (one value each for Compare, value vs rest for CompareVsRest).
void CheckComparison(const opmap::CubeStore& store, int attribute,
                     const std::vector<bool>& in_a, const std::vector<bool>& in_b,
                     opmap::ValueCode target, const opmap::ComparisonResult& result,
                     Report* report);

/// Convenience for a single-value comparison spec.
void CheckCompare(const opmap::CubeStore& store, const opmap::ComparisonSpec& spec,
                  const opmap::ComparisonResult& result, Report* report);

/// Checks the pairs of an all-pairs sweep: the eligible pair set, the
/// good/bad orientation, and (for every `stride`-th pair) the top attribute
/// and its M from the independent recomputation.
void CheckAllPairs(const opmap::CubeStore& store, int attribute, opmap::ValueCode target,
                   int64_t min_population, const std::vector<opmap::PairSummary>& pairs,
                   int stride, Report* report);

/// The influence part of a GI pass: one entry per stored attribute, each
/// chi-square recomputed from its 2-D cube, sorted by Cramer's V.
void CheckInfluence(const opmap::CubeStore& store, const opmap::GeneralImpressions& gi,
                    Report* report);

/// Serializes a store (v3 container bytes) for byte-equality checks.
std::string StoreBytes(const opmap::CubeStore& store);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
