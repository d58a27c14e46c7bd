#ifndef OPMAP_CAR_MINER_H_
#define OPMAP_CAR_MINER_H_

#include <vector>

#include "opmap/car/rule.h"
#include "opmap/common/parallel.h"
#include "opmap/common/status.h"
#include "opmap/cube/count_kernels.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset.h"

namespace opmap {

/// Options for class-association-rule mining.
struct CarMinerOptions {
  /// Minimum rule support sup(X, y) / |D|. Zero materializes the complete
  /// rule space (the rule-cube setting; see paper Section III.B).
  double min_support = 0.01;
  /// Minimum rule confidence sup(X, y) / sup(X).
  double min_confidence = 0.0;
  /// Maximum number of conditions in a rule body, fixed conditions
  /// included. The deployed system stores only 2-condition rules; longer
  /// rules come from restricted mining.
  int max_conditions = 2;
  /// Restricted mining (paper Section III.B): these conditions are fixed;
  /// only records satisfying all of them are counted, and mined rules are
  /// emitted with the fixed conditions merged into their bodies.
  std::vector<Condition> fixed_conditions;
  /// Worker count for the cube build and the level >= 3 counting passes.
  /// Rows are sharded into private count buffers and merged by addition,
  /// so the mined rule set is bit-identical to a serial run for any
  /// thread count.
  ParallelOptions parallel;
  /// Counting kernel of the cube build behind levels 1 and 2 (passed
  /// through to CubeStoreOptions::kernel). Every kernel mines
  /// bit-identical rule sets.
  CountKernel kernel = CountKernel::kAuto;
  /// Row-tile size of the cube build (passed through to
  /// CubeStoreOptions::block_rows). Purely a performance knob.
  int64_t block_rows = 0;
};

/// Apriori-style class-association-rule miner (Liu et al.'s CAR setting:
/// association rules whose head is a class value).
///
/// Rules with at most two free conditions are read off rule cubes (paper
/// Section III.B: the 2-D and 3-D cubes hold every such rule at zero
/// thresholds): the rows matching `fixed_conditions` are built into cubes
/// over the free attributes and walked cell by cell. Longer rules grow
/// level-wise from the frequent 2-condition bodies by scanning the rows;
/// a body is extended only while one of its per-class counts can still
/// clear the support threshold (downward closure of ruleitem support).
///
/// The support threshold is ceil(min_support * dataset.num_rows()), so
/// rows with a null class and rows outside the fixed conditions still
/// count in |D|. `body_count` is the body's count summed over classes.
///
/// Rule order: by number of conditions, then the conditions' attributes,
/// then their values, then the class — the nested walk over attribute
/// cubes and then pair cubes; longer rules are sorted to the same key.
///
/// Requires an all-categorical dataset. Fails with InvalidArgument when
/// `max_conditions` leaves no room beyond the fixed conditions, and with
/// OutOfRange when the cubes would exceed the miner's memory budget
/// (attribute pairs with very large domains).
Result<RuleSet> MineClassAssociationRules(const Dataset& dataset,
                                          const CarMinerOptions& options);

/// The same cell walk over a prebuilt store: the rules with at most
/// `options.max_conditions` (1 or 2) conditions over the store's
/// attributes, in the rule order documented above, with support relative
/// to store.num_records(). Only the thresholds and `max_conditions` of
/// `options` apply. Fails with InvalidArgument for fixed conditions,
/// max_conditions > 2, or max_conditions == 2 on a store without pair
/// cubes; a lazily mapped cube that fails its CRC fails the call.
Result<RuleSet> RulesFromCubes(const CubeStore& store,
                               const CarMinerOptions& options);

/// Total number of possible rules with exactly `k` conditions — the size of
/// the complete rule space the rule-cube representation covers. Used to
/// demonstrate the completeness problem of classifiers.
int64_t CountPossibleRules(const Schema& schema, int k);

}  // namespace opmap

#endif  // OPMAP_CAR_MINER_H_
