#include "gtest/gtest.h"
#include "opmap/baselines/cba.h"
#include "opmap/baselines/cube_exceptions.h"
#include "opmap/baselines/decision_tree.h"
#include "opmap/baselines/evaluation.h"
#include "opmap/baselines/naive_bayes.h"
#include "opmap/baselines/rule_induction.h"
#include "opmap/baselines/rule_ranking.h"
#include "opmap/car/miner.h"
#include "opmap/data/call_log.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

Schema XorSchema() {
  return MakeSchema({{"A", {"a0", "a1"}},
                     {"B", {"b0", "b1"}},
                     {"Noise", {"n0", "n1", "n2"}},
                     {"Y", {"neg", "pos"}}});
}

// Class = A XOR B, noise independent: needs depth-2 splits.
Dataset XorDataset() {
  Dataset d(XorSchema());
  for (ValueCode a = 0; a < 2; ++a) {
    for (ValueCode b = 0; b < 2; ++b) {
      for (ValueCode n = 0; n < 3; ++n) {
        const ValueCode y = a ^ b;
        AppendRows(&d, {a, b, n, y}, 50);
      }
    }
  }
  return d;
}

// Class = A AND B: a greedy tree needs two levels (A has positive gain
// because a1 is 50% positive while a0 is pure negative).
Dataset AndDataset() {
  Dataset d(XorSchema());
  for (ValueCode a = 0; a < 2; ++a) {
    for (ValueCode b = 0; b < 2; ++b) {
      for (ValueCode n = 0; n < 3; ++n) {
        const ValueCode y = (a == 1 && b == 1) ? 1 : 0;
        AppendRows(&d, {a, b, n, y}, 50);
      }
    }
  }
  return d;
}

TEST(DecisionTree, LearnsNestedPattern) {
  Dataset d = AndDataset();
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::Train(d));
  ASSERT_OK_AND_ASSIGN(double acc, tree.Evaluate(d));
  EXPECT_DOUBLE_EQ(acc, 1.0);
  EXPECT_EQ(tree.depth(), 2);
  EXPECT_EQ(tree.Predict({1, 1, 0, kNullCode}), 1);
  EXPECT_EQ(tree.Predict({0, 1, 2, kNullCode}), 0);
  EXPECT_EQ(tree.Predict({1, 0, 2, kNullCode}), 0);
}

TEST(DecisionTree, DepthLimitForcesMajorityLeaf) {
  Dataset d = AndDataset();
  DecisionTreeOptions opts;
  opts.max_depth = 0;  // majority class only
  ASSERT_OK_AND_ASSIGN(DecisionTree stump, DecisionTree::Train(d, opts));
  ASSERT_OK_AND_ASSIGN(double acc, stump.Evaluate(d));
  EXPECT_DOUBLE_EQ(acc, 0.75);  // 3 of 4 cells are negative
  EXPECT_EQ(stump.num_leaves(), 1);
}

TEST(DecisionTree, GreedyGainCannotSeeXor) {
  // Both attributes have zero marginal information gain under XOR, so the
  // greedy tree refuses to split — the classic myopia of classifiers the
  // complete rule space does not suffer from.
  Dataset d = XorDataset();
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::Train(d));
  EXPECT_EQ(tree.depth(), 0);
  ASSERT_OK_AND_ASSIGN(double acc, tree.Evaluate(d));
  EXPECT_NEAR(acc, 0.5, 1e-9);
}

// The completeness problem (paper Section III.A): the tree's rule count is
// a tiny fraction of the complete rule space stored in rule cubes.
TEST(DecisionTree, CompletenessProblem) {
  CallLogConfig config;
  config.num_records = 20000;
  config.num_attributes = 12;
  ASSERT_OK_AND_ASSIGN(CallLogGenerator gen, CallLogGenerator::Make(config));
  Dataset d = gen.Generate();
  DecisionTreeOptions opts;
  opts.max_depth = 6;
  opts.min_leaf_size = 50;  // standard pruning: no one-off leaves
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::Train(d, opts));
  RuleSet tree_rules = tree.ExtractRules();
  const int64_t complete = CountPossibleRules(d.schema(), 1) +
                           CountPossibleRules(d.schema(), 2);
  EXPECT_LT(static_cast<int64_t>(tree_rules.size()), complete / 10);
}

TEST(DecisionTree, ExtractedRulesHaveConsistentCounts) {
  Dataset d = XorDataset();
  ASSERT_OK_AND_ASSIGN(DecisionTree tree, DecisionTree::Train(d));
  RuleSet rules = tree.ExtractRules();
  ASSERT_FALSE(rules.empty());
  int64_t covered = 0;
  for (const ClassRule& r : rules.rules()) {
    EXPECT_GE(r.body_count, r.support_count);
    EXPECT_GT(r.body_count, 0);
    covered += r.body_count;
  }
  // Leaves partition the training data.
  EXPECT_EQ(covered, d.num_rows());
}

TEST(DecisionTree, RejectsContinuousData) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Continuous("x"));
  attrs.push_back(Attribute::Categorical("c", {"a", "b"}));
  auto schema = Schema::Make(std::move(attrs), 1);
  ASSERT_TRUE(schema.ok());
  Dataset d(schema.MoveValue());
  EXPECT_FALSE(DecisionTree::Train(d).ok());
}

TEST(RuleInduction, FindsPreciseRule) {
  Dataset d(XorSchema());
  // A=a1 is 95% positive; everything else is negative.
  AppendRows(&d, {1, 0, 0, 1}, 190);
  AppendRows(&d, {1, 0, 1, 0}, 10);
  AppendRows(&d, {0, 1, 0, 0}, 300);
  ASSERT_OK_AND_ASSIGN(RuleSet rules, InduceRules(d));
  bool found = false;
  for (const ClassRule& r : rules.rules()) {
    if (r.class_value == 1 && r.Confidence() >= 0.9) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(RuleInduction, CoverageShrinksRuleList) {
  Dataset d = XorDataset();
  RuleInductionOptions opts;
  opts.min_precision = 0.9;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, InduceRules(d, opts));
  // Four XOR cells => at most a handful of rules per class, far below the
  // complete space.
  EXPECT_LE(rules.size(), 10u);
  for (const ClassRule& r : rules.rules()) {
    EXPECT_GE(r.Confidence(), 0.9);
  }
}

TEST(RuleInduction, RejectsBadOptions) {
  Dataset d = XorDataset();
  RuleInductionOptions opts;
  opts.max_conditions = 0;
  EXPECT_FALSE(InduceRules(d, opts).ok());
}

TEST(RuleRanking, OrdersByMeasure) {
  Dataset d = XorDataset();
  CarMinerOptions mopts;
  mopts.min_support = 0.01;
  mopts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, mopts));
  ASSERT_OK_AND_ASSIGN(
      auto ranked,
      RankRules(rules, RuleMeasure::kChiSquare, d.ClassCounts(), 10));
  ASSERT_EQ(ranked.size(), 10u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
  // XOR: the top chi-square rules must be the 2-condition cells.
  EXPECT_EQ(ranked[0].rule.conditions.size(), 2u);
}

TEST(RuleRanking, LowSupportFraction) {
  std::vector<RankedRule> ranked(4);
  ranked[0].rule.body_count = 5;
  ranked[1].rule.body_count = 500;
  ranked[2].rule.body_count = 3;
  ranked[3].rule.body_count = 800;
  EXPECT_DOUBLE_EQ(LowSupportFraction(ranked, 1000, 0.01, 4), 0.5);
  EXPECT_DOUBLE_EQ(LowSupportFraction(ranked, 1000, 0.01, 2), 0.5);
  EXPECT_DOUBLE_EQ(LowSupportFraction({}, 1000, 0.01, 4), 0.0);
}

// Top-ranked rules on skewed noisy data are low-support artifacts — the
// paper's argument against plain rule ranking (Section II).
TEST(RuleRanking, TopRulesAreArtifactsOnNoisyData) {
  CallLogConfig config;
  config.num_records = 30000;
  config.num_attributes = 10;
  ASSERT_OK_AND_ASSIGN(CallLogGenerator gen, CallLogGenerator::Make(config));
  Dataset d = gen.Generate();
  CarMinerOptions mopts;
  mopts.min_support = 0.0001;
  mopts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, mopts));
  ASSERT_OK_AND_ASSIGN(
      auto ranked,
      RankRules(rules, RuleMeasure::kConfidence, d.ClassCounts(), 20));
  const double low = LowSupportFraction(ranked, d.num_rows(), 0.01, 20);
  EXPECT_GT(low, 0.5);
}

TEST(CrossValidation, StratifiedFoldsAndHonestAccuracy) {
  // A learnable pattern: class = A, with 10% label noise.
  Dataset d(XorSchema());
  Rng noise(3);
  for (int i = 0; i < 1200; ++i) {
    const ValueCode a = static_cast<ValueCode>(i % 2);
    const ValueCode y =
        noise.NextBernoulli(0.1) ? static_cast<ValueCode>(1 - a) : a;
    AppendRows(&d, {a, static_cast<ValueCode>(i % 2),
                    static_cast<ValueCode>(i % 3), y},
               1);
  }
  ClassifierTrainer trainer = [](const Dataset& train) -> Result<Classifier> {
    OPMAP_ASSIGN_OR_RETURN(DecisionTree tree, DecisionTree::Train(train));
    auto shared = std::make_shared<DecisionTree>(std::move(tree));
    return Classifier([shared](const std::vector<ValueCode>& row) {
      return shared->Predict(row);
    });
  };
  Rng rng(9);
  ASSERT_OK_AND_ASSIGN(CrossValidationResult cv,
                       CrossValidate(d, trainer, 5, rng));
  ASSERT_EQ(cv.fold_accuracies.size(), 5u);
  // ~90% achievable; every fold should be near it and above majority.
  EXPECT_GT(cv.mean_accuracy, 0.85);
  EXPECT_LT(cv.mean_accuracy, 0.96);
  EXPECT_GT(cv.mean_accuracy, cv.majority_baseline);
  EXPECT_LT(cv.stddev_accuracy, 0.05);
}

TEST(CrossValidation, Validation) {
  Dataset d = AndDataset();
  ClassifierTrainer trainer = [](const Dataset&) -> Result<Classifier> {
    return Classifier(
        [](const std::vector<ValueCode>&) { return ValueCode{0}; });
  };
  Rng rng(1);
  EXPECT_FALSE(CrossValidate(d, trainer, 1, rng).ok());
  ASSERT_OK_AND_ASSIGN(CrossValidationResult cv,
                       CrossValidate(d, trainer, 4, rng));
  // Constant classifier scores the majority baseline (up to rounding from
  // slightly unequal fold sizes).
  EXPECT_NEAR(cv.mean_accuracy, cv.majority_baseline, 1e-3);
}

TEST(CubeExceptions, FindsPlantedHotCell) {
  auto schema = std::make_shared<const Schema>(XorSchema());
  ASSERT_OK_AND_ASSIGN(RuleCube cube, RuleCube::Make(schema, {0, 1, 3}));
  // Near-independent background plus one hot cell.
  for (ValueCode a = 0; a < 2; ++a) {
    for (ValueCode b = 0; b < 2; ++b) {
      cube.Add({a, b, 0}, 500);
      cube.Add({a, b, 1}, 20);
    }
  }
  cube.Add({1, 1, 1}, 300);
  CountExceptionOptions opts;
  opts.z_threshold = 4.0;
  ASSERT_OK_AND_ASSIGN(auto exceptions, MineCountExceptions(cube, opts));
  ASSERT_FALSE(exceptions.empty());
  EXPECT_EQ(exceptions[0].cell, (std::vector<ValueCode>{1, 1, 1}));
  EXPECT_GT(exceptions[0].residual_z, 4.0);
}

TEST(Cba, LearnsXorThroughTwoConditionRules) {
  // CBA succeeds exactly where the greedy tree fails: the complete
  // 2-condition rule space contains the XOR cells as confident rules.
  Dataset d = XorDataset();
  CbaOptions opts;
  opts.min_support = 0.05;
  opts.min_confidence = 0.6;
  ASSERT_OK_AND_ASSIGN(CbaClassifier cba, CbaClassifier::Train(d, opts));
  ASSERT_OK_AND_ASSIGN(double acc, cba.Evaluate(d));
  EXPECT_DOUBLE_EQ(acc, 1.0);
  EXPECT_EQ(cba.Predict({0, 1, 0, kNullCode}), 1);
  EXPECT_EQ(cba.Predict({1, 1, 2, kNullCode}), 0);
  // The classifier keeps only a handful of covering rules out of the full
  // candidate set — the completeness problem in one number.
  EXPECT_LE(cba.selected_rules().size(), 8u);
  EXPECT_GT(cba.num_candidate_rules(),
            static_cast<int64_t>(cba.selected_rules().size()));
}

TEST(Cba, SelectedRulesFollowTotalOrder) {
  Dataset d = AndDataset();
  ASSERT_OK_AND_ASSIGN(CbaClassifier cba,
                       CbaClassifier::Train(d, CbaOptions{0.05, 0.5, 2}));
  const auto& rules = cba.selected_rules();
  for (size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(rules[i - 1].Confidence(), rules[i].Confidence() - 1e-12);
  }
}

TEST(Cba, DefaultClassCoversUnmatchedRows) {
  Dataset d = AndDataset();
  CbaOptions opts;
  opts.min_support = 0.9;  // nothing qualifies
  opts.min_confidence = 0.99;
  ASSERT_OK_AND_ASSIGN(CbaClassifier cba, CbaClassifier::Train(d, opts));
  EXPECT_TRUE(cba.selected_rules().empty());
  EXPECT_EQ(cba.default_class(), 0);  // majority (75% negative)
  ASSERT_OK_AND_ASSIGN(double acc, cba.Evaluate(d));
  EXPECT_DOUBLE_EQ(acc, 0.75);
}

TEST(Cba, RejectsContinuousData) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Continuous("x"));
  attrs.push_back(Attribute::Categorical("c", {"a", "b"}));
  auto schema = Schema::Make(std::move(attrs), 1);
  ASSERT_TRUE(schema.ok());
  Dataset d(schema.MoveValue());
  EXPECT_FALSE(CbaClassifier::Train(d).ok());
}

TEST(NaiveBayes, LearnsConditionallyIndependentPattern) {
  Dataset d(XorSchema());
  // Class mostly determined by A, a bit by B; NB handles this well.
  AppendRows(&d, {1, 0, 0, 1}, 180);
  AppendRows(&d, {1, 0, 0, 0}, 20);
  AppendRows(&d, {1, 1, 1, 1}, 190);
  AppendRows(&d, {1, 1, 1, 0}, 10);
  AppendRows(&d, {0, 0, 2, 0}, 190);
  AppendRows(&d, {0, 0, 2, 1}, 10);
  AppendRows(&d, {0, 1, 0, 0}, 180);
  AppendRows(&d, {0, 1, 0, 1}, 20);
  ASSERT_OK_AND_ASSIGN(NaiveBayes nb, NaiveBayes::Train(d));
  ASSERT_OK_AND_ASSIGN(double acc, nb.Evaluate(d));
  EXPECT_GT(acc, 0.9);
  EXPECT_EQ(nb.Predict({1, 0, 0, kNullCode}), 1);
  EXPECT_EQ(nb.Predict({0, 1, 2, kNullCode}), 0);
}

TEST(NaiveBayes, PosteriorSumsToOne) {
  Dataset d = AndDataset();
  ASSERT_OK_AND_ASSIGN(NaiveBayes nb, NaiveBayes::Train(d));
  const auto post = nb.Posterior({1, 1, 0, kNullCode});
  double sum = 0;
  for (double p : post) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NaiveBayes, PriorsAndConditionalsAreSmoothed) {
  Dataset d = AndDataset();
  ASSERT_OK_AND_ASSIGN(NaiveBayes nb, NaiveBayes::Train(d));
  EXPECT_NEAR(nb.Prior(0) + nb.Prior(1), 1.0, 1e-9);
  // A value never seen with a class still has non-zero probability.
  EXPECT_GT(nb.ConditionalProb(0, 0, 1), 0.0);
  double sum = 0;
  for (ValueCode v = 0; v < 2; ++v) sum += nb.ConditionalProb(0, v, 1);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NaiveBayes, CannotExpressSubPopulationInteraction) {
  // XOR: marginals are uninformative, so NB is at chance — like the tree,
  // predictive baselines miss interactions the comparator isolates.
  Dataset d = XorDataset();
  ASSERT_OK_AND_ASSIGN(NaiveBayes nb, NaiveBayes::Train(d));
  ASSERT_OK_AND_ASSIGN(double acc, nb.Evaluate(d));
  EXPECT_NEAR(acc, 0.5, 0.05);
}

TEST(NaiveBayes, RejectsBadInput) {
  Dataset d = AndDataset();
  NaiveBayesOptions opts;
  opts.alpha = 0.0;
  EXPECT_FALSE(NaiveBayes::Train(d, opts).ok());
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Continuous("x"));
  attrs.push_back(Attribute::Categorical("c", {"a", "b"}));
  auto schema = Schema::Make(std::move(attrs), 1);
  ASSERT_TRUE(schema.ok());
  Dataset continuous(schema.MoveValue());
  EXPECT_FALSE(NaiveBayes::Train(continuous).ok());
}

TEST(CubeExceptions, EmptyAndUniformCubes) {
  auto schema = std::make_shared<const Schema>(XorSchema());
  ASSERT_OK_AND_ASSIGN(RuleCube cube, RuleCube::Make(schema, {0, 1, 3}));
  ASSERT_OK_AND_ASSIGN(auto empty, MineCountExceptions(cube, {}));
  EXPECT_TRUE(empty.empty());
  for (ValueCode a = 0; a < 2; ++a) {
    for (ValueCode b = 0; b < 2; ++b) {
      for (ValueCode y = 0; y < 2; ++y) cube.Add({a, b, y}, 100);
    }
  }
  ASSERT_OK_AND_ASSIGN(auto uniform, MineCountExceptions(cube, {}));
  EXPECT_TRUE(uniform.empty());
}

}  // namespace
}  // namespace opmap
