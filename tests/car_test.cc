#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <tuple>

#include "gtest/gtest.h"
#include "opmap/car/miner.h"
#include "opmap/car/rule.h"
#include "opmap/car/rule_query.h"
#include "opmap/cube/cube_store.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

Schema SmallSchema() {
  return MakeSchema({{"A", {"a0", "a1"}},
                     {"B", {"b0", "b1", "b2"}},
                     {"C", {"yes", "no"}}});
}

Dataset SmallDataset() {
  Dataset d(SmallSchema());
  // 40 rows with a planted pattern: A=a1,B=b0 is mostly "yes".
  AppendRows(&d, {1, 0, 0}, 12);
  AppendRows(&d, {1, 0, 1}, 2);
  AppendRows(&d, {0, 1, 1}, 10);
  AppendRows(&d, {0, 2, 0}, 6);
  AppendRows(&d, {1, 2, 1}, 6);
  AppendRows(&d, {0, 0, 0}, 4);
  return d;
}

// Brute-force support/confidence for a rule, used as ground truth.
void BruteForce(const Dataset& d, const std::vector<Condition>& conds,
                ValueCode cls, int64_t* sup, int64_t* body) {
  *sup = 0;
  *body = 0;
  for (int64_t r = 0; r < d.num_rows(); ++r) {
    bool match = true;
    for (const Condition& c : conds) {
      if (d.code(r, c.attribute) != c.value) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    ++*body;
    if (d.class_code(r) == cls) ++*sup;
  }
}

TEST(CarMiner, CountsMatchBruteForce) {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.min_confidence = 0.0;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  ASSERT_FALSE(rules.empty());
  for (const ClassRule& r : rules.rules()) {
    int64_t sup, body;
    BruteForce(d, r.conditions, r.class_value, &sup, &body);
    EXPECT_EQ(r.support_count, sup) << r.ToString(d.schema(), d.num_rows());
    EXPECT_EQ(r.body_count, body) << r.ToString(d.schema(), d.num_rows());
  }
}

TEST(CarMiner, ZeroThresholdCoversCompleteSpace) {
  // With min-sup = min-conf = 0 every possible 1- and 2-condition rule is
  // materialized (paper Section III.B: no holes in the knowledge space).
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  const int64_t expected = CountPossibleRules(d.schema(), 1) +
                           CountPossibleRules(d.schema(), 2);
  EXPECT_EQ(static_cast<int64_t>(rules.size()), expected);
}

TEST(CarMiner, CountPossibleRulesFormula) {
  const Schema schema = SmallSchema();
  // 1-cond: (2 + 3) values * 2 classes = 10.
  EXPECT_EQ(CountPossibleRules(schema, 1), 10);
  // 2-cond: 2*3 value pairs * 2 classes = 12.
  EXPECT_EQ(CountPossibleRules(schema, 2), 12);
  EXPECT_EQ(CountPossibleRules(schema, 3), 0);  // only two attributes
}

TEST(CarMiner, MinSupportPrunes) {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.25;  // 10 of 40 rows
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  for (const ClassRule& r : rules.rules()) {
    EXPECT_GE(r.support_count, 10);
  }
  // The planted A=a1,B=b0 -> yes rule (12 rows) must be found.
  bool found = false;
  for (const ClassRule& r : rules.rules()) {
    if (r.conditions.size() == 2 && r.class_value == 0 &&
        r.support_count == 12) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CarMiner, MinConfidencePrunes) {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.05;
  opts.min_confidence = 0.8;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  for (const ClassRule& r : rules.rules()) {
    EXPECT_GE(r.Confidence(), 0.8);
  }
}

TEST(CarMiner, RestrictedMiningPrependsFixedConditions) {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.max_conditions = 2;
  opts.fixed_conditions = {Condition{0, 1}};  // A = a1
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  for (const ClassRule& r : rules.rules()) {
    ASSERT_FALSE(r.conditions.empty());
    EXPECT_EQ(r.conditions[0].attribute, 0);
    EXPECT_EQ(r.conditions[0].value, 1);
    int64_t sup, body;
    BruteForce(d, r.conditions, r.class_value, &sup, &body);
    EXPECT_EQ(r.support_count, sup);
    EXPECT_EQ(r.body_count, body);
  }
}

TEST(CarMiner, ThreeConditionRules) {
  Schema schema = MakeSchema({{"A", {"a0", "a1"}},
                              {"B", {"b0", "b1"}},
                              {"C", {"c0", "c1"}},
                              {"Y", {"y", "n"}}});
  Dataset d(schema);
  AppendRows(&d, {0, 0, 0, 0}, 20);
  AppendRows(&d, {0, 0, 1, 1}, 20);
  AppendRows(&d, {1, 1, 0, 0}, 20);
  AppendRows(&d, {1, 1, 1, 1}, 20);
  CarMinerOptions opts;
  opts.min_support = 0.1;
  opts.max_conditions = 3;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  bool found3 = false;
  for (const ClassRule& r : rules.rules()) {
    if (r.conditions.size() == 3) {
      found3 = true;
      int64_t sup, body;
      BruteForce(d, r.conditions, r.class_value, &sup, &body);
      EXPECT_EQ(r.support_count, sup);
      EXPECT_EQ(r.body_count, body);
    }
  }
  EXPECT_TRUE(found3);
}

TEST(CarMiner, RejectsBadOptions) {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 1.5;
  EXPECT_FALSE(MineClassAssociationRules(d, opts).ok());
  opts = {};
  opts.max_conditions = 0;
  EXPECT_FALSE(MineClassAssociationRules(d, opts).ok());
  opts = {};
  opts.fixed_conditions = {Condition{2, 0}};  // class attribute
  EXPECT_FALSE(MineClassAssociationRules(d, opts).ok());
  opts = {};
  opts.fixed_conditions = {Condition{0, 9}};  // value out of domain
  EXPECT_FALSE(MineClassAssociationRules(d, opts).ok());
}

TEST(CarMiner, RejectsMaxConditionsWithinTheFixedConditions) {
  // Every restricted rule carries the fixed conditions plus at least one
  // free one, so max_conditions must leave room beyond the fixed set.
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.max_conditions = 1;
  opts.fixed_conditions = {Condition{0, 1}};
  Result<RuleSet> one = MineClassAssociationRules(d, opts);
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.status().code(), StatusCode::kInvalidArgument);
  opts.max_conditions = 2;
  opts.fixed_conditions = {Condition{0, 1}, Condition{1, 0}};
  EXPECT_EQ(MineClassAssociationRules(d, opts).status().code(),
            StatusCode::kInvalidArgument);
  // One free condition is allowed, and no rule is longer than asked for.
  opts.fixed_conditions = {Condition{0, 1}};
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  ASSERT_FALSE(rules.empty());
  for (const ClassRule& r : rules.rules()) {
    EXPECT_EQ(r.conditions.size(), 2u);
  }
}

TEST(CarMiner, WideDomainPairIsOutOfRangeNotAnAllocation) {
  // Two 65536-value attributes need 2^32 pair cells per class; the mining
  // cube build refuses before allocating anything.
  std::vector<std::string> big;
  for (int i = 0; i < 65536; ++i) big.push_back("v" + std::to_string(i));
  Dataset d(MakeSchema({{"A", big}, {"B", big}, {"Y", {"y0", "y1"}}}));
  for (ValueCode v = 0; v < 100; ++v) {
    AppendRows(&d, {v, static_cast<ValueCode>(65535 - v), v % 2}, 1);
  }
  CarMinerOptions opts;
  opts.min_support = 0.01;
  Result<RuleSet> rules = MineClassAssociationRules(d, opts);
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kOutOfRange)
      << rules.status().ToString();
  // Without pair cubes the same data mines fine.
  opts.max_conditions = 1;
  ASSERT_OK_AND_ASSIGN(RuleSet singles, MineClassAssociationRules(d, opts));
  EXPECT_EQ(singles.size(), 200u);
}

// ---------------------------------------------------------------------------
// Rule-set oracle: a brute-force enumerator over the rows
// ---------------------------------------------------------------------------

void ExpectSameRules(const RuleSet& want, const RuleSet& got) {
  EXPECT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const ClassRule& x = want.rule(i);
    const ClassRule& y = got.rule(i);
    ASSERT_EQ(y.conditions.size(), x.conditions.size()) << "rule " << i;
    for (size_t c = 0; c < x.conditions.size(); ++c) {
      ASSERT_EQ(y.conditions[c].attribute, x.conditions[c].attribute)
          << "rule " << i;
      ASSERT_EQ(y.conditions[c].value, x.conditions[c].value) << "rule " << i;
    }
    ASSERT_EQ(y.class_value, x.class_value) << "rule " << i;
    ASSERT_EQ(y.support_count, x.support_count) << "rule " << i;
    ASSERT_EQ(y.body_count, x.body_count) << "rule " << i;
  }
}

// Counts every (body, class) pair straight from the rows: for each row
// matching the fixed conditions, every combination of up to
// `max_conditions - |fixed|` of its non-null free values is a body. At
// min_support 0 the never-seen bodies of the complete rule space are
// enumerated too. Rules are sorted by (length, attributes, values, class).
RuleSet OracleRules(const Dataset& d, const CarMinerOptions& o) {
  const Schema& schema = d.schema();
  const int nc = schema.num_classes();
  const int free_levels =
      o.max_conditions - static_cast<int>(o.fixed_conditions.size());
  std::vector<int> free_attrs;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    bool fixed = schema.is_class(a);
    for (const Condition& c : o.fixed_conditions) fixed |= c.attribute == a;
    if (!fixed) free_attrs.push_back(a);
  }
  const int64_t minsup = static_cast<int64_t>(
      std::ceil(o.min_support * static_cast<double>(d.num_rows())));

  std::map<std::vector<Condition>, std::vector<int64_t>> counts;
  for (int64_t r = 0; r < d.num_rows(); ++r) {
    bool match = true;
    for (const Condition& c : o.fixed_conditions) {
      match &= d.code(r, c.attribute) == c.value;
    }
    const ValueCode y = d.class_code(r);
    if (!match || y == kNullCode) continue;
    std::vector<Condition> items;
    for (int a : free_attrs) {
      if (d.code(r, a) != kNullCode) items.push_back({a, d.code(r, a)});
    }
    // Every non-empty subset of at most free_levels items.
    const size_t n = items.size();
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) > free_levels) continue;
      std::vector<Condition> body;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) body.push_back(items[i]);
      }
      auto& cell = counts[body];
      cell.resize(static_cast<size_t>(nc), 0);
      ++cell[static_cast<size_t>(y)];
    }
  }
  if (minsup == 0) {
    // The complete space: every value combination of every attribute
    // subset, seen or not.
    const size_t m = free_attrs.size();
    for (uint32_t mask = 1; mask < (1u << m); ++mask) {
      if (__builtin_popcount(mask) > free_levels) continue;
      std::vector<int> attrs;
      for (size_t i = 0; i < m; ++i) {
        if (mask & (1u << i)) attrs.push_back(free_attrs[i]);
      }
      std::vector<ValueCode> values(attrs.size(), 0);
      for (;;) {
        std::vector<Condition> body;
        for (size_t i = 0; i < attrs.size(); ++i) {
          body.push_back({attrs[i], values[i]});
        }
        counts[body].resize(static_cast<size_t>(nc), 0);
        size_t i = 0;
        while (i < attrs.size() &&
               ++values[i] == schema.attribute(attrs[i]).domain()) {
          values[i++] = 0;
        }
        if (i == attrs.size()) break;
      }
    }
  }

  RuleSet out(d.num_rows());
  for (const auto& [body, per_class] : counts) {
    int64_t body_count = 0;
    for (int64_t c : per_class) body_count += c;
    for (int y = 0; y < nc; ++y) {
      const int64_t sup = per_class[static_cast<size_t>(y)];
      const double conf = body_count == 0 ? 0.0
                                          : static_cast<double>(sup) /
                                                static_cast<double>(body_count);
      if (sup < minsup || conf < o.min_confidence) continue;
      ClassRule rule;
      rule.conditions = body;
      rule.conditions.insert(rule.conditions.end(), o.fixed_conditions.begin(),
                             o.fixed_conditions.end());
      std::sort(rule.conditions.begin(), rule.conditions.end());
      rule.class_value = static_cast<ValueCode>(y);
      rule.support_count = sup;
      rule.body_count = body_count;
      out.Add(std::move(rule));
    }
  }
  auto key = [](const ClassRule& r) {
    std::vector<int> attrs;
    std::vector<ValueCode> values;
    for (const Condition& c : r.conditions) {
      attrs.push_back(c.attribute);
      values.push_back(c.value);
    }
    return std::make_tuple(r.conditions.size(), attrs, values, r.class_value);
  };
  std::sort(out.mutable_rules().begin(), out.mutable_rules().end(),
            [&](const ClassRule& a, const ClassRule& b) {
              return key(a) < key(b);
            });
  return out;
}

// One random mining problem: schema, rows and options.
struct OracleCase {
  Dataset data{Schema()};
  CarMinerOptions options;
  std::string description;
};

OracleCase RandomCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](int lo, int hi) {  // inclusive
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  OracleCase c;
  CarMinerOptions& o = c.options;
  o.min_support = uniform(0, 1) == 0 ? 0.0 : 0.002 * uniform(1, 20);
  o.min_confidence = uniform(0, 2) == 0 ? 0.0 : 0.1 * uniform(1, 6);
  o.max_conditions = uniform(1, 3);
  const int num_attrs = uniform(2, 5);
  const int num_fixed = uniform(0, std::min(2, o.max_conditions - 1));
  // The complete rule space (min_support 0) enumerates every value
  // combination, so its domains stay small; thresholded cases reach 300.
  const int max_domain = o.min_support == 0 ? 8 : 300;
  std::vector<std::pair<std::string, std::vector<std::string>>> attrs;
  std::vector<int> domains;
  for (int a = 0; a < num_attrs; ++a) {
    const int pick = uniform(0, 3);
    const int domain = pick == 0   ? 1
                       : pick == 1 ? max_domain
                                   : uniform(1, max_domain);
    domains.push_back(domain);
    std::vector<std::string> labels;
    for (int v = 0; v < domain; ++v) labels.push_back("v" + std::to_string(v));
    attrs.push_back({"A" + std::to_string(a), labels});
  }
  const int num_classes = uniform(1, 3);
  std::vector<std::string> classes;
  for (int y = 0; y < num_classes; ++y) {
    classes.push_back("y" + std::to_string(y));
  }
  attrs.push_back({"Y", classes});
  c.data = Dataset(MakeSchema(attrs));

  const int rows = uniform(0, 1500);
  const bool null_classes = uniform(0, 1) == 1;
  for (int r = 0; r < rows; ++r) {
    std::vector<ValueCode> codes;
    for (int a = 0; a < num_attrs; ++a) {
      // Skewed draws so some values of wide domains clear min_support.
      const double u = static_cast<double>(rng() % 1000000) / 1e6;
      codes.push_back(uniform(0, 19) == 0
                          ? kNullCode
                          : static_cast<ValueCode>(u * u * u * domains[a]));
    }
    codes.push_back(null_classes && uniform(0, 14) == 0
                        ? kNullCode
                        : static_cast<ValueCode>(uniform(0, num_classes - 1)));
    AppendRows(&c.data, codes, 1);
  }
  // Fixed conditions on distinct attributes, on frequent values.
  for (int f = 0; f < num_fixed; ++f) {
    const int a = f == 0 ? uniform(0, num_attrs - 1)
                         : (o.fixed_conditions[0].attribute + 1) % num_attrs;
    const int value = uniform(0, std::min(domains[a], 3) - 1);
    o.fixed_conditions.push_back(Condition{a, static_cast<ValueCode>(value)});
  }
  std::ostringstream desc;
  desc << "seed=" << seed << " rows=" << rows << " domains=";
  for (int dom : domains) desc << dom << ",";
  desc << " classes=" << num_classes << " null_classes=" << null_classes
       << " min_support=" << o.min_support
       << " min_confidence=" << o.min_confidence
       << " max_conditions=" << o.max_conditions
       << " fixed=" << o.fixed_conditions.size();
  c.description = desc.str();
  return c;
}

TEST(CarOracle, MinerEqualsBruteForceOnRandomSchemas) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    const OracleCase c = RandomCase(seed);
    SCOPED_TRACE(c.description);
    const RuleSet want = OracleRules(c.data, c.options);
    for (int threads : {1, 3}) {
      CarMinerOptions options = c.options;
      options.parallel.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(RuleSet got,
                           MineClassAssociationRules(c.data, options));
      ExpectSameRules(want, got);
    }
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CarOracle, CubeWalkEqualsMinerOverBuiltAndMappedStores) {
  const std::string path = ::testing::TempDir() + "/car_walk.opmc";
  int compared = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    OracleCase c = RandomCase(seed);
    CarMinerOptions options = c.options;
    if (!options.fixed_conditions.empty() || options.max_conditions > 2) {
      continue;
    }
    SCOPED_TRACE(c.description);
    // The store counts only rows with a class, so the comparison runs on
    // data without null-class rows, where both supports share |D|.
    std::vector<int64_t> labeled;
    for (int64_t r = 0; r < c.data.num_rows(); ++r) {
      if (c.data.class_code(r) != kNullCode) labeled.push_back(r);
    }
    const Dataset data = c.data.TakeRows(labeled);
    ASSERT_OK_AND_ASSIGN(RuleSet want,
                         MineClassAssociationRules(data, options));
    ExpectSameRules(OracleRules(data, options), want);

    CubeStoreOptions build;
    build.build_pair_cubes = options.max_conditions == 2;
    ASSERT_OK_AND_ASSIGN(CubeStore store,
                         CubeBuilder::FromDataset(data, build));
    ASSERT_OK_AND_ASSIGN(RuleSet built, RulesFromCubes(store, options));
    ExpectSameRules(want, built);

    ASSERT_OK(store.SaveToFile(path));
    ASSERT_OK_AND_ASSIGN(CubeStore mapped, CubeStore::LoadFromFile(path));
    ASSERT_TRUE(mapped.GetMappingStats().mapped);
    ASSERT_OK_AND_ASSIGN(RuleSet reloaded, RulesFromCubes(mapped, options));
    ExpectSameRules(want, reloaded);
    ++compared;
  }
  EXPECT_GT(compared, 20);
  std::remove(path.c_str());
}

TEST(CarOracle, CorruptPairCubeFailsTheWalkWithTheLazyCrcError) {
  const Dataset d = SmallDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  const std::string path = ::testing::TempDir() + "/car_walk_corrupt.opmc";
  ASSERT_OK(store.SaveToFile(path));
  // The v3 writer pads before each payload, so the last byte of the file
  // is a count byte of the last pair cube.
  std::string bytes = ReadFileBytes(path);
  bytes.back() ^= 0x01;
  WriteFileBytes(path, bytes);

  ASSERT_OK_AND_ASSIGN(CubeStore mapped, CubeStore::LoadFromFile(path));
  CarMinerOptions options;
  options.min_support = 0.0;
  options.max_conditions = 1;  // attribute cubes only: still intact
  ASSERT_OK_AND_ASSIGN(RuleSet singles, RulesFromCubes(mapped, options));
  EXPECT_FALSE(singles.empty());
  options.max_conditions = 2;
  Result<RuleSet> rules = RulesFromCubes(mapped, options);
  ASSERT_FALSE(rules.ok()) << "a corrupt pair cube must not yield rules";
  const Status lazy = mapped.PairCube(0, 1).status();
  ASSERT_FALSE(lazy.ok());
  EXPECT_EQ(rules.status().ToString(), lazy.ToString());
  std::remove(path.c_str());
}

TEST(RulesFromCubes, RejectsWhatTheCubesDoNotHold) {
  const Dataset d = SmallDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  CarMinerOptions options;
  options.fixed_conditions = {Condition{0, 1}};
  EXPECT_EQ(RulesFromCubes(store, options).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.max_conditions = 3;
  EXPECT_EQ(RulesFromCubes(store, options).status().code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.min_support = -0.5;
  EXPECT_EQ(RulesFromCubes(store, options).status().code(),
            StatusCode::kInvalidArgument);

  CubeStoreOptions singles_only;
  singles_only.build_pair_cubes = false;
  ASSERT_OK_AND_ASSIGN(CubeStore singles,
                       CubeBuilder::FromDataset(d, singles_only));
  options = {};
  EXPECT_EQ(RulesFromCubes(singles, options).status().code(),
            StatusCode::kInvalidArgument);
  options.max_conditions = 1;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, RulesFromCubes(singles, options));
  EXPECT_FALSE(rules.empty());
}

TEST(ClassRule, SupportConfidenceToString) {
  ClassRule r;
  r.conditions = {Condition{0, 1}};
  r.class_value = 0;
  r.support_count = 12;
  r.body_count = 14;
  EXPECT_NEAR(r.Support(40), 0.3, 1e-12);
  EXPECT_NEAR(r.Confidence(), 12.0 / 14.0, 1e-12);
  const std::string s = r.ToString(SmallSchema(), 40);
  EXPECT_NE(s.find("A=a1"), std::string::npos);
  EXPECT_NE(s.find("C=yes"), std::string::npos);
}

RuleSet MinedSmall() {
  Dataset d = SmallDataset();
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.max_conditions = 2;
  auto rules = MineClassAssociationRules(d, opts);
  EXPECT_TRUE(rules.ok());
  return rules.MoveValue();
}

TEST(RuleQuery, FilterByClassAndBounds) {
  RuleSet rules = MinedSmall();
  RuleFilter filter;
  filter.class_value = 0;  // "yes"
  filter.min_support = 0.1;
  RuleSet selected = SelectRules(rules, filter);
  ASSERT_FALSE(selected.empty());
  for (const ClassRule& r : selected.rules()) {
    EXPECT_EQ(r.class_value, 0);
    EXPECT_GE(r.Support(rules.num_rows()), 0.1);
  }
  // Tight confidence window.
  RuleFilter conf;
  conf.min_confidence = 0.99;
  const RuleSet confident = SelectRules(rules, conf);
  for (const ClassRule& r : confident.rules()) {
    EXPECT_GE(r.Confidence(), 0.99);
  }
}

TEST(RuleQuery, FilterByAttributeAndCondition) {
  RuleSet rules = MinedSmall();
  RuleFilter mentions;
  mentions.mentions_attribute = 1;  // B
  RuleSet selected = SelectRules(rules, mentions);
  ASSERT_FALSE(selected.empty());
  for (const ClassRule& r : selected.rules()) {
    bool found = false;
    for (const Condition& c : r.conditions) {
      if (c.attribute == 1) found = true;
    }
    EXPECT_TRUE(found);
  }
  RuleFilter exact;
  exact.contains_condition = Condition{0, 1};  // A = a1
  const RuleSet exact_rules = SelectRules(rules, exact);
  for (const ClassRule& r : exact_rules.rules()) {
    bool found = false;
    for (const Condition& c : r.conditions) {
      if (c == Condition{0, 1}) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(RuleQuery, FilterByLength) {
  RuleSet rules = MinedSmall();
  RuleFilter one;
  one.max_conditions = 1;
  const RuleSet short_rules = SelectRules(rules, one);
  for (const ClassRule& r : short_rules.rules()) {
    EXPECT_LE(r.conditions.size(), 1u);
  }
  RuleFilter two;
  two.min_conditions = 2;
  const RuleSet long_rules = SelectRules(rules, two);
  for (const ClassRule& r : long_rules.rules()) {
    EXPECT_GE(r.conditions.size(), 2u);
  }
}

TEST(RuleQuery, GroupByAttributesMatchesCubes) {
  RuleSet rules = MinedSmall();
  const auto groups = GroupRulesByAttributes(rules);
  // With two non-class attributes A, B: groups {A}, {B}, {A,B}.
  EXPECT_EQ(groups.size(), 3u);
  ASSERT_TRUE(groups.count({0, 1}) > 0);
  // The {A,B} group has one rule per (value pair, class) = the pair cube.
  EXPECT_EQ(groups.at({0, 1}).size(), 2u * 3u * 2u);
}

TEST(RuleQuery, Summary) {
  RuleSet rules = MinedSmall();
  const RuleSetSummary s = SummarizeRules(rules);
  EXPECT_EQ(s.total, static_cast<int64_t>(rules.size()));
  int64_t per_class_total = 0;
  for (const auto& [cls, count] : s.per_class) per_class_total += count;
  EXPECT_EQ(per_class_total, s.total);
  EXPECT_LE(s.min_support, s.max_support);
  EXPECT_LE(s.min_confidence, s.max_confidence);
  const std::string text = s.ToString(SmallSchema());
  EXPECT_NE(text.find("rules"), std::string::npos);
  EXPECT_NE(text.find("yes="), std::string::npos);
  // Empty set summary.
  EXPECT_EQ(SummarizeRules(RuleSet(0)).total, 0);
}

TEST(RuleSet, SortAndFilter) {
  RuleSet rules(100);
  ClassRule high;
  high.class_value = 0;
  high.support_count = 10;
  high.body_count = 10;  // conf 1.0
  ClassRule low;
  low.class_value = 1;
  low.support_count = 5;
  low.body_count = 20;  // conf 0.25
  rules.Add(low);
  rules.Add(high);
  rules.SortByConfidence();
  EXPECT_DOUBLE_EQ(rules.rule(0).Confidence(), 1.0);
  EXPECT_EQ(rules.FilterByClass(1).size(), 1u);
  ClassRule long_rule = high;
  long_rule.conditions = {Condition{0, 0}, Condition{1, 0}};
  rules.Add(long_rule);
  EXPECT_EQ(rules.FilterByLength(1).size(), 2u);
}

}  // namespace
}  // namespace opmap
