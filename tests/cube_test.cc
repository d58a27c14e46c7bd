#include "gtest/gtest.h"
#include "opmap/car/miner.h"
#include "opmap/cube/cube_store.h"
#include "opmap/cube/rule_cube.h"
#include "opmap/data/call_log.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

// The paper's Fig 1 example: A1 in {a,b,c,d}, A2 in {e,f,g}, class {no,yes}
// with 1158 data points; rule A1=a,A2=e -> yes has count 100 and
// A1=a,A2=e -> no has count 50.
Schema Fig1Schema() {
  return MakeSchema({{"A1", {"a", "b", "c", "d"}},
                     {"A2", {"e", "f", "g"}},
                     {"C", {"no", "yes"}}});
}

RuleCube Fig1Cube() {
  auto cube =
      RuleCube::Make(std::make_shared<const Schema>(Fig1Schema()), {0, 1, 2});
  EXPECT_TRUE(cube.ok());
  RuleCube c = cube.MoveValue();
  // Fill the (a, e, *) cells from the paper and distribute the rest.
  c.Add({0, 0, 1}, 100);  // A1=a, A2=e, C=yes
  c.Add({0, 0, 0}, 50);   // A1=a, A2=e, C=no
  c.Add({0, 1, 1}, 0);    // A1=a, A2=f, C=yes: support 0
  c.Add({0, 1, 0}, 80);
  c.Add({1, 0, 0}, 200);
  c.Add({1, 2, 1}, 150);
  c.Add({2, 1, 0}, 278);
  c.Add({3, 2, 1}, 300);
  return c;
}

TEST(RuleCube, Fig1ExampleSupportsAndConfidences) {
  RuleCube cube = Fig1Cube();
  EXPECT_EQ(cube.num_dims(), 3);
  EXPECT_EQ(cube.num_cells(), 4 * 3 * 2);
  EXPECT_EQ(cube.Total(), 1158);
  // Rule A1=a, A2=e -> yes: support 100/1158, confidence 100/150.
  EXPECT_EQ(cube.count({0, 0, 1}), 100);
  EXPECT_NEAR(cube.Support({0, 0, 1}), 100.0 / 1158.0, 1e-12);
  EXPECT_NEAR(cube.Confidence({0, 0, 1}, 2), 100.0 / 150.0, 1e-12);
  // Rule A1=a, A2=f -> yes: support 0 and confidence 0.
  EXPECT_EQ(cube.count({0, 1, 1}), 0);
  EXPECT_NEAR(cube.Confidence({0, 1, 1}, 2), 0.0, 1e-12);
}

TEST(RuleCube, MakeValidation) {
  const auto schema = std::make_shared<const Schema>(Fig1Schema());
  EXPECT_FALSE(RuleCube::Make(schema, {}).ok());
  EXPECT_FALSE(RuleCube::Make(schema, {0, 0}).ok());
  EXPECT_FALSE(RuleCube::Make(schema, {7}).ok());
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute::Continuous("x"));
  attrs.push_back(Attribute::Categorical("c", {"a", "b"}));
  auto s2 = Schema::Make(std::move(attrs), 1);
  ASSERT_TRUE(s2.ok());
  // continuous dim
  EXPECT_FALSE(
      RuleCube::Make(std::make_shared<const Schema>(*s2), {0, 1}).ok());
}

TEST(RuleCube, SlicePreservesCounts) {
  RuleCube cube = Fig1Cube();
  ASSERT_OK_AND_ASSIGN(RuleCube slice, cube.Slice(0, 0));  // A1 = a
  EXPECT_EQ(slice.num_dims(), 2);
  EXPECT_EQ(slice.dim_name(0), "A2");
  EXPECT_EQ(slice.count({0, 1}), 100);
  EXPECT_EQ(slice.count({0, 0}), 50);
  EXPECT_EQ(slice.count({1, 0}), 80);
  EXPECT_EQ(slice.Total(), 230);
  EXPECT_FALSE(cube.Slice(5, 0).ok());
  EXPECT_FALSE(cube.Slice(0, 9).ok());
}

TEST(RuleCube, MarginalizeConservesTotals) {
  RuleCube cube = Fig1Cube();
  ASSERT_OK_AND_ASSIGN(RuleCube rolled, cube.Marginalize(1));  // drop A2
  EXPECT_EQ(rolled.num_dims(), 2);
  EXPECT_EQ(rolled.Total(), cube.Total());
  // count(A1=a, C=yes) must equal the sum over A2.
  EXPECT_EQ(rolled.count({0, 1}), 100);
  EXPECT_EQ(rolled.count({0, 0}), 130);
  // Rolling up the remaining non-class dim gives the class distribution.
  ASSERT_OK_AND_ASSIGN(RuleCube classes, rolled.Marginalize(0));
  EXPECT_EQ(classes.count({1}), 550);  // total yes
  EXPECT_EQ(classes.count({0}), 608);  // total no
}

TEST(RuleCube, DiceRestrictsDomain) {
  RuleCube cube = Fig1Cube();
  ASSERT_OK_AND_ASSIGN(RuleCube diced, cube.Dice(0, {0, 3}));  // a and d
  EXPECT_EQ(diced.num_dims(), 3);
  EXPECT_EQ(diced.dim_size(0), 2);
  EXPECT_EQ(diced.label(0, 0), "a");
  EXPECT_EQ(diced.label(0, 1), "d");
  EXPECT_EQ(diced.count({0, 0, 1}), 100);
  EXPECT_EQ(diced.count({1, 2, 1}), 300);
  EXPECT_FALSE(cube.Dice(0, {}).ok());
  EXPECT_FALSE(cube.Dice(0, {9}).ok());
}

TEST(RuleCube, MarginCount) {
  RuleCube cube = Fig1Cube();
  // Body count of rule A1=a, A2=e (sum over classes) = 150.
  EXPECT_EQ(cube.MarginCount({0, 0, 0}, 2), 150);
}

TEST(RuleCube, FindDim) {
  RuleCube cube = Fig1Cube();
  EXPECT_EQ(cube.FindDim(0), 0);
  EXPECT_EQ(cube.FindDim(2), 2);
  EXPECT_EQ(cube.FindDim(9), -1);
}

// --- Cube store / builder ---

Dataset SmallDataset() {
  Dataset d(Fig1Schema());
  AppendRows(&d, {0, 0, 1}, 100);
  AppendRows(&d, {0, 0, 0}, 50);
  AppendRows(&d, {1, 2, 1}, 30);
  AppendRows(&d, {2, 1, 0}, 20);
  AppendRows(&d, {3, 2, 1}, 10);
  return d;
}

TEST(CubeStore, BuildsAllCubes) {
  Dataset d = SmallDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  EXPECT_EQ(store.num_records(), d.num_rows());
  EXPECT_EQ(store.attributes().size(), 2u);
  EXPECT_EQ(store.NumCubes(), 2 + 1);  // two 2-D cubes + one pair cube
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair, store.PairCube(0, 1));
  EXPECT_EQ(pair->count({0, 0, 1}), 100);
  // Symmetric lookup returns the same cube.
  ASSERT_OK_AND_ASSIGN(const RuleCube* pair2, store.PairCube(1, 0));
  EXPECT_EQ(pair, pair2);
  ASSERT_OK_AND_ASSIGN(const RuleCube* a1, store.AttrCube(0));
  EXPECT_EQ(a1->count({0, 1}), 100);
  EXPECT_EQ(a1->count({0, 0}), 50);
  EXPECT_EQ(store.class_counts()[1], 140);
  EXPECT_GT(store.MemoryUsageBytes(), 0);
}

// Cubes share the store's schema: a cube copied out of a built store or
// out of a mapped one, and a dice or slice of it, still names its
// dimensions and values after the store is gone.
TEST(CubeStore, CopiedCubesOutliveTheirStore) {
  const std::string path = ::testing::TempDir() + "/cube_lifetime.opmc";
  std::vector<RuleCube> copies;
  {
    ASSERT_OK_AND_ASSIGN(CubeStore built,
                         CubeBuilder::FromDataset(SmallDataset()));
    ASSERT_OK(built.SaveToFile(path));
    ASSERT_OK_AND_ASSIGN(const RuleCube* pair, built.PairCube(0, 1));
    copies.push_back(*pair);
    ASSERT_OK_AND_ASSIGN(RuleCube diced, pair->Dice(0, {3, 1}));
    copies.push_back(std::move(diced));
  }
  {
    ASSERT_OK_AND_ASSIGN(CubeStore mapped, CubeStore::LoadFromFile(path));
    ASSERT_TRUE(mapped.GetMappingStats().mapped);
    ASSERT_OK_AND_ASSIGN(const RuleCube* pair, mapped.PairCube(0, 1));
    copies.push_back(*pair);  // a view: its counts go with the mapping
    ASSERT_OK_AND_ASSIGN(RuleCube sliced, pair->Slice(1, 2));  // A2 = g
    copies.push_back(std::move(sliced));
  }
  for (const RuleCube& c : copies) {
    EXPECT_EQ(c.dim_name(0), "A1");
    EXPECT_EQ(c.dim_name(c.num_dims() - 1), "C");
    EXPECT_EQ(c.label(c.num_dims() - 1, 1), "yes");
  }
  EXPECT_EQ(copies[0].dim_name(1), "A2");
  EXPECT_EQ(copies[0].label(1, 2), "g");
  EXPECT_EQ(copies[1].label(0, 0), "d");  // diced to codes {3, 1}
  EXPECT_EQ(copies[1].label(0, 1), "b");
  EXPECT_EQ(copies[1].count({0, 2, 1}), 10);  // A1=d, A2=g -> yes
  EXPECT_EQ(copies[2].label(1, 0), "e");
  EXPECT_EQ(copies[3].label(0, 3), "d");
  EXPECT_EQ(copies[3].count({1, 1}), 30);  // owned counts outlive the file
}

TEST(CubeStore, AttrSubsetAndNoPairs) {
  Dataset d = SmallDataset();
  CubeStoreOptions opts;
  opts.attributes = {1};
  opts.build_pair_cubes = false;
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d, opts));
  EXPECT_FALSE(store.AttrCube(0).ok());
  EXPECT_TRUE(store.AttrCube(1).ok());
  EXPECT_FALSE(store.PairCube(0, 1).ok());
}

TEST(CubeStore, RejectsBadOptions) {
  Dataset d = SmallDataset();
  CubeStoreOptions opts;
  opts.attributes = {2};  // class attribute
  EXPECT_FALSE(CubeBuilder::FromDataset(d, opts).ok());
  opts.attributes = {9};
  EXPECT_FALSE(CubeBuilder::FromDataset(d, opts).ok());
  opts.attributes = {0, 0};
  EXPECT_FALSE(CubeBuilder::FromDataset(d, opts).ok());
}

TEST(CubeStore, MemoryBudgetRejectsOversizedMaterialization) {
  Dataset d = SmallDataset();
  CubeStoreOptions opts;
  opts.max_memory_bytes = 16;  // far below what any cube needs
  Result<CubeStore> r = CubeBuilder::FromDataset(d, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(r.status().message().find("memory budget"), std::string::npos);
}

TEST(CubeStore, MemoryBudgetAllowsReasonableMaterialization) {
  Dataset d = SmallDataset();
  CubeStoreOptions opts;
  opts.max_memory_bytes = 1 << 20;
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d, opts));
  EXPECT_EQ(store.num_records(), d.num_rows());
}

TEST(CubeStore, NullValuesSkipAffectedCubesOnly) {
  Dataset d(Fig1Schema());
  ASSERT_OK(d.AppendRow({Cell::Categorical(kNullCode), Cell::Categorical(0),
                         Cell::Categorical(1)}));
  ASSERT_OK(d.AppendRow({Cell::Categorical(0), Cell::Categorical(0),
                         Cell::Categorical(kNullCode)}));
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  // The null-class row is ignored entirely.
  EXPECT_EQ(store.num_records(), 1);
  ASSERT_OK_AND_ASSIGN(const RuleCube* a1, store.AttrCube(0));
  EXPECT_EQ(a1->Total(), 0);  // A1 was null on the only counted row
  ASSERT_OK_AND_ASSIGN(const RuleCube* a2, store.AttrCube(1));
  EXPECT_EQ(a2->Total(), 1);
}

TEST(CubeStore, StreamingAddRowMatchesDatasetPath) {
  CallLogConfig config;
  config.num_records = 5000;
  config.num_attributes = 8;
  ASSERT_OK_AND_ASSIGN(CallLogGenerator gen, CallLogGenerator::Make(config));
  Dataset d = gen.Generate();
  ASSERT_OK_AND_ASSIGN(CubeStore from_dataset, CubeBuilder::FromDataset(d));
  ASSERT_OK_AND_ASSIGN(CubeBuilder streaming,
                       CubeBuilder::Make(gen.schema(), {}));
  gen.VisitRows(config.num_records,
                [&](const ValueCode* row) { streaming.AddRow(row); });
  CubeStore from_stream = std::move(streaming).Finish();

  EXPECT_EQ(from_dataset.num_records(), from_stream.num_records());
  for (int a : from_dataset.attributes()) {
    ASSERT_OK_AND_ASSIGN(const RuleCube* ca, from_dataset.AttrCube(a));
    ASSERT_OK_AND_ASSIGN(const RuleCube* cb, from_stream.AttrCube(a));
    for (ValueCode v = 0; v < ca->dim_size(0); ++v) {
      for (ValueCode y = 0; y < ca->dim_size(1); ++y) {
        ASSERT_EQ(ca->count({v, y}), cb->count({v, y}));
      }
    }
  }
}

// Every cube cell equals the corresponding zero-threshold CAR's support
// count: the cube IS the complete 2-condition rule space.
TEST(CubeStore, CellsMatchMinedRules) {
  Dataset d = SmallDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(d));
  CarMinerOptions opts;
  opts.min_support = 0.0;
  opts.max_conditions = 2;
  ASSERT_OK_AND_ASSIGN(RuleSet rules, MineClassAssociationRules(d, opts));
  for (const ClassRule& r : rules.rules()) {
    if (r.conditions.size() == 1) {
      const Condition& c = r.conditions[0];
      ASSERT_OK_AND_ASSIGN(const RuleCube* cube, store.AttrCube(c.attribute));
      EXPECT_EQ(cube->count({c.value, r.class_value}), r.support_count);
    } else if (r.conditions.size() == 2) {
      const Condition& c0 = r.conditions[0];
      const Condition& c1 = r.conditions[1];
      ASSERT_OK_AND_ASSIGN(const RuleCube* cube,
                           store.PairCube(c0.attribute, c1.attribute));
      EXPECT_EQ(cube->count({c0.value, c1.value, r.class_value}),
                r.support_count);
    }
  }
}

TEST(CubeStore, DuplicatedDatasetScalesCounts) {
  // The paper's Fig 11 scale-up method: duplicating the data multiplies
  // every cube cell.
  Dataset d = SmallDataset();
  ASSERT_OK_AND_ASSIGN(CubeStore base, CubeBuilder::FromDataset(d));
  Dataset d4 = d.DuplicateTimes(4);
  ASSERT_OK_AND_ASSIGN(CubeStore scaled, CubeBuilder::FromDataset(d4));
  EXPECT_EQ(scaled.num_records(), 4 * base.num_records());
  ASSERT_OK_AND_ASSIGN(const RuleCube* b, base.PairCube(0, 1));
  ASSERT_OK_AND_ASSIGN(const RuleCube* s, scaled.PairCube(0, 1));
  EXPECT_EQ(s->count({0, 0, 1}), 4 * b->count({0, 0, 1}));
}

}  // namespace
}  // namespace opmap
