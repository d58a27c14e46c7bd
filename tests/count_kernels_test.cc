// Tests of the cache-blocked and SIMD counting kernels: value-code
// packing, tile-size resolution, kernel-name parsing, and the golden
// guarantee that the blocked and SIMD kernels are bit-identical to the
// seed reference loop — for cube builds and CAR mining, across thread
// counts, tile sizes, and adversarial shapes (empty inputs, all-null
// columns, domain-width boundaries, row counts that do not divide the
// tile or the vector width).

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/car/miner.h"
#include "opmap/common/simd.h"
#include "opmap/cube/count_kernels.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::AppendRows;
using test::MakeSchema;

ParallelOptions Threads(int n) {
  ParallelOptions options;
  options.num_threads = n;
  return options;
}

std::string SerializeStore(const CubeStore& store) {
  std::ostringstream out;
  EXPECT_OK(store.Save(&out));
  return out.str();
}

// ---------------------------------------------------------------------------
// ParseBlockRows / ResolveBlockRows
// ---------------------------------------------------------------------------

TEST(ParseBlockRows, AcceptsInRangeIntegers) {
  ASSERT_OK_AND_ASSIGN(int64_t one, ParseBlockRows("1"));
  EXPECT_EQ(one, 1);
  ASSERT_OK_AND_ASSIGN(int64_t dflt, ParseBlockRows("4096"));
  EXPECT_EQ(dflt, 4096);
  ASSERT_OK_AND_ASSIGN(int64_t max, ParseBlockRows("1048576"));
  EXPECT_EQ(max, 1048576);
}

TEST(ParseBlockRows, RejectsGarbage) {
  EXPECT_FALSE(ParseBlockRows("").ok());
  EXPECT_FALSE(ParseBlockRows("0").ok());
  EXPECT_FALSE(ParseBlockRows("-1").ok());
  EXPECT_FALSE(ParseBlockRows("abc").ok());
  EXPECT_FALSE(ParseBlockRows("4x").ok());
  EXPECT_FALSE(ParseBlockRows(" 4").ok());
  EXPECT_FALSE(ParseBlockRows("1048577").ok());
  EXPECT_FALSE(ParseBlockRows("99999999999999999999").ok());
  EXPECT_EQ(ParseBlockRows("0").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ResolveBlockRows, PerCallValueWinsOverEverything) {
  setenv("OPMAP_BLOCK_ROWS", "123", 1);
  EXPECT_EQ(ResolveBlockRows(64), 64);
  // Oversized per-call values clamp to the parse maximum.
  EXPECT_EQ(ResolveBlockRows(int64_t{1} << 30), 1048576);
  unsetenv("OPMAP_BLOCK_ROWS");
}

TEST(ResolveBlockRows, EnvVarThenDefault) {
  setenv("OPMAP_BLOCK_ROWS", "123", 1);
  EXPECT_EQ(ResolveBlockRows(0), 123);
  // Invalid environment values are ignored, like OPMAP_THREADS.
  setenv("OPMAP_BLOCK_ROWS", "abc", 1);
  EXPECT_EQ(ResolveBlockRows(0), kDefaultBlockRows);
  setenv("OPMAP_BLOCK_ROWS", "0", 1);
  EXPECT_EQ(ResolveBlockRows(0), kDefaultBlockRows);
  unsetenv("OPMAP_BLOCK_ROWS");
  EXPECT_EQ(ResolveBlockRows(0), kDefaultBlockRows);
}

// ---------------------------------------------------------------------------
// ParseCountKernel / ResolveCountKernel
// ---------------------------------------------------------------------------

TEST(ParseCountKernel, AcceptsTheThreeTierNames) {
  ASSERT_OK_AND_ASSIGN(CountKernel ref, ParseCountKernel("reference"));
  EXPECT_EQ(ref, CountKernel::kReference);
  ASSERT_OK_AND_ASSIGN(CountKernel blocked, ParseCountKernel("blocked"));
  EXPECT_EQ(blocked, CountKernel::kBlocked);
  ASSERT_OK_AND_ASSIGN(CountKernel simd, ParseCountKernel("simd"));
  EXPECT_EQ(simd, CountKernel::kSimd);
}

TEST(ParseCountKernel, RejectsEverythingElseNamingTheValue) {
  for (const char* bad : {"", "fast", "auto", "SIMD", " simd", "simd "}) {
    const Result<CountKernel> r = ParseCountKernel(bad);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  // The message names the offending value so CLI errors are actionable.
  EXPECT_NE(ParseCountKernel("fast").status().ToString().find("'fast'"),
            std::string::npos);
}

TEST(ResolveCountKernel, ExplicitChoiceWinsOverTheEnvironment) {
  setenv("OPMAP_KERNEL", "reference", 1);
  EXPECT_EQ(ResolveCountKernel(CountKernel::kBlocked), CountKernel::kBlocked);
  EXPECT_EQ(ResolveCountKernel(CountKernel::kSimd), CountKernel::kSimd);
  EXPECT_EQ(ResolveCountKernel(CountKernel::kReference),
            CountKernel::kReference);
  unsetenv("OPMAP_KERNEL");
}

TEST(ResolveCountKernel, AutoTakesEnvVarThenHardwareDefault) {
  setenv("OPMAP_KERNEL", "reference", 1);
  EXPECT_EQ(ResolveCountKernel(CountKernel::kAuto), CountKernel::kReference);
  setenv("OPMAP_KERNEL", "blocked", 1);
  EXPECT_EQ(ResolveCountKernel(CountKernel::kAuto), CountKernel::kBlocked);
  // Invalid environment values are ignored, like OPMAP_THREADS.
  setenv("OPMAP_KERNEL", "warp9", 1);
  const CountKernel hardware_default = ResolveCountKernel(CountKernel::kAuto);
  unsetenv("OPMAP_KERNEL");
  EXPECT_EQ(ResolveCountKernel(CountKernel::kAuto), hardware_default);
  EXPECT_EQ(hardware_default, SimdAvailable() ? CountKernel::kSimd
                                              : CountKernel::kBlocked);
}

TEST(CountKernelName, RoundTripsEveryParsableTier) {
  for (const char* name : {"reference", "blocked", "simd"}) {
    ASSERT_OK_AND_ASSIGN(CountKernel kernel, ParseCountKernel(name));
    EXPECT_STREQ(CountKernelName(kernel), name);
  }
}

// ---------------------------------------------------------------------------
// PackedColumn / PackedColumnSet
// ---------------------------------------------------------------------------

TEST(PackedColumn, WidthFollowsDomainPlusSentinel) {
  const std::vector<ValueCode> codes = {0, kNullCode, 0};
  // domain + 1 codes must fit: 255 stays in one byte, 256 needs two
  // (sentinel == 256), 65535 stays in two, 65536 needs four.
  EXPECT_EQ(PackedColumn::Pack(codes.data(), 3, 1).width(), 1);
  EXPECT_EQ(PackedColumn::Pack(codes.data(), 3, 255).width(), 1);
  EXPECT_EQ(PackedColumn::Pack(codes.data(), 3, 256).width(), 2);
  EXPECT_EQ(PackedColumn::Pack(codes.data(), 3, 65535).width(), 2);
  EXPECT_EQ(PackedColumn::Pack(codes.data(), 3, 65536).width(), 4);
}

TEST(PackedColumn, NullsBecomeTheSentinel) {
  const std::vector<ValueCode> codes = {2, kNullCode, 0, 1, kNullCode};
  for (int domain : {3, 300, 70000}) {
    const PackedColumn col =
        PackedColumn::Pack(codes.data(), static_cast<int64_t>(codes.size()),
                           domain);
    ASSERT_EQ(col.num_rows(), 5);
    EXPECT_EQ(col.sentinel(), static_cast<uint32_t>(domain));
    EXPECT_EQ(col.Get(0), 2u);
    EXPECT_EQ(col.Get(1), col.sentinel());
    EXPECT_EQ(col.Get(2), 0u);
    EXPECT_EQ(col.Get(3), 1u);
    EXPECT_EQ(col.Get(4), col.sentinel());
  }
}

TEST(PackedColumnSet, ProjectedBytesCoversTheBuiltSet) {
  Dataset d(MakeSchema({{"A", {"a0", "a1", "a2"}},
                        {"B", {"b0", "b1"}},
                        {"Y", {"y0", "y1"}}}));
  AppendRows(&d, {0, 1, 0}, 100);
  const std::vector<int> attrs = {0, 1};
  const PackedColumnSet set = PackedColumnSet::Build(d, attrs);
  EXPECT_EQ(set.num_columns(), 2);
  EXPECT_EQ(set.num_rows(), 100);
  const int64_t projected =
      PackedColumnSet::ProjectedBytes(d.schema(), attrs, d.num_rows());
  EXPECT_GT(projected, 0);
  EXPECT_GE(set.MemoryUsageBytes(), projected);
}

TEST(BlockedKernelSupportedTest, RejectsFusedIndexOverflow) {
  std::vector<std::string> big;
  for (int i = 0; i < 65536; ++i) big.push_back("v" + std::to_string(i));
  std::vector<std::string> classes;
  for (int i = 0; i < 40000; ++i) classes.push_back("y" + std::to_string(i));
  // 65536 * 40000 overflows int32: the fused-index kernels must refuse
  // and callers fall back to the reference loop.
  const Schema schema = MakeSchema({{"Big", big}, {"Y", classes}});
  EXPECT_FALSE(BlockedKernelSupported(schema, {0}));
  const Schema small = MakeSchema({{"Big", big}, {"Y", {"y0", "y1"}}});
  EXPECT_TRUE(BlockedKernelSupported(small, {0}));
}

// ---------------------------------------------------------------------------
// Golden equality: blocked kernel vs the seed reference loop
// ---------------------------------------------------------------------------

Schema EqualitySchema() {
  return MakeSchema({{"A", {"a0", "a1", "a2", "a3"}},
                     {"B", {"b0", "b1", "b2"}},
                     {"C", {"c0", "c1", "c2", "c3", "c4"}},
                     {"D", {"d0", "d1"}},
                     {"E", {"e0", "e1", "e2"}},
                     {"Y", {"y0", "y1", "y2"}}});
}

// Deterministic pseudo-random dataset with a sprinkling of nulls in both
// attribute and class columns.
Dataset PseudoRandomDataset(int64_t rows) {
  Dataset d(EqualitySchema());
  const int domains[] = {4, 3, 5, 2, 3, 3};
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<ValueCode> codes;
    for (int domain : domains) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t draw = x >> 33;
      codes.push_back(draw % 23 == 0 ? kNullCode
                                     : static_cast<ValueCode>(
                                           draw % static_cast<uint64_t>(
                                                      domain)));
    }
    AppendRows(&d, codes, 1);
  }
  return d;
}

// Builds the store with the seed reference kernel serially, then expects
// byte-identical serialized stores from the blocked AND SIMD kernels
// across thread counts and tile sizes (including tiles that do not
// divide the row count). On machines without vector units the kSimd
// sweep exercises the automatic scalar fallback, which must be just as
// bit-identical.
void ExpectBlockedCubesMatchReference(const Dataset& data) {
  CubeStoreOptions ref;
  ref.kernel = CountKernel::kReference;
  ref.parallel = Threads(1);
  ASSERT_OK_AND_ASSIGN(CubeStore reference,
                       CubeBuilder::FromDataset(data, ref));
  const std::string reference_bytes = SerializeStore(reference);
  for (CountKernel kernel : {CountKernel::kBlocked, CountKernel::kSimd}) {
    for (int threads : {1, 2, 3, 8}) {
      for (int64_t block_rows : {int64_t{0}, int64_t{1}, int64_t{7}}) {
        CubeStoreOptions options;
        options.kernel = kernel;
        options.parallel = Threads(threads);
        options.block_rows = block_rows;
        ASSERT_OK_AND_ASSIGN(CubeStore store,
                             CubeBuilder::FromDataset(data, options));
        EXPECT_EQ(SerializeStore(store), reference_bytes)
            << "kernel=" << CountKernelName(kernel) << " threads=" << threads
            << " block_rows=" << block_rows;
      }
    }
  }
}

TEST(KernelEquality, CubeBuildMatchesReferenceOnRandomData) {
  // 6000 rows: not a multiple of any tested tile size, large enough that
  // the sharded path engages.
  ExpectBlockedCubesMatchReference(PseudoRandomDataset(6000));
}

TEST(KernelEquality, CubeBuildMatchesReferenceOnTinyInputs) {
  for (int64_t rows : {0, 1, 3, 7}) {
    ExpectBlockedCubesMatchReference(PseudoRandomDataset(rows));
  }
}

TEST(KernelEquality, CubeBuildMatchesReferenceWithAllNullColumn) {
  Dataset d(MakeSchema({{"A", {"a0", "a1"}},
                        {"B", {"b0", "b1", "b2"}},
                        {"Y", {"y0", "y1"}}}));
  for (int64_t r = 0; r < 100; ++r) {
    AppendRows(&d,
               {kNullCode, static_cast<ValueCode>(r % 3),
                r % 5 == 0 ? kNullCode : static_cast<ValueCode>(r % 2)},
               1);
  }
  ExpectBlockedCubesMatchReference(d);
}

TEST(KernelEquality, CubeBuildMatchesReferenceOnSingletonDomain) {
  Dataset d(MakeSchema(
      {{"One", {"only"}}, {"B", {"b0", "b1"}}, {"Y", {"y0", "y1"}}}));
  for (int64_t r = 0; r < 50; ++r) {
    AppendRows(&d, {0, static_cast<ValueCode>(r % 2),
                    static_cast<ValueCode>((r / 2) % 2)},
               1);
  }
  ExpectBlockedCubesMatchReference(d);
}

// One schema per packed width: domain 255 packs to one byte, 256 to two
// (the sentinel no longer fits a byte), 65536 to four.
Dataset WideDomainDataset(int domain, int64_t rows) {
  std::vector<std::string> labels;
  labels.reserve(static_cast<size_t>(domain));
  for (int i = 0; i < domain; ++i) labels.push_back("v" + std::to_string(i));
  Dataset d(MakeSchema(
      {{"Wide", labels}, {"B", {"b0", "b1"}}, {"Y", {"y0", "y1"}}}));
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int64_t r = 0; r < rows; ++r) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Hit both ends of the dictionary so top codes exercise the width.
    const ValueCode v =
        r % 7 == 0 ? static_cast<ValueCode>(domain - 1)
                   : static_cast<ValueCode>((x >> 33) %
                                            static_cast<uint64_t>(domain));
    AppendRows(&d,
               {r % 11 == 0 ? kNullCode : v, static_cast<ValueCode>(r % 2),
                static_cast<ValueCode>((x >> 13) % 2)},
               1);
  }
  return d;
}

TEST(KernelEquality, CubeBuildMatchesReferenceAcrossPackedWidths) {
  // 15 and 16 are small single-byte domains; 255/256 straddle the
  // one-vs-two-byte packing; 65536 packs to four bytes, which the vector
  // tier cannot widen — inside a kSimd build that column takes the
  // per-column scalar fallback.
  for (int domain : {15, 16, 255, 256, 65536}) {
    SCOPED_TRACE(domain);
    ExpectBlockedCubesMatchReference(WideDomainDataset(domain, 1000));
  }
}

TEST(KernelEquality, CubeBuildMatchesReferenceAcrossSimdSubTileSeams) {
  // 2051 rows end in a 3-row scalar tail that is not a vector-width
  // multiple; 31 and 33 bracket a whole number of 8-lane (and 4-lane)
  // vectors.
  for (int64_t rows : {31, 33, 2051}) {
    SCOPED_TRACE(rows);
    ExpectBlockedCubesMatchReference(PseudoRandomDataset(rows));
  }
}

TEST(KernelEquality, TightMemoryBudgetFallsBackWithoutChangingResults) {
  const Dataset data = PseudoRandomDataset(6000);
  CubeStoreOptions ref;
  ref.kernel = CountKernel::kReference;
  ref.parallel = Threads(1);
  ASSERT_OK_AND_ASSIGN(CubeStore reference,
                       CubeBuilder::FromDataset(data, ref));
  // No headroom for the packed scratch: AddDataset must drop back to the
  // reference kernel (and serial counting) rather than overshoot.
  CubeStoreOptions tight;
  tight.kernel = CountKernel::kBlocked;
  tight.parallel = Threads(8);
  tight.max_memory_bytes = reference.MemoryUsageBytes();
  ASSERT_OK_AND_ASSIGN(CubeStore clamped,
                       CubeBuilder::FromDataset(data, tight));
  EXPECT_EQ(SerializeStore(clamped), SerializeStore(reference));
}

// ---------------------------------------------------------------------------
// Golden equality: CAR mining
// ---------------------------------------------------------------------------

void ExpectSameRules(const RuleSet& a, const RuleSet& b) {
  ASSERT_EQ(a.rules().size(), b.rules().size());
  for (size_t i = 0; i < a.rules().size(); ++i) {
    const ClassRule& x = a.rules()[i];
    const ClassRule& y = b.rules()[i];
    ASSERT_EQ(x.conditions.size(), y.conditions.size()) << "rule " << i;
    for (size_t c = 0; c < x.conditions.size(); ++c) {
      EXPECT_EQ(x.conditions[c].attribute, y.conditions[c].attribute);
      EXPECT_EQ(x.conditions[c].value, y.conditions[c].value);
    }
    EXPECT_EQ(x.class_value, y.class_value);
    EXPECT_EQ(x.support_count, y.support_count);
    EXPECT_EQ(x.body_count, y.body_count);
  }
}

void ExpectBlockedRulesMatchReference(const Dataset& data,
                                      CarMinerOptions base) {
  base.kernel = CountKernel::kReference;
  base.parallel = Threads(1);
  ASSERT_OK_AND_ASSIGN(RuleSet reference,
                       MineClassAssociationRules(data, base));
  for (CountKernel kernel : {CountKernel::kBlocked, CountKernel::kSimd}) {
    for (int threads : {1, 3, 8}) {
      SCOPED_TRACE(std::string("kernel=") + CountKernelName(kernel) +
                   " threads=" + std::to_string(threads));
      CarMinerOptions options = base;
      options.kernel = kernel;
      options.parallel = Threads(threads);
      ASSERT_OK_AND_ASSIGN(RuleSet rules,
                           MineClassAssociationRules(data, options));
      ExpectSameRules(reference, rules);
    }
  }
}

TEST(KernelEquality, SingleClassMatchesReference) {
  // num_classes == 1: every fused index equals the value code and the
  // class column packs to a single non-sentinel value.
  Dataset d(MakeSchema({{"A", {"a0", "a1", "a2"}},
                        {"B", {"b0", "b1"}},
                        {"Y", {"only"}}}));
  for (int64_t r = 0; r < 100; ++r) {
    AppendRows(&d,
               {static_cast<ValueCode>(r % 3),
                r % 9 == 0 ? kNullCode : static_cast<ValueCode>(r % 2), 0},
               1);
  }
  ExpectBlockedCubesMatchReference(d);
  CarMinerOptions base;
  base.min_support = 0.0;
  ExpectBlockedRulesMatchReference(d, base);
}

TEST(KernelEquality, CarMiningMatchesReference) {
  const Dataset data = PseudoRandomDataset(6000);
  for (double min_support : {0.0, 0.01}) {
    SCOPED_TRACE(min_support);
    CarMinerOptions base;
    base.min_support = min_support;
    base.max_conditions = 2;
    ExpectBlockedRulesMatchReference(data, base);
  }
}

TEST(KernelEquality, CarMiningMatchesReferenceBeyondLevelTwo) {
  // max_conditions = 3: the level-2 bodies walked from the pair cubes
  // seed the level-3 combination scan; the handoff must preserve every
  // count.
  const Dataset data = PseudoRandomDataset(3000);
  CarMinerOptions base;
  base.min_support = 0.01;
  base.max_conditions = 3;
  ExpectBlockedRulesMatchReference(data, base);
}

TEST(KernelEquality, RestrictedCarMiningMatchesReference) {
  // Fixed conditions: only the matching row subset is built into cubes.
  const Dataset data = PseudoRandomDataset(6000);
  CarMinerOptions base;
  base.min_support = 0.005;
  base.max_conditions = 3;
  base.fixed_conditions = {Condition{3, 1}};
  ExpectBlockedRulesMatchReference(data, base);
}

TEST(KernelEquality, CarMiningMatchesReferenceOnTinyAndNullInputs) {
  for (int64_t rows : {0, 1, 3, 7}) {
    SCOPED_TRACE(rows);
    CarMinerOptions base;
    base.min_support = 0.0;
    ExpectBlockedRulesMatchReference(PseudoRandomDataset(rows), base);
  }
  Dataset nulls(MakeSchema({{"A", {"a0", "a1"}},
                            {"B", {"b0", "b1", "b2"}},
                            {"Y", {"y0", "y1"}}}));
  for (int64_t r = 0; r < 64; ++r) {
    AppendRows(&nulls,
               {kNullCode, static_cast<ValueCode>(r % 3),
                r % 3 == 0 ? kNullCode : static_cast<ValueCode>(r % 2)},
               1);
  }
  CarMinerOptions base;
  base.min_support = 0.0;
  ExpectBlockedRulesMatchReference(nulls, base);
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

TEST(MemoryAccounting, DatasetCountsColumnStorage) {
  Dataset d(EqualitySchema());
  const int64_t empty_bytes = d.MemoryUsageBytes();
  EXPECT_GT(empty_bytes, 0);  // column headers are not free
  AppendRows(&d, {0, 0, 0, 0, 0, 0}, 1000);
  // Six categorical columns of 1000 codes.
  EXPECT_GE(d.MemoryUsageBytes() - empty_bytes,
            static_cast<int64_t>(6 * 1000 * sizeof(ValueCode)));
}

TEST(MemoryAccounting, StoreUsageGrowsWithThePackedScratch) {
  const Dataset data = PseudoRandomDataset(4000);
  ASSERT_OK_AND_ASSIGN(CubeStore store, CubeBuilder::FromDataset(data, {}));
  // The budget check in AddDataset reserves ProjectedBytes on top of the
  // store's own usage; both must be positive and the projection must
  // scale with rows.
  std::vector<int> attrs;
  for (int a = 0; a < data.num_attributes(); ++a) {
    if (!data.schema().is_class(a)) attrs.push_back(a);
  }
  const int64_t p1 =
      PackedColumnSet::ProjectedBytes(data.schema(), attrs, 1000);
  const int64_t p4 =
      PackedColumnSet::ProjectedBytes(data.schema(), attrs, 4000);
  EXPECT_GT(p1, 0);
  EXPECT_EQ(p4, 4 * p1);
  EXPECT_GT(store.MemoryUsageBytes(), 0);
}

}  // namespace
}  // namespace opmap
