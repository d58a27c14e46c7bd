#include "opmap/car/miner.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "opmap/common/metrics.h"
#include "opmap/common/parallel.h"
#include "opmap/common/trace.h"

namespace opmap {

namespace {

// Upper bound on the cubes a mining pass builds. Two 65536-value
// attributes would need 2^32 pair cells per class, so the build answers
// OutOfRange instead of dying in the allocator. The largest store any
// test, example or benchmark mines is about 10 MB.
constexpr int64_t kMaxMiningCubeBytes = int64_t{1} << 30;

// Packed (attribute, value) item. Attribute and value each fit in 32 bits.
using Item = uint64_t;

Item MakeItem(int attr, ValueCode value) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(attr)) << 32) |
         static_cast<uint32_t>(value);
}

int ItemAttr(Item it) { return static_cast<int>(it >> 32); }
ValueCode ItemValue(Item it) {
  return static_cast<ValueCode>(static_cast<uint32_t>(it));
}

// A candidate body is a sorted vector of items.
using Body = std::vector<Item>;

struct BodyHash {
  size_t operator()(const Body& body) const {
    uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (Item it : body) {
      h ^= it;
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

// The documented rule order: number of conditions, then the attributes,
// then the values, then the class.
bool RuleOrderLess(const ClassRule& a, const ClassRule& b) {
  if (a.conditions.size() != b.conditions.size()) {
    return a.conditions.size() < b.conditions.size();
  }
  for (size_t i = 0; i < a.conditions.size(); ++i) {
    if (a.conditions[i].attribute != b.conditions[i].attribute) {
      return a.conditions[i].attribute < b.conditions[i].attribute;
    }
  }
  for (size_t i = 0; i < a.conditions.size(); ++i) {
    if (a.conditions[i].value != b.conditions[i].value) {
      return a.conditions[i].value < b.conditions[i].value;
    }
  }
  return a.class_value < b.class_value;
}

// Thresholds and the fixed conditions every emitted rule carries.
struct EmitSpec {
  int64_t minsup = 0;
  double min_confidence = 0.0;
  std::vector<Condition> fixed;  // sorted
  int num_classes = 0;
};

bool Frequent(const int64_t* counts, const EmitSpec& spec) {
  if (spec.minsup == 0) return true;  // everything is frequent at 0
  return *std::max_element(counts, counts + spec.num_classes) >= spec.minsup;
}

// Appends the rules of one body (sorted conditions) whose per-class
// counts are counts[0..num_classes), in class order.
void EmitBody(const Condition* body, size_t body_len, const int64_t* counts,
              const EmitSpec& spec, std::vector<ClassRule>* out) {
  int64_t body_count = 0;
  for (int y = 0; y < spec.num_classes; ++y) body_count += counts[y];
  for (int y = 0; y < spec.num_classes; ++y) {
    const int64_t sup = counts[y];
    if (sup < spec.minsup) continue;
    const double conf =
        body_count > 0
            ? static_cast<double>(sup) / static_cast<double>(body_count)
            : 0.0;
    if (conf < spec.min_confidence) continue;
    ClassRule rule;
    rule.conditions.reserve(spec.fixed.size() + body_len);
    std::merge(spec.fixed.begin(), spec.fixed.end(), body, body + body_len,
               std::back_inserter(rule.conditions));
    rule.class_value = static_cast<ValueCode>(y);
    rule.support_count = sup;
    rule.body_count = body_count;
    out->push_back(std::move(rule));
  }
}

// The cell walk: every attribute cube (level 1), then with `levels` == 2
// every pair cube in store order (level 2), emitting rules in the
// documented order. With `frequent_pairs` non-null, also collects the
// level-2 bodies that can still seed longer rules.
Status WalkCubes(const CubeStore& store, int levels, const EmitSpec& spec,
                 std::vector<ClassRule>* out,
                 std::vector<Body>* frequent_pairs) {
  OPMAP_TRACE_SPAN("car.emit");
  const std::vector<int>& attrs = store.attributes();
  const Schema& schema = store.schema();
  const int nc = spec.num_classes;
  int64_t cells = 0;
  for (int a : attrs) {
    OPMAP_ASSIGN_OR_RETURN(const RuleCube* cube, store.AttrCube(a));
    const int64_t* counts = cube->raw_counts();
    const ValueCode domain = schema.attribute(a).domain();
    for (ValueCode v = 0; v < domain; ++v) {
      const Condition body[] = {{a, v}};
      EmitBody(body, 1, counts + static_cast<int64_t>(v) * nc, spec, out);
    }
    cells += cube->num_cells();
  }
  int64_t pairs = 0;
  if (levels >= 2) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      for (size_t j = i + 1; j < attrs.size(); ++j) {
        const int a = attrs[i];
        const int b = attrs[j];
        OPMAP_ASSIGN_OR_RETURN(const RuleCube* cube, store.PairCube(a, b));
        const int64_t* counts = cube->raw_counts();
        const ValueCode da = schema.attribute(a).domain();
        const ValueCode db = schema.attribute(b).domain();
        for (ValueCode va = 0; va < da; ++va) {
          for (ValueCode vb = 0; vb < db; ++vb) {
            const int64_t* cell =
                counts + (static_cast<int64_t>(va) * db + vb) * nc;
            const Condition body[] = {{a, va}, {b, vb}};
            EmitBody(body, 2, cell, spec, out);
            if (frequent_pairs != nullptr && Frequent(cell, spec)) {
              frequent_pairs->push_back({MakeItem(a, va), MakeItem(b, vb)});
            }
          }
        }
        cells += cube->num_cells();
        ++pairs;
      }
    }
  }
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  metrics->counter("car.candidates_evaluated")->Increment(cells);
  metrics->counter("car.pairs_counted")->Increment(pairs);
  return Status::OK();
}

// Shards a counting pass over `num_rows` rows: the configured thread count,
// clamped so tiny inputs stay serial (shard buffers are not free).
int PlanRowShards(int64_t num_rows, const ParallelOptions& parallel) {
  constexpr int64_t kMinRowsPerShard = 2048;
  if (num_rows < 2 * kMinRowsPerShard) return 1;
  const int64_t shards =
      std::min<int64_t>(EffectiveThreads(parallel),
                        num_rows / kMinRowsPerShard);
  return static_cast<int>(std::max<int64_t>(shards, 1));
}

// Merges shard 1..n-1 of `shard_counts` into shard 0 by element-wise
// addition and returns shard 0.
std::vector<int64_t>& MergeShardCounts(
    std::vector<std::vector<int64_t>>* shard_counts) {
  std::vector<int64_t>& total = (*shard_counts)[0];
  for (size_t s = 1; s < shard_counts->size(); ++s) {
    const std::vector<int64_t>& part = (*shard_counts)[s];
    for (size_t i = 0; i < total.size(); ++i) total[i] += part[i];
  }
  return total;
}

// Levels 3..max_level: grows `level` (the frequent level-2 bodies) by
// Apriori joins and counts each level's candidates by enumerating item
// combinations over every row of `data`. Appends the rules sorted to the
// documented order.
void ScanLongerRules(const Dataset& data, const std::vector<int>& free_attrs,
                     std::vector<Body> level, int max_level,
                     const EmitSpec& spec, const ParallelOptions& parallel,
                     std::vector<ClassRule>* out) {
  OPMAP_TRACE_SPAN("car.scan");
  const int nc = spec.num_classes;
  const size_t first_rule = out->size();
  for (int k = 3; k <= max_level && !level.empty(); ++k) {
    // Candidate generation: join bodies sharing the first k-2 items, with
    // the last items on different attributes; prune by downward closure.
    std::sort(level.begin(), level.end());
    const std::unordered_set<Body, BodyHash> prev_set(
        level.begin(), level.end(), level.size(), BodyHash());
    std::vector<Body> cands;
    for (size_t i = 0; i < level.size(); ++i) {
      for (size_t j = i + 1; j < level.size(); ++j) {
        const Body& a = level[i];
        const Body& b = level[j];
        if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
        if (ItemAttr(a.back()) == ItemAttr(b.back())) continue;
        Body cand = a;
        cand.push_back(b.back());
        // Downward closure: all (k-1)-subsets must be frequent (the two
        // that drop one of the last items are a and b themselves).
        bool ok = true;
        if (spec.minsup > 0) {
          Body sub;
          for (size_t drop = 0; drop + 2 < cand.size() && ok; ++drop) {
            sub.clear();
            for (size_t m = 0; m < cand.size(); ++m) {
              if (m != drop) sub.push_back(cand[m]);
            }
            ok = prev_set.count(sub) > 0;
          }
        }
        if (ok) cands.push_back(std::move(cand));
      }
    }
    if (cands.empty()) break;
    MetricsRegistry::Global()
        ->counter("car.candidates_evaluated")
        ->Increment(static_cast<int64_t>(cands.size()));

    // Counting pass. The candidate set is frozen, so each candidate gets
    // a fixed slot and rows are sharded into private count buffers merged
    // by addition: the counts cannot depend on the thread count.
    std::unordered_map<Body, int64_t, BodyHash> cand_slot;
    cand_slot.reserve(cands.size());
    for (size_t s = 0; s < cands.size(); ++s) {
      cand_slot.emplace(cands[s], static_cast<int64_t>(s));
    }
    const int64_t num_rows = data.num_rows();
    const int shards = PlanRowShards(num_rows, parallel);
    std::vector<std::vector<int64_t>> shard_counts(
        static_cast<size_t>(shards),
        std::vector<int64_t>(cands.size() * static_cast<size_t>(nc), 0));
    ParallelForShards(0, num_rows, shards, [&](int shard, int64_t lo,
                                               int64_t hi) {
      int64_t* counts = shard_counts[static_cast<size_t>(shard)].data();
      std::vector<Item> row_items;
      Body probe(static_cast<size_t>(k));
      std::vector<size_t> idx(static_cast<size_t>(k));
      for (int64_t r = lo; r < hi; ++r) {
        const ValueCode y = data.class_code(r);
        if (y == kNullCode) continue;
        row_items.clear();
        for (int a : free_attrs) {
          const ValueCode v = data.code(r, a);
          if (v == kNullCode) continue;
          row_items.push_back(MakeItem(a, v));
        }
        const size_t m = row_items.size();
        if (m < static_cast<size_t>(k)) continue;
        // Enumerate k-combinations of the row's items (row_items is
        // sorted because free_attrs is ascending and items pack attr
        // high).
        for (size_t t = 0; t < static_cast<size_t>(k); ++t) idx[t] = t;
        for (;;) {
          for (size_t t = 0; t < static_cast<size_t>(k); ++t) {
            probe[t] = row_items[idx[t]];
          }
          const auto it = cand_slot.find(probe);
          if (it != cand_slot.end()) ++counts[it->second * nc + y];
          // Advance combination.
          int t = k - 1;
          while (t >= 0 && idx[static_cast<size_t>(t)] ==
                               m - static_cast<size_t>(k - t)) {
            --t;
          }
          if (t < 0) break;
          ++idx[static_cast<size_t>(t)];
          for (size_t u = static_cast<size_t>(t) + 1;
               u < static_cast<size_t>(k); ++u) {
            idx[u] = idx[u - 1] + 1;
          }
        }
      }
    });
    const std::vector<int64_t>& merged = MergeShardCounts(&shard_counts);

    std::vector<Body> next;
    std::vector<Condition> body;
    for (size_t s = 0; s < cands.size(); ++s) {
      const int64_t* counts = merged.data() + s * static_cast<size_t>(nc);
      body.clear();
      for (Item it : cands[s]) body.push_back({ItemAttr(it), ItemValue(it)});
      EmitBody(body.data(), body.size(), counts, spec, out);
      if (Frequent(counts, spec)) next.push_back(std::move(cands[s]));
    }
    level = std::move(next);
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first_rule),
            out->end(), RuleOrderLess);
}

Status ValidateThresholds(const CarMinerOptions& options) {
  if (options.min_support < 0 || options.min_support > 1) {
    return Status::InvalidArgument("min_support must be in [0, 1]");
  }
  if (options.min_confidence < 0 || options.min_confidence > 1) {
    return Status::InvalidArgument("min_confidence must be in [0, 1]");
  }
  if (options.max_conditions < 1) {
    return Status::InvalidArgument("max_conditions must be >= 1");
  }
  return Status::OK();
}

EmitSpec MakeEmitSpec(const CarMinerOptions& options, int64_t base,
                      int num_classes) {
  EmitSpec spec;
  spec.minsup = static_cast<int64_t>(
      std::ceil(options.min_support * static_cast<double>(base)));
  spec.min_confidence = options.min_confidence;
  spec.fixed = options.fixed_conditions;
  std::sort(spec.fixed.begin(), spec.fixed.end());
  spec.num_classes = num_classes;
  return spec;
}

// Publishes a finished mining pass: rule counter and latency histogram.
void RecordMine(const RuleSet& rules, int64_t start_us) {
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  metrics->counter("car.rules_emitted")
      ->Increment(static_cast<int64_t>(rules.size()));
  metrics->histogram("query.mine_us")->Record(MonotonicMicros() - start_us);
}

}  // namespace

Result<RuleSet> MineClassAssociationRules(const Dataset& dataset,
                                          const CarMinerOptions& options) {
  OPMAP_TRACE_SPAN("car.mine");
  const int64_t mine_start_us = MonotonicMicros();
  const Schema& schema = dataset.schema();
  if (!schema.AllCategorical()) {
    return Status::InvalidArgument(
        "rule mining requires an all-categorical dataset (discretize "
        "first)");
  }
  OPMAP_RETURN_NOT_OK(ValidateThresholds(options));

  std::unordered_set<int> fixed_attrs;
  for (const Condition& c : options.fixed_conditions) {
    if (c.attribute < 0 || c.attribute >= schema.num_attributes() ||
        schema.is_class(c.attribute)) {
      return Status::InvalidArgument("invalid fixed condition attribute");
    }
    if (c.value < 0 || c.value >= schema.attribute(c.attribute).domain()) {
      return Status::InvalidArgument("invalid fixed condition value");
    }
    if (!fixed_attrs.insert(c.attribute).second) {
      return Status::InvalidArgument(
          "fixed conditions must use distinct attributes");
    }
  }
  const int free_levels = options.max_conditions -
                          static_cast<int>(options.fixed_conditions.size());
  if (free_levels < 1) {
    return Status::InvalidArgument(
        "max_conditions must exceed the number of fixed conditions");
  }

  // Free attributes usable in rule bodies.
  std::vector<int> free_attrs;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (!schema.is_class(a) && fixed_attrs.count(a) == 0) {
      free_attrs.push_back(a);
    }
  }

  // The support threshold is relative to the full dataset so that
  // restricted mining keeps the same absolute bar.
  const EmitSpec spec =
      MakeEmitSpec(options, dataset.num_rows(), schema.num_classes());
  RuleSet result(dataset.num_rows());
  if (free_attrs.empty()) {
    RecordMine(result, mine_start_us);
    return result;
  }

  // Restricted mining counts only the rows matching every fixed condition.
  Dataset subset(schema);
  if (!options.fixed_conditions.empty()) {
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < dataset.num_rows(); ++r) {
      bool match = true;
      for (const Condition& c : options.fixed_conditions) {
        if (dataset.code(r, c.attribute) != c.value) {
          match = false;
          break;
        }
      }
      if (match) rows.push_back(r);
    }
    subset = dataset.TakeRows(rows);
  }
  const Dataset& data =
      options.fixed_conditions.empty() ? dataset : subset;

  CubeStoreOptions cube_options;
  cube_options.attributes = free_attrs;
  cube_options.build_pair_cubes = free_levels >= 2;
  cube_options.max_memory_bytes = kMaxMiningCubeBytes;
  cube_options.parallel = options.parallel;
  cube_options.kernel = options.kernel;
  cube_options.block_rows = options.block_rows;
  OPMAP_ASSIGN_OR_RETURN(CubeStore store,
                         CubeBuilder::FromDataset(data, cube_options));

  std::vector<ClassRule>& rules = result.mutable_rules();
  std::vector<Body> frequent_pairs;
  OPMAP_RETURN_NOT_OK(WalkCubes(store, std::min(free_levels, 2), spec, &rules,
                                free_levels > 2 ? &frequent_pairs : nullptr));
  if (free_levels > 2) {
    ScanLongerRules(data, free_attrs, std::move(frequent_pairs),
                    free_levels, spec, options.parallel, &rules);
  }
  RecordMine(result, mine_start_us);
  return result;
}

Result<RuleSet> RulesFromCubes(const CubeStore& store,
                               const CarMinerOptions& options) {
  OPMAP_TRACE_SPAN("car.mine");
  const int64_t mine_start_us = MonotonicMicros();
  OPMAP_RETURN_NOT_OK(ValidateThresholds(options));
  if (!options.fixed_conditions.empty()) {
    return Status::InvalidArgument(
        "rule cubes hold no restricted rules; mine the dataset for fixed "
        "conditions");
  }
  if (options.max_conditions > 2) {
    return Status::InvalidArgument(
        "max_conditions=" + std::to_string(options.max_conditions) +
        " exceeds the 2 conditions rule cubes hold; mine the dataset for "
        "longer rules");
  }
  if (options.max_conditions == 2 && !store.has_pair_cubes()) {
    return Status::InvalidArgument(
        "2-condition rules need pair cubes, and this store has none");
  }
  const EmitSpec spec = MakeEmitSpec(options, store.num_records(),
                                     store.schema().num_classes());
  RuleSet result(store.num_records());
  OPMAP_RETURN_NOT_OK(WalkCubes(store, options.max_conditions, spec,
                                &result.mutable_rules(), nullptr));
  RecordMine(result, mine_start_us);
  return result;
}

int64_t CountPossibleRules(const Schema& schema, int k) {
  // Elementary symmetric polynomial of degree k over attribute domains,
  // times the number of classes.
  std::vector<double> e(static_cast<size_t>(k) + 1, 0.0);
  e[0] = 1.0;
  for (int a = 0; a < schema.num_attributes(); ++a) {
    if (schema.is_class(a)) continue;
    const double d = schema.attribute(a).domain();
    for (int j = std::min<int>(k, schema.num_attributes()); j >= 1; --j) {
      e[static_cast<size_t>(j)] += e[static_cast<size_t>(j - 1)] * d;
    }
  }
  return static_cast<int64_t>(e[static_cast<size_t>(k)] *
                              schema.num_classes());
}

}  // namespace opmap
