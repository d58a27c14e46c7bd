#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace perfbench {

using opmap::ComparisonResult;
using opmap::CubeStore;
using opmap::RuleCube;
using opmap::ValueCode;

namespace {

// Table I: z for the 95% level the comparator uses by default.
constexpr double kZ95 = 1.96;
// Section IV.C: the deployed system's property threshold.
constexpr double kTau = 0.9;

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const RuleCube& AttrCubeOf(const CubeStore& store, int attr) {
  return *ValueOrDie(store.AttrCube(attr), "attribute cube");
}

// Pair-cube cells addressed by schema attribute, read through strides.
struct PairView {
  const int64_t* raw;
  int64_t stride_a, stride_b, stride_class;

  PairView(const CubeStore& store, int a, int b) {
    const RuleCube* cube = ValueOrDie(store.PairCube(a, b), "pair cube");
    raw = cube->raw_counts();
    stride_a = cube->dim_stride(cube->FindDim(a));
    stride_b = cube->dim_stride(cube->FindDim(b));
    stride_class = cube->dim_stride(2);
  }
  int64_t at(ValueCode va, ValueCode vb, ValueCode y) const {
    return raw[va * stride_a + vb * stride_b + y * stride_class];
  }
};

int64_t Body(const RuleCube& attr_cube, ValueCode v, int num_classes) {
  int64_t body = 0;
  for (ValueCode y = 0; y < num_classes; ++y) body += attr_cube.count({v, y});
  return body;
}

// Expected outcome of one candidate attribute.
struct ExpectedAttr {
  double m = 0;
  bool is_property = false;
};

// Side-by-side counts of the two populations; population 1 is the good
// (lower-confidence) side after orientation.
struct Populations {
  bool swapped = false;
  int64_t n1 = 0, n1t = 0, n2 = 0, n2t = 0;
  std::vector<bool> good, bad;
  double cf1() const { return n1 > 0 ? static_cast<double>(n1t) / static_cast<double>(n1) : 0; }
  double cf2() const { return n2 > 0 ? static_cast<double>(n2t) / static_cast<double>(n2) : 0; }
};

Populations Orient(const CubeStore& store, int attribute, const std::vector<bool>& in_a,
                   const std::vector<bool>& in_b, ValueCode target) {
  const RuleCube& cube = AttrCubeOf(store, attribute);
  const int nc = store.schema().num_classes();
  int64_t na = 0, nat = 0, nb = 0, nbt = 0;
  for (ValueCode v = 0; v < static_cast<ValueCode>(in_a.size()); ++v) {
    if (in_a[v]) {
      na += Body(cube, v, nc);
      nat += cube.count({v, target});
    } else if (in_b[v]) {
      nb += Body(cube, v, nc);
      nbt += cube.count({v, target});
    }
  }
  const double cfa = na > 0 ? static_cast<double>(nat) / static_cast<double>(na) : 0;
  const double cfb = nb > 0 ? static_cast<double>(nbt) / static_cast<double>(nb) : 0;
  Populations p;
  p.swapped = cfa > cfb;
  if (p.swapped) {
    p.n1 = nb, p.n1t = nbt, p.n2 = na, p.n2t = nat;
    p.good = in_b, p.bad = in_a;
  } else {
    p.n1 = na, p.n1t = nat, p.n2 = nb, p.n2t = nbt;
    p.good = in_a, p.bad = in_b;
  }
  return p;
}

// Paper formulas (1)-(3) with the Section IV.B revision, for candidate X.
ExpectedAttr ExpectAttr(const CubeStore& store, int attribute, int x, const Populations& p,
                        ValueCode target) {
  const PairView pair(store, attribute, x);
  const int m = store.schema().attribute(x).domain();
  const int nc = store.schema().num_classes();
  const double cf1 = p.cf1(), cf2 = p.cf2();
  ExpectedAttr out;
  int present_one = 0, present_both = 0;
  for (ValueCode k = 0; k < m; ++k) {
    int64_t n1 = 0, n1t = 0, n2 = 0, n2t = 0;
    for (ValueCode v = 0; v < static_cast<ValueCode>(p.good.size()); ++v) {
      if (!p.good[v] && !p.bad[v]) continue;
      int64_t body = 0;
      for (ValueCode y = 0; y < nc; ++y) body += pair.at(v, k, y);
      if (p.good[v]) {
        n1 += body;
        n1t += pair.at(v, k, target);
      } else {
        n2 += body;
        n2t += pair.at(v, k, target);
      }
    }
    const double c1 = n1 > 0 ? static_cast<double>(n1t) / static_cast<double>(n1) : 0;
    const double c2 = n2 > 0 ? static_cast<double>(n2t) / static_cast<double>(n2) : 0;
    const double e1 = n1 > 0 ? kZ95 * std::sqrt(c1 * (1 - c1) / static_cast<double>(n1)) : 0;
    const double e2 = n2 > 0 ? kZ95 * std::sqrt(c2 * (1 - c2) / static_cast<double>(n2)) : 0;
    const double rcf1 = std::min(1.0, c1 + e1);
    const double rcf2 = std::max(0.0, c2 - e2);
    const double f = rcf2 - rcf1 * (cf2 / cf1);
    out.m += f > 0 ? f * static_cast<double>(n2) : 0;
    if ((n1 == 0) != (n2 == 0)) ++present_one;
    if (n1 > 0 && n2 > 0) ++present_both;
  }
  const int pt = present_one + present_both;
  out.is_property = pt > 0 && static_cast<double>(present_one) / pt > kTau;
  return out;
}

std::vector<bool> Single(int domain, ValueCode v) {
  std::vector<bool> mask(static_cast<size_t>(domain), false);
  mask[static_cast<size_t>(v)] = true;
  return mask;
}

}  // namespace

uint64_t DatasetDigest(const opmap::Dataset& dataset) {
  uint64_t h = 1469598103934665603ull;
  for (int a = 0; a < dataset.num_attributes(); ++a) {
    for (ValueCode c : dataset.categorical_column(a)) {
      h = (h ^ static_cast<uint32_t>(c)) * 1099511628211ull;
    }
  }
  return h ^ static_cast<uint64_t>(dataset.num_rows());
}

void CheckCubeCells(const opmap::Dataset& dataset, const CubeStore& store, Rng* rng,
                    int samples, Report* report) {
  const opmap::Schema& schema = dataset.schema();
  const std::vector<ValueCode>& cls = dataset.categorical_column(schema.class_index());
  const std::vector<int>& attrs = store.attributes();
  const int nc = schema.num_classes();
  const int64_t rows = dataset.num_rows();
  for (int s = 0; s < samples; ++s) {
    const int a = attrs[static_cast<size_t>(rng->Below(static_cast<int>(attrs.size())))];
    const ValueCode va = rng->Below(schema.attribute(a).domain());
    const ValueCode y = rng->Below(nc);
    const ValueCode* col_a = dataset.categorical_column(a).data();
    int64_t want = 0;
    for (int64_t r = 0; r < rows; ++r) want += (col_a[r] == va) & (cls[r] == y);
    report->Check(AttrCubeOf(store, a).count({va, y}) == want,
                  "2-D cell " + schema.attribute(a).name() + " differs from a row count");

    int b = a;
    while (b == a) b = attrs[static_cast<size_t>(rng->Below(static_cast<int>(attrs.size())))];
    const ValueCode vb = rng->Below(schema.attribute(b).domain());
    const ValueCode* col_b = dataset.categorical_column(b).data();
    want = 0;
    for (int64_t r = 0; r < rows; ++r) {
      want += (col_a[r] == va) & (col_b[r] == vb) & (cls[r] == y);
    }
    report->Check(PairView(store, a, b).at(va, vb, y) == want,
                  "3-D cell " + schema.attribute(a).name() + "x" +
                      schema.attribute(b).name() + " differs from a row count");
  }
}

void CheckMarginals(const CubeStore& store, Report* report) {
  const opmap::Schema& schema = store.schema();
  const int nc = schema.num_classes();
  const std::vector<int64_t>& classes = store.class_counts();
  int64_t total = 0;
  for (int64_t c : classes) total += c;
  report->Check(total == store.num_records(), "class_counts do not sum to num_records");
  const std::vector<int>& attrs = store.attributes();
  for (int a : attrs) {
    const RuleCube& cube = AttrCubeOf(store, a);
    for (ValueCode y = 0; y < nc; ++y) {
      int64_t sum = 0;
      for (ValueCode v = 0; v < schema.attribute(a).domain(); ++v) sum += cube.count({v, y});
      report->Check(sum == classes[static_cast<size_t>(y)],
                    "attribute cube " + schema.attribute(a).name() +
                        " does not marginalize to class_counts");
    }
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      const int a = attrs[i], b = attrs[j];
      const PairView pair(store, a, b);
      const int ma = schema.attribute(a).domain(), mb = schema.attribute(b).domain();
      const RuleCube& cube_a = AttrCubeOf(store, a);
      const RuleCube& cube_b = AttrCubeOf(store, b);
      bool ok = true;
      for (ValueCode y = 0; y < nc && ok; ++y) {
        for (ValueCode va = 0; va < ma; ++va) {
          int64_t sum = 0;
          for (ValueCode vb = 0; vb < mb; ++vb) sum += pair.at(va, vb, y);
          ok &= sum == cube_a.count({va, y});
        }
        for (ValueCode vb = 0; vb < mb; ++vb) {
          int64_t sum = 0;
          for (ValueCode va = 0; va < ma; ++va) sum += pair.at(va, vb, y);
          ok &= sum == cube_b.count({vb, y});
        }
      }
      if (!report->Check(ok, "pair cube " + schema.attribute(a).name() + "x" +
                                 schema.attribute(b).name() +
                                 " does not marginalize to its attribute cubes")) {
        return;
      }
    }
  }
}

void CheckRules(const opmap::RuleSet& rules, const CubeStore& store, double min_support,
                Report* report) {
  const opmap::Schema& schema = store.schema();
  const int nc = schema.num_classes();
  report->Check(rules.num_rows() == store.num_records(), "rule set row count differs from store");
  const int64_t minsup =
      static_cast<int64_t>(std::ceil(min_support * static_cast<double>(rules.num_rows())));

  // The benchmark's own count of cells clearing the threshold.
  int64_t cells = 0;
  const std::vector<int>& attrs = store.attributes();
  for (int a : attrs) {
    const RuleCube& cube = AttrCubeOf(store, a);
    for (ValueCode v = 0; v < schema.attribute(a).domain(); ++v) {
      for (ValueCode y = 0; y < nc; ++y) cells += cube.count({v, y}) >= std::max<int64_t>(minsup, 1);
    }
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      const PairView pair(store, attrs[i], attrs[j]);
      for (ValueCode va = 0; va < schema.attribute(attrs[i]).domain(); ++va) {
        for (ValueCode vb = 0; vb < schema.attribute(attrs[j]).domain(); ++vb) {
          for (ValueCode y = 0; y < nc; ++y) {
            cells += pair.at(va, vb, y) >= std::max<int64_t>(minsup, 1);
          }
        }
      }
    }
  }
  report->Check(static_cast<int64_t>(rules.size()) == cells,
                "mined " + std::to_string(rules.size()) + " rules but " + std::to_string(cells) +
                    " cube cells clear min_support");

  std::set<std::tuple<int, int, int, int, int>> seen;
  int bad = 0;
  for (const opmap::ClassRule& rule : rules.rules()) {
    const auto& c = rule.conditions;
    int64_t support = -1, body = -1;
    if (c.size() == 1) {
      const RuleCube& cube = AttrCubeOf(store, c[0].attribute);
      support = cube.count({c[0].value, rule.class_value});
      body = Body(cube, c[0].value, nc);
      seen.emplace(c[0].attribute, c[0].value, -1, -1, rule.class_value);
    } else if (c.size() == 2 && c[0].attribute < c[1].attribute) {
      const PairView pair(store, c[0].attribute, c[1].attribute);
      support = pair.at(c[0].value, c[1].value, rule.class_value);
      body = 0;
      for (ValueCode y = 0; y < nc; ++y) body += pair.at(c[0].value, c[1].value, y);
      seen.emplace(c[0].attribute, c[0].value, c[1].attribute, c[1].value, rule.class_value);
    }
    const bool ok = support == rule.support_count && body == rule.body_count &&
                    support >= minsup &&
                    Near(rule.Confidence(), body > 0 ? static_cast<double>(support) /
                                                           static_cast<double>(body)
                                                     : 0);
    if (!ok && ++bad <= 3) {
      report->CheckFailed("rule " + rule.ToString(schema, rules.num_rows()) +
                          " does not match its cube cell");
    }
  }
  report->Check(seen.size() == rules.size(), "mined rule set holds duplicate rules");
}

void CheckComparison(const CubeStore& store, int attribute, const std::vector<bool>& in_a,
                     const std::vector<bool>& in_b, ValueCode target,
                     const ComparisonResult& result, Report* report) {
  const Populations p = Orient(store, attribute, in_a, in_b, target);
  const std::string what = "comparison on " + store.schema().attribute(attribute).name() + ": ";
  if (!report->Check(result.swapped == p.swapped && result.n_d1 == p.n1 &&
                         result.n_d2 == p.n2 && Near(result.cf1, p.cf1()) &&
                         Near(result.cf2, p.cf2()),
                     what + "populations or orientation differ")) {
    return;
  }
  std::map<int, std::pair<const opmap::AttributeComparison*, bool>> got;
  for (const auto& c : result.ranked) got[c.attribute] = {&c, false};
  for (const auto& c : result.properties) got[c.attribute] = {&c, true};
  size_t candidates = 0;
  for (int x : store.attributes()) {
    if (x == attribute) continue;
    ++candidates;
    const ExpectedAttr want = ExpectAttr(store, attribute, x, p, target);
    auto it = got.find(x);
    if (!report->Check(it != got.end(), what + "attribute missing from the result")) return;
    const auto& [cmp, in_properties] = it->second;
    if (!report->Check(in_properties == want.is_property && cmp->is_property == want.is_property,
                       what + "property split differs for " +
                           store.schema().attribute(x).name())) {
      return;
    }
    if (!report->Check(Near(cmp->interestingness, want.m),
                       what + "M(" + store.schema().attribute(x).name() + ") = " +
                           Num(cmp->interestingness) + ", recomputed " + Num(want.m))) {
      return;
    }
  }
  report->Check(got.size() == candidates && result.ranked.size() + result.properties.size() ==
                                                candidates,
                what + "candidate set differs");
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    if (!report->Check(result.ranked[i - 1].interestingness >= result.ranked[i].interestingness,
                       what + "ranking is not ordered by M")) {
      return;
    }
  }
}

void CheckCompare(const CubeStore& store, const opmap::ComparisonSpec& spec,
                  const ComparisonResult& result, Report* report) {
  const int domain = store.schema().attribute(spec.attribute).domain();
  CheckComparison(store, spec.attribute, Single(domain, spec.value_a),
                  Single(domain, spec.value_b), spec.target_class, result, report);
}

void CheckAllPairs(const CubeStore& store, int attribute, ValueCode target,
                   int64_t min_population, const std::vector<opmap::PairSummary>& pairs,
                   int stride, Report* report) {
  const RuleCube& cube = AttrCubeOf(store, attribute);
  const int m = store.schema().attribute(attribute).domain();
  const int nc = store.schema().num_classes();
  std::vector<int64_t> body(static_cast<size_t>(m));
  std::vector<double> cf(static_cast<size_t>(m));
  for (ValueCode v = 0; v < m; ++v) {
    body[v] = Body(cube, v, nc);
    cf[v] = body[v] > 0 ? static_cast<double>(cube.count({v, target})) / body[v] : 0;
  }
  std::set<std::pair<int, int>> eligible;
  for (ValueCode a = 0; a < m; ++a) {
    for (ValueCode b = a + 1; b < m; ++b) {
      if (body[a] >= min_population && body[b] >= min_population) eligible.emplace(a, b);
    }
  }
  std::set<std::pair<int, int>> seen;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const opmap::PairSummary& s = pairs[i];
    seen.emplace(std::min(s.value_a, s.value_b), std::max(s.value_a, s.value_b));
    if (!report->Check(cf[s.value_a] <= cf[s.value_b] && Near(s.cf_a, cf[s.value_a]) &&
                           Near(s.cf_b, cf[s.value_b]),
                       "all-pairs row is not oriented good-to-bad")) {
      return;
    }
    if (i > 0) {
      const opmap::PairSummary& prev = pairs[i - 1];
      report->Check((prev.skipped ? 1 : 0) <= (s.skipped ? 1 : 0) &&
                        (s.skipped || prev.top_interestingness >= s.top_interestingness),
                    "all-pairs rows are not sorted by top M");
    }
    if (stride <= 0 || i % static_cast<size_t>(stride) != 0) continue;
    const Populations p =
        Orient(store, attribute, Single(m, s.value_a), Single(m, s.value_b), target);
    if (p.n1 == 0 || p.n2 == 0 || p.cf1() <= 0) {
      report->Check(s.skipped, "all-pairs row should be skipped (undefined comparison)");
      continue;
    }
    int top = -1;
    double top_m = 0;
    for (int x : store.attributes()) {
      if (x == attribute) continue;
      const ExpectedAttr want = ExpectAttr(store, attribute, x, p, target);
      if (want.is_property) continue;
      if (top < 0 || want.m > top_m) top = x, top_m = want.m;
    }
    report->Check(!s.skipped && (top < 0 || Near(s.top_interestingness, top_m)),
                  "all-pairs top M " + Num(s.top_interestingness) + ", recomputed " + Num(top_m));
  }
  report->Check(seen == eligible && seen.size() == pairs.size(),
                "all-pairs sweep does not cover exactly the eligible pairs");
}

void CheckInfluence(const CubeStore& store, const opmap::GeneralImpressions& gi,
                    Report* report) {
  const int nc = store.schema().num_classes();
  std::set<int> attrs;
  for (size_t i = 0; i < gi.influence.size(); ++i) {
    const opmap::AttributeInfluence& inf = gi.influence[i];
    attrs.insert(inf.attribute);
    const RuleCube& cube = AttrCubeOf(store, inf.attribute);
    const int m = store.schema().attribute(inf.attribute).domain();
    std::vector<double> row(static_cast<size_t>(m)), col(static_cast<size_t>(nc));
    double n = 0;
    for (ValueCode v = 0; v < m; ++v) {
      for (ValueCode y = 0; y < nc; ++y) {
        const double c = static_cast<double>(cube.count({v, y}));
        row[v] += c, col[y] += c, n += c;
      }
    }
    double chi2 = 0;
    for (ValueCode v = 0; v < m; ++v) {
      for (ValueCode y = 0; y < nc; ++y) {
        const double e = row[v] * col[y] / n;
        if (e <= 0) continue;
        const double d = static_cast<double>(cube.count({v, y})) - e;
        chi2 += d * d / e;
      }
    }
    const double v = std::sqrt(chi2 / (n * (std::min(m, nc) - 1)));
    if (!report->Check(Near(inf.chi_square, chi2) && Near(inf.cramers_v, v),
                       "influence of " + store.schema().attribute(inf.attribute).name() +
                           " differs from its recomputed chi-square")) {
      return;
    }
    if (i > 0) {
      report->Check(gi.influence[i - 1].cramers_v >= inf.cramers_v,
                    "influence is not sorted by Cramer's V");
    }
  }
  report->Check(attrs.size() == store.attributes().size() &&
                    gi.influence.size() == store.attributes().size(),
                "influence does not cover every stored attribute once");
}

std::string StoreBytes(const CubeStore& store) {
  std::ostringstream out;
  DieIf(store.Save(&out, CubeStore::SaveFormat::kV3Aligned), "serialize store");
  return out.str();
}

}  // namespace perfbench
