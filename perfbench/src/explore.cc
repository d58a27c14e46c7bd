// explore: one analyst working in process over a mapped cube store that is
// wider than batch_build's (Fig 9 reaches 160 attributes). The comparator
// is pinned to one worker and the result cache is off, so every query
// computes: Compare over value pairs and both failure classes,
// CompareVsRest, CompareAllPairs, MineGeneralImpressions (through
// QueryEngine::Gi) and ExplorationSession open / drill / slice / render.
// Loads compare, gi and core; bypasses cube building, the cache and the
// wire.
//
// End-to-end: setup_s = median CubeStore::LoadFromFile + QueryEngine
// construction; throughput_per_s = completed queries per second of the
// analyst's script; latency_p50_ms = median query latency.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "opmap/core/session.h"
#include "opmap/cube/cube_store.h"

namespace perfbench {

namespace {

constexpr int kAttributes = 160;
constexpr int64_t kRows = 40000;
constexpr int kSetupRepeats = 9;
// Attributes the script compares and navigates: PhoneModel, TimeOfCall and
// the first generic attributes (never the property attribute or the class).
constexpr int kQueryAttributes = 8;
constexpr int kComparesPerRound = 6;
constexpr int kCheckEvery = 8;  // rounds between independent recomputations
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.25;

std::string CubePath(const Args& args) { return args.dir + "/explore.opmc"; }

enum Kind { kCompare, kVsRest, kAllPairs, kGi, kSession, kRender, kNumKinds };

struct RoundPlan {
  opmap::ComparisonSpec compares[kComparesPerRound];
  int vsrest_attr = 0;
  opmap::ValueCode vsrest_value = 0, vsrest_class = 1;
  int pairs_attr = 0;
  opmap::ValueCode pairs_class = 1;
  std::string open, drill, slice_value;
};

struct Window {
  std::vector<double> latency_us[kNumKinds];
  // Completion times with the time spent in checks taken out.
  std::vector<double> done_at;
  double start = 0;
  std::vector<double> all() const {
    std::vector<double> v;
    for (const auto& k : latency_us) v.insert(v.end(), k.begin(), k.end());
    return v;
  }
  // Completed queries per second: the median over the window's slices, so
  // a burst of scheduling noise on a shared host moves one slice, not the
  // run.
  double per_s() const {
    if (done_at.empty()) return 0;
    const int slices = std::max(1, static_cast<int>((done_at.back() - start) / kSliceSeconds));
    std::vector<double> counts(static_cast<size_t>(slices));
    for (double t : done_at) {
      const int i = static_cast<int>((t - start) / kSliceSeconds);
      if (i < slices) counts[static_cast<size_t>(i)] += 1;
    }
    return Median(counts) / kSliceSeconds;
  }
};

}  // namespace

void PrepareExplore(const Args& args) {
  auto gen = ValueOrDie(opmap::CallLogGenerator::Make(CallLogInput(kAttributes, kRows, args.seed)),
                        "generator");
  const opmap::Dataset dataset = gen.Generate();
  const opmap::CubeStore store = ValueOrDie(opmap::CubeBuilder::FromDataset(dataset), "cube build");
  DieIf(store.SaveToFile(CubePath(args)), "save cubes");
}

void RunExplore(const Args& args, Report* report) {
  // Set-up: map the store and wire the engine (1 worker, cache off).
  opmap::ParallelOptions one_worker;
  one_worker.num_threads = 1;
  std::vector<double> setup_s, load_s;
  std::unique_ptr<opmap::CubeStore> store;
  std::unique_ptr<opmap::QueryEngine> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    store.reset();
    const double t0 = Now();
    store = std::make_unique<opmap::CubeStore>(
        ValueOrDie(opmap::CubeStore::LoadFromFile(CubePath(args)), "load cubes"));
    const double t1 = Now();
    engine = std::make_unique<opmap::QueryEngine>(store.get(), /*cache_bytes=*/0, one_worker);
    setup_s.push_back(Now() - t0);
    load_s.push_back(t1 - t0);
  }
  const opmap::Schema& schema = store->schema();
  const opmap::Comparator& comparator = engine->comparator();

  // Ground truth: the planted TimeOfCall effect on ph03 must rank first
  // when ph01 and ph03 are compared on dropped calls.
  {
    auto gen = ValueOrDie(
        opmap::CallLogGenerator::Make(CallLogInput(kAttributes, kRows, args.seed)), "generator");
    opmap::ComparisonSpec spec;
    spec.attribute = 0;
    spec.value_a = 0;
    spec.value_b = 2;
    spec.target_class = opmap::kDroppedWhileInProgress;
    report->Attempt();
    auto result = engine->Compare(spec);
    if (!result.ok()) {
      report->OpFailed("ground-truth compare: " + result.status().ToString());
    } else {
      CheckCompare(*store, spec, **result, report);
      report->Check(!(*result)->ranked.empty() &&
                        (*result)->ranked[0].attribute == gen.GroundTruthAttribute(),
                    "planted attribute does not rank first on ph01 vs ph03");
    }
  }

  // Valid query choices: both sides of a comparison need target-class
  // records (the comparison is undefined otherwise), read off the 2-D cubes.
  auto target_count = [&](int attr, opmap::ValueCode v, opmap::ValueCode y) {
    return ValueOrDie(store->AttrCube(attr), "cube")->count({v, y});
  };
  // The seed picks values; which attributes and classes each round queries
  // rotates with the round number, so every run asks the same mix.
  Rng rng(args.seed ^ 0xE7u);
  int64_t round_index = 0;
  auto plan_round = [&]() {
    RoundPlan p;
    const int r = static_cast<int>(round_index % (2 * kQueryAttributes));
    for (int i = 0; i < kComparesPerRound; ++i) {
      opmap::ComparisonSpec& spec = p.compares[i];
      spec.attribute = (r * kComparesPerRound + i) % kQueryAttributes;
      spec.target_class = 1 + (r + i) % 2;
      const int m = schema.attribute(spec.attribute).domain();
      do {
        spec.value_a = rng.Below(m);
        spec.value_b = rng.Below(m);
      } while (spec.value_a == spec.value_b ||
               target_count(spec.attribute, spec.value_a, spec.target_class) == 0 ||
               target_count(spec.attribute, spec.value_b, spec.target_class) == 0);
      spec.parallel = one_worker;
    }
    p.vsrest_attr = r % kQueryAttributes;
    p.vsrest_class = 1 + r / kQueryAttributes;
    do {
      p.vsrest_value = rng.Below(schema.attribute(p.vsrest_attr).domain());
    } while (target_count(p.vsrest_attr, p.vsrest_value, p.vsrest_class) == 0);
    p.pairs_attr = r % 2;  // PhoneModel or TimeOfCall
    p.pairs_class = 1 + (r / 2) % 2;
    const int open = r % kQueryAttributes;
    const int drill = (open + 1 + rng.Below(kQueryAttributes - 1)) % kQueryAttributes;
    p.open = schema.attribute(open).name();
    p.drill = schema.attribute(drill).name();
    p.slice_value = schema.attribute(drill).label(rng.Below(schema.attribute(drill).domain()));
    return p;
  };

  auto run_window = [&](double seconds, Window* w) {
    const double start = Now();
    const double end = start + seconds;
    double check_s = 0;
    w->start = start;
    do {
      const RoundPlan p = plan_round();
      const bool check = round_index++ % kCheckEvery == 0;
      auto timed = [&](Kind kind, auto&& call) {
        report->Attempt();
        const double t0 = Now();
        auto result = call();
        const double t1 = Now();
        w->latency_us[kind].push_back((t1 - t0) * 1e6);
        w->done_at.push_back(t1 - check_s);
        return result;
      };
      double c0 = 0;
      for (int i = 0; i < kComparesPerRound; ++i) {
        auto r = timed(kCompare, [&] { return engine->Compare(p.compares[i]); });
        if (!r.ok()) {
          report->OpFailed("compare: " + r.status().ToString());
        } else if (check && i == 0) {
          c0 = Now();
          CheckCompare(*store, p.compares[i], **r, report);
          check_s += Now() - c0;
        }
      }
      auto vr = timed(kVsRest, [&] {
        return comparator.CompareVsRest(p.vsrest_attr, p.vsrest_value, p.vsrest_class);
      });
      if (!vr.ok()) {
        report->OpFailed("vs-rest: " + vr.status().ToString());
      } else if (check) {
        c0 = Now();
        std::vector<bool> in_a(static_cast<size_t>(schema.attribute(p.vsrest_attr).domain()), false);
        in_a[static_cast<size_t>(p.vsrest_value)] = true;
        std::vector<bool> in_b(in_a.size());
        for (size_t v = 0; v < in_a.size(); ++v) in_b[v] = !in_a[v];
        CheckComparison(*store, p.vsrest_attr, in_a, in_b, p.vsrest_class, *vr, report);
        check_s += Now() - c0;
      }
      auto pr = timed(kAllPairs, [&] { return engine->CompareAllPairs(p.pairs_attr, p.pairs_class); });
      if (!pr.ok()) {
        report->OpFailed("all-pairs: " + pr.status().ToString());
      } else if (check) {
        c0 = Now();
        CheckAllPairs(*store, p.pairs_attr, p.pairs_class, 30, *pr, 9, report);
        check_s += Now() - c0;
      }
      auto gi = timed(kGi, [&] { return engine->Gi(); });
      if (!gi.ok()) {
        report->OpFailed("gi: " + gi.status().ToString());
      } else if (check) {
        c0 = Now();
        CheckInfluence(*store, **gi, report);
        check_s += Now() - c0;
      }

      // Navigation: open, render, drill, render, slice, render.
      opmap::ExplorationSession session(store.get());
      auto step = [&](const char* what, auto&& call) {
        const opmap::Status st = timed(kSession, call);
        if (!st.ok()) report->OpFailed(std::string(what) + ": " + st.ToString());
        auto rendered = timed(kRender, [&] { return session.Render(); });
        if (!rendered.ok()) {
          report->OpFailed("render: " + rendered.status().ToString());
        } else {
          report->Check(rendered->find(session.current().dim_name(0)) != std::string::npos,
                        "rendered view does not name its attribute");
        }
        return st.ok();
      };
      if (step("open", [&] { return session.OpenAttribute(p.open); })) {
        report->Check(session.current().Total() == store->num_records(),
                      "opened view does not hold every record");
      }
      if (step("drill", [&] { return session.DrillDown(p.drill); })) {
        report->Check(session.current().num_dims() == 3 &&
                          session.current().Total() == store->num_records(),
                      "drilled view is not the full pair cube");
      }
      if (step("slice", [&] { return session.Slice(p.drill, p.slice_value); })) {
        const int attr = ValueOrDie(schema.IndexOf(p.drill), "attr");
        const auto code = ValueOrDie(schema.attribute(attr).CodeOf(p.slice_value), "code");
        int64_t body = 0;
        for (int y = 0; y < schema.num_classes(); ++y) body += target_count(attr, code, y);
        report->Check(session.current().Total() == body,
                      "sliced view does not hold the slice's records");
      }
    } while (Now() < end);
  };

  // Warm-up: the first touch of each mapped cube verifies its CRC; that
  // one-time cost is set-up, not query latency.
  Window warm;
  run_window(kWarmupSeconds, &warm);

  Window window;
  if (!args.trace) {
    run_window(args.seconds, &window);
  } else {
    Window plain;
    run_window(args.seconds / 2, &plain);
    run_window(args.seconds / 2, &window);
    report->Set("trace.overhead_pct", (plain.per_s() / window.per_s() - 1) * 100);
    report->Set("cube.load_ms", Median(load_s) * 1e3);
    report->Set("compare.cold_us", Median(window.latency_us[kCompare]));
    // The same comparisons at the default worker count: the comparator's
    // candidate fan-out, which the script pins off.
    opmap::QueryEngine fanned(store.get(), /*cache_bytes=*/0);
    std::vector<double> fanned_us;
    for (int i = 0; i < 400; ++i) {
      opmap::ComparisonSpec spec = plan_round().compares[i % kComparesPerRound];
      spec.parallel = {};
      report->Attempt();
      const double t0 = Now();
      auto r = fanned.Compare(spec);
      fanned_us.push_back((Now() - t0) * 1e6);
      if (!r.ok()) report->OpFailed("fanned compare: " + r.status().ToString());
    }
    report->Set("compare.cold_default_workers_us", Median(fanned_us));
    report->Set("compare.all_pairs_ms", Median(window.latency_us[kAllPairs]) / 1e3);
    report->Set("gi.mine_ms", Median(window.latency_us[kGi]) / 1e3);
    report->Set("core.render_us", Median(window.latency_us[kRender]));
    const auto stats = engine->GetCacheStats();
    report->Set("core.cache_hits", static_cast<double>(stats.hits));
    report->Set("core.cache_misses", static_cast<double>(stats.misses));
    const std::vector<double> all = window.all();
    report->Set("latency_samples", static_cast<double>(all.size()));
    if (all.size() >= 1000) report->Set("latency_p99_ms", Quantile(all, 0.99) / 1e3);
  }
  report->Set("setup_s", Median(setup_s));
  report->Set("throughput_per_s", window.per_s());
  report->Set("latency_p50_ms", Median(window.all()) / 1e3);
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
