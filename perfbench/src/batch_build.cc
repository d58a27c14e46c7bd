// batch_build: the overnight job of Figs 10-11. A generated call-log
// dataset is loaded from its snapshot file, then built into rule cubes,
// committed as a v3 cube file and mined for class association rules, round
// after round. Touches data, cube (counting kernels and parallel shards),
// io and car; nothing of compare, core, server or ingest.
//
// End-to-end: setup_s = median LoadDatasetFromFile; throughput_per_s =
// rows per second through CubeBuilder::FromDataset + SaveToFile at the
// default worker count; latency_p50_ms = median MineClassAssociationRules
// pass (default options, <= 2 conditions, default worker count).
#include <fstream>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "opmap/car/miner.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset_io.h"

namespace perfbench {

namespace {

constexpr int kAttributes = 41;      // the paper's main configuration
constexpr int64_t kRows = 300000;    // 50 MB of codes
constexpr int kSetupRepeats = 3;

std::string InputPath(const Args& args) { return args.dir + "/input.opmd"; }
std::string DigestPath(const Args& args) { return args.dir + "/input.digest"; }

// A cheap fingerprint of a rule set, for comparing later rounds with the
// checked first one.
uint64_t RulesDigest(const opmap::RuleSet& rules) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](int64_t v) { h = (h ^ static_cast<uint64_t>(v)) * 1099511628211ull; };
  for (const opmap::ClassRule& r : rules.rules()) {
    for (const opmap::Condition& c : r.conditions) mix(c.attribute), mix(c.value);
    mix(r.class_value), mix(r.support_count), mix(r.body_count);
  }
  return h ^ rules.size();
}

struct Window {
  std::vector<double> build_s, save_s, mine_s;
  int64_t rules = 0;
  double rows_per_s() const {
    std::vector<double> total;
    for (size_t i = 0; i < build_s.size(); ++i) total.push_back(build_s[i] + save_s[i]);
    return static_cast<double>(kRows) / Median(total);
  }
};

}  // namespace

void PrepareBatchBuild(const Args& args) {
  auto gen = ValueOrDie(opmap::CallLogGenerator::Make(CallLogInput(kAttributes, kRows, args.seed)),
                        "generator");
  const opmap::Dataset dataset = gen.Generate();
  DieIf(opmap::SaveDatasetToFile(dataset, InputPath(args)), "save dataset");
  std::ofstream(DigestPath(args)) << DatasetDigest(dataset) << "\n";
}

void RunBatchBuild(const Args& args, Report* report) {
  // Set-up: load the dataset snapshot (median of repeats; the last copy is
  // the one the rounds use).
  std::vector<double> load_s;
  opmap::Dataset dataset{opmap::Schema()};
  for (int i = 0; i < kSetupRepeats; ++i) {
    dataset = opmap::Dataset{opmap::Schema()};
    const double t0 = Now();
    dataset = ValueOrDie(opmap::LoadDatasetFromFile(InputPath(args)), "load dataset");
    load_s.push_back(Now() - t0);
  }
  uint64_t digest = 0;
  std::ifstream(DigestPath(args)) >> digest;
  report->Check(DatasetDigest(dataset) == digest && dataset.num_rows() == kRows,
                "loaded dataset differs from the generated rows");

  const std::string cube_path = args.dir + "/cubes.opmc";
  const opmap::CarMinerOptions mine_options;  // defaults: min_support 0.01, <= 2 conditions
  Rng rng(args.seed ^ 0xB17Cu);
  std::string first_store;
  uint64_t first_rules = 0;

  // One round: build + save + mine. The first round's outputs are checked
  // against the rows; later rounds must reproduce them exactly.
  auto run_window = [&](double seconds, bool traced, Window* w) {
    const double end = Now() + seconds;
    int untimed = 0;  // rounds that ended without a timing (warm-up, failure)
    do {
      report->Attempt(3);
      opmap::MetricsSnapshot before;
      if (traced) before = opmap::MetricsRegistry::Global()->Snapshot();
      const double t0 = Now();
      auto built = opmap::CubeBuilder::FromDataset(dataset);
      const double t1 = Now();
      if (!built.ok()) {
        report->OpFailed("cube build: " + built.status().ToString());
        continue;
      }
      const opmap::CubeStore store = std::move(built).MoveValue();
      const opmap::Status saved = store.SaveToFile(cube_path);
      const double t2 = Now();
      auto mined = opmap::MineClassAssociationRules(dataset, mine_options);
      const double t3 = Now();
      if (!saved.ok()) report->OpFailed("save: " + saved.ToString());
      if (!mined.ok()) report->OpFailed("mine: " + mined.status().ToString());
      if (!saved.ok() || !mined.ok()) continue;
      if (traced) {
        const auto after = opmap::MetricsRegistry::Global()->Snapshot();
        report->Check(CounterDelta(before, after, "cube.rows_counted") >= kRows,
                      "cube.rows_counted did not advance by the dataset size");
      }
      w->rules = static_cast<int64_t>(mined->size());
      // The first round warms the allocator and page tables: not timed.
      if (!first_store.empty()) {
        w->build_s.push_back(t1 - t0);
        w->save_s.push_back(t2 - t1);
        w->mine_s.push_back(t3 - t2);
      }

      if (first_store.empty()) {
        first_store = StoreBytes(store);
        first_rules = RulesDigest(*mined);
        report->Check(store.num_records() == kRows, "store does not count every row");
        CheckCubeCells(dataset, store, &rng, 24, report);
        CheckMarginals(store, report);
        CheckRules(*mined, store, mine_options.min_support, report);
        auto reloaded = opmap::CubeStore::LoadFromFile(cube_path);
        report->Check(reloaded.ok() && StoreBytes(*reloaded) == first_store,
                      "committed cube file does not reload to the built store");
      } else {
        report->Check(StoreBytes(store) == first_store, "cube build is not reproducible");
        report->Check(RulesDigest(*mined) == first_rules, "mined rules are not reproducible");
      }
      // A window always times at least one round, however short it is.
    } while (Now() < end || (w->build_s.empty() && ++untimed < 3));
  };

  Window window;
  if (!args.trace) {
    run_window(args.seconds, false, &window);
  } else {
    // Half untraced, half traced: the throughput difference is the
    // tracing overhead; the per-layer numbers come from the traced half.
    Window plain;
    run_window(args.seconds / 2, false, &plain);
    run_window(args.seconds / 2, true, &window);
    report->Set("trace.overhead_pct", (plain.rows_per_s() / window.rows_per_s() - 1) * 100);

    std::vector<double> one_thread;
    opmap::CubeStoreOptions serial;
    serial.parallel.num_threads = 1;
    for (int i = 0; i < 3; ++i) {
      report->Attempt();
      const double t0 = Now();
      auto built = opmap::CubeBuilder::FromDataset(dataset, serial);
      one_thread.push_back(Now() - t0);
      if (!built.ok()) {
        report->OpFailed("1-thread cube build: " + built.status().ToString());
      } else {
        report->Check(StoreBytes(*built) == first_store,
                      "1-thread cube build differs from the default build");
      }
    }
    report->Set("data.load_ms", Median(load_s) * 1e3);
    report->Set("cube.build_ms", Median(window.build_s) * 1e3);
    report->Set("cube.save_ms", Median(window.save_s) * 1e3);
    report->Set("cube.build_1t_ms", Median(one_thread) * 1e3);
    report->Set("cube.build_speedup", Median(one_thread) / Median(window.build_s));
    report->Set("car.mine_ms", Median(window.mine_s) * 1e3);
    report->Set("car.rules", static_cast<double>(window.rules));
    report->Set("latency_samples", static_cast<double>(window.mine_s.size()));
  }
  report->Set("setup_s", Median(load_s));
  report->Set("throughput_per_s", window.rows_per_s());
  report->Set("latency_p50_ms", Median(window.mine_s) * 1e3);
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
