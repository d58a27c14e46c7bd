// ingest_live: restart and stream, the only workload that writes beside
// reads. It re-opens an ingest directory holding a compacted base plus an
// unfolded WAL tail (so WAL replay is part of set-up), then one writer
// appends fixed-size batches at a fixed rate with fsync on every append and
// compacts every kCompactEvery batches, while one reader runs an open loop
// on the same schedule: Snapshot() plus a Compare on it, timed from when
// each read was due. Loads wal, delta, snapshot merging and compaction.
//
// End-to-end: setup_s = median Ingester::Open of a fresh copy of the
// directory; throughput_per_s = acknowledged rows per second (the offered
// rate while the writer keeps up); latency_p50_ms = the reader's median
// latency from due time.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "opmap/common/io.h"
#include "opmap/compare/comparator.h"
#include "opmap/data/dataset_io.h"
#include "opmap/ingest/ingester.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kAttributes = 41;
constexpr int64_t kBatchRows = 1000;
constexpr int kBaseBatches = 100;   // folded into the compacted base
constexpr int kTailBatches = 40;   // left in the WAL, replayed by Open
constexpr int kPoolBatches = 32;   // distinct batches the writer cycles through
constexpr int kCompactEvery = 100;  // batches between compactions
// Appends and reads share one schedule. At 50 batches/s an append holds
// the ingester's lock for about a third of each period, so a slower host
// stretches the wait without tipping the writer into running back to back.
constexpr double kAppendsPerSecond = 50;
constexpr double kReadsPerSecond = 50;
// Reads share the writer's schedule, 0.25 ms behind it: each read is due
// just after an append has taken the ingester's lock.
constexpr double kReadOffset = 0.00025;
constexpr int kSetupRepeats = 7;
constexpr int kCheckedReads = 12;  // reads whose comparisons are recomputed

std::string PreparedDir(const Args& args) { return args.dir + "/prepared"; }
std::string HistoryPath(const Args& args) { return args.dir + "/history.opmd"; }
std::string PoolPath(const Args& args) { return args.dir + "/pool.opmd"; }

opmap::IngestOptions Options() {
  opmap::IngestOptions options;
  options.wal.sync_every_append = true;  // --fsync=always
  options.compact_every_batches = 0;     // the writer compacts explicitly
  // --threads=1: a 1,000-row batch gains nothing from sharding, and a
  // parallel section on a shared host waits for its slowest worker.
  options.cube.parallel.num_threads = 1;
  return options;
}

std::vector<int64_t> Range(int64_t begin, int64_t end) {
  std::vector<int64_t> rows;
  for (int64_t r = begin; r < end; ++r) rows.push_back(r);
  return rows;
}

struct Read {
  std::shared_ptr<const opmap::CubeStore> snapshot;
  opmap::ComparisonSpec spec;
  opmap::ComparisonResult result;
};

struct Window {
  std::vector<double> latency_ms, snapshot_ms, wait_ms, append_ms, compact_ms;
  int64_t rows = 0;
  double start = 0, last_ack = 0;
  // Acknowledged rows per second: the offered rate while the writer keeps
  // up, lower when appends overrun their slots.
  double rows_per_s() const { return static_cast<double>(rows) / (last_ack - start); }
};

}  // namespace

void PrepareIngestLive(const Args& args) {
  const int64_t history = (kBaseBatches + kTailBatches) * kBatchRows;
  const int64_t total = history + kPoolBatches * kBatchRows;
  auto gen = ValueOrDie(opmap::CallLogGenerator::Make(CallLogInput(kAttributes, total, args.seed)),
                        "generator");
  const opmap::Dataset rows = gen.Generate();
  auto ingester = ValueOrDie(
      opmap::Ingester::Create(opmap::Env::Default(), PreparedDir(args), rows.schema(), Options()),
      "create ingest dir");
  ValueOrDie(ingester->AppendBatch(rows.TakeRows(Range(0, kBaseBatches * kBatchRows))), "append base");
  DieIf(ingester->Compact(), "compact base");
  for (int b = kBaseBatches; b < kBaseBatches + kTailBatches; ++b) {
    ValueOrDie(ingester->AppendBatch(rows.TakeRows(Range(b * kBatchRows, (b + 1) * kBatchRows))),
               "append tail");
  }
  DieIf(ingester->Close(), "close");
  DieIf(opmap::SaveDatasetToFile(rows.TakeRows(Range(0, history)), HistoryPath(args)), "history");
  DieIf(opmap::SaveDatasetToFile(rows.TakeRows(Range(history, total)), PoolPath(args)), "pool");
}

void RunIngestLive(const Args& args, Report* report) {
  // Set-up: Open (manifest + v3 base + WAL replay) on a fresh copy each time.
  std::vector<double> open_s;
  std::unique_ptr<opmap::Ingester> ingester;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string dir = args.dir + "/open" + std::to_string(i);
    fs::remove_all(dir);
    fs::copy(PreparedDir(args), dir, fs::copy_options::recursive);
    if (ingester) DieIf(ingester->Close(), "close");
    ingester.reset();
    if (i > 0) fs::remove_all(args.dir + "/open" + std::to_string(i - 1));
    const double t0 = Now();
    ingester = ValueOrDie(opmap::Ingester::Open(opmap::Env::Default(), dir, Options()), "open");
    open_s.push_back(Now() - t0);
  }
  const opmap::Dataset history = ValueOrDie(opmap::LoadDatasetFromFile(HistoryPath(args)), "history");
  const opmap::Dataset pool_rows = ValueOrDie(opmap::LoadDatasetFromFile(PoolPath(args)), "pool");
  std::vector<opmap::Dataset> pool;
  for (int b = 0; b < kPoolBatches; ++b) {
    pool.push_back(pool_rows.TakeRows(Range(b * kBatchRows, (b + 1) * kBatchRows)));
  }
  {
    auto recovered = ValueOrDie(ingester->Snapshot(), "snapshot");
    report->Check(recovered->num_records() == history.num_rows(),
                  "re-opened directory does not hold the base plus the WAL tail");
  }

  // Reader queries: comparisons whose sides have target-class records
  // from the start (counts only grow).
  const opmap::Schema& schema = history.schema();
  std::vector<opmap::ComparisonSpec> specs;
  {
    const opmap::CubeStore base = ValueOrDie(opmap::CubeBuilder::FromDataset(history), "base");
    Rng rng(args.seed ^ 0x1D6u);
    while (specs.size() < 16) {
      opmap::ComparisonSpec spec;
      spec.attribute = rng.Below(8);
      const int m = schema.attribute(spec.attribute).domain();
      spec.value_a = rng.Below(m);
      spec.value_b = rng.Below(m);
      spec.target_class = 1 + rng.Below(2);
      spec.parallel.num_threads = 1;
      const opmap::RuleCube* cube = ValueOrDie(base.AttrCube(spec.attribute), "cube");
      if (spec.value_a != spec.value_b && cube->count({spec.value_a, spec.target_class}) > 0 &&
          cube->count({spec.value_b, spec.target_class}) > 0) {
        specs.push_back(spec);
      }
    }
  }

  std::vector<int> acked;  // pool index of every acknowledged batch, in order
  std::vector<Read> checked;
  int64_t last_records = 0;
  auto run_window = [&](double seconds, Window* w) {
    const double start = Now();
    const double end = start + seconds;
    w->start = start;
    std::jthread writer([&] {
      // Paced writer: append i is due at start + i / rate; a slot missed
      // because an append ran long is skipped, so the writer never runs
      // back to back and readers always find gaps between appends.
      int64_t appends = 0;
      for (int64_t slot = 0;; ++slot) {
        const double due = start + static_cast<double>(slot) / kAppendsPerSecond;
        if (due >= end) break;
        if (Now() > due + 1 / kAppendsPerSecond) continue;
        SleepUntil(due);
        const int index = static_cast<int>(acked.size() % kPoolBatches);
        report->Attempt();
        const double t0 = Now();
        auto seq = ingester->AppendBatch(pool[static_cast<size_t>(index)]);
        w->append_ms.push_back((Now() - t0) * 1e3);
        if (!seq.ok()) {
          report->OpFailed("append: " + seq.status().ToString());
          break;  // the ingester latches failed after an I/O error
        }
        acked.push_back(index);
        w->rows += kBatchRows;
        w->last_ack = Now();
        if (++appends % kCompactEvery == 0) {
          report->Attempt();
          const double c0 = Now();
          const opmap::Status st = ingester->Compact();
          w->compact_ms.push_back((Now() - c0) * 1e3);
          if (!st.ok()) {
            report->OpFailed("compact: " + st.ToString());
            break;
          }
        }
      }
    });
    // Open-loop reader: read i is due at start + i / rate, whatever
    // happened to read i - 1, so a stall shows in every read behind it.
    const int64_t reads = static_cast<int64_t>(seconds * kReadsPerSecond);
    for (int64_t i = 0; i < reads; ++i) {
      const double due = start + kReadOffset + static_cast<double>(i) / kReadsPerSecond;
      SleepUntil(due);
      const opmap::ComparisonSpec& spec = specs[static_cast<size_t>(i) % specs.size()];
      report->Attempt();
      const double t0 = Now();
      auto snapshot = ingester->Snapshot();
      const double t1 = Now();
      if (!snapshot.ok()) {
        report->OpFailed("snapshot: " + snapshot.status().ToString());
        continue;
      }
      auto result = opmap::Comparator(snapshot->get()).Compare(spec);
      const double t2 = Now();
      if (!result.ok()) {
        report->OpFailed("compare: " + result.status().ToString());
        continue;
      }
      w->latency_ms.push_back((t2 - due) * 1e3);
      w->snapshot_ms.push_back((t1 - t0) * 1e3);
      w->wait_ms.push_back((t0 - due) * 1e3);
      const int64_t records = (*snapshot)->num_records();
      report->Check(records >= last_records && records % kBatchRows == 0,
                    "snapshot record count went back or is not a whole number of batches");
      last_records = records;
      if (i % 64 == 0 && static_cast<int>(checked.size()) < kCheckedReads) {
        checked.push_back({*snapshot, spec, std::move(result).MoveValue()});
      }
    }
    writer.join();
  };

  Window window;
  opmap::MetricsSnapshot before = opmap::MetricsRegistry::Global()->Snapshot();
  if (!args.trace) {
    run_window(args.seconds, &window);
  } else {
    Window plain;
    run_window(args.seconds / 2, &plain);
    before = opmap::MetricsRegistry::Global()->Snapshot();
    run_window(args.seconds / 2, &window);
    const auto after = opmap::MetricsRegistry::Global()->Snapshot();
    // At a fixed offered rate tracing shows in latency, not throughput.
    report->Set("trace.overhead_pct",
                (Median(window.latency_ms) / Median(plain.latency_ms) - 1) * 100);
    report->Set("ingest.open_ms", Median(open_s) * 1e3);
    report->Set("ingest.append_ms", Median(window.append_ms));
    report->Set("ingest.compact_ms", Median(window.compact_ms));
    report->Set("ingest.snapshot_ms", Median(window.snapshot_ms));
    report->Set("ingest.reader_wait_ms", Median(window.wait_ms));
    const double rows = static_cast<double>(window.rows);
    report->Set("wal.bytes_per_row", CounterDelta(before, after, "wal.bytes_appended") / rows);
    report->Set("io.bytes_written_per_row", CounterDelta(before, after, "io.bytes_written") / rows);
    report->Set("latency_samples", static_cast<double>(window.latency_ms.size()));
    if (window.latency_ms.size() >= 1000) {
      report->Set("latency_p99_ms", Quantile(window.latency_ms, 0.99));
    }
  }

  // The final store must equal one batch build over every acknowledged row.
  for (const Read& r : checked) CheckCompare(*r.snapshot, r.spec, r.result, report);
  checked.clear();
  auto final_store = ValueOrDie(ingester->Snapshot(), "final snapshot");
  auto builder = ValueOrDie(opmap::CubeBuilder::Make(schema, opmap::CubeStoreOptions{}), "builder");
  DieIf(builder.AddDataset(history), "batch build");
  for (int index : acked) DieIf(builder.AddDataset(pool[static_cast<size_t>(index)]), "batch build");
  const opmap::CubeStore expected = std::move(builder).Finish();
  report->Check(final_store->num_records() ==
                    history.num_rows() + static_cast<int64_t>(acked.size()) * kBatchRows,
                "final store does not count every acknowledged row");
  report->Check(StoreBytes(*final_store) == StoreBytes(expected),
                "final store differs from a batch build over the acknowledged rows");
  DieIf(ingester->Close(), "close");

  report->Set("setup_s", Median(open_s));
  report->Set("throughput_per_s", window.rows_per_s());
  report->Set("latency_p50_ms", Median(window.latency_ms));
  report->Set("peak_rss_mb", PeakRssMb());
}

}  // namespace perfbench
