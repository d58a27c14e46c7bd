// Streaming-ingestion suite: WAL-backed appends, recovery-on-open,
// atomic compaction, delta/batch equivalence, and the crash drill — a
// sweep of power-cut injection points (mid-append, pre-seal during the
// segment seal, mid-compaction, during GC) × corruption modes (torn
// write, bit flip) × writer thread counts, asserting after every crash
// that recovery reproduces the clean batch build over the acknowledged
// prefix byte for byte.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "opmap/common/io.h"
#include "opmap/common/metrics.h"
#include "opmap/core/session.h"
#include "opmap/ingest/ingester.h"
#include "test_util.h"

namespace opmap {
namespace {

using test::MakeSchema;

Schema DrillSchema() {
  return MakeSchema({{"region", {"north", "south", "east"}},
                     {"tier", {"basic", "plus"}},
                     {"outcome", {"neg", "pos"}}});
}

// Deterministic 5-row batch keyed by id: every run of every drill builds
// the same rows for the same batch number.
Dataset DrillBatch(const Schema& schema, uint64_t id) {
  Dataset batch(schema);
  ValueCode codes[3];
  for (uint64_t r = 0; r < 5; ++r) {
    const uint64_t h = id * 131 + r * 17;
    codes[0] = static_cast<ValueCode>(h % 3);
    codes[1] = static_cast<ValueCode>((h / 3) % 2);
    codes[2] = static_cast<ValueCode>((h / 7) % 2);
    batch.AppendRowUnchecked(codes);
  }
  return batch;
}

// The ground truth: one clean one-shot build over the given batches.
std::string CleanBuildBytes(const Schema& schema,
                            const std::vector<uint64_t>& batch_ids,
                            const CubeStoreOptions& options) {
  Dataset all(schema);
  ValueCode codes[3];
  for (uint64_t id : batch_ids) {
    const Dataset batch = DrillBatch(schema, id);
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      for (int a = 0; a < 3; ++a) codes[a] = batch.code(r, a);
      all.AppendRowUnchecked(codes);
    }
  }
  auto store = CubeBuilder::FromDataset(all, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  std::ostringstream buf;
  EXPECT_OK(store->Save(&buf));
  return buf.str();
}

std::string StoreBytes(const CubeStore& store) {
  std::ostringstream buf;
  EXPECT_OK(store.Save(&buf));
  return buf.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  if (Env::Default()->FileExists(dir + "/MANIFEST")) {
    (void)Env::Default()->DeleteFile(dir + "/MANIFEST");
  }
  for (uint64_t id = 1; id < 64; ++id) {
    (void)Env::Default()->DeleteFile(dir + "/" + WalSegmentFileName(id));
    (void)Env::Default()->DeleteFile(dir + "/" + WalOpenFileName(id));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "cubes-%06llu.opmc",
                  static_cast<unsigned long long>(id));
    (void)Env::Default()->DeleteFile(dir + "/" + buf);
    (void)Env::Default()->DeleteFile(dir + "/" + buf + ".tmp");
  }
  return dir;
}

IngestOptions DrillOptions() {
  IngestOptions options;
  options.wal.sync_every_append = true;
  options.wal.max_segment_bytes = 256;  // a few batches per segment
  return options;
}

// ---------------------------------------------------------------------------
// Happy paths
// ---------------------------------------------------------------------------

TEST(Ingester, AppendSnapshotMatchesBatchBuild) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_basic");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  std::vector<uint64_t> ids;
  for (uint64_t id = 1; id <= 5; ++id) {
    ASSERT_OK_AND_ASSIGN(const uint64_t seq,
                         ing->AppendBatch(DrillBatch(schema, id)));
    EXPECT_EQ(seq, id);  // single writer: seqs are the batch numbers
    ids.push_back(id);
  }
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*snapshot),
            CleanBuildBytes(schema, ids, DrillOptions().cube));
  const IngestStats stats = ing->GetStats();
  EXPECT_EQ(stats.batches_appended, 5);
  EXPECT_EQ(stats.rows_appended, 25);
  EXPECT_EQ(stats.next_seq, 6u);
  ASSERT_OK(ing->Close());
}

TEST(Ingester, SnapshotIsCachedAndImmutable) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_snapshot");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());
  ASSERT_OK_AND_ASSIGN(auto snap1, ing->Snapshot());
  ASSERT_OK_AND_ASSIGN(auto snap1_again, ing->Snapshot());
  EXPECT_EQ(snap1.get(), snap1_again.get());  // unchanged → same store
  const std::string before = StoreBytes(*snap1);
  ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 2)).status());
  ASSERT_OK_AND_ASSIGN(auto snap2, ing->Snapshot());
  EXPECT_NE(snap1.get(), snap2.get());
  const std::string before2 = StoreBytes(*snap2);
  // Later appends recycle every store no reader holds (the writer's spare
  // is caught up in place), and compactions rewrite the container; the
  // held snapshots keep their bytes through all of it.
  std::vector<uint64_t> ids = {1, 2};
  for (uint64_t id = 3; id <= 8; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
    ids.push_back(id);
    if (id % 3 == 0) ASSERT_OK(ing->Compact());
    EXPECT_EQ(StoreBytes(*snap1), before);
    EXPECT_EQ(StoreBytes(*snap2), before2);
  }
  ASSERT_OK(ing->Compact());
  EXPECT_EQ(StoreBytes(*snap1), before);
  EXPECT_EQ(StoreBytes(*snap2), before2);
  ASSERT_OK_AND_ASSIGN(auto latest, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*latest),
            CleanBuildBytes(schema, ids, DrillOptions().cube));
  ASSERT_OK(ing->Close());
}

TEST(Ingester, UnreadAppendsReuseTheSpareStore) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_reuse");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  Counter* const clones =
      MetricsRegistry::Global()->counter("ingest.publish_clones");
  std::vector<uint64_t> ids;
  const int64_t start = clones->Value();
  // Nobody reads: only the first append, which has no spare yet, copies
  // the store; every later one catches the spare up in place.
  for (uint64_t id = 1; id <= 6; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
    ids.push_back(id);
  }
  EXPECT_EQ(clones->Value() - start, 1);
  // A held snapshot cannot be recycled: the append that would reuse it
  // copies instead, and the one after that reuses again.
  ASSERT_OK_AND_ASSIGN(auto held, ing->Snapshot());
  const std::string held_bytes = StoreBytes(*held);
  for (uint64_t id = 7; id <= 9; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
    ids.push_back(id);
  }
  EXPECT_EQ(clones->Value() - start, 2);
  EXPECT_EQ(StoreBytes(*held), held_bytes);
  ASSERT_OK_AND_ASSIGN(auto latest, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*latest),
            CleanBuildBytes(schema, ids, DrillOptions().cube));
  ASSERT_OK(ing->Close());
}

// An Env whose WritableFile::Sync() parks, once armed, until released:
// holds one append inside its WAL fsync with the writer mutex taken.
class ParkingSyncEnv : public Env {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    OPMAP_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           Env::Default()->NewWritableFile(path));
    return std::unique_ptr<WritableFile>(new File(this, std::move(file)));
  }
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    return Env::Default()->NewSequentialFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return Env::Default()->RenameFile(from, to);
  }
  Status DeleteFile(const std::string& path) override {
    return Env::Default()->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return Env::Default()->CreateDir(path);
  }
  bool FileExists(const std::string& path) override {
    return Env::Default()->FileExists(path);
  }
  void SleepMicros(int64_t micros) override {
    Env::Default()->SleepMicros(micros);
  }

 private:
  class File : public WritableFile {
   public:
    File(ParkingSyncEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const char* data, size_t n) override {
      return base_->Append(data, n);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->Park();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    ParkingSyncEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !armed_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
};

TEST(Ingester, SnapshotDoesNotWaitForAnAppendInItsFsync) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_nowait");
  ParkingSyncEnv env;
  IngestOptions options = DrillOptions();
  options.wal.max_segment_bytes = 1 << 20;  // the one sync is the append's
  ASSERT_OK_AND_ASSIGN(auto ing,
                       Ingester::Create(&env, dir, schema, options));
  ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());
  ASSERT_OK_AND_ASSIGN(auto before, ing->Snapshot());

  env.Arm();
  std::thread writer([&] {
    EXPECT_OK(ing->AppendBatch(DrillBatch(schema, 2)).status());
  });
  env.WaitUntilParked();
  // Batch 2 is inside its fsync with the writer mutex held. Snapshot()
  // must return the store published before it, without waiting.
  auto snapshot =
      std::async(std::launch::async, [&] { return ing->Snapshot(); });
  if (snapshot.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "Snapshot() waited for an append parked in its fsync";
  }
  env.Release();
  writer.join();
  ASSERT_OK_AND_ASSIGN(auto during, snapshot.get());
  EXPECT_EQ(during.get(), before.get());
  EXPECT_EQ(during->num_records(), 5);

  ASSERT_OK_AND_ASSIGN(auto after, ing->Snapshot());
  EXPECT_EQ(after->num_records(), 10);
  EXPECT_EQ(StoreBytes(*after), CleanBuildBytes(schema, {1, 2}, options.cube));
  ASSERT_OK(ing->Close());
}

TEST(Ingester, ConcurrentReadersSeeEveryAckedBatchInOrder) {
  // One writer, three readers. Per reader, num_records never goes back
  // and is always a whole number of 5-row batches; a snapshot taken after
  // AppendBatch returned seq s holds at least s batches; a held snapshot
  // keeps its bytes while the writer recycles other stores; the final
  // store equals one CubeBuilder pass over every batch.
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_readers");
  IngestOptions options = DrillOptions();
  options.wal.sync_every_append = false;
  options.compact_every_batches = 16;
  ASSERT_OK_AND_ASSIGN(auto ing,
                       Ingester::Create(Env::Default(), dir, schema, options));
  constexpr uint64_t kBatches = 200;
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> done{false};
  auto reader = [&] {
    int64_t last = 0;
    std::shared_ptr<const CubeStore> held;
    std::string held_bytes;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t acked_before = acked.load(std::memory_order_acquire);
      auto snap = ing->Snapshot();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      const int64_t records = (*snap)->num_records();
      EXPECT_GE(records, last);
      EXPECT_EQ(records % 5, 0);
      EXPECT_GE(records, static_cast<int64_t>(acked_before) * 5);
      last = records;
      if (held != nullptr) {
        EXPECT_EQ(StoreBytes(*held), held_bytes);
      }
      held = snap.MoveValue();
      held_bytes = StoreBytes(*held);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);
  std::vector<uint64_t> ids;
  for (uint64_t id = 1; id <= kBatches; ++id) {
    auto seq = ing->AppendBatch(DrillBatch(schema, id));
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    acked.store(*seq, std::memory_order_release);
    ids.push_back(id);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_OK_AND_ASSIGN(auto final_store, ing->Snapshot());
  EXPECT_EQ(final_store->num_records(), static_cast<int64_t>(kBatches) * 5);
  EXPECT_EQ(StoreBytes(*final_store),
            CleanBuildBytes(schema, ids, options.cube));
  ASSERT_OK(ing->Close());
}

TEST(Ingester, ReopenReplaysWal) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_reopen");
  {
    ASSERT_OK_AND_ASSIGN(
        auto ing,
        Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
    for (uint64_t id = 1; id <= 4; ++id) {
      ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
    }
    ASSERT_OK(ing->Close());
  }
  ASSERT_OK_AND_ASSIGN(
      auto ing, Ingester::Open(Env::Default(), dir, DrillOptions()));
  EXPECT_EQ(ing->GetStats().replayed_records, 4);
  EXPECT_EQ(ing->GetStats().replayed_rows, 20);
  EXPECT_FALSE(ing->GetStats().tail_truncated);
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*snapshot),
            CleanBuildBytes(schema, {1, 2, 3, 4}, DrillOptions().cube));
  // Appends continue with fresh sequence numbers.
  ASSERT_OK_AND_ASSIGN(const uint64_t seq,
                       ing->AppendBatch(DrillBatch(schema, 5)));
  EXPECT_EQ(seq, 5u);
  ASSERT_OK(ing->Close());
}

TEST(Ingester, RepeatedReopensReplayEveryOpenSegment) {
  // Recovery never appends to an existing `.open` segment, so each
  // crash/reopen cycle leaves another `.open` behind. Replay must walk
  // through ALL of them — stopping at the first one would silently drop
  // every later segment's acknowledged batches.
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_multi_open");
  {
    ASSERT_OK_AND_ASSIGN(
        auto ing,
        Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());
    ASSERT_OK(ing->Close());  // close leaves wal-000001.open in place
  }
  {
    ASSERT_OK_AND_ASSIGN(
        auto ing, Ingester::Open(Env::Default(), dir, DrillOptions()));
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 2)).status());
    ASSERT_OK(ing->Close());  // batch 2 lives in wal-000002.open
  }
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/" + WalOpenFileName(1)));
  EXPECT_TRUE(Env::Default()->FileExists(dir + "/" + WalOpenFileName(2)));
  ASSERT_OK_AND_ASSIGN(
      auto ing, Ingester::Open(Env::Default(), dir, DrillOptions()));
  EXPECT_EQ(ing->GetStats().replayed_records, 2);
  EXPECT_EQ(ing->GetStats().next_seq, 3u);
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*snapshot),
            CleanBuildBytes(schema, {1, 2}, DrillOptions().cube));
  ASSERT_OK(ing->Close());
}

TEST(Ingester, CompactFoldsGarbageCollectsAndStaysEquivalent) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_compact");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
  }
  ASSERT_OK(ing->Compact());
  IngestStats stats = ing->GetStats();
  EXPECT_EQ(stats.cube_generation, 2u);
  EXPECT_EQ(stats.last_applied_seq, 3u);
  EXPECT_EQ(stats.compactions, 1);
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/cubes-000001.opmc"));
  EXPECT_FALSE(Env::Default()->FileExists(dir + "/" + WalSegmentFileName(1)));

  // Post-compaction appends land in the delta on top of the new base.
  for (uint64_t id = 4; id <= 6; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
  }
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*snapshot),
            CleanBuildBytes(schema, {1, 2, 3, 4, 5, 6}, DrillOptions().cube));
  ASSERT_OK(ing->Close());

  // Recovery after a compaction replays only the unfolded tail.
  ASSERT_OK_AND_ASSIGN(
      auto reopened, Ingester::Open(Env::Default(), dir, DrillOptions()));
  EXPECT_EQ(reopened->GetStats().replayed_records, 3);
  ASSERT_OK_AND_ASSIGN(auto recovered, reopened->Snapshot());
  EXPECT_EQ(StoreBytes(*recovered),
            CleanBuildBytes(schema, {1, 2, 3, 4, 5, 6}, DrillOptions().cube));
  ASSERT_OK(reopened->Close());
}

TEST(Ingester, OpenOrCreateAndSchemaChecks) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_ooc");
  {
    ASSERT_OK_AND_ASSIGN(auto ing,
                         Ingester::OpenOrCreate(Env::Default(), dir, schema,
                                                DrillOptions()));
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());
    ASSERT_OK(ing->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto ing,
                       Ingester::OpenOrCreate(Env::Default(), dir, schema,
                                              DrillOptions()));
  EXPECT_EQ(ing->GetStats().replayed_records, 1);
  // Create on an initialized directory is refused.
  EXPECT_FALSE(
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()).ok());
  // Mismatched batches are rejected before touching the WAL.
  const Schema other = MakeSchema({{"x", {"a", "b"}}, {"y", {"n", "p"}}});
  Dataset bad(other);
  const ValueCode row[2] = {0, 1};
  bad.AppendRowUnchecked(row);
  const Status st = ing->AppendBatch(bad).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  ASSERT_OK(ing->Close());
}

TEST(Ingester, AutoCompactionEveryNBatches) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_autocompact");
  IngestOptions options = DrillOptions();
  options.compact_every_batches = 2;
  ASSERT_OK_AND_ASSIGN(
      auto ing, Ingester::Create(Env::Default(), dir, schema, options));
  std::vector<uint64_t> ids;
  for (uint64_t id = 1; id <= 7; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
    ids.push_back(id);
  }
  EXPECT_EQ(ing->GetStats().compactions, 3);
  EXPECT_EQ(ing->GetStats().last_applied_seq, 6u);
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  EXPECT_EQ(StoreBytes(*snapshot),
            CleanBuildBytes(schema, ids, options.cube));
  ASSERT_OK(ing->Close());
}

// ---------------------------------------------------------------------------
// Re-encoding external rows against the stored schema
// ---------------------------------------------------------------------------

TEST(ReencodeForSchema, MapsLabelsAndIgnoresExtraColumns) {
  const Schema stored = DrillSchema();
  // Same semantic columns, different order/codes, plus an extra column.
  const Schema incoming = MakeSchema({{"extra", {"zzz"}},
                                      {"tier", {"plus", "basic"}},
                                      {"region", {"south", "north"}},
                                      {"outcome", {"pos", "neg"}}});
  Dataset src(incoming);
  const ValueCode row[4] = {0, 0, 0, 0};  // zzz, plus, south, pos
  src.AppendRowUnchecked(row);
  ASSERT_OK_AND_ASSIGN(Dataset out, ReencodeForSchema(src, stored));
  ASSERT_EQ(out.num_rows(), 1);
  EXPECT_EQ(out.code(0, 0), 1);  // region=south
  EXPECT_EQ(out.code(0, 1), 1);  // tier=plus
  EXPECT_EQ(out.code(0, 2), 1);  // outcome=pos
}

TEST(ReencodeForSchema, NamesTheProblemColumn) {
  const Schema stored = DrillSchema();
  const Schema missing = MakeSchema({{"region", {"north"}}, {"outcome", {"neg"}}});
  Dataset no_tier(missing);
  const Status st = ReencodeForSchema(no_tier, stored).status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tier"), std::string::npos);

  const Schema unknown = MakeSchema({{"region", {"north", "mars"}},
                                     {"tier", {"basic"}},
                                     {"outcome", {"neg"}}});
  Dataset bad_label(unknown);
  const ValueCode row[3] = {1, 0, 0};  // region=mars: not in the dictionary
  bad_label.AppendRowUnchecked(row);
  const Status st2 = ReencodeForSchema(bad_label, stored).status();
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.message().find("mars"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live compaction vs. concurrent serving
// ---------------------------------------------------------------------------

TEST(Ingester, CompactionBumpsCacheEpochAndPreservesQueryResults) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_serving");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  for (uint64_t id = 1; id <= 6; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
  }
  ASSERT_OK_AND_ASSIGN(auto snapshot, ing->Snapshot());
  QueryEngine engine(snapshot.get());
  ing->set_cache(engine.cache());
  // The hook keeps only a raw pointer, as QueryEngine::SetStore does.
  const CubeStore* hooked = nullptr;
  std::string hooked_bytes;
  ing->set_publish_hook(
      [&engine, &hooked, &hooked_bytes](
          const std::shared_ptr<const CubeStore>& store,
          const std::string& cube_path) {
        EXPECT_FALSE(cube_path.empty());
        hooked = store.get();
        hooked_bytes = StoreBytes(*store);
        engine.SetStore(hooked);
        return Status::OK();
      });

  ASSERT_OK_AND_ASSIGN(auto before, engine.CompareAllPairs(0, 1, 1));
  const uint64_t epoch_before = engine.GetCacheStats().epoch;

  // Compacting publishes the same data under a new generation: the cache
  // epoch moves, the engine serves the new base, and the query mix is
  // identical before and after.
  ASSERT_OK(ing->Compact());
  EXPECT_GT(engine.GetCacheStats().epoch, epoch_before);
  ASSERT_OK_AND_ASSIGN(auto after, engine.CompareAllPairs(0, 1, 1));
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].value_a, after[i].value_a);
    EXPECT_EQ(before[i].value_b, after[i].value_b);
    EXPECT_EQ(before[i].cf_a, after[i].cf_a);
    EXPECT_EQ(before[i].cf_b, after[i].cf_b);
    EXPECT_EQ(before[i].top_interestingness, after[i].top_interestingness);
  }

  // With no snapshot held, later appends would recycle the hooked store;
  // the ingester keeps it unchanged until the next compaction.
  snapshot.reset();
  for (uint64_t id = 7; id <= 9; ++id) {
    ASSERT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
  }
  EXPECT_EQ(StoreBytes(*hooked), hooked_bytes);
  ASSERT_OK(ing->Close());
}

TEST(Ingester, PublishHookFailureIsCountedNotFatal) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_publish_fail");
  ASSERT_OK_AND_ASSIGN(
      auto ing,
      Ingester::Create(Env::Default(), dir, schema, DrillOptions()));
  ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());
  int calls = 0;
  ing->set_publish_hook(
      [&calls](const std::shared_ptr<const CubeStore>& store,
               const std::string& /*cube_path*/) {
        ++calls;
        EXPECT_NE(store, nullptr);
        return Status::Internal("subscriber rejected the store");
      });

  // The hook fails but the compaction itself commits: data stays served,
  // the failure lands in the stats instead of the return value.
  ASSERT_OK(ing->Compact());
  EXPECT_EQ(calls, 1);
  const IngestStats stats = ing->GetStats();
  EXPECT_EQ(stats.publish_failures, 1);
  EXPECT_NE(stats.last_publish_error.find("subscriber rejected"),
            std::string::npos);
  ASSERT_OK(ing->Compact());
  EXPECT_EQ(ing->GetStats().publish_failures, 2);
  ASSERT_OK(ing->Close());
}

// ---------------------------------------------------------------------------
// Crash drill
// ---------------------------------------------------------------------------

struct DrillOutcome {
  std::map<uint64_t, uint64_t> acked;  // seq -> batch id
  std::optional<uint64_t> inflight;    // the one batch that saw an I/O error
  bool power_lost = false;
};

constexpr uint64_t kDrillBatches = 9;

// Runs the append workload (9 deterministic batches, auto-compaction
// every 3) against `env` with `threads` writers. Thread-safe bookkeeping
// of which batches were acknowledged with which sequence numbers.
DrillOutcome RunDrillWorkload(FaultInjectingEnv* env, const std::string& dir,
                              const Schema& schema, int threads) {
  IngestOptions options = DrillOptions();
  options.compact_every_batches = 3;
  auto created = Ingester::Create(env, dir, schema, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Ingester> ing = created.MoveValue();

  DrillOutcome outcome;
  std::mutex mu;
  std::atomic<uint64_t> next_id{1};
  auto writer = [&]() {
    for (;;) {
      const uint64_t id = next_id.fetch_add(1);
      if (id > kDrillBatches) return;
      auto appended = ing->AppendBatch(DrillBatch(schema, id));
      std::lock_guard<std::mutex> lock(mu);
      if (appended.ok()) {
        outcome.acked[appended.value()] = id;
        continue;
      }
      // Exactly one append observes the injected I/O error (the latched
      // ingester serializes appends); it alone may have reached the WAL.
      if (appended.status().code() == StatusCode::kIOError) {
        EXPECT_FALSE(outcome.inflight.has_value())
            << "two batches saw I/O errors: " << *outcome.inflight << " and "
            << id;
        outcome.inflight = id;
      } else {
        EXPECT_EQ(appended.status().code(), StatusCode::kFailedPrecondition)
            << appended.status().ToString();
      }
      return;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(writer);
  for (std::thread& t : pool) t.join();
  outcome.power_lost = env->PowerLost();
  if (!outcome.power_lost) {
    const Status st = ing->Close();
    EXPECT_TRUE(st.ok() || !st.ok());  // close errors are legal post-fault
  }
  return outcome;
}

// Recovery invariant checked at every injection point: reopening with a
// healthy filesystem yields exactly the acknowledged batches — plus at
// most the single in-flight one — and the recovered cube store is byte
// identical to a clean one-shot build over those batches.
void VerifyRecovery(const std::string& dir, const Schema& schema,
                    const DrillOutcome& outcome) {
  IngestOptions options = DrillOptions();
  auto reopened = Ingester::Open(Env::Default(), dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Ingester> ing = reopened.MoveValue();

  const IngestStats stats = ing->GetStats();
  const uint64_t recovered = stats.next_seq - 1;
  const uint64_t acked = outcome.acked.size();
  ASSERT_GE(recovered, acked) << "an acknowledged batch was lost";
  ASSERT_LE(recovered, acked + 1) << "an unacknowledged batch was invented";

  std::vector<uint64_t> expected_ids;
  for (const auto& [seq, id] : outcome.acked) expected_ids.push_back(id);
  if (recovered == acked + 1) {
    ASSERT_TRUE(outcome.inflight.has_value())
        << "recovered one extra batch but no append saw an I/O error";
    expected_ids.push_back(*outcome.inflight);
  }
  auto snapshot = ing->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(StoreBytes(**snapshot),
            CleanBuildBytes(schema, expected_ids, options.cube))
      << "recovered counts diverge from the clean batch build";
  ASSERT_OK(ing->Close());
}

// Ops ticked during the append phase of a fault-free golden run; the
// sweep arms one injection at every occurrence of every interesting op.
struct GoldenCounts {
  int64_t before[kNumFaultOps] = {};
  int64_t after[kNumFaultOps] = {};
};

GoldenCounts GoldenRun(const std::string& dir, const Schema& schema) {
  GoldenCounts golden;
  FaultInjectingEnv env;  // unarmed: pure pass-through with counters
  IngestOptions options = DrillOptions();
  options.compact_every_batches = 3;
  auto created = Ingester::Create(&env, dir, schema, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  for (int i = 0; i < kNumFaultOps; ++i) {
    golden.before[i] = env.OpCount(static_cast<FaultOp>(i));
  }
  std::unique_ptr<Ingester> ing = created.MoveValue();
  for (uint64_t id = 1; id <= kDrillBatches; ++id) {
    EXPECT_OK(ing->AppendBatch(DrillBatch(schema, id)).status());
  }
  EXPECT_OK(ing->Close());
  for (int i = 0; i < kNumFaultOps; ++i) {
    golden.after[i] = env.OpCount(static_cast<FaultOp>(i));
  }
  return golden;
}

void RunDrillCase(const FaultPlan& plan, int threads, const Schema& schema) {
  SCOPED_TRACE("repro: " + plan.ToString() + " threads=" +
               std::to_string(threads));
  const std::string dir = FreshDir("ingest_drill");
  FaultInjectingEnv env;
  env.ArmPlan(plan);
  const DrillOutcome outcome = RunDrillWorkload(&env, dir, schema, threads);
  VerifyRecovery(dir, schema, outcome);
}

TEST(CrashDrill, EveryInjectionPointRecoversSingleThread) {
  const Schema schema = DrillSchema();
  const GoldenCounts golden = GoldenRun(FreshDir("ingest_golden"), schema);

  // writes tear (mid-append / mid-compaction); sync and rename faults hit
  // the durability points (pre-seal, manifest commit); delete faults hit
  // the post-commit GC.
  const FaultOp kOps[] = {FaultOp::kWrite, FaultOp::kSync, FaultOp::kRename,
                          FaultOp::kDelete};
  const CorruptionMode kModes[] = {CorruptionMode::kTornWrite,
                                   CorruptionMode::kBitFlip};
  int cases = 0;
  for (const FaultOp op : kOps) {
    const int i = static_cast<int>(op);
    const int64_t span = golden.after[i] - golden.before[i];
    ASSERT_GT(span, 0) << FaultOpName(op)
                       << " never happens during the append phase";
    for (const CorruptionMode mode : kModes) {
      for (int64_t k = 1; k <= span; ++k) {
        FaultPlan plan;
        plan.op = op;
        plan.nth = golden.before[i] + k;
        plan.mode = mode;
        plan.seed = 1009 * static_cast<uint64_t>(k) + 17 * i;
        plan.power_cut = true;
        RunDrillCase(plan, /*threads=*/1, schema);
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 50);  // the sweep really covered the op space
}

TEST(CrashDrill, InjectionPointsRecoverUnderConcurrentWriters) {
  const Schema schema = DrillSchema();
  const GoldenCounts golden = GoldenRun(FreshDir("ingest_golden_mt"), schema);
  const FaultOp kOps[] = {FaultOp::kWrite, FaultOp::kSync, FaultOp::kRename};
  for (const int threads : {2, 8}) {
    for (const FaultOp op : kOps) {
      const int i = static_cast<int>(op);
      const int64_t span = golden.after[i] - golden.before[i];
      ASSERT_GT(span, 0);
      // Strided sweep: concurrency changes nothing about the op sequence
      // (appends are serialized), so spot checks across the span suffice.
      const int64_t stride = span / 4 > 0 ? span / 4 : 1;
      int64_t k = 1;
      for (int step = 0; step < 4 && k <= span; ++step, k += stride) {
        FaultPlan plan;
        plan.op = op;
        plan.nth = golden.before[i] + k;
        plan.mode = (step % 2 == 0) ? CorruptionMode::kTornWrite
                                    : CorruptionMode::kBitFlip;
        plan.seed = 7919 * static_cast<uint64_t>(k) + i;
        plan.power_cut = true;
        RunDrillCase(plan, threads, schema);
      }
    }
  }
}

TEST(CrashDrill, LatchedIngesterRefusesFurtherAppends) {
  const Schema schema = DrillSchema();
  const std::string dir = FreshDir("ingest_latch");
  FaultInjectingEnv env;
  IngestOptions options = DrillOptions();
  auto created = Ingester::Create(&env, dir, schema, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Ingester> ing = created.MoveValue();
  ASSERT_OK(ing->AppendBatch(DrillBatch(schema, 1)).status());

  FaultPlan plan;
  plan.op = FaultOp::kWrite;
  plan.nth = env.OpCount(FaultOp::kWrite) + 1;
  plan.mode = CorruptionMode::kTornWrite;
  plan.seed = 3;
  plan.power_cut = false;  // disk heals, but the ingester must stay down
  env.ArmPlan(plan);
  EXPECT_EQ(ing->AppendBatch(DrillBatch(schema, 2)).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ing->AppendBatch(DrillBatch(schema, 3)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ing->Compact().code(), StatusCode::kFailedPrecondition);

  // Reopen is the documented way back: batch 1 must be there.
  VerifyRecovery(dir, schema,
                 DrillOutcome{{{1, 1}}, std::optional<uint64_t>(2), false});
}

}  // namespace
}  // namespace opmap
