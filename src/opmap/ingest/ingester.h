#ifndef OPMAP_INGEST_INGESTER_H_
#define OPMAP_INGEST_INGESTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "opmap/common/io.h"
#include "opmap/common/status.h"
#include "opmap/cube/cube_store.h"
#include "opmap/data/dataset.h"
#include "opmap/ingest/wal.h"

namespace opmap {

class QueryCache;

/// Streaming-ingestion configuration.
struct IngestOptions {
  /// WAL durability policy (--fsync=always|seal).
  WalOptions wal;
  /// Compact automatically after this many acknowledged batches
  /// (0 = only on explicit Compact()).
  int64_t compact_every_batches = 0;
  /// Cube materialization options (kernel, threads, pair cubes, tiles) —
  /// used for the initial build, every appended batch and every recovery
  /// replay, so all paths count identically.
  CubeStoreOptions cube;
};

/// Point-in-time ingestion counters (see also the process-wide wal.* /
/// ingest.* / compact.* metrics).
struct IngestStats {
  /// Sequence number the next acknowledged batch will get.
  uint64_t next_seq = 0;
  /// Highest sequence number folded into the on-disk cube container.
  uint64_t last_applied_seq = 0;
  /// Current cube container generation (cubes-NNNNNN.opmc).
  uint64_t cube_generation = 0;
  int64_t batches_appended = 0;
  int64_t rows_appended = 0;
  int64_t compactions = 0;
  int64_t segments_sealed = 0;
  /// Records replayed from the WAL by the last Open.
  int64_t replayed_records = 0;
  int64_t replayed_rows = 0;
  /// True when the last Open truncated a torn WAL tail.
  bool tail_truncated = false;
  int64_t truncated_bytes = 0;
  /// Publish-hook invocations that returned non-OK (the compaction itself
  /// still succeeded); last_publish_error keeps the most recent one.
  int64_t publish_failures = 0;
  std::string last_publish_error;
};

/// Crash-safe streaming ingestion into a cube directory:
///
///   DIR/MANIFEST            atomic commit point (cube generation,
///                           last-applied seq, first live WAL segment)
///   DIR/cubes-NNNNNN.opmc   v3 cube container (the compacted base)
///   DIR/wal-NNNNNN.{open,log}  WAL segments holding acknowledged batches
///                              not yet folded into the container
///
/// Every acknowledged AppendBatch is assigned a sequence number, framed
/// into the WAL (fsynced per WalOptions) and only then counted and
/// published — so an OK return means the rows survive a crash and are
/// visible to every later Snapshot(). Compact() writes the published store
/// to a fresh v3 container, commits it by atomically replacing MANIFEST,
/// garbage-collects the folded WAL segments, and bumps the attached
/// QueryCache's epoch so live sessions drop stale results. Open() recovers:
/// it loads the manifest's container, replays live WAL segments onto it
/// (tolerating a torn tail on the open segment), and skips any frame with
/// seq <= last_applied_seq — replay is idempotent, each acknowledged batch
/// is counted exactly once no matter where a crash interrupted a previous
/// compaction.
///
/// Because cube cells are additive, the published store always equals one
/// CubeBuilder pass over the base rows plus every acknowledged batch, bit
/// for bit, for any batching.
///
/// Thread-safety: any method may be called from any thread. AppendBatch,
/// Compact, Close and GetStats take the writer mutex, which is held across
/// WAL I/O (fsync included), batch counting and compaction. Snapshot()
/// never takes it: it copies the published pointer under a separate
/// publish mutex held for that copy alone, so a reader never waits for an
/// append, a merge or a compaction.
///
/// Publishing is copy-on-write. Each append counts its batch into a store
/// of its own, folds that into a writer-private copy of the published
/// store and swaps the copy in before acknowledging. The copy is the store
/// published one append earlier, caught up with the batch it missed, when
/// no reader still holds it (two AddCounts); otherwise a fresh Clone().
/// A held snapshot therefore never changes, and pins one store copy until
/// it is dropped.
class Ingester {
 public:
  /// Subscriber to compactions (see set_publish_hook).
  using PublishHook =
      std::function<Status(const std::shared_ptr<const CubeStore>& store,
                           const std::string& cube_path)>;

  /// Initializes a fresh ingest directory (created if missing): an empty
  /// generation-1 container over `schema` plus an empty WAL. Fails if the
  /// directory already holds a MANIFEST.
  static Result<std::unique_ptr<Ingester>> Create(Env* env,
                                                  const std::string& dir,
                                                  const Schema& schema,
                                                  const IngestOptions& options);

  /// Recovers an existing ingest directory (see class comment).
  static Result<std::unique_ptr<Ingester>> Open(Env* env,
                                                const std::string& dir,
                                                const IngestOptions& options);

  /// Create when no MANIFEST exists, Open otherwise.
  static Result<std::unique_ptr<Ingester>> OpenOrCreate(
      Env* env, const std::string& dir, const Schema& schema,
      const IngestOptions& options);

  /// Appends one batch of rows: WAL first (durable per the fsync policy),
  /// then counted and published. Returns the batch's sequence number on
  /// acknowledgment; every Snapshot() that starts after the return sees
  /// the batch. `batch` must match the ingest schema. After any I/O error
  /// the ingester latches failed (kFailedPrecondition from then on) —
  /// reopen the directory to recover; nothing acknowledged is lost.
  Result<uint64_t> AppendBatch(const Dataset& batch);

  /// Writes the published store to a fresh v3 container, commits, GCs
  /// folded WAL segments, bumps the attached cache epoch. Readers keep
  /// their snapshots; the published store does not change.
  Status Compact();

  /// Immutable store holding the base plus every batch acknowledged
  /// before this call. A pointer copy: it never waits for an append, a
  /// merge or a compaction, and returns the same store until the next
  /// append publishes. The store stays valid and unchanged for as long as
  /// the caller holds the pointer, across later appends and compactions;
  /// while held it pins one store copy, and the next append but one pays
  /// a Clone() instead of reusing it.
  Result<std::shared_ptr<const CubeStore>> Snapshot() const;

  /// Seals nothing, syncs and closes the open WAL segment. The directory
  /// recovers identically after Close() and after a crash — by design.
  Status Close();

  /// Cache whose epoch is bumped when a compaction publishes new data.
  void set_cache(QueryCache* cache) { cache_ = cache; }

  /// Hook invoked after a compaction commits, with the published store
  /// and the path of the container file it was committed to — enough to
  /// point an in-process QueryEngine::SetStore at the data or to send a
  /// RELOAD naming the file to a running opmapd. The ingester holds
  /// `store` itself until the next compaction calls the hook again, so
  /// `store.get()` stays valid and unchanged until then (the first append
  /// but one after each compaction pays a Clone() for it). Called with the
  /// writer mutex held: appends and compactions wait for it, Snapshot()
  /// does not. It may call Snapshot() but nothing else on this ingester.
  ///
  /// A non-OK return does NOT fail the compaction (the data is already
  /// durable and served); it is recorded in IngestStats (publish_failures
  /// + last_publish_error) and the compact.publish_failures counter so a
  /// silently-broken subscriber is visible instead of lost.
  void set_publish_hook(PublishHook hook) { publish_hook_ = std::move(hook); }

  const Schema& schema() const { return schema_; }
  /// Takes the writer mutex, so it waits for an append in progress.
  IngestStats GetStats() const;

 private:
  Ingester() = default;

  struct Manifest {
    uint64_t cube_generation = 1;
    uint64_t last_applied_seq = 0;
    uint64_t first_segment_id = 1;
  };

  /// A store the writer has published: the writer's own mutable handle,
  /// and a flag raised (release) once the last reader handle is dropped.
  struct Version {
    std::shared_ptr<CubeStore> store;
    std::shared_ptr<std::atomic<bool>> released;
  };

  std::string PathOf(const std::string& name) const {
    return dir_ + "/" + name;
  }
  std::string CubeFileName(uint64_t generation) const;

  Status WriteManifest(const Manifest& manifest);
  static Result<Manifest> ReadManifest(Env* env, const std::string& dir);

  /// Replays live WAL segments onto `base`; fills replay stats and returns
  /// the id the writer should open next.
  Result<uint64_t> ReplayWal(CubeStore* base);

  /// Best-effort removal of files an interrupted compaction left behind:
  /// segments below first_segment_id and containers above cube_generation.
  void CollectGarbage();

  /// Counts `rows` into batch_counts_ with the configured kernels, reusing
  /// its cubes from the batch before; appends and replay count this way.
  Status CountBatch(const Dataset& rows);

  /// Makes `store` the published store; the old one becomes previous_.
  void Publish(std::shared_ptr<CubeStore> store);
  /// Publishes current_ + batch_counts_ (see the class comment).
  Status PublishBatch();

  Status CompactLocked();
  Status AppendLocked(const Dataset& batch, uint64_t* seq);

  Env* env_ = nullptr;
  std::string dir_;
  IngestOptions options_;
  Schema schema_;

  // Writer state, guarded by write_mu_.
  mutable std::mutex write_mu_;
  Manifest manifest_;
  std::optional<WalWriter> wal_;
  uint64_t next_seq_ = 1;
  bool failed_ = false;
  IngestStats stats_;
  QueryCache* cache_ = nullptr;
  PublishHook publish_hook_;
  std::shared_ptr<const CubeStore> hooked_;  // last store passed to the hook
  Version current_;   // the store published_ points at
  Version previous_;  // published before current_; lacks only last_counts_
  std::optional<CubeBuilder> batch_counts_;  // the batch being appended
  std::optional<CubeBuilder> last_counts_;   // the batch appended before

  // Reader state: all Snapshot() touches.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const CubeStore> published_;
};

/// Re-encodes `src` (typically a freshly parsed CSV with its own
/// dictionaries) against `schema`: columns are matched by name, labels by
/// dictionary lookup, nulls pass through. Extra columns in `src` are
/// ignored; a missing column or an unknown label is an error naming it —
/// streaming ingest never grows the stored domains, so rule-space shape
/// stays fixed (discretize/re-create to change it). `src` must be
/// all-categorical.
Result<Dataset> ReencodeForSchema(const Dataset& src, const Schema& schema);

}  // namespace opmap

#endif  // OPMAP_INGEST_INGESTER_H_
