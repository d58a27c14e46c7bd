#ifndef OPMAP_CUBE_CUBE_STORE_H_
#define OPMAP_CUBE_CUBE_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "opmap/common/parallel.h"
#include "opmap/common/status.h"
#include "opmap/cube/count_kernels.h"
#include "opmap/cube/rule_cube.h"
#include "opmap/data/dataset.h"

namespace opmap {

class BinaryReader;
class Env;
struct AlignedSection;

/// Options for cube materialization.
struct CubeStoreOptions {
  /// Attributes to include (schema indices, class excluded). Empty = every
  /// non-class categorical attribute.
  std::vector<int> attributes;
  /// Whether to materialize the 3-D (attribute, attribute, class) cubes.
  /// The 2-D (attribute, class) cubes are always built.
  bool build_pair_cubes = true;
  /// Upper bound on cube memory in bytes; materialization that would exceed
  /// it fails with kOutOfRange before allocating anything. 0 = unlimited.
  /// Parallel materialization allocates one private shard copy of the cube
  /// buffers per extra worker; the shard count is clamped so base + shard
  /// copies stay within this budget (see docs/PERFORMANCE.md).
  int64_t max_memory_bytes = 0;
  /// Worker count for AddDataset. Rows are split into per-worker shards,
  /// each counted into private buffers and merged by element-wise
  /// addition, so the store is bit-identical to a serial build for any
  /// thread count.
  ParallelOptions parallel;
  /// Counting kernel for AddDataset. All kernels count bit-identically;
  /// kReference is the seed row-at-a-time loop, retained for testing.
  /// kAuto resolves via ResolveCountKernel (OPMAP_KERNEL env, else SIMD
  /// when the CPU has it, else blocked). The blocked/SIMD kernels fall
  /// back to the reference kernel when their packed-column scratch would
  /// not fit `max_memory_bytes`, and SIMD falls back per column/pair
  /// when shapes disqualify it (see SimdColumnEligible/SimdPairEligible).
  CountKernel kernel = CountKernel::kAuto;
  /// Rows per tile for the blocked kernel. 0 = the OPMAP_BLOCK_ROWS
  /// environment variable when valid, else 4096 (kDefaultBlockRows).
  int64_t block_rows = 0;
};

/// How CubeStore::LoadFromFile maps v3 files. v1/v2 files always load
/// eagerly regardless of these options.
struct CubeLoadOptions {
  /// Map the file (Env::MapFile) and serve cube counts in place: the load
  /// returns in O(#cubes) after verifying only the header, schema, meta and
  /// cube index; each cube's payload is CRC-verified lazily on its first
  /// AttrCube/PairCube access. When false the whole file is read, verified
  /// and copied into owned cubes up front.
  bool use_mmap = true;
};

/// Serving-path observability: how much of a lazily-loaded store has
/// actually been touched. All zeros/false for eagerly loaded or built
/// stores.
struct MappingStats {
  /// True when the store serves cube counts from a lazy v3 mapping.
  bool mapped = false;
  /// True when the mapping is a real mmap (false: aligned heap fallback).
  bool is_mmap = false;
  /// Size of the mapped file.
  int64_t bytes_mapped = 0;
  /// Bytes of the mapping currently resident in memory, or -1 if unknown.
  int64_t bytes_resident = 0;
  int64_t cubes_total = 0;
  /// Cubes whose payloads have been CRC-verified (touched) so far.
  int64_t cubes_verified = 0;
};

/// The deployed system's cube inventory: one 2-D rule cube per attribute
/// and one 3-D rule cube per attribute pair, all with the class attribute
/// as the last dimension (paper Section III.B: "we store all 3-dimensional
/// rule cubes").
///
/// All post-mining analysis (OLAP exploration, GI mining, the comparator)
/// reads only this store, which is why comparison time is independent of
/// the original data size (paper Section V.C).
class CubeStore {
 public:
  // Out of line: the lazy-mapping state is an incomplete type here.
  ~CubeStore();
  CubeStore(CubeStore&&) noexcept;
  CubeStore& operator=(CubeStore&&) noexcept;

  /// The store's schema, shared with every cube (RuleCube reads names and
  /// labels through it).
  const Schema& schema() const { return *schema_; }

  /// Attributes included in the store (ascending schema indices).
  const std::vector<int>& attributes() const { return attributes_; }

  /// Records represented (rows with a non-null class).
  int64_t num_records() const { return num_records_; }

  /// The 2-D cube (attr, class). `attr` must be included in the store.
  Result<const RuleCube*> AttrCube(int attr) const;

  /// The 3-D cube over {a, b, class} with dimensions ordered
  /// (min(a,b), max(a,b), class). Both attributes must be included and
  /// pair cubes must have been built.
  Result<const RuleCube*> PairCube(int a, int b) const;

  /// True when the 3-D (attribute, attribute, class) cubes were built.
  bool has_pair_cubes() const { return has_pair_cubes_; }

  /// Overall class distribution (counts per class code).
  const std::vector<int64_t>& class_counts() const { return class_counts_; }

  /// Number of materialized cubes.
  int64_t NumCubes() const;

  /// Heap bytes held by all cubes. Cube views over a mapped file hold no
  /// heap counts, so a lazily loaded store reports only its bookkeeping —
  /// the count payloads stay in the (shared, evictable) page cache.
  int64_t MemoryUsageBytes() const;

  /// Serving-path observability for lazily loaded stores.
  MappingStats GetMappingStats() const;

  /// Deep copy with owned counts. Mapped (lazily loaded) stores are
  /// materialized: every cube payload is CRC-verified and copied to the
  /// heap, so the clone is independent of the source's file mapping and
  /// mutable (AddCounts). The streaming ingester clones the published
  /// store when a reader still holds the copy it would otherwise reuse.
  Result<CubeStore> Clone() const;

  /// Element-wise adds `delta`'s counts into this store (cube cells,
  /// class counts, record total). Because cube cells are additive, this is
  /// exactly the parallel builder's shard merge applied across time: a
  /// base store plus a delta built over later rows equals one batch build
  /// over all rows, bit for bit. Both stores must have the same schema
  /// shape (attributes, domains, pair-cube setting); this store must own
  /// its counts (build or Clone first — mapped views are immutable).
  Status AddCounts(const CubeStore& delta);

  /// On-disk format selector. v2 is the checksummed stream container; v3
  /// adds 64-byte-aligned raw count payloads plus a per-cube CRC index so
  /// files can be mapped and served zero-copy (docs/FORMATS.md).
  enum class SaveFormat { kV2, kV3Aligned };

  /// Binary persistence ("OPMC" format): the deployed system generates
  /// cubes offline (overnight) and reloads them for interactive use.
  /// `Save` defaults to the v2 stream container; `SaveToFile` defaults to
  /// v3 so files are mmap-servable. Readers accept v1 (seed format, no
  /// checksums), v2 and v3. SaveToFile is crash-safe: write-to-temp,
  /// fsync, atomic rename through `env` (nullptr = Env::Default()), so no
  /// failure mid-save corrupts an existing file.
  Status Save(std::ostream* out, SaveFormat format = SaveFormat::kV2) const;
  Status SaveToFile(const std::string& path, Env* env = nullptr,
                    SaveFormat format = SaveFormat::kV3Aligned) const;
  static Result<CubeStore> Load(std::istream* in);
  static Result<CubeStore> LoadFromBytes(const std::string& bytes);
  /// Loads a store. v3 files are mapped and served lazily per `options`;
  /// v1/v2 files are read and verified eagerly.
  static Result<CubeStore> LoadFromFile(const std::string& path,
                                        Env* env = nullptr,
                                        const CubeLoadOptions& options = {});

 private:
  friend class CubeBuilder;

  CubeStore();  // out of line: the lazy-mapping state is incomplete here

  // Validates `options` against `schema` and fills the store's layout:
  // schema, attributes, slots, zeroed class counts and the pair flag.
  static Status InitLayout(std::shared_ptr<const Schema> schema,
                           const CubeStoreOptions& options, CubeStore* out);

  // Calls fn(dims) for every cube of the layout in store order: the
  // attribute cubes, then the packed pair triangle. Stops at the first
  // error fn returns.
  template <typename Fn>
  Status ForEachCubeDims(Fn&& fn) const {
    std::vector<int> dims{0, schema_->class_index()};
    for (int a : attributes_) {
      dims[0] = a;
      OPMAP_RETURN_NOT_OK(fn(dims));
    }
    if (!has_pair_cubes_) return Status::OK();
    dims.insert(dims.begin(), 0);
    for (size_t i = 0; i < attributes_.size(); ++i) {
      for (size_t j = i + 1; j < attributes_.size(); ++j) {
        dims[0] = attributes_[i];
        dims[1] = attributes_[j];
        OPMAP_RETURN_NOT_OK(fn(dims));
      }
    }
    return Status::OK();
  }

  // Number of cubes the layout implies (before any cube exists).
  int64_t LayoutCubes() const {
    const auto m = static_cast<int64_t>(attributes_.size());
    return m + (has_pair_cubes_ ? m * (m - 1) / 2 : 0);
  }

  // Cells of the cube over schema attributes `dims`.
  int64_t CellsOf(const std::vector<int>& dims) const;

  // Creates every cube of the layout as a view into counts_, which must
  // hold the layout's cube counts back to back in store order.
  Status ViewCounts();

  // Zeroes counts_ for the whole layout and views every cube into it;
  // kOutOfRange, before allocating, when that needs more than `max_bytes`
  // (0 = unlimited).
  Status AllocateCubes(int64_t max_bytes = 0);

  // Version-specific load paths (cube_io.cc). ReadMeta fills the layout
  // and the record and class counts; it creates no cube.
  static Status ReadMeta(BinaryReader* r, Schema schema, CubeStore* out);
  static Result<CubeStore> LoadV1(BinaryReader* r, std::istream* in);
  static Result<CubeStore> LoadV2(const std::string& bytes);
  static Result<CubeStore> LoadV3Eager(const std::string& bytes);
  static Result<CubeStore> LoadV3Mapped(const std::string& path, Env* env);

  // One parsed v3 cube-index entry, in store order (attribute cubes first,
  // then the packed pair-cube triangle).
  struct V3CubeEntry {
    uint64_t abs_offset = 0;  // absolute file offset of the count array
    uint64_t cells = 0;
    uint32_t crc = 0;
  };
  // Parses the schema/meta/cube_index sections of a v3 container (already
  // CRC-verified by the caller) into a store whose cubes are views over the
  // payloads in `data`, plus one index entry per cube; cube_data payload
  // bytes are not touched.
  static Status ParseV3Views(const char* data,
                             const std::vector<AlignedSection>& sections,
                             CubeStore* store,
                             std::vector<V3CubeEntry>* entries);

  // First-touch payload verification for lazily loaded stores: CRC-checks
  // cube `index` (attr cubes first, then pair cubes) once, caching the
  // verdict. No-op for eager stores. Thread-safe.
  Status VerifyMappedCube(int64_t index) const;

  int AttrSlot(int attr) const {
    return attr >= 0 && attr < static_cast<int>(attr_slot_.size())
               ? attr_slot_[static_cast<size_t>(attr)]
               : -1;
  }

  std::shared_ptr<const Schema> schema_;  // shared with every cube
  std::vector<int> attributes_;
  std::vector<int> attr_slot_;  // schema attr -> position in attributes_
  int64_t num_records_ = 0;
  std::vector<int64_t> class_counts_;
  bool has_pair_cubes_ = false;
  // Store order: one attribute cube per included attribute, then the
  // packed upper triangle of pair cubes. Each cube is a view: into
  // counts_, or into the file mapping of a lazily loaded store.
  std::vector<RuleCube> cubes_;
  // Every cube's counts back to back in store order, in one allocation;
  // empty for a lazily loaded store.
  std::vector<int64_t> counts_;

  // Lazy v3 serving state (cube_io.cc); null for built/eager stores.
  // Mutable: first-touch verification caches its verdict through const
  // accessors. Makes CubeStore move-only, which every call site already
  // respects.
  struct Mapped;
  mutable std::unique_ptr<Mapped> mapped_;
};

/// Builds a CubeStore in one streaming pass. Rows can come from a
/// materialized Dataset or be pushed one at a time (used for the
/// record-count scale-up benchmark where 8 M rows never exist in memory at
/// once).
class CubeBuilder {
 public:
  /// Validates options against the schema and allocates the cubes.
  static Result<CubeBuilder> Make(Schema schema, CubeStoreOptions options);

  /// Adds one record. `row` holds one code per schema attribute. Rows with
  /// a null class are ignored; null values skip the affected cubes only.
  void AddRow(const ValueCode* row);

  /// Adds every row of `dataset` (must match the builder's schema shape).
  /// Iterates the dataset's columns directly (no per-row copy) and shards
  /// the row range across the thread pool per the builder's
  /// ParallelOptions; counts are merged exactly, so the result does not
  /// depend on the thread count.
  Status AddDataset(const Dataset& dataset);

  /// The counts added so far, readable without consuming the builder.
  const CubeStore& store() const { return store_; }

  /// Zeroes every count, keeping the allocated cubes, so one builder can
  /// count batch after batch without re-allocating the store each time.
  void Reset();

  /// Finalizes and returns the store. The builder is consumed.
  CubeStore Finish() &&;

  /// Convenience: build a store over `dataset` in one call.
  static Result<CubeStore> FromDataset(const Dataset& dataset,
                                       CubeStoreOptions options = {});

 private:
  CubeBuilder() = default;

  // Columns of the dataset being counted, resolved once per AddDataset.
  // `packed` is set when the blocked kernel runs this pass: the packed
  // re-encoding built once per AddDataset and streamed by every shard.
  struct ColumnView {
    const ValueCode* class_col = nullptr;
    std::vector<const ValueCode*> cols;  // one per included attribute slot
    const PackedColumnSet* packed = nullptr;
    bool use_simd = false;  // vector tier for eligible columns/pairs
  };

  // Counts rows [row_begin, row_end) of `view` into the given buffers.
  // `attr_ptrs`/`pair_ptrs` are per-cube count arrays (the store's own or
  // a shard's private copy); `class_counts` has one slot per class.
  void CountRange(const ColumnView& view, int64_t row_begin, int64_t row_end,
                  int64_t* const* attr_ptrs, int64_t* const* pair_ptrs,
                  int64_t* class_counts, int64_t* num_records) const;

  // Shards AddDataset would use for `num_rows` rows: the configured thread
  // count clamped by the row count and the remaining memory budget.
  // `reserved_bytes` is scratch already charged against the budget this
  // pass (packed columns); each extra shard costs one private copy of the
  // cube buffers plus `per_shard_bytes` of tile scratch.
  int PlanShards(int64_t num_rows, int64_t reserved_bytes,
                 int64_t per_shard_bytes) const;

  // Tile scratch one blocked CountRange call allocates: the widened class
  // codes plus one fused-index row per attribute, plus (SIMD tier) one
  // compacted-index row.
  int64_t TileScratchBytes(bool simd) const;

  CubeStore store_;
  // Hot-path acceleration structures.
  int class_index_ = -1;
  int num_classes_ = 0;
  std::vector<int64_t*> attr_raw_;   // per included attribute
  std::vector<int64_t*> pair_raw_;   // packed upper triangle
  std::vector<int> pair_base_;       // slot a -> first pair index of (a, *)
  std::vector<int> sizes_;           // domain per included attribute
  // Parallel materialization state.
  ParallelOptions parallel_;
  int64_t max_memory_bytes_ = 0;
  CountKernel kernel_ = CountKernel::kBlocked;
  int64_t block_rows_ = kDefaultBlockRows;
};

}  // namespace opmap

#endif  // OPMAP_CUBE_CUBE_STORE_H_
