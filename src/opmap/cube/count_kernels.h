#ifndef OPMAP_CUBE_COUNT_KERNELS_H_
#define OPMAP_CUBE_COUNT_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "opmap/common/status.h"
#include "opmap/data/dataset.h"

namespace opmap {

/// Which counting kernel CubeBuilder::AddDataset runs (the CAR miner
/// reaches it through the cubes it builds). All kernels produce
/// bit-identical counts for every input and thread count; the choice is
/// purely a performance knob, and the reference kernel is retained so
/// tests can pin the faster tiers against the seed implementation.
enum class CountKernel {
  /// Cache-blocked kernel over packed value codes: rows are processed in
  /// tiles, and inside a tile each attribute pair streams exactly two
  /// packed columns into one pair buffer.
  kBlocked,
  /// The seed row-at-a-time scatter loop.
  kReference,
  /// The blocked kernel with vectorized inner loops (AVX2 on x86-64,
  /// NEON on aarch64; see opmap/common/simd.h). Columns or pairs the
  /// vector tier cannot handle (width, index range) fall back to the
  /// scalar blocked loops per column, and the whole pass falls back to
  /// kBlocked when the running CPU lacks the compiled-in vector ISA.
  kSimd,
  /// Resolve at run time: the OPMAP_KERNEL environment variable when it
  /// parses, else kSimd when the CPU supports it, else kBlocked. The
  /// default of CubeStoreOptions::kernel and CarMinerOptions::kernel.
  kAuto,
};

/// Parses a kernel name for the CLI `--kernel` flag and the OPMAP_KERNEL
/// environment variable: "reference", "blocked", or "simd" (kAuto is the
/// absence of a value, never spelled). Anything else is kInvalidArgument
/// with a message naming the bad value.
Result<CountKernel> ParseCountKernel(const std::string& text);

/// The kernel a counting pass should run: `requested` when not kAuto,
/// else the OPMAP_KERNEL environment variable when it parses (invalid
/// values are ignored, like OPMAP_THREADS), else kSimd when
/// SimdAvailable(), else kBlocked.
CountKernel ResolveCountKernel(CountKernel requested);

/// "blocked", "reference", "simd", or "auto".
const char* CountKernelName(CountKernel kernel);

/// Rows per tile when nothing overrides it (see ResolveBlockRows).
inline constexpr int64_t kDefaultBlockRows = 4096;

/// Parses a tile-size string for the CLI `--block-rows` flag and the
/// OPMAP_BLOCK_ROWS environment variable. Accepts integers in
/// [1, 1048576]; rejects zero, negatives, empty strings, trailing
/// garbage, and out-of-range values with kInvalidArgument.
Result<int64_t> ParseBlockRows(const std::string& text);

/// The tile size a blocked kernel should use: `requested` when positive,
/// else the OPMAP_BLOCK_ROWS environment variable when it parses (invalid
/// values are ignored, like OPMAP_THREADS), else kDefaultBlockRows.
int64_t ResolveBlockRows(int64_t requested);

/// One categorical column re-encoded to the narrowest unsigned integer
/// type that holds `domain + 1` codes: uint8_t up to domain 255, uint16_t
/// up to 65535, uint32_t beyond. kNullCode is remapped to the reserved
/// sentinel `domain`, so kernels test one unsigned compare instead of a
/// signed null check and the working set shrinks up to 4x.
class PackedColumn {
 public:
  /// An empty column (no rows); real columns come from Pack.
  PackedColumn() = default;

  /// Packs `src[0..n)` (codes in [0, domain) or kNullCode).
  static PackedColumn Pack(const ValueCode* src, int64_t n, int domain);

  int64_t num_rows() const { return num_rows_; }
  int width() const { return width_; }          ///< bytes per code: 1, 2, 4
  uint32_t sentinel() const { return sentinel_; }  ///< null code == domain

  const uint8_t* u8() const { return bytes_.data(); }
  const uint16_t* u16() const {
    return reinterpret_cast<const uint16_t*>(bytes_.data());
  }
  const uint32_t* u32() const {
    return reinterpret_cast<const uint32_t*>(bytes_.data());
  }

  /// Code at `r` widened back to uint32_t (sentinel() for null).
  uint32_t Get(int64_t r) const;

  /// Heap bytes held by the packed code array.
  int64_t MemoryUsageBytes() const {
    return static_cast<int64_t>(bytes_.capacity());
  }

 private:
  std::vector<uint8_t> bytes_;
  int64_t num_rows_ = 0;
  int width_ = 1;
  uint32_t sentinel_ = 0;
};

/// The packed re-encoding of a set of categorical columns plus the class
/// column, built once per AddDataset pass and then streamed by every tile
/// of the blocked kernels.
class PackedColumnSet {
 public:
  /// An empty set (no columns); real sets come from Build.
  PackedColumnSet() = default;

  /// Packs `attrs` (schema indices of categorical attributes) and the
  /// class column of every row of `dataset`.
  static PackedColumnSet Build(const Dataset& dataset,
                               const std::vector<int>& attrs);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  const PackedColumn& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  const PackedColumn& class_column() const { return class_column_; }

  /// Heap bytes of all packed columns — the scratch the memory-budget
  /// shard clamp must account for (see CubeBuilder::PlanShards).
  int64_t MemoryUsageBytes() const;

  /// Bytes Build() would allocate for `attrs` + class over `rows` rows,
  /// without building anything. Used to pre-check memory budgets.
  static int64_t ProjectedBytes(const Schema& schema,
                                const std::vector<int>& attrs, int64_t rows);

 private:
  std::vector<PackedColumn> columns_;
  PackedColumn class_column_;
  int64_t num_rows_ = 0;
};

/// Inputs of one blocked cube-counting pass over a row range. All
/// pointers are borrowed; `attr_ptrs[i]` is the (domain_i x num_classes)
/// count array of attribute slot i and `pair_ptrs` the packed upper
/// triangle of (domain_i x domain_j x num_classes) pair arrays, exactly
/// as CubeBuilder lays them out.
struct BlockedCountArgs {
  const PackedColumnSet* columns = nullptr;
  int num_classes = 0;
  bool build_pairs = true;
  const int* sizes = nullptr;  ///< domain per attribute slot
  int64_t block_rows = kDefaultBlockRows;
  int64_t* const* attr_ptrs = nullptr;
  int64_t* const* pair_ptrs = nullptr;
  int64_t* class_counts = nullptr;
  int64_t* num_records = nullptr;
  /// Run the vector tier where columns/pairs are eligible (CountKernel::
  /// kSimd). Ignored when the CPU lacks the compiled-in vector ISA.
  bool use_simd = false;
};

/// The cache-blocked cube-counting kernel: counts rows
/// [row_begin, row_end) of `args.columns` into the given buffers,
/// bit-identically to the reference row loop. Rows are processed in
/// tiles of `args.block_rows`; inside a tile, the fused `v * nc + y`
/// index of every attribute is computed once (updating the 2-D cube on
/// the way), then each pair (i, j) streams attribute i's packed codes and
/// attribute j's fused indices into the single (i, j) pair buffer.
void CountRangeBlocked(const BlockedCountArgs& args, int64_t row_begin,
                       int64_t row_end);

/// True when the blocked kernels can run for these shapes: every fused
/// index `domain * num_classes + class` must fit an int32_t. Callers fall
/// back to the reference kernel otherwise (results are identical either
/// way).
bool BlockedKernelSupported(const Schema& schema,
                            const std::vector<int>& attrs);

/// True when the vector tier can count this packed column: only uint8 and
/// uint16 codes have vector widening paths (uint32 columns — domains
/// above 65535 — run the scalar blocked loop, counted as a
/// kernel.simd_fallbacks event by callers).
bool SimdColumnEligible(const PackedColumn& col);

/// True when the vector tier can count the pair (i, j): the fused pair
/// index is computed in int32 lanes, so even the largest
/// `(domain_i + 1) * stride_j` intermediate must fit (the scalar pair
/// loop widens to int64 and has no such limit).
bool SimdPairEligible(int64_t domain_i, int64_t stride_j);

}  // namespace opmap

#endif  // OPMAP_CUBE_COUNT_KERNELS_H_
