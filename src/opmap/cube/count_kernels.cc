#include "opmap/cube/count_kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "opmap/common/simd.h"
#include "opmap/cube/count_kernels_simd.h"

namespace opmap {

namespace {

constexpr int64_t kMaxBlockRows = 1 << 20;

// Count arrays up to this many cells get private per-stream accumulators
// in HistogramIdx (below); larger arrays share the output buffer, where
// same-cell collisions are rare anyway.
constexpr int64_t kHistMultiAccCells = 1024;

// Scalar multi-accumulator histogram over a dense (compacted) index
// stream — the back half of every SIMD counting path. Four interleaved
// streams break the load-add-store dependency chain of a single `++`
// loop, and for small count arrays each stream gets a private
// accumulator so two streams hitting the same cell never collide: the
// gather-free answer to vector scatter-with-conflict-detection.
// Bit-identical to a plain loop because int64 addition commutes.
void HistogramIdx(const int32_t* idx, int64_t cnt, int64_t* counts,
                  int64_t cells) {
  const int64_t q = cnt / 4;
  const int32_t* p0 = idx;
  const int32_t* p1 = idx + q;
  const int32_t* p2 = idx + 2 * q;
  const int32_t* p3 = idx + 3 * q;
  if (cells <= kHistMultiAccCells && cnt >= cells * 8) {
    thread_local std::vector<int64_t> scratch;
    scratch.assign(static_cast<size_t>(4 * cells), 0);
    int64_t* a0 = scratch.data();
    int64_t* a1 = a0 + cells;
    int64_t* a2 = a0 + 2 * cells;
    int64_t* a3 = a0 + 3 * cells;
    for (int64_t k = 0; k < q; ++k) {
      ++a0[p0[k]];
      ++a1[p1[k]];
      ++a2[p2[k]];
      ++a3[p3[k]];
    }
    for (int64_t k = 4 * q; k < cnt; ++k) ++a0[idx[k]];
    for (int64_t c = 0; c < cells; ++c) {
      counts[c] += a0[c] + a1[c] + a2[c] + a3[c];
    }
  } else {
    for (int64_t k = 0; k < q; ++k) {
      ++counts[p0[k]];
      ++counts[p1[k]];
      ++counts[p2[k]];
      ++counts[p3[k]];
    }
    for (int64_t k = 4 * q; k < cnt; ++k) ++counts[idx[k]];
  }
}

// Width-dispatch wrappers over the vector kernel table. Callers must
// have checked SimdColumnEligible (width <= 2) first.
int64_t SimdFuseStore(const internal::SimdKernels& sk, const PackedColumn& col,
                      int64_t offset, const int32_t* base, int32_t mult,
                      int64_t len, int32_t* fused, int32_t* idx) {
  if (col.width() == 1) {
    return sk.fuse_store_u8(col.u8() + offset, col.sentinel(), base, mult, len,
                            fused, idx);
  }
  return sk.fuse_store_u16(col.u16() + offset, col.sentinel(), base, mult, len,
                           fused, idx);
}

int64_t SimdFuseCompact(const internal::SimdKernels& sk,
                        const PackedColumn& col, int64_t offset,
                        const int32_t* base, int32_t mult, int64_t len,
                        int32_t* idx) {
  if (col.width() == 1) {
    return sk.fuse_compact_u8(col.u8() + offset, col.sentinel(), base, mult,
                              len, nullptr, idx);
  }
  return sk.fuse_compact_u16(col.u16() + offset, col.sentinel(), base, mult,
                             len, nullptr, idx);
}

// Packs one code: kNullCode becomes the sentinel (== domain), everything
// else is already in [0, domain).
inline uint32_t PackCode(ValueCode v, uint32_t sentinel) {
  return v == kNullCode ? sentinel : static_cast<uint32_t>(v);
}

int WidthFor(int domain) {
  // domain + 1 distinct codes: the dictionary plus the null sentinel.
  const int64_t codes = static_cast<int64_t>(domain) + 1;
  if (codes <= 256) return 1;
  if (codes <= 65536) return 2;
  return 4;
}

template <typename T>
void PackInto(const ValueCode* src, int64_t n, uint32_t sentinel,
              uint8_t* dst_bytes) {
  T* dst = reinterpret_cast<T*>(dst_bytes);
  for (int64_t r = 0; r < n; ++r) {
    dst[r] = static_cast<T>(PackCode(src[r], sentinel));
  }
}

// Widens the class column of a tile into int32 (-1 for null): every
// attribute's fuse pass reads this buffer instead of re-decoding the
// class column per attribute.
template <typename T>
void WidenClassTile(const T* cls, T sentinel, int64_t len, int32_t* ybuf,
                    int64_t* class_counts, int64_t* num_records) {
  int64_t records = 0;
  for (int64_t k = 0; k < len; ++k) {
    const T y = cls[k];
    if (y == sentinel) {
      ybuf[k] = -1;
    } else {
      ybuf[k] = static_cast<int32_t>(y);
      ++class_counts[y];
      ++records;
    }
  }
  *num_records += records;
}

// Computes the fused `v * nc + y` index of one attribute for a tile
// (-1 when either code is null) and applies the attribute's 2-D cube
// increments on the way: the fused index IS the 2-D cube cell.
template <typename T>
void FuseTile(const T* col, T sentinel, const int32_t* ybuf, int32_t nc,
              int64_t len, int32_t* fused, int64_t* attr_counts) {
  for (int64_t k = 0; k < len; ++k) {
    const T v = col[k];
    const int32_t y = ybuf[k];
    if (v == sentinel || y < 0) {
      fused[k] = -1;
    } else {
      const int32_t f = static_cast<int32_t>(v) * nc + y;
      fused[k] = f;
      ++attr_counts[f];
    }
  }
}

// The pair inner loop: streams attribute i's packed codes and attribute
// j's fused indices, writing one pair buffer. Cell (vi, vj, y) lives at
// vi * (domain_j * nc) + (vj * nc + y) == vi * stride_j + fused_j.
template <typename T>
void PairTile(const T* col_i, T sentinel, const int32_t* fused_j,
              int64_t stride_j, int64_t len, int64_t* buf) {
  for (int64_t k = 0; k < len; ++k) {
    const T v = col_i[k];
    const int32_t f = fused_j[k];
    if (v == sentinel || f < 0) continue;
    ++buf[static_cast<int64_t>(v) * stride_j + f];
  }
}

// Dispatches fn<T>(typed pointer, typed sentinel) on the column's width.
template <typename Fn>
void WithTyped(const PackedColumn& col, int64_t offset, Fn&& fn) {
  switch (col.width()) {
    case 1:
      fn(col.u8() + offset, static_cast<uint8_t>(col.sentinel()));
      break;
    case 2:
      fn(col.u16() + offset, static_cast<uint16_t>(col.sentinel()));
      break;
    default:
      fn(col.u32() + offset, col.sentinel());
      break;
  }
}

}  // namespace

Result<CountKernel> ParseCountKernel(const std::string& text) {
  if (text == "reference") return CountKernel::kReference;
  if (text == "blocked") return CountKernel::kBlocked;
  if (text == "simd") return CountKernel::kSimd;
  return Status::InvalidArgument("kernel value '" + text +
                                 "' is not one of reference|blocked|simd");
}

CountKernel ResolveCountKernel(CountKernel requested) {
  if (requested != CountKernel::kAuto) return requested;
  const char* env = std::getenv("OPMAP_KERNEL");
  if (env != nullptr) {
    Result<CountKernel> parsed = ParseCountKernel(env);
    // Invalid environment values are ignored (the library stays usable;
    // the CLI validates its own flag loudly), like OPMAP_THREADS.
    if (parsed.ok()) return parsed.value();
  }
  return SimdAvailable() ? CountKernel::kSimd : CountKernel::kBlocked;
}

const char* CountKernelName(CountKernel kernel) {
  switch (kernel) {
    case CountKernel::kBlocked:
      return "blocked";
    case CountKernel::kReference:
      return "reference";
    case CountKernel::kSimd:
      return "simd";
    default:
      return "auto";
  }
}

bool SimdColumnEligible(const PackedColumn& col) { return col.width() <= 2; }

bool SimdPairEligible(int64_t domain_i, int64_t stride_j) {
  // (domain_i + 1) * stride_j must fit int32: the +1 keeps even a
  // sentinel lane's wrapped product in range. Division form avoids int64
  // overflow for absurd shapes.
  if (domain_i < 0 || stride_j <= 0) return false;
  return domain_i + 1 <= std::numeric_limits<int32_t>::max() / stride_j;
}

Result<int64_t> ParseBlockRows(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("block-rows value is empty");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("block-rows value '" + text +
                                     "' is not a positive integer");
    }
  }
  if (text.size() > 7) {
    return Status::InvalidArgument("block-rows value '" + text +
                                   "' is out of range [1, 1048576]");
  }
  const int64_t value = std::strtoll(text.c_str(), nullptr, 10);
  if (value < 1 || value > kMaxBlockRows) {
    return Status::InvalidArgument("block-rows value '" + text +
                                   "' is out of range [1, 1048576]");
  }
  return value;
}

int64_t ResolveBlockRows(int64_t requested) {
  if (requested > 0) return std::min<int64_t>(requested, kMaxBlockRows);
  const char* env = std::getenv("OPMAP_BLOCK_ROWS");
  if (env != nullptr) {
    Result<int64_t> parsed = ParseBlockRows(env);
    // Invalid environment values are ignored (the library stays usable;
    // the CLI validates its own flag loudly), like OPMAP_THREADS.
    if (parsed.ok()) return parsed.value();
  }
  return kDefaultBlockRows;
}

PackedColumn PackedColumn::Pack(const ValueCode* src, int64_t n, int domain) {
  PackedColumn col;
  col.num_rows_ = n;
  col.width_ = WidthFor(domain);
  col.sentinel_ = static_cast<uint32_t>(domain);
  col.bytes_.resize(static_cast<size_t>(n) * static_cast<size_t>(col.width_));
  switch (col.width_) {
    case 1:
      PackInto<uint8_t>(src, n, col.sentinel_, col.bytes_.data());
      break;
    case 2:
      PackInto<uint16_t>(src, n, col.sentinel_, col.bytes_.data());
      break;
    default:
      PackInto<uint32_t>(src, n, col.sentinel_, col.bytes_.data());
      break;
  }
  return col;
}

uint32_t PackedColumn::Get(int64_t r) const {
  switch (width_) {
    case 1:
      return u8()[r];
    case 2:
      return u16()[r];
    default:
      return u32()[r];
  }
}

PackedColumnSet PackedColumnSet::Build(const Dataset& dataset,
                                       const std::vector<int>& attrs) {
  PackedColumnSet set;
  const int64_t n = dataset.num_rows();
  set.num_rows_ = n;
  set.columns_.reserve(attrs.size());
  for (int a : attrs) {
    set.columns_.push_back(
        PackedColumn::Pack(dataset.categorical_column(a).data(), n,
                           dataset.schema().attribute(a).domain()));
  }
  const int cls = dataset.schema().class_index();
  set.class_column_ =
      PackedColumn::Pack(dataset.categorical_column(cls).data(), n,
                         dataset.schema().num_classes());
  return set;
}

int64_t PackedColumnSet::MemoryUsageBytes() const {
  int64_t bytes = class_column_.MemoryUsageBytes();
  for (const PackedColumn& c : columns_) bytes += c.MemoryUsageBytes();
  return bytes;
}

int64_t PackedColumnSet::ProjectedBytes(const Schema& schema,
                                        const std::vector<int>& attrs,
                                        int64_t rows) {
  int64_t bytes = rows * WidthFor(schema.num_classes());
  for (int a : attrs) {
    bytes += rows * WidthFor(schema.attribute(a).domain());
  }
  return bytes;
}

bool BlockedKernelSupported(const Schema& schema,
                            const std::vector<int>& attrs) {
  const int64_t nc = schema.num_classes();
  for (int a : attrs) {
    const int64_t fused_max =
        static_cast<int64_t>(schema.attribute(a).domain()) * nc + nc;
    if (fused_max > std::numeric_limits<int32_t>::max()) return false;
  }
  return true;
}

void CountRangeBlocked(const BlockedCountArgs& args, int64_t row_begin,
                       int64_t row_end) {
  const PackedColumnSet& cols = *args.columns;
  const int m = cols.num_columns();
  const int32_t nc = args.num_classes;
  const int64_t block = std::max<int64_t>(args.block_rows, 1);
  const internal::SimdKernels* sk =
      args.use_simd ? internal::GetSimdKernels() : nullptr;

  // Per-tile scratch: the widened class codes and one fused-index row per
  // attribute, plus (SIMD only) one compacted-index buffer. Sized once;
  // tiles reuse it.
  std::vector<int32_t> ybuf(static_cast<size_t>(block));
  std::vector<int32_t> fused(static_cast<size_t>(m) *
                             static_cast<size_t>(block));
  std::vector<int32_t> idx;
  if (sk != nullptr) {
    idx.resize(static_cast<size_t>(block + internal::kSimdIdxSlack));
  }

  for (int64_t t0 = row_begin; t0 < row_end; t0 += block) {
    const int64_t len = std::min(block, row_end - t0);

    WithTyped(cols.class_column(), t0, [&](auto* cls, auto sentinel) {
      WidenClassTile(cls, sentinel, len, ybuf.data(), args.class_counts,
                     args.num_records);
    });

    for (int i = 0; i < m; ++i) {
      int32_t* fused_i = fused.data() + static_cast<int64_t>(i) * block;
      if (sk != nullptr && SimdColumnEligible(cols.column(i))) {
        const int64_t cnt = SimdFuseStore(*sk, cols.column(i), t0, ybuf.data(),
                                          nc, len, fused_i, idx.data());
        HistogramIdx(idx.data(), cnt, args.attr_ptrs[i],
                     static_cast<int64_t>(args.sizes[i]) * nc);
      } else {
        WithTyped(cols.column(i), t0, [&](auto* col, auto sentinel) {
          FuseTile(col, sentinel, ybuf.data(), nc, len, fused_i,
                   args.attr_ptrs[i]);
        });
      }
    }

    if (!args.build_pairs) continue;
    int pair = 0;
    for (int i = 0; i < m; ++i) {
      const PackedColumn& ci = cols.column(i);
      const bool col_simd = sk != nullptr && SimdColumnEligible(ci);
      for (int j = i + 1; j < m; ++j, ++pair) {
        const int64_t stride_j = static_cast<int64_t>(args.sizes[j]) * nc;
        const int32_t* fused_j =
            fused.data() + static_cast<int64_t>(j) * block;
        if (col_simd && SimdPairEligible(args.sizes[i], stride_j)) {
          const int64_t cnt =
              SimdFuseCompact(*sk, ci, t0, fused_j,
                              static_cast<int32_t>(stride_j), len, idx.data());
          HistogramIdx(idx.data(), cnt, args.pair_ptrs[pair],
                       static_cast<int64_t>(args.sizes[i]) * stride_j);
        } else {
          WithTyped(ci, t0, [&](auto* col_i, auto sentinel_i) {
            PairTile(col_i, sentinel_i, fused_j, stride_j, len,
                     args.pair_ptrs[pair]);
          });
        }
      }
    }
  }
}

}  // namespace opmap
