#include "opmap/cube/cube_store.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "opmap/common/metrics.h"
#include "opmap/common/simd.h"
#include "opmap/common/trace.h"

namespace opmap {

Result<const RuleCube*> CubeStore::AttrCube(int attr) const {
  const int slot = AttrSlot(attr);
  if (slot < 0) {
    return Status::NotFound("attribute " + std::to_string(attr) +
                            " is not materialized in the cube store");
  }
  // First touch of a lazily mapped cube CRC-verifies its payload.
  OPMAP_RETURN_NOT_OK(VerifyMappedCube(slot));
  return &cubes_[static_cast<size_t>(slot)];
}

Result<const RuleCube*> CubeStore::PairCube(int a, int b) const {
  if (!has_pair_cubes_) {
    return Status::InvalidArgument("pair cubes were not built");
  }
  if (a == b) {
    return Status::InvalidArgument("pair cube needs two distinct attributes");
  }
  const int lo_attr = std::min(a, b);
  const int hi_attr = std::max(a, b);
  const int sa = AttrSlot(lo_attr);
  const int sb = AttrSlot(hi_attr);
  if (sa < 0 || sb < 0) {
    return Status::NotFound("attribute pair is not materialized");
  }
  const int m = static_cast<int>(attributes_.size());
  // Packed upper triangle: pairs (0,1), (0,2), ..., (0,m-1), (1,2), ...
  const int64_t idx = static_cast<int64_t>(sa) * (2 * m - sa - 1) / 2 +
                      (sb - sa - 1);
  // First touch of a lazily mapped cube CRC-verifies its payload.
  const int64_t index = m + idx;
  OPMAP_RETURN_NOT_OK(VerifyMappedCube(index));
  return &cubes_[static_cast<size_t>(index)];
}

int64_t CubeStore::NumCubes() const {
  return static_cast<int64_t>(cubes_.size());
}

int64_t CubeStore::MemoryUsageBytes() const {
  // Count the store's own bookkeeping alongside the cube buffers so the
  // memory-budget shard clamp works from a base figure that is not
  // understated (the clamp additionally charges packed-column scratch;
  // see CubeBuilder::PlanShards).
  int64_t bytes = 0;
  bytes += static_cast<int64_t>(counts_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(class_counts_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(attributes_.capacity() * sizeof(int));
  bytes += static_cast<int64_t>(attr_slot_.capacity() * sizeof(int));
  return bytes;
}

Result<CubeStore> CubeStore::Clone() const {
  OPMAP_TRACE_SPAN("cube.clone");
  CubeStore out;
  out.schema_ = schema_;
  out.attributes_ = attributes_;
  out.attr_slot_ = attr_slot_;
  out.num_records_ = num_records_;
  out.class_counts_ = class_counts_;
  out.has_pair_cubes_ = has_pair_cubes_;
  if (mapped_ == nullptr) {
    out.counts_ = counts_;
  } else {
    for (size_t i = 0; i < cubes_.size(); ++i) {
      // First touch of a lazily mapped cube CRC-verifies its payload, so
      // a clone never materializes silently corrupt counts.
      OPMAP_RETURN_NOT_OK(VerifyMappedCube(static_cast<int64_t>(i)));
      const RuleCube& src = cubes_[i];
      out.counts_.insert(out.counts_.end(), src.raw_counts(),
                         src.raw_counts() + src.num_cells());
    }
  }
  OPMAP_RETURN_NOT_OK(out.ViewCounts());
  return out;
}

Status CubeStore::AddCounts(const CubeStore& delta) {
  OPMAP_TRACE_SPAN("cube.add_counts");
  if (mapped_ != nullptr) {
    return Status::InvalidArgument(
        "cannot add counts into a mapped store; Clone() it first");
  }
  if (attributes_ != delta.attributes_ ||
      has_pair_cubes_ != delta.has_pair_cubes_ ||
      class_counts_.size() != delta.class_counts_.size() ||
      cubes_.size() != delta.cubes_.size()) {
    return Status::InvalidArgument(
        "delta store shape does not match the base store");
  }
  for (size_t i = 0; i < cubes_.size(); ++i) {
    OPMAP_RETURN_NOT_OK(delta.VerifyMappedCube(static_cast<int64_t>(i)));
    RuleCube& dst = cubes_[i];
    const RuleCube& src = delta.cubes_[i];
    if (dst.num_cells() != src.num_cells()) {
      return Status::InvalidArgument(
          "delta cube cell count does not match the base store");
    }
    int64_t* out = dst.raw_counts();
    const int64_t* in = src.raw_counts();
    for (int64_t c = 0; c < dst.num_cells(); ++c) out[c] += in[c];
  }
  for (size_t k = 0; k < class_counts_.size(); ++k) {
    class_counts_[k] += delta.class_counts_[k];
  }
  num_records_ += delta.num_records_;
  return Status::OK();
}

Status CubeStore::InitLayout(std::shared_ptr<const Schema> schema,
                             const CubeStoreOptions& options,
                             CubeStore* out) {
  if (schema->num_attributes() == 0) {
    return Status::InvalidArgument("empty schema");
  }
  std::vector<int> attrs = options.attributes;
  if (attrs.empty()) {
    for (int a = 0; a < schema->num_attributes(); ++a) {
      if (!schema->is_class(a) && schema->attribute(a).is_categorical()) {
        attrs.push_back(a);
      }
    }
  } else {
    std::unordered_set<int> seen;
    for (int a : attrs) {
      if (a < 0 || a >= schema->num_attributes()) {
        return Status::OutOfRange("cube store attribute out of range");
      }
      if (schema->is_class(a)) {
        return Status::InvalidArgument(
            "class attribute cannot be a cube store attribute");
      }
      if (!schema->attribute(a).is_categorical()) {
        return Status::InvalidArgument(
            "continuous attribute '" + schema->attribute(a).name() +
            "' cannot be materialized; discretize first");
      }
      if (!seen.insert(a).second) {
        return Status::InvalidArgument("duplicate cube store attribute");
      }
    }
    std::sort(attrs.begin(), attrs.end());
  }

  out->attributes_ = std::move(attrs);
  out->attr_slot_.assign(static_cast<size_t>(schema->num_attributes()), -1);
  for (size_t i = 0; i < out->attributes_.size(); ++i) {
    out->attr_slot_[static_cast<size_t>(out->attributes_[i])] =
        static_cast<int>(i);
  }
  out->class_counts_.assign(static_cast<size_t>(schema->num_classes()), 0);
  out->has_pair_cubes_ = options.build_pair_cubes;
  out->schema_ = std::move(schema);
  return Status::OK();
}

int64_t CubeStore::CellsOf(const std::vector<int>& dims) const {
  int64_t cells = 1;
  for (int a : dims) cells *= schema_->attribute(a).domain();
  return cells;
}

Status CubeStore::ViewCounts() {
  cubes_.clear();
  cubes_.reserve(static_cast<size_t>(LayoutCubes()));
  int64_t offset = 0;
  return ForEachCubeDims([&](const std::vector<int>& dims) -> Status {
    const int64_t cells = CellsOf(dims);
    OPMAP_ASSIGN_OR_RETURN(
        RuleCube cube,
        RuleCube::MakeView(schema_, dims, counts_.data() + offset, cells));
    cubes_.push_back(std::move(cube));
    offset += cells;
    return Status::OK();
  });
}

Status CubeStore::AllocateCubes(int64_t max_bytes) {
  int64_t cells = 0;
  OPMAP_RETURN_NOT_OK(ForEachCubeDims([&](const std::vector<int>& dims) {
    cells += CellsOf(dims);
    return Status::OK();
  }));
  // Enforce the budget before allocating anything: a wide schema with
  // large domains can demand terabytes of pair cubes, and the server
  // should answer kOutOfRange, not die in the allocator.
  const int64_t bytes = cells * static_cast<int64_t>(sizeof(int64_t));
  if (max_bytes > 0 && bytes > max_bytes) {
    return Status::OutOfRange(
        "cube materialization needs more than the " +
        std::to_string(max_bytes) + "-byte memory budget (" +
        std::to_string(bytes) +
        " bytes projected); raise the budget or materialize fewer "
        "attributes");
  }
  counts_.assign(static_cast<size_t>(cells), 0);
  return ViewCounts();
}

Result<CubeBuilder> CubeBuilder::Make(Schema schema,
                                      CubeStoreOptions options) {
  CubeBuilder builder;
  CubeStore& store = builder.store_;
  OPMAP_RETURN_NOT_OK(CubeStore::InitLayout(
      std::make_shared<const Schema>(std::move(schema)), options, &store));
  builder.parallel_ = options.parallel;
  builder.max_memory_bytes_ = options.max_memory_bytes;
  builder.kernel_ = options.kernel;
  builder.block_rows_ = ResolveBlockRows(options.block_rows);
  const Schema& ss = store.schema();
  builder.class_index_ = ss.class_index();
  builder.num_classes_ = ss.num_classes();

  OPMAP_RETURN_NOT_OK(store.AllocateCubes(options.max_memory_bytes));
  const int m = static_cast<int>(store.attributes_.size());
  for (int a : store.attributes_) {
    builder.sizes_.push_back(ss.attribute(a).domain());
  }

  // Raw pointers for the hot loop (stable: the count block is allocated).
  for (size_t i = 0; i < store.cubes_.size(); ++i) {
    (i < static_cast<size_t>(m) ? builder.attr_raw_ : builder.pair_raw_)
        .push_back(store.cubes_[i].raw_counts());
  }
  builder.pair_base_.resize(static_cast<size_t>(m));
  int base = 0;
  for (int i = 0; i < m; ++i) {
    builder.pair_base_[static_cast<size_t>(i)] = base;
    base += m - i - 1;
  }
  return builder;
}

void CubeBuilder::AddRow(const ValueCode* row) {
  const ValueCode y = row[class_index_];
  if (y == kNullCode) return;
  ++store_.num_records_;
  ++store_.class_counts_[static_cast<size_t>(y)];

  const int m = static_cast<int>(store_.attributes_.size());
  const int nc = num_classes_;
  for (int i = 0; i < m; ++i) {
    const ValueCode vi = row[store_.attributes_[static_cast<size_t>(i)]];
    if (vi == kNullCode) continue;
    attr_raw_[static_cast<size_t>(i)][vi * nc + y] += 1;
    if (!store_.has_pair_cubes_) continue;
    const int base = pair_base_[static_cast<size_t>(i)];
    for (int j = i + 1; j < m; ++j) {
      const ValueCode vj = row[store_.attributes_[static_cast<size_t>(j)]];
      if (vj == kNullCode) continue;
      const int sj = sizes_[static_cast<size_t>(j)];
      pair_raw_[static_cast<size_t>(base + j - i - 1)]
               [(static_cast<int64_t>(vi) * sj + vj) * nc + y] += 1;
    }
  }
}

void CubeBuilder::CountRange(const ColumnView& view, int64_t row_begin,
                             int64_t row_end, int64_t* const* attr_ptrs,
                             int64_t* const* pair_ptrs, int64_t* class_counts,
                             int64_t* num_records) const {
  if (view.packed != nullptr) {
    BlockedCountArgs args;
    args.columns = view.packed;
    args.num_classes = num_classes_;
    args.build_pairs = store_.has_pair_cubes_;
    args.sizes = sizes_.data();
    args.block_rows = block_rows_;
    args.use_simd = view.use_simd;
    args.attr_ptrs = attr_ptrs;
    args.pair_ptrs = pair_ptrs;
    args.class_counts = class_counts;
    args.num_records = num_records;
    CountRangeBlocked(args, row_begin, row_end);
    return;
  }
  const int m = static_cast<int>(store_.attributes_.size());
  const int nc = num_classes_;
  const bool pairs = store_.has_pair_cubes_;
  const ValueCode* const class_col = view.class_col;
  for (int64_t r = row_begin; r < row_end; ++r) {
    const ValueCode y = class_col[r];
    if (y == kNullCode) continue;
    ++*num_records;
    ++class_counts[y];
    for (int i = 0; i < m; ++i) {
      const ValueCode vi = view.cols[static_cast<size_t>(i)][r];
      if (vi == kNullCode) continue;
      attr_ptrs[i][vi * nc + y] += 1;
      if (!pairs) continue;
      const int base = pair_base_[static_cast<size_t>(i)];
      for (int j = i + 1; j < m; ++j) {
        const ValueCode vj = view.cols[static_cast<size_t>(j)][r];
        if (vj == kNullCode) continue;
        const int sj = sizes_[static_cast<size_t>(j)];
        pair_ptrs[base + j - i - 1]
                 [(static_cast<int64_t>(vi) * sj + vj) * nc + y] += 1;
      }
    }
  }
}

int64_t CubeBuilder::TileScratchBytes(bool simd) const {
  // One blocked CountRange call widens the class codes and keeps one
  // fused-index row per attribute, all int32, for one tile; the SIMD
  // tier adds one compacted-index row (plus its store slack).
  const int64_t m = static_cast<int64_t>(store_.attributes_.size());
  const int64_t rows = m + 1 + (simd ? 1 : 0);
  return (rows * block_rows_ + (simd ? 8 : 0)) *
         static_cast<int64_t>(sizeof(int32_t));
}

int CubeBuilder::PlanShards(int64_t num_rows, int64_t reserved_bytes,
                            int64_t per_shard_bytes) const {
  int shards = EffectiveThreads(parallel_);
  // Tiny inputs are not worth a fork/join (the result is identical either
  // way; this is purely a fixed-cost cutoff).
  if (num_rows < 2048) shards = 1;
  shards = static_cast<int>(
      std::min<int64_t>(shards, std::max<int64_t>(num_rows, 1)));
  if (shards > 1 && max_memory_bytes_ > 0) {
    // Each extra shard allocates a private copy of all cube buffers plus
    // its own tile scratch; stay within the same budget that gated
    // materialization itself, net of the scratch already reserved for
    // this pass (packed columns and shard 0's tiles).
    const int64_t copy_bytes =
        static_cast<int64_t>(store_.counts_.size() * sizeof(int64_t)) +
        per_shard_bytes;
    const int64_t headroom =
        max_memory_bytes_ - store_.MemoryUsageBytes() - reserved_bytes;
    const int64_t extra_copies =
        copy_bytes > 0 ? std::max<int64_t>(headroom, 0) / copy_bytes : 0;
    shards = static_cast<int>(
        std::min<int64_t>(shards, 1 + extra_copies));
  }
  return std::max(shards, 1);
}

Status CubeBuilder::AddDataset(const Dataset& dataset) {
  OPMAP_TRACE_SPAN("cube.add_dataset");
  const Schema& ds = dataset.schema();
  const Schema& ss = store_.schema();
  if (ds.num_attributes() != ss.num_attributes() ||
      ds.class_index() != ss.class_index()) {
    return Status::InvalidArgument("dataset schema does not match cube store");
  }
  for (int a : store_.attributes_) {
    if (!ds.attribute(a).is_categorical() ||
        ds.attribute(a).domain() != ss.attribute(a).domain()) {
      return Status::InvalidArgument(
          "dataset attribute '" + ds.attribute(a).name() +
          "' does not match the cube store schema");
    }
  }
  const int64_t n = dataset.num_rows();
  ColumnView view;
  view.class_col = dataset.categorical_column(class_index_).data();
  view.cols.reserve(store_.attributes_.size());
  for (int a : store_.attributes_) {
    view.cols.push_back(dataset.categorical_column(a).data());
  }

  // Resolve the requested kernel for this pass (kAuto consults the
  // OPMAP_KERNEL environment and the CPU's vector support), then apply
  // the fallback ladder: the blocked/SIMD kernels need packed-column
  // scratch for the whole pass plus tile scratch per shard, and when the
  // memory budget cannot absorb that the pass falls back to the
  // reference kernel — the counts are identical, only slower — instead
  // of overshooting the budget. The SIMD tier additionally requires the
  // running CPU to support a compiled-in vector ISA.
  const CountKernel kernel = ResolveCountKernel(kernel_);
  bool simd = kernel == CountKernel::kSimd && SimdAvailable();
  bool blocked = kernel != CountKernel::kReference &&
                 BlockedKernelSupported(ss, store_.attributes_);
  int64_t reserved = 0;
  if (blocked) {
    const int64_t packed_bytes =
        PackedColumnSet::ProjectedBytes(ss, store_.attributes_, n);
    reserved = packed_bytes + TileScratchBytes(simd);  // shard 0's tiles
    if (max_memory_bytes_ > 0 &&
        store_.MemoryUsageBytes() + reserved > max_memory_bytes_) {
      blocked = false;
      reserved = 0;
      static Counter* const fallbacks =
          MetricsRegistry::Global()->counter("cube.budget_fallbacks");
      fallbacks->Increment();
    }
  }
  simd = simd && blocked;
  // Per-pass pass/row/kernel accounting (never per row).
  MetricsRegistry* const metrics = MetricsRegistry::Global();
  metrics->counter("cube.rows_counted")->Increment(n);
  metrics
      ->counter(simd ? "cube.kernel_simd"
                     : blocked ? "cube.kernel_blocked" : "cube.kernel_reference")
      ->Increment();
  if (kernel == CountKernel::kSimd) {
    if (!simd) {
      // The whole pass ran scalar despite the SIMD tier being requested
      // (no CPU support, unsupported shapes, or the budget fallback).
      metrics->counter("kernel.simd_fallbacks")->Increment();
    } else {
      metrics->counter("kernel.simd_selected")->Increment();
      // Count the columns and pairs inside this pass that the vector
      // tier must skip (uint32 codes — domains above 65535 — or pair
      // indices past int32); they run the scalar blocked loops.
      const int64_t nc = num_classes_;
      const int m_cols = static_cast<int>(store_.attributes_.size());
      int64_t scalar_units = 0;
      for (int i = 0; i < m_cols; ++i) {
        const bool col_ok = sizes_[static_cast<size_t>(i)] <= 65535;
        if (!col_ok) ++scalar_units;
        if (!store_.has_pair_cubes_) continue;
        for (int j = i + 1; j < m_cols; ++j) {
          const int64_t stride_j =
              static_cast<int64_t>(sizes_[static_cast<size_t>(j)]) * nc;
          if (!col_ok ||
              !SimdPairEligible(sizes_[static_cast<size_t>(i)], stride_j)) {
            ++scalar_units;
          }
        }
      }
      if (scalar_units > 0) {
        metrics->counter("kernel.simd_fallbacks")->Increment(scalar_units);
      }
    }
  }
  PackedColumnSet packed;
  if (blocked) {
    OPMAP_TRACE_SPAN("cube.pack");
    const int64_t pack_start_us = MonotonicMicros();
    packed = PackedColumnSet::Build(dataset, store_.attributes_);
    view.packed = &packed;
    view.use_simd = simd;
    metrics->histogram("cube.pack_us")
        ->Record(MonotonicMicros() - pack_start_us);
  }

  // A per-tier span (distinct literals; spans never copy their name) so
  // traces show which kernel counted the pass.
  TraceSpan count_span(simd ? "cube.count.simd"
                            : blocked ? "cube.count.blocked"
                                      : "cube.count.reference");
  const int shards =
      PlanShards(n, reserved, blocked ? TileScratchBytes(simd) : 0);
  if (shards <= 1) {
    CountRange(view, 0, n, attr_raw_.data(), pair_raw_.data(),
               store_.class_counts_.data(), &store_.num_records_);
    return Status::OK();
  }

  // Shard-and-merge: shard 0 counts straight into the store's count
  // block; every other shard counts into a private zeroed copy of it (same
  // layout) that is merged below. Integer addition commutes, so the
  // merged counts are bit-identical to a serial pass for any shard count.
  int64_t* const block = store_.counts_.data();
  const size_t block_cells = store_.counts_.size();
  struct ShardState {
    std::vector<int64_t> cells;
    std::vector<int64_t> class_counts;
    int64_t num_records = 0;
    std::vector<int64_t*> attr_ptrs;
    std::vector<int64_t*> pair_ptrs;
  };
  std::vector<ShardState> privates(static_cast<size_t>(shards - 1));
  for (ShardState& s : privates) {
    s.cells.assign(block_cells, 0);
    s.class_counts.assign(store_.class_counts_.size(), 0);
    // Each cube sits at the same offset in the copy as in the block.
    for (int64_t* p : attr_raw_) {
      s.attr_ptrs.push_back(s.cells.data() + (p - block));
    }
    for (int64_t* p : pair_raw_) {
      s.pair_ptrs.push_back(s.cells.data() + (p - block));
    }
  }

  ParallelForShards(0, n, shards, [&](int shard, int64_t lo, int64_t hi) {
    if (shard == 0) {
      CountRange(view, lo, hi, attr_raw_.data(), pair_raw_.data(),
                 store_.class_counts_.data(), &store_.num_records_);
    } else {
      ShardState& s = privates[static_cast<size_t>(shard - 1)];
      CountRange(view, lo, hi, s.attr_ptrs.data(), s.pair_ptrs.data(),
                 s.class_counts.data(), &s.num_records);
    }
  });

  // Element-wise merge (auto-vectorizes: two dense int64 arrays).
  for (const ShardState& s : privates) {
    store_.num_records_ += s.num_records;
    for (size_t c = 0; c < store_.class_counts_.size(); ++c) {
      store_.class_counts_[c] += s.class_counts[c];
    }
    for (size_t c = 0; c < block_cells; ++c) block[c] += s.cells[c];
  }
  return Status::OK();
}

void CubeBuilder::Reset() {
  std::fill(store_.counts_.begin(), store_.counts_.end(), 0);
  std::fill(store_.class_counts_.begin(), store_.class_counts_.end(), 0);
  store_.num_records_ = 0;
}

CubeStore CubeBuilder::Finish() && {
  attr_raw_.clear();
  pair_raw_.clear();
  return std::move(store_);
}

Result<CubeStore> CubeBuilder::FromDataset(const Dataset& dataset,
                                           CubeStoreOptions options) {
  OPMAP_ASSIGN_OR_RETURN(CubeBuilder builder,
                         CubeBuilder::Make(dataset.schema(), options));
  OPMAP_RETURN_NOT_OK(builder.AddDataset(dataset));
  return std::move(builder).Finish();
}

}  // namespace opmap
