#ifndef OPMAP_CUBE_COUNT_KERNELS_SIMD_H_
#define OPMAP_CUBE_COUNT_KERNELS_SIMD_H_

#include <cstdint>

namespace opmap {
namespace internal {

/// Extra int32 slots callers must reserve past the end of every `idx`
/// output buffer: the vector compaction stores one full vector at the
/// write cursor and advances it by the number of valid lanes, so the
/// final store can spill up to one vector minus one lane of garbage.
inline constexpr int64_t kSimdIdxSlack = 8;

/// The per-tile vector primitives behind CountKernel::kSimd. The shared
/// contract of the fuse family:
///
///   - `col` is a packed code array, `sentinel` its null code;
///   - `base[k]` is an int32 partial index, negative meaning "row k
///     invalid" (a null seen earlier in the fusion chain);
///   - the fused index of row k is col[k] * mult + base[k], valid only
///     when col[k] != sentinel and base[k] >= 0;
///   - `fused` (when the variant writes it) receives the fused index per
///     row, -1 for invalid rows;
///   - `idx` (when the variant writes it) receives only the valid fused
///     indices, left-packed; the return value is how many were written.
///     The buffer needs room for len + kSimdIdxSlack entries.
///
/// Counting through these primitives is bit-identical to the scalar
/// loops: compaction only reorders which rows contribute +1 first, and
/// int64 addition commutes.
struct SimdKernels {
  using FuseFnU8 = int64_t (*)(const uint8_t* col, uint32_t sentinel,
                               const int32_t* base, int32_t mult, int64_t len,
                               int32_t* fused, int32_t* idx);
  using FuseFnU16 = int64_t (*)(const uint16_t* col, uint32_t sentinel,
                                const int32_t* base, int32_t mult, int64_t len,
                                int32_t* fused, int32_t* idx);

  /// Writes `fused` and `idx`; returns the idx count. The cube builder's
  /// attribute pass: the 2-D cube histogram input and the pair-pass base
  /// in one sweep.
  FuseFnU8 fuse_store_u8;
  FuseFnU16 fuse_store_u16;
  /// Writes `idx` only; `fused` is ignored (pass nullptr). Returns the
  /// idx count. The cube builder's pair passes.
  FuseFnU8 fuse_compact_u8;
  FuseFnU16 fuse_compact_u16;
};

/// The vector kernel table for the running CPU, or nullptr when this
/// binary has no tier the CPU supports (always nullptr in OPMAP_NO_SIMD
/// builds). The pointer is stable for the process lifetime.
const SimdKernels* GetSimdKernels();

}  // namespace internal
}  // namespace opmap

#endif  // OPMAP_CUBE_COUNT_KERNELS_SIMD_H_
