// Vector implementations of the counting primitives behind
// CountKernel::kSimd (see count_kernels_simd.h for the contracts).
//
// One translation unit serves every machine: the AVX2 tier is compiled
// behind __attribute__((target("avx2"))) so the rest of the binary keeps
// the default ISA and pre-AVX2 CPUs simply get a nullptr kernel table at
// runtime; NEON is baseline on aarch64 and needs no per-function gate.
// GetSimdKernels() is the single dispatch point — it consults the cached
// CurrentSimdLevel() CPUID probe (opmap/common/simd.h).
//
// The compaction trick both tiers share: instead of scattering +1s with
// per-lane conflict detection (gathers plus vpconflictd-style repair),
// each vector of fused indices is left-packed through a small permutation
// LUT keyed by the validity mask, null rows vanish, and a scalar
// multi-accumulator histogram consumes the dense index stream. That keeps
// the histogram gather-free and makes the counts bit-identical to the
// scalar kernels (int64 addition commutes; only the visit order changes).

#include "opmap/cube/count_kernels_simd.h"

#include <array>
#include <cstring>

#include "opmap/common/simd.h"

#if defined(OPMAP_SIMD_X86)
#include <immintrin.h>
#endif
#if defined(OPMAP_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace opmap {
namespace internal {
namespace {

#if defined(OPMAP_SIMD_X86) || defined(OPMAP_SIMD_NEON)

enum class FuseMode { kFusedAndIdx, kIdxOnly };

// Scalar tail shared by both tiers. Index math runs in uint32 so even a
// sentinel lane cannot trip signed overflow (eligibility checks in
// count_kernels.cc guarantee valid lanes fit int32).
template <typename T, FuseMode M>
inline int64_t FuseScalarTail(const T* col, uint32_t sentinel,
                              const int32_t* base, int32_t mult, int64_t begin,
                              int64_t len, int32_t* fused, int32_t* idx,
                              int64_t cnt) {
  for (int64_t k = begin; k < len; ++k) {
    const uint32_t v = col[k];
    const int32_t b = base[k];
    const bool ok = v != sentinel && b >= 0;
    const int32_t f = static_cast<int32_t>(
        v * static_cast<uint32_t>(mult) + static_cast<uint32_t>(b));
    if constexpr (M != FuseMode::kIdxOnly) fused[k] = ok ? f : -1;
    if (ok) idx[cnt++] = f;
  }
  return cnt;
}

#endif  // OPMAP_SIMD_X86 || OPMAP_SIMD_NEON

#if defined(OPMAP_SIMD_X86)

// ---------------------------------------------------------------------------
// AVX2 tier: 8 int32 lanes.
// ---------------------------------------------------------------------------

// Left-pack LUT: row `mask` holds the lane permutation that moves the set
// bits of `mask` (the valid lanes) to the front, for vpermd.
struct Compress8Table {
  alignas(32) int32_t perm[256][8];
};

constexpr Compress8Table MakeCompress8Table() {
  Compress8Table t{};
  for (int mask = 0; mask < 256; ++mask) {
    int n = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (mask & (1 << lane)) t.perm[mask][n++] = lane;
    }
    for (; n < 8; ++n) t.perm[mask][n] = 0;
  }
  return t;
}

constexpr Compress8Table kCompress8 = MakeCompress8Table();

template <typename T>
__attribute__((target("avx2"))) inline __m256i LoadWiden8(const T* p) {
  if constexpr (sizeof(T) == 1) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  } else {
    return _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
}

template <typename T, FuseMode M>
__attribute__((target("avx2"))) int64_t FuseAvx2(const T* col,
                                                 uint32_t sentinel,
                                                 const int32_t* base,
                                                 int32_t mult, int64_t len,
                                                 int32_t* fused,
                                                 int32_t* idx) {
  const __m256i vsent = _mm256_set1_epi32(static_cast<int32_t>(sentinel));
  const __m256i vneg1 = _mm256_set1_epi32(-1);
  const __m256i vmult = _mm256_set1_epi32(mult);
  int64_t cnt = 0;
  int64_t k = 0;
  for (; k + 8 <= len; k += 8) {
    const __m256i v = LoadWiden8(col + k);
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + k));
    const __m256i col_null = _mm256_cmpeq_epi32(v, vsent);
    const __m256i base_ok = _mm256_cmpgt_epi32(b, vneg1);  // base >= 0
    const __m256i valid = _mm256_andnot_si256(col_null, base_ok);
    // Sentinel lanes may wrap; they are masked out below either way.
    const __m256i f = _mm256_add_epi32(_mm256_mullo_epi32(v, vmult), b);
    if constexpr (M != FuseMode::kIdxOnly) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(fused + k),
                          _mm256_blendv_epi8(vneg1, f, valid));
    }
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(valid)));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress8.perm[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx + cnt),
                        _mm256_permutevar8x32_epi32(f, perm));
    cnt += __builtin_popcount(mask);
  }
  return FuseScalarTail<T, M>(col, sentinel, base, mult, k, len, fused, idx,
                              cnt);
}

constexpr SimdKernels kAvx2Kernels = {
    &FuseAvx2<uint8_t, FuseMode::kFusedAndIdx>,
    &FuseAvx2<uint16_t, FuseMode::kFusedAndIdx>,
    &FuseAvx2<uint8_t, FuseMode::kIdxOnly>,
    &FuseAvx2<uint16_t, FuseMode::kIdxOnly>,
};

#endif  // OPMAP_SIMD_X86

#if defined(OPMAP_SIMD_NEON)

// ---------------------------------------------------------------------------
// NEON tier: 4 int32 lanes. Mirrors the AVX2 structure; the left-pack
// permutation runs through vqtbl1q_u8 with a 16-entry byte-shuffle LUT.
// ---------------------------------------------------------------------------

struct Compress4Table {
  alignas(16) uint8_t perm[16][16];
};

constexpr Compress4Table MakeCompress4Table() {
  Compress4Table t{};
  for (int mask = 0; mask < 16; ++mask) {
    int n = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) {
        for (int byte = 0; byte < 4; ++byte) {
          t.perm[mask][n * 4 + byte] = static_cast<uint8_t>(lane * 4 + byte);
        }
        ++n;
      }
    }
    for (; n < 4; ++n) {
      for (int byte = 0; byte < 4; ++byte) {
        t.perm[mask][n * 4 + byte] = 0;
      }
    }
  }
  return t;
}

constexpr Compress4Table kCompress4 = MakeCompress4Table();

template <typename T>
inline int32x4_t LoadWiden4(const T* p) {
  if constexpr (sizeof(T) == 1) {
    uint32_t w;
    std::memcpy(&w, p, 4);
    const uint16x4_t h = vget_low_u16(vmovl_u8(vcreate_u8(w)));
    return vreinterpretq_s32_u32(vmovl_u16(h));
  } else {
    return vreinterpretq_s32_u32(vmovl_u16(vld1_u16(p)));
  }
}

template <typename T, FuseMode M>
int64_t FuseNeon(const T* col, uint32_t sentinel, const int32_t* base,
                 int32_t mult, int64_t len, int32_t* fused, int32_t* idx) {
  const int32x4_t vsent = vdupq_n_s32(static_cast<int32_t>(sentinel));
  const int32x4_t vneg1 = vdupq_n_s32(-1);
  const int32x4_t vzero = vdupq_n_s32(0);
  alignas(16) static constexpr uint32_t kLaneBits[4] = {1u, 2u, 4u, 8u};
  const uint32x4_t lane_bits = vld1q_u32(kLaneBits);
  int64_t cnt = 0;
  int64_t k = 0;
  for (; k + 4 <= len; k += 4) {
    const int32x4_t v = LoadWiden4(col + k);
    const int32x4_t b = vld1q_s32(base + k);
    const uint32x4_t col_null = vceqq_s32(v, vsent);
    const uint32x4_t base_ok = vcgeq_s32(b, vzero);
    const uint32x4_t valid = vbicq_u32(base_ok, col_null);
    const int32x4_t f = vmlaq_n_s32(b, v, mult);  // b + v * mult
    if constexpr (M != FuseMode::kIdxOnly) {
      vst1q_s32(fused + k, vbslq_s32(valid, f, vneg1));
    }
    const uint32_t mask = vaddvq_u32(vandq_u32(valid, lane_bits));
    const uint8x16_t perm = vld1q_u8(kCompress4.perm[mask]);
    const uint8x16_t packed = vqtbl1q_u8(vreinterpretq_u8_s32(f), perm);
    vst1q_s32(idx + cnt, vreinterpretq_s32_u8(packed));
    cnt += __builtin_popcount(mask);
  }
  return FuseScalarTail<T, M>(col, sentinel, base, mult, k, len, fused, idx,
                              cnt);
}

constexpr SimdKernels kNeonKernels = {
    &FuseNeon<uint8_t, FuseMode::kFusedAndIdx>,
    &FuseNeon<uint16_t, FuseMode::kFusedAndIdx>,
    &FuseNeon<uint8_t, FuseMode::kIdxOnly>,
    &FuseNeon<uint16_t, FuseMode::kIdxOnly>,
};

#endif  // OPMAP_SIMD_NEON

}  // namespace

const SimdKernels* GetSimdKernels() {
#if defined(OPMAP_SIMD_X86)
  if (CurrentSimdLevel() == SimdLevel::kAvx2) return &kAvx2Kernels;
#elif defined(OPMAP_SIMD_NEON)
  if (CurrentSimdLevel() == SimdLevel::kNeon) return &kNeonKernels;
#endif
  return nullptr;
}

}  // namespace internal
}  // namespace opmap
