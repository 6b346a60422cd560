#include "util/simd.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KAV_SIMD_X86 1
#include <immintrin.h>
#else
#define KAV_SIMD_X86 0
#endif

namespace kav::simd {

namespace {

// --- Scalar reference implementations --------------------------------------
// These define the semantics; every vector variant below must agree
// bit-for-bit on every input.

inline std::int64_t load_le_i64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return static_cast<std::int64_t>(v);
}

inline std::uint32_t load_le_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool scalar_is_strictly_increasing(const std::int64_t* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    if (a[i - 1] >= a[i]) return false;
  }
  return true;
}

std::size_t scalar_first_not_less(const std::int64_t* a, const std::int64_t* b,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] >= b[i]) return i;
  }
  return n;
}

std::size_t scalar_first_mismatch(const std::uint32_t* a, std::size_t n,
                                  std::uint32_t expected) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != expected) return i;
  }
  return n;
}

void scalar_gather_i64(const unsigned char* base, std::size_t stride,
                       std::size_t n, std::int64_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = load_le_i64(base + i * stride);
  }
}

void scalar_gather_u32(const unsigned char* base, std::size_t stride,
                       std::size_t n, std::uint32_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = load_le_u32(base + i * stride);
  }
}

#if KAV_SIMD_X86

// --- SSE2 (x86-64 ABI baseline, no runtime check) --------------------------
// SSE2 has no 64-bit integer compare, so only the u32 scan gains a
// vector path at this tier.

std::size_t sse2_first_mismatch(const std::uint32_t* a, std::size_t n,
                                std::uint32_t expected) {
  const __m128i want = _mm_set1_epi32(static_cast<int>(expected));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const int eq = _mm_movemask_epi8(_mm_cmpeq_epi32(v, want));
    if (eq != 0xFFFF) {
      // Some lane differs; the scalar tail below pinpoints which.
      break;
    }
  }
  return i + scalar_first_mismatch(a + i, n - i, expected);
}

// --- AVX2 (runtime-dispatched) ---------------------------------------------
// Compiled with a per-function target attribute so the translation
// unit itself needs no -mavx2 and the binary stays runnable on
// pre-AVX2 CPUs; these bodies only execute after a cpuid check.

__attribute__((target("avx2"))) bool avx2_is_strictly_increasing(
    const std::int64_t* a, std::size_t n) {
  std::size_t i = 1;
  for (; i + 4 <= n; i += 4) {
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i - 1));
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    // strictly increasing <=> cur > prev in every lane
    const __m256i gt = _mm256_cmpgt_epi64(cur, prev);
    if (_mm256_movemask_pd(_mm256_castsi256_pd(gt)) != 0xF) return false;
  }
  return scalar_is_strictly_increasing(a + (i - 1), n - (i - 1));
}

__attribute__((target("avx2"))) std::size_t avx2_first_not_less(
    const std::int64_t* a, const std::int64_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i lt = _mm256_cmpgt_epi64(vb, va);  // a < b
    if (_mm256_movemask_pd(_mm256_castsi256_pd(lt)) != 0xF) break;
  }
  return i + scalar_first_not_less(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) std::size_t avx2_first_mismatch(
    const std::uint32_t* a, std::size_t n, std::uint32_t expected) {
  const __m256i want = _mm256_set1_epi32(static_cast<int>(expected));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const unsigned eq = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi32(v, want)));
    if (eq != 0xFFFFFFFFu) break;
  }
  return i + scalar_first_mismatch(a + i, n - i, expected);
}

__attribute__((target("avx2"))) void avx2_gather_i64(const unsigned char* base,
                                                     std::size_t stride,
                                                     std::size_t n,
                                                     std::int64_t* out) {
  // Byte offsets {0, stride, 2*stride, 3*stride} with scale 1 and an
  // advancing base, so offsets never overflow whatever the block size.
  // Gathers perform independent element loads: no alignment needed and
  // each lane reads the same 8 bytes the scalar loop would. Endianness
  // matches load_le_i64 because x86 is little-endian.
  const __m256i offsets = _mm256_set_epi64x(
      static_cast<long long>(3 * stride), static_cast<long long>(2 * stride),
      static_cast<long long>(stride), 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(base + i * stride), offsets, 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  scalar_gather_i64(base + i * stride, stride, n - i, out + i);
}

__attribute__((target("avx2"))) void avx2_gather_u32(const unsigned char* base,
                                                     std::size_t stride,
                                                     std::size_t n,
                                                     std::uint32_t* out) {
  const __m256i offsets = _mm256_set_epi32(
      static_cast<int>(7 * stride), static_cast<int>(6 * stride),
      static_cast<int>(5 * stride), static_cast<int>(4 * stride),
      static_cast<int>(3 * stride), static_cast<int>(2 * stride),
      static_cast<int>(stride), 0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(base + i * stride), offsets, 1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
  scalar_gather_u32(base + i * stride, stride, n - i, out + i);
}

#endif  // KAV_SIMD_X86

bool force_scalar_env() {
  const char* value = std::getenv("KAV_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

Level detect_level() {
  if (force_scalar_env()) return Level::scalar;
#if KAV_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::avx2;
  return Level::sse2;  // part of the x86-64 ABI
#else
  return Level::scalar;
#endif
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::scalar:
      return "scalar";
    case Level::sse2:
      return "sse2";
    case Level::avx2:
      return "avx2";
  }
  return "unknown";
}

Level max_compiled_level() {
#if KAV_SIMD_X86
  return Level::avx2;
#else
  return Level::scalar;
#endif
}

bool supported(Level level) {
  if (level == Level::scalar) return true;
#if KAV_SIMD_X86
  if (level == Level::sse2) return true;
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Level active_level() {
  static const Level cached = detect_level();
  return cached;
}

bool is_strictly_increasing_i64(const std::int64_t* a, std::size_t n,
                                Level level) {
  if (n <= 1) return true;
#if KAV_SIMD_X86
  if (level >= Level::avx2 && supported(Level::avx2)) {
    return avx2_is_strictly_increasing(a, n);
  }
#endif
  return scalar_is_strictly_increasing(a, n);
}

std::size_t first_not_less_i64(const std::int64_t* a, const std::int64_t* b,
                               std::size_t n, Level level) {
#if KAV_SIMD_X86
  if (level >= Level::avx2 && supported(Level::avx2)) {
    return avx2_first_not_less(a, b, n);
  }
#endif
  return scalar_first_not_less(a, b, n);
}

std::size_t first_mismatch_u32(const std::uint32_t* a, std::size_t n,
                               std::uint32_t expected, Level level) {
#if KAV_SIMD_X86
  if (level >= Level::avx2 && supported(Level::avx2)) {
    return avx2_first_mismatch(a, n, expected);
  }
  if (level >= Level::sse2) {
    return sse2_first_mismatch(a, n, expected);
  }
#endif
  return scalar_first_mismatch(a, n, expected);
}

void gather_i64_strided(const unsigned char* base, std::size_t stride,
                        std::size_t n, std::int64_t* out, Level level) {
#if KAV_SIMD_X86
  if (level >= Level::avx2 && supported(Level::avx2)) {
    avx2_gather_i64(base, stride, n, out);
    return;
  }
#endif
  scalar_gather_i64(base, stride, n, out);
}

void gather_u32_strided(const unsigned char* base, std::size_t stride,
                        std::size_t n, std::uint32_t* out, Level level) {
#if KAV_SIMD_X86
  if (level >= Level::avx2 && supported(Level::avx2)) {
    avx2_gather_u32(base, stride, n, out);
    return;
  }
#endif
  scalar_gather_u32(base, stride, n, out);
}

}  // namespace kav::simd
