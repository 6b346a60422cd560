// Runtime-dispatched SIMD kernels for the hot decode/verify paths:
// fixed-width little-endian record decode (ingest/wire.h layout) and
// the column scans History runs over its per-operation time columns.
//
// Dispatch model:
//   - Every kernel has a scalar reference implementation that is
//     always compiled and always available; it IS the semantics, and
//     the vector variants must be bit-identical to it on every input
//     (tests/simd_test.cpp pits them against each other on adversarial
//     inputs, under ASan/UBSan, at every compiled level).
//   - On x86-64, SSE2 is the baseline (part of the ABI, no runtime
//     check needed) and AVX2 variants are compiled with
//     __attribute__((target("avx2"))) and selected at runtime via
//     cpuid -- the binary stays runnable on pre-AVX2 hardware.
//   - KAV_FORCE_SCALAR=1 in the environment pins active_level() to
//     Level::scalar (read once, cached), so any result difference can
//     be bisected to a vector kernel by rerunning one process.
//   - Callers may also pass an explicit Level; passing an unsupported
//     one silently degrades to the highest supported level at or below
//     it, so "run this at sse2" is portable to non-x86 builds (where
//     everything degrades to scalar).
//
// Not every kernel has every tier: SSE2 has no 64-bit compare, so the
// i64 scans only gain a vector path at AVX2; the u32 scan vectorizes
// from SSE2 up. A tier a kernel lacks falls through to the next lower
// one -- never to different semantics.
#ifndef KAV_UTIL_SIMD_H
#define KAV_UTIL_SIMD_H

#include <cstddef>
#include <cstdint>

namespace kav::simd {

enum class Level : unsigned char { scalar = 0, sse2 = 1, avx2 = 2 };

const char* to_string(Level level);

// Highest level this binary has code for (compile-time property).
Level max_compiled_level();

// True when `level`'s kernels can run on this machine (compiled in and
// the CPU reports the feature). scalar is always supported.
bool supported(Level level);

// The level kernels default to: the highest supported level, unless
// KAV_FORCE_SCALAR=1 pinned it to scalar. Cached after the first call.
Level active_level();

// --- Column scans (i64) ----------------------------------------------------

// True iff a[i] < a[i+1] for all consecutive pairs (vacuously true for
// n <= 1). Used to detect already-sorted time columns so History can
// skip its O(n log n) index sorts.
bool is_strictly_increasing_i64(const std::int64_t* a, std::size_t n,
                                Level level = active_level());

// First index with a[i] >= b[i], or n when a[i] < b[i] everywhere.
// Record validation (start < finish) uses this to accept a whole block
// in one scan and still point at the exact offending record.
std::size_t first_not_less_i64(const std::int64_t* a, const std::int64_t* b,
                               std::size_t n, Level level = active_level());

// --- Column scans (u32) ----------------------------------------------------

// First index with a[i] != expected, or n. Key-id uniformity check of
// a decoded block (every record must belong to the block's key).
std::size_t first_mismatch_u32(const std::uint32_t* a, std::size_t n,
                               std::uint32_t expected,
                               Level level = active_level());

// --- Strided little-endian field decode ------------------------------------
//
// out[i] = wire::load_*(base + i * stride). This is the structure-of-
// arrays decode of one fixed-width record field across a whole block
// (stride = kBinaryTraceRecordBytes); base needs no alignment and may
// point anywhere into an mmap. AVX2 uses vector gathers; below that
// the scalar loop already compiles to one unaligned load per record on
// little-endian hardware.

void gather_i64_strided(const unsigned char* base, std::size_t stride,
                        std::size_t n, std::int64_t* out,
                        Level level = active_level());

void gather_u32_strided(const unsigned char* base, std::size_t stride,
                        std::size_t n, std::uint32_t* out,
                        Level level = active_level());

}  // namespace kav::simd

#endif  // KAV_UTIL_SIMD_H
