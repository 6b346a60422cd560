// Property tests for the util/simd.h kernels: every kernel, at every
// dispatch level, must be bit-identical to an independent scalar
// reference (re-implemented here with plain loops, NOT the library's
// own scalar path) on adversarial inputs -- empty and single-element
// arrays, tails shorter than any vector width, all-zeros / all-ones /
// alternating lanes, INT64_MIN/INT64_MAX extremes (the AVX2 compares
// are signed; extremes catch sign-flip bugs), duplicates and order
// breaks planted at every vector-boundary position, unaligned bases,
// and strided records straddling 16/32-byte boundaries.
//
// The suite is value-parameterized over every Level the enum knows,
// including levels this machine cannot run: the dispatch contract says
// an unsupported level silently degrades downward, so calling with
// Level::avx2 on a non-AVX2 box must still produce reference results.
// Running the whole binary under KAV_FORCE_SCALAR=1 (ci.sh does, in
// the sanitizer job) re-covers every case with the pinned-scalar
// active_level() default as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "ingest/binary_trace.h"
#include "ingest/wire.h"
#include "util/rng.h"
#include "util/simd.h"

namespace kav {
namespace {

using simd::Level;

constexpr std::int64_t kI64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();

// --- Independent references (plain loops, byte-wise loads) -----------------

bool ref_strictly_increasing(const std::vector<std::int64_t>& a) {
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i - 1] >= a[i]) return false;
  }
  return true;
}

std::size_t ref_first_not_less(const std::vector<std::int64_t>& a,
                               const std::vector<std::int64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= b[i]) return i;
  }
  return a.size();
}

std::size_t ref_first_mismatch(const std::vector<std::uint32_t>& a,
                               std::uint32_t expected) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != expected) return i;
  }
  return a.size();
}

// The adversarial i64 input families every scan kernel is run over.
// Each family is generated at a sweep of lengths covering every tail
// shape of the widest vector (AVX2: 4 lanes) plus margin.
std::vector<std::vector<std::int64_t>> i64_families() {
  std::vector<std::vector<std::int64_t>> families;
  Rng rng(0x51B0);
  for (std::size_t n = 0; n <= 18; ++n) {
    std::vector<std::int64_t> increasing(n);
    for (std::size_t i = 0; i < n; ++i) {
      increasing[i] = static_cast<std::int64_t>(i) * 3 - 8;
    }
    families.push_back(increasing);
    families.push_back(std::vector<std::int64_t>(n, 0));
    families.push_back(std::vector<std::int64_t>(n, -1));  // all-ones bits
    families.push_back(std::vector<std::int64_t>(n, kI64Max));
    std::vector<std::int64_t> alternating(n);
    for (std::size_t i = 0; i < n; ++i) {
      alternating[i] = i % 2 == 0 ? kI64Min : kI64Max;
    }
    families.push_back(alternating);
    // A duplicate / order break planted at every position.
    for (std::size_t at = 1; at < n; ++at) {
      std::vector<std::int64_t> dup = increasing;
      dup[at] = dup[at - 1];
      families.push_back(dup);
      std::vector<std::int64_t> drop = increasing;
      drop[at] = drop[at - 1] - 1;
      families.push_back(drop);
    }
    std::vector<std::int64_t> random(n);
    for (auto& v : random) v = static_cast<std::int64_t>(rng.next());
    families.push_back(random);
  }
  // Extremes adjacent to each other, larger than any vector width.
  families.push_back({kI64Min, kI64Min + 1, -1, 0, 1, kI64Max - 1, kI64Max,
                      kI64Max, kI64Min, 7, 7, 7});
  return families;
}

class SimdLevelTest : public ::testing::TestWithParam<Level> {
 protected:
  Level level() const { return GetParam(); }
};

TEST_P(SimdLevelTest, StrictlyIncreasingMatchesReference) {
  for (const auto& a : i64_families()) {
    EXPECT_EQ(simd::is_strictly_increasing_i64(a.data(), a.size(), level()),
              ref_strictly_increasing(a))
        << "n=" << a.size();
  }
}

TEST_P(SimdLevelTest, FirstNotLessMatchesReference) {
  const auto families = i64_families();
  for (const auto& a : families) {
    const std::size_t n = a.size();
    // b = a + 1 everywhere (all less), then break it at each position,
    // including INT64_MAX entries where a[i] + 1 would overflow -- use
    // a saturating bump so b stays well-defined.
    std::vector<std::int64_t> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = a[i] == kI64Max ? kI64Max : a[i] + 1;
    }
    EXPECT_EQ(simd::first_not_less_i64(a.data(), b.data(), n, level()),
              ref_first_not_less(a, b))
        << "n=" << n;
    for (std::size_t at = 0; at < n; ++at) {
      std::vector<std::int64_t> broken = b;
      broken[at] = a[at];  // a[at] >= b[at] exactly here (maybe earlier too)
      EXPECT_EQ(
          simd::first_not_less_i64(a.data(), broken.data(), n, level()),
          ref_first_not_less(a, broken))
          << "n=" << n << " at=" << at;
    }
  }
}

TEST_P(SimdLevelTest, FirstMismatchMatchesReference) {
  for (std::size_t n = 0; n <= 37; ++n) {
    for (std::uint32_t expected : {0u, 1u, 0xFFFFFFFFu, 0x80000000u}) {
      std::vector<std::uint32_t> a(n, expected);
      EXPECT_EQ(simd::first_mismatch_u32(a.data(), n, expected, level()),
                ref_first_mismatch(a, expected))
          << "uniform n=" << n;
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<std::uint32_t> broken = a;
        broken[at] = ~expected;
        EXPECT_EQ(
            simd::first_mismatch_u32(broken.data(), n, expected, level()),
            ref_first_mismatch(broken, expected))
            << "n=" << n << " at=" << at;
      }
    }
  }
}

TEST_P(SimdLevelTest, ScansAcceptUnalignedBases) {
  // Element-offset slices of a bigger buffer: data() + k is 8-byte
  // aligned but deliberately NOT 16/32-byte aligned for most k, so the
  // vector loops must use unaligned loads. (Byte-misaligned int64_t
  // pointers would be UB to form; byte misalignment is exercised by
  // the strided gathers below, whose base is a byte pointer.)
  std::vector<std::int64_t> buffer(64 + 7);
  Rng rng(0xA11);
  for (auto& v : buffer) v = static_cast<std::int64_t>(rng.next());
  std::sort(buffer.begin(), buffer.end());
  for (std::size_t offset = 0; offset < 7; ++offset) {
    for (std::size_t n : {0ULL, 1ULL, 3ULL, 4ULL, 5ULL, 17ULL, 64ULL}) {
      std::vector<std::int64_t> window(buffer.begin() + offset,
                                       buffer.begin() + offset + n);
      EXPECT_EQ(
          simd::is_strictly_increasing_i64(buffer.data() + offset, n, level()),
          ref_strictly_increasing(window))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST_P(SimdLevelTest, GatherI64MatchesWireLoads) {
  // Random byte blobs read at the trace-record stride (33 bytes, so
  // consecutive records straddle every 16/32-byte boundary pattern)
  // and at dense / degenerate strides, from every byte offset 0..32 --
  // exactly the "records straddle block boundaries" shape of a mapped
  // segment, where base has no alignment at all.
  Rng rng(0x6A7);
  std::vector<unsigned char> blob(kBinaryTraceRecordBytes * 40 + 64);
  for (auto& byte : blob) byte = static_cast<unsigned char>(rng.next());
  for (std::size_t stride :
       {kBinaryTraceRecordBytes, std::size_t{8}, std::size_t{9},
        std::size_t{64}}) {
    for (std::size_t offset : {0ULL, 1ULL, 4ULL, 7ULL, 31ULL, 32ULL}) {
      for (std::size_t n : {0ULL, 1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 13ULL,
                            32ULL}) {
        if (offset + (n == 0 ? 0 : (n - 1) * stride + 8) > blob.size()) {
          continue;  // combination would read past the blob
        }
        std::vector<std::int64_t> out(n + 2, -7);  // canaries at the end
        simd::gather_i64_strided(blob.data() + offset, stride, n, out.data(),
                                 level());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], wire::load_i64(blob.data() + offset + i * stride))
              << "stride=" << stride << " offset=" << offset << " i=" << i;
        }
        EXPECT_EQ(out[n], -7) << "gather wrote past out[n)";
        EXPECT_EQ(out[n + 1], -7) << "gather wrote past out[n)";
      }
    }
  }
}

TEST_P(SimdLevelTest, GatherU32MatchesWireLoads) {
  Rng rng(0x6A8);
  std::vector<unsigned char> blob(kBinaryTraceRecordBytes * 40 + 64);
  for (auto& byte : blob) byte = static_cast<unsigned char>(rng.next());
  for (std::size_t stride :
       {kBinaryTraceRecordBytes, std::size_t{4}, std::size_t{5},
        std::size_t{64}}) {
    for (std::size_t offset : {0ULL, 1ULL, 3ULL, 15ULL, 16ULL, 33ULL}) {
      for (std::size_t n : {0ULL, 1ULL, 2ULL, 4ULL, 7ULL, 8ULL, 9ULL,
                            29ULL}) {
        if (offset + (n == 0 ? 0 : (n - 1) * stride + 4) > blob.size()) {
          continue;  // combination would read past the blob
        }
        std::vector<std::uint32_t> out(n + 2, 0xDEADBEEF);
        simd::gather_u32_strided(blob.data() + offset, stride, n, out.data(),
                                 level());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], wire::load_u32(blob.data() + offset + i * stride))
              << "stride=" << stride << " offset=" << offset << " i=" << i;
        }
        EXPECT_EQ(out[n], 0xDEADBEEF) << "gather wrote past out[n)";
        EXPECT_EQ(out[n + 1], 0xDEADBEEF) << "gather wrote past out[n)";
      }
    }
  }
}

TEST_P(SimdLevelTest, RandomizedDifferentialAgainstScalarLevel) {
  // Seeded sweep pitting this level directly against Level::scalar on
  // the same random arrays -- catches any divergence the curated
  // families miss. KAV_FUZZ_SEED reproduces a failing sweep.
  std::uint64_t seed = 0x51D;
  if (const char* env = std::getenv("KAV_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  Rng rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("KAV_FUZZ_SEED=" + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    const std::size_t n = rng.bounded(50);
    std::vector<std::int64_t> a(n);
    std::vector<std::int64_t> b(n);
    // Narrow value range so duplicates and order flips actually occur.
    for (auto& v : a) v = static_cast<std::int64_t>(rng.bounded(16)) - 8;
    for (auto& v : b) v = static_cast<std::int64_t>(rng.bounded(16)) - 8;
    if (rng.bernoulli(0.3)) std::sort(a.begin(), a.end());
    EXPECT_EQ(simd::is_strictly_increasing_i64(a.data(), n, level()),
              simd::is_strictly_increasing_i64(a.data(), n, Level::scalar));
    EXPECT_EQ(simd::first_not_less_i64(a.data(), b.data(), n, level()),
              simd::first_not_less_i64(a.data(), b.data(), n, Level::scalar));
    std::vector<std::uint32_t> u(n);
    for (auto& v : u) v = static_cast<std::uint32_t>(rng.bounded(3));
    EXPECT_EQ(simd::first_mismatch_u32(u.data(), n, 1, level()),
              simd::first_mismatch_u32(u.data(), n, 1, Level::scalar));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, SimdLevelTest,
    ::testing::Values(Level::scalar, Level::sse2, Level::avx2),
    [](const ::testing::TestParamInfo<Level>& info) {
      return simd::to_string(info.param);
    });

// --- Dispatch plumbing -----------------------------------------------------

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(simd::to_string(Level::scalar), "scalar");
  EXPECT_STREQ(simd::to_string(Level::sse2), "sse2");
  EXPECT_STREQ(simd::to_string(Level::avx2), "avx2");
}

TEST(SimdDispatch, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::supported(Level::scalar));
}

TEST(SimdDispatch, SupportedLevelsAreDownwardClosed) {
  // If avx2 runs here, sse2 must too: support can only shrink going up.
  if (simd::supported(Level::avx2)) {
    EXPECT_TRUE(simd::supported(Level::sse2));
  }
}

TEST(SimdDispatch, ActiveLevelIsSupportedAndCompiled) {
  const Level active = simd::active_level();
  EXPECT_TRUE(simd::supported(active));
  EXPECT_LE(static_cast<int>(active),
            static_cast<int>(simd::max_compiled_level()));
  // The cached read is stable across calls.
  EXPECT_EQ(simd::active_level(), active);
}

TEST(SimdDispatch, ForceScalarPinsActiveLevel) {
  // active_level() caches its first read of KAV_FORCE_SCALAR, so this
  // test can only assert the pin when the environment set it before
  // the process started (the ci.sh sanitizer job does); otherwise it
  // documents the contract by checking the level is the hardware one.
  const char* forced = std::getenv("KAV_FORCE_SCALAR");
  if (forced != nullptr && forced[0] != '\0' &&
      std::string(forced) != "0") {
    EXPECT_EQ(simd::active_level(), Level::scalar);
  } else {
    EXPECT_EQ(simd::active_level(),
              simd::supported(Level::avx2)   ? Level::avx2
              : simd::supported(Level::sse2) ? Level::sse2
                                             : Level::scalar);
  }
}

TEST(SimdDispatch, UnsupportedLevelDegradesToReferenceResults) {
  // Explicitly requesting a level the build/CPU lacks must degrade,
  // not crash or diverge: compare against scalar on a sorted array.
  std::vector<std::int64_t> a{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<std::int64_t> b{2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (Level level : {Level::sse2, Level::avx2}) {
    EXPECT_TRUE(simd::is_strictly_increasing_i64(a.data(), a.size(), level));
    EXPECT_EQ(simd::first_not_less_i64(a.data(), b.data(), a.size(), level),
              a.size());
  }
}

}  // namespace
}  // namespace kav
