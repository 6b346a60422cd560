// Deterministic, seedable random number generation.
//
// All randomness in the library (generators, simulator, benchmarks)
// flows through Rng so every experiment is reproducible from a seed.
// The engine is xoshiro256++ seeded via splitmix64, which is fast,
// high-quality, and has a trivially portable implementation -- we avoid
// std::mt19937 so that streams are identical across standard libraries.
#ifndef KAV_UTIL_RNG_H
#define KAV_UTIL_RNG_H

#include <array>
#include <cstdint>

#include "util/time_types.h"

namespace kav {

inline constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next());  // full range
    return lo + static_cast<std::int64_t>(bounded(span));
  }

  // Uniform in [0, n). Requires n > 0. Uses Lemire-style rejection to
  // avoid modulo bias.
  std::uint64_t bounded(std::uint64_t n) {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  double uniform_double() {  // [0, 1)
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int s) {
    return (x << s) | (x >> (64 - s));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace kav

#endif  // KAV_UTIL_RNG_H
