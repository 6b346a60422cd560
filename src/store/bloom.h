// The v2.1 segment bloom filter (docs/FORMATS.md, "bloom page"): one
// per segment, over the segment's key set, so cross-segment lookups
// (IndexedTraceSource's stat/load_key) skip
// segments that cannot hold the key without touching their key
// tables. The win is not asymptotic -- a lookup still
// visits every segment -- but the per-segment cost drops from a
// string hash + table probe to k bit tests against an already-derived
// probe, which is what keeps single-key stat over 1000 segments ~flat
// (bench/bench_store.cpp tracks it).
//
// Derivation is double hashing over wire.h's pinned functions, so it
// is part of the on-disk format:
//   h1    = fnv1a64(key bytes)
//   h2    = splitmix64(h1) | 1          (odd, so probes cycle all bits)
//   bit_i = (h1 + i * h2) mod m_bits    for i in [0, k)
// A bit b lives in byte bits[b >> 3], mask 1 << (b & 7).
#ifndef KAV_STORE_BLOOM_H
#define KAV_STORE_BLOOM_H

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ingest/wire.h"

namespace kav {

// A key's two derived hashes -- computed once per lookup, probed
// against any number of segments' pages.
struct BloomProbe {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 1;
};

inline BloomProbe bloom_probe(std::string_view key) {
  BloomProbe probe;
  probe.h1 = wire::fnv1a64(key.data(), key.size());
  probe.h2 = wire::splitmix64(probe.h1) | 1;
  return probe;
}

// ~10 bits per key, k = 7 probes: ~0.8% false positives. m is rounded
// up to a whole number of bytes and floored at 64 bits so tiny
// segments still get a real filter.
inline constexpr std::size_t kBloomBitsPerKey = 10;
inline constexpr std::uint32_t kBloomHashes = 7;

// True when the page MAY contain the key; false is definitive. A page
// with m_bits == 0 holds no keys.
inline bool bloom_maybe_contains(const unsigned char* bits,
                                 std::uint64_t m_bits, std::uint32_t k,
                                 const BloomProbe& probe) {
  if (m_bits == 0) return false;
  std::uint64_t h = probe.h1;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::uint64_t bit = h % m_bits;
    if ((bits[bit >> 3] & (1u << (bit & 7))) == 0) return false;
    h += probe.h2;
  }
  return true;
}

// Build side (SegmentWriter::finish). Sized from the final key count,
// so the writer adds every key right before sealing.
class BloomBuilder {
 public:
  explicit BloomBuilder(std::size_t keys) {
    if (keys > 0) {
      std::uint64_t bits = static_cast<std::uint64_t>(keys) * kBloomBitsPerKey;
      if (bits < 64) bits = 64;
      m_bits_ = (bits + 7) & ~std::uint64_t{7};  // whole bytes
      bytes_.resize(static_cast<std::size_t>(m_bits_ / 8), 0);
    }
  }

  void add(std::string_view key) {
    if (m_bits_ == 0) return;
    const BloomProbe probe = bloom_probe(key);
    std::uint64_t h = probe.h1;
    for (std::uint32_t i = 0; i < kBloomHashes; ++i) {
      const std::uint64_t bit = h % m_bits_;
      bytes_[static_cast<std::size_t>(bit >> 3)] |=
          static_cast<unsigned char>(1u << (bit & 7));
      h += probe.h2;
    }
  }

  std::uint64_t m_bits() const { return m_bits_; }
  std::uint32_t hashes() const { return m_bits_ == 0 ? 0 : kBloomHashes; }
  const std::vector<unsigned char>& bytes() const { return bytes_; }

 private:
  std::uint64_t m_bits_ = 0;
  std::vector<unsigned char> bytes_;
};

}  // namespace kav

#endif  // KAV_STORE_BLOOM_H
