// Tests for the analysis module: staleness spectra over witnesses and
// structural zone profiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/analysis.h"
#include "core/fzf.h"
#include "core/gk.h"
#include "core/minimal_k.h"
#include "core/oracle.h"
#include "gen/generators.h"
#include "history/history.h"
#include "reference_fzf.h"
#include "util/rng.h"

namespace kav {
namespace {

TEST(StalenessSpectrum, AtomicWitnessIsAllFresh) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  b.write(30, 40, 2);
  b.read(42, 50, 2);
  const History h = b.build();
  const Verdict v = check_1atomicity_gk(h);
  ASSERT_TRUE(v.yes());
  const StalenessSpectrum spectrum = staleness_spectrum(h, v.witness);
  EXPECT_EQ(spectrum.reads, 2u);
  EXPECT_EQ(spectrum.max_separation, 0);
  EXPECT_DOUBLE_EQ(spectrum.fresh_fraction, 1.0);
  EXPECT_DOUBLE_EQ(spectrum.mean_separation, 0.0);
}

TEST(StalenessSpectrum, CountsSeparations) {
  HistoryBuilder b;
  const OpId w1 = b.write(0, 10, 1);
  const OpId w2 = b.write(20, 30, 2);
  const OpId r1 = b.read(40, 50, 1);  // one write (w2) between
  const OpId r2 = b.read(52, 60, 2);  // fresh
  const History h = b.build();
  const std::vector<OpId> order{w1, w2, r1, r2};
  const StalenessSpectrum spectrum = staleness_spectrum(h, order);
  ASSERT_EQ(spectrum.histogram.size(), 2u);
  EXPECT_EQ(spectrum.histogram[0], 1u);
  EXPECT_EQ(spectrum.histogram[1], 1u);
  EXPECT_EQ(spectrum.max_separation, 1);
  EXPECT_DOUBLE_EQ(spectrum.mean_separation, 0.5);
  EXPECT_DOUBLE_EQ(spectrum.fresh_fraction, 0.5);
}

TEST(StalenessSpectrum, RejectsInvalidWitness) {
  HistoryBuilder b;
  const OpId w1 = b.write(0, 10, 1);
  const OpId r1 = b.read(12, 20, 1);
  const History h = b.build();
  EXPECT_THROW(staleness_spectrum(h, std::vector<OpId>{r1, w1}),
               std::invalid_argument);
  EXPECT_THROW(staleness_spectrum(h, std::vector<OpId>{w1}),
               std::invalid_argument);
}

TEST(StalenessSpectrum, MaxSeparationMatchesMinimalKOnMinimalWitness) {
  // For the oracle's witness at the minimal k, max separation = k - 1.
  Rng rng(66);
  for (int t = 0; t < 40; ++t) {
    gen::RandomMixConfig config;
    config.operations = 10;
    config.staleness_decay = 0.6;
    const History h = gen::generate_random_mix(config, rng);
    const MinimalKResult min_k = minimal_k(h);
    ASSERT_TRUE(min_k.exact);
    const Verdict r = oracle_is_k_atomic(h, min_k.k);
    ASSERT_TRUE(r.yes());
    const StalenessSpectrum spectrum = staleness_spectrum(h, r.witness);
    EXPECT_LE(spectrum.max_separation, min_k.k - 1);
    if (min_k.k > 1 && spectrum.reads > 0) {
      // The witness realizes the bound somewhere (else k would be
      // smaller... not strictly: the oracle may find slack witnesses;
      // assert only the upper bound plus non-degeneracy).
      EXPECT_GE(spectrum.max_separation, 0);
    }
  }
}

TEST(ZoneProfile, CountsStructures) {
  const History h = gen::generate_b3_chunk(4);
  const ZoneProfile profile = zone_profile(h);
  EXPECT_EQ(profile.clusters, 7u);  // 3 forward + 4 backward
  EXPECT_EQ(profile.forward_zones, 3u);
  EXPECT_EQ(profile.backward_zones, 4u);
  EXPECT_EQ(profile.chunks, 1u);
  EXPECT_EQ(profile.dangling, 0u);
  EXPECT_EQ(profile.largest_chunk_clusters, 7u);
  EXPECT_EQ(profile.max_backward_per_chunk, 4u);
}

TEST(ZoneProfile, EmptyHistory) {
  const ZoneProfile profile = zone_profile(History{});
  EXPECT_EQ(profile.clusters, 0u);
  EXPECT_EQ(profile.chunks, 0u);
}

TEST(ZoneProfile, ReportsConcurrencyKnob) {
  Rng rng(3);
  gen::KAtomicConfig tight;
  tight.writes = 40;
  tight.spread = 0.2;
  const ZoneProfile low_c =
      zone_profile(gen::generate_k_atomic(tight, rng).history);
  const History clumped = gen::generate_high_concurrency(2, 12, rng);
  const ZoneProfile high_c = zone_profile(clumped);
  EXPECT_LT(low_c.max_concurrent_writes, high_c.max_concurrent_writes);
  EXPECT_EQ(high_c.max_concurrent_writes, 12u);
}

// ZoneProfile reads its chunk fields off FZF's Stage-1 partition, the
// one implementation of the chunk-merging rule. These cases check them
// against the materializing chunk set FZF used before (kept test-only
// in reference_fzf.h), an independent implementation of that rule.
std::string profile_mismatch(const History& h) {
  const ZoneProfile profile = zone_profile(h);
  const reference::ChunkSet set = reference::compute_chunk_set(h);
  std::size_t forward = 0;
  std::size_t contained = 0;
  std::size_t largest = 0;
  std::size_t max_backward = 0;
  for (const reference::Chunk& chunk : set.chunks) {
    forward += chunk.forward_writes.size();
    contained += chunk.backward_writes.size();
    largest = std::max(largest, chunk.forward_writes.size() +
                                    chunk.backward_writes.size());
    max_backward = std::max(max_backward, chunk.backward_writes.size());
  }
  if (profile.chunks != set.chunks.size()) return "chunks";
  if (profile.dangling != set.dangling_writes.size()) return "dangling";
  if (profile.forward_zones != forward) return "forward_zones";
  if (profile.backward_zones != contained + set.dangling_writes.size()) {
    return "backward_zones";
  }
  if (profile.largest_chunk_clusters != largest) return "largest";
  if (profile.max_backward_per_chunk != max_backward) return "max_backward";
  // The partition overload must read the same partition the same way.
  ChunkPartition partition;
  partition_chunks(compute_zones(h), partition);
  const ZoneProfile shared = zone_profile(h, partition);
  if (shared.chunks != profile.chunks ||
      shared.largest_chunk_clusters != profile.largest_chunk_clusters ||
      shared.max_backward_per_chunk != profile.max_backward_per_chunk) {
    return "partition overload";
  }
  return "";
}

TEST(ChunkStats, MatchesChunkSetOnCuratedShapes) {
  for (const History& h :
       {gen::generate_b3_chunk(3), gen::generate_b3_chunk(4),
        gen::generate_property_p_triple(), gen::generate_property_p_fan(5),
        gen::generate_forced_separation(3, 2), History{}}) {
    EXPECT_EQ(profile_mismatch(h), "");
  }
}

TEST(ChunkStats, MatchesChunkSetOnRandomHistories) {
  Rng rng(0xC45);
  for (int trial = 0; trial < 50; ++trial) {
    gen::RandomMixConfig config;
    config.operations = 10 + static_cast<int>(rng.bounded(80));
    const History h = gen::generate_random_mix(config, rng);
    ASSERT_EQ(profile_mismatch(h), "") << "trial " << trial;
  }
}

TEST(ZoneProfile, ToStringMentionsCounts) {
  const History h = gen::generate_b3_chunk(3);
  const std::string text = zone_profile(h).to_string();
  EXPECT_NE(text.find("chunks"), std::string::npos);
  EXPECT_NE(text.find("backward"), std::string::npos);
}

}  // namespace
}  // namespace kav
