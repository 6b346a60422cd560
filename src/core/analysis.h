// Analysis utilities on top of the deciders, serving the paper's second
// stated purpose of verification (Section I): knowing whether a system
// provides *more* consistency than an application needs, so operational
// knobs can be relaxed.
//
//   - StalenessSpectrum: given a history and a witness total order,
//     the distribution of read staleness (how many writes separate each
//     read from its dictating write in that order). The minimal-k
//     witness makes this the tightest spectrum any explanation of the
//     trace supports.
//   - ZoneProfile: structural statistics of a history's zones and
//     chunks -- the quantities FZF's complexity depends on, useful for
//     predicting which decider (LBT vs FZF) will be faster.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_ANALYSIS_H
#define KAV_CORE_ANALYSIS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "history/history.h"
#include "util/time_types.h"

namespace kav {

struct ChunkPartition;

struct StalenessSpectrum {
  // histogram[s] = number of reads separated from their dictating write
  // by exactly s other writes in the witness order.
  std::vector<std::uint64_t> histogram;
  std::uint64_t reads = 0;
  int max_separation = 0;        // = minimal k - 1 for a minimal witness
  double mean_separation = 0.0;
  double fresh_fraction = 0.0;   // reads with separation 0

  std::string to_string() const;
};

// Requires `order` to be a valid witness (validate_witness(...).ok());
// throws std::invalid_argument otherwise -- a spectrum over an invalid
// explanation would be meaningless.
StalenessSpectrum staleness_spectrum(const History& history,
                                     std::span<const OpId> order);

struct ZoneProfile {
  std::size_t clusters = 0;
  std::size_t forward_zones = 0;
  std::size_t backward_zones = 0;
  std::size_t chunks = 0;
  std::size_t dangling = 0;
  std::size_t largest_chunk_clusters = 0;   // FZF's n_K
  std::size_t max_backward_per_chunk = 0;   // >= 3 implies not 2-atomic
  std::size_t max_concurrent_writes = 0;    // LBT's c
  double mean_reads_per_write = 0.0;

  std::string to_string() const;
};

// Reads the chunk fields off FZF's Stage-1 partition (core/fzf.h), the
// one implementation of the chunk-merging rule.
ZoneProfile zone_profile(const History& history);
// Same over a partition the caller already computed from this
// history's zones; auto dispatch then hands that partition to FZF.
ZoneProfile zone_profile(const History& history,
                         const ChunkPartition& partition);

}  // namespace kav

#endif  // KAV_CORE_ANALYSIS_H
