// FZF ("Forward Zones First"), the paper's second 2-AV algorithm
// (Section IV, Figures 3 and 4), O(n log n) even in the worst case
// (Theorem 4.6).
//
// Stage 1 partitions the history's clusters into *maximal chunks*: sets
// of clusters whose forward zones union to a continuous interval and
// whose backward zones lie inside that interval; backward clusters in
// no chunk are *dangling*. Stage 2 decides each chunk independently
// (Lemma 4.1): the only viable orders over a chunk's forward-cluster
// writes are T_F (by zone low endpoint) and T_F' (first two swapped)
// (Lemma 4.2); dictating writes of backward clusters can only be
// prepended or appended, one at each end at most, so a chunk with three
// or more backward clusters is not 2-atomic (Lemma 4.3). Each of the at
// most four resulting orders is tested by a viability subroutine -- a
// simplified LBT that walks the order back to front without
// backtracking. Stage 3 outputs YES iff every chunk passed, with a
// witness assembled by concatenating per-chunk and per-dangling-cluster
// orders along the timeline (the construction in Lemma 4.1's proof).
//
// Every stage is flat, so a call allocates a constant number of
// buffers whatever its chunk count: Stage 1 writes the partition below
// in one pass over the zones; chunk operations are bucketed in CSR form
// in one pass over by_start; one viability checker, grown to the
// largest chunk, and one candidate-order buffer serve every chunk; each
// accepted order lands in place in a flat buffer laid out like the
// buckets; and Stage 3 merges two already-sorted runs (chunk extents,
// dangling lows).
//
// Input contract: an anomaly-free, normalized history (Section II-C).
// FZF does not check it; on other input its verdict is meaningless.
// verify_k_atomicity is the checked entry point.
//
// Paper-section map and guarantees for every procedure: docs/ALGORITHMS.md.
#ifndef KAV_CORE_FZF_H
#define KAV_CORE_FZF_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/verdict.h"
#include "history/cluster.h"
#include "history/history.h"
#include "util/interval_set.h"

namespace kav {

// Stage 1's partition, flat: chunk c has extent extents[c], forward
// writes forward(c) ordered by zone low endpoint (exactly T_F), and the
// backward writes contained in its extent, backward(c), in zone order.
// Chunks lie along the timeline (extent lows strictly increase);
// dangling backward clusters keep their zone low so Stage 3 can merge
// them with the chunks without recomputing a zone. partition_chunks is
// the only implementation of the chunk-merging rule: zone_profile reads
// its counts from it, auto dispatch at k = 2 hands the same partition
// to FZF, and the streaming checker refills one partition per sweep
// over its settled clusters (core/streaming.cpp).
struct ChunkPartition {
  std::vector<Interval> extents;
  std::vector<std::uint32_t> forward_begin{0};   // chunks + 1 offsets
  std::vector<OpId> forward_writes;
  std::vector<std::uint32_t> backward_begin{0};  // chunks + 1 offsets
  std::vector<OpId> backward_writes;
  std::vector<OpId> dangling_writes;   // in zone order
  std::vector<TimePoint> dangling_lows;

  std::size_t chunk_count() const { return extents.size(); }
  std::span<const OpId> forward(std::size_t c) const {
    return std::span<const OpId>(forward_writes)
        .subspan(forward_begin[c], forward_begin[c + 1] - forward_begin[c]);
  }
  std::span<const OpId> backward(std::size_t c) const {
    return std::span<const OpId>(backward_writes)
        .subspan(backward_begin[c], backward_begin[c + 1] - backward_begin[c]);
  }
};

// Stage 1 in one pass over `zones`: clears `out` and refills it, so a
// caller that keeps one partition keeps its buffers' capacity.
// Contract: `zones` are sorted by low endpoint, ties in any fixed
// order. Every comparison is strict (a forward zone joins the open
// chunk only if its low is below the extent's high; a backward zone is
// contained only strictly inside an extent), so raw zones with shared
// endpoints partition deterministically. Zone::write is an opaque tag,
// passed through to the partition unread. compute_zones(history) of a
// normalized history satisfies this; so do the streaming checker's
// raw, not normalized, cluster zones tagged with their slots.
void partition_chunks(std::span<const Zone> zones, ChunkPartition& out);

Verdict check_2atomicity_fzf(const History& history);
// Same, deciding over a partition the caller already computed from
// this history's zones (auto dispatch shares the one zone_profile used).
Verdict check_2atomicity_fzf(const History& history,
                             const ChunkPartition& partition);

}  // namespace kav

#endif  // KAV_CORE_FZF_H
