// Test-only reference: the FZF decider that core/fzf.cpp replaced with
// its flat, allocation-free stages, kept verbatim (renamed into
// kav::reference, functions made inline, the counters-only
// compute_chunk_stats mirror dropped) so fzf_fuzz_test.cpp can pin the
// flat implementation to it bit for bit -- outcome, reason, witness,
// conflict and every VerifyStats field.
//
// Stage 1 materializes one vector per chunk, Stage 2 builds a fresh
// ViabilityCheck per chunk and up to four candidate-order vectors, and
// Stage 3 recomputes each dangling cluster's zone and sorts.
#ifndef KAV_TESTS_REFERENCE_FZF_H
#define KAV_TESTS_REFERENCE_FZF_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/fzf.h"
#include "core/verdict.h"
#include "history/anomaly.h"
#include "history/cluster.h"
#include "history/history.h"
#include "util/interval_set.h"

namespace kav::reference {

struct Chunk {
  // Dictating writes of forward clusters, ordered by zone low endpoint
  // (the order T_F is exactly this sequence).
  std::vector<OpId> forward_writes;
  // Dictating writes of backward clusters contained in the extent.
  std::vector<OpId> backward_writes;
  // Union of the forward zones (continuous by construction).
  Interval extent;
};

struct ChunkSet {
  std::vector<Chunk> chunks;          // ordered along the timeline
  std::vector<OpId> dangling_writes;  // backward clusters outside chunks
};

namespace {

constexpr std::int32_t kNone = -1;

// Viability subroutine (Section IV-A / proof of Theorem 4.6): given the
// chunk's operations sorted by start time and a candidate total order T
// over *all* dictating writes of the chunk, decide whether T extends to
// a valid 2-atomic total order over the chunk's operations, and build
// that order. Processes T back to front with no backtracking: at the
// step for write w with predecessor p in T, every remaining operation
// starting after w.finish must be a read dictated by w or by p (a
// remaining *write* there also refutes T, which subsumes checking that
// T is a valid order). Cost O(n_K).
class ViabilityCheck {
 public:
  // chunk_ops: the chunk's operation ids sorted by start time.
  // local_pos: scratch map OpId -> position in chunk_ops (only entries
  // for chunk_ops members are valid).
  ViabilityCheck(const History& history, const std::vector<OpId>& chunk_ops,
                 const std::vector<std::int32_t>& local_pos)
      : history_(history), ops_(chunk_ops), pos_(local_pos) {}

  bool viable(const std::vector<OpId>& order, std::vector<OpId>* out_order) {
    build_lists();
    std::vector<OpId> reversed;  // segments, back to front
    reversed.reserve(ops_.size());

    for (std::size_t j = order.size(); j-- > 0;) {
      const OpId w = order[j];
      const OpId pred = j > 0 ? order[j - 1] : kInvalidOp;
      const TimePoint w_finish = history_.op(w).finish;

      // `reversed` is the final order written backwards, so within it a
      // segment must read: descending-start reads, then w. Reads
      // strictly after w come off the tail scan already descending.
      for (std::int32_t p = tail_; p != kNone && start_of(p) > w_finish;) {
        const std::int32_t next = prev_[p];
        const OpId op = ops_[p];
        if (history_.op(op).is_write()) return false;
        const OpId dictating = history_.dictating_write(op);
        if (dictating != w && dictating != pred) return false;
        unlink(p);
        unlink_read(p);
        reversed.push_back(op);
        p = next;
      }
      // Remaining reads of w all start before w.finish (smaller than
      // every scanned read); the read list yields them ascending, so
      // flip that block to keep `reversed` descending overall.
      const std::size_t remaining_begin = reversed.size();
      for (std::int32_t p = read_head_[pos_[w]]; p != kNone;) {
        const std::int32_t next = read_next_[p];
        unlink(p);
        unlink_read(p);
        reversed.push_back(ops_[p]);
        p = next;
      }
      std::reverse(reversed.begin() + remaining_begin, reversed.end());
      unlink(pos_[w]);
      reversed.push_back(w);
    }

    if (out_order != nullptr) {
      out_order->assign(reversed.rbegin(), reversed.rend());
    }
    return true;
  }

 private:
  TimePoint start_of(std::int32_t p) const { return history_.op(ops_[p]).start; }

  void build_lists() {
    const auto n = static_cast<std::int32_t>(ops_.size());
    prev_.assign(n, kNone);
    next_.assign(n, kNone);
    read_prev_.assign(n, kNone);
    read_next_.assign(n, kNone);
    read_head_.assign(n, kNone);
    read_tail_.assign(n, kNone);
    for (std::int32_t p = 0; p < n; ++p) {
      prev_[p] = p - 1;
      next_[p] = p + 1 < n ? p + 1 : kNone;
    }
    head_ = n > 0 ? 0 : kNone;
    tail_ = n - 1;
    // Dictated-read lists in start order (ops_ is start-sorted).
    for (std::int32_t p = 0; p < n; ++p) {
      const OpId op = ops_[p];
      if (history_.op(op).is_write()) continue;
      const std::int32_t wp = pos_[history_.dictating_write(op)];
      if (read_tail_[wp] == kNone) {
        read_head_[wp] = p;
      } else {
        read_next_[read_tail_[wp]] = p;
        read_prev_[p] = read_tail_[wp];
      }
      read_tail_[wp] = p;
    }
  }

  void unlink(std::int32_t p) {
    if (prev_[p] == kNone) {
      head_ = next_[p];
    } else {
      next_[prev_[p]] = next_[p];
    }
    if (next_[p] == kNone) {
      tail_ = prev_[p];
    } else {
      prev_[next_[p]] = prev_[p];
    }
  }

  void unlink_read(std::int32_t p) {
    const OpId op = ops_[p];
    if (history_.op(op).is_write()) return;
    const std::int32_t wp = pos_[history_.dictating_write(op)];
    if (read_prev_[p] == kNone) {
      read_head_[wp] = read_next_[p];
    } else {
      read_next_[read_prev_[p]] = read_next_[p];
    }
    if (read_next_[p] == kNone) {
      read_tail_[wp] = read_prev_[p];
    } else {
      read_prev_[read_next_[p]] = read_prev_[p];
    }
  }

  const History& history_;
  const std::vector<OpId>& ops_;
  const std::vector<std::int32_t>& pos_;
  std::vector<std::int32_t> prev_, next_, read_prev_, read_next_;
  std::vector<std::int32_t> read_head_, read_tail_;
  std::int32_t head_ = kNone, tail_ = kNone;
};

}  // namespace

inline ChunkSet compute_chunk_set(const History& history,
                                  const std::vector<Zone>& zones);

inline ChunkSet compute_chunk_set(const History& history) {
  return compute_chunk_set(history, compute_zones(history));
}

inline ChunkSet compute_chunk_set(const History&,
                           const std::vector<Zone>& zones) {  // sorted by low
  ChunkSet result;

  // Maximal runs of transitively overlapping forward zones. Endpoints
  // are distinct, so "continuous union" is plain interval merging with
  // strict overlap.
  for (const Zone& z : zones) {
    if (!z.forward) continue;
    if (!result.chunks.empty() && z.low() < result.chunks.back().extent.hi) {
      Chunk& chunk = result.chunks.back();
      chunk.forward_writes.push_back(z.write);
      chunk.extent.hi = std::max(chunk.extent.hi, z.high());
    } else {
      result.chunks.push_back(Chunk{{z.write}, {}, z.interval()});
    }
  }

  // Backward clusters: contained in some chunk's extent, or dangling.
  // Chunks are disjoint and sorted, so binary search by low endpoint.
  for (const Zone& z : zones) {
    if (z.forward) continue;
    auto it = std::upper_bound(
        result.chunks.begin(), result.chunks.end(), z.low(),
        [](TimePoint t, const Chunk& c) { return t < c.extent.lo; });
    if (it != result.chunks.begin() &&
        (it - 1)->extent.contains(z.interval())) {
      (it - 1)->backward_writes.push_back(z.write);
    } else {
      result.dangling_writes.push_back(z.write);
    }
  }
  return result;
}

// The precondition pass the library's FZF dropped (callers gate their
// input now, core/verify.h's detail::gate), kept as a local flag.
struct FzfOptions {
  bool check_preconditions = true;
};

inline Verdict check_2atomicity_fzf(const History& history,
                                    const FzfOptions& options = {}) {
  if (options.check_preconditions) {
    const AnomalyReport report = find_anomalies(history);
    if (!report.empty()) {
      return Verdict::make_precondition_failed(
          "history must be normalized and anomaly-free: " +
          describe(report.anomalies.front(), history));
    }
  }
  if (history.empty()) return Verdict::make_yes({});

  VerifyStats stats;

  // ---- Stage 1 ----
  const ChunkSet chunk_set = compute_chunk_set(history);
  stats.chunks = chunk_set.chunks.size();
  stats.dangling = chunk_set.dangling_writes.size();

  // Bucket every operation into its chunk (or dangling cluster), in
  // start order, so per-chunk op lists are start-sorted for free.
  // element id: chunk index, or chunks.size() + dangling index.
  const std::size_t num_elements =
      chunk_set.chunks.size() + chunk_set.dangling_writes.size();
  std::vector<std::int32_t> element_of_write(history.size(), kNone);
  for (std::size_t c = 0; c < chunk_set.chunks.size(); ++c) {
    for (OpId w : chunk_set.chunks[c].forward_writes) {
      element_of_write[w] = static_cast<std::int32_t>(c);
    }
    for (OpId w : chunk_set.chunks[c].backward_writes) {
      element_of_write[w] = static_cast<std::int32_t>(c);
    }
  }
  for (std::size_t d = 0; d < chunk_set.dangling_writes.size(); ++d) {
    element_of_write[chunk_set.dangling_writes[d]] =
        static_cast<std::int32_t>(chunk_set.chunks.size() + d);
  }
  std::vector<std::vector<OpId>> element_ops(num_elements);
  for (OpId op : history.by_start()) {
    const OpId cluster_write = history.op(op).is_write()
                                   ? op
                                   : history.dictating_write(op);
    element_ops[element_of_write[cluster_write]].push_back(op);
  }

  // ---- Stage 2 ----
  std::vector<std::int32_t> local_pos(history.size(), kNone);
  std::vector<std::vector<OpId>> element_order(num_elements);
  for (std::size_t c = 0; c < chunk_set.chunks.size(); ++c) {
    const Chunk& chunk = chunk_set.chunks[c];

    // Lemma 4.3, case B >= 3: not 2-atomic, no orders to try.
    if (chunk.backward_writes.size() >= 3) {
      Verdict verdict = Verdict::make_no(
          "chunk with " + std::to_string(chunk.backward_writes.size()) +
              " backward clusters (>= 3) cannot be 2-atomic (Lemma 4.3)",
          stats);
      verdict.conflict = element_ops[c];
      return verdict;
    }

    const std::vector<OpId>& tf = chunk.forward_writes;
    std::vector<OpId> tf_prime = tf;
    if (tf_prime.size() >= 2) std::swap(tf_prime[0], tf_prime[1]);

    // Candidate orders S per Figure 4.
    std::vector<std::vector<OpId>> orders;
    auto add_order = [&orders](std::vector<OpId> base, OpId front, OpId back) {
      std::vector<OpId> order;
      if (front != kInvalidOp) order.push_back(front);
      order.insert(order.end(), base.begin(), base.end());
      if (back != kInvalidOp) order.push_back(back);
      orders.push_back(std::move(order));
    };
    const bool distinct_tf = tf_prime != tf;
    if (chunk.backward_writes.empty()) {
      add_order(tf, kInvalidOp, kInvalidOp);
      if (distinct_tf) add_order(tf_prime, kInvalidOp, kInvalidOp);
    } else if (chunk.backward_writes.size() == 1) {
      const OpId w = chunk.backward_writes[0];
      add_order(tf, w, kInvalidOp);
      add_order(tf, kInvalidOp, w);
      if (distinct_tf) {
        add_order(tf_prime, w, kInvalidOp);
        add_order(tf_prime, kInvalidOp, w);
      }
    } else {
      const OpId w1 = chunk.backward_writes[0];
      const OpId w2 = chunk.backward_writes[1];
      add_order(tf, w1, w2);
      add_order(tf, w2, w1);
      if (distinct_tf) {
        add_order(tf_prime, w1, w2);
        add_order(tf_prime, w2, w1);
      }
    }

    // Try each order with the viability subroutine.
    const std::vector<OpId>& chunk_ops = element_ops[c];
    for (std::size_t p = 0; p < chunk_ops.size(); ++p) {
      local_pos[chunk_ops[p]] = static_cast<std::int32_t>(p);
    }
    ViabilityCheck checker(history, chunk_ops, local_pos);
    bool chunk_ok = false;
    for (const std::vector<OpId>& order : orders) {
      ++stats.orders_tested;
      if (checker.viable(order, &element_order[c])) {
        chunk_ok = true;
        break;
      }
    }
    if (!chunk_ok) {
      Verdict verdict = Verdict::make_no(
          "chunk over [" + std::to_string(chunk.extent.lo) + ", " +
              std::to_string(chunk.extent.hi) + "] with " +
              std::to_string(tf.size()) + " forward and " +
              std::to_string(chunk.backward_writes.size()) +
              " backward clusters admits no viable write order",
          stats);
      verdict.conflict = element_ops[c];
      return verdict;
    }
  }

  // Dangling backward clusters: write followed by its reads in start
  // order is always a valid 1-atomic (hence 2-atomic) order for the
  // cluster in isolation.
  for (std::size_t d = 0; d < chunk_set.dangling_writes.size(); ++d) {
    const OpId w = chunk_set.dangling_writes[d];
    std::vector<OpId>& order = element_order[chunk_set.chunks.size() + d];
    order.push_back(w);
    for (OpId r : history.dictated_reads(w)) order.push_back(r);
  }

  // ---- Stage 3 ----
  // Assemble the global witness: order elements (chunks and dangling
  // clusters) by low endpoint, which extends the <=_H relation of
  // Lemma 4.1, and concatenate their orders.
  std::vector<std::pair<TimePoint, std::size_t>> element_lows;
  element_lows.reserve(num_elements);
  for (std::size_t c = 0; c < chunk_set.chunks.size(); ++c) {
    element_lows.emplace_back(chunk_set.chunks[c].extent.lo, c);
  }
  for (std::size_t d = 0; d < chunk_set.dangling_writes.size(); ++d) {
    const Zone zone = compute_zone(history, chunk_set.dangling_writes[d]);
    element_lows.emplace_back(zone.low(), chunk_set.chunks.size() + d);
  }
  std::sort(element_lows.begin(), element_lows.end());

  std::vector<OpId> witness;
  witness.reserve(history.size());
  for (const auto& [low, element] : element_lows) {
    witness.insert(witness.end(), element_order[element].begin(),
                   element_order[element].end());
  }
  return Verdict::make_yes(std::move(witness), stats);
}

}  // namespace kav::reference

#endif  // KAV_TESTS_REFERENCE_FZF_H
