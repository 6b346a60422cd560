#include "core/fzf.h"

#include <algorithm>
#include <cstdint>
#include <string>


namespace kav {

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
//
// One instance serves a whole FZF call: load() switches it to the next
// chunk, and its arrays only ever grow, to the largest chunk's size.
class ViabilityCheck {
 public:
  explicit ViabilityCheck(const History& history) : history_(history) {}

  // ops: the chunk's operation ids sorted by start time. slot: scratch
  // indexed by OpId; load() stores each chunk write's position in ops
  // there, and viable() looks the order's writes up in it.
  void load(std::span<const OpId> ops, std::vector<std::int32_t>& slot) {
    ops_ = ops;
    slot_ = &slot;
    if (nodes_.size() < ops.size()) nodes_.resize(ops.size());
    for (std::size_t p = 0; p < ops.size(); ++p) {
      const OpId id = ops[p];
      nodes_[p].start = history_.start(id);
      if (history_.is_write(id)) slot[id] = static_cast<std::int32_t>(p);
    }
    // A read's owner is its dictating write's position; writes own
    // nothing (kNone).
    for (std::size_t p = 0; p < ops.size(); ++p) {
      nodes_[p].owner = history_.is_write(ops[p])
                            ? kNone
                            : slot[history_.dictating_write(ops[p])];
    }
  }

  // On success writes the chunk's order into out (out.size() equals the
  // chunk's operation count). out is filled back to front, so a refuted
  // order leaves garbage there for the next candidate to overwrite.
  bool viable(std::span<const OpId> order, std::span<OpId> out) {
    build_lists();
    const std::vector<std::int32_t>& slot = *slot_;
    std::size_t free = out.size();

    for (std::size_t j = order.size(); j-- > 0;) {
      const OpId w = order[j];
      const std::int32_t w_pos = slot[w];
      const std::int32_t pred_pos = j > 0 ? slot[order[j - 1]] : kNone;
      const TimePoint w_finish = history_.finish(w);

      // Reads strictly after w come off the tail scan in descending
      // start order; placing them back to front leaves them ascending.
      for (std::int32_t p = tail_; p != kNone && nodes_[p].start > w_finish;) {
        const std::int32_t next = nodes_[p].prev;
        const std::int32_t owner = nodes_[p].owner;
        if (owner == kNone) return false;  // a write
        if (owner != w_pos && owner != pred_pos) return false;
        unlink(p);
        unlink_read(p);
        out[--free] = ops_[p];
        p = next;
      }
      // Remaining reads of w all start before w.finish (earlier than
      // every read just placed): walk w's list from its tail so they
      // also land ascending, then w itself.
      for (std::int32_t p = nodes_[w_pos].read_tail; p != kNone;
           p = nodes_[p].read_prev) {
        unlink(p);
        out[--free] = ops_[p];
      }
      nodes_[w_pos].read_head = kNone;
      nodes_[w_pos].read_tail = kNone;
      unlink(w_pos);
      out[--free] = w;
    }
    return true;
  }

 private:
  // Per position in the chunk: its start, its owner, its links in the
  // start-ordered list of unplaced operations and in its owner's list
  // of unplaced reads, and (for a write) the ends of its own read list.
  struct Node {
    TimePoint start;
    std::int32_t owner;
    std::int32_t prev, next;
    std::int32_t read_prev, read_next;
    std::int32_t read_head, read_tail;
  };

  void build_lists() {
    const auto n = static_cast<std::int32_t>(ops_.size());
    for (std::int32_t p = 0; p < n; ++p) {
      Node& node = nodes_[p];
      node.prev = p - 1;
      node.next = p + 1 < n ? p + 1 : kNone;
      node.read_prev = kNone;
      node.read_next = kNone;
      node.read_head = kNone;
      node.read_tail = kNone;
    }
    tail_ = n - 1;
    // Dictated-read lists in start order (ops_ is start-sorted).
    for (std::int32_t p = 0; p < n; ++p) {
      const std::int32_t wp = nodes_[p].owner;
      if (wp == kNone) continue;
      Node& write = nodes_[wp];
      if (write.read_tail == kNone) {
        write.read_head = p;
      } else {
        nodes_[write.read_tail].read_next = p;
        nodes_[p].read_prev = write.read_tail;
      }
      write.read_tail = p;
    }
  }

  void unlink(std::int32_t p) {
    const Node& node = nodes_[p];
    if (node.prev != kNone) nodes_[node.prev].next = node.next;
    if (node.next == kNone) {
      tail_ = node.prev;
    } else {
      nodes_[node.next].prev = node.prev;
    }
  }

  void unlink_read(std::int32_t p) {
    const Node& node = nodes_[p];
    Node& write = nodes_[node.owner];
    if (node.read_prev == kNone) {
      write.read_head = node.read_next;
    } else {
      nodes_[node.read_prev].read_next = node.read_next;
    }
    if (node.read_next == kNone) {
      write.read_tail = node.read_prev;
    } else {
      nodes_[node.read_next].read_prev = node.read_prev;
    }
  }

  const History& history_;
  std::span<const OpId> ops_;
  const std::vector<std::int32_t>* slot_ = nullptr;
  std::vector<Node> nodes_;  // grows to the largest chunk, never shrinks
  std::int32_t tail_ = kNone;
};

// Stages 2 and 3 over a non-empty history's partition.
Verdict decide(const History& history, const ChunkPartition& partition) {
  VerifyStats stats;
  stats.chunks = partition.chunk_count();
  stats.dangling = partition.dangling_writes.size();
  const std::size_t chunks = partition.chunk_count();

  // Bucket every chunk operation by chunk, in CSR form: op_begin[c]
  // first counts chunk c's operations (writes plus dictated reads) as
  // an inclusive prefix sum, then a reverse pass over by_start fills
  // each bucket back to front, leaving buckets start-sorted and
  // op_begin[c] at chunk c's first slot. slot[w] names a write's chunk
  // here; Stage 2 reuses it for positions. Dangling clusters need no
  // bucket: their order comes straight from dictated_reads.
  std::vector<std::int32_t> slot(history.size(), kNone);
  std::vector<std::uint32_t> op_begin(chunks + 1, 0);
  std::uint32_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    for (const std::span<const OpId> writes :
         {partition.forward(c), partition.backward(c)}) {
      for (OpId w : writes) {
        slot[w] = static_cast<std::int32_t>(c);
        total += 1 + static_cast<std::uint32_t>(
                         history.dictated_reads(w).size());
      }
    }
    op_begin[c] = total;
  }
  op_begin[chunks] = total;
  std::vector<OpId> chunk_ops(total);
  const std::span<const OpId> by_start = history.by_start();
  for (std::size_t i = by_start.size(); i-- > 0;) {
    const OpId op = by_start[i];
    const OpId cluster_write =
        history.is_write(op) ? op : history.dictating_write(op);
    const std::int32_t c = slot[cluster_write];
    if (c != kNone) chunk_ops[--op_begin[c]] = op;
  }

  // ---- Stage 2 ----
  // Each chunk's accepted order lands in chunk_order at its bucket's
  // offsets; candidate orders are built in one reused buffer.
  std::vector<OpId> chunk_order(total);
  std::vector<OpId> order;
  ViabilityCheck checker(history);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::span<const OpId> ops = std::span<const OpId>(chunk_ops).subspan(
        op_begin[c], op_begin[c + 1] - op_begin[c]);
    const std::span<const OpId> tf = partition.forward(c);
    const std::span<const OpId> backward = partition.backward(c);

    // Lemma 4.3, case B >= 3: not 2-atomic, no orders to try.
    if (backward.size() >= 3) {
      Verdict verdict = Verdict::make_no(
          "chunk with " + std::to_string(backward.size()) +
              " backward clusters (>= 3) cannot be 2-atomic (Lemma 4.3)",
          stats);
      verdict.conflict.assign(ops.begin(), ops.end());
      return verdict;
    }

    // Candidate orders S per Figure 4: T_F, then T_F' (first two
    // swapped; a different order only when |T_F| >= 2), each with the
    // backward writes at its ends in the listed placements.
    struct Ends {
      OpId front, back;
    };
    Ends ends[2] = {{kInvalidOp, kInvalidOp}, {kInvalidOp, kInvalidOp}};
    std::size_t placements = 1;
    if (backward.size() == 1) {
      ends[0] = {backward[0], kInvalidOp};
      ends[1] = {kInvalidOp, backward[0]};
      placements = 2;
    } else if (backward.size() == 2) {
      ends[0] = {backward[0], backward[1]};
      ends[1] = {backward[1], backward[0]};
      placements = 2;
    }
    const int variants = tf.size() >= 2 ? 2 : 1;

    const std::span<OpId> out =
        std::span<OpId>(chunk_order).subspan(op_begin[c], ops.size());
    checker.load(ops, slot);
    bool chunk_ok = false;
    for (int swapped = 0; swapped < variants && !chunk_ok; ++swapped) {
      for (std::size_t e = 0; e < placements && !chunk_ok; ++e) {
        order.clear();
        if (ends[e].front != kInvalidOp) order.push_back(ends[e].front);
        const std::size_t tf_at = order.size();
        order.insert(order.end(), tf.begin(), tf.end());
        if (swapped == 1) std::swap(order[tf_at], order[tf_at + 1]);
        if (ends[e].back != kInvalidOp) order.push_back(ends[e].back);
        ++stats.orders_tested;
        chunk_ok = checker.viable(order, out);
      }
    }
    if (!chunk_ok) {
      const Interval& extent = partition.extents[c];
      Verdict verdict = Verdict::make_no(
          "chunk over [" + std::to_string(extent.lo) + ", " +
              std::to_string(extent.hi) + "] with " +
              std::to_string(tf.size()) + " forward and " +
              std::to_string(backward.size()) +
              " backward clusters admits no viable write order",
          stats);
      verdict.conflict.assign(ops.begin(), ops.end());
      return verdict;
    }
  }

  // ---- Stage 3 ----
  // Concatenate chunk and dangling-cluster orders by low endpoint, which
  // extends the <=_H relation of Lemma 4.1. Both runs are sorted
  // already, so this is a merge; a chunk goes first on a tied low. A
  // dangling cluster's order is its write followed by its reads in
  // start order: always 1-atomic (hence 2-atomic) in isolation.
  std::vector<OpId> witness;
  witness.reserve(history.size());
  std::size_t d = 0;
  const auto append_dangling = [&] {
    const OpId w = partition.dangling_writes[d++];
    witness.push_back(w);
    const std::span<const OpId> reads = history.dictated_reads(w);
    witness.insert(witness.end(), reads.begin(), reads.end());
  };
  for (std::size_t c = 0; c < chunks; ++c) {
    while (d < partition.dangling_writes.size() &&
           partition.dangling_lows[d] < partition.extents[c].lo) {
      append_dangling();
    }
    witness.insert(witness.end(), chunk_order.begin() + op_begin[c],
                   chunk_order.begin() + op_begin[c + 1]);
  }
  while (d < partition.dangling_writes.size()) append_dangling();
  return Verdict::make_yes(std::move(witness), stats);
}

}  // namespace

void partition_chunks(std::span<const Zone> zones, ChunkPartition& out) {
  // Maximal runs of transitively overlapping forward zones: plain
  // interval merging with strict overlap. A backward zone can only lie
  // inside the chunk open when it is reached (every later chunk starts
  // at or after its low, and containment is strict), but the open
  // chunk's extent is final only once the next chunk starts: close()
  // then sorts the backward zones seen since the chunk opened into
  // contained and dangling.
  out.extents.clear();
  out.forward_begin.assign(1, 0);
  out.forward_writes.clear();
  out.backward_begin.assign(1, 0);
  out.backward_writes.clear();
  out.dangling_writes.clear();
  out.dangling_lows.clear();
  const std::size_t none = zones.size();
  std::size_t open = none;  // index of the open chunk's first zone
  const auto close = [&](std::size_t end) {
    const Interval extent = out.extents.back();
    for (std::size_t j = open; j < end; ++j) {
      const Zone& z = zones[j];
      if (z.forward) continue;
      if (extent.contains(z.interval())) {
        out.backward_writes.push_back(z.write);
      } else {
        out.dangling_writes.push_back(z.write);
        out.dangling_lows.push_back(z.low());
      }
    }
    out.forward_begin.push_back(
        static_cast<std::uint32_t>(out.forward_writes.size()));
    out.backward_begin.push_back(
        static_cast<std::uint32_t>(out.backward_writes.size()));
  };
  for (std::size_t i = 0; i < zones.size(); ++i) {
    const Zone& z = zones[i];
    if (z.forward) {
      if (open != none && z.low() < out.extents.back().hi) {
        Interval& extent = out.extents.back();
        extent.hi = std::max(extent.hi, z.high());
      } else {
        if (open != none) close(i);
        open = i;
        out.extents.push_back(z.interval());
      }
      out.forward_writes.push_back(z.write);
    } else if (open == none) {
      out.dangling_writes.push_back(z.write);
      out.dangling_lows.push_back(z.low());
    }
  }
  if (open != none) close(zones.size());
}

Verdict check_2atomicity_fzf(const History& history) {
  if (history.empty()) return Verdict::make_yes({});
  ChunkPartition partition;
  partition_chunks(compute_zones(history), partition);
  return decide(history, partition);
}

Verdict check_2atomicity_fzf(const History& history,
                             const ChunkPartition& partition) {
  if (history.empty()) return Verdict::make_yes({});
  return decide(history, partition);
}

}  // namespace kav
