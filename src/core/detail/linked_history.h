// Internal: the mutable working state shared by LBT (Section III-C) and
// its general-k greedy extension -- three doubly linked lists over
// operation ids with O(1) removal and undo-log rollback.
//
//   H    : all live operations, sorted by start time;
//   W    : all live writes, sorted by finish time;
//   R(w) : live dictated reads of write w, sorted by start time.
//
// Removal uses the dancing-links idiom: a removed node keeps its
// neighbour pointers, so re-inserting removed nodes in exact reverse
// order restores every list; revert_to() replays the undo log back to a
// checkpoint. This gives LBT's candidate search O(work) rollback
// without copying the history.
#ifndef KAV_CORE_DETAIL_LINKED_HISTORY_H
#define KAV_CORE_DETAIL_LINKED_HISTORY_H

#include <span>
#include <vector>

#include "core/detail/arena.h"
#include "history/history.h"

namespace kav::detail {

class LinkedHistory {
 public:
  enum class ListId : unsigned char { h, w, r };

  // All eight per-op id arrays live in one bump-arena block (a single
  // allocation per shard instead of eight), sized exactly here.
  explicit LinkedHistory(const History& history)
      : history_(history), arena_(Arena::bytes_for<OpId>(8 * history.size())) {
    const std::size_t n = history.size();
    h_prev_ = arena_.make_array<OpId>(n, kInvalidOp);
    h_next_ = arena_.make_array<OpId>(n, kInvalidOp);
    w_prev_ = arena_.make_array<OpId>(n, kInvalidOp);
    w_next_ = arena_.make_array<OpId>(n, kInvalidOp);
    r_prev_ = arena_.make_array<OpId>(n, kInvalidOp);
    r_next_ = arena_.make_array<OpId>(n, kInvalidOp);
    r_head_ = arena_.make_array<OpId>(n, kInvalidOp);
    r_tail_ = arena_.make_array<OpId>(n, kInvalidOp);

    link_chain(history.by_start(), h_prev_, h_next_, h_head_, h_tail_);
    link_chain(history.writes_by_finish(), w_prev_, w_next_, w_head_, w_tail_);
    for (OpId w : history.writes_by_start()) {
      OpId last = kInvalidOp;
      for (OpId r : history.dictated_reads(w)) {  // already start-sorted
        r_prev_[r] = last;
        if (last == kInvalidOp) {
          r_head_[w] = r;
        } else {
          r_next_[last] = r;
        }
        last = r;
      }
      r_tail_[w] = last;
    }
    undo_.reserve(n);
  }

  bool h_empty() const { return h_head_ == kInvalidOp; }
  OpId h_tail() const { return h_tail_; }
  OpId h_prev(OpId id) const { return h_prev_[id]; }
  OpId w_tail() const { return w_tail_; }
  OpId w_prev(OpId id) const { return w_prev_[id]; }
  OpId r_head(OpId w) const { return r_head_[w]; }
  OpId r_next(OpId id) const { return r_next_[id]; }

  std::size_t checkpoint() const { return undo_.size(); }

  void remove_h(OpId id) {
    unlink(id, h_prev_, h_next_, h_head_, h_tail_);
    undo_.push_back({ListId::h, id});
  }
  void remove_w(OpId id) {
    unlink(id, w_prev_, w_next_, w_head_, w_tail_);
    undo_.push_back({ListId::w, id});
  }
  void remove_r(OpId read) {
    const OpId w = history_.dictating_write(read);
    unlink(read, r_prev_, r_next_, r_head_[w], r_tail_[w]);
    undo_.push_back({ListId::r, read});
  }

  void revert_to(std::size_t checkpoint) {
    while (undo_.size() > checkpoint) {
      const auto [list, id] = undo_.back();
      undo_.pop_back();
      switch (list) {
        case ListId::h:
          relink(id, h_prev_, h_next_, h_head_, h_tail_);
          break;
        case ListId::w:
          relink(id, w_prev_, w_next_, w_head_, w_tail_);
          break;
        case ListId::r: {
          const OpId w = history_.dictating_write(id);
          relink(id, r_prev_, r_next_, r_head_[w], r_tail_[w]);
          break;
        }
      }
    }
  }

 private:
  struct UndoEntry {
    ListId list;
    OpId id;
  };

  static void link_chain(std::span<const OpId> order, std::span<OpId> prev,
                         std::span<OpId> next, OpId& head, OpId& tail) {
    OpId last = kInvalidOp;
    for (OpId id : order) {
      prev[id] = last;
      if (last == kInvalidOp) {
        head = id;
      } else {
        next[last] = id;
      }
      last = id;
    }
    tail = last;
  }

  static void unlink(OpId id, std::span<OpId> prev, std::span<OpId> next,
                     OpId& head, OpId& tail) {
    if (prev[id] == kInvalidOp) {
      head = next[id];
    } else {
      next[prev[id]] = next[id];
    }
    if (next[id] == kInvalidOp) {
      tail = prev[id];
    } else {
      prev[next[id]] = prev[id];
    }
  }

  // Valid only when performed in exact reverse removal order.
  static void relink(OpId id, std::span<OpId> prev, std::span<OpId> next,
                     OpId& head, OpId& tail) {
    if (prev[id] == kInvalidOp) {
      head = id;
    } else {
      next[prev[id]] = id;
    }
    if (next[id] == kInvalidOp) {
      tail = id;
    } else {
      prev[next[id]] = id;
    }
  }

  const History& history_;
  Arena arena_;
  std::span<OpId> h_prev_, h_next_, w_prev_, w_next_, r_prev_, r_next_;
  std::span<OpId> r_head_, r_tail_;
  OpId h_head_ = kInvalidOp, h_tail_ = kInvalidOp;
  OpId w_head_ = kInvalidOp, w_tail_ = kInvalidOp;
  std::vector<UndoEntry> undo_;
};

// Figure 2 line 3: the candidate set C = writes in W that precede no
// other write in W. Walking W from the back (largest finish first): a
// write is a candidate iff its finish exceeds every other live write's
// start; writes earlier in W finish earlier and can never violate the
// condition for later ones, so only the running maximum over the
// scanned suffix matters and the scan stops at the first
// non-candidate. O(c), and the candidates are pairwise concurrent.
// The caller owns `candidates` so epoch loops reuse one buffer instead
// of allocating per epoch (LBT runs one collection per epoch).
inline void collect_epoch_candidates(const History& history,
                                     const LinkedHistory& state,
                                     std::vector<OpId>& candidates) {
  candidates.clear();
  TimePoint max_start_after = kTimeMin;
  for (OpId w = state.w_tail(); w != kInvalidOp; w = state.w_prev(w)) {
    if (history.finish(w) < max_start_after) break;
    candidates.push_back(w);
    max_start_after = std::max(max_start_after, history.start(w));
  }
}

inline std::vector<OpId> collect_epoch_candidates(const History& history,
                                                  const LinkedHistory& state) {
  std::vector<OpId> candidates;
  collect_epoch_candidates(history, state, candidates);
  return candidates;
}

}  // namespace kav::detail

#endif  // KAV_CORE_DETAIL_LINKED_HISTORY_H
