#include "core/greedy.h"

#include <algorithm>

#include "core/detail/linked_history.h"
#include "core/witness.h"

namespace kav {

namespace {

struct Segment {
  OpId write;
  std::vector<OpId> reads;  // ascending start time
};

// Pending writes with deadlines. `slack` counts how many further
// placement steps of *other* writes the deadline tolerates; slack 0
// means "must be placed next".
struct Pending {
  OpId write;
  int slack;
};

class GreedyRun {
 public:
  GreedyRun(const History& history, int k)
      : history_(history), k_(k), state_(history) {}

  Verdict run() {
    std::vector<OpId> candidates;  // reused across epochs
    while (!state_.h_empty()) {
      ++stats_.epochs;
      detail::collect_epoch_candidates(history_, state_, candidates);
      bool committed = false;
      for (OpId candidate : candidates) {
        const std::size_t checkpoint = state_.checkpoint();
        const std::size_t segments_checkpoint = segments_.size();
        if (run_epoch(candidate)) {
          committed = true;
          break;
        }
        state_.revert_to(checkpoint);
        segments_.resize(segments_checkpoint);
        pending_.clear();
      }
      if (!committed) {
        return Verdict::make_undecided(
            "greedy search exhausted its candidates at epoch " +
                std::to_string(stats_.epochs) +
                "; the history may or may not be " + std::to_string(k_) +
                "-atomic",
            stats_);
      }
    }
    std::vector<OpId> witness;
    witness.reserve(history_.size());
    for (auto segment = segments_.rbegin(); segment != segments_.rend();
         ++segment) {
      witness.push_back(segment->write);
      witness.insert(witness.end(), segment->reads.begin(),
                     segment->reads.end());
    }
    return Verdict::make_yes(std::move(witness), stats_);
  }

 private:
  // Places `w` into the current (latest unfilled) write slot, consuming
  // the operations that must follow it, and maintains the deadline
  // queue. Returns false when the epoch is refuted.
  bool place_step(OpId w) {
    // Placing w spends one step of every other pending write's slack.
    std::erase_if(pending_, [w](const Pending& p) { return p.write == w; });
    for (Pending& p : pending_) {
      if (--p.slack < 0) return false;
    }

    const TimePoint w_finish = history_.finish(w);
    Segment segment{w, {}};
    for (OpId op = state_.h_tail();
         op != kInvalidOp && history_.start(op) > w_finish;) {
      const OpId next = state_.h_prev(op);
      if (history_.is_write(op)) return false;
      const OpId dictating = history_.dictating_write(op);
      if (dictating != w) {
        // Deadline: at most k-2 further non-dictating writes may be
        // placed before `dictating` (w itself already separates them).
        const int fresh_slack = k_ - 2;
        auto it = std::find_if(
            pending_.begin(), pending_.end(),
            [dictating](const Pending& p) { return p.write == dictating; });
        if (it == pending_.end()) {
          pending_.push_back({dictating, fresh_slack});
        } else {
          it->slack = std::min(it->slack, fresh_slack);
        }
      }
      state_.remove_h(op);
      state_.remove_r(op);
      segment.reads.push_back(op);
      ++stats_.steps;
      op = next;
    }
    std::reverse(segment.reads.begin(), segment.reads.end());

    std::vector<OpId> remaining_reads;
    for (OpId r = state_.r_head(w); r != kInvalidOp;) {
      const OpId next = state_.r_next(r);
      state_.remove_h(r);
      state_.remove_r(r);
      remaining_reads.push_back(r);
      ++stats_.steps;
      r = next;
    }
    segment.reads.insert(segment.reads.begin(), remaining_reads.begin(),
                         remaining_reads.end());
    state_.remove_h(w);
    state_.remove_w(w);
    segments_.push_back(std::move(segment));
    ++stats_.steps;

    // Earliest-deadline-first feasibility: sorted by slack, the i-th
    // pending write needs slack >= i to survive the placements ahead.
    std::sort(pending_.begin(), pending_.end(),
              [](const Pending& a, const Pending& b) {
                return a.slack < b.slack;
              });
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].slack < static_cast<int>(i)) return false;
    }
    return true;
  }

  // Which write fills the next (earlier) slot. A slack-0 deadline is
  // forced. Otherwise prefer continuing from the back of the timeline
  // with the largest-finish live write (the W tail) -- placing it can
  // never trip over a live write starting later (nothing finishes
  // later), and deferring deadline writes keeps their reads closer.
  // The tail is only taken if decrementing every pending slack keeps
  // the deadline queue EDF-feasible; otherwise fall back to the most
  // urgent pending write. For k = 2 every fresh deadline has slack 0,
  // so the choice degenerates to LBT's forced w'.
  OpId choose_next() const {
    if (pending_.front().slack == 0) return pending_.front().write;
    const OpId tail = state_.w_tail();
    for (const Pending& p : pending_) {
      if (p.write == tail) return tail;  // consumes a deadline: free
    }
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].slack < static_cast<int>(i) + 1) {
        return pending_.front().write;  // tail would break a deadline
      }
    }
    return tail;
  }

  bool run_epoch(OpId first_write) {
    ++stats_.candidates_tried;
    pending_.clear();
    OpId w = first_write;
    while (true) {
      if (!place_step(w)) return false;
      if (pending_.empty()) return true;  // epoch ends unconstrained
      w = choose_next();
    }
  }

  const History& history_;
  const int k_;
  detail::LinkedHistory state_;
  std::vector<Pending> pending_;
  std::vector<Segment> segments_;
  VerifyStats stats_;
};

}  // namespace

Verdict check_k_atomicity_greedy(const History& history, int k) {
  if (k < 1) return Verdict::make_precondition_failed("k must be >= 1");
  if (history.empty()) return Verdict::make_yes({});

  GreedyRun run(history, k);
  Verdict verdict = run.run();
  // Soundness guard: a YES from the greedy checker must carry a witness
  // that survives independent validation; demote to undecided if not
  // (this would indicate a bug, and tests assert it never happens).
  if (verdict.yes() &&
      !validate_witness(history, verdict.witness, k).ok()) {
    return Verdict::make_undecided(
        "greedy produced an invalid witness (internal error)",
        verdict.stats);
  }
  return verdict;
}

}  // namespace kav
