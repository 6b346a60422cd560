#include "core/lbt.h"

#include <algorithm>

#include "core/detail/linked_history.h"

namespace kav {

namespace {

// One write slot plus its adjacent reads (Figure 1); the witness is
// the reverse concatenation of segments. Reads live in one shared pool
// (a segment's block is [reads_begin, next segment's reads_begin)), so
// an epoch costs zero heap allocations instead of one vector per
// segment; rollback truncates the pool alongside the segment list.
struct SegmentRef {
  OpId write;
  std::uint32_t reads_begin;  // offset into the shared reads pool
};

enum class EpochResult : unsigned char { success, fail, budget_exceeded };

// Step budget of a candidate's first attempt in an epoch; each round of
// iterative deepening doubles it.
constexpr std::uint64_t kInitialBudget = 16;

class LbtRun {
 public:
  explicit LbtRun(const History& history)
      : history_(history), state_(history) {}

  Verdict run() {
    std::vector<OpId> candidates;  // reused across epochs, no per-epoch alloc
    while (!state_.h_empty()) {
      ++stats_.epochs;
      detail::collect_epoch_candidates(history_, state_, candidates);
      if (!run_one_epoch(candidates)) {
        return Verdict::make_no(
            "epoch " + std::to_string(stats_.epochs) + ": all " +
                std::to_string(candidates.size()) +
                " candidate writes fail; history is not 2-atomic",
            stats_);
      }
    }
    // Segments were placed back to front; reverse for the final order.
    std::vector<OpId> witness;
    witness.reserve(history_.size());
    for (std::size_t s = segments_.size(); s-- > 0;) {
      const std::uint32_t begin = segments_[s].reads_begin;
      const std::uint32_t end = s + 1 < segments_.size()
                                    ? segments_[s + 1].reads_begin
                                    : static_cast<std::uint32_t>(
                                          reads_pool_.size());
      witness.push_back(segments_[s].write);
      witness.insert(witness.end(), reads_pool_.begin() + begin,
                     reads_pool_.begin() + end);
    }
    return Verdict::make_yes(std::move(witness), stats_);
  }

 private:
  // Figure 2 lines 10-22. Consumes operations from the back of the
  // history; `budget` caps the number of consumption steps so iterative
  // deepening can abandon slow candidates early.
  EpochResult run_epoch(OpId first_write, std::uint64_t budget) {
    ++stats_.candidates_tried;
    OpId w = first_write;
    std::uint64_t steps = 0;
    while (true) {
      OpId w_prime = kInvalidOp;  // line 12
      const TimePoint w_finish = history_.finish(w);
      const auto reads_begin = static_cast<std::uint32_t>(reads_pool_.size());

      // Lines 13-18: every live op starting after w finishes must be a
      // read of w or of a unique other write w'. They form a suffix of
      // H by start time; scan from the tail (descending start).
      for (OpId op = state_.h_tail();
           op != kInvalidOp && history_.start(op) > w_finish;) {
        const OpId next = state_.h_prev(op);
        if (history_.is_write(op)) {  // line 14
          stats_.steps += steps;
          return EpochResult::fail;
        }
        const OpId dictating = history_.dictating_write(op);
        if (dictating != w && dictating != w_prime) {  // line 15
          if (w_prime != kInvalidOp) {  // line 16
            stats_.steps += steps;
            return EpochResult::fail;
          }
          w_prime = dictating;  // line 17
        }
        state_.remove_h(op);  // line 18
        state_.remove_r(op);
        reads_pool_.push_back(op);
        if (++steps > budget) {
          stats_.steps += steps;
          return EpochResult::budget_exceeded;
        }
        op = next;
      }
      // The scan collected reads in descending start order, all after
      // w.finish; the remaining reads of w (line 19) all start before
      // w.finish, so reversing and prepending keeps ascending order.
      std::reverse(reads_pool_.begin() + reads_begin, reads_pool_.end());

      // Lines 19-20: place w and its remaining dictated reads. They
      // are appended (the r-list is already ascending) and rotated to
      // the front of this segment's pool block -- same order as the
      // old prepend, still allocation-free.
      const auto remaining_begin = static_cast<std::uint32_t>(
          reads_pool_.size());
      for (OpId r = state_.r_head(w); r != kInvalidOp;) {
        const OpId next = state_.r_next(r);
        state_.remove_h(r);
        state_.remove_r(r);
        reads_pool_.push_back(r);
        if (++steps > budget) {
          stats_.steps += steps;
          return EpochResult::budget_exceeded;
        }
        r = next;
      }
      std::rotate(reads_pool_.begin() + reads_begin,
                  reads_pool_.begin() + remaining_begin, reads_pool_.end());
      state_.remove_h(w);
      state_.remove_w(w);
      segments_.push_back(SegmentRef{w, reads_begin});
      if (++steps > budget) {
        stats_.steps += steps;
        return EpochResult::budget_exceeded;
      }

      if (w_prime == kInvalidOp) {  // line 21
        stats_.steps += steps;
        return EpochResult::success;
      }
      w = w_prime;  // line 22
    }
  }

  // Figure 2 lines 4-7, with the Section III-C iterative-deepening
  // refinement: every surviving candidate is (re-)run with a doubling
  // step budget until one succeeds or all definitively fail. Each
  // non-committing attempt is rolled back through the undo log.
  bool run_one_epoch(const std::vector<OpId>& candidates) {
    const std::size_t segments_checkpoint = segments_.size();
    const std::size_t pool_checkpoint = reads_pool_.size();
    std::vector<OpId> survivors = candidates;
    for (std::uint64_t budget = kInitialBudget; !survivors.empty();
         budget *= 2) {
      std::vector<OpId> next_round;
      for (OpId candidate : survivors) {
        const std::size_t checkpoint = state_.checkpoint();
        const EpochResult result = run_epoch(candidate, budget);
        if (result == EpochResult::success) return true;
        state_.revert_to(checkpoint);
        segments_.resize(segments_checkpoint);
        reads_pool_.resize(pool_checkpoint);
        if (result == EpochResult::budget_exceeded) {
          next_round.push_back(candidate);
        }
      }
      survivors = std::move(next_round);
    }
    return false;
  }

  const History& history_;
  detail::LinkedHistory state_;
  std::vector<SegmentRef> segments_;
  std::vector<OpId> reads_pool_;  // all segments' reads, back to front
  VerifyStats stats_;
};

}  // namespace

Verdict check_2atomicity_lbt(const History& history) {
  if (history.empty()) return Verdict::make_yes({});
  return LbtRun(history).run();
}

}  // namespace kav
