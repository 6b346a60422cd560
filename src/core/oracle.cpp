#include "core/oracle.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace kav {

namespace {

using Mask = std::uint64_t;
static_assert(kOracleMaxOps <= 8 * sizeof(Mask));

class OracleSearch {
 public:
  OracleSearch(const History& history, std::span<const Weight> weights,
               Weight budget, const OracleOptions& options)
      : history_(history),
        weights_(weights),
        budget_(budget),
        options_(options),
        n_(history.size()) {
    pred_mask_.resize(n_, 0);
    for (OpId a = 0; a < n_; ++a) {
      for (OpId b = 0; b < n_; ++b) {
        if (history_.precedes(b, a)) pred_mask_[a] |= Mask{1} << b;
      }
    }
    used_.resize(n_, 0);
    pending_reads_.resize(n_, 0);
    for (OpId w : history_.writes_by_start()) {
      pending_reads_[w] =
          static_cast<std::uint32_t>(history_.dictated_reads(w).size());
    }
    // Branch on writes in start-time order: tends to find witnesses of
    // well-formed histories without backtracking.
    write_order_.assign(history_.writes_by_start().begin(),
                        history_.writes_by_start().end());
  }

  Verdict run() {
    const bool found = dfs(0);
    VerifyStats stats;
    stats.nodes = nodes_;
    if (limit_hit_) {
      return Verdict::make_undecided(
          "node limit reached (" + std::to_string(options_.node_limit) + ")",
          stats);
    }
    if (found) return Verdict::make_yes(order_, stats);
    return Verdict::make_no("exhaustive search found no k-atomic order",
                            stats);
  }

 private:
  Weight weight_of(OpId w) const {
    return weights_.empty() ? Weight{1} : weights_[w];
  }

  bool is_placed(OpId id) const { return (placed_ >> id) & 1; }

  bool preds_placed(OpId id) const {
    return (pred_mask_[id] & ~placed_) == 0;
  }

  // Place every read that is ready; returns how many ops were placed so
  // the caller can unwind. A read is ready when its real-time
  // predecessors and dictating write are placed and the write's budget
  // still admits it.
  std::size_t close_reads() {
    std::size_t placed_count = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (OpId r : history_.reads()) {
        if (is_placed(r) || !preds_placed(r)) continue;
        const OpId w = history_.dictating_write(r);
        if (!is_placed(w) || used_[w] > budget_) continue;
        placed_ |= Mask{1} << r;
        order_.push_back(r);
        --pending_reads_[w];
        ++placed_count;
        progress = true;
      }
    }
    return placed_count;
  }

  void unwind(std::size_t count) {
    while (count-- > 0) {
      const OpId id = order_.back();
      order_.pop_back();
      placed_ &= ~(Mask{1} << id);
      if (history_.is_read(id)) {
        ++pending_reads_[history_.dictating_write(id)];
      }
    }
  }

  // A placed write whose budget is spent but that still has unplaced
  // dictated reads can never satisfy them: everything unplaced lands
  // after the current point.
  bool dead() const {
    for (OpId w : write_order_) {
      if (is_placed(w) && pending_reads_[w] > 0 && used_[w] > budget_) {
        return true;
      }
    }
    return false;
  }

  std::string state_key() const {
    std::string key;
    key.reserve(8 + 12 * write_order_.size());
    key.append(reinterpret_cast<const char*>(&placed_), sizeof placed_);
    for (OpId w : write_order_) {
      if (is_placed(w) && pending_reads_[w] > 0) {
        key.append(reinterpret_cast<const char*>(&w), sizeof w);
        key.append(reinterpret_cast<const char*>(&used_[w]), sizeof used_[w]);
      }
    }
    return key;
  }

  bool dfs(int depth) {
    if (limit_hit_) return false;
    if (++nodes_ > options_.node_limit) {
      limit_hit_ = true;
      return false;
    }

    const std::size_t reads_placed = close_reads();
    bool found = false;
    if (order_.size() == n_) {
      found = true;
    } else if (!dead()) {
      std::string key;
      bool skip = false;
      if (options_.memoize) {
        key = state_key();
        skip = dead_states_.contains(key);
      }
      if (!skip) {
        for (OpId w : write_order_) {
          if (is_placed(w) || !preds_placed(w)) continue;
          place_write(w);
          if (dfs(depth + 1)) {
            found = true;
            break;
          }
          unplace_write(w);
          if (limit_hit_) break;
        }
        if (!found && options_.memoize && !limit_hit_) {
          dead_states_.insert(std::move(key));
        }
      }
    }

    if (!found) unwind(reads_placed);
    return found;
  }

  void place_write(OpId w) {
    // Every placed write with pending reads accrues this write's weight.
    for (OpId other : write_order_) {
      if (is_placed(other) && pending_reads_[other] > 0) {
        used_[other] += weight_of(w);
      }
    }
    used_[w] = weight_of(w);
    placed_ |= Mask{1} << w;
    order_.push_back(w);
  }

  void unplace_write(OpId w) {
    order_.pop_back();
    placed_ &= ~(Mask{1} << w);
    for (OpId other : write_order_) {
      if (is_placed(other) && pending_reads_[other] > 0) {
        used_[other] -= weight_of(w);
      }
    }
    used_[w] = 0;
  }

  const History& history_;
  std::span<const Weight> weights_;
  const Weight budget_;
  const OracleOptions options_;
  const std::size_t n_;

  std::vector<Mask> pred_mask_;
  std::vector<Weight> used_;
  std::vector<std::uint32_t> pending_reads_;
  std::vector<OpId> write_order_;
  Mask placed_ = 0;
  std::vector<OpId> order_;
  std::unordered_set<std::string> dead_states_;
  std::uint64_t nodes_ = 0;
  bool limit_hit_ = false;
};

}  // namespace

Verdict oracle_is_k_atomic(const History& history, Weight k,
                           const OracleOptions& options,
                           std::span<const Weight> weights) {
  if (k < 1) return Verdict::make_precondition_failed("k must be >= 1");
  if (history.size() > kOracleMaxOps) {
    return Verdict::make_precondition_failed(
        "oracle supports at most " + std::to_string(kOracleMaxOps) +
        " operations, got " + std::to_string(history.size()));
  }
  if (!weights.empty()) {
    if (weights.size() != history.size()) {
      return Verdict::make_precondition_failed("weights size mismatch");
    }
    for (OpId w : history.writes_by_start()) {
      if (weights[w] <= 0) {
        return Verdict::make_precondition_failed(
            "write weights must be positive");
      }
    }
  }
  return OracleSearch(history, weights, k, options).run();
}

}  // namespace kav
