#include "core/kwav.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/verify.h"

namespace kav {

Verdict check_weighted_k_atomicity(const WeightedHistory& wh, Weight k,
                                   const OracleOptions& options) {
  const detail::Gate gate = detail::gate(wh.history, /*normalize=*/true);
  if (gate.failure) return *gate.failure;
  return oracle_is_k_atomic(gate.decidable(wh.history), k, options, wh.weights);
}

namespace {

class BinPackingSearch {
 public:
  BinPackingSearch(std::vector<Weight> sizes, Weight capacity, int bins,
                   std::uint64_t node_limit)
      : sizes_(std::move(sizes)),
        capacity_(capacity),
        node_limit_(node_limit) {
    // Descending sizes: large items first maximizes pruning.
    std::sort(sizes_.begin(), sizes_.end(), std::greater<>());
    loads_.assign(static_cast<std::size_t>(bins), 0);
  }

  bool feasible() {
    if (std::any_of(sizes_.begin(), sizes_.end(),
                    [this](Weight s) { return s > capacity_; })) {
      return false;
    }
    const Weight total = std::accumulate(sizes_.begin(), sizes_.end(),
                                         Weight{0});
    if (total > capacity_ * static_cast<Weight>(loads_.size())) return false;
    return place(0);
  }

 private:
  bool place(std::size_t item) {
    if (item == sizes_.size()) return true;
    if (++nodes_ > node_limit_) return false;  // conservative: undecided->no
    // Symmetry breaking: never try two bins with equal load, and treat
    // the first empty bin as canonical.
    Weight last_load = -1;
    for (Weight& load : loads_) {
      if (load == last_load) continue;
      last_load = load;
      if (load + sizes_[item] > capacity_) continue;
      load += sizes_[item];
      if (place(item + 1)) return true;
      load -= sizes_[item];
      if (load == 0) break;  // all further empty bins are symmetric
    }
    return false;
  }

  std::vector<Weight> sizes_;
  const Weight capacity_;
  std::vector<Weight> loads_;
  const std::uint64_t node_limit_;
  std::uint64_t nodes_ = 0;
};

}  // namespace

bool bin_packing_feasible(const BinPackingInstance& instance,
                          std::uint64_t node_limit) {
  if (instance.bins < 0) return false;
  for (Weight s : instance.sizes) {
    if (s <= 0) throw std::invalid_argument("item sizes must be positive");
  }
  if (instance.sizes.empty()) return true;
  if (instance.bins == 0) return false;
  return BinPackingSearch(instance.sizes, instance.capacity, instance.bins,
                          node_limit)
      .feasible();
}

int first_fit_decreasing_bins(std::span<const Weight> sizes, Weight capacity) {
  std::vector<Weight> sorted(sizes.begin(), sizes.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::vector<Weight> loads;
  for (Weight s : sorted) {
    if (s > capacity) {
      throw std::invalid_argument("item larger than bin capacity");
    }
    bool placed = false;
    for (Weight& load : loads) {
      if (load + s <= capacity) {
        load += s;
        placed = true;
        break;
      }
    }
    if (!placed) loads.push_back(s);
  }
  return static_cast<int>(loads.size());
}

KwavReduction reduce_bin_packing_to_kwav(const BinPackingInstance& instance) {
  if (instance.bins < 1) {
    throw std::invalid_argument("reduction requires at least one bin");
  }
  for (Weight s : instance.sizes) {
    if (s <= 0) throw std::invalid_argument("item sizes must be positive");
  }
  const int m = instance.bins;
  const auto n = static_cast<int>(instance.sizes.size());

  KwavReduction reduction;
  reduction.k = instance.capacity + 2;

  std::vector<Operation> ops;
  std::vector<Weight> weights;
  // Short operations, totally ordered with disjoint intervals:
  //   w(1) w(2) r(1) w(3) r(2) ... w(m) r(m-1) w(m+1) r(m)
  // Short op index i (0-based over that sequence) occupies
  //   [ (i+1)*S, (i+1)*S + S/2 ]
  // leaving room inside w(1) and r(m) for the long writes' endpoints.
  const TimePoint spacing = 1'000'000;
  const TimePoint width = spacing / 2;
  auto slot = [&](int i) {
    const TimePoint start = static_cast<TimePoint>(i + 1) * spacing;
    return std::pair{start, start + width};
  };
  // Values: short write i (1-based) stores value i; r(i) reads value i.
  // Long write j stores value m + 2 + j, never read.
  int slot_index = 0;
  auto push_short_write = [&](int write_number) {
    const auto [s, f] = slot(slot_index++);
    ops.push_back(make_write(s, f, write_number));
    weights.push_back(1);
    reduction.short_writes.push_back(static_cast<OpId>(ops.size() - 1));
  };
  auto push_short_read = [&](int write_number) {
    const auto [s, f] = slot(slot_index++);
    ops.push_back(make_read(s, f, write_number));
    weights.push_back(1);
    reduction.short_reads.push_back(static_cast<OpId>(ops.size() - 1));
  };

  push_short_write(1);
  for (int i = 2; i <= m + 1; ++i) {
    push_short_write(i);
    push_short_read(i - 1);
  }

  // Long writes: weight = item size, spanning the open gap from just
  // after w(1) finishes to just before w(m+1) starts, with staggered
  // endpoints for timestamp uniqueness. Starting after w(1).finish and
  // finishing before w(m+1).start *forces* every long write after w(1)
  // and before w(m+1) in any valid order ("which have to occur after
  // w(1) and before w(m+1)", Section V), while leaving it concurrent
  // with everything in between -- placeable into any bin.
  // Copy the two anchor stamps: pushing long writes reallocates `ops`,
  // so holding references across the loop would dangle.
  const TimePoint w1_finish = ops[reduction.short_writes.front()].finish;
  const TimePoint w_last_start = ops[reduction.short_writes.back()].start;
  if (n >= static_cast<int>(width) / 2 - 2) {
    throw std::invalid_argument("too many items for the reduction layout");
  }
  for (int j = 0; j < n; ++j) {
    const TimePoint start = w1_finish + 1 + j;
    const TimePoint finish = w_last_start - 1 - j;
    ops.push_back(make_write(start, finish, m + 2 + j));
    weights.push_back(instance.sizes[static_cast<std::size_t>(j)]);
    reduction.long_writes.push_back(static_cast<OpId>(ops.size() - 1));
  }

  reduction.instance = WeightedHistory{History(std::move(ops)),
                                       std::move(weights)};
  return reduction;
}

}  // namespace kav
