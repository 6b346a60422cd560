#include "history/history.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/adaptive_sort.h"

namespace kav {

std::string describe(const Operation& op) {
  std::string out = op.is_write() ? "write" : "read";
  out += "(v=" + std::to_string(op.value) + ") [" +
         std::to_string(op.start) + ", " + std::to_string(op.finish) + ")";
  return out;
}

void OperationColumns::clear() {
  starts.clear();
  finishes.clear();
  values.clear();
  clients.clear();
  types.clear();
}

void OperationColumns::reserve(std::size_t n) {
  starts.reserve(n);
  finishes.reserve(n);
  values.reserve(n);
  clients.reserve(n);
  types.reserve(n);
}

void OperationColumns::push_back(const Operation& op) {
  starts.push_back(op.start);
  finishes.push_back(op.finish);
  values.push_back(op.value);
  clients.push_back(op.client);
  types.push_back(op.is_write() ? 1 : 0);
}

namespace {

// Throws for the first operation with start >= finish, if any.
void check_intervals(const OperationColumns& cols) {
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols.starts[i] >= cols.finishes[i]) {
      throw std::invalid_argument("operation " + std::to_string(i) +
                                  " has start >= finish");
    }
  }
}

}  // namespace

History::History(std::vector<Operation> ops) {
  cols_.reserve(ops.size());
  for (const Operation& op : ops) cols_.push_back(op);
  check_intervals(cols_);
  build_indexes();
}

History::History(OperationColumns columns) : cols_(std::move(columns)) {
  const std::size_t n = cols_.size();
  if (cols_.finishes.size() != n || cols_.values.size() != n ||
      cols_.clients.size() != n || cols_.types.size() != n) {
    throw std::invalid_argument("OperationColumns columns differ in length");
  }
  check_intervals(cols_);
  build_indexes();
}

std::vector<Operation> History::operations() const {
  std::vector<Operation> ops;
  ops.reserve(size());
  for (OpId id = 0; id < size(); ++id) ops.push_back(op(id));
  return ops;
}

void History::build_indexes() {
  const auto n = static_cast<OpId>(size());
  const std::vector<TimePoint>& starts = cols_.starts;
  const std::vector<TimePoint>& finishes = cols_.finishes;

  // Event orders, ties broken by id. Stored traces arrive per key in
  // add() order, which is time order but for the few operations that
  // overlap out of order, so adaptive_sort costs O(n + I) for the I
  // inverted pairs (an exactly sorted column is n - 1 comparisons) and
  // O(n log n) at worst.
  const auto sort_ids = [n](std::vector<OpId>& ids,
                            const std::vector<TimePoint>& time) {
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), 0);
    adaptive_sort(ids.begin(), ids.end(), [&](OpId a, OpId b) {
      return time[a] != time[b] ? time[a] < time[b] : a < b;
    });
  };
  sort_ids(by_start_, starts);
  sort_ids(by_finish_, finishes);

  std::size_t write_count = 0;
  for (OpId id = 0; id < n; ++id) write_count += is_write(id) ? 1 : 0;
  writes_by_start_.reserve(write_count);
  reads_.reserve(n - write_count);
  writes_by_finish_.reserve(write_count);
  for (OpId id : by_start_) {
    if (is_write(id)) {
      writes_by_start_.push_back(id);
    } else {
      reads_.push_back(id);
    }
  }
  for (OpId id : by_finish_) {
    if (is_write(id)) writes_by_finish_.push_back(id);
  }

  // Value index; earliest-starting write wins on (anomalous) duplicates
  // so behaviour stays deterministic. Sorted-vector + binary search:
  // the stable sort keeps start order among equal values, so dropping
  // all but the first of each run keeps exactly the write the old
  // hash-map try_emplace (in start order) kept. Monotonically
  // increasing values (version counters, the common stored-trace shape)
  // arrive already sorted and unique, making both the sort and the
  // unique pass no-ops -- detect that while building and skip them.
  std::vector<std::pair<Value, OpId>> value_index;
  value_index.reserve(write_count);
  bool values_strictly_increasing = true;
  for (OpId w : writes_by_start_) {
    const Value value = cols_.values[w];
    values_strictly_increasing =
        values_strictly_increasing &&
        (value_index.empty() || value_index.back().first < value);
    value_index.emplace_back(value, w);
  }
  if (values_strictly_increasing) {
    has_duplicate_write_values_ = false;
  } else {
    std::stable_sort(
        value_index.begin(), value_index.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto first_of_run = std::unique(
        value_index.begin(), value_index.end(),
        [](const auto& a, const auto& b) { return a.first == b.first; });
    has_duplicate_write_values_ = first_of_run != value_index.end();
    value_index.erase(first_of_run, value_index.end());
  }

  // Dictating writes and (flattened) dictated-read lists. Reads arrive
  // start-sorted and their values are usually non-decreasing (each read
  // returns the latest write), so instead of a cold binary search per
  // read, gallop from the previous hit: an equal value costs one
  // comparison, the next value one more, and an arbitrary jump degrades
  // to the plain O(log w) search -- never worse than before.
  dictating_write_.assign(n, kInvalidOp);
  std::vector<std::uint32_t> counts(n + 1, 0);
  const std::size_t index_size = value_index.size();
  std::size_t hint = 0;  // lower-bound position of the last read's value
  for (OpId r : reads_) {
    const Value value = cols_.values[r];
    std::size_t pos;
    if (hint < index_size && value_index[hint].first == value) {
      pos = hint;
    } else if (hint < index_size && value_index[hint].first < value) {
      // Gallop forward: find probe with value_index[probe].first >= value.
      std::size_t low = hint + 1;
      std::size_t step = 1;
      std::size_t high = low;
      while (high < index_size && value_index[high].first < value) {
        low = high + 1;
        high = hint + (step *= 2);
      }
      high = std::min(high, index_size);
      pos = static_cast<std::size_t>(
          std::lower_bound(value_index.begin() + static_cast<std::ptrdiff_t>(low),
                           value_index.begin() + static_cast<std::ptrdiff_t>(high),
                           value,
                           [](const auto& entry, Value v) {
                             return entry.first < v;
                           }) -
          value_index.begin());
    } else {
      // Value moved backward: full search of the prefix [0, hint).
      pos = static_cast<std::size_t>(
          std::lower_bound(value_index.begin(),
                           value_index.begin() + static_cast<std::ptrdiff_t>(
                                                      std::min(hint, index_size)),
                           value,
                           [](const auto& entry, Value v) {
                             return entry.first < v;
                           }) -
          value_index.begin());
    }
    hint = pos;
    if (pos < index_size && value_index[pos].first == value) {
      const OpId w = value_index[pos].second;
      dictating_write_[r] = w;
      ++counts[w];
    }
  }
  read_begin_.assign(n + 1, 0);
  for (OpId i = 0; i < n; ++i) read_begin_[i + 1] = read_begin_[i] + counts[i];
  dictated_flat_.resize(read_begin_[n]);
  std::vector<std::uint32_t> cursor(read_begin_.begin(), read_begin_.end() - 1);
  for (OpId r : reads_) {  // reads_ is start-sorted => lists are too
    const OpId w = dictating_write_[r];
    if (w != kInvalidOp) dictated_flat_[cursor[w]++] = r;
  }

  count_max_concurrent_writes();
}

void History::count_max_concurrent_writes() {
  // Max concurrent writes. The old implementation sorted 2W
  // (time, delta) pairs with -1 ordered before +1 at equal time; the
  // write starts and write finishes are each already ascending along
  // writes_by_start_ / writes_by_finish_, so a two-way merge taking
  // finishes first on ties sweeps the identical event sequence without
  // the sort. (A write finishing exactly when another starts counts as
  // not overlapping here, immaterial for the maximum on normalized
  // histories, whose timestamps are unique -- same caveat as before.)
  const std::vector<TimePoint>& starts = cols_.starts;
  const std::vector<TimePoint>& finishes = cols_.finishes;
  const std::size_t w_count = writes_by_start_.size();
  std::size_t si = 0;
  std::size_t fi = 0;
  std::size_t depth = 0;
  max_concurrent_writes_ = 0;
  while (si < w_count) {
    if (finishes[writes_by_finish_[fi]] <= starts[writes_by_start_[si]]) {
      --depth;
      ++fi;
    } else {
      max_concurrent_writes_ = std::max(max_concurrent_writes_, ++depth);
      ++si;
    }
  }
}

std::span<const OpId> History::dictated_reads(OpId write) const {
  return {dictated_flat_.data() + read_begin_[write],
          dictated_flat_.data() + read_begin_[write + 1]};
}

TimePoint History::min_time() const {
  return empty() ? 0 : start(by_start_.front());
}

TimePoint History::max_time() const {
  return empty() ? 0 : finish(by_finish_.back());
}

}  // namespace kav
