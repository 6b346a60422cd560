// The brute-force model of History's accessors: every index recomputed
// from a plain std::vector<Operation> with quadratic scans and stable
// sorts, so history_test.cpp can pin both constructors to it and
// anomaly_test.cpp can pin the repaired copy to the rows of the
// row-based repair (reference_normalize.h).
#ifndef KAV_TESTS_HISTORY_MODEL_H
#define KAV_TESTS_HISTORY_MODEL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "history/history.h"
#include "util/rng.h"

namespace kav::testing_util {

inline OperationColumns columns_of(const std::vector<Operation>& ops) {
  OperationColumns columns;
  for (const Operation& op : ops) columns.push_back(op);
  return columns;
}

// Random operations with few distinct times and values, so duplicate
// timestamps, duplicate write values, reads without a dictating write
// and unsorted arrival order all occur.
inline std::vector<Operation> random_ops(Rng& rng, std::size_t n) {
  std::vector<Operation> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const TimePoint start = rng.uniform(-5, 40);
    const TimePoint finish = start + 1 + rng.uniform(0, 12);
    const Value value = rng.uniform(0, 6);
    const auto client = static_cast<ClientId>(rng.uniform(-1, 3));
    ops.push_back(rng.bernoulli(0.4) ? make_write(start, finish, value, client)
                                     : make_read(start, finish, value, client));
  }
  return ops;
}

// Op ids sorted by `time`, ties by id.
inline std::vector<OpId> ids_by(const std::vector<Operation>& ops,
                                TimePoint Operation::*time) {
  std::vector<OpId> ids(ops.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [&](OpId a, OpId b) {
    return ops[a].*time < ops[b].*time;
  });
  return ids;
}

// Checks every accessor of `h` against a brute-force model of `ops`.
inline void expect_matches_model(const History& h,
                                 const std::vector<Operation>& ops) {
  ASSERT_EQ(h.size(), ops.size());
  EXPECT_EQ(h.empty(), ops.empty());
  EXPECT_EQ(h.operations(), ops);
  for (OpId id = 0; id < ops.size(); ++id) {
    EXPECT_EQ(h.op(id), ops[id]) << "op " << id;
    EXPECT_EQ(h.start(id), ops[id].start);
    EXPECT_EQ(h.finish(id), ops[id].finish);
    EXPECT_EQ(h.value(id), ops[id].value);
    EXPECT_EQ(h.is_write(id), ops[id].is_write());
    EXPECT_EQ(h.is_read(id), ops[id].is_read());
  }

  const std::vector<OpId> by_start = ids_by(ops, &Operation::start);
  const std::vector<OpId> by_finish = ids_by(ops, &Operation::finish);
  EXPECT_TRUE(std::ranges::equal(h.by_start(), by_start));
  EXPECT_TRUE(std::ranges::equal(h.by_finish(), by_finish));
  std::vector<OpId> writes_by_start;
  std::vector<OpId> reads;
  for (OpId id : by_start) {
    (ops[id].is_write() ? writes_by_start : reads).push_back(id);
  }
  std::vector<OpId> writes_by_finish;
  for (OpId id : by_finish) {
    if (ops[id].is_write()) writes_by_finish.push_back(id);
  }
  EXPECT_TRUE(std::ranges::equal(h.writes_by_start(), writes_by_start));
  EXPECT_TRUE(std::ranges::equal(h.writes_by_finish(), writes_by_finish));
  EXPECT_TRUE(std::ranges::equal(h.reads(), reads));
  EXPECT_EQ(h.write_count(), writes_by_start.size());
  EXPECT_EQ(h.read_count(), reads.size());

  // The earliest-starting write of each value dictates its reads.
  const auto first_write_of = [&](Value v) {
    for (OpId w : writes_by_start) {
      if (ops[w].value == v) return w;
    }
    return kInvalidOp;
  };
  bool duplicate_values = false;
  for (OpId w : writes_by_start) {
    duplicate_values = duplicate_values || first_write_of(ops[w].value) != w;
  }
  EXPECT_EQ(h.has_duplicate_write_values(), duplicate_values);
  std::vector<OpId> dictating(ops.size(), kInvalidOp);
  for (OpId r : reads) {
    dictating[r] = first_write_of(ops[r].value);
    EXPECT_EQ(h.dictating_write(r), dictating[r]) << "read " << r;
  }
  for (OpId w : writes_by_start) {
    std::vector<OpId> dictated;
    for (OpId r : reads) {
      if (dictating[r] == w) dictated.push_back(r);
    }
    EXPECT_TRUE(std::ranges::equal(h.dictated_reads(w), dictated))
        << "write " << w;
  }

  // Depth of the write sweep as each write starts: the writes at or
  // before it in start order that have not finished by its start.
  std::size_t max_concurrent = 0;
  for (std::size_t i = 0; i < writes_by_start.size(); ++i) {
    const TimePoint at = ops[writes_by_start[i]].start;
    std::size_t depth = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      depth += ops[writes_by_start[j]].finish > at ? 1 : 0;
    }
    max_concurrent = std::max(max_concurrent, depth);
  }
  EXPECT_EQ(h.max_concurrent_writes(), max_concurrent);

  TimePoint min_time = 0;
  TimePoint max_time = 0;
  if (!ops.empty()) {
    min_time = ops[by_start.front()].start;
    max_time = ops[by_finish.back()].finish;
  }
  EXPECT_EQ(h.min_time(), min_time);
  EXPECT_EQ(h.max_time(), max_time);
}

}  // namespace kav::testing_util

#endif  // KAV_TESTS_HISTORY_MODEL_H
