// Unit tests for the Section II-A model: the precedes relation,
// History's derived indexes (sorted views, dictating writes, dictated
// reads), the write-concurrency statistic c, and the two constructors
// (rows and columns) agreeing with each other and a brute-force model.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "history/history.h"
#include "history_model.h"
#include "util/rng.h"

namespace kav {
namespace {

using testing_util::columns_of;
using testing_util::expect_matches_model;
using testing_util::random_ops;

TEST(Operation, PrecedesIsStrict) {
  const Operation a = make_write(0, 10, 1);
  const Operation b = make_read(11, 20, 1);
  const Operation c = make_read(10, 20, 1);  // starts exactly at a.finish
  EXPECT_TRUE(a.precedes(b));
  EXPECT_FALSE(b.precedes(a));
  EXPECT_FALSE(a.precedes(c));  // f < s must be strict
  EXPECT_TRUE(a.concurrent_with(c));
  EXPECT_FALSE(a.concurrent_with(b));
}

TEST(History, RejectsMalformedIntervals) {
  EXPECT_THROW(History({make_write(10, 10, 1)}), std::invalid_argument);
  EXPECT_THROW(History({make_write(10, 5, 1)}), std::invalid_argument);
}

TEST(History, EmptyHistory) {
  const History h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.write_count(), 0u);
  EXPECT_EQ(h.max_concurrent_writes(), 0u);
}

TEST(History, IndexesAreSorted) {
  HistoryBuilder b;
  const OpId w2 = b.write(50, 60, 2);
  const OpId r1 = b.read(30, 42, 1);
  const OpId w1 = b.write(0, 25, 1);
  const OpId r2 = b.read(62, 70, 2);
  const History h = b.build();

  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.write_count(), 2u);
  EXPECT_EQ(h.read_count(), 2u);

  const std::vector<OpId> by_start(h.by_start().begin(), h.by_start().end());
  EXPECT_EQ(by_start, (std::vector<OpId>{w1, r1, w2, r2}));
  const std::vector<OpId> by_finish(h.by_finish().begin(),
                                    h.by_finish().end());
  EXPECT_EQ(by_finish, (std::vector<OpId>{w1, r1, w2, r2}));
  const std::vector<OpId> wbf(h.writes_by_finish().begin(),
                              h.writes_by_finish().end());
  EXPECT_EQ(wbf, (std::vector<OpId>{w1, w2}));
}

TEST(History, DictatingWriteResolution) {
  HistoryBuilder b;
  const OpId w1 = b.write(0, 10, 7);
  const OpId r1 = b.read(12, 20, 7);
  const OpId r2 = b.read(22, 30, 7);
  const OpId w2 = b.write(40, 50, 8);
  const OpId orphan = b.read(52, 60, 99);
  const OpId w3 = b.write(62, 70, 9);
  const OpId r3 = b.read(72, 80, 9);
  const History h = b.build();

  EXPECT_EQ(h.dictating_write(r1), w1);
  EXPECT_EQ(h.dictating_write(r2), w1);
  EXPECT_EQ(h.dictating_write(r3), w3);
  EXPECT_EQ(h.dictating_write(orphan), kInvalidOp);

  const auto reads = h.dictated_reads(w1);
  EXPECT_EQ(std::vector<OpId>(reads.begin(), reads.end()),
            (std::vector<OpId>{r1, r2}));
  EXPECT_TRUE(h.dictated_reads(w2).empty());
  EXPECT_EQ(h.dictated_reads(w3).size(), 1u);
}

TEST(History, DictatedReadsSortedByStart) {
  HistoryBuilder b;
  const OpId w = b.write(0, 10, 1);
  const OpId late = b.read(40, 50, 1);
  const OpId early = b.read(12, 20, 1);
  const OpId mid = b.read(25, 35, 1);
  const History h = b.build();
  const auto reads = h.dictated_reads(w);
  EXPECT_EQ(std::vector<OpId>(reads.begin(), reads.end()),
            (std::vector<OpId>{early, mid, late}));
}

TEST(History, DuplicateWriteValuesFlagged) {
  HistoryBuilder b;
  b.write(20, 30, 5);
  b.write(0, 10, 5);
  const OpId read = b.read(40, 50, 5);
  const History h = b.build();
  EXPECT_TRUE(h.has_duplicate_write_values());
  // The earliest-starting write dictates the value's reads.
  EXPECT_EQ(h.dictating_write(read), 1u);
}

TEST(History, DictatingWritesWithAdversarialValueOrder) {
  // The dictating-write resolver gallops forward from the previous
  // read's value; this history forces every branch: repeats (stay),
  // big forward jumps (gallop), backward jumps (prefix re-search),
  // and absent values landing between, before, and after the index.
  HistoryBuilder b;
  std::vector<OpId> writes;
  for (int i = 0; i < 12; ++i) {
    // Values 0, 10, 20, ... 110 -- gaps for the absent-value probes.
    writes.push_back(b.write(i * 100, i * 100 + 5, i * 10));
  }
  const OpId repeat_a = b.read(1200, 1210, 50);
  const OpId repeat_b = b.read(1220, 1230, 50);
  const OpId jump_fwd = b.read(1240, 1250, 110);
  const OpId jump_back = b.read(1260, 1270, 0);
  const OpId absent_mid = b.read(1280, 1290, 55);
  const OpId absent_low = b.read(1300, 1310, -3);
  const OpId absent_high = b.read(1320, 1330, 999);
  const OpId after_miss = b.read(1340, 1350, 70);
  const History h = b.build();

  EXPECT_EQ(h.dictating_write(repeat_a), writes[5]);
  EXPECT_EQ(h.dictating_write(repeat_b), writes[5]);
  EXPECT_EQ(h.dictating_write(jump_fwd), writes[11]);
  EXPECT_EQ(h.dictating_write(jump_back), writes[0]);
  EXPECT_EQ(h.dictating_write(absent_mid), kInvalidOp);
  EXPECT_EQ(h.dictating_write(absent_low), kInvalidOp);
  EXPECT_EQ(h.dictating_write(absent_high), kInvalidOp);
  EXPECT_EQ(h.dictating_write(after_miss), writes[7]);
}

TEST(History, DictatingWritesMatchBruteForceOnRandomValueStreams) {
  // Differential against a brute-force scan, over histories whose
  // write values are shuffled (so the sorted-values fast path is off)
  // and whose read values wander arbitrarily (so the gallop hint
  // moves both directions and misses often).
  Rng rng(0xD1C7);
  for (int trial = 0; trial < 40; ++trial) {
    HistoryBuilder b;
    const int write_count = 1 + static_cast<int>(rng.bounded(20));
    std::vector<Value> values;
    for (int i = 0; i < write_count; ++i) {
      values.push_back(static_cast<Value>(rng.bounded(30)));
    }
    TimePoint t = 0;
    std::vector<OpId> writes;
    for (int i = 0; i < write_count; ++i) {
      writes.push_back(b.write(t, t + 5, values[static_cast<std::size_t>(i)]));
      t += 10;
    }
    const int read_count = static_cast<int>(rng.bounded(40));
    std::vector<OpId> reads;
    std::vector<Value> read_values;
    for (int i = 0; i < read_count; ++i) {
      read_values.push_back(static_cast<Value>(rng.bounded(40)));
      reads.push_back(b.read(t, t + 5, read_values.back()));
      t += 10;
    }
    const History h = b.build();
    for (int i = 0; i < read_count; ++i) {
      // Brute force: earliest-starting write of that value, if any.
      OpId want = kInvalidOp;
      for (std::size_t w = 0; w < writes.size(); ++w) {
        if (values[w] == read_values[static_cast<std::size_t>(i)]) {
          want = writes[w];
          break;
        }
      }
      ASSERT_EQ(h.dictating_write(reads[static_cast<std::size_t>(i)]), want)
          << "trial " << trial << " read " << i;
    }
  }
}

TEST(History, MaxConcurrentWritesCountsOnlyWrites) {
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.write(10, 90, 2);
  b.write(20, 80, 3);
  b.read(0, 200, 1);  // reads do not count toward c
  b.write(150, 160, 4);
  const History h = b.build();
  EXPECT_EQ(h.max_concurrent_writes(), 3u);
}

TEST(History, SequentialWritesHaveConcurrencyOne) {
  HistoryBuilder b;
  for (int i = 0; i < 5; ++i) {
    b.write(i * 100, i * 100 + 50, i + 1);
  }
  const History h = b.build();
  EXPECT_EQ(h.max_concurrent_writes(), 1u);
}

TEST(History, TouchingWritesAreConcurrent) {
  // w2 starts exactly when w1 finishes: strict precedes says they are
  // concurrent, and the sweep (finish-before-start at equal time)
  // reports depth 1; this documents the tie behaviour -- normalized
  // histories never tie.
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(10, 20, 2);
  const History h = b.build();
  EXPECT_TRUE(h.op(0).concurrent_with(h.op(1)));
  EXPECT_EQ(h.max_concurrent_writes(), 1u);
}

TEST(History, MinMaxTime) {
  HistoryBuilder b;
  b.write(5, 10, 1);
  b.read(2, 30, 1);
  const History h = b.build();
  EXPECT_EQ(h.min_time(), 2);
  EXPECT_EQ(h.max_time(), 30);
}

TEST(History, PrecedesAccessor) {
  HistoryBuilder b;
  const OpId a = b.write(0, 10, 1);
  const OpId c = b.read(20, 30, 1);
  const History h = b.build();
  EXPECT_TRUE(h.precedes(a, c));
  EXPECT_FALSE(h.precedes(c, a));
}

// --- Rows vs. columns ------------------------------------------------------

TEST(History, RowsAndColumnsAgreeOnEveryAccessor) {
  Rng rng(0xC0175);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<Operation> ops =
        random_ops(rng, trial == 0 ? 0 : rng.bounded(24));
    const History from_rows(ops);
    const History from_columns(columns_of(ops));
    expect_matches_model(from_rows, ops);
    expect_matches_model(from_columns, ops);
  }
}

TEST(History, ColumnsAcceptTimeSortedInput) {
  // Time-sorted columns cost the event-order sort one comparison per
  // op. Columns that increase but for one equal adjacent stamp or one
  // step back -- in starts, finishes or both, at every position of
  // every length up to 18 -- and columns at the 64-bit extremes must
  // index exactly like the model.
  std::vector<std::vector<Operation>> cases;
  for (std::size_t n = 0; n <= 18; ++n) {
    std::vector<Operation> increasing;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<TimePoint>(3 * i) - 8;
      const auto v = static_cast<Value>(i - i % 3);  // increasing writes
      increasing.push_back(i % 3 == 0 ? make_write(t, t + 5, v)
                                      : make_read(t, t + 5, v));
    }
    cases.push_back(increasing);
    for (std::size_t at = 1; at < n; ++at) {
      for (const TimePoint back : {0, 1}) {
        std::vector<Operation> starts = increasing;
        starts[at].start = starts[at - 1].start - back;
        std::vector<Operation> finishes = increasing;
        finishes[at].finish = finishes[at - 1].finish - back;
        std::vector<Operation> both = increasing;
        both[at].start = both[at - 1].start - back;
        both[at].finish = both[at - 1].finish - back;
        cases.insert(cases.end(), {starts, finishes, both});
      }
    }
  }
  constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
  constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();
  cases.push_back({make_write(kMin, kMin + 1, 1), make_read(-1, 0, 1),
                   make_write(kMax - 1, kMax, 2), make_read(kMin, kMax, 2)});
  cases.push_back({make_write(kMin, kMax, 1), make_read(kMin, kMax, 1),
                   make_read(kMin + 1, kMax, 1)});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    expect_matches_model(History(cases[i]), cases[i]);
    expect_matches_model(History(columns_of(cases[i])), cases[i]);
  }
}

TEST(History, ColumnsInAnyArrivalOrderIndexLikeTheModel) {
  // The event orders sort ids by (time, id) from any arrival order:
  // nearly sorted (jittered stamps, some of them equal), a few adjacent
  // swaps of a start-sorted trace, reversed and shuffled, at sizes past
  // the point where the sort's insertion budget runs out.
  Rng rng(0x50A7);
  for (const std::size_t n : {64, 600}) {
    std::vector<Operation> jittered;
    Value latest = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const TimePoint start = 2 * static_cast<TimePoint>(i) + rng.uniform(0, 3);
      const TimePoint finish = start + 1 + rng.uniform(0, 8);
      if (latest == 0 || rng.bernoulli(0.4)) {
        jittered.push_back(make_write(start, finish, ++latest));
      } else {
        jittered.push_back(make_read(start, finish, latest - rng.uniform(0, 1)));
      }
    }
    std::vector<Operation> swapped = jittered;
    std::stable_sort(swapped.begin(), swapped.end(),
                     [](const Operation& a, const Operation& b) {
                       return a.start < b.start;
                     });
    for (int s = 0; s < 5; ++s) {
      const std::size_t at = rng.bounded(n - 1);
      std::swap(swapped[at], swapped[at + 1]);
    }
    std::vector<Operation> reversed(jittered.rbegin(), jittered.rend());
    std::vector<Operation> shuffled = jittered;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const auto& [shape, ops] :
         {std::pair{"jittered", jittered}, std::pair{"swapped", swapped},
          std::pair{"reversed", reversed}, std::pair{"shuffled", shuffled}}) {
      SCOPED_TRACE(std::string(shape) + ", n = " + std::to_string(n));
      expect_matches_model(History(ops), ops);
      expect_matches_model(History(columns_of(ops)), ops);
    }
  }
}

std::string constructor_error(const auto& build) {
  try {
    build();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no error";
}

TEST(History, ColumnsRejectMismatchedLengths) {
  const std::vector<Operation> ops = {make_write(0, 10, 1), make_read(5, 15, 1)};
  for (int column = 0; column < 5; ++column) {
    OperationColumns columns = columns_of(ops);
    switch (column) {
      case 0: columns.starts.pop_back(); break;
      case 1: columns.finishes.pop_back(); break;
      case 2: columns.values.pop_back(); break;
      case 3: columns.clients.push_back(7); break;
      case 4: columns.types.push_back(0); break;
    }
    EXPECT_EQ(constructor_error([&] { History{std::move(columns)}; }),
              "OperationColumns columns differ in length")
        << "column " << column;
  }
}

TEST(History, ColumnsRejectBadIntervalsLikeRows) {
  // A bad interval (start == finish or start > finish) at every
  // position of every length up to 18, with a second bad one after it,
  // and at the 64-bit extremes: both constructors name the first.
  std::vector<std::pair<std::vector<Operation>, std::size_t>> cases;
  for (std::size_t n = 1; n <= 18; ++n) {
    std::vector<Operation> ops;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t = static_cast<TimePoint>(3 * i);
      ops.push_back(i == 0 ? make_write(t, t + 5, 1) : make_read(t, t + 5, 1));
    }
    for (std::size_t bad = 0; bad < n; ++bad) {
      for (const TimePoint finish : {ops[bad].start, ops[bad].start - 3}) {
        std::vector<Operation> broken = ops;
        broken[bad].finish = finish;
        if (bad + 2 < n) broken[bad + 2].finish = broken[bad + 2].start;
        cases.emplace_back(broken, bad);
      }
    }
  }
  constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
  constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();
  cases.push_back({{make_write(kMin, kMax, 1), make_read(kMin, kMin + 1, 1),
                    make_read(kMax - 1, kMax, 1), make_read(kMax, kMin, 1)},
                   3});
  for (const auto& [broken, bad] : cases) {
    const std::string expected =
        "operation " + std::to_string(bad) + " has start >= finish";
    EXPECT_EQ(constructor_error([&] { History{broken}; }), expected)
        << broken.size() << " operations";
    EXPECT_EQ(constructor_error([&] { History{columns_of(broken)}; }),
              expected)
        << broken.size() << " operations";
  }
}

}  // namespace
}  // namespace kav
