// Exhaustive verification over the space of tiny histories: every
// combination of operation intervals on a coarse time grid, for 2-3
// writes and 1-2 reads. Random sweeps sample this space; here we cover
// it completely, so any corner case expressible at this size (nested
// intervals, shared endpoints before normalization, reads overlapping
// several writes, zone-boundary geometry) is checked against the
// oracle for GK (k=1) and LBT/FZF (k=2).
#include <gtest/gtest.h>

#include <vector>

#include "core/fzf.h"
#include "core/gk.h"
#include "core/lbt.h"
#include "core/oracle.h"
#include "core/witness.h"
#include "history/anomaly.h"
#include "history/serialization.h"
#include "history/history.h"

namespace kav {
namespace {

std::vector<std::pair<TimePoint, TimePoint>> grid_intervals(
    const std::vector<TimePoint>& grid) {
  std::vector<std::pair<TimePoint, TimePoint>> intervals;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    for (std::size_t j = i + 1; j < grid.size(); ++j) {
      intervals.emplace_back(grid[i], grid[j]);
    }
  }
  return intervals;
}

// Checks one candidate history end to end; returns false if it was
// skipped (hard anomalies make it out of scope).
bool check_all_deciders(const std::vector<Operation>& ops,
                        std::uint64_t* checked) {
  const History raw(ops);
  const AnomalyReport report = find_anomalies(raw);
  if (!report.repairable()) return false;
  const History h = normalize(raw);

  const Verdict truth1 = oracle_is_k_atomic(h, 1);
  const Verdict truth2 = oracle_is_k_atomic(h, 2);
  EXPECT_TRUE(truth1.decided() && truth2.decided());

  const Verdict gk = check_1atomicity_gk(h);
  EXPECT_EQ(gk.yes(), truth1.yes()) << format_history(h);
  if (gk.yes()) {
    EXPECT_TRUE(validate_witness(h, gk.witness, 1).ok()) << format_history(h);
  }

  const Verdict lbt = check_2atomicity_lbt(h);
  const Verdict fzf = check_2atomicity_fzf(h);
  EXPECT_EQ(lbt.yes(), truth2.yes()) << format_history(h);
  EXPECT_EQ(fzf.yes(), truth2.yes()) << format_history(h);
  if (truth2.yes()) {
    EXPECT_TRUE(validate_witness(h, lbt.witness, 2).ok()) << format_history(h);
    EXPECT_TRUE(validate_witness(h, fzf.witness, 2).ok()) << format_history(h);
  }
  ++*checked;
  return true;
}

TEST(Exhaustive, TwoWritesOneRead) {
  const auto intervals = grid_intervals({0, 2, 4, 6, 8, 10});
  std::uint64_t checked = 0;
  for (const auto& w1 : intervals) {
    for (const auto& w2 : intervals) {
      for (const auto& r : intervals) {
        for (Value read_value : {1, 2}) {
          check_all_deciders(
              {make_write(w1.first, w1.second, 1),
               make_write(w2.first, w2.second, 2),
               make_read(r.first, r.second, read_value)},
              &checked);
        }
      }
    }
  }
  // 15^3 interval layouts x 2 read bindings, minus hard-anomalous ones.
  EXPECT_GT(checked, 3000u);
}

TEST(Exhaustive, TwoWritesTwoReadsCrossBound) {
  // Both reads bound to write 1: covers multi-read clusters and every
  // forward/backward zone shape two reads can induce.
  const auto intervals = grid_intervals({0, 3, 6, 9});
  std::uint64_t checked = 0;
  for (const auto& w1 : intervals) {
    for (const auto& w2 : intervals) {
      for (const auto& r1 : intervals) {
        for (const auto& r2 : intervals) {
          check_all_deciders(
              {make_write(w1.first, w1.second, 1),
               make_write(w2.first, w2.second, 2),
               make_read(r1.first, r1.second, 1),
               make_read(r2.first, r2.second, 1)},
              &checked);
        }
      }
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(Exhaustive, ThreeWritesOneRead) {
  const auto intervals = grid_intervals({0, 3, 6, 9});
  std::uint64_t checked = 0;
  for (const auto& w1 : intervals) {
    for (const auto& w2 : intervals) {
      for (const auto& w3 : intervals) {
        for (const auto& r : intervals) {
          check_all_deciders(
              {make_write(w1.first, w1.second, 1),
               make_write(w2.first, w2.second, 2),
               make_write(w3.first, w3.second, 3),
               make_read(r.first, r.second, 1)},  // read the oldest value
              &checked);
        }
      }
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(Exhaustive, TwoClustersEveryBinding) {
  // Two writes, two reads, all four value bindings: covers the
  // cross-cluster interference geometry exhaustively at this size.
  const auto intervals = grid_intervals({0, 3, 6, 9});
  std::uint64_t checked = 0;
  for (const auto& w1 : intervals) {
    for (const auto& w2 : intervals) {
      for (const auto& r1 : intervals) {
        for (const auto& r2 : intervals) {
          for (Value v1 : {1, 2}) {
            for (Value v2 : {1, 2}) {
              check_all_deciders(
                  {make_write(w1.first, w1.second, 1),
                   make_write(w2.first, w2.second, 2),
                   make_read(r1.first, r1.second, v1),
                   make_read(r2.first, r2.second, v2)},
                  &checked);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 2000u);
}

}  // namespace
}  // namespace kav
