// Unit tests for src/util: rng determinism and distribution sanity,
// statistics (moments, quantiles, power-law fits), interval containers,
// and the flag parser.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/flags.h"
#include "util/interval_set.h"
#include "util/rng.h"
#include "util/stats.h"

namespace kav {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t x = rng.uniform(-5, 17);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 17);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BoundedIsUnbiasedEnough) {
  Rng rng(99);
  std::vector<int> counts(7, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.bounded(7)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 7, trials / 7 * 0.1);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(3);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.next() == child.next();
  EXPECT_LT(equal, 3);
}

TEST(OnlineStats, MomentsMatchKnownData) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(PowerFit, RecoversQuadratic) {
  std::vector<double> xs, ys;
  for (double x : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);
  }
  const PowerFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.coefficient, 3.0, 1e-6);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(PowerFit, RecoversLinearWithNoise) {
  std::vector<double> xs, ys;
  Rng rng(11);
  for (int i = 1; i <= 30; ++i) {
    const double x = i * 100.0;
    xs.push_back(x);
    ys.push_back(5.0 * x * (0.9 + 0.2 * rng.uniform_double()));
  }
  const PowerFit fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 1.0, 0.05);
}

TEST(PowerFit, SkipsNonPositive) {
  const PowerFit fit = fit_power_law({-1.0, 0.0, 2.0}, {1.0, 1.0, 8.0});
  EXPECT_EQ(fit.points, 1u);
  EXPECT_EQ(fit.exponent, 0.0);  // under-determined
}

TEST(Interval, OverlapAndContainment) {
  const Interval a{0, 10};
  const Interval b{5, 15};
  const Interval c{12, 20};
  const Interval inner{2, 8};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.contains(inner));
  EXPECT_FALSE(inner.contains(a));
  EXPECT_FALSE(a.contains(a));  // strict
  EXPECT_TRUE(a.contains(TimePoint{5}));
  EXPECT_FALSE(a.contains(TimePoint{0}));  // strict endpoints
}

TEST(IntervalSet, MergesRuns) {
  IntervalSet set;
  set.add({0, 10});
  set.add({5, 20});
  set.add({30, 40});
  ASSERT_EQ(set.runs().size(), 2u);
  EXPECT_EQ(set.runs()[0], (Interval{0, 20}));
  EXPECT_EQ(set.runs()[1], (Interval{30, 40}));
  EXPECT_TRUE(set.covers(TimePoint{15}));
  EXPECT_FALSE(set.covers(TimePoint{25}));
  EXPECT_TRUE(set.covers(Interval{31, 39}));
  EXPECT_FALSE(set.covers(Interval{5, 35}));
}

TEST(IntervalSet, TouchingIntervalsStaySeparate) {
  // Strict overlap semantics: [0,10) and [10,20) do not merge.
  IntervalSet set;
  set.add({0, 10});
  set.add({10, 20});
  EXPECT_EQ(set.runs().size(), 2u);
}

TEST(IntervalTree, StabbingAndOverlap) {
  std::vector<IntervalTree::Entry> entries;
  entries.push_back({{0, 10}, 0});
  entries.push_back({{5, 15}, 1});
  entries.push_back({{20, 30}, 2});
  const IntervalTree tree(std::move(entries));
  EXPECT_EQ(tree.size(), 3u);

  const auto at7 = tree.stabbing(7);
  EXPECT_EQ(at7, (std::vector<std::size_t>{0, 1}));
  const auto at25 = tree.stabbing(25);
  EXPECT_EQ(at25, (std::vector<std::size_t>{2}));
  EXPECT_TRUE(tree.stabbing(17).empty());

  const auto over = tree.overlapping({8, 22});
  EXPECT_EQ(over, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(IntervalTree, LargeRandomAgainstBruteForce) {
  Rng rng(17);
  std::vector<IntervalTree::Entry> entries;
  for (std::size_t i = 0; i < 500; ++i) {
    const TimePoint lo = rng.uniform(0, 10000);
    entries.push_back({{lo, lo + rng.uniform(1, 500)}, i});
  }
  const std::vector<IntervalTree::Entry> copy = entries;
  const IntervalTree tree(std::move(entries));
  for (int trial = 0; trial < 50; ++trial) {
    const TimePoint lo = rng.uniform(0, 10000);
    const Interval query{lo, lo + rng.uniform(1, 700)};
    std::set<std::size_t> expected;
    for (const auto& e : copy) {
      if (e.iv.overlaps(query)) expected.insert(e.tag);
    }
    const auto got = tree.overlapping(query);
    EXPECT_EQ(std::set<std::size_t>(got.begin(), got.end()), expected);
  }
}

TEST(Flags, ParsesForms) {
  // Note --name consumes a following non-flag token as its value, so a
  // trailing bare --gamma is boolean true while "pos1" (before any
  // flag) stays positional.
  const char* argv[] = {"prog", "pos1", "--alpha=3", "--beta", "7",
                        "--gamma"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get_int("beta", 0), 7);
  EXPECT_TRUE(flags.get_bool("gamma", false));
  EXPECT_EQ(flags.get_string("missing", "d"), "d");
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"pos1"});
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(Flags, BoolFlagHandsBackSwallowedPositional) {
  // The constructor cannot know --json is boolean, so it greedily
  // consumes the path as its value; get_bool must undo that.
  const char* argv[] = {"prog", "--json", "trace.kavb"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("json", false));
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"trace.kavb"});
  EXPECT_NO_THROW(flags.check_unknown());
}

TEST(Flags, BoolFlagParsesExplicitValues) {
  const char* argv[] = {"prog", "--a=true", "--b", "no", "--c=0"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, RejectsUnknown) {
  const char* argv[] = {"prog", "--oops=1"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_THROW(flags.check_unknown(), std::invalid_argument);
}

TEST(Flags, ParsesListenAddress) {
  const ListenAddress bare = parse_listen_address("9100");
  EXPECT_EQ(bare.address, "127.0.0.1");
  EXPECT_EQ(bare.port, 9100);
  const ListenAddress full = parse_listen_address("0.0.0.0:65535");
  EXPECT_EQ(full.address, "0.0.0.0");
  EXPECT_EQ(full.port, 65535);
  EXPECT_EQ(parse_listen_address("::1:0").address, "::1");  // last ':' splits
  EXPECT_EQ(parse_listen_address("0").port, 0);
}

TEST(Flags, ListenAddressRejectsJunkAndOutOfRangePorts) {
  for (const char* bad : {"80abc", "70000", "65536", "-5", "", "host:",
                          "host:+80", "host: 80", "123456", "0x50"}) {
    EXPECT_THROW(parse_listen_address(bad), std::invalid_argument) << bad;
  }
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "2.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2.5   |"), std::string::npos);
}

}  // namespace
}  // namespace kav
