// Unit tests for src/util: rng determinism and distribution sanity,
// sample quantiles, the interval predicates, and the flag parser.
#include <gtest/gtest.h>

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

TEST(Samples, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.9), 90.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
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
