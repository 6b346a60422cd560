// Unit tests for src/util: rng determinism and distribution sanity,
// sample quantiles, the interval predicates, the adaptive sort, and the
// flag parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/adaptive_sort.h"
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

// --- adaptive_sort ----------------------------------------------------------

// A key with few distinct values and a unique id: ordering by (key, id)
// is a strict total order in which equal keys fall to the tie-break,
// like History's (time, id) and the zones' (low, write).
struct Keyed {
  int key = 0;
  std::uint32_t id = 0;
  friend bool operator==(const Keyed&, const Keyed&) = default;
};

bool by_key_then_id(const Keyed& a, const Keyed& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}

std::vector<Keyed> ascending(std::size_t n) {
  std::vector<Keyed> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back({static_cast<int>(i), static_cast<std::uint32_t>(i)});
  }
  return items;
}

// Every input shape the sort switches on: no work, one inversion, a few
// far-flung ones, and enough to exhaust the insertion budget.
std::vector<std::pair<std::string, std::vector<Keyed>>> sort_inputs(
    std::size_t n, Rng& rng) {
  std::vector<std::pair<std::string, std::vector<Keyed>>> inputs;
  inputs.emplace_back("sorted", ascending(n));
  if (n >= 2) {
    std::vector<Keyed> swapped = ascending(n);
    const std::size_t at = rng.bounded(n - 1);
    std::swap(swapped[at], swapped[at + 1]);
    inputs.emplace_back("one adjacent swap", swapped);
    for (const std::size_t k : {1, 4, 32}) {
      std::vector<Keyed> random_swaps = ascending(n);
      for (std::size_t s = 0; s < k; ++s) {
        std::swap(random_swaps[rng.bounded(n)], random_swaps[rng.bounded(n)]);
      }
      inputs.emplace_back(std::to_string(k) + " random swaps", random_swaps);
    }
  }
  std::vector<Keyed> reversed = ascending(n);
  std::reverse(reversed.begin(), reversed.end());
  inputs.emplace_back("reversed", reversed);
  for (const std::size_t period : {std::size_t{2}, std::size_t{7}, n / 4 + 1}) {
    std::vector<Keyed> sawtooth = ascending(n);
    for (std::size_t i = 0; i < n; ++i) {
      sawtooth[i].key = static_cast<int>(i % period);
    }
    inputs.emplace_back("sawtooth " + std::to_string(period), sawtooth);
  }
  std::vector<Keyed> ties = ascending(n);
  for (Keyed& item : ties) item.key = static_cast<int>(rng.bounded(4));
  std::shuffle(ties.begin(), ties.end(), rng);
  inputs.emplace_back("shuffled equal keys", ties);
  return inputs;
}

TEST(AdaptiveSort, MatchesStdSort) {
  Rng rng(0x5047);
  for (const std::size_t n : {0, 1, 2, 3, 17, 100, 1000}) {
    for (const auto& [shape, input] : sort_inputs(n, rng)) {
      SCOPED_TRACE(shape + ", n = " + std::to_string(n));
      std::vector<Keyed> expected = input;
      std::sort(expected.begin(), expected.end(), by_key_then_id);
      std::vector<Keyed> actual = input;
      adaptive_sort(actual.begin(), actual.end(), by_key_then_id);
      EXPECT_EQ(actual, expected);
    }
  }
}

// Comparisons adaptive_sort makes on `items` (which it sorts).
std::size_t comparisons(std::vector<Keyed>& items) {
  std::size_t count = 0;
  adaptive_sort(items.begin(), items.end(),
                [&count](const Keyed& a, const Keyed& b) {
                  ++count;
                  return by_key_then_id(a, b);
                });
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end(), by_key_then_id));
  return count;
}

TEST(AdaptiveSort, ComparisonsStayWithinNLogNOnDisorderedInput) {
  // An insertion sort without its budget costs ~n^2/4 comparisons on
  // shuffled input and ~n^2/2 on reversed: 4M and 8M here.
  constexpr std::size_t n = 4096;
  constexpr std::size_t log2n = 12;
  constexpr std::size_t bound = 2 * n * log2n + 2 * n;
  std::vector<Keyed> reversed = ascending(n);
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_LE(comparisons(reversed), bound);
  Rng rng(0x5048);
  std::vector<Keyed> shuffled = ascending(n);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  EXPECT_LE(comparisons(shuffled), bound);
}

TEST(AdaptiveSort, NearlySortedInputCostsLinear) {
  // std::sort makes ~n log n comparisons whatever the input's order;
  // a sorted range costs n - 1 and each inverted pair one more.
  constexpr std::size_t n = 4096;
  std::vector<Keyed> sorted = ascending(n);
  EXPECT_EQ(comparisons(sorted), n - 1);
  std::vector<Keyed> swapped = ascending(n);
  std::swap(swapped[n / 2], swapped[n / 2 + 1]);
  EXPECT_EQ(comparisons(swapped), n);
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
