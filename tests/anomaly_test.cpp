// Tests for Section II-C precondition handling: detection of each
// anomaly kind, and the normalize() transformation (timestamp
// uniquification + write shortening) with its contracts -- precedence
// preservation, idempotence, and id stability -- plus a differential
// pinning the O(n) repair to the row-based one it replaced
// (reference_normalize.h) on every History accessor.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "history/anomaly.h"
#include "history/history.h"
#include "history/keyed_trace.h"
#include "history_model.h"
#include "quorum/sim.h"
#include "reference_normalize.h"
#include "util/rng.h"

namespace kav {
namespace {

bool has_kind(const AnomalyReport& report, AnomalyKind kind) {
  for (const Anomaly& a : report.anomalies) {
    if (a.kind == kind) return true;
  }
  return false;
}

TEST(Anomaly, CleanHistoryHasNoAnomalies) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 1);
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(report.empty());
}

TEST(Anomaly, ReadWithoutDictatingWrite) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 42);  // value 42 never written
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(has_kind(report, AnomalyKind::read_without_dictating_write));
  EXPECT_FALSE(report.repairable());
}

TEST(Anomaly, ReadPrecedesDictatingWrite) {
  HistoryBuilder b;
  b.read(0, 10, 1);
  b.write(20, 30, 1);
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(has_kind(report, AnomalyKind::read_precedes_dictating_write));
  EXPECT_FALSE(report.repairable());
}

TEST(Anomaly, OverlappingReadIsNotPreceding) {
  HistoryBuilder b;
  b.read(0, 25, 1);  // overlaps the write: legal (concurrent)
  b.write(20, 30, 1);
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_FALSE(has_kind(report, AnomalyKind::read_precedes_dictating_write));
}

TEST(Anomaly, DuplicateWriteValue) {
  HistoryBuilder b;
  b.write(0, 10, 5);
  b.write(20, 30, 5);
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(has_kind(report, AnomalyKind::duplicate_write_value));
  EXPECT_FALSE(report.repairable());
  EXPECT_EQ(report.anomalies.size(), 1u);
}

TEST(Anomaly, DuplicateTimestampIsRepairable) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.write(10, 20, 2);  // start == previous finish
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(has_kind(report, AnomalyKind::duplicate_timestamp));
  EXPECT_TRUE(report.repairable());
}

TEST(Anomaly, WriteOutlivingDictatedRead) {
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.read(5, 50, 1);  // finishes before its write
  const AnomalyReport report = find_anomalies(b.build());
  EXPECT_TRUE(has_kind(report, AnomalyKind::write_outlives_dictated_read));
  EXPECT_TRUE(report.repairable());
}

TEST(Normalize, ProducesNormalizedHistory) {
  HistoryBuilder b;
  b.write(0, 100, 1);
  b.read(5, 50, 1);
  b.write(50, 120, 2);  // duplicate stamp 50, concurrent writes
  b.read(110, 130, 2);
  const History h = b.build();
  EXPECT_FALSE(is_normalized(h));
  const History n = normalize(h);
  EXPECT_TRUE(is_normalized(n));
  EXPECT_TRUE(find_anomalies(n).empty());
}

TEST(Normalize, PreservesPrecedenceExactly) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(10, 20, 1);   // tie: concurrent with the write
  b.write(25, 40, 2);  // strictly after op 0
  b.read(40, 50, 2);
  const History h = b.build();
  const History n = normalize(h);
  ASSERT_EQ(h.size(), n.size());
  for (OpId a = 0; a < h.size(); ++a) {
    for (OpId b2 = 0; b2 < h.size(); ++b2) {
      if (a == b2) continue;
      // Write shortening may only ADD precedence pairs (w, x); the
      // uniquification itself must preserve the relation exactly. Here
      // no write outlives its reads, so the relation is identical.
      EXPECT_EQ(h.precedes(a, b2), n.precedes(a, b2))
          << "pair (" << a << ", " << b2 << ")";
    }
  }
}

TEST(Normalize, ShorteningOnlyAddsWriteFirstPairs) {
  HistoryBuilder b;
  b.write(0, 100, 1);  // outlives its read
  b.read(5, 50, 1);
  b.read(60, 70, 1);
  const History h = b.build();
  const History n = normalize(h);
  // Existing pairs survive.
  for (OpId a = 0; a < h.size(); ++a) {
    for (OpId b2 = 0; b2 < h.size(); ++b2) {
      if (h.precedes(a, b2)) {
        EXPECT_TRUE(n.precedes(a, b2));
      }
    }
  }
  // The write now precedes the read it previously only overlapped.
  EXPECT_TRUE(n.precedes(0, 2));
  // And finishes before the earliest finish among its dictated reads.
  EXPECT_LT(n.op(0).finish, n.op(1).finish);
}

TEST(Normalize, IdempotentUpToEquivalence) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(10, 20, 1);
  const History n1 = normalize(b.build());
  const History n2 = normalize(n1);
  // Second normalization must not change the precedes relation.
  for (OpId a = 0; a < n1.size(); ++a) {
    for (OpId b2 = 0; b2 < n1.size(); ++b2) {
      if (a != b2) {
        EXPECT_EQ(n1.precedes(a, b2), n2.precedes(a, b2));
      }
    }
  }
}

TEST(Normalize, PreservesOperationIdsAndPayload) {
  HistoryBuilder b;
  b.write(0, 10, 7);
  b.read(10, 20, 7);
  const History h = b.build();
  const History n = normalize(h);
  ASSERT_EQ(n.size(), 2u);
  EXPECT_TRUE(n.op(0).is_write());
  EXPECT_TRUE(n.op(1).is_read());
  EXPECT_EQ(n.op(0).value, 7);
  EXPECT_EQ(n.op(1).value, 7);
}

TEST(Normalize, RejectsHardAnomalies) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 42);
  EXPECT_THROW(normalize(b.build()), std::invalid_argument);
}

TEST(Normalize, EmptyHistory) {
  const History n = normalize(History{});
  EXPECT_TRUE(n.empty());
  EXPECT_TRUE(is_normalized(n));
}

TEST(Normalize, TieBetweenFinishAndStartStaysConcurrent) {
  HistoryBuilder b;
  const OpId w1 = b.write(0, 10, 1);
  const OpId w2 = b.write(10, 20, 2);  // w2.start == w1.finish
  const History n = normalize(b.build());
  EXPECT_FALSE(n.precedes(w1, w2));
  EXPECT_FALSE(n.precedes(w2, w1));
}

TEST(Normalize, ManySharedStampsGetDistinct) {
  HistoryBuilder b;
  for (int i = 0; i < 10; ++i) b.write(100, 200, i + 1);
  const History n = normalize(b.build());
  EXPECT_TRUE(is_normalized(n));
  // All pairwise concurrent before and after.
  for (OpId a = 0; a < n.size(); ++a) {
    for (OpId b2 = 0; b2 < n.size(); ++b2) {
      if (a != b2) {
        EXPECT_FALSE(n.precedes(a, b2));
      }
    }
  }
}

// --- The O(n) repair vs the row-based reference ---------------------------

// Random histories normalize() accepts: write values are unique and
// every read returns a write it does not precede. Times come from a
// small range, so starts, finishes and start == finish pairs collide
// across operations; one write in three may run long enough to outlive
// several of its reads; and the rows are shuffled, so ids arrive out of
// start order.
std::vector<Operation> random_repairable_ops(Rng& rng, std::size_t n) {
  std::vector<Operation> ops;
  std::vector<std::size_t> writes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto client = static_cast<ClientId>(rng.uniform(-1, 3));
    if (writes.empty() || rng.bernoulli(0.35)) {
      const TimePoint start = rng.uniform(0, 30);
      const TimePoint length =
          1 + rng.uniform(0, rng.bernoulli(0.3) ? 30 : 5);
      writes.push_back(ops.size());
      ops.push_back(make_write(start, start + length,
                               static_cast<Value>(writes.size()), client));
    } else {
      const Operation& w = ops[writes[rng.bounded(writes.size())]];
      const TimePoint finish = w.start + rng.uniform(0, 12);
      const TimePoint start = finish - 1 - rng.uniform(0, 6);
      ops.push_back(make_read(start, finish, w.value, client));
    }
  }
  for (std::size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.bounded(i)]);
  }
  return ops;
}

// Which of the repair's cases a history exercises.
struct RepairTally {
  int histories = 0;
  int duplicate_stamps = 0;    // some two of the 2n events collide
  int start_meets_finish = 0;  // some op starts exactly where one ends
  int shortened_writes = 0;    // writes outliving a dictated read
  int outliving_several = 0;   // writes outliving >= 2 dictated reads
  int unsorted_arrival = 0;    // ids out of start order
};

void expect_repair_matches_reference(const History& raw, RepairTally& tally) {
  ASSERT_FALSE(detail::has_hard_anomaly(raw));
  const std::vector<Operation> expected =
      reference::normalize_repairable(raw).operations();
  // Both entry points of the one repair body: a repaired copy, which
  // leaves the input as it was, and an owned history repaired in place.
  const std::vector<Operation> before = raw.operations();
  const History repaired = detail::normalize_repairable(raw);
  testing_util::expect_matches_model(repaired, expected);
  EXPECT_TRUE(is_normalized(repaired));
  EXPECT_EQ(raw.operations(), before);
  History owned = raw;
  detail::repair(owned);
  testing_util::expect_matches_model(owned, expected);
  EXPECT_TRUE(is_normalized(owned));

  ++tally.histories;
  const AnomalyReport report = find_anomalies(raw);
  for (const Anomaly& a : report.anomalies) {
    if (a.kind == AnomalyKind::duplicate_timestamp) {
      ++tally.duplicate_stamps;
      break;
    }
  }
  bool meets = false;
  for (OpId a = 0; a < raw.size() && !meets; ++a) {
    for (OpId b = 0; b < raw.size() && !meets; ++b) {
      meets = raw.finish(a) == raw.start(b);
    }
  }
  tally.start_meets_finish += meets ? 1 : 0;
  for (OpId w : raw.writes_by_start()) {
    int outlived = 0;
    for (OpId r : raw.dictated_reads(w)) {
      outlived += raw.finish(w) >= raw.finish(r) ? 1 : 0;
    }
    tally.shortened_writes += outlived >= 1 ? 1 : 0;
    tally.outliving_several += outlived >= 2 ? 1 : 0;
  }
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw.by_start()[i] != i) {
      ++tally.unsorted_arrival;
      break;
    }
  }
}

TEST(Normalize, MatchesRowBasedReferenceOnRandomHistories) {
  Rng rng(0x4E0B);
  RepairTally tally;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t n = trial < 2 ? static_cast<std::size_t>(trial)
                                    : 2 + rng.bounded(40);
    expect_repair_matches_reference(History(random_repairable_ops(rng, n)),
                                    tally);
  }
  EXPECT_EQ(tally.histories, 400);
  EXPECT_GT(tally.duplicate_stamps, 300);
  EXPECT_GT(tally.start_meets_finish, 300);
  EXPECT_GT(tally.outliving_several, 100);
  EXPECT_GT(tally.unsorted_arrival, 300);
}

TEST(Normalize, MatchesRowBasedReferenceOnSloppyQuorumKeys) {
  // The file audit's input shape (kavbench's audit_file, scaled down):
  // W = R = 1 over three replicas with anti-entropy, so most keys carry
  // both repairable anomalies and none is hard.
  quorum::QuorumConfig config;
  config.replicas = 3;
  config.write_quorum = 1;
  config.read_quorum = 1;
  config.first_responders = false;
  config.anti_entropy = true;
  config.anti_entropy_interval = 20;
  config.clients = 16;
  config.keys = 24;
  config.ops_per_client = 150;
  config.seed = 7;
  const KeyedHistories split =
      split_by_key(quorum::run_sloppy_quorum_sim(config).trace);
  RepairTally tally;
  int repaired = 0;
  for (const auto& [key, history] : split.per_key) {
    SCOPED_TRACE("key " + key);
    if (detail::has_hard_anomaly(history)) continue;
    repaired += is_normalized(history) ? 0 : 1;
    expect_repair_matches_reference(history, tally);
  }
  EXPECT_GE(tally.histories, 20);
  EXPECT_GE(repaired, 15);
  EXPECT_GT(tally.shortened_writes, 5);
}

TEST(AnomalyDescribe, MentionsKindAndOps) {
  HistoryBuilder b;
  b.write(0, 10, 1);
  b.read(12, 20, 42);
  const History h = b.build();
  const AnomalyReport report = find_anomalies(h);
  ASSERT_FALSE(report.empty());
  const std::string text = describe(report.anomalies.front(), h);
  EXPECT_NE(text.find("read-without-dictating-write"), std::string::npos);
  EXPECT_NE(text.find("read(v=42)"), std::string::npos);
}

}  // namespace
}  // namespace kav
