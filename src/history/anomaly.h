// Detection and repair of the precondition violations from Section II-C
// of the paper. The verification algorithms assume histories that are
//
//   (1) anomaly-free: every read has a dictating write, and no read
//       precedes its dictating write (either condition immediately
//       falsifies k-atomicity for every k);
//   (2) value-unique: no two writes store the same value (otherwise the
//       decision problem becomes NP-complete, per Section II-C);
//   (3) timestamp-unique: all 2n start/finish events are distinct; and
//   (4) write-shortened: every write finishes before the earliest
//       finish among its dictated reads (enforceable without loss of
//       generality because a write's commit point cannot occur after
//       one of its dictated reads has finished).
//
// (1) and (2) are hard anomalies: they are reported and cannot be
// repaired. (3) and (4) are repaired by normalize(), which preserves
// the "precedes" partial order exactly and therefore preserves
// k-atomicity for every k.
//
// Classifying a history costs O(n) scans and no allocation:
// detail::has_hard_anomaly answers (1)-(2), is_normalized (3)-(4).
// verify_k_atomicity and normalize() decide with those two alone;
// find_anomalies, which lists every anomaly (a hash walk over all 2n
// timestamps when any collide), runs only to explain a failure.
#ifndef KAV_HISTORY_ANOMALY_H
#define KAV_HISTORY_ANOMALY_H

#include <string>
#include <vector>

#include "history/history.h"

namespace kav {

enum class AnomalyKind : unsigned char {
  read_without_dictating_write,  // hard: not k-atomic for any k
  read_precedes_dictating_write,  // hard: not k-atomic for any k
  duplicate_write_value,          // hard: verification is NP-complete
  duplicate_timestamp,            // repairable by normalize()
  write_outlives_dictated_read,   // repairable by normalize()
};

const char* to_string(AnomalyKind kind);

struct Anomaly {
  AnomalyKind kind;
  OpId op_a = kInvalidOp;  // the offending operation
  OpId op_b = kInvalidOp;  // its counterpart, when meaningful
};

std::string describe(const Anomaly& anomaly, const History& history);

struct AnomalyReport {
  std::vector<Anomaly> anomalies;

  bool empty() const { return anomalies.empty(); }

  // True when only repairable anomalies are present, i.e. normalize()
  // yields a history the checkers accept.
  bool repairable() const;
};

// Every anomaly, in a fixed order: duplicate write values, read
// anomalies, duplicate timestamps, outliving writes. For explaining a
// failure; deciding whether there is one is O(n) (see above).
AnomalyReport find_anomalies(const History& history);

// True iff the history satisfies (3) and (4) above. (1) and (2) are
// separate concerns: a normalized history can still contain hard
// anomalies (detail::has_hard_anomaly).
bool is_normalized(const History& history);

// Produces an equivalent history with unique timestamps and shortened
// writes. Operation ids (vector positions) are preserved, so witnesses
// computed on the normalized history index into the original too.
//
// The transformation preserves the "precedes" relation exactly on the
// uniquification step, and only *adds* precedence pairs (w, op) implied
// by moving write commit points earlier -- the paper argues this is
// harmless (Section II-C). Throws std::invalid_argument if the history
// has hard anomalies (normalize cannot give those meaning). O(n): see
// detail::repair.
History normalize(const History& history);

namespace detail {

// True iff the history has a hard anomaly -- (1) or (2) above: a read
// with no dictating write, a read preceding its dictating write, or two
// writes of one value. Equals !find_anomalies(history).repairable() in
// O(n) without listing anything.
bool has_hard_anomaly(const History& history);

// normalize() minus its has_hard_anomaly check, for a caller that
// already ran it (detail::gate). On a history with hard anomalies the
// result is meaningless. This is the one repair body, with two entry
// points: `out` is either a default-constructed History, which
// receives a repaired copy of `source` (normalize_repairable below), or
// `source` itself, repaired in place (repair(History&)).
//
// O(n) time, no sort and no Operation rows: the new stamps come from
// one merge of the input's by_start() and by_finish(), which reads
// each stamp before it overwrites it, so the merge can rewrite the
// columns it reads. Every index built from the start order and the
// values (by_start, writes_by_start, reads, dictating writes, dictated
// reads) stays as it is, or is copied once into a
// fresh `out`. Only by_finish, writes_by_finish and
// max_concurrent_writes are rebuilt, by one walk over the old finish
// order. A friend of History for that reason.
void repair(const History& source, History& out);

// Repairs a history the caller owns in place: no copy of its columns or
// indexes.
inline void repair(History& history) { repair(history, history); }

// A repaired copy; `history` is left as it is.
History normalize_repairable(const History& history);

}  // namespace detail

}  // namespace kav

#endif  // KAV_HISTORY_ANOMALY_H
