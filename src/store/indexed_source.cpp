#include "store/indexed_source.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "store/block_cursor.h"

namespace kav {

namespace {

std::shared_ptr<const MappedSegment> open_indexed(const std::string& path) {
  auto segment = std::make_shared<const MappedSegment>(path);
  if (!segment->indexed()) {
    throw std::invalid_argument("not an indexed (v2) trace: " + path);
  }
  return segment;
}

}  // namespace

std::size_t distinct_key_count(
    const std::vector<std::shared_ptr<const MappedSegment>>& segments) {
  // A segment's key table holds each key once (MappedSegment rejects
  // duplicates), so one segment needs no set.
  if (segments.size() == 1) return segments.front()->key_count();
  std::size_t table_entries = 0;
  for (const auto& segment : segments) table_entries += segment->key_count();
  std::unordered_set<std::string_view> keys;
  keys.reserve(table_entries);
  for (const auto& segment : segments) {
    keys.insert(segment->keys().begin(), segment->keys().end());
  }
  return keys.size();
}

IndexedTraceSource::IndexedTraceSource(const std::string& path)
    : segments_{open_indexed(path)},
      label_("indexed:" + path),
      key_count_(segments_.front()->key_count()) {}

IndexedTraceSource::IndexedTraceSource(
    std::vector<std::shared_ptr<const MappedSegment>> segments,
    std::string label, std::optional<std::size_t> key_count,
    BloomCounters bloom)
    : segments_(std::move(segments)), label_(std::move(label)), bloom_(bloom) {
  for (const auto& segment : segments_) {
    if (!segment->indexed()) {
      throw std::invalid_argument("not an indexed (v2) trace: " +
                                  segment->path());
    }
  }
  key_count_ = key_count ? *key_count : distinct_key_count(segments_);
}

TraceSource::Pull IndexedTraceSource::pull(KeyedChunk& chunk,
                                           std::size_t max_ops,
                                           std::chrono::milliseconds wait) {
  (void)wait;
  chunk.clear();
  max_ops = std::max<std::size_t>(1, max_ops);
  for (; segment_index_ < segments_.size(); ++segment_index_) {
    if (!walk_.has_value()) walk_.emplace(*segments_[segment_index_]);
    if (pull_segment(*walk_, chunk, max_ops)) return Pull::ready;
    walk_.reset();
  }
  return chunk.ops.empty() ? Pull::closed : Pull::ready;
}

std::string IndexedTraceSource::describe() const {
  return label_ + "(" + std::to_string(key_count_) + " keys, " +
         std::to_string(total_records()) + " records)";
}

std::vector<std::string> IndexedTraceSource::selectable_keys() const {
  std::set<std::string_view> merged;
  for (const auto& segment : segments_) {
    merged.insert(segment->keys().begin(), segment->keys().end());
  }
  return {merged.begin(), merged.end()};
}

template <typename Hit>
void IndexedTraceSource::lookup(const std::string& key, Hit&& hit) const {
  const BloomProbe probe = bloom_probe(key);
  std::uint64_t skips = 0;
  std::uint64_t false_positives = 0;
  for (const auto& segment : segments_) {
    if (!segment->maybe_contains(probe)) {  // definitively absent
      ++skips;
      continue;
    }
    const KeyStat* stat = segment->stat(key);
    if (stat == nullptr) {
      ++false_positives;
      continue;
    }
    hit(*segment, *stat);
  }
  if (bloom_.checks != nullptr) {
    bloom_.checks->add(segments_.size());
    bloom_.skips->add(skips);
    bloom_.false_positives->add(false_positives);
  }
}

std::optional<KeyStat> IndexedTraceSource::stat(const std::string& key) const {
  std::optional<KeyStat> merged;
  lookup(key, [&merged](const MappedSegment&, const KeyStat& stat) {
    if (!merged.has_value()) {
      merged = stat;
      return;
    }
    merged->min_start = std::min(merged->min_start, stat.min_start);
    merged->max_finish = std::max(merged->max_finish, stat.max_finish);
    merged->records += stat.records;
    merged->blocks += stat.blocks;
  });
  return merged;
}

std::uint64_t IndexedTraceSource::total_records() const {
  std::uint64_t records = 0;
  for (const auto& segment : segments_) records += segment->total_records();
  return records;
}

std::vector<const MappedSegment*> IndexedTraceSource::holders(
    const std::string& key, std::uint64_t& records) const {
  std::vector<const MappedSegment*> found;
  records = 0;
  lookup(key, [&](const MappedSegment& segment, const KeyStat& stat) {
    found.push_back(&segment);
    records += stat.records;
  });
  return found;
}

History IndexedTraceSource::load_key(const std::string& key) const {
  // Zero-copy: each segment's blocks decode into one shared set of
  // columns (one pass per block, whole-block validation), and
  // History adopts all five columns in place as its own storage -- no
  // Operation row is ever built, no per-segment partial vectors. Must stay
  // bit-identical to load_key_materializing (store_fuzz differential).
  std::uint64_t records = 0;
  const std::vector<const MappedSegment*> segments = holders(key, records);
  OperationColumns columns;
  columns.reserve(static_cast<std::size_t>(records));
  for (const MappedSegment* segment : segments) {
    BlockCursor(*segment, key).decode_columns(columns);
  }
  return History(std::move(columns));
}

History IndexedTraceSource::load_key_materializing(
    const std::string& key) const {
  std::uint64_t records = 0;
  const std::vector<const MappedSegment*> segments = holders(key, records);
  std::vector<Operation> ops;
  ops.reserve(static_cast<std::size_t>(records));
  for (const MappedSegment* segment : segments) {
    std::vector<Operation> part = segment->read_key(key);
    ops.insert(ops.end(), part.begin(), part.end());
  }
  return History(std::move(ops));
}

}  // namespace kav
