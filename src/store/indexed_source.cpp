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
    std::string label, std::optional<std::size_t> key_count)
    : segments_(std::move(segments)), label_(std::move(label)) {
  for (const auto& segment : segments_) {
    if (!segment->indexed()) {
      throw std::invalid_argument("not an indexed (v2) trace: " +
                                  segment->path());
    }
  }
  key_count_ = key_count ? *key_count : distinct_key_count(segments_);
}

bool IndexedTraceSource::next(KeyedOperation& out) {
  std::string_view key;
  for (;;) {
    if (!cursor_.has_value()) {
      if (segment_index_ >= segments_.size()) return false;
      cursor_.emplace(segments_[segment_index_]->cursor());
    }
    if (cursor_->next(key, out.op)) {
      out.key.assign(key);
      return true;
    }
    cursor_.reset();
    ++segment_index_;
  }
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

bool IndexedTraceSource::contains(const std::string& key) const {
  const BloomProbe probe = bloom_probe(key);
  for (const auto& segment : segments_) {
    if (segment->maybe_contains(probe) && segment->contains(key)) return true;
  }
  return false;
}

std::size_t IndexedTraceSource::key_op_count(const std::string& key) const {
  const BloomProbe probe = bloom_probe(key);
  std::uint64_t records = 0;
  for (const auto& segment : segments_) {
    if (!segment->maybe_contains(probe)) continue;
    if (const KeyStat* s = segment->stat(key)) records += s->records;
  }
  return static_cast<std::size_t>(records);
}

std::optional<KeyStat> IndexedTraceSource::stat(const std::string& key) const {
  const BloomProbe probe = bloom_probe(key);
  std::optional<KeyStat> merged;
  for (const auto& segment : segments_) {
    if (!segment->maybe_contains(probe)) continue;
    const KeyStat* s = segment->stat(key);
    if (s == nullptr) continue;  // bloom false positive
    if (!merged.has_value()) {
      merged = *s;
      continue;
    }
    merged->min_start = std::min(merged->min_start, s->min_start);
    merged->max_finish = std::max(merged->max_finish, s->max_finish);
    merged->records += s->records;
    merged->blocks += s->blocks;
  }
  return merged;
}

std::uint64_t IndexedTraceSource::total_records() const {
  std::uint64_t records = 0;
  for (const auto& segment : segments_) records += segment->total_records();
  return records;
}

History IndexedTraceSource::load_key(const std::string& key) const {
  // Zero-copy: each segment's blocks decode field-wise into one shared
  // set of columns (SIMD strided gathers, whole-block validation), and
  // History adopts the time columns in place -- no intermediate
  // std::vector<Operation>, no per-segment partial vectors. Must stay
  // bit-identical to load_key_materializing (store_fuzz differential).
  const BloomProbe probe = bloom_probe(key);
  OperationColumns columns;
  columns.reserve(key_op_count(key));
  for (const auto& segment : segments_) {
    if (!segment->maybe_contains(probe)) continue;
    BlockCursor cursor(*segment, key);
    cursor.decode_columns(columns);
  }
  return History(std::move(columns));
}

History IndexedTraceSource::load_key_materializing(
    const std::string& key) const {
  const BloomProbe probe = bloom_probe(key);
  std::vector<Operation> ops;
  ops.reserve(key_op_count(key));
  for (const auto& segment : segments_) {
    if (!segment->maybe_contains(probe)) continue;
    std::vector<Operation> part = segment->read_key(key);
    ops.insert(ops.end(), part.begin(), part.end());
  }
  return History(std::move(ops));
}

}  // namespace kav
