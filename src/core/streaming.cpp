#include "core/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "core/verify.h"
#include "history/anomaly.h"

namespace kav {

namespace {

// Min-heap order on (key, seq) for the std heap algorithms, which
// build max-heaps.
struct Later {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.key != b.key ? a.key > b.key : a.seq > b.seq;
  }
};

// splitmix64's finalizer: spreads clustered write values over the
// table.
std::uint64_t mix(Value value) {
  auto x = static_cast<std::uint64_t>(value);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t StreamingChecker::ValueSet::probe(Value value) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = mix(value) & mask;
  while (slots_[i] != kEmpty && slots_[i] != value) i = (i + 1) & mask;
  return i;
}

void StreamingChecker::ValueSet::insert(Value value) {
  if (value == kEmpty) {
    has_empty_value_ = true;
    return;
  }
  if ((size_ + 1) * 4 > slots_.size() * 3) {  // keep load <= 3/4
    std::vector<Value> previous(std::max<std::size_t>(16, 2 * slots_.size()),
                                kEmpty);
    previous.swap(slots_);  // slots_ is now the larger, empty table
    for (const Value kept : previous) {
      if (kept != kEmpty) slots_[probe(kept)] = kept;
    }
  }
  Value& slot = slots_[probe(value)];
  if (slot == kEmpty) {
    slot = value;
    ++size_;
  }
}

bool StreamingChecker::ValueSet::contains(Value value) const {
  if (value == kEmpty) return has_empty_value_;
  return !slots_.empty() && slots_[probe(value)] == value;
}

StreamingChecker::StreamingChecker(const StreamingOptions& options)
    : options_(options) {}

void StreamingChecker::add(const Operation& op) {
  if (finished_) {
    throw std::logic_error("StreamingChecker::add after finish()");
  }
  if (op.start >= op.finish) {
    throw std::invalid_argument(
        "StreamingChecker::add: operation with start >= finish: " +
        describe(op));
  }
  const std::uint64_t seq = next_seq_++;
  ++stats_.operations_ingested;
  ++window_size_;
  stats_.peak_window = std::max(stats_.peak_window, window_size_);
  if (op.is_write()) {
    const auto [it, inserted] = slot_of_value_.try_emplace(op.value, 0);
    if (!inserted) {
      // The first write keeps the value; this one waits in the window
      // and is reported at every flush until its turn comes.
      duplicates_.push_back({seq, op});
      return;
    }
    it->second = open_cluster(seq, op);
    return;
  }
  const auto it = slot_of_value_.find(op.value);
  if (it != slot_of_value_.end()) {
    join(it->second, op);
    return;
  }
  // No write of this value in the window yet: park the read until one
  // arrives, or until the watermark passes its finish.
  orphans_.push_back({seq, op});
  ++orphans_per_value_[op.value];
  orphan_min_finish_ = std::min(orphan_min_finish_, op.finish);
}

std::uint32_t StreamingChecker::open_cluster(std::uint64_t seq,
                                             const Operation& write) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Cluster& cluster = slots_[slot];
  cluster.write = write;
  cluster.seq = seq;
  cluster.first_read = cluster.last_read = kNoRead;
  cluster.read_count = 0;
  cluster.min_finish = write.finish;
  cluster.max_start = write.start;
  cluster.settled = false;
  cluster.live = true;
  if (const auto it = orphans_per_value_.find(write.value);
      it != orphans_per_value_.end()) {
    // Parked reads arrived before the write, so they lead its reads.
    orphans_per_value_.erase(it);
    std::size_t kept = 0;
    orphan_min_finish_ = kTimeMax;
    for (const Pending& parked : orphans_) {
      if (parked.op.value == write.value) {
        append_read(cluster, parked.op);
      } else {
        orphan_min_finish_ = std::min(orphan_min_finish_, parked.op.finish);
        orphans_[kept++] = parked;
      }
    }
    orphans_.resize(kept);
  }
  unsettled_by_finish_.push_back({write.finish, seq, slot});
  std::push_heap(unsettled_by_finish_.begin(), unsettled_by_finish_.end(),
                 Later{});
  unsettled_by_low_.push_back({cluster.low(), seq, slot});
  std::push_heap(unsettled_by_low_.begin(), unsettled_by_low_.end(), Later{});
  return slot;
}

void StreamingChecker::append_read(Cluster& cluster, const Operation& read) {
  std::uint32_t node = free_read_;
  if (node == kNoRead) {
    node = static_cast<std::uint32_t>(read_nodes_.size());
    read_nodes_.push_back({read, kNoRead});
  } else {
    free_read_ = read_nodes_[node].next;
    read_nodes_[node] = {read, kNoRead};
  }
  if (cluster.last_read == kNoRead) {
    cluster.first_read = node;
  } else {
    read_nodes_[cluster.last_read].next = node;
  }
  cluster.last_read = node;
  ++cluster.read_count;
  cluster.min_finish = std::min(cluster.min_finish, read.finish);
  cluster.max_start = std::max(cluster.max_start, read.start);
}

void StreamingChecker::join(std::uint32_t slot, const Operation& read) {
  Cluster& cluster = slots_[slot];
  const TimePoint old_low = cluster.low();
  const TimePoint old_high = cluster.high();
  append_read(cluster, read);
  if (cluster.settled) {
    // A read past the horizon. A moved low reorders the settled list,
    // and a lowered high can bring a decision before wake_line_: either
    // way the next sweep re-sorts and runs in full. A raised high only
    // delays decisions, which the next sweep finds by itself.
    settled_dirty_ |= cluster.low() != old_low || cluster.high() < old_high;
    return;
  }
  if (cluster.low() == old_low) return;
  unsettled_by_low_.push_back({cluster.low(), cluster.seq, slot});
  std::push_heap(unsettled_by_low_.begin(), unsettled_by_low_.end(), Later{});
}

void StreamingChecker::advance_watermark(TimePoint t) {
  watermark_ = std::max(watermark_, t);
  flush_settled();
}

Verdict StreamingChecker::finish() {
  finished_ = true;
  watermark_ = kTimeMax;
  flush_settled();
  stats_.operations_evicted += window_size_;
  clear_window();
  evicted_write_values_ = {};  // no add() can follow
  if (violations_.empty()) {
    return Verdict::make_yes({});  // streaming verdicts carry no witness
  }
  return Verdict::make_no("streaming monitor recorded " +
                          std::to_string(violations_.size()) +
                          " violation(s); first: " +
                          violations_.front().detail);
}

void StreamingChecker::reset() {
  clear_window();
  evicted_write_values_ = {};
  violations_.clear();
  stats_ = StreamingStats{};
  next_seq_ = 0;
  watermark_ = kTimeMin;
  finished_ = false;
}

void StreamingChecker::clear_window() {
  // Assigning empty containers (not clear()) returns their memory: a
  // monitor finishes thousands of checkers while building its report.
  slots_ = {};
  free_slots_ = {};
  read_nodes_ = {};
  free_read_ = kNoRead;
  slot_of_value_ = {};
  unsettled_by_finish_ = {};
  unsettled_by_low_ = {};
  settled_ = {};
  settled_sorted_ = 0;
  settled_dirty_ = false;
  wake_line_ = kTimeMin;
  orphans_ = {};
  orphans_per_value_ = {};
  orphan_min_finish_ = kTimeMax;
  duplicates_ = {};
  promote_ = {};
  zones_ = {};
  partition_ = {};
  window_size_ = 0;
}

TimePoint StreamingChecker::settle_threshold() const {
  if (watermark_ == kTimeMax) return kTimeMax;
  return watermark_ <= kTimeMin + options_.staleness_horizon
             ? kTimeMin
             : watermark_ - options_.staleness_horizon;
}

TimePoint StreamingChecker::settle_line() {
  // New zones and zone growth land entirely above the minimum zone low
  // among unsettled clusters (zone lows never sink below it), so
  // anything wholly below this line is immutable.
  while (!unsettled_by_low_.empty()) {
    const HeapEntry& top = unsettled_by_low_.front();
    const Cluster& cluster = slots_[top.slot];
    if (cluster.live && !cluster.settled && cluster.seq == top.seq &&
        cluster.low() == top.key) {
      return std::min(watermark_, top.key);
    }
    std::pop_heap(unsettled_by_low_.begin(), unsettled_by_low_.end(),
                  Later{});
    unsettled_by_low_.pop_back();
  }
  return watermark_;
}

TimePoint StreamingChecker::window_min_finish() const {
  TimePoint earliest = orphan_min_finish_;
  for (const auto& [value, slot] : slot_of_value_) {
    earliest = std::min(earliest, slots_[slot].min_finish);
  }
  for (const Pending& duplicate : duplicates_) {
    earliest = std::min(earliest, duplicate.op.finish);
  }
  return earliest;
}

void StreamingChecker::flush_settled() {
  ++stats_.flushes;
  if (window_size_ == 0) return;

  // A cluster is settled once no further read of it can start:
  // (write.finish + horizon) < watermark, while future ops start after
  // the watermark.
  const TimePoint threshold = settle_threshold();
  while (!unsettled_by_finish_.empty() &&
         unsettled_by_finish_.front().key < threshold) {
    const std::uint32_t slot = unsettled_by_finish_.front().slot;
    std::pop_heap(unsettled_by_finish_.begin(), unsettled_by_finish_.end(),
                  Later{});
    unsettled_by_finish_.pop_back();
    slots_[slot].settled = true;
    settled_.push_back(slot);
  }

  // Nothing settled means nothing can be decided. Stale orphan reads
  // and duplicate writes are still reported once some buffered
  // operation finished before the threshold -- the same trigger as for
  // a settled write -- which keeps every finding's timing independent
  // of how the window is stored.
  if (settled_.empty()) {
    const bool waiting =
        !duplicates_.empty() || orphan_min_finish_ < watermark_;
    if (!waiting || window_min_finish() >= threshold) return;
  }
  report_duplicates();
  report_orphans();
  if (settled_.empty()) return;
  const TimePoint line = settle_line();
  if (settled_sorted_ == settled_.size() && !settled_dirty_ &&
      line <= wake_line_) {
    return;  // same settled set, and the line crossed no zone endpoint
  }
  decide_settled(line);
}

void StreamingChecker::report_duplicates() {
  for (const Pending& duplicate : duplicates_) {
    violations_.push_back(
        {StreamingViolation::Kind::hard_anomaly, watermark_,
         "duplicate write value " + std::to_string(duplicate.op.value) +
             " in window"});
  }
}

void StreamingChecker::report_orphans() {
  // A read whose dictating write is absent and which finished before the
  // watermark can never be matched (a future write would start after the
  // read finished, i.e. the read would precede its dictating write).
  if (orphan_min_finish_ >= watermark_) return;
  std::size_t kept = 0;
  orphan_min_finish_ = kTimeMax;
  for (const Pending& parked : orphans_) {
    const Operation& r = parked.op;
    if (r.finish >= watermark_) {  // its write may still arrive
      orphan_min_finish_ = std::min(orphan_min_finish_, r.finish);
      orphans_[kept++] = parked;
      continue;
    }
    const bool horizon = evicted_write_values_.contains(r.value);
    violations_.push_back(
        {horizon ? StreamingViolation::Kind::horizon_exceeded
                 : StreamingViolation::Kind::hard_anomaly,
         watermark_,
         (horizon ? "read exceeded the staleness horizon: value "
                  : "read without dictating write: value ") +
             std::to_string(r.value)});
    const auto count = orphans_per_value_.find(r.value);
    if (--count->second == 0) orphans_per_value_.erase(count);
    --window_size_;
    ++stats_.operations_evicted;
  }
  orphans_.resize(kept);
}

void StreamingChecker::decide_settled(TimePoint line) {
  // Settled clusters in (low, arrival) order: merge the ones settled
  // since the last sweep, or re-sort if a late read moved a zone.
  const auto by_low = [this](std::uint32_t a, std::uint32_t b) {
    const Cluster& x = slots_[a];
    const Cluster& y = slots_[b];
    return x.low() != y.low() ? x.low() < y.low() : x.seq < y.seq;
  };
  const auto sorted_end =
      settled_.begin() + static_cast<std::ptrdiff_t>(settled_sorted_);
  if (settled_dirty_) {
    std::sort(settled_.begin(), settled_.end(), by_low);
    settled_dirty_ = false;
  } else {
    std::sort(sorted_end, settled_.end(), by_low);
    std::inplace_merge(settled_.begin(), sorted_end, settled_.end(), by_low);
  }

  // Stage 1 of FZF over the settled clusters whose lows lie below the
  // line. An unsettled cluster's low is at or above the line, so it can
  // neither join nor contain a chunk that ends below it: those chunks
  // are final, and decided from settled clusters alone.
  zones_.clear();
  std::size_t prefix = 0;
  for (; prefix < settled_.size() && slots_[settled_[prefix]].low() < line;
       ++prefix) {
    const std::uint32_t slot = settled_[prefix];
    const Cluster& cluster = slots_[slot];
    zones_.push_back(
        {slot, cluster.min_finish, cluster.max_start, cluster.forward()});
  }
  partition_chunks(zones_, partition_);

  // Decide and evict the final chunks. Whatever survives wakes the next
  // sweep only once the line passes its chunk's (or its own) high, or
  // the first low outside the prefix.
  wake_line_ = prefix < settled_.size() ? slots_[settled_[prefix]].low()
                                        : kTimeMax;
  for (std::size_t c = 0; c < partition_.chunk_count(); ++c) {
    if (partition_.extents[c].hi < line) {
      decide_chunk(c);
    } else {
      wake_line_ = std::min(wake_line_, partition_.extents[c].hi);
    }
  }
  // Settled dangling backward clusters below the settle line are
  // trivially 2-atomic in isolation (Lemma 4.1's concatenation).
  for (const std::uint32_t slot : partition_.dangling_writes) {
    if (slots_[slot].high() < line) {
      ++stats_.dangling_clusters;
      evict(slot);
    } else {
      wake_line_ = std::min(wake_line_, slots_[slot].high());
    }
  }

  std::erase_if(settled_,
                [this](std::uint32_t slot) { return !slots_[slot].live; });
  settled_sorted_ = settled_.size();

  // A duplicate write takes over its value once the first write's
  // cluster is gone.
  for (const Value value : promote_) {
    const auto duplicate =
        std::find_if(duplicates_.begin(), duplicates_.end(),
                     [value](const Pending& d) { return d.op.value == value; });
    const Pending promoted = *duplicate;
    duplicates_.erase(duplicate);
    slot_of_value_[value] = open_cluster(promoted.seq, promoted.op);
  }
  promote_.clear();
}

void StreamingChecker::decide_chunk(std::size_t c) {
  ++stats_.chunks_verified;
  const std::span<const std::uint32_t> forward = partition_.forward(c);
  const std::span<const std::uint32_t> backward = partition_.backward(c);
  const auto members = [&](auto&& visit) {
    for (const std::uint32_t slot : forward) visit(slots_[slot]);
    for (const std::uint32_t slot : backward) visit(slots_[slot]);
  };
  const Interval& bounds = partition_.extents[c];
  const std::string extent = "[" + std::to_string(bounds.lo) + ", " +
                             std::to_string(bounds.hi) + "]";

  // A read that precedes its dictating write is a hard anomaly: the
  // chunk is not k-atomic for any k, and normalize() rejects it.
  const Operation* early_read = nullptr;
  const Operation* its_write = nullptr;
  members([&](const Cluster& cluster) {
    for (std::uint32_t r = cluster.first_read; r != kNoRead;
         r = read_nodes_[r].next) {
      const Operation& read = read_nodes_[r].op;
      if (early_read == nullptr && read.precedes(cluster.write)) {
        early_read = &read;
        its_write = &cluster.write;
      }
    }
  });
  if (early_read != nullptr) {
    violations_.push_back(
        {StreamingViolation::Kind::hard_anomaly, watermark_,
         "settled chunk over " + extent +
             " has a read preceding its dictating write: " +
             describe(*early_read) + " before " + describe(*its_write)});
  } else if (forward.size() > 1 || !backward.empty()) {
    std::vector<Operation> chunk_ops;
    members([&](const Cluster& cluster) {
      chunk_ops.push_back(cluster.write);
      for (std::uint32_t r = cluster.first_read; r != kNoRead;
           r = read_nodes_[r].next) {
        chunk_ops.push_back(read_nodes_[r].op);
      }
    });
    // Repaired in place even when already normalized: FZF's reason
    // names extents on the repaired clock, as every finding always has.
    // verify's gate then finds it normalized and its ladder runs FZF.
    History chunk_history(std::move(chunk_ops));
    detail::repair(chunk_history);
    const Verdict verdict = verify_k_atomicity(
        std::move(chunk_history), {.k = 2, .algorithm = Algorithm::fzf});
    if (!verdict.yes()) {
      violations_.push_back({StreamingViolation::Kind::not_2atomic,
                             watermark_,
                             "settled chunk over " + extent +
                                 " is not 2-atomic: " + verdict.reason});
    }
  }
  // Otherwise the chunk is one forward cluster with no read preceding
  // its write: the write first, then its reads, is a 1-atomic order.

  for (const std::uint32_t slot : forward) evict(slot);
  for (const std::uint32_t slot : backward) evict(slot);
}

void StreamingChecker::evict(std::uint32_t slot) {
  Cluster& cluster = slots_[slot];
  const std::size_t ops = 1 + std::size_t{cluster.read_count};
  window_size_ -= ops;
  stats_.operations_evicted += ops;
  const Value value = cluster.write.value;
  evicted_write_values_.insert(value);
  slot_of_value_.erase(value);
  if (std::any_of(duplicates_.begin(), duplicates_.end(),
                  [value](const Pending& d) { return d.op.value == value; })) {
    promote_.push_back(value);
  }
  cluster.live = false;
  if (cluster.last_read != kNoRead) {
    read_nodes_[cluster.last_read].next = free_read_;
    free_read_ = cluster.first_read;
  }
  free_slots_.push_back(slot);
}

}  // namespace kav
