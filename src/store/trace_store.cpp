#include "store/trace_store.h"

#if defined(__unix__) || defined(__APPLE__)
#define KAV_STORE_HAVE_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "ingest/trace_source.h"
#include "obs/span.h"
#include "pipeline/thread_pool.h"
#include "store/fault_injection.h"
#include "util/crc32c.h"
#include "util/memory.h"

namespace kav {

namespace {

// Best-effort durability (POSIX only; a no-op elsewhere): flush the
// written file's pages, and after a rename flush the directory so the
// new name itself survives a crash. "Best effort" because a failing
// fsync on a freshly written, successfully closed file has no useful
// recovery here beyond reporting nothing.
void sync_path(const std::filesystem::path& path) {
#if KAV_STORE_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

constexpr const char* kSegmentPrefix = "seg-";
constexpr const char* kSegmentSuffix = ".kavb";
constexpr const char* kTmpSuffix = ".tmp";
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "kav-store-manifest v1";

// Overflow-checked decimal parse; nullopt on empty input, a non-digit,
// or a value that does not fit uint64.
std::optional<std::uint64_t> parse_decimal(std::string_view digits) {
  if (digits.empty()) return std::nullopt;
  std::uint64_t number = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (number > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;
    }
    number = number * 10 + digit;
  }
  return number;
}

// Keys of `segment` that no segment of `older` holds: per key, a bloom
// probe per older segment, then its key table only on a bloom hit.
std::size_t keys_not_in(
    const MappedSegment& segment,
    const std::vector<std::shared_ptr<const MappedSegment>>& older) {
  std::size_t fresh = 0;
  for (const std::string_view key : segment.keys()) {
    const BloomProbe probe = bloom_probe(key);
    const bool held = std::any_of(
        older.begin(), older.end(), [&](const auto& other) {
          return other->maybe_contains(probe) && other->contains(key);
        });
    if (!held) ++fresh;
  }
  return fresh;
}

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The live segment set as committed on disk. Format (text, one fact
// per line, closed by a CRC32C of all preceding bytes -- see
// docs/FORMATS.md):
//
//   kav-store-manifest v1
//   next <next segment number>
//   seg <number>            -- one per live segment, in REPLAY order
//   crc32c <8 hex digits>
struct ManifestData {
  std::vector<std::uint64_t> numbers;  // replay order
  std::uint64_t next = 1;
};

// nullopt when the manifest does not exist (a legacy or fresh
// directory); throws on any structural or checksum problem -- the
// manifest is tiny and replaced atomically, so a damaged one means
// real corruption, and guessing the live set would defeat its point.
std::optional<ManifestData> read_manifest(const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("trace store: cannot open manifest " +
                             path.string());
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto fail = [&](const std::string& what) {
    throw std::runtime_error("trace store: corrupt manifest " + path.string() +
                             ": " + what);
  };
  if (text.empty() || text.back() != '\n') {
    fail("truncated (no trailing newline)");
  }
  // The last line carries the checksum of everything before it.
  std::size_t crc_begin = text.find_last_of('\n', text.size() - 2);
  crc_begin = crc_begin == std::string::npos ? 0 : crc_begin + 1;
  const std::string_view crc_line(text.data() + crc_begin,
                                  text.size() - crc_begin);
  constexpr std::string_view kCrcPrefix = "crc32c ";
  if (crc_line.size() != kCrcPrefix.size() + 8 + 1 ||
      crc_line.substr(0, kCrcPrefix.size()) != kCrcPrefix) {
    fail("missing checksum line");
  }
  std::uint32_t stored = 0;
  const char* hex_begin = crc_line.data() + kCrcPrefix.size();
  const auto [ptr, ec] = std::from_chars(hex_begin, hex_begin + 8, stored, 16);
  if (ec != std::errc{} || ptr != hex_begin + 8) fail("bad checksum digits");
  const std::uint32_t computed = crc::crc32c(text.data(), crc_begin);
  if (stored != computed) fail("checksum mismatch");

  std::istringstream lines(text.substr(0, crc_begin));
  std::string line;
  if (!std::getline(lines, line) || line != kManifestHeader) {
    fail("bad header line");
  }
  ManifestData data;
  if (!std::getline(lines, line) || line.rfind("next ", 0) != 0) {
    fail("missing next line");
  }
  const auto next = parse_decimal(std::string_view(line).substr(5));
  if (!next.has_value()) fail("bad next line");
  data.next = *next;
  while (std::getline(lines, line)) {
    if (line.rfind("seg ", 0) != 0) fail("bad segment line: " + line);
    const auto number = parse_decimal(std::string_view(line).substr(4));
    if (!number.has_value()) fail("bad segment line: " + line);
    data.numbers.push_back(*number);
  }
  return data;
}

}  // namespace

// Store instrumentation. Counters are lifetime totals; the three
// gauges are re-levelled from the live segment set after every
// committed mutation, so a scraper watching kav_store_bytes_on_disk
// sees retention and compaction land the moment the MANIFEST commit
// makes them real.
struct TraceStore::Metrics {
  obs::Counter& appends;
  obs::Counter& compaction_passes;
  obs::Counter& compaction_folds;
  obs::Counter& retention_drops;
  obs::Counter& bloom_checks;
  obs::Counter& bloom_skips;
  obs::Counter& bloom_false_positives;
  obs::Counter& crc_failures;
  obs::Counter& fsck_runs;
  obs::Counter& fsck_errors;
  obs::Counter& maintenance_errors;
  obs::Gauge& maintenance_ok;
  obs::Gauge& segments;
  obs::Gauge& bytes_on_disk;
  obs::Gauge& records;

  explicit Metrics(obs::MetricsRegistry& registry)
      : appends(registry.counter(
            "kav_store_appends_total",
            "Segments committed by append() or import_file().")),
        compaction_passes(registry.counter(
            "kav_store_compaction_passes_total",
            "run_maintenance() invocations (background or direct).")),
        compaction_folds(registry.counter(
            "kav_store_compaction_folds_total",
            "Tiered folds: adjacent same-tier segment runs rewritten "
            "into one next-tier segment.")),
        retention_drops(registry.counter(
            "kav_store_retention_drops_total",
            "Oldest segments dropped to respect retain_bytes.")),
        bloom_checks(registry.counter(
            "kav_store_bloom_checks_total",
            "Per-segment bloom probes by the per-key lookups of the "
            "store's sources (open_source()).")),
        bloom_skips(registry.counter(
            "kav_store_bloom_skips_total",
            "Probes answered 'definitively absent' -- segments never "
            "touched beyond the filter.")),
        bloom_false_positives(registry.counter(
            "kav_store_bloom_false_positives_total",
            "Probes the filter passed but the key table refuted.")),
        crc_failures(registry.counter(
            "kav_store_crc_verify_failures_total",
            "Block checksum mismatches detected on any read path.")),
        fsck_runs(registry.counter("kav_store_fsck_runs_total",
                                   "fsck() invocations.")),
        fsck_errors(registry.counter("kav_store_fsck_errors_total",
                                     "Problems reported across fsck() runs.")),
        maintenance_errors(registry.counter(
            "kav_store_maintenance_errors_total",
            "Background maintenance passes that failed (see "
            "last_maintenance_error()).")),
        maintenance_ok(registry.gauge(
            "kav_store_maintenance_ok",
            "1 while the latest maintenance pass succeeded, 0 after a "
            "failure -- GET /healthz turns 503 on any 0.")),
        segments(registry.gauge("kav_store_segments",
                                "Live segments in the store.")),
        bytes_on_disk(registry.gauge("kav_store_bytes_on_disk",
                                     "Bytes across live segments.")),
        records(registry.gauge("kav_store_records",
                               "Records across live segments.")) {}
};

void TraceStore::refresh_gauges() const {
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  std::size_t count = 0;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    count = segments_.size();
    for (const auto& segment : segments_) {
      bytes += segment->size_bytes();
      records += segment->total_records();
    }
  }
  metrics_->segments.set(static_cast<std::int64_t>(count));
  metrics_->bytes_on_disk.set(static_cast<std::int64_t>(bytes));
  metrics_->records.set(static_cast<std::int64_t>(records));
}

MappedSegmentOptions TraceStore::segment_options() const {
  MappedSegmentOptions options;
  options.crc_failures = &metrics_->crc_failures;
  return options;
}

namespace store_detail {

std::optional<std::uint64_t> parse_segment_number(const std::string& name) {
  const std::string_view prefix = kSegmentPrefix;
  const std::string_view suffix = kSegmentSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (!ends_with(name, suffix)) return std::nullopt;
  const std::string_view digits = std::string_view(name).substr(
      prefix.size(), name.size() - prefix.size() - suffix.size());
  return parse_decimal(digits);
}

std::optional<std::pair<std::size_t, std::size_t>> pick_fold_range(
    const std::vector<std::uint64_t>& segment_records,
    const CompactionOptions& options) {
  const std::size_t fanout = std::max<std::size_t>(options.fanout, 2);
  const std::uint64_t tier0 = std::max<std::uint64_t>(options.tier0_records, 1);
  const auto tier_of = [&](std::uint64_t records) {
    std::size_t tier = 0;
    std::uint64_t cap = tier0;
    while (records >= cap) {
      ++tier;
      if (cap > std::numeric_limits<std::uint64_t>::max() / fanout) break;
      cap *= fanout;
    }
    return tier;
  };
  // Oldest-first scan for a run of >= fanout adjacent same-tier
  // segments; the WHOLE run folds (a longer-than-fanout run can form
  // while a fold is deferred behind appends).
  std::size_t run_begin = 0;
  for (std::size_t i = 1; i <= segment_records.size(); ++i) {
    if (i == segment_records.size() ||
        tier_of(segment_records[i]) != tier_of(segment_records[run_begin])) {
      if (i - run_begin >= fanout) return std::make_pair(run_begin, i - run_begin);
      run_begin = i;
    }
  }
  return std::nullopt;
}

}  // namespace store_detail

std::filesystem::path TraceStore::segment_path(std::uint64_t number) const {
  char name[32];
  std::snprintf(name, sizeof name, "%s%06llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(number), kSegmentSuffix);
  return directory_ / name;
}

std::filesystem::path TraceStore::manifest_path() const {
  return directory_ / kManifestName;
}

TraceStore::TraceStore(std::filesystem::path directory,
                       obs::MetricsRegistry* metrics)
    : directory_(std::move(directory)),
      metrics_(std::make_unique<Metrics>(
          metrics != nullptr ? *metrics : obs::MetricsRegistry::global())) {
  // Healthy until a maintenance pass says otherwise.
  metrics_->maintenance_ok.set(1);
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec || !std::filesystem::is_directory(directory_)) {
    throw std::runtime_error("trace store: cannot create directory " +
                             directory_.string());
  }
  std::map<std::uint64_t, std::filesystem::path> found;
  std::vector<std::filesystem::path> tmp_files;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (ends_with(name, kTmpSuffix)) {
      // An interrupted segment write or manifest commit; the rename
      // never happened, so the content was never live.
      tmp_files.push_back(entry.path());
      continue;
    }
    const auto number = store_detail::parse_segment_number(name);
    if (!number.has_value()) continue;
    found.emplace(*number, entry.path());
  }

  const auto load = [&](const std::filesystem::path& path) {
    auto segment =
        std::make_shared<const MappedSegment>(path.string(), segment_options());
    if (!segment->indexed()) {
      throw std::runtime_error("trace store: segment is not indexed (v2): " +
                               path.string());
    }
    return segment;
  };

  const std::optional<ManifestData> manifest = read_manifest(manifest_path());
  if (manifest.has_value()) {
    // The manifest IS the live set: serve exactly its segments, in its
    // (replay) order; everything else in the directory is a crash
    // stranded between a segment rename and the manifest commit.
    next_number_ = manifest->next;
    for (const std::uint64_t number : manifest->numbers) {
      const auto it = found.find(number);
      if (it == found.end()) {
        throw std::runtime_error(
            "trace store: manifest names missing or duplicate segment " +
            segment_path(number).filename().string() + " in " +
            directory_.string());
      }
      segments_.push_back(load(it->second));
      numbers_.push_back(number);
      next_number_ = std::max(next_number_, number + 1);
      found.erase(it);
    }
    for (const auto& [number, path] : found) {
      std::error_code remove_ec;
      std::filesystem::remove(path, remove_ec);  // orphan sweep, best effort
    }
  } else {
    // Legacy or fresh directory: adopt every segment in number order
    // and commit a manifest so the next open has one.
    for (const auto& [number, path] : found) {
      segments_.push_back(load(path));
      numbers_.push_back(number);
      next_number_ = std::max(next_number_, number + 1);
    }
    commit_manifest(numbers_, next_number_);
  }
  for (const auto& path : tmp_files) {
    std::error_code remove_ec;
    std::filesystem::remove(path, remove_ec);  // best effort
  }
  key_count_ = distinct_key_count(segments_);
  refresh_gauges();
}

TraceStore::~TraceStore() { disable_background_compaction(); }

std::vector<std::shared_ptr<const MappedSegment>> TraceStore::snapshot()
    const {
  util::ReaderMutexLock lock(segments_mutex_);
  return segments_;
}

std::size_t TraceStore::segment_count() const {
  util::ReaderMutexLock lock(segments_mutex_);
  return segments_.size();
}

std::vector<SegmentInfo> TraceStore::segments() const {
  const auto segments = snapshot();
  std::vector<SegmentInfo> out;
  out.reserve(segments.size());
  for (const auto& segment : segments) {
    SegmentInfo info;
    info.path = segment->path();
    info.records = segment->total_records();
    info.keys = segment->key_count();
    info.blocks = segment->block_count();
    info.bytes = segment->size_bytes();
    out.push_back(std::move(info));
  }
  return out;
}

std::uint64_t TraceStore::total_records() const {
  std::uint64_t records = 0;
  for (const auto& segment : snapshot()) records += segment->total_records();
  return records;
}

void TraceStore::commit_manifest(const std::vector<std::uint64_t>& numbers,
                                 std::uint64_t next) const {
  std::string text = kManifestHeader;
  text += "\nnext " + std::to_string(next) + "\n";
  for (const std::uint64_t number : numbers) {
    text += "seg " + std::to_string(number) + "\n";
  }
  char crc_line[24];
  std::snprintf(crc_line, sizeof crc_line, "crc32c %08x\n",
                crc::crc32c(text.data(), text.size()));
  text += crc_line;

  const std::filesystem::path final_path = manifest_path();
  const std::filesystem::path tmp_path(final_path.string() + kTmpSuffix);
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("trace store: cannot create " +
                               tmp_path.string());
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("trace store: error writing " +
                               tmp_path.string());
    }
  }
  store_detail::fault_point(store_detail::kFaultManifestAfterTmpWrite);
  sync_path(tmp_path);
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp_path, remove_ec);
    throw std::runtime_error("trace store: cannot rename " + tmp_path.string() +
                             " to " + final_path.string());
  }
  store_detail::fault_point(store_detail::kFaultManifestAfterRename);
  sync_path(directory_);
}

template <typename Feed>
std::shared_ptr<const MappedSegment> TraceStore::write_segment(
    std::uint64_t number, std::size_t records_per_block, Feed&& feed) {
  const std::filesystem::path final_path = segment_path(number);
  const std::filesystem::path tmp_path(final_path.string() + kTmpSuffix);
  bool renamed = false;
  try {
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("trace store: cannot create " +
                                 tmp_path.string());
      }
      SegmentWriterOptions options;
      options.records_per_block = records_per_block;
      SegmentWriter writer(out, options);
      feed(writer);
      store_detail::fault_point(store_detail::kFaultSegmentBeforeFinish);
      writer.finish();
      if (!out) {
        throw std::runtime_error("trace store: error writing " +
                                 tmp_path.string());
      }
    }
    store_detail::fault_point(store_detail::kFaultSegmentAfterTmpWrite);
    sync_path(tmp_path);
    store_detail::fault_point(store_detail::kFaultSegmentAfterTmpSync);
    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
      throw std::runtime_error("trace store: cannot rename " +
                               tmp_path.string() + " to " +
                               final_path.string());
    }
    renamed = true;
    store_detail::fault_point(store_detail::kFaultSegmentAfterRename);
    sync_path(directory_);
    auto segment = std::make_shared<const MappedSegment>(final_path.string(),
                                                         segment_options());
    if (!segment->indexed()) {
      throw std::runtime_error(
          "trace store: freshly written segment has no index: " +
          final_path.string());
    }
    return segment;
  } catch (...) {
    // The segment was never committed (the manifest does not name it):
    // leave nothing behind and burn no number -- the caller advances
    // next_number_ only on success.
    std::error_code ignore;
    std::filesystem::remove(tmp_path, ignore);
    if (renamed) std::filesystem::remove(final_path, ignore);
    throw;
  }
}

template <typename Feed>
std::filesystem::path TraceStore::append_segment_locked(
    std::size_t records_per_block, Feed&& feed) {
  const std::uint64_t number = next_number_;
  auto segment =
      write_segment(number, records_per_block, std::forward<Feed>(feed));
  const std::filesystem::path path(segment->path());

  std::vector<std::uint64_t> numbers;
  std::size_t fresh_keys = 0;
  {
    // Writers are serialized on writer_mutex_, so nobody can swap the
    // set between this read and the exclusive swap below -- but reads
    // of numbers_ still take the shared side: that is the contract.
    util::ReaderMutexLock lock(segments_mutex_);
    numbers = numbers_;
    fresh_keys = keys_not_in(*segment, segments_);
  }
  numbers.push_back(number);
  store_detail::fault_point(store_detail::kFaultAppendBeforeManifest);
  try {
    commit_manifest(numbers, number + 1);
  } catch (...) {
    // Not committed: remove the renamed-but-unlisted segment so a
    // failed append is a perfect no-op.
    segment.reset();
    std::error_code ignore;
    std::filesystem::remove(path, ignore);
    throw;
  }
  next_number_ = number + 1;
  {
    util::WriterMutexLock lock(segments_mutex_);
    segments_.push_back(std::move(segment));
    numbers_ = std::move(numbers);
    key_count_ += fresh_keys;
  }
  metrics_->appends.add(1);
  refresh_gauges();
  return path;
}

std::filesystem::path TraceStore::append(const KeyedTrace& trace,
                                         std::size_t records_per_block) {
  std::filesystem::path path;
  {
    util::MutexLock writer(writer_mutex_);
    path = append_segment_locked(
        records_per_block, [&](SegmentWriter& writer) { writer.add(trace); });
  }
  maybe_schedule_maintenance();
  return path;
}

std::filesystem::path TraceStore::import_file(const std::string& path,
                                              std::size_t records_per_block) {
  std::filesystem::path segment_file;
  {
    util::MutexLock writer(writer_mutex_);
    segment_file =
        append_segment_locked(records_per_block, [&](SegmentWriter& writer) {
          for_each_operation(*open_trace_source(path),
                             [&writer](const std::string& key,
                                       const Operation& op) {
                               writer.add(key, op);
                             });
        });
  }
  maybe_schedule_maintenance();
  return segment_file;
}

std::unique_ptr<IndexedTraceSource> TraceStore::open_source() const {
  std::vector<std::shared_ptr<const MappedSegment>> segments;
  std::size_t keys = 0;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    segments = segments_;
    keys = key_count_;
  }
  return std::make_unique<IndexedTraceSource>(
      std::move(segments), "store:" + directory_.string(), keys,
      BloomCounters{&metrics_->bloom_checks, &metrics_->bloom_skips,
                    &metrics_->bloom_false_positives});
}

std::size_t TraceStore::compact(std::size_t first_n,
                                std::size_t records_per_block) {
  util::MutexLock writer(writer_mutex_);
  std::size_t count = 0;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    count = segments_.size();
  }
  if (first_n == 0 || first_n > count) first_n = count;
  if (first_n < 2) return count;
  fold_range_locked(0, first_n, records_per_block);
  util::ReaderMutexLock lock(segments_mutex_);
  return segments_.size();
}

void TraceStore::fold_range_locked(std::size_t begin, std::size_t count,
                                   std::size_t records_per_block) {
  std::vector<std::shared_ptr<const MappedSegment>> victims;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    victims.assign(
        segments_.begin() + static_cast<std::ptrdiff_t>(begin),
        segments_.begin() + static_cast<std::ptrdiff_t>(begin + count));
  }

  // The folded segment gets a NEW number and its replay position comes
  // from the manifest, so at no instant do the fold and its victims
  // both belong to the live set -- the double-replay window of the old
  // rename-over-victim scheme cannot exist.
  const std::uint64_t number = next_number_;
  store_detail::fault_point(store_detail::kFaultCompactBeforeFold);
  auto folded =
      write_segment(number, records_per_block, [&](SegmentWriter& writer) {
        // Stream segment by segment in replay order; O(block) memory.
        for (const auto& victim : victims) {
          MappedSegment::Cursor cursor = victim->cursor();
          KeyId key_id = 0;
          Operation op;
          while (cursor.next(key_id, op)) writer.add(cursor.key(key_id), op);
        }
      });

  std::vector<std::uint64_t> numbers;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    numbers.reserve(numbers_.size() - count + 1);
    numbers.insert(numbers.end(), numbers_.begin(),
                   numbers_.begin() + static_cast<std::ptrdiff_t>(begin));
    numbers.push_back(number);
    numbers.insert(
        numbers.end(),
        numbers_.begin() + static_cast<std::ptrdiff_t>(begin + count),
        numbers_.end());
  }

  // The manifest rename is the commit point: before it, reopen serves
  // the victims and sweeps the fold; after it, the fold replaces them
  // and any not-yet-unlinked victim is the orphan.
  store_detail::fault_point(store_detail::kFaultCompactBeforeManifest);
  try {
    commit_manifest(numbers, number + 1);
  } catch (...) {
    folded.reset();
    std::error_code ignore;
    std::filesystem::remove(segment_path(number), ignore);
    throw;
  }
  store_detail::fault_point(store_detail::kFaultCompactAfterManifest);
  next_number_ = number + 1;
  {
    util::WriterMutexLock lock(segments_mutex_);
    segments_.erase(
        segments_.begin() + static_cast<std::ptrdiff_t>(begin),
        segments_.begin() + static_cast<std::ptrdiff_t>(begin + count));
    segments_.insert(segments_.begin() + static_cast<std::ptrdiff_t>(begin),
                     std::move(folded));
    numbers_ = std::move(numbers);
    // key_count_ stands: every key a victim lists has records (that is
    // how SegmentWriter writes them), so the fold's stream carries each.
  }
  std::vector<std::filesystem::path> victim_paths;
  victim_paths.reserve(victims.size());
  for (const auto& victim : victims) victim_paths.emplace_back(victim->path());
  victims.clear();  // drop mappings before deleting the files
  for (const auto& path : victim_paths) {
    store_detail::fault_point(store_detail::kFaultCompactMidUnlink);
    std::error_code remove_ec;
    std::filesystem::remove(path, remove_ec);  // best effort
  }
  // The writer's buffers were freed on this pool worker, whose arena
  // would otherwise keep them resident (util/memory.h).
  util::release_free_memory();
  metrics_->compaction_folds.add(1);
  refresh_gauges();
}

std::size_t TraceStore::apply_retention_locked(std::uint64_t retain_bytes) {
  std::size_t drop = 0;
  std::vector<std::uint64_t> numbers;
  std::vector<std::shared_ptr<const MappedSegment>> dropped;
  std::size_t kept_keys = 0;
  {
    util::ReaderMutexLock lock(segments_mutex_);
    std::uint64_t total = 0;
    for (const auto& segment : segments_) total += segment->size_bytes();
    while (drop + 1 < segments_.size() && total > retain_bytes) {
      total -= segments_[drop]->size_bytes();
      ++drop;
    }
    if (drop == 0) return 0;
    numbers.assign(numbers_.begin() + static_cast<std::ptrdiff_t>(drop),
                   numbers_.end());
    dropped.assign(segments_.begin(),
                   segments_.begin() + static_cast<std::ptrdiff_t>(drop));
    kept_keys = distinct_key_count(
        {segments_.begin() + static_cast<std::ptrdiff_t>(drop),
         segments_.end()});
  }
  commit_manifest(numbers, next_number_);
  {
    util::WriterMutexLock lock(segments_mutex_);
    segments_.erase(segments_.begin(),
                    segments_.begin() + static_cast<std::ptrdiff_t>(drop));
    numbers_ = std::move(numbers);
    key_count_ = kept_keys;
  }
  std::vector<std::filesystem::path> paths;
  paths.reserve(dropped.size());
  for (const auto& segment : dropped) paths.emplace_back(segment->path());
  dropped.clear();
  for (const auto& path : paths) {
    std::error_code remove_ec;
    std::filesystem::remove(path, remove_ec);  // best effort
  }
  metrics_->retention_drops.add(drop);
  refresh_gauges();
  return drop;
}

std::size_t TraceStore::run_maintenance(const CompactionOptions& options) {
  metrics_->compaction_passes.add(1);
  std::size_t actions = 0;
  for (;;) {
    // Reacquired per fold so appends interleave with a long run.
    util::MutexLock writer(writer_mutex_);
    std::vector<std::uint64_t> records;
    {
      util::ReaderMutexLock lock(segments_mutex_);
      records.reserve(segments_.size());
      for (const auto& segment : segments_) {
        records.push_back(segment->total_records());
      }
    }
    const auto range = store_detail::pick_fold_range(records, options);
    if (range.has_value()) {
      fold_range_locked(range->first, range->second,
                        std::max<std::size_t>(options.records_per_block, 1));
      ++actions;
      continue;
    }
    if (options.retain_bytes > 0) {
      actions += apply_retention_locked(options.retain_bytes);
    }
    return actions;
  }
}

FsckReport TraceStore::fsck() const {
  metrics_->fsck_runs.add(1);
  FsckReport report;
  for (const auto& segment : snapshot()) {
    ++report.segments;
    report.blocks += segment->block_count();
    if (!segment->has_integrity()) ++report.segments_without_integrity;
    report.records += segment->verify_integrity(report.errors);
  }
  metrics_->fsck_errors.add(report.errors.size());
  return report;
}

void TraceStore::enable_background_compaction(pipeline::ThreadPool& pool,
                                              CompactionOptions options) {
  util::MutexLock lock(bg_mutex_);
  bg_pool_ = &pool;
  bg_options_ = options;
  bg_enabled_ = true;
  schedule_maintenance_locked();
}

void TraceStore::disable_background_compaction() {
  util::MutexLock lock(bg_mutex_);
  bg_enabled_ = false;
  while (bg_running_) bg_cv_.wait(bg_mutex_);
  bg_pool_ = nullptr;
}

std::string TraceStore::last_maintenance_error() const {
  util::MutexLock lock(bg_mutex_);
  return last_maintenance_error_;
}

void TraceStore::maybe_schedule_maintenance() {
  util::MutexLock lock(bg_mutex_);
  schedule_maintenance_locked();
}

void TraceStore::schedule_maintenance_locked() {
  if (!bg_enabled_ || bg_running_ || bg_pool_ == nullptr) return;
  bg_running_ = true;
  try {
    // The returned future is dropped on purpose: the pool stores task
    // exceptions rather than terminating, and maintenance_task catches
    // everything anyway (failures land in last_maintenance_error_).
    bg_pool_->submit([this] { maintenance_task(); });
  } catch (...) {
    // Pool already shut down: background compaction silently stops
    // (the store still works, callers can compact synchronously).
    bg_running_ = false;
    bg_cv_.notify_all();
  }
}

void TraceStore::maintenance_task() {
  obs::Span span(&obs::Tracer::global(), "store.maintenance", "store");
  CompactionOptions options;
  {
    util::MutexLock lock(bg_mutex_);
    options = bg_options_;
  }
  std::string error;
  try {
    run_maintenance(options);
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown maintenance error";
  }
  if (!error.empty()) metrics_->maintenance_errors.add(1);
  // Recovers to healthy on the next clean pass; /healthz mirrors this.
  metrics_->maintenance_ok.set(error.empty() ? 1 : 0);
  util::MutexLock lock(bg_mutex_);
  if (!error.empty()) last_maintenance_error_ = error;
  bg_running_ = false;
  bg_cv_.notify_all();
}

}  // namespace kav
