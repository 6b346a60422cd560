#include "ingest/binary_trace.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "history/serialization.h"
#include "store/segment_writer.h"

namespace kav {

namespace {

using wire::append_u16;
using wire::append_u32;
using wire::load_u16;
using wire::load_u32;

[[noreturn]] void fail_at(std::uint64_t offset, const std::string& message) {
  throw std::runtime_error("binary trace error at byte " +
                           std::to_string(offset) + ": " + message);
}

// Reads exactly `n` bytes or fails; `what` names the structure being
// read so truncation errors say what was expected.
void read_exact(std::istream& in, unsigned char* dst, std::size_t n,
                std::uint64_t offset, const char* what) {
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) {
    fail_at(offset + static_cast<std::uint64_t>(in.gcount()),
            std::string("truncated ") + what);
  }
}

}  // namespace

void validate_record(const char* who, std::string_view key,
                     const Operation& op) {
  if (op.start >= op.finish) {
    throw std::invalid_argument(
        std::string(who) + ": start must be < finish (got [" +
        std::to_string(op.start) + ", " + std::to_string(op.finish) + "))");
  }
  if (key.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(std::string(who) +
                                ": key longer than 65535 bytes");
  }
}

// --- Writer ----------------------------------------------------------------

BinaryTraceWriter::BinaryTraceWriter(std::ostream& out,
                                     std::size_t records_per_chunk)
    : out_(&out),
      // Clamp into what the reader accepts: 0 would never flush, and a
      // chunk above the reader's sanity cap would make the library
      // write files its own reader rejects.
      records_per_chunk_(std::clamp<std::size_t>(
          records_per_chunk, 1, kBinaryTraceMaxChunkRecords)) {
  std::string header;
  append_u32(header, kBinaryTraceMagic);
  append_u16(header, kBinaryTraceVersion);
  append_u16(header, 0);  // reserved
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
}

BinaryTraceWriter::~BinaryTraceWriter() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; call flush() explicitly to observe
    // stream errors.
  }
}

void BinaryTraceWriter::add(std::string_view key, const Operation& op) {
  validate_record("binary trace writer", key, op);
  auto [it, inserted] = key_ids_.try_emplace(
      std::string(key), static_cast<std::uint32_t>(key_ids_.size()));
  if (inserted) {
    append_u16(pending_keys_, static_cast<std::uint16_t>(key.size()));
    pending_keys_.append(key);
    ++pending_key_count_;
  }
  append_record(pending_records_, it->second, op);
  ++pending_record_count_;
  // The key-cap guard matters only for pathological all-new-key
  // streams; each record introduces at most one key.
  if (pending_record_count_ >= records_per_chunk_ ||
      pending_key_count_ >= kBinaryTraceMaxChunkKeys) {
    flush();
  }
}

void BinaryTraceWriter::add(const KeyedTrace& trace) {
  for (const KeyedOperation& kop : trace.ops) add(kop.key, kop.op);
}

void BinaryTraceWriter::flush() {
  if (pending_record_count_ == 0) return;
  std::string chunk_header;
  append_u32(chunk_header, pending_key_count_);
  append_u32(chunk_header, pending_record_count_);
  out_->write(chunk_header.data(),
              static_cast<std::streamsize>(chunk_header.size()));
  out_->write(pending_keys_.data(),
              static_cast<std::streamsize>(pending_keys_.size()));
  out_->write(pending_records_.data(),
              static_cast<std::streamsize>(pending_records_.size()));
  records_written_ += pending_record_count_;
  pending_keys_.clear();
  pending_records_.clear();
  pending_key_count_ = 0;
  pending_record_count_ = 0;
}

// --- Reader ----------------------------------------------------------------

BinaryTraceReader::BinaryTraceReader(std::istream& in) : in_(&in) {
  unsigned char header[kBinaryTraceHeaderBytes];
  read_exact(*in_, header, sizeof header, offset_, "header");
  const std::uint32_t magic = load_u32(header);
  if (magic != kBinaryTraceMagic) {
    fail_at(0, "bad magic (not a .kavb trace)");
  }
  version_ = load_u16(header + 4);
  if (version_ != kBinaryTraceVersion && version_ != kBinaryTraceVersion2) {
    fail_at(4, "unsupported format version " + std::to_string(version_));
  }
  offset_ += sizeof header;
}

bool BinaryTraceReader::load_chunk() {
  // The chunk header is read in two halves: for v2 the first u32 may be
  // the footer sentinel, which ends the record stream without the 4
  // bytes that a real chunk header would still owe.
  unsigned char first[4];
  in_->read(reinterpret_cast<char*>(first), sizeof first);
  if (in_->gcount() == 0) return false;  // clean EOF at a chunk boundary
  if (static_cast<std::size_t>(in_->gcount()) != sizeof first) {
    fail_at(offset_ + static_cast<std::uint64_t>(in_->gcount()),
            "truncated chunk header");
  }
  const std::uint32_t new_keys = load_u32(first);
  if (version_ >= kBinaryTraceVersion2 &&
      new_keys == kBinaryTraceFooterSentinel) {
    // Footer reached: the record stream is complete. The footer payload
    // is only meaningful to seeking readers (store/mapped_segment.h);
    // a forward-only stream has no use for it.
    return false;
  }
  unsigned char second[4];
  read_exact(*in_, second, sizeof second, offset_ + sizeof first,
             "chunk header");
  const std::uint32_t records = load_u32(second);
  if (new_keys > kBinaryTraceMaxChunkKeys) {
    fail_at(offset_, "implausible chunk key count " + std::to_string(new_keys));
  }
  if (records > kBinaryTraceMaxChunkRecords) {
    fail_at(offset_ + 4,
            "implausible chunk record count " + std::to_string(records));
  }
  if (new_keys == 0 && records == 0) {
    fail_at(offset_, "empty chunk");
  }
  offset_ += sizeof first + sizeof second;

  for (std::uint32_t i = 0; i < new_keys; ++i) {
    unsigned char len_bytes[2];
    read_exact(*in_, len_bytes, sizeof len_bytes, offset_, "key length");
    const std::uint16_t length = load_u16(len_bytes);
    offset_ += sizeof len_bytes;
    std::string key(length, '\0');
    if (length > 0) {
      read_exact(*in_, reinterpret_cast<unsigned char*>(key.data()), length,
                 offset_, "key bytes");
    }
    offset_ += length;
    keys_.push_back(std::move(key));
  }

  const std::size_t payload =
      static_cast<std::size_t>(records) * kBinaryTraceRecordBytes;
  buffer_.resize(payload);
  if (payload > 0) {
    read_exact(*in_, buffer_.data(), payload, offset_, "record payload");
  }
  buffer_pos_ = 0;
  return true;
}

bool BinaryTraceReader::next(std::string_view& key, Operation& op) {
  while (buffer_pos_ >= buffer_.size()) {
    if (!load_chunk()) return false;
  }
  const unsigned char* p = buffer_.data() + buffer_pos_;
  const std::uint32_t key_id = load_u32(p);
  if (key_id >= keys_.size()) {
    fail_at(offset_ + buffer_pos_,
            "key id " + std::to_string(key_id) + " out of range (table has " +
                std::to_string(keys_.size()) + " entries)");
  }
  op.start = wire::load_i64(p + 4);
  op.finish = wire::load_i64(p + 12);
  op.value = wire::load_i64(p + 20);
  op.client = static_cast<ClientId>(load_u32(p + 28));
  const unsigned char type = p[32];
  if (type > 1) {
    fail_at(offset_ + buffer_pos_ + 32,
            "bad record type byte " + std::to_string(type));
  }
  op.type = type == 1 ? OpType::write : OpType::read;
  if (op.start >= op.finish) {
    fail_at(offset_ + buffer_pos_ + 4,
            "start must be < finish (got [" + std::to_string(op.start) + ", " +
                std::to_string(op.finish) + "))");
  }
  key = keys_[key_id];
  buffer_pos_ += kBinaryTraceRecordBytes;
  if (buffer_pos_ >= buffer_.size()) {
    // Chunk fully consumed; account for it before the next load reports
    // offsets.
    offset_ += buffer_.size();
  }
  ++records_read_;
  return true;
}

bool BinaryTraceReader::next(KeyedOperation& out) {
  std::string_view key;
  if (!next(key, out.op)) return false;
  out.key.assign(key);
  return true;
}

// --- Whole-trace wrappers --------------------------------------------------

void write_binary_trace(std::ostream& out, const KeyedTrace& trace,
                        std::size_t records_per_chunk, std::uint16_t version) {
  if (version == kBinaryTraceVersion2) {
    SegmentWriterOptions options;
    options.records_per_block = records_per_chunk;
    SegmentWriter writer(out, options);
    writer.add(trace);
    writer.finish();
    return;
  }
  if (version != kBinaryTraceVersion) {
    throw std::invalid_argument("write_binary_trace: unsupported version " +
                                std::to_string(version));
  }
  BinaryTraceWriter writer(out, records_per_chunk);
  writer.add(trace);
  writer.flush();
}

void write_binary_trace_file(const std::string& path, const KeyedTrace& trace,
                             std::uint16_t version) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  write_binary_trace(out, trace, 4096, version);
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

KeyedTrace read_binary_trace(std::istream& in) {
  BinaryTraceReader reader(in);
  KeyedTrace trace;
  std::string_view key;
  Operation op;
  while (reader.next(key, op)) trace.add(std::string(key), op);
  return trace;
}

KeyedTrace read_binary_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_binary_trace(in);
}

bool is_binary_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  unsigned char magic_bytes[4];
  in.read(reinterpret_cast<char*>(magic_bytes), sizeof magic_bytes);
  return static_cast<std::size_t>(in.gcount()) == sizeof magic_bytes &&
         load_u32(magic_bytes) == kBinaryTraceMagic;
}

// --- Converters ------------------------------------------------------------

void convert_text_to_binary(std::istream& text_in, std::ostream& binary_out,
                            std::uint16_t version) {
  write_binary_trace(binary_out, read_trace(text_in), 4096, version);
}

void convert_binary_to_text(std::istream& binary_in, std::ostream& text_out) {
  BinaryTraceReader reader(binary_in);
  text_out << "# kav trace v1\n";
  std::string_view key;
  Operation op;
  while (reader.next(key, op)) write_trace_op(text_out, key, op);
}

}  // namespace kav
