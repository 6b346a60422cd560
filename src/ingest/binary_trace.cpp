#include "ingest/binary_trace.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "store/segment_writer.h"

namespace kav {

using wire::append_u16;
using wire::append_u32;

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
  pending_keys_.clear();
  pending_records_.clear();
  pending_key_count_ = 0;
  pending_record_count_ = 0;
}

// --- Whole-trace writers ---------------------------------------------------

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

bool is_binary_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  unsigned char magic_bytes[4];
  in.read(reinterpret_cast<char*>(magic_bytes), sizeof magic_bytes);
  return static_cast<std::size_t>(in.gcount()) == sizeof magic_bytes &&
         wire::load_u32(magic_bytes) == kBinaryTraceMagic;
}

}  // namespace kav
