#include "history/serialization.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace kav {

namespace {

constexpr std::string_view kWhitespace = " \t\r";

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line) + ": " + message);
}

// Splits on spaces/tabs; CRLF endings and trailing whitespace are
// tolerated because \r and trailing separators produce no tokens.
std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t begin = line.find_first_not_of(kWhitespace, pos);
    if (begin == std::string_view::npos) break;
    std::size_t end = line.find_first_of(kWhitespace, begin);
    if (end == std::string_view::npos) end = line.size();
    tokens.push_back(line.substr(begin, end - begin));
    pos = end;
  }
  return tokens;
}

std::int64_t parse_int(std::string_view token, std::size_t line,
                       const char* field) {
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size()) {
    fail(line, std::string("expected integer ") + field + ", got '" +
                   std::string(token) + "'");
  }
  return value;
}

}  // namespace

KeyedTrace read_trace(std::istream& in) {
  KeyedTrace trace;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string_view> tokens = split_tokens(line);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    if (tokens[0] != "op") {
      fail(line_no, "expected 'op', got '" + std::string(tokens[0]) + "'");
    }
    if (tokens.size() < 6) {
      fail(line_no,
           "expected: op <key> <R|W> <value> <start> <finish> [client]");
    }
    if (tokens.size() > 7) {
      fail(line_no,
           "unexpected trailing token '" + std::string(tokens[7]) + "'");
    }
    OpType type;
    if (tokens[2] == "R" || tokens[2] == "r") {
      type = OpType::read;
    } else if (tokens[2] == "W" || tokens[2] == "w") {
      type = OpType::write;
    } else {
      fail(line_no, "operation type must be R or W, got '" +
                        std::string(tokens[2]) + "'");
    }
    const Value value = parse_int(tokens[3], line_no, "value");
    const TimePoint start = parse_int(tokens[4], line_no, "start");
    const TimePoint finish = parse_int(tokens[5], line_no, "finish");
    ClientId client = kNoClient;
    if (tokens.size() == 7) {
      const std::int64_t raw = parse_int(tokens[6], line_no, "client");
      if (raw < std::numeric_limits<ClientId>::min() ||
          raw > std::numeric_limits<ClientId>::max()) {
        fail(line_no,
             "client id out of range, got '" + std::string(tokens[6]) + "'");
      }
      client = static_cast<ClientId>(raw);
    }
    if (start >= finish) {
      fail(line_no, "start must be < finish, got [" + std::to_string(start) +
                        ", " + std::to_string(finish) + ")");
    }
    trace.add(std::string(tokens[1]),
              Operation{start, finish, value, client, type});
  }
  return trace;
}

KeyedTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

KeyedTrace parse_trace(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

void write_trace_op(std::ostream& out, std::string_view key,
                    const Operation& op) {
  out << "op " << key << ' ' << (op.is_read() ? 'R' : 'W') << ' ' << op.value
      << ' ' << op.start << ' ' << op.finish;
  if (op.client != kNoClient) out << ' ' << op.client;
  out << '\n';
}

void write_trace(std::ostream& out, const KeyedTrace& trace) {
  out << "# kav trace v1\n";
  for (const KeyedOperation& kop : trace.ops) {
    write_trace_op(out, kop.key, kop.op);
  }
}

void write_trace_file(const std::string& path, const KeyedTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  write_trace(out, trace);
}

std::string format_trace(const KeyedTrace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

History parse_history(const std::string& text) {
  const KeyedTrace trace = parse_trace(text);
  std::vector<Operation> ops;
  ops.reserve(trace.size());
  for (const KeyedOperation& kop : trace.ops) {
    if (!trace.ops.empty() && kop.key != trace.ops.front().key) {
      throw std::runtime_error(
          "parse_history: trace spans multiple keys; use parse_trace");
    }
    ops.push_back(kop.op);
  }
  return History(std::move(ops));
}

std::string format_history(const History& history, const std::string& key) {
  KeyedTrace trace;
  for (const Operation& op : history.operations()) trace.add(key, op);
  return format_trace(trace);
}

}  // namespace kav
