// The operation model from Section II-A of the paper: each operation on
// a register has a start time, finish time, type (read or write), and
// value (stored or retrieved). op1 precedes op2 iff op1 finishes before
// op2 starts; otherwise they are concurrent.
#ifndef KAV_HISTORY_OPERATION_H
#define KAV_HISTORY_OPERATION_H

#include <string>

#include "util/time_types.h"

namespace kav {

enum class OpType : unsigned char { read, write };

inline const char* to_string(OpType t) {
  return t == OpType::read ? "read" : "write";
}

// Fields ordered widest first, so a row packs into 32 bytes (8 + 8 +
// 8 + 4 + 1, padded): the size of every grouped row, chunk entry and
// reorder-buffer entry.
struct Operation {
  TimePoint start = 0;
  TimePoint finish = 0;
  Value value = 0;
  ClientId client = kNoClient;
  OpType type = OpType::read;

  bool is_read() const { return type == OpType::read; }
  bool is_write() const { return type == OpType::write; }

  // The "precedes" relation (Section II-A): strict real-time order.
  bool precedes(const Operation& other) const { return finish < other.start; }
  bool concurrent_with(const Operation& other) const {
    return !precedes(other) && !other.precedes(*this);
  }

  friend bool operator==(const Operation&, const Operation&) = default;
};
static_assert(sizeof(Operation) == 32, "Operation rows pack into 32 bytes");

inline Operation make_read(TimePoint start, TimePoint finish, Value value,
                           ClientId client = kNoClient) {
  return Operation{start, finish, value, client, OpType::read};
}

inline Operation make_write(TimePoint start, TimePoint finish, Value value,
                            ClientId client = kNoClient) {
  return Operation{start, finish, value, client, OpType::write};
}

std::string describe(const Operation& op);  // "write(v=3) [10, 20)"

}  // namespace kav

#endif  // KAV_HISTORY_OPERATION_H
