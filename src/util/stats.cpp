#include "util/stats.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace kav {

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double total = 0;
  for (double x : xs_) total += x;
  return total / static_cast<double>(xs_.size());
}

double Samples::quantile(double q) const {
  if (xs_.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank];
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ' << row[c] << std::string(widths[c] - row[c].size(), ' ')
          << " |";
    }
    out << '\n';
  };
  emit_row(headers_);
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string TablePrinter::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TablePrinter::fmt(std::int64_t v) { return std::to_string(v); }
std::string TablePrinter::fmt(std::uint64_t v) { return std::to_string(v); }

}  // namespace kav
