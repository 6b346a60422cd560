// Small reporting toolkit for the examples and kavbench: quantiles over
// collected samples, and a fixed-width text table.
#ifndef KAV_UTIL_STATS_H
#define KAV_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kav {

// Batch sample container with quantiles. Quantile uses the nearest-rank
// method on a sorted copy, which is adequate for reporting.
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double quantile(double q) const;  // q in [0, 1]; requires non-empty
  double min() const { return quantile(0.0); }
  double median() const { return quantile(0.5); }
  double max() const { return quantile(1.0); }
  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
};

// Renders a fixed-width text table; used by examples and the "--table"
// style bench reports so series are easy to eyeball against the paper.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  static std::string fmt(double v, int precision = 3);
  static std::string fmt(std::int64_t v);
  static std::string fmt(std::uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace kav

#endif  // KAV_UTIL_STATS_H
