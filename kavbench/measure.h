// Measurement plumbing for the kavbench binary: clocks, process CPU and
// memory probes, a small in-memory span recorder that writes
// chrome://tracing JSON, and the metric sheet a run prints.
//
// The span recorder is deliberately the benchmark's own, not obs::: the
// benchmark times the calls it makes INTO the library, so its spans
// must exist whatever the library does (or stops doing) internally.
#ifndef KAVBENCH_MEASURE_H
#define KAVBENCH_MEASURE_H

#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kavbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// User + system CPU of the whole process (every thread, pool workers
// included), in seconds, at nanosecond resolution. Like getrusage, it
// does not count time the hypervisor stole.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// System-wide CPU jiffies from /proc/stat: time a hypervisor ran other
// guests while this machine's CPUs were runnable (steal), and all
// non-idle time including steal. On a shared VM, steal is the main
// source of run-to-run wall-clock noise; process CPU time excludes it.
struct CpuTicks {
  long long steal = 0;
  long long busy = 0;
};

inline CpuTicks host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
            softirq = 0, steal = 0;
  in >> label >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return {steal, user + nice + system + irq + softirq + steal};
}

// Share of busy CPU time stolen between two readings (0 when unknown).
inline double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const long long busy = to.busy - from.busy;
  return busy > 0 ? static_cast<double>(to.steal - from.steal) /
                        static_cast<double>(busy)
                  : 0.0;
}

// A field of /proc/self/status in kB (VmRSS, VmHWM); -1 when absent.
inline long proc_status_kb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

// Resets VmHWM to the current RSS, so a later VmHWM reading is the peak
// reached after this call. Returns false when the kernel refuses.
inline bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// Chrome-trace "complete" events, one per call the benchmark makes into
// a layer. Disabled (the default) it records nothing and costs one
// branch per span.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::uint64_t run = 0;     // which timed call the span belongs to
    std::size_t thread = 0;
  };

  // Traced runs toggle recording per timed call (see closed_loop in
  // kavbench.cpp), from one thread while others open spans.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t begin() {
    if (!enabled_.load(std::memory_order_relaxed)) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return ++next_id_;
  }
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  // Writes the spans as a chrome://tracing JSON array.
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"run\":%llu}}%s\n",
                   s.name.c_str(), s.thread, s.start_us,
                   s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

SpanRecorder& spans();

// RAII span. The innermost live span on the calling thread is the
// parent of the next one opened there; `run` tags every span of one
// timed call (0 = outside the timed loop).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t run = 0)
      : id_(spans().begin()) {
    if (id_ == 0) return;
    span_.name = name;
    span_.id = id_;
    span_.parent = current();
    span_.run = run != 0 ? run : current_run();
    span_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) %
                   1000;
    span_.start_us = spans().now_us();
    stack().push_back({id_, span_.run});
  }
  ~ScopedSpan() {
    if (id_ == 0) return;
    span_.end_us = spans().now_us();
    stack().pop_back();
    spans().record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::vector<std::pair<std::uint64_t, std::uint64_t>>& stack() {
    thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> s;
    return s;
  }
  static std::uint64_t current() {
    return stack().empty() ? 0 : stack().back().first;
  }
  static std::uint64_t current_run() {
    return stack().empty() ? 0 : stack().back().second;
  }

  std::uint64_t id_;
  SpanRecorder::Span span_;
};

// The metrics one run prints, in insertion order, plus diagnostics and
// free-form context (build type, SIMD level) that are reported but
// never gated.
class Sheet {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {finite(name, value), unit}});
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras_.push_back({name, {finite(name, value), unit}});
  }
  void info(const std::string& name, const std::string& value) {
    info_[name] = value;
  }

  // Counts one checked result; `ok` false marks it failed.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::fprintf(stderr, "kavbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print_human(std::FILE* out) const {
    for (const auto& [name, m] : metrics_) {
      std::fprintf(out, "  %-34s %14.6g %s\n", name.c_str(), m.first,
                   m.second.c_str());
    }
    for (const auto& [name, m] : extras_) {
      std::fprintf(out, "  %-34s %14.6g %s   (diagnostic)\n", name.c_str(),
                   m.first, m.second.c_str());
    }
  }

  std::string json() const {
    std::string s = "{\"correct\": ";
    s += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": " + render(metrics_);
    s += ", \"extra\": " + render(extras_);
    s += ", \"info\": {";
    bool first = true;
    for (const auto& [k, v] : info_) {
      if (!first) s += ", ";
      first = false;
      s += quote(k) + ": " + quote(v);
    }
    s += "}, \"failures\": [";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) s += ", ";
      s += quote(failures_[i]);
    }
    s += "]}";
    return s;
  }

 private:
  using Entry = std::pair<std::string, std::pair<double, std::string>>;

  // JSON has no NaN or infinity; a metric that cannot be computed is a
  // benchmark bug, not a number to print.
  static double finite(const std::string& name, double value) {
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + name + " is not finite");
    }
    return value;
  }

  static std::string quote(const std::string& raw) {
    std::string s = "\"";
    for (char c : raw) {
      if (c == '"' || c == '\\') {
        s += '\\';
        s += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s += ' ';
      } else {
        s += c;
      }
    }
    return s + "\"";
  }
  static std::string render(const std::vector<Entry>& entries) {
    std::string s = "{";
    char number[64];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& [name, m] = entries[i];
      std::snprintf(number, sizeof number, "%.17g", m.first);
      if (i > 0) s += ", ";
      s += quote(name) + ": {\"value\": " + number +
           ", \"unit\": " + quote(m.second) + "}";
    }
    return s + "}";
  }

  std::vector<Entry> metrics_;
  std::vector<Entry> extras_;
  std::map<std::string, std::string> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace kavbench

#endif  // KAVBENCH_MEASURE_H
