// Minimal command-line flag parsing for the example binaries.
// Supports --name=value and --name value; everything else is collected
// as a positional argument. A boolean flag that greedily consumed a
// following non-boolean token (`--json trace.kavb`) hands it back as a
// positional at get_bool time. Unknown flags are an error so typos
// fail loudly rather than silently running a default experiment.
// parse_listen_address() reads the --listen=[ADDR:]PORT value the
// telemetry-serving examples share.
#ifndef KAV_UTIL_FLAGS_H
#define KAV_UTIL_FLAGS_H

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace kav {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // bare flag
      }
    }
  }

  std::string get_string(const std::string& name, std::string def) {
    note(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }

  std::int64_t get_int(const std::string& name, std::int64_t def) {
    note(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : std::stoll(it->second);
  }

  double get_double(const std::string& name, double def) {
    note(name);
    auto it = values_.find(name);
    return it == values_.end() ? def : std::stod(it->second);
  }

  bool get_bool(const std::string& name, bool def) {
    note(name);
    auto it = values_.find(name);
    if (it == values_.end()) return def;
    if (it->second == "true" || it->second == "1" || it->second == "yes") {
      return true;
    }
    if (it->second == "false" || it->second == "0" || it->second == "no") {
      return false;
    }
    // `--flag path` adjacency: the constructor greedily consumed the
    // next token as this flag's value, but the caller says the flag is
    // boolean -- hand the token back as a positional (e.g.
    // `trace_check --json trace.kavb`) and treat the flag as bare.
    positional_.push_back(it->second);
    it->second = "true";
    return true;
  }

  const std::vector<std::string>& positional() const { return positional_; }

  // Call after all get_* calls; throws on flags that nothing consumed.
  void check_unknown() const {
    for (const auto& [name, value] : values_) {
      if (!known_.count(name)) {
        throw std::invalid_argument("unknown flag: --" + name);
      }
    }
  }

 private:
  void note(const std::string& name) { known_.insert(name); }

  std::map<std::string, std::string> values_;
  std::set<std::string> known_;
  std::vector<std::string> positional_;
};

// A --listen=[ADDR:]PORT value.
struct ListenAddress {
  std::string address = "127.0.0.1";
  int port = 0;  // 0 = ephemeral
};

// Parses [ADDR:]PORT, splitting at the last ':'. The port must be a
// plain decimal number in [0, 65535]; anything else ("80abc", "-5",
// "70000", "") throws std::invalid_argument instead of binding some
// other port.
inline ListenAddress parse_listen_address(const std::string& text) {
  ListenAddress listen;
  std::string port = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    listen.address = text.substr(0, colon);
    port = text.substr(colon + 1);
  }
  // At most 5 digits, so stoi cannot overflow.
  if (port.empty() || port.size() > 5 ||
      port.find_first_not_of("0123456789") != std::string::npos ||
      std::stoi(port) > 65535) {
    throw std::invalid_argument("listen port must be a number in [0, 65535], "
                                "got \"" + port + "\"");
  }
  listen.port = std::stoi(port);
  return listen;
}

}  // namespace kav

#endif  // KAV_UTIL_FLAGS_H
