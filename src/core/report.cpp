#include "core/report.h"

namespace kav {

std::string describe(const Verdict& verdict) {
  std::string text = to_string(verdict.outcome);
  if (verdict.yes()) {
    if (!verdict.witness.empty()) {
      text += " (witness over " + std::to_string(verdict.witness.size()) +
              " ops)";
    }
    return text;
  }
  if (!verdict.reason.empty()) text += ": " + verdict.reason;
  return text;
}

bool Report::all_yes() const {
  for (const auto& [key, result] : per_key) {
    if (!result.verdict.yes()) return false;
  }
  return true;
}

std::size_t Report::count(Outcome outcome) const {
  std::size_t n = 0;
  for (const auto& [key, result] : per_key) {
    if (result.verdict.outcome == outcome) ++n;
  }
  return n;
}

std::string Report::summary() const {
  std::string text =
      std::to_string(count(Outcome::yes)) + "/" +
      std::to_string(per_key.size()) + " keys atomic within bound, " +
      std::to_string(count(Outcome::no)) + " NO, " +
      std::to_string(count(Outcome::undecided)) + " undecided, " +
      std::to_string(count(Outcome::precondition_failed)) + " invalid";
  if (selected) {
    text += " (selected " + std::to_string(keys_selected) + "/" +
            std::to_string(keys_available) + " keys";
    if (!missing_keys.empty()) {
      text += ", " + std::to_string(missing_keys.size()) + " requested missing";
    }
    text += ")";
  }
  if (cancelled) text += " [cancelled: " + stop_reason + "]";
  return text;
}

}  // namespace kav
