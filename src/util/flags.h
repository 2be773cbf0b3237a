// Minimal command-line flag parsing for the CLI tool and bench
// binaries: --name value and --name=value forms, typed getters with
// defaults that reject malformed and out-of-range values, and
// unknown-flag detection.
#ifndef BIRCH_UTIL_FLAGS_H_
#define BIRCH_UTIL_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace birch {

/// Parses argv into a {--flag: value} map plus positional arguments.
class Flags {
 public:
  static Flags Parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        f.positional_.push_back(arg);
        continue;
      }
      std::string name = arg.substr(2);
      std::string value = "true";
      size_t eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name.resize(eq);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      f.values_[name] = value;
    }
    return f;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// --name as a base-10 integer in [lo, hi], or `fallback` when the
  /// flag is absent. InvalidArgument naming the flag and the value
  /// unless the whole value parses and lies in range.
  StatusOr<int64_t> GetInt(
      const std::string& name, int64_t fallback,
      int64_t lo = std::numeric_limits<int64_t>::min(),
      int64_t hi = std::numeric_limits<int64_t>::max()) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
        *end != '\0') {
      return Bad(name, "not an integer", s);
    }
    if (errno == ERANGE) return Bad(name, "out of range", s);
    if (v < lo) {
      return Status::InvalidArgument("--" + name + " must be >= " +
                                     std::to_string(lo) + ", got " + s);
    }
    if (v > hi) {
      return Status::InvalidArgument("--" + name + " must be <= " +
                                     std::to_string(hi) + ", got " + s);
    }
    return static_cast<int64_t>(v);
  }

  /// --name as a finite number, or `fallback` when the flag is absent.
  /// InvalidArgument naming the flag and the value unless the whole
  /// value parses.
  StatusOr<double> GetDouble(const std::string& name,
                             double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& s = it->second;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || std::isspace(static_cast<unsigned char>(s[0])) ||
        *end != '\0') {
      return Bad(name, "not a number", s);
    }
    if (!std::isfinite(v)) return Bad(name, "not a finite number", s);
    return v;
  }

  bool GetBool(const std::string& name, bool fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0" && it->second != "no";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// Returns non-OK if a present flag is not in `known` (typo guard).
  Status CheckKnown(const std::vector<std::string>& known) const {
    for (const auto& [name, value] : values_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == name;
      if (!ok) return Status::InvalidArgument("unknown flag --" + name);
    }
    return Status::OK();
  }

 private:
  static Status Bad(const std::string& name, const char* what,
                    const std::string& value) {
    return Status::InvalidArgument("--" + name + ": " + what + ": '" +
                                   value + "'");
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace birch

#endif  // BIRCH_UTIL_FLAGS_H_
