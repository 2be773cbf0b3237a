// bench_diff: perf-regression gate over two benchmark / run-report
// JSON files.
//
//   bench_diff --baseline BENCH_base.json --current run.json
//              [--threshold 0.25] [--abs-floor 1e-4]
//              [--scale-current F]
//
// Both files are flattened to dotted numeric leaf paths
// ("rows[0].seconds", "benchmarks[3].real_time"), and every TIME-LIKE
// leaf present in both is compared: a regression is current >
// baseline * (1 + threshold). Non-time leaves (counts, accuracies,
// dimensions) are matched for context but never gated — run-to-run
// counter noise is not a perf regression. Leaves below --abs-floor in
// both files are skipped (microsecond-scale noise). --scale-current
// multiplies the current file's time-like values in memory — the
// self-test hook that proves the gate trips on an injected slowdown.
//
// Exit codes: 0 = no regressions, 1 = regressions found (or a file
// failed to parse), 2 = usage error.
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/json.h"

namespace birch {
namespace {

/// A leaf key counts as time-like when gating: exact names used by the
/// google-benchmark and bench_util formats, or a unit suffix.
bool IsTimeKey(const std::string& key) {
  // The path component after the last '.', minus any "[i]" suffix.
  size_t dot = key.rfind('.');
  std::string leaf = dot == std::string::npos ? key : key.substr(dot + 1);
  size_t bracket = leaf.find('[');
  if (bracket != std::string::npos) leaf.resize(bracket);
  if (leaf == "seconds" || leaf == "real_time" || leaf == "cpu_time" ||
      leaf == "time") {
    return true;
  }
  for (const char* suffix : {"_seconds", "_us", "_ms", "_ns"}) {
    std::string s(suffix);
    if (leaf.size() > s.size() &&
        leaf.compare(leaf.size() - s.size(), s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

void Flatten(const JsonValue& v, const std::string& path,
             std::map<std::string, double>* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNumber:
      (*out)[path] = v.number();
      return;
    case JsonValue::Kind::kObject:
      for (const auto& [key, child] : v.members()) {
        Flatten(child, path.empty() ? key : path + "." + key, out);
      }
      return;
    case JsonValue::Kind::kArray:
      for (size_t i = 0; i < v.array().size(); ++i) {
        Flatten(v.array()[i], path + "[" + std::to_string(i) + "]", out);
      }
      return;
    default:
      return;  // strings / bools / nulls are not comparable
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff --baseline FILE --current FILE\n"
      "                  [--threshold 0.25] [--abs-floor 1e-4]\n"
      "                  [--scale-current F]\n"
      "  Compares time-like numeric leaves (seconds, real_time, "
      "cpu_time, *_us, ...)\n"
      "  of two benchmark/run-report JSON files; exits 1 when any "
      "current value\n"
      "  exceeds baseline * (1 + threshold). --scale-current "
      "multiplies the current\n"
      "  file's time-like values first (regression-injection "
      "self-test).\n");
  return 2;
}

int Run(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  Status known = flags.CheckKnown({"baseline", "current", "threshold",
                                   "abs-floor", "scale-current", "help"});
  if (!known.ok()) {
    std::fprintf(stderr, "%s\n", known.ToString().c_str());
    return Usage();
  }
  if (flags.Has("help") || !flags.Has("baseline") || !flags.Has("current")) {
    return Usage();
  }
  const StatusOr<double> threshold_or = flags.GetDouble("threshold", 0.25);
  const StatusOr<double> abs_floor_or = flags.GetDouble("abs-floor", 1e-4);
  const StatusOr<double> scale_or = flags.GetDouble("scale-current", 1.0);
  for (const auto* v : {&threshold_or, &abs_floor_or, &scale_or}) {
    if (!v->ok()) {
      std::fprintf(stderr, "%s\n", v->status().message().c_str());
      return 2;
    }
  }
  const double threshold = threshold_or.value();
  const double abs_floor = abs_floor_or.value();
  const double scale = scale_or.value();
  if (threshold < 0.0 || abs_floor < 0.0 || scale <= 0.0) {
    std::fprintf(stderr,
                 "--threshold/--abs-floor must be >= 0, "
                 "--scale-current > 0\n");
    return Usage();
  }

  auto base_or = JsonValue::ParseFile(flags.GetString("baseline"));
  if (!base_or.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 base_or.status().ToString().c_str());
    return 1;
  }
  auto cur_or = JsonValue::ParseFile(flags.GetString("current"));
  if (!cur_or.ok()) {
    std::fprintf(stderr, "current: %s\n",
                 cur_or.status().ToString().c_str());
    return 1;
  }

  std::map<std::string, double> base, cur;
  Flatten(base_or.value(), "", &base);
  Flatten(cur_or.value(), "", &cur);

  size_t compared = 0;
  size_t regressions = 0;
  for (const auto& [key, base_v] : base) {
    if (!IsTimeKey(key)) continue;
    auto it = cur.find(key);
    if (it == cur.end()) continue;
    double cur_v = it->second * scale;
    if (base_v < abs_floor && cur_v < abs_floor) continue;  // noise floor
    ++compared;
    if (cur_v > base_v * (1.0 + threshold)) {
      ++regressions;
      std::printf("REGRESSION %s: baseline %.6g -> current %.6g (%+.1f%%, "
                  "gate %+.0f%%)\n",
                  key.c_str(), base_v, cur_v,
                  base_v > 0.0 ? (cur_v / base_v - 1.0) * 100.0 : 0.0,
                  threshold * 100.0);
    }
  }

  std::printf("bench_diff: %zu time-like leaves compared, %zu regression%s "
              "(threshold %+.0f%%)\n",
              compared, regressions, regressions == 1 ? "" : "s",
              threshold * 100.0);
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_diff: no comparable time-like leaves — wrong file "
                 "pair?\n");
    return 1;
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace
}  // namespace birch

int main(int argc, char** argv) { return birch::Run(argc, argv); }
