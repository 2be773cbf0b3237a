// Helpers for the end-to-end benchmark (birch_e2e.cc): statistics,
// host/build context, a peak-RSS sampler, a latency histogram, and the
// span-event attribution that turns a recorded trace into per-span
// inclusive and self times. Nothing here touches the library's
// internals; spans come from the public obs::Tracer event buffer.
#ifndef BIRCH_E2E_BENCH_E2E_UTIL_H_
#define BIRCH_E2E_BENCH_E2E_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace birch {
namespace e2e {

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// A double with every digit (%.17g), as JSON allows it (non-finite
/// values become null).
inline std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// User + system CPU seconds of the whole process so far.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// First "key : value" line of /proc/cpuinfo whose key is `key`.
inline std::string CpuInfoField(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

inline bool HasCpuFlag(const std::string& flags, const char* flag) {
  std::istringstream in(flags);
  std::string f;
  while (in >> f) {
    if (f == flag) return true;
  }
  return false;
}

/// Peak resident set of this process, sampled every 2 ms from
/// /proc/self/statm while the sampler lives (so setup-time buffers that
/// were already freed do not count).
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Peak so far in MB (1 MB = 2^20 bytes).
  double PeakMb() const {
    return static_cast<double>(peak_.load(std::memory_order_relaxed)) /
           (1024.0 * 1024.0);
  }

  static size_t CurrentBytes() {
    std::ifstream in("/proc/self/statm");
    size_t total = 0, resident = 0;
    in >> total >> resident;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
  }

 private:
  void Loop() {
    while (true) {
      size_t now = CurrentBytes();
      if (now > peak_.load(std::memory_order_relaxed)) {
        peak_.store(now, std::memory_order_relaxed);
      }
      if (stop_.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread thread_;  // declared last: starts after the atomics exist
};

/// Latency histogram with 1%-wide logarithmic buckets over nanoseconds
/// (1 ns .. ~1 s). Quantiles return the bucket's geometric midpoint, so
/// they carry at most 0.5% bucketing error.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Record(double ns) {
    size_t i = 0;
    if (ns > 1.0) {
      i = std::min(kBuckets - 1,
                   static_cast<size_t>(std::log(ns) * kInvLogBase));
    }
    ++buckets_[i];
    ++count_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  /// q-quantile in microseconds (0 when empty).
  double QuantileUs(double q) const {
    if (count_ == 0) return 0.0;
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= std::max<uint64_t>(rank, 1)) {
        return std::exp((static_cast<double>(i) + 0.5) / kInvLogBase) / 1e3;
      }
    }
    return std::exp(static_cast<double>(kBuckets) / kInvLogBase) / 1e3;
  }

 private:
  static constexpr size_t kBuckets = 2100;
  static constexpr double kInvLogBase = 100.49916944;  // 1 / ln(1.01)
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Inclusive and self time of one span name, summed over threads.
struct SpanTime {
  double inclusive_s = 0.0;  // outermost occurrences only
  double self_s = 0.0;       // minus the time its child spans cover
  uint64_t count = 0;
};

/// Replays the recorded B/E events thread by thread. A span's self time
/// is its duration minus the part of it that its direct child spans
/// cover. An "E" closes the innermost open span of that name; spans
/// left open above it are dropped (the library's spans nest properly,
/// so this only guards against a truncated buffer).
inline std::map<std::string, SpanTime> AttributeSpans(
    const std::vector<obs::TraceEvent>& events) {
  struct Frame {
    const char* name;
    uint64_t start_us;
    double child_us;
  };
  std::map<uint32_t, std::vector<Frame>> stacks;
  std::map<std::string, SpanTime> out;
  for (const obs::TraceEvent& e : events) {
    std::vector<Frame>& stack = stacks[e.tid];
    if (e.phase == obs::TraceEvent::Phase::kBegin) {
      stack.push_back({e.name, e.ts_us, 0.0});
      continue;
    }
    if (e.phase != obs::TraceEvent::Phase::kEnd) continue;
    size_t i = stack.size();
    while (i > 0 && std::strcmp(stack[i - 1].name, e.name) != 0) --i;
    if (i == 0) continue;
    Frame f = stack[i - 1];
    stack.resize(i - 1);
    const double dur_us = static_cast<double>(e.ts_us - f.start_us);
    SpanTime& t = out[f.name];
    t.self_s += std::max(0.0, dur_us - f.child_us) * 1e-6;
    ++t.count;
    bool nested_in_same = false;
    for (const Frame& g : stack) {
      if (std::strcmp(g.name, f.name) == 0) nested_in_same = true;
    }
    if (!nested_in_same) t.inclusive_s += dur_us * 1e-6;
    if (!stack.empty()) stack.back().child_us += dur_us;
  }
  return out;
}

}  // namespace e2e
}  // namespace birch

#endif  // BIRCH_E2E_BENCH_E2E_UTIL_H_
