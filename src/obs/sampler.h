// StatsSampler: a background thread that samples registered probes at
// a fixed cadence into per-probe TimeSeries rings, turning the
// registry's point-in-time gauges and counters into trajectories —
// threshold T growth, tree occupancy, memory high-water, I/O volume
// over the scan (the paper's Phase-1 rebuild dynamics, §5.1).
//
// Probes must be race-free to read from another thread. The built-in
// AddGaugeProbe / AddCounterProbe forms read registry metrics (relaxed
// atomics, TSAN-clean against concurrent ingest); AddProbe(fn) is for
// callers who can guarantee the same about `fn`.
//
// Lifecycle: construct, add probes, Start(). Start/Stop are
// idempotent; Stop() joins the thread and takes one final sample so
// even a run shorter than the cadence ends with a non-empty series
// (one sample is also taken inside Start()). When obs::Enabled() is
// false nothing is recorded at all. Each sample is additionally
// emitted as a Chrome-trace counter ("C") event while the default
// tracer is recording, so trajectories land next to the span stream
// in chrome://tracing.
#ifndef BIRCH_OBS_SAMPLER_H_
#define BIRCH_OBS_SAMPLER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/timeseries.h"
#include "util/status.h"

namespace birch {
namespace obs {

struct SamplerOptions {
  /// Cadence of the background thread. Must be > 0 to Start().
  uint64_t sample_every_ms = 100;
  /// Ring capacity per series; the oldest samples drop beyond it.
  size_t series_capacity = 4096;
};

class StatsSampler {
 public:
  explicit StatsSampler(SamplerOptions options = {});
  ~StatsSampler();  // stops the thread if still running

  StatsSampler(const StatsSampler&) = delete;
  StatsSampler& operator=(const StatsSampler&) = delete;

  /// Samples Registry::Default()'s gauge / counter of that name (the
  /// handle is resolved once, here). Probes cannot be added while the
  /// sampler is running.
  void AddGaugeProbe(std::string_view metric);
  void AddCounterProbe(std::string_view metric);
  /// Custom probe; `fn` is called from the sampler thread and must be
  /// safe to run concurrently with whatever it observes.
  void AddProbe(std::string name, std::function<double()> fn);

  /// Launches the background thread (and takes an immediate sample).
  /// Idempotent: OK if already running. InvalidArgument when
  /// sample_every_ms == 0.
  Status Start();
  /// Joins the thread and takes a final sample. Idempotent.
  void Stop();
  bool running() const;

  /// One synchronous sample of every probe (no thread needed); a no-op
  /// when obs is disabled. The background thread calls this too.
  void SampleOnce();

  /// Copies of every probe's series (probe registration order).
  std::vector<TimeSeriesSnapshot> Snapshot() const;

  /// Samples taken so far (Start + cadence + Stop), 0 while disabled.
  uint64_t samples_taken() const;

  const SamplerOptions& options() const { return options_; }

 private:
  struct Probe {
    std::function<double()> fn;
    TimeSeries series;
    /// Stable name for tracer counter events (TraceEvent stores the
    /// pointer); interned for custom probes, registry-owned otherwise.
    const char* trace_name;

    Probe(std::function<double()> f, std::string name, size_t capacity,
          const char* tname)
        : fn(std::move(f)),
          series(std::move(name), capacity),
          trace_name(tname) {}
  };

  void Loop();

  SamplerOptions options_;
  std::vector<std::unique_ptr<Probe>> probes_;  // frozen once running

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  std::thread thread_;
  std::atomic<uint64_t> samples_{0};
};

}  // namespace obs
}  // namespace birch

#endif  // BIRCH_OBS_SAMPLER_H_
