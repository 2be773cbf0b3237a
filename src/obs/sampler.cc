#include "obs/sampler.h"

#include <chrono>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace birch {
namespace obs {

namespace {

/// Returns a pointer that stays valid for the process lifetime.
/// TraceEvent stores raw name pointers, and a trace may be exported
/// after the sampler that produced the samples is gone.
const char* InternName(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string>* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

}  // namespace

StatsSampler::StatsSampler(SamplerOptions options) : options_(options) {}

StatsSampler::~StatsSampler() { Stop(); }

void StatsSampler::AddGaugeProbe(std::string_view metric) {
  Gauge& g = Registry::Default().GetGauge(metric);
  AddProbe(std::string(metric), [&g] { return g.Value(); });
}

void StatsSampler::AddCounterProbe(std::string_view metric) {
  Counter& c = Registry::Default().GetCounter(metric);
  AddProbe(std::string(metric),
           [&c] { return static_cast<double>(c.Value()); });
}

void StatsSampler::AddProbe(std::string name, std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;  // the probe set is frozen while sampling
  const char* tname = InternName(name);
  probes_.push_back(std::make_unique<Probe>(
      std::move(fn), std::move(name), options_.series_capacity, tname));
}

Status StatsSampler::Start() {
  if (options_.sample_every_ms == 0) {
    return Status::InvalidArgument(
        "StatsSampler cadence must be > 0 ms (0 means sampling is off)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::OK();
    running_ = true;
  }
  SampleOnce();  // the trajectory starts at t=now, not one period in
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void StatsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleOnce();  // capture the end state even on sub-cadence runs
}

bool StatsSampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void StatsSampler::SampleOnce() {
  if (!Enabled()) return;  // disabled runs record zero samples
  Tracer& tracer = Tracer::Default();
  const uint64_t now = tracer.NowUs();
  const bool trace = tracer.recording();
  for (const auto& probe : probes_) {
    double v = probe->fn();
    probe->series.Append(now, v);
    if (trace) tracer.CounterSample(probe->trace_name, v);
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

void StatsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (running_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.sample_every_ms),
                     [this] { return !running_; })) {
      return;  // stopped; Stop() takes the final sample
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

std::vector<TimeSeriesSnapshot> StatsSampler::Snapshot() const {
  std::vector<TimeSeriesSnapshot> out;
  out.reserve(probes_.size());
  for (const auto& probe : probes_) out.push_back(probe->series.Snapshot());
  return out;
}

uint64_t StatsSampler::samples_taken() const {
  return samples_.load(std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace birch
