// Run-report manifest: one versioned JSON document per clustering run,
// the durable record a benchmark harness or regression gate consumes —
// options (with a fingerprint), dataset descriptor, per-phase wall
// times, final metrics with histogram quantiles, robustness accounting,
// and the sampled time series. Written on success AND failure: a
// partial run's telemetry is exactly what a post-mortem needs, so the
// report carries the run's Status rather than existing only when OK.
//
// Schema stability contract: `schema` / `schema_version` gate readers.
// Additive changes (new keys) do not bump the version; readers must
// ignore keys they do not know. Renaming or retyping an existing key
// bumps the version, and ReadRunReport rejects versions it does not
// know. The keys of a retired feature go without a version bump, as
// `cf_storage` went with float32 CF storage.
#ifndef BIRCH_BIRCH_RUN_REPORT_H_
#define BIRCH_BIRCH_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "birch/birch.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "util/json.h"
#include "util/status.h"

namespace birch {

inline constexpr const char* kRunReportSchema = "birch_run_report";
inline constexpr int64_t kRunReportSchemaVersion = 1;

/// Everything a run report is built from. `result` may be null (failed
/// run); `timeseries` is used when `result` is null or has none — a
/// CLI-owned sampler outlives the clusterer on the failure path.
struct RunReportInputs {
  const BirchOptions* options = nullptr;  // required
  std::string dataset_name;
  uint64_t dataset_points = 0;
  size_t dataset_dim = 0;
  Status status;  // the clustering outcome this report records
  const BirchResult* result = nullptr;
  std::vector<obs::TimeSeriesSnapshot> timeseries;
  /// Optional dataset-dependent quality numbers (e.g. label accuracy
  /// against ground truth); emitted verbatim under "quality".
  std::map<std::string, double> quality;
  /// Optional serving-tier numbers (QPS, latency quantiles, snapshot
  /// age) from bench_serving; emitted verbatim under "serving".
  std::map<std::string, double> serving;
};

/// FNV-1a 64 over a canonical rendering of every option that changes
/// clustering behaviour. Two runs with equal fingerprints are
/// comparable; fault-injection and checkpoint knobs are included
/// (they change the work done), the obs group is not (telemetry must
/// never make two runs "different").
uint64_t OptionsFingerprint(const BirchOptions& options);

/// The manifest as a JSON string (one document, no trailing newline).
std::string RunReportJson(const RunReportInputs& in);

/// Renders and atomically writes the manifest. InvalidArgument when
/// `in.options` is null.
Status WriteRunReport(const std::string& path, const RunReportInputs& in);

/// Parses `path` and validates the envelope: Corruption for damaged
/// JSON, InvalidArgument for a wrong schema name or an unknown
/// schema_version. Returns the whole document.
StatusOr<JsonValue> ReadRunReport(const std::string& path);

/// Registers the standard BIRCH probe set on `sampler`: tree occupancy
/// (nodes, leaf entries), the tree's heap bytes ("tree/heap_bytes",
/// against the pages "mem/used_bytes" charges), threshold T, memory
/// bytes, page-store and spill I/O volume, points ingested. Metric
/// handles resolve in
/// Registry::Default(), so the probes are TSAN-safe against concurrent
/// ingest (relaxed atomics all the way down).
void RegisterBirchProbes(obs::StatsSampler* sampler);

}  // namespace birch

#endif  // BIRCH_BIRCH_RUN_REPORT_H_
