#include "serving/server.h"

#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace birch {
namespace serving {

Status BirchServer::Publish(std::shared_ptr<ServingSnapshot> snap) {
  if (snap == nullptr) {
    return Status::InvalidArgument(
        "Publish(null snapshot): build one with ServingSnapshot::Build "
        "(or use BirchClusterer::PublishSnapshot) before publishing");
  }
  if (snap->dim() != dim_) {
    return Status::InvalidArgument(
        "snapshot dimension mismatch: snapshot has dim " +
        std::to_string(snap->dim()) + ", server was created with dim " +
        std::to_string(dim_) +
        "; publish snapshots built from the same clusterer");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap->set_epoch(++next_epoch_);
    current_ = std::move(snap);  // previous epoch retires here
  }
  OBS_COUNTER_INC("serving/publishes");
  OBS_GAUGE_SET("serving/epoch", epoch());
  return Status::OK();
}

std::shared_ptr<const ServingSnapshot> BirchServer::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

StatusOr<AssignResult> BirchServer::Assign(
    std::span<const double> point) const {
  if (point.size() != dim_) {
    return Status::InvalidArgument(
        "query dimension mismatch: got " + std::to_string(point.size()) +
        " components, server expects dim " + std::to_string(dim_) +
        "; pass exactly dim coordinates per query point");
  }
  std::shared_ptr<const ServingSnapshot> snap = Acquire();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no snapshot published yet: enable serving.publish_every_n (or "
        "publish manually) and ingest at least one point");
  }
  Timer timer;
  AssignResult r = snap->Assign(point, /*ws=*/nullptr);
  OBS_HISTOGRAM_RECORD("serving/assign_us", timer.Seconds() * 1e6);
  OBS_COUNTER_INC("serving/assign_queries");
  return r;
}

StatusOr<std::vector<CentroidNeighbor>> BirchServer::KNearestCentroids(
    std::span<const double> point, size_t k) const {
  if (point.size() != dim_) {
    return Status::InvalidArgument(
        "query dimension mismatch: got " + std::to_string(point.size()) +
        " components, server expects dim " + std::to_string(dim_) +
        "; pass exactly dim coordinates per query point");
  }
  std::shared_ptr<const ServingSnapshot> snap = Acquire();
  if (snap == nullptr) {
    return Status::FailedPrecondition(
        "no snapshot published yet: enable serving.publish_every_n (or "
        "publish manually) and ingest at least one point");
  }
  Timer timer;
  std::vector<CentroidNeighbor> out = snap->KNearestCentroids(point, k);
  OBS_HISTOGRAM_RECORD("serving/knn_us", timer.Seconds() * 1e6);
  OBS_COUNTER_INC("serving/knn_queries");
  return out;
}

uint64_t BirchServer::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->epoch();
}

double BirchServer::SnapshotAgeMs() const {
  std::shared_ptr<const ServingSnapshot> snap = Acquire();
  return snap == nullptr ? 0.0 : snap->AgeMs();
}

uint64_t BirchServer::publishes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_epoch_;
}

}  // namespace serving
}  // namespace birch
