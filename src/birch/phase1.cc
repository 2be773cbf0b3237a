#include "birch/phase1.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace birch {

Phase1Builder::Phase1Builder(const Phase1Options& options)
    : options_(options),
      mem_(options.memory_budget_bytes),
      // Budget 0 means "no outlier disk", not "unlimited" (which is
      // what PageStore's 0 would mean): the store is built one page
      // deep and never used — every spill takes the in-tree fallback.
      disk_(options.tree.page_size,
            options.disk_budget_bytes > 0 ? options.disk_budget_bytes
                                          : options.tree.page_size,
            options.fault),
      outlier_entries_(&disk_, CfVector::SerializedDoubles(options.tree.dim),
                       options.retry),
      delayed_points_(&disk_, CfVector::SerializedDoubles(options.tree.dim),
                      options.retry),
      tree_(std::make_unique<CfTree>(options.tree, &mem_)),
      heuristic_(options.tree.dim, options.expected_points),
      point_cf_(options.tree.dim, options.tree.cf),
      disk_enabled_(options.disk_budget_bytes > 0) {
  robust_.outlier_disk_disabled = !disk_enabled_;
}

Phase1Stats& Phase1Stats::operator+=(const Phase1Stats& other) {
  points_added += other.points_added;
  rebuilds += other.rebuilds;
  outlier_entries_spilled += other.outlier_entries_spilled;
  outlier_entries_reabsorbed += other.outlier_entries_reabsorbed;
  points_delay_spilled += other.points_delay_spilled;
  reabsorb_cycles += other.reabsorb_cycles;
  forced_inserts += other.forced_inserts;
  return *this;
}

RobustnessStats& RobustnessStats::operator+=(const RobustnessStats& other) {
  transient_io_errors += other.transient_io_errors;
  io_retries += other.io_retries;
  simulated_backoff_us += other.simulated_backoff_us;
  checksum_failures += other.checksum_failures;
  pages_lost += other.pages_lost;
  records_lost += other.records_lost;
  degradation_events += other.degradation_events;
  fallback_absorbed += other.fallback_absorbed;
  fallback_dropped += other.fallback_dropped;
  outlier_disk_disabled |= other.outlier_disk_disabled;
  return *this;
}

double OutlierWeightThreshold(const CfTree& tree, double fraction) {
  const size_t entries = tree.leaf_entry_count();
  if (entries == 0) return 0.0;
  const double avg = tree.TreeSummary().n() / static_cast<double>(entries);
  return fraction * avg;
}

bool ReabsorbEntry(CfTree* tree, const CfVector& e, Phase1Stats* stats) {
  if (tree->InsertEntry(e, InsertMode::kAbsorbOnly) ==
      InsertOutcome::kRejected) {
    return false;
  }
  ++stats->outlier_entries_reabsorbed;
  OBS_COUNTER_INC("phase1/outliers_reabsorbed");
  return true;
}

Status RebuildToFit(
    CfTree* tree, ThresholdHeuristic* heuristic, const Phase1Options& options,
    Phase1Stats* stats,
    const std::function<Status(std::vector<CfVector>&)>& shed) {
  int guard = 0;
  do {
    const double t_next = heuristic->SuggestNext(*tree, stats->points_added);
    const double outlier_n =
        options.outlier_handling
            ? OutlierWeightThreshold(*tree, options.outlier_fraction)
            : 0.0;
    std::vector<CfVector> outliers;
    tree->Rebuild(t_next, outlier_n, &outliers);
    ++stats->rebuilds;
    stats->final_threshold = t_next;
    OBS_COUNTER_INC("phase1/rebuilds");
    BIRCH_RETURN_IF_ERROR(shed(outliers));
    // One rebuild normally recovers the budget; a pathological
    // distribution may need another round with a larger threshold.
  } while (tree->over_budget() && ++guard < 16);
  if (tree->over_budget()) {
    return Status::OutOfMemory(
        "memory budget unattainable after repeated rebuilds");
  }
  return Status::OK();
}

RobustnessStats Phase1Builder::robustness() const {
  RobustnessStats r = robust_;
  for (const SpillFile* f : {&outlier_entries_, &delayed_points_}) {
    r.transient_io_errors += f->stats().transient_errors;
    r.io_retries += f->stats().io_retries;
    r.simulated_backoff_us += f->stats().backoff_us;
    r.pages_lost += f->stats().pages_lost;
    r.records_lost += f->stats().records_lost;
  }
  // += so a restored builder's frozen baseline (already in robust_)
  // survives; live runs start the baseline at zero.
  r.checksum_failures += disk_.io_stats().checksum_failures;
  return r;
}

StatusOr<Phase1Freeze> Phase1Builder::Freeze() {
  if (finished_) {
    return Status::FailedPrecondition("Freeze() after Finish()");
  }
  TRACE_SPAN("phase1/freeze");
  Phase1Freeze f;
  // Capture the fault stream and aggregate counters FIRST: the peeks
  // below consume injector draws (their reads are stats-neutral, but
  // the RNG still advances), and the restored run must resume from the
  // pre-checkpoint stream.
  f.fault_rng = disk_.mutable_injector()->rng_state();
  f.fault_stats = disk_.fault_stats();
  f.robustness = robustness();

  // Serialize the tree into a private fault-free staging store; its
  // ids are sequential from 0, so page i of the store is tree_pages[i].
  PageStore staging(options_.tree.page_size);
  auto img_or = TreeIO::Write(*tree_, &staging);
  if (!img_or.ok()) return img_or.status();
  f.image = std::move(img_or.value());
  f.tree_pages.resize(staging.num_pages());
  for (size_t i = 0; i < f.tree_pages.size(); ++i) {
    BIRCH_RETURN_IF_ERROR(
        staging.Read(static_cast<PageId>(i), &f.tree_pages[i]));
  }

  // Copy pending spill state without consuming it. Records a faulty
  // device loses during the peek are absent from the checkpoint; the
  // frozen accounting carries the loss so a restored run reports it.
  DrainReport rep;
  BIRCH_RETURN_IF_ERROR(outlier_entries_.PeekAll(&f.outlier_records, &rep));
  f.robustness.pages_lost += rep.pages_lost;
  f.robustness.records_lost += rep.records_lost;
  BIRCH_RETURN_IF_ERROR(delayed_points_.PeekAll(&f.delayed_records, &rep));
  f.robustness.pages_lost += rep.pages_lost;
  f.robustness.records_lost += rep.records_lost;

  f.threshold_history = heuristic_.History();
  f.final_outliers = final_outliers_;
  f.stats = stats_;
  f.delay_mode = delay_mode_;
  f.disk_enabled = disk_enabled_;
  return f;
}

StatusOr<std::unique_ptr<Phase1Builder>> Phase1Builder::Thaw(
    const Phase1Options& options, const Phase1Freeze& freeze) {
  if (options.tree.dim != freeze.image.dim) {
    return Status::InvalidArgument("checkpoint dim mismatch");
  }
  if (options.tree.page_size != freeze.image.page_size) {
    return Status::InvalidArgument("checkpoint page size mismatch");
  }
  std::unique_ptr<Phase1Builder> b(new Phase1Builder(options));

  // Rebuild the CF tree from the frozen pages via TreeIO (ids are
  // sequential, matching the freeze's staging store).
  PageStore staging(freeze.image.page_size);
  for (const auto& page : freeze.tree_pages) {
    auto id_or = staging.Allocate();
    if (!id_or.ok()) return id_or.status();
    BIRCH_RETURN_IF_ERROR(staging.Write(id_or.value(), page));
  }
  b->tree_.reset();  // release the fresh root's budget charge first
  auto tree_or = TreeIO::Read(freeze.image, &staging, options.tree, &b->mem_);
  if (!tree_or.ok()) return tree_or.status();
  b->tree_ = std::move(tree_or.value());

  b->heuristic_.RestoreHistory(freeze.threshold_history);

  // Replay pending spill records. Flushed pages are always full, so
  // re-appending in order recreates the exact page/staging layout the
  // original builder had. The original device already survived these
  // writes, so the replay runs with injection off — a replay-time fault
  // would corrupt state the checkpoint holds intact.
  const FaultOptions real_faults = b->disk_.mutable_injector()->options();
  b->disk_.mutable_injector()->set_options(FaultOptions{});
  const size_t rec = CfVector::SerializedDoubles(options.tree.dim);
  auto replay = [&](SpillFile* file,
                    const std::vector<double>& records) -> Status {
    if (records.size() % rec != 0) {
      return Status::Corruption(
          "checkpoint spill payload is not record-aligned");
    }
    for (size_t off = 0; off < records.size(); off += rec) {
      BIRCH_RETURN_IF_ERROR(file->Append(
          std::span<const double>(records.data() + off, rec)));
    }
    return Status::OK();
  };
  BIRCH_RETURN_IF_ERROR(replay(&b->outlier_entries_, freeze.outlier_records));
  BIRCH_RETURN_IF_ERROR(replay(&b->delayed_points_, freeze.delayed_records));

  b->final_outliers_ = freeze.final_outliers;
  b->stats_ = freeze.stats;
  b->robust_ = freeze.robustness;
  b->delay_mode_ = freeze.delay_mode;
  b->disk_enabled_ = freeze.disk_enabled;
  // Reinstate the real fault configuration and resume the fault stream
  // where the original left off.
  b->disk_.mutable_injector()->set_options(real_faults);
  b->disk_.mutable_injector()->set_rng_state(freeze.fault_rng);
  b->disk_.mutable_injector()->set_stats(freeze.fault_stats);
  return b;
}

void Phase1Builder::FallbackOutlierEntry(const CfVector& e) {
  // No disk to park the entry on: absorb it at the current threshold if
  // it fits an existing entry, otherwise call it an outlier now. The
  // entry can no longer ride later re-absorb cycles — that is the
  // accepted quality cost of degraded mode.
  InsertOutcome out = tree_->InsertEntry(e, InsertMode::kAbsorbOnly);
  if (out != InsertOutcome::kRejected) {
    ++robust_.fallback_absorbed;
    return;
  }
  final_outliers_.push_back(e);
  ++robust_.fallback_dropped;
}

StatusOr<Phase1Builder::SpillOutcome> Phase1Builder::Spill(
    SpillFile* file, const CfVector& e) {
  std::vector<double> buf;
  e.SerializeTo(&buf);
  Status st = file->Append(buf);
  if (st.ok()) return SpillOutcome::kStored;
  if (st.code() == StatusCode::kOutOfDisk) return SpillOutcome::kFull;
  if (st.code() != StatusCode::kIOError &&
      st.code() != StatusCode::kDataLoss) {
    return st;
  }
  // The spill layer could not recover (transient budget exhausted, or
  // data demonstrably gone): the disk is broken, not merely full.
  // Retire it, salvaging both spill files into the tree.
  BIRCH_RETURN_IF_ERROR(DegradeOutlierDisk());
  return SpillOutcome::kBroken;
}

Status Phase1Builder::Drain(SpillFile* file, bool note_loss,
                            const std::function<Status(CfVector)>& each) {
  std::vector<double> drained;
  DrainReport rep;
  BIRCH_RETURN_IF_ERROR(file->DrainAll(&drained, &rep));
  if (note_loss && rep.records_lost > 0) {
    // The device demonstrably ate data: one degradation event per lossy
    // drain (the per-record accounting lives in the spill stats).
    ++robust_.degradation_events;
    if (disk_enabled_ && rep.pages_lost == rep.pages_total) {
      // Every page came back unreadable — stop trusting the device.
      disk_enabled_ = false;
      robust_.outlier_disk_disabled = true;
    }
  }
  const size_t rec = CfVector::SerializedDoubles(options_.tree.dim);
  for (size_t off = 0; off + rec <= drained.size(); off += rec) {
    BIRCH_RETURN_IF_ERROR(each(CfVector::Deserialize(
        std::span<const double>(drained.data() + off, rec),
        options_.tree.dim, options_.tree.cf)));
  }
  return Status::OK();
}

Status Phase1Builder::ReplayDelayedPoints(bool note_loss) {
  return Drain(&delayed_points_, note_loss, [this](CfVector e) {
    tree_->InsertEntry(e);
    return tree_->over_budget() ? RebuildLarger() : Status::OK();
  });
}

Status Phase1Builder::DegradeOutlierDisk() {
  if (!disk_enabled_) return Status::OK();
  disk_enabled_ = false;
  robust_.outlier_disk_disabled = true;
  ++robust_.degradation_events;
  OBS_COUNTER_INC("phase1/disk_degradations");
  TRACE_INSTANT("phase1/degrade_disk");
  // Salvage whatever the device still returns, then never write again.
  // The salvage drains add no degradation event of their own.
  BIRCH_RETURN_IF_ERROR(
      Drain(&outlier_entries_, /*note_loss=*/false, [this](CfVector e) {
        FallbackOutlierEntry(e);
        return Status::OK();
      }));
  return ReplayDelayedPoints(/*note_loss=*/false);
}

Status ValidatePoint(std::span<const double> x, double weight,
                     uint64_t index) {
  for (size_t k = 0; k < x.size(); ++k) {
    if (!std::isfinite(x[k])) {
      return Status::InvalidArgument(
          "point " + std::to_string(index) +
          " has a non-finite coordinate (x[" + std::to_string(k) +
          "] = " + std::to_string(x[k]) +
          "); every coordinate must be a finite number");
    }
  }
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument(
        "weight must be positive and finite: point " +
        std::to_string(index) + " has weight " + std::to_string(weight));
  }
  return Status::OK();
}

Status ValidateBatch(std::span<const double> xs, size_t n, size_t dim,
                     std::span<const double> weights, uint64_t first_index) {
  if (xs.size() != n * dim) {
    return Status::InvalidArgument(
        "batch size mismatch: got " + std::to_string(xs.size()) +
        " doubles for n=" + std::to_string(n) + " points of dim " +
        std::to_string(dim) + "; pass exactly n * dim row-major values");
  }
  if (!weights.empty() && weights.size() != n) {
    return Status::InvalidArgument(
        "weight count mismatch: got " + std::to_string(weights.size()) +
        " weights for " + std::to_string(n) +
        " points; pass one weight per point or an empty span for all-1");
  }
  for (size_t i = 0; i < n; ++i) {
    BIRCH_RETURN_IF_ERROR(ValidatePoint(xs.subspan(i * dim, dim),
                                        weights.empty() ? 1.0 : weights[i],
                                        first_index + i));
  }
  return Status::OK();
}

Status Phase1Builder::Add(std::span<const double> x, double weight) {
  return AddBatch(x, 1, std::span<const double>(&weight, 1));
}

Status Phase1Builder::AddBatch(std::span<const double> xs, size_t n,
                               std::span<const double> weights) {
  if (finished_) {
    return Status::FailedPrecondition(
        "AddBatch() after Finish(): create a new builder to ingest more "
        "data");
  }
  BIRCH_RETURN_IF_ERROR(
      ValidateBatch(xs, n, options_.tree.dim, weights, stats_.points_added));
  return Ingest(xs, n, weights);
}

Status Phase1Builder::Ingest(std::span<const double> xs, size_t n,
                             std::span<const double> weights) {
  const size_t dim = options_.tree.dim;
  for (size_t i = 0; i < n; ++i) {
    ++stats_.points_added;
    point_cf_.AssignPoint(xs.subspan(i * dim, dim),
                          weights.empty() ? 1.0 : weights[i]);
    Status st = IngestPointCf();
    if (!st.ok()) {
      OBS_COUNTER_ADD("phase1/points", static_cast<double>(i + 1));
      return st;
    }
  }
  OBS_COUNTER_ADD("phase1/points", static_cast<double>(n));
  return Status::OK();
}

Status Phase1Builder::IngestPointCf() {
  const CfVector& ent = point_cf_;

  if (delay_mode_) {
    // Memory is exhausted: keep absorbing what fits, spill the rest.
    InsertOutcome out = tree_->InsertEntry(ent, InsertMode::kNoSplit);
    if (out != InsertOutcome::kRejected) return Status::OK();
    auto spilled_or = Spill(&delayed_points_, ent);
    if (!spilled_or.ok()) return spilled_or.status();
    if (spilled_or.value() == SpillOutcome::kStored) {
      ++stats_.points_delay_spilled;
      OBS_COUNTER_INC("phase1/delay_spills");
      return Status::OK();
    }
    // The disk is broken (Spill() retired it) or full; either way delay
    // mode ends. A full disk first rebuilds with a larger threshold and
    // replays the spilled points. Then this point goes in normally.
    delay_mode_ = false;
    if (spilled_or.value() == SpillOutcome::kFull) {
      BIRCH_RETURN_IF_ERROR(RebuildLarger());
      BIRCH_RETURN_IF_ERROR(ReplayDelayedPoints(/*note_loss=*/true));
    }
  }

  tree_->InsertEntry(ent);
  if (tree_->over_budget()) return HandleMemoryExhaustion();
  return Status::OK();
}

Status Phase1Builder::AddDataset(const Dataset& data) {
  // Zero-copy: the dataset is already row-major with the lazy weight
  // convention AddBatch speaks.
  return AddBatch(data.Values(), data.size(), data.Weights());
}

Status Phase1Builder::HandleMemoryExhaustion() {
  if (options_.delay_split && disk_enabled_ && !delay_mode_) {
    // Delay-split option (Sec. 5.1.4): postpone the rebuild; absorb
    // what fits and spill split-forcing points to disk instead. With
    // the disk out of service there is nowhere to spill — rebuild.
    delay_mode_ = true;
    TRACE_INSTANT("phase1/delay_split_on");
    return Status::OK();
  }
  return RebuildLarger();
}

Status Phase1Builder::RebuildLarger() {
  TRACE_SPAN("phase1/rebuild");
  Timer rebuild_timer;
  BIRCH_RETURN_IF_ERROR(RebuildToFit(
      tree_.get(), &heuristic_, options_, &stats_,
      [this](std::vector<CfVector>& outliers) {
        OBS_GAUGE_SET("phase1/threshold", stats_.final_threshold);
        TRACE_COUNTER("phase1/threshold", stats_.final_threshold);
        for (const CfVector& e : outliers) {
          BIRCH_RETURN_IF_ERROR(SpillOutlierEntry(e, /*respill=*/false));
        }
        return Status::OK();
      }));
  OBS_HISTOGRAM_RECORD("phase1/rebuild_us", rebuild_timer.Seconds() * 1e6);
  return Status::OK();
}

Status Phase1Builder::SpillOutlierEntry(const CfVector& e, bool respill) {
  // A fresh spill that finds the disk full drains it through a re-absorb
  // cycle (Fig. 2's "out of disk space" branch) and retries once. A
  // re-spill from inside that cycle, or a retry that still finds the
  // disk full (delayed points may hold it), forces the entry back into
  // the tree so progress is guaranteed.
  for (bool may_drain = !respill;; may_drain = false) {
    // The disk may be out of service from the start, or retired by the
    // re-absorb drain.
    if (!disk_enabled_) {
      FallbackOutlierEntry(e);
      return Status::OK();
    }
    auto spilled_or = Spill(&outlier_entries_, e);
    if (!spilled_or.ok()) return spilled_or.status();
    switch (spilled_or.value()) {
      case SpillOutcome::kStored:
        if (!respill) {
          ++stats_.outlier_entries_spilled;
          OBS_COUNTER_INC("phase1/outlier_spills");
        }
        return Status::OK();
      case SpillOutcome::kBroken:
        FallbackOutlierEntry(e);
        return Status::OK();
      case SpillOutcome::kFull:
        break;
    }
    if (!may_drain) {
      ++stats_.forced_inserts;
      OBS_COUNTER_INC("phase1/forced_inserts");
      tree_->InsertEntry(e);
      return Status::OK();
    }
    BIRCH_RETURN_IF_ERROR(ReabsorbOutliers(/*final_pass=*/false));
  }
}

Status Phase1Builder::ReabsorbOutliers(bool final_pass) {
  if (outlier_entries_.empty()) return Status::OK();
  TRACE_SPAN("phase1/reabsorb");
  ++stats_.reabsorb_cycles;
  OBS_COUNTER_INC("phase1/reabsorb_cycles");
  return Drain(&outlier_entries_, /*note_loss=*/true, [&](CfVector e) {
    if (ReabsorbEntry(tree_.get(), e, &stats_)) return Status::OK();
    if (final_pass) {
      final_outliers_.push_back(std::move(e));
      return Status::OK();
    }
    if (!disk_enabled_) {
      // Disk retired mid-cycle: the entry has no spill to return to.
      final_outliers_.push_back(std::move(e));
      ++robust_.fallback_dropped;
      return Status::OK();
    }
    return SpillOutlierEntry(e, /*respill=*/true);
  });
}

Status Phase1Builder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("Finish() called twice");
  }
  TRACE_SPAN("phase1/finish");
  finished_ = true;
  delay_mode_ = false;

  // Replay delay-split points with splits allowed.
  BIRCH_RETURN_IF_ERROR(ReplayDelayedPoints(/*note_loss=*/true));

  // Final outlier verdicts.
  BIRCH_RETURN_IF_ERROR(ReabsorbOutliers(/*final_pass=*/true));
  stats_.final_threshold = tree_->threshold();
  return Status::OK();
}

}  // namespace birch
