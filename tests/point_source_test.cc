// Streaming-source tests: DatasetSource, CsvPointSource and
// StreamingGenerator must all deliver the right points, rewind
// correctly, and drive the out-of-core ClusterSource pipeline to the
// same answer as the in-memory path — bit for bit after Phase 4.
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "birch/birch.h"
#include "birch/dataset_io.h"
#include "birch/point_source.h"
#include "datagen/streaming_generator.h"
#include "eval/quality.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace birch {
namespace {

/// A temp CSV path unique to this process: the plain and .san builds of
/// this suite run concurrently under ctest.
std::string TempCsv(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".csv";
}

TEST(DatasetSourceTest, StreamsAllRowsAndRewinds) {
  Dataset data(2);
  std::vector<double> a = {1, 2}, b = {3, 4};
  data.Append(a);
  data.AppendWeighted(b, 2.5);
  DatasetSource source(&data);
  EXPECT_EQ(source.dim(), 2u);
  EXPECT_EQ(source.SizeHint(), 2u);

  std::vector<double> p(2);
  double w = 0;
  ASSERT_TRUE(source.Next(p, &w));
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(w, 1.0);
  ASSERT_TRUE(source.Next(p, &w));
  EXPECT_EQ(p[1], 4.0);
  EXPECT_EQ(w, 2.5);
  EXPECT_FALSE(source.Next(p, &w));

  ASSERT_TRUE(source.Rewind().ok());
  ASSERT_TRUE(source.Next(p, &w));
  EXPECT_EQ(p[0], 1.0);
}

TEST(CsvPointSourceTest, StreamsFileWithHeader) {
  std::string path = TempCsv("birch_stream");
  {
    std::ofstream f(path);
    f << "x,y\n# comment\n1,2\n\n3,4\n5,6\n";
  }
  auto source_or = CsvPointSource::Open(path);
  ASSERT_TRUE(source_or.ok()) << source_or.status().ToString();
  auto& source = source_or.value();
  EXPECT_EQ(source->dim(), 2u);

  std::vector<double> p(2);
  double w = 0;
  int count = 0;
  double sum = 0;
  while (source->Next(p, &w)) {
    ++count;
    sum += p[0] + p[1];
  }
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(sum, 21.0);
  EXPECT_TRUE(source->status().ok()) << source->status().ToString();

  ASSERT_TRUE(source->Rewind().ok());
  count = 0;
  while (source->Next(p, &w)) ++count;
  EXPECT_EQ(count, 3);
  std::remove(path.c_str());
}

TEST(CsvPointSourceTest, OpenFailsOnMissingOrEmpty) {
  EXPECT_FALSE(CsvPointSource::Open("/no/such/file.csv").ok());
  std::string path = TempCsv("birch_empty");
  {
    std::ofstream f(path);
    f << "# nothing here\n";
  }
  EXPECT_FALSE(CsvPointSource::Open(path).ok());
  std::remove(path.c_str());
}

TEST(StreamingGeneratorTest, MatchesRequestedCounts) {
  GeneratorOptions o;
  o.k = 10;
  o.n_low = o.n_high = 500;
  o.noise_fraction = 0.10;
  o.seed = 41;
  auto gen_or = StreamingGenerator::Create(o);
  ASSERT_TRUE(gen_or.ok());
  auto& gen = gen_or.value();

  std::vector<double> p(2);
  double w = 0;
  std::vector<int> counts(10, 0);
  int noise = 0;
  uint64_t total = 0;
  while (gen->Next(p, &w)) {
    ++total;
    if (gen->last_truth() < 0) {
      ++noise;
    } else {
      ++counts[static_cast<size_t>(gen->last_truth())];
    }
  }
  EXPECT_EQ(total, gen->total_points());
  for (int c : counts) EXPECT_EQ(c, 500);
  EXPECT_NEAR(static_cast<double>(noise) / static_cast<double>(total),
              0.10, 0.01);
}

TEST(StreamingGeneratorTest, RandomizedInterleavesClusters) {
  GeneratorOptions o;
  o.k = 5;
  o.n_low = o.n_high = 200;
  o.seed = 42;
  auto gen = StreamingGenerator::Create(o);
  ASSERT_TRUE(gen.ok());
  std::vector<double> p(2);
  double w;
  int changes = 0, prev = -2, total = 0;
  while (gen.value()->Next(p, &w)) {
    ++total;
    if (gen.value()->last_truth() != prev) ++changes;
    prev = gen.value()->last_truth();
  }
  EXPECT_GT(changes, total / 3);
}

TEST(StreamingGeneratorTest, OrderedEmitsContiguously) {
  GeneratorOptions o;
  o.k = 5;
  o.n_low = o.n_high = 100;
  o.order = InputOrder::kOrdered;
  o.seed = 43;
  auto gen = StreamingGenerator::Create(o);
  ASSERT_TRUE(gen.ok());
  std::vector<double> p(2);
  double w;
  int prev = 0;
  while (gen.value()->Next(p, &w)) {
    int t = gen.value()->last_truth();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(StreamingGeneratorTest, RewindReproducesStream) {
  GeneratorOptions o;
  o.k = 3;
  o.n_low = o.n_high = 100;
  o.seed = 44;
  auto gen = StreamingGenerator::Create(o);
  ASSERT_TRUE(gen.ok());
  std::vector<double> p(2);
  double w;
  std::vector<double> first;
  while (gen.value()->Next(p, &w)) first.insert(first.end(), p.begin(),
                                                p.end());
  ASSERT_TRUE(gen.value()->Rewind().ok());
  std::vector<double> second;
  while (gen.value()->Next(p, &w)) second.insert(second.end(), p.begin(),
                                                 p.end());
  EXPECT_EQ(first, second);
}

TEST(ClusterSourceTest, OutOfCoreMatchesInMemoryQuality) {
  GeneratorOptions o;
  o.k = 16;
  o.n_low = o.n_high = 1000;
  o.r_low = o.r_high = 1.0;
  o.grid_spacing = 10.0;
  o.seed = 45;

  // In-memory path.
  auto gen = Generate(o);
  ASSERT_TRUE(gen.ok());
  BirchOptions b;
  b.dim = 2;
  b.k = 16;
  b.resources.memory_bytes = 24 * 1024;
  auto mem_result = ClusterDataset(gen.value().data, b);
  ASSERT_TRUE(mem_result.ok());

  // Streaming path (same distribution, independent draw).
  auto source = StreamingGenerator::Create(o);
  ASSERT_TRUE(source.ok());
  auto stream_result = ClusterSource(source.value().get(), b);
  ASSERT_TRUE(stream_result.ok()) << stream_result.status().ToString();

  EXPECT_EQ(stream_result.value().clusters.size(), 16u);
  double d_mem = WeightedAverageDiameter(mem_result.value().clusters);
  double d_stream = WeightedAverageDiameter(stream_result.value().clusters);
  EXPECT_NEAR(d_mem, d_stream, 0.15 * std::max(d_mem, d_stream));
  // All points land in clusters.
  double total = 0;
  for (const auto& c : stream_result.value().clusters) total += c.n();
  EXPECT_NEAR(total, static_cast<double>(source.value()->total_points()),
              1e-6);
  // Labels are intentionally absent in the out-of-core path.
  EXPECT_TRUE(stream_result.value().labels.empty());
}

/// Every double of every CF, as raw bits.
std::vector<uint64_t> CfBits(const std::vector<CfVector>& cfs) {
  std::vector<uint64_t> bits;
  std::vector<double> buf;
  for (const CfVector& cf : cfs) {
    buf.clear();
    cf.SerializeTo(&buf);
    for (double v : buf) bits.push_back(std::bit_cast<uint64_t>(v));
  }
  return bits;
}

/// Writes `data` to `path` as "%.17g" rows, which read back bit for bit.
void WriteCsv(const Dataset& data, const std::string& path) {
  std::ofstream f(path);
  char field[32];
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t j = 0; j < data.dim(); ++j) {
      std::snprintf(field, sizeof(field), "%.17g", data.Row(i)[j]);
      f << (j == 0 ? "" : ",") << field;
    }
    f << "\n";
  }
}

TEST(ClusterSourceTest, StreamingRefineMatchesInMemoryBitwise) {
  // The streaming Phase 4 (a source re-scan, its blocks labelled on the
  // run's pool) and the in-memory one (RefineClusters over the Dataset)
  // share one assignment routine and fold rows in row order, so on the
  // same rows they produce the same cluster CFs at each thread count,
  // whether the rows come from a Dataset or from a CSV of them.
  for (size_t dim : {2, 16}) {
    GeneratorOptions g;
    g.dim = dim;
    g.k = 8;
    g.n_low = g.n_high = 300;
    g.r_low = g.r_high = 1.0;
    g.grid_spacing = 10.0;
    g.seed = 46;
    auto gen = Generate(g);
    ASSERT_TRUE(gen.ok());
    const Dataset& data = gen.value().data;
    const std::string csv = TempCsv("birch_refine_rows");
    WriteCsv(data, csv);
    auto csv_data = ReadCsvPoints(csv);
    ASSERT_TRUE(csv_data.ok()) << csv_data.status().ToString();
    for (int threads : {0, 3}) {
      for (int passes : {1, 2}) {
        SCOPED_TRACE(testing::Message()
                     << "dim=" << dim << " threads=" << threads
                     << " passes=" << passes);
        BirchOptions b;
        b.dim = dim;
        b.k = 8;
        b.resources.memory_bytes = 24 * 1024;
        b.refine.passes = passes;
        b.exec.num_threads = threads;
        // A CSV source gives no size hint; the Phase-1 threshold
        // heuristic must see the same count on every path.
        b.expected_points = data.size();
        auto in_memory = ClusterDataset(data, b);
        ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
        const std::vector<uint64_t> want = CfBits(in_memory.value().clusters);
        EXPECT_FALSE(in_memory.value().clusters.empty());

        auto csv_in_memory = ClusterDataset(csv_data.value(), b);
        ASSERT_TRUE(csv_in_memory.ok())
            << csv_in_memory.status().ToString();
        EXPECT_EQ(CfBits(csv_in_memory.value().clusters), want);

        DatasetSource source(&data);
        auto streamed = ClusterSource(&source, b);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        EXPECT_EQ(CfBits(streamed.value().clusters), want);

        auto csv_source = CsvPointSource::Open(csv);
        ASSERT_TRUE(csv_source.ok()) << csv_source.status().ToString();
        auto csv_streamed = ClusterSource(csv_source.value().get(), b);
        ASSERT_TRUE(csv_streamed.ok()) << csv_streamed.status().ToString();
        EXPECT_EQ(CfBits(csv_streamed.value().clusters), want);
      }
    }
    std::remove(csv.c_str());
  }
}

// The sharded Phase-1 scan decodes a CSV's blocks on the run's pool and
// deals their rows in file order, so over a file of many blocks it
// builds the trees a DatasetSource of the same rows builds, at every
// thread count.
TEST(ClusterSourceTest, ShardedCsvScanMatchesDatasetSourceBitwise) {
  GeneratorOptions g;
  g.k = 8;
  g.n_low = g.n_high = 5000;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 10.0;
  g.seed = 48;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  const Dataset& data = gen.value().data;
  const std::string csv = TempCsv("birch_sharded_scan");
  WriteCsv(data, csv);
  struct stat st {};
  ASSERT_EQ(::stat(csv.c_str(), &st), 0);
  ASSERT_GE(static_cast<size_t>(st.st_size), 4 * PointSource::kBlockBytes);
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    BirchOptions b;
    b.dim = 2;
    b.k = 8;
    b.resources.memory_bytes = 24 * 1024;
    b.exec.num_threads = threads;
    b.expected_points = data.size();
    // The run's clusters, and the leaf entries of the tree it kept.
    auto run = [&b](PointSource* source, std::vector<CfVector>* leaves)
        -> StatusOr<std::vector<CfVector>> {
      auto c = BirchClusterer::Create(b);
      if (!c.ok()) return c.status();
      auto r = c.value()->Cluster(source);
      if (!r.ok()) return r.status();
      c.value()->tree().CollectLeafEntries(leaves);
      return std::move(r.value().clusters);
    };
    DatasetSource rows(&data);
    std::vector<CfVector> want_leaves;
    auto want = run(&rows, &want_leaves);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_FALSE(want_leaves.empty());

    auto file = CsvPointSource::Open(csv);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    std::vector<CfVector> got_leaves;
    auto got = run(file.value().get(), &got_leaves);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(CfBits(got.value()), CfBits(want.value()));
    EXPECT_EQ(CfBits(got_leaves), CfBits(want_leaves));
  }
  std::remove(csv.c_str());
}

/// Blocks of 64 rows, numbered from 1 in each scan of the stream (a
/// Rewind() starts the next scan). In scan `failing_scan`, blocks 5 and
/// 7 fail to decode; with `pooled`, block 5 fails only after block 7
/// has (or after 2 s).
class FailingDecode : public DatasetSource {
 public:
  FailingDecode(const Dataset* data, int failing_scan, bool pooled)
      : DatasetSource(data), failing_scan_(failing_scan), pooled_(pooled) {}
  Status Rewind() override {
    ++scan_;
    blocks_ = 0;
    return DatasetSource::Rewind();
  }
  bool ReadBlock(PointBlock* block) override {
    const size_t d = dim();
    block->values.assign(64 * d, 0.0);
    block->weights.assign(64, 0.0);
    size_t n = 0;
    while (n < 64 &&
           Next(std::span<double>(block->values).subspan(n * d, d),
                &block->weights[n])) {
      ++n;
    }
    block->values.resize(n * d);
    block->weights.resize(n);
    block->first_line = scan_ == failing_scan_ ? ++blocks_ : 0;
    return n > 0;
  }
  Status DecodeBlock(PointBlock* block) const override {
    if (block->first_line == 7) {
      seven_failed_.store(true);
      return Status::DataLoss("block 7 is bad");
    }
    if (block->first_line == 5) {
      for (int ms = 0; pooled_ && ms < 2000 && !seven_failed_.load(); ++ms) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::DataLoss("block 5 is bad");
    }
    return Status::OK();
  }

 private:
  const int failing_scan_;
  const bool pooled_;
  int scan_ = 0;
  uint64_t blocks_ = 0;
  mutable std::atomic<bool> seven_failed_{false};
};

Dataset FailingDecodeData() {
  GeneratorOptions g;
  g.k = 4;
  g.n_low = g.n_high = 250;
  g.seed = 50;
  auto gen = Generate(g);
  EXPECT_TRUE(gen.ok());
  return std::move(gen.value().data);
}

// A block that fails to decode fails the re-scan with its status,
// serial and pooled. With two bad blocks the earlier one in stream
// order gives the status, even when the later one fails first.
TEST(ClusterSourceTest, FailedDecodeFailsTheRescan) {
  const Dataset data = FailingDecodeData();
  for (int threads : {0, 3}) {
    FailingDecode source(&data, /*failing_scan=*/1, threads > 0);
    BirchOptions b;
    b.k = 4;
    b.exec.num_threads = threads;
    auto result = ClusterSource(&source, b);
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "threads=" << threads << ": " << result.status().ToString();
    EXPECT_EQ(result.status().message(), "block 5 is bad")
        << "threads=" << threads;
  }
}

// The sharded Phase-1 scan reads the same blocks: the earlier bad block
// fails the run even when the later one fails first, and the run ends.
// (Two workers keep four blocks in flight, so block 7 is read while
// block 5 waits for it.)
TEST(ClusterSourceTest, FailedDecodeFailsTheShardedScan) {
  const Dataset data = FailingDecodeData();
  for (int threads : {2, 3}) {
    FailingDecode source(&data, /*failing_scan=*/0, /*pooled=*/true);
    BirchOptions b;
    b.k = 4;
    b.exec.num_threads = threads;
    auto result = ClusterSource(&source, b);
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
        << "threads=" << threads << ": " << result.status().ToString();
    EXPECT_EQ(result.status().message(), "block 5 is bad")
        << "threads=" << threads;
  }
}

// ClusterSource's Phase 4 belongs to its run: the process-wide
// registry-plus-tracer delta around the call holds exactly one
// birch/phase4 span, and the run's own metrics delta holds that span.
TEST(ClusterSourceTest, Phase4SpanIsPartOfTheRunMetrics) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs disabled";
  GeneratorOptions g;
  g.k = 5;
  g.n_low = g.n_high = 200;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 10.0;
  g.seed = 47;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  BirchOptions b;
  b.k = 5;
  b.resources.memory_bytes = 24 * 1024;
  DatasetSource source(&gen.value().data);

  const obs::MetricsSnapshot before = obs::CaptureSnapshot();
  auto r = ClusterSource(&source, b);
  const obs::MetricsSnapshot delta = obs::CaptureSnapshot().DeltaSince(before);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  auto process = delta.spans.find("birch/phase4");
  ASSERT_NE(process, delta.spans.end());
  EXPECT_EQ(process->second.count, 1u);
  const auto& run_spans = r.value().metrics.spans;
  auto run = run_spans.find("birch/phase4");
  ASSERT_NE(run, run_spans.end());
  EXPECT_EQ(run->second.count, 1u);
  EXPECT_EQ(run->second.total_us, process->second.total_us);
}

TEST(ClusterSourceTest, NonRewindableSkipsRefinement) {
  /// A one-shot source: Rewind unsupported.
  class OneShot : public PointSource {
   public:
    size_t dim() const override { return 1; }
    bool Next(std::span<double> out, double* w) override {
      if (i_ >= 100) return false;
      out[0] = (i_ % 2 == 0) ? 0.0 : 10.0;
      out[0] += 0.001 * static_cast<double>(i_);
      *w = 1.0;
      ++i_;
      return true;
    }

   private:
    int i_ = 0;
  };
  OneShot source;
  BirchOptions b;
  b.dim = 1;
  b.k = 2;
  b.refine.passes = 3;
  auto result = ClusterSource(&source, b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters.size(), 2u);
  // No refinement scan happened (the timing is just the skipped-branch
  // epsilon, far below any real pass over 100 points).
  EXPECT_LT(result.value().timings.phase4, 1e-4);
}

// A pipe cannot be re-read: ClusterSource over one runs Phases 1-3 and
// skips Phase 4, so its clusters are those of the same rows from a
// regular file with no refinement, serial and sharded.
TEST(ClusterSourceTest, PipeSkipsRefinement) {
  GeneratorOptions g;
  g.k = 5;
  g.n_low = g.n_high = 400;
  g.r_low = g.r_high = 1.0;
  g.grid_spacing = 10.0;
  g.seed = 49;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  const Dataset& data = gen.value().data;
  std::string csv;
  char line[64];
  for (size_t i = 0; i < data.size(); ++i) {
    std::snprintf(line, sizeof(line), "%.17g,%.17g\n", data.Row(i)[0],
                  data.Row(i)[1]);
    csv += line;
  }
  const std::string file = TempCsv("birch_pipe_rows");
  {
    std::ofstream f(file);
    f << csv;
  }
  for (int threads : {0, 3}) {
    BirchOptions b;
    b.k = 5;
    b.resources.memory_bytes = 24 * 1024;
    b.exec.num_threads = threads;
    BirchOptions no_refine = b;
    no_refine.refine.passes = 0;
    auto file_source = CsvPointSource::Open(file);
    ASSERT_TRUE(file_source.ok()) << file_source.status().ToString();
    auto want = ClusterSource(file_source.value().get(), no_refine);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    const std::string fifo = TempCsv("birch_pipe");
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    std::thread writer([&fifo, &csv] {
      std::ofstream f(fifo);  // blocks until the reader opens the pipe
      f << csv;
    });
    auto pipe_source = CsvPointSource::Open(fifo);
    auto got = pipe_source.ok()
                   ? ClusterSource(pipe_source.value().get(), b)
                   : StatusOr<BirchResult>(pipe_source.status());
    writer.join();
    std::remove(fifo.c_str());
    ASSERT_TRUE(got.ok()) << "threads=" << threads << ": "
                          << got.status().ToString();
    EXPECT_FALSE(got.value().clusters.empty());
    EXPECT_EQ(CfBits(got.value().clusters), CfBits(want.value().clusters))
        << "threads=" << threads;
  }
  std::remove(file.c_str());
}

// A source that rewinds but fails doing so fails the run: only
// FailedPrecondition, a source that cannot rewind at all, skips
// Phase 4.
TEST(ClusterSourceTest, FailingRewindFailsTheRun) {
  class BrokenRewind : public DatasetSource {
   public:
    using DatasetSource::DatasetSource;
    Status Rewind() override { return Status::IOError("disk went away"); }
  };
  GeneratorOptions g;
  g.k = 3;
  g.n_low = g.n_high = 100;
  g.seed = 48;
  auto gen = Generate(g);
  ASSERT_TRUE(gen.ok());
  BrokenRewind source(&gen.value().data);
  BirchOptions b;
  b.k = 3;
  auto result = ClusterSource(&source, b);
  EXPECT_EQ(result.status().code(), StatusCode::kIOError)
      << result.status().ToString();
}

}  // namespace
}  // namespace birch
