// Integration tests: the live multi-threaded NodeRuntime end-to-end on the
// three real applications, checked against brute-force sequential
// reference results.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>

#include "apps/bioinformatics.hpp"
#include "apps/forensics.hpp"
#include "apps/microscopy.hpp"
#include "read_overlap_store.hpp"
#include "runtime/node_runtime.hpp"

namespace rocket::runtime {
namespace {

using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;

/// Sequential reference: run the pipeline naively for each pair.
ResultMap brute_force(const Application& app, storage::ObjectStore& store) {
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  std::vector<gpu::DeviceBuffer> items;
  for (ItemId i = 0; i < app.item_count(); ++i) {
    HostBuffer parsed;
    app.parse(i, store.read(app.file_name(i)), parsed);
    auto buffer = device.allocate(app.slot_size());
    std::copy(parsed.begin(), parsed.end(), buffer.data());
    app.preprocess(i, buffer);
    items.push_back(std::move(buffer));
  }
  ResultMap results;
  for (ItemId i = 0; i < app.item_count(); ++i) {
    for (ItemId j = i + 1; j < app.item_count(); ++j) {
      results[{i, j}] =
          app.postprocess(i, j, app.compare(i, items[i], j, items[j]));
    }
  }
  return results;
}

ResultMap collect(NodeRuntime& runtime, const Application& app,
                  storage::ObjectStore& store, NodeRuntime::Report* report) {
  ResultMap results;
  std::mutex mutex;
  auto rep = runtime.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    results[{r.left, r.right}] = r.score;
  });
  if (report != nullptr) *report = rep;
  return results;
}

TEST(NodeRuntime, ForensicsMatchesBruteForce) {
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 3;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 4;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = brute_force(app, store);

  NodeRuntime::Config rt;
  rt.devices = {gpu::titanx_maxwell()};
  rt.host_cache_capacity = 8_MiB;
  rt.cpu_threads = 2;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  const ResultMap actual = collect(runtime, app, store, &report);

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : expected) {
    const auto it = actual.find(pair);
    ASSERT_NE(it, actual.end());
    EXPECT_NEAR(it->second, score, 1e-9)
        << "pair (" << pair.first << "," << pair.second << ")";
  }
  EXPECT_EQ(report.pairs, expected.size());
  EXPECT_GE(report.loads, app.item_count());
  EXPECT_GE(report.reuse_factor, 1.0);
}

TEST(NodeRuntime, MicroscopyMatchesBruteForce) {
  storage::MemoryStore store;
  apps::MicroscopyConfig cfg;
  cfg.particles = 6;
  cfg.binding_sites = 12;
  cfg.localizations_per_site_min = 4;
  cfg.localizations_per_site_max = 8;
  cfg.seed = 2;
  apps::MicroscopyDataset dataset(cfg, store);
  apps::MicroscopyApplication app(dataset);

  const ResultMap expected = brute_force(app, store);
  NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 4_MiB;
  NodeRuntime runtime(rt);
  const ResultMap actual = collect(runtime, app, store, nullptr);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : expected) {
    EXPECT_NEAR(actual.at(pair), score, 1e-9);
  }
}

TEST(NodeRuntime, BioinformaticsMatchesBruteForce) {
  storage::MemoryStore store;
  apps::BioinformaticsConfig cfg;
  cfg.species = 8;
  cfg.proteins = 10;
  cfg.protein_len_min = 60;
  cfg.protein_len_max = 120;
  cfg.seed = 3;
  apps::BioinformaticsDataset dataset(cfg, store);
  apps::BioinformaticsApplication app(dataset);

  const ResultMap expected = brute_force(app, store);
  NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 64_MiB;
  NodeRuntime runtime(rt);
  const ResultMap actual = collect(runtime, app, store, nullptr);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : expected) {
    EXPECT_NEAR(actual.at(pair), score, 1e-9);
  }
}

TEST(NodeRuntime, ShardedCacheMatchesSingleLockPolicy) {
  // shards=1 is the historical single-lock policy; shards=8 runs the
  // sharded caches with their lock-free fast path. Result maps must be
  // identical, and with an ample cache both load each item exactly once.
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 4;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 17;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  NodeRuntime::Config base;
  base.devices = {gpu::titanx_maxwell()};
  base.host_cache_capacity = 16_MiB;
  base.cpu_threads = 4;
  // 12 device slots at 2 jobs in flight shard the device cache 3 ways
  // (the deadlock-freedom clamp allows slots / (2*jobs) shards); in-flight
  // jobs overlap on shared items, which is what drives the fast path.
  base.job_limit_per_worker = 2;

  NodeRuntime::Config single_cfg = base;
  single_cfg.cache_shards = 1;
  NodeRuntime single_rt(single_cfg);
  NodeRuntime::Report single_report;
  const ResultMap single_results =
      collect(single_rt, app, store, &single_report);

  NodeRuntime::Config sharded_cfg = base;
  sharded_cfg.cache_shards = 8;
  NodeRuntime sharded_rt(sharded_cfg);
  NodeRuntime::Report sharded_report;
  const ResultMap sharded_results =
      collect(sharded_rt, app, store, &sharded_report);

  ASSERT_EQ(single_results.size(), sharded_results.size());
  for (const auto& [pair, score] : single_results) {
    const auto it = sharded_results.find(pair);
    ASSERT_NE(it, sharded_results.end());
    EXPECT_EQ(it->second, score)
        << "pair (" << pair.first << "," << pair.second << ")";
  }
  EXPECT_EQ(single_report.loads, app.item_count());
  EXPECT_EQ(sharded_report.loads, app.item_count());
  EXPECT_EQ(single_report.cache_fast_hits, 0u);
  // Every item stays resident and repeatedly re-pinned: the sharded run
  // must actually exercise the lock-free path.
  EXPECT_GT(sharded_report.cache_fast_hits, 0u);
}

TEST(NodeRuntime, ModeEquivalenceAcrossPrefetchTilingAndSharding) {
  // The full execution-mode matrix must be observationally identical:
  // every cell of prefetch {0, 4} x cache_shards {1, 8} runs leaves as
  // tile jobs and produces exactly the serial reference's results.
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 4;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 23;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  NodeRuntime::Config base;
  base.devices = {gpu::titanx_maxwell()};
  base.host_cache_capacity = 16_MiB;
  base.cpu_threads = 4;
  base.job_limit_per_worker = 2;

  const ResultMap reference = brute_force(app, store);
  for (const std::uint32_t prefetch : {0u, 4u}) {
    for (const std::uint32_t shards : {1u, 8u}) {
      SCOPED_TRACE("prefetch=" + std::to_string(prefetch) +
                   " shards=" + std::to_string(shards));
      NodeRuntime::Config rt_cfg = base;
      rt_cfg.prefetch_tiles = prefetch;
      rt_cfg.cache_shards = shards;
      NodeRuntime runtime(rt_cfg);
      NodeRuntime::Report report;
      const ResultMap results = collect(runtime, app, store, &report);
      ASSERT_EQ(results.size(), reference.size());
      for (const auto& [pair, score] : reference) {
        const auto it = results.find(pair);
        ASSERT_NE(it, results.end());
        EXPECT_EQ(it->second, score)
            << "pair (" << pair.first << "," << pair.second << ")";
      }
      // Ample cache: every mode loads each item exactly once, prefetch
      // or not — the window changes *when* loads start, never how many.
      EXPECT_EQ(report.loads, app.item_count());
      EXPECT_GT(report.tiles, 0u);
      if (prefetch == 0) {
        EXPECT_EQ(report.prefetch_hits, 0u);
      }
    }
  }
}

TEST(NodeRuntime, PrefetchCorrectUnderEvictionPressure) {
  // A small sharded device cache under an active look-ahead window: the
  // clamped combined budget must keep batched pinning deadlock-free and
  // the results exact. job_limit 1 + window 6 means every resolved tile
  // beyond the single compute slot waited on the gate at least while a
  // predecessor computed.
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 4;
  cfg.images_per_camera = 5;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 31;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = brute_force(app, store);

  NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 0;
  rt.device_cache_capacity = 16 * app.slot_size();
  rt.job_limit_per_worker = 1;
  rt.prefetch_tiles = 6;
  rt.max_leaf_pairs = 16;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  const ResultMap actual = collect(runtime, app, store, &report);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : expected) {
    EXPECT_NEAR(actual.at(pair), score, 1e-9);
  }
  // The window was active: some tiles resolved while the one compute
  // slot was occupied.
  EXPECT_GT(report.prefetch_hits, 0u);
  ASSERT_EQ(report.device_stall_seconds.size(), 1u);
  ASSERT_EQ(report.device_busy_seconds.size(), 1u);
  EXPECT_GE(report.device_busy_seconds[0], 0.0);
}

/// Degenerate application: no items at all (or one item, zero pairs) —
/// the Report must come back with finite, zeroed rates, not NaN.
class EmptyApp final : public runtime::Application {
 public:
  explicit EmptyApp(std::uint32_t n) : n_(n) {}
  std::string name() const override { return "empty"; }
  std::uint32_t item_count() const override { return n_; }
  std::string file_name(ItemId item) const override {
    return "none_" + std::to_string(item);
  }
  void parse(ItemId, const ByteBuffer&, HostBuffer&) const override {}
  double compare(ItemId, const gpu::DeviceBuffer&, ItemId,
                 const gpu::DeviceBuffer&) const override {
    return 0.0;
  }
  Bytes slot_size() const override { return 64; }

 private:
  std::uint32_t n_;
};

TEST(NodeRuntime, ReuseFactorFiniteOnDegenerateRuns) {
  // Regression: zero loads / zero items must never surface NaN or inf in
  // reuse_factor (or leave stall accounting unsized). Exercise n = 0
  // (nothing exists) and n = 1 (an item but no pair — the store is empty,
  // and no load may even start).
  for (const std::uint32_t n : {0u, 1u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EmptyApp app(n);
    storage::MemoryStore store;  // deliberately empty
    NodeRuntime::Config rt;
    rt.cpu_threads = 1;
    NodeRuntime runtime(rt);
    NodeRuntime::Report report;
    const ResultMap results = collect(runtime, app, store, &report);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(report.pairs, 0u);
    EXPECT_EQ(report.loads, 0u);
    EXPECT_TRUE(std::isfinite(report.reuse_factor));
    EXPECT_EQ(report.reuse_factor, 0.0);
    ASSERT_EQ(report.device_stall_seconds.size(), 1u);
    EXPECT_TRUE(std::isfinite(report.device_stall_seconds[0]));
  }
}

TEST(NodeRuntime, MultiDeviceSharesWork) {
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 4;
  cfg.images_per_camera = 4;
  cfg.width = 64;
  cfg.height = 48;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  NodeRuntime::Config rt;
  rt.devices = {gpu::rtx2080ti(), gpu::rtx2080ti()};
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 16_MiB;
  rt.emulate_heterogeneity = false;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  const ResultMap results = collect(runtime, app, store, &report);
  EXPECT_EQ(results.size(), 16u * 15 / 2);
  ASSERT_EQ(report.pairs_per_device.size(), 2u);
  EXPECT_EQ(report.pairs_per_device[0] + report.pairs_per_device[1],
            results.size());
  EXPECT_GT(report.pairs_per_device[0], 0u);
  EXPECT_GT(report.pairs_per_device[1], 0u);
}

TEST(NodeRuntime, TinyCacheStillCorrect) {
  // Device cache squeezed to the minimum (2 slots = 1 job in flight):
  // maximal eviction pressure, every pair still completes correctly.
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 2;
  cfg.images_per_camera = 4;
  cfg.width = 64;
  cfg.height = 48;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = brute_force(app, store);

  NodeRuntime::Config rt;
  rt.cpu_threads = 1;
  rt.host_cache_capacity = 0;  // host cache disabled
  rt.device_cache_capacity = 2 * app.slot_size();
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  const ResultMap actual = collect(runtime, app, store, &report);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : expected) {
    EXPECT_NEAR(actual.at(pair), score, 1e-9);
  }
  // With no host cache and a 2-slot device cache, nearly every job reloads.
  EXPECT_GT(report.reuse_factor, 2.0);
}

TEST(NodeRuntime, MissingFileFailsPairsNotRun) {
  // Failure injection: drop one input file. Pairs touching it complete
  // with NaN; everything else is still correct, and the run terminates.
  storage::MemoryStore store;
  apps::MicroscopyConfig cfg;
  cfg.particles = 5;
  cfg.binding_sites = 8;
  cfg.localizations_per_site_min = 3;
  cfg.localizations_per_site_max = 5;
  apps::MicroscopyDataset dataset(cfg, store);
  apps::MicroscopyApplication app(dataset);

  const ResultMap expected = brute_force(app, store);

  // Rebuild the store without particle 2.
  storage::MemoryStore broken;
  for (ItemId i = 0; i < 5; ++i) {
    if (i == 2) continue;
    broken.put(app.file_name(i), store.read(app.file_name(i)));
  }

  NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 1_MiB;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  const ResultMap actual = collect(runtime, app, broken, &report);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : actual) {
    if (pair.first == 2 || pair.second == 2) {
      EXPECT_TRUE(std::isnan(score)) << "pairs on the missing item fail";
    } else {
      EXPECT_NEAR(score, expected.at(pair), 1e-9);
    }
  }
  // Failed pairs still count as processed: per-device accounting sums to
  // the full pair count.
  std::uint64_t device_sum = 0;
  for (const auto p : report.pairs_per_device) device_sum += p;
  EXPECT_EQ(device_sum, report.pairs);
}

TEST(NodeRuntime, StoreReadsOverlap) {
  // One I/O lane per tile in flight: while the first read waits, another
  // lane starts a second one. With a single I/O thread the first read
  // times out alone and the peak stays 1.
  storage::MemoryStore store;
  apps::ForensicsConfig cfg;
  cfg.cameras = 3;
  cfg.images_per_camera = 4;
  cfg.width = 64;
  cfg.height = 48;
  cfg.seed = 29;
  apps::ForensicsDataset dataset(cfg, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = brute_force(app, store);

  NodeRuntime::Config rt;
  rt.host_cache_capacity = 16_MiB;
  rt.cpu_threads = 2;
  NodeRuntime runtime(rt);
  testkit::ReadOverlapStore probe(store);
  const ResultMap actual = collect(runtime, app, probe, nullptr);
  EXPECT_GE(probe.peak(), 2);
  EXPECT_EQ(actual, expected);
}

TEST(NodeRuntime, LoadLatencyTimesEveryCompletedStoreLoad) {
  // load.latency covers store loads from I/O enqueue to completion: a
  // load that fails (here, on the missing item) is not timed.
  storage::MemoryStore store;
  apps::MicroscopyConfig cfg;
  cfg.particles = 6;
  cfg.binding_sites = 8;
  cfg.localizations_per_site_min = 3;
  cfg.localizations_per_site_max = 5;
  apps::MicroscopyDataset dataset(cfg, store);
  apps::MicroscopyApplication app(dataset);
  storage::MemoryStore broken;
  for (ItemId i = 0; i < app.item_count(); ++i) {
    if (i != 3) broken.put(app.file_name(i), store.read(app.file_name(i)));
  }

  NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 1_MiB;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  collect(runtime, app, broken, &report);
  const auto* latency = report.metrics.histogram("load.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(report.failed_loads, 0u);
  EXPECT_GT(latency->count, 0u);
  EXPECT_EQ(latency->count, report.loads - report.failed_loads);
}

TEST(NodeRuntime, ProfilerTraceWhenEnabled) {
  storage::MemoryStore store;
  apps::MicroscopyConfig cfg;
  cfg.particles = 4;
  cfg.binding_sites = 6;
  cfg.localizations_per_site_min = 3;
  cfg.localizations_per_site_max = 4;
  apps::MicroscopyDataset dataset(cfg, store);
  apps::MicroscopyApplication app(dataset);

  NodeRuntime::Config rt;
  rt.cpu_threads = 1;
  rt.host_cache_capacity = 1_MiB;
  rt.trace = true;
  NodeRuntime runtime(rt);
  NodeRuntime::Report report;
  collect(runtime, app, store, &report);
  EXPECT_FALSE(report.timeline.empty());
  EXPECT_NE(report.timeline.find("legend"), std::string::npos);
  // Busy time must have been recorded on the GPU lane.
  double gpu_busy = 0;
  for (const auto& [name, busy] : report.lane_busy) {
    if (name.rfind("gpu", 0) == 0) gpu_busy += busy;
  }
  EXPECT_GT(gpu_busy, 0.0);
}

}  // namespace
}  // namespace rocket::runtime
