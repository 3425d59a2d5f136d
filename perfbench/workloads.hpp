#pragma once

// The benchmark's workloads: generated inputs, the engine each one drives
// through the public entry points (runtime::NodeRuntime::run for one node,
// mesh::LiveCluster::run_all_pairs for a mesh), and the engine counters
// the per-layer metrics are read from.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/forensics.hpp"
#include "common/rng.hpp"
#include "mesh/live_cluster.hpp"
#include "runtime/node_runtime.hpp"
#include "storage/object_store.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace rt = rocket::runtime;

enum class AppKind { kForensics, kDense };

struct WorkloadSpec {
  const char* name;
  AppKind app;
  std::uint32_t items;
  std::uint32_t nodes;              // 1 = NodeRuntime::run, else LiveCluster
  double device_cache_fraction;     // device slots as a share of n
  double host_cache_fraction;       // host slots as a share of n
  std::uint64_t store_latency_us;   // per read; 0 = unthrottled store
  bool journal;                     // write-ahead journal to a JournalSink
  std::uint32_t trace_sample_n;     // causal-span sampling in traced runs
};

/// Sizes keep one all-pairs call between about 0.4 and 1 s on a 4-core
/// box, so a 20 s run holds about twenty or more calls and reports their
/// median; cache sizes are shares of n, so each regime holds at other sizes.
inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"forensics-1node", AppKind::kForensics, 128, 1, 1.0 / 8, 1.0 / 4,
       1000, false, 16},
      {"forensics-mesh", AppKind::kForensics, 128, 2, 1.0 / 8, 1.0 / 2,
       1000, false, 16},
      {"dense-mesh", AppKind::kDense, 1024, 2, 1.0, 1.0, 0, true, 256},
  };
  return specs;
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Result-bound application: each item is a 4 KiB vector of floats and a
/// pair's score is a strided dot product of about a microsecond, so the
/// engine's per-pair cost (result delivery, dedup, journal) dominates.
class DenseApp final : public rt::Application {
 public:
  static constexpr std::size_t kFloats = 1024;
  static constexpr std::size_t kItemBytes = kFloats * sizeof(float);
  static constexpr std::size_t kStride = 2;

  DenseApp(std::uint32_t n, std::uint64_t seed,
           rocket::storage::MemoryStore& store)
      : n_(n) {
    rocket::Rng rng(rocket::mix64(seed ^ 0x64656e7365ULL));
    std::vector<float> values(kFloats);
    for (std::uint32_t i = 0; i < n_; ++i) {
      for (auto& v : values) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      rocket::ByteBuffer bytes(kItemBytes);
      std::memcpy(bytes.data(), values.data(), kItemBytes);
      store.put(file_name(i), bytes);
    }
  }

  std::string name() const override { return "dense"; }
  std::uint32_t item_count() const override { return n_; }
  std::string file_name(rt::ItemId item) const override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "dense_%05u.bin", item);
    return buf;
  }
  void parse(rt::ItemId, const rocket::ByteBuffer& file,
             rt::HostBuffer& out) const override {
    if (file.size() != kItemBytes) {
      throw std::runtime_error("dense item has the wrong size");
    }
    out.assign(file.begin(), file.end());
  }
  double compare(rt::ItemId, const rocket::gpu::DeviceBuffer& left,
                 rt::ItemId,
                 const rocket::gpu::DeviceBuffer& right) const override {
    double acc = 0.0;
    for (std::size_t k = 0; k < kFloats; k += kStride) {
      float a = 0.0f, b = 0.0f;
      std::memcpy(&a, left.data() + k * sizeof(float), sizeof(float));
      std::memcpy(&b, right.data() + k * sizeof(float), sizeof(float));
      acc += static_cast<double>(a) * static_cast<double>(b);
    }
    return acc;
  }
  rocket::Bytes slot_size() const override { return kItemBytes; }

 private:
  std::uint32_t n_;
};

/// One workload's generated inputs: the object store holding the files and
/// the application that reads them. Not movable (the app points into it).
struct Inputs {
  rocket::storage::MemoryStore store;
  std::unique_ptr<rocket::apps::ForensicsDataset> dataset;
  std::unique_ptr<rt::Application> app;
};

inline std::unique_ptr<Inputs> make_inputs(const WorkloadSpec& w,
                                           std::uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  if (w.app == AppKind::kForensics) {
    rocket::apps::ForensicsConfig fc;
    fc.cameras = 16;
    fc.images_per_camera = w.items / fc.cameras;
    fc.width = 128;
    fc.height = 96;
    fc.seed = seed;
    in->dataset =
        std::make_unique<rocket::apps::ForensicsDataset>(fc, in->store);
    in->app =
        std::make_unique<rocket::apps::ForensicsApplication>(*in->dataset);
  } else {
    in->app = std::make_unique<DenseApp>(w.items, seed, in->store);
  }
  if (in->app->item_count() != w.items) {
    throw std::logic_error("workload item count does not divide evenly");
  }
  return in;
}

/// What one engine run reports, unified over the single-node and mesh
/// report types. Mesh-only fields stay zero on one node.
struct EngineCounters {
  std::uint64_t loads = 0;       // object-store load pipelines
  std::uint64_t peer_loads = 0;  // loads served from a peer's host cache
  std::uint64_t tiles = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t acquire_retries = 0;
  std::uint64_t failed_loads = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t remote_steals = 0;
  std::uint64_t fast_hits = 0;
  rocket::cache::CacheStats host_cache;
  rocket::cache::CacheStats device_cache;  // summed over devices and nodes
  std::uint32_t devices = 0;
  double stall_s = 0.0;
  double device_busy_s = 0.0;
  rocket::telemetry::MetricsSnapshot metrics;
  // mesh only
  rocket::net::TrafficCounters traffic;
  rocket::cache::DirectoryStats directory;
  std::uint64_t peer_retries = 0;
  std::uint64_t duplicates_dropped = 0;
  rocket::telemetry::CriticalPathReport critical_path;
};

inline void add_node(EngineCounters& c, const rt::NodeRuntime::Report& r) {
  c.tiles += r.tiles;
  c.acquire_retries += r.acquire_retries;
  c.local_steals += r.steal.steals;
  for (const auto& d : r.device_caches) c.device_cache += d;
  for (const double busy : r.device_busy_seconds) c.device_busy_s += busy;
  c.devices += static_cast<std::uint32_t>(r.device_busy_seconds.size());
}

inline rt::NodeRuntime::Config node_config(const WorkloadSpec& w,
                                           rocket::Bytes slot_size) {
  rt::NodeRuntime::Config cfg;
  cfg.devices = {rocket::gpu::titanx_maxwell()};
  cfg.cpu_threads = 1;
  const auto slots = [&](double fraction) {
    return static_cast<rocket::Bytes>(fraction * w.items) * slot_size;
  };
  cfg.device_cache_capacity = slots(w.device_cache_fraction);
  cfg.host_cache_capacity = slots(w.host_cache_fraction);
  return cfg;
}

inline double process_clock_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       rocket::telemetry::process_epoch())
      .count();
}

/// The engine of one workload: built during set-up for the untraced
/// repetitions, and afresh for each traced one. `journal` is the journal
/// target (workloads with a journal only); `sample_n` > 0 arms causal-span
/// sampling, into a span log owned here on one node.
class Engine {
 public:
  Engine(const WorkloadSpec& w, const rt::Application& app,
         rocket::storage::ObjectStore* journal, std::uint32_t sample_n) {
    auto node = node_config(w, app.slot_size());
    if (w.nodes == 1) {
      if (sample_n > 0) {
        node.span_log = &spans_.emplace(0);
        node.trace_sample_n = sample_n;
      }
      single_.emplace(node);
    } else {
      rocket::mesh::LiveClusterConfig cc;
      cc.num_nodes = w.nodes;
      cc.node = node;
      cc.checkpoint_store = w.journal ? journal : nullptr;
      cc.trace_sample_n = sample_n;
      mesh_.emplace(cc);
    }
  }

  EngineCounters run(const rt::Application& app,
                     rocket::storage::ObjectStore& store,
                     const rt::NodeRuntime::ResultFn& on_result) {
    EngineCounters c;
    if (mesh_) {
      const auto r = mesh_->run_all_pairs(app, store, on_result);
      c.loads = r.loads;
      c.peer_loads = r.peer_loads;
      c.prefetch_hits = r.prefetch_hits;
      c.failed_loads = r.failed_loads;
      c.remote_steals = r.remote_steals;
      c.fast_hits = r.cache_fast_hits;
      c.host_cache = r.host_cache;
      c.stall_s = r.stall_seconds;
      c.metrics = r.metrics;
      c.traffic = r.traffic;
      c.directory = r.directory;
      c.peer_retries = r.peer_retries;
      c.duplicates_dropped = r.duplicate_results_dropped;
      c.critical_path = r.critical_path;
      for (const auto& node : r.nodes) add_node(c, node);
      return c;
    }
    // One node: the critical path is computed here, over the call's window.
    const double window_start = process_clock_now();
    const auto r = single_->run(app, store, on_result);
    const double window_end = process_clock_now();
    c.loads = r.loads;
    c.peer_loads = r.peer_loads;
    c.prefetch_hits = r.prefetch_hits;
    c.failed_loads = r.failed_loads;
    c.remote_steals = r.steal.remote_steals;
    c.fast_hits = r.cache_fast_hits;
    c.host_cache = r.host_cache;
    c.stall_s = r.stall_seconds;
    c.metrics = r.metrics;
    add_node(c, r);
    if (spans_) {
      c.critical_path = rocket::telemetry::analyze_critical_path(
          spans_->records(), window_start, window_end);
    }
    return c;
  }

 private:
  std::optional<rocket::telemetry::SpanLog> spans_;
  std::optional<rt::NodeRuntime> single_;
  std::optional<rocket::mesh::LiveCluster> mesh_;
};

}  // namespace perfbench
