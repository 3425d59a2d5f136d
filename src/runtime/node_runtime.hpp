#pragma once

// Live (wall-clock, multi-threaded) Rocket runtime for one node.
//
// This is the asynchronous engine of §4.3: dedicated threads per resource
// class — a CPU pool, one kernel/H2D/D2H thread per (virtual) GPU and one
// I/O lane (a thread running one store read at a time) per tile the node
// may hold in flight — connected by queues. Comparison jobs flow through
// the same SlotCache policy objects as the simulator (Fig 4 semantics):
// device-level cache per GPU, node-level host cache shared by all GPUs. The
// divide-and-conquer work-stealing executor (§4.2) drives submission, one
// worker per GPU, throttled by the tiles each device admits (admit_tiles).
//
// "GPU" kernels execute as real CPU code against device-resident buffers;
// heterogeneity is emulated by stretching kernel wall time on slower
// device models (the RTX-class virtual card runs at full speed, a Kepler
// card sleeps proportionally), which preserves the load-balancing
// behaviour the paper demonstrates in §6.5.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/slot_cache.hpp"
#include "gpu/device_spec.hpp"
#include "runtime/application.hpp"
#include "runtime/peer_fetch.hpp"
#include "runtime/profiler.hpp"
#include "steal/executor.hpp"
#include "storage/object_store.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace.hpp"

namespace rocket::runtime {

/// Wiring of one NodeRuntime into a live multi-node mesh (src/mesh/). The
/// runtime never blocks unboundedly on a peer: the steal hook times out
/// internally and peer fetches always complete (falling back to the
/// object store), which is the mesh's deadlock-freedom invariant
/// (DESIGN.md §9).
struct MeshPort {
  /// This node's share of the static pair-space partition; further work
  /// may arrive through remote_steal.
  std::vector<dnc::Region> regions;

  /// Cross-node steal: called on an executor worker thread after a failed
  /// local sweep. May block briefly (bounded by a reply timeout inside the
  /// mesh); returns a region stolen from a peer or nullopt.
  std::function<std::optional<dnc::Region>(std::uint32_t worker)>
      remote_steal;

  /// Cluster-wide termination: true once every pair everywhere completed.
  std::function<bool()> global_done;

  /// Peer-side provider of parsed items, consulted on a host-cache miss
  /// before the object store. May be null; ignored when the host cache
  /// level is disabled (the distributed cache fills host slots, exactly as
  /// in the simulated cluster).
  PeerFetchClient* peer_fetch = nullptr;

  /// Called with the engine's host-cache probe just before execution
  /// starts and with nullptr once the run has drained, so the mesh serves
  /// peer probes only while the engine is live.
  std::function<void(HostCacheProbe*)> register_probe;

  /// Same contract for the executor's work exporter (steal-victim side).
  std::function<void(steal::StealExporter*)> register_exporter;

  /// Telemetry sampler registration: called with the engine's live-stats
  /// provider before execution starts and with an empty function once the
  /// run has drained, so the mesh's snapshot ticker samples only a live
  /// engine (DESIGN.md §13).
  std::function<void(telemetry::NodeStatsFn)> register_stats;
};

/// The runtime's unit of result delivery: one tile's results, handed over
/// whole by the result consumer.
struct ResultBatch {
  std::vector<PairResult> results;
  /// The tile's sampled result.deliver span (DESIGN.md §16); zero ids
  /// when the tile was not sampled.
  telemetry::SpanContext span;
};

/// How one device splits its cache between tiles and shards.
struct TileAdmission {
  std::uint32_t tiles_in_flight = 0;  // the job-limit semaphore's count
  std::uint32_t tile_ws_budget = 0;   // distinct items one tile may pin
  std::uint32_t shards = 0;           // device-cache shard count
};

/// Admission of one device with `slots` cache slots (DESIGN.md §11.1).
/// Tiles are sized first: a tile may pin a whole square leaf of
/// `max_leaf_pairs` pairs, 2⌊√max_leaf_pairs⌋ items, capped at half the
/// slots so one tile loads while another computes (§4.3). Then as many
/// such tiles as the slots hold are admitted, at most `job_limit`, and
/// the shards take what is left: at most `shards_requested`, each holding
/// every tile's working set. Tiles in flight × budget therefore never
/// exceed the smallest shard, the deadlock-freedom invariant of batched
/// pinning (§6.2, §10.4). Throws std::invalid_argument when `job_limit`
/// or `max_leaf_pairs` is 0, naming the NodeRuntime::Config field.
TileAdmission admit_tiles(std::uint32_t slots, std::uint32_t job_limit,
                          std::uint32_t shards_requested,
                          std::uint64_t max_leaf_pairs);

class NodeRuntime {
 public:
  struct Config {
    std::vector<gpu::DeviceSpec> devices{gpu::titanx_maxwell()};

    /// Host-cache budget in bytes (0 disables the host level).
    Bytes host_cache_capacity = 1_GiB;

    /// Device-cache budget per GPU; 0 = the device's own capacity. Small
    /// values are useful on development machines (the paper's Fig 9 knob).
    Bytes device_cache_capacity = 0;

    std::uint32_t cpu_threads = 2;

    /// Shard count for the host and device software caches
    /// (cache::ShardedSlotCache). 0 = auto: min(16, hardware threads).
    /// 1 reproduces the historical single-lock policy exactly (the
    /// simulator/paper-replay escape hatch). A device cache gets only the
    /// shards its slots still fill once the tiles in flight hold their
    /// working sets (admit_tiles, DESIGN.md §10.4), so a small device
    /// cache runs unsharded.
    std::uint32_t cache_shards = 0;

    /// Cap on concurrent tile jobs per worker (§4.2); at least 1. Each
    /// device first sizes its tiles (max_leaf_pairs below), then admits
    /// as many such tiles as its slots hold, up to this cap (admit_tiles).
    /// While one tile computes, the others load: the tiles in flight are
    /// also the look-ahead depth (§4.3), and each gets its own I/O lane
    /// (DESIGN.md §6, §11).
    std::uint32_t job_limit_per_worker = 8;

    /// Leaf budget of the divide-and-conquer decomposition (§4.2); at
    /// least 1. It also sizes tiles: a tile may pin the working set of a
    /// whole square leaf, 2⌊√max_leaf_pairs⌋ items (16 for the default
    /// 8×8 leaf), capped at half the device cache so two tiles stay in
    /// flight. 1 gives two-item, one-pair tiles.
    std::uint64_t max_leaf_pairs = 64;
    std::uint64_t seed = 1;

    /// Bound on kFailed cache-grant re-drives before the terminal error
    /// path fires. A tile keeps one count for all of its items; past the
    /// bound, each item that sees another kFailed is failed and its pairs
    /// get NaN. A load keeps its own count of host-level re-drives and,
    /// past the bound, bypasses the host cache. Re-drives back off
    /// exponentially (microsecond scale, capped at 1 ms), so a
    /// persistently aborting writer can neither livelock the runtime nor
    /// spin a core. Counted in Report::acquire_retries.
    std::uint32_t max_acquire_retries = 64;

    /// Stretch kernel wall time on slower device models (see file header).
    bool emulate_heterogeneity = true;

    /// Grey-failure straggler injection (DESIGN.md §15): stretch every
    /// kernel's wall time by this factor on top of the heterogeneity
    /// stretch. 1 = off. Used by chaos tests and the demo's --slow-node.
    double kernel_slowdown = 1.0;

    /// Transient store errors (storage::TransientStoreError) retry in
    /// place on the I/O lane with jittered backoff, up to this many
    /// retries per load; one more failure fails the item through the
    /// NaN-pair path. Permanent errors never retry.
    std::uint32_t max_load_retries = 4;

    /// Run-level cap on tolerated transient store errors, shared by all
    /// loads (0 = unlimited). Once spent, further transient errors become
    /// terminal immediately — a store that is *persistently* flaky fails
    /// fast instead of stretching the run with per-load retry cycles.
    std::uint64_t load_error_budget = 0;

    /// Record a full task trace (Fig 6); cheap busy counters are always on.
    bool trace = false;

    /// Metrics layer on/off (DESIGN.md §13). Off also disarms the
    /// profiler's busy accounting — the "telemetry off" configuration the
    /// overhead bench measures against. Report fields derived from busy
    /// time (device_busy/stall_seconds, lane_busy) read zero when off.
    bool telemetry = true;

    // --- causal tracing (DESIGN.md §16) ---

    /// Sampled causal-span sink (shared with the mesh layer by
    /// LiveCluster; owned by the caller). Null disables tile span DAGs.
    telemetry::SpanLog* span_log = nullptr;

    /// Every Nth tile — deterministically, by region identity under
    /// `seed` — gets a full causal trace rooted at its tile span; item
    /// peer-fetches sample by item identity under the same knob. 0
    /// disables sampling entirely.
    std::uint32_t trace_sample_n = 0;
  };

  struct Report {
    std::uint64_t pairs = 0;
    std::uint64_t tiles = 0;        // tile jobs executed
    std::uint64_t loads = 0;        // object-store load-pipeline executions
    std::uint64_t peer_loads = 0;   // loads served from a peer's host cache
    double reuse_factor = 0.0;      // loads / n
    double wall_seconds = 0.0;
    cache::CacheStats host_cache;   // merged over host-cache shards
    std::vector<cache::CacheStats> device_caches;  // merged per device
    /// Read pins granted by the shards' lock-free fast path, host +
    /// devices. Counts both acquire hits (folded into the hit totals
    /// above) and remote probe pins (counted in the probe counters, not
    /// in hits). A cache with one shard has no fast path and adds 0:
    /// every cache when cache_shards == 1, and any device cache the
    /// deadlock-freedom clamp leaves at one shard.
    std::uint64_t cache_fast_hits = 0;
    std::vector<std::uint64_t> pairs_per_device;
    /// Tiles whose working set resolved while another tile of the same
    /// device was waiting for or running its compare task — loads fully
    /// overlapped with computation. 0 with one tile in flight per device.
    std::uint64_t prefetch_hits = 0;
    /// kFailed cache-grant re-drives (bounded by max_acquire_retries).
    std::uint64_t acquire_retries = 0;
    /// Transient store-read retries absorbed by the backoff budget
    /// (DESIGN.md §15) and loads that exhausted it (or hit a permanent
    /// error) and fell through to the failed-item path.
    std::uint64_t load_retries = 0;
    std::uint64_t failed_loads = 0;
    /// Per-device GPU-lane busy seconds (compare + preprocess kernels).
    std::vector<double> device_busy_seconds;
    /// Per-device load-stall seconds: wall time minus GPU-lane busy time —
    /// the time the device sat idle waiting for data (plus scheduling
    /// slack). The quantity more tiles in flight shrink.
    std::vector<double> device_stall_seconds;
    double stall_seconds = 0.0;  // sum of device_stall_seconds
    steal::ExecutorStats steal;
    std::vector<std::pair<std::string, double>> lane_busy;
    std::string timeline;  // rendered trace when Config::trace
    /// Hot-seam latency histograms + counters/gauges (DESIGN.md §13);
    /// empty instruments when Config::telemetry is off.
    telemetry::MetricsSnapshot metrics;
    /// Chrome-trace input (lanes + span log) when Config::trace.
    telemetry::NodeTrace trace;
    /// Spans discarded at the profiler's per-lane cap
    /// (Profiler::kDefaultSpanCap).
    std::uint64_t spans_dropped = 0;
    /// The admission each device ran with (admit_tiles).
    std::vector<TileAdmission> admission;
    /// I/O lanes: one per tile the node may hold in flight.
    std::uint32_t io_lanes = 0;
  };

  /// Called once per completed pair, serialised by the runtime.
  using ResultFn = std::function<void(const PairResult&)>;

  /// Called once per result batch, serialised by the runtime; the batch
  /// is the callee's to keep.
  using BatchFn = std::function<void(ResultBatch&&)>;

  explicit NodeRuntime(Config config) : config_(std::move(config)) {}

  /// Run the full all-pairs computation for `app`, reading inputs from
  /// `store`. Blocks until every pair has been processed.
  Report run(const Application& app, storage::ObjectStore& store,
             const ResultFn& on_result);

  /// Run one node's share of a live mesh computation: execute
  /// `port.regions` (plus anything stolen from peers), serving peer cache
  /// probes and steal requests meanwhile. Results leave a tile at a time
  /// through `on_batch`. `pairs` in the report counts pairs this node
  /// executed. Blocks until `port.global_done` — i.e. until the whole
  /// cluster finished, not just this node.
  Report run_partition(const Application& app, storage::ObjectStore& store,
                       const BatchFn& on_batch, const MeshPort& port);

  const Config& config() const { return config_; }

 private:
  Report run_impl(const Application& app, storage::ObjectStore& store,
                  const BatchFn& on_batch, const MeshPort* port);

  Config config_;
};

}  // namespace rocket::runtime
