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
// worker per GPU, throttled by the concurrent-job limit.
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
    /// simulator/paper-replay escape hatch). Device caches may be clamped
    /// further so the batched-pinning deadlock-freedom invariant holds
    /// per shard (see DESIGN.md §10).
    std::uint32_t cache_shards = 0;

    /// Concurrent tile jobs per worker (§4.2), clamped to half the
    /// device slot count. Each tile's working set is capped at (device
    /// slots / tiles in flight) so the concurrent pin demand can never
    /// exceed the slot supply. Each tile in flight (this plus the
    /// prefetch window) also gets its own I/O lane (DESIGN.md §6).
    std::uint32_t job_limit_per_worker = 8;

    /// Look-ahead prefetch window per device, in tiles. The per-device
    /// job budget splits into a *compute* budget (job_limit_per_worker,
    /// clamped as before) and this many additional in-flight tiles whose
    /// missing items are driven through the load pipeline ahead of need,
    /// so the kernels for tile T overlap the I/O/parse/H2D stages of tiles
    /// T+1..T+W (§4.3's transfer/compute overlap carried into the
    /// scheduler). The deadlock-freedom invariant generalises: compute
    /// demand + prefetch demand ≤ device slots per shard, so tile working
    /// sets clamp against the combined budget (and the window itself is
    /// clamped on slot-starved devices). 0 = off: bit-identical to the
    /// pre-prefetch schedule.
    std::uint32_t prefetch_tiles = 0;

    /// Leaf visitation order (dnc::Traversal). kDepthFirst is the
    /// executor's native descent — the historical schedule; kHilbert
    /// orders tiles along a Hilbert curve so consecutive tiles share rows
    /// or columns (fewer cold items per step, fewer loads under a small
    /// cache); kRowMajor is the locality baseline for head-to-heads.
    dnc::Traversal leaf_order = dnc::Traversal::kDepthFirst;

    /// Leaf budget of the divide-and-conquer decomposition (§4.2). Leaves
    /// near the device working-set budget amortise pins and queue hops
    /// best; 64 pairs ≈ a 8×8 tile.
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

    /// Per-lane span retention cap when `trace` is on; overflow counts in
    /// Report::spans_dropped instead of growing without bound. 0 = no cap.
    std::size_t max_spans_per_lane = Profiler::kDefaultSpanCap;

    /// Optional sink for discrete trace events (prefetch parks); shared
    /// with the mesh layer's event stream by LiveCluster. May be null.
    telemetry::EventLog* event_log = nullptr;

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
    /// Tiles whose working set finished loading while every compute slot
    /// of their device was busy — i.e. loads that the prefetch window
    /// fully overlapped with computation. 0 when prefetch_tiles == 0.
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
    /// slack). The quantity the prefetch pipeline exists to shrink.
    std::vector<double> device_stall_seconds;
    double stall_seconds = 0.0;  // sum of device_stall_seconds
    steal::ExecutorStats steal;
    std::vector<std::pair<std::string, double>> lane_busy;
    std::string timeline;  // rendered trace when Config::trace
    /// Hot-seam latency histograms + counters/gauges (DESIGN.md §13);
    /// empty instruments when Config::telemetry is off.
    telemetry::MetricsSnapshot metrics;
    /// Chrome-trace input (lanes + epoch offset) when Config::trace.
    telemetry::NodeTrace trace;
    /// Spans discarded at Config::max_spans_per_lane.
    std::uint64_t spans_dropped = 0;
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
