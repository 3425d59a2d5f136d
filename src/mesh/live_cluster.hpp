#pragma once

// Live multi-node mesh: N NodeRuntime peers running as one cluster inside
// a single process, on real threads and wall-clock time.
//
// This is the cluster layer of §4 brought to the live runtime: the pair
// space is statically partitioned across nodes (dnc::partition_root),
// imbalances are corrected by cross-node steal request/reply messages,
// host-cache misses consult the §4.1.3 mediator/candidates directory and
// probe peers for the parsed item before falling back to the shared
// object store, and every completed pair is aggregated to the master
// node's user callback. All protocol traffic flows through a
// mesh::Transport with the same net::Tag accounting as the simulated
// fabric, so a live run's traffic table is directly comparable to a
// SimCluster run's.
//
// Failure behaviour mirrors the simulator's no-hang invariant (§6.1): a
// dead or evicted candidate chain degrades to the local-load path, a dead
// steal victim to an empty-handed sweep; the run always terminates.

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "cache/distributed_directory.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/transport.hpp"
#include "net/tag.hpp"
#include "runtime/node_runtime.hpp"
#include "storage/object_store.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"

namespace rocket::mesh {

struct LiveClusterConfig {
  /// Number of in-process nodes (p). 1 degenerates to a single-node run
  /// through the same code path.
  std::uint32_t num_nodes = 2;

  /// Per-node runtime configuration, replicated across nodes (devices,
  /// caches, prefetch window, ...).
  runtime::NodeRuntime::Config node{};

  /// Third-level (distributed) cache on/off and its hop limit h (§4.1.3).
  bool distributed_cache = true;
  std::uint32_t hop_limit = 1;  // paper: h=1 after the Fig 11 study

  /// Wire size charged per control message (traffic-report comparability
  /// with the simulated fabric).
  Bytes control_message_size = 128;

  /// Peer-fetch payloads at or above this size are lz-compressed on the
  /// wire (traffic table records compressed bytes; the requester's load
  /// pipeline decompresses). 0 disables.
  Bytes peer_compress_threshold = 64_KiB;

  // --- failure model (DESIGN.md §12) ---

  /// Heartbeat period for each node's liveness lease at the master.
  /// 0 disables heartbeats and the failure detector entirely.
  double heartbeat_interval_s = 0.025;

  /// Master silence threshold before a node is declared dead. Generous by
  /// default so a healthy-but-busy node is never declared dead in normal
  /// runs (a false positive is safe — dedup — but wastes re-execution);
  /// chaos tests shrink it aggressively.
  ///
  /// Master failover (DESIGN.md §14.2) is on whenever the detector is,
  /// i.e. on a multi-node mesh with both this and heartbeat_interval_s
  /// above 0. The master then mirrors its aggregation state to a
  /// standby, and the lowest live node adopts the role when the master's
  /// lease expires.
  double lease_timeout_s = 5.0;

  /// Peer-fetch deadline: a pending fetch older than this is
  /// retransmitted with exponential backoff, then completed as a miss
  /// (object-store fallback) after `max_fetch_retries`. This is also what
  /// unblocks a killed node's own in-flight fetches so its threads can
  /// drain. 0 disables deadlines.
  double fetch_timeout_s = 0.25;
  std::uint32_t max_fetch_retries = 3;

  /// Mediator chain-walk cap (0 = the hop limit h); truncations are
  /// counted in DirectoryStats::chain_aborts.
  std::uint32_t max_chain_hops = 0;

  /// Scripted, replayable node kills (chaos tests, the demo's
  /// --kill-node / --kill-master). Killing node 0 is survivable with
  /// master failover (see lease_timeout_s; the lowest live node adopts
  /// the role, DESIGN.md §14); without it a master kill ends the run
  /// early via the termination watchdog.
  FaultSchedule faults;

  // --- telemetry (DESIGN.md §13) ---

  /// Snapshot streaming period: every node samples its runtime and ships
  /// a telemetry::NodeStats to the master this often; the master folds
  /// the streams into ClusterSnapshots (cluster_snapshot(), the callback
  /// below, `live_mesh_demo --live-stats`). 0 disables the stream.
  double snapshot_interval_s = 0.0;

  /// Called on the master's service thread with each new ClusterSnapshot.
  /// Must be cheap and must not re-enter the cluster.
  std::function<void(const telemetry::ClusterSnapshot&)> on_cluster_snapshot;

  // --- causal tracing (DESIGN.md §16) ---

  /// Every Nth tile / item / steal — deterministically, by seeded hash of
  /// its identity — gets a full causal trace: a span DAG spanning nodes,
  /// recorded into the per-node span logs, rendered with cross-node flow
  /// arrows by the TraceExporter, and fed to the critical-path analyzer.
  /// Tracing also arms each node's black-box flight recorder (the last
  /// 1024 span closes + received messages), dumped to `checkpoint_store`
  /// as `rocket.flightrec.node<i>` on node death, master failover or
  /// assertion failure. 0 disables causal tracing entirely; 1 traces
  /// everything.
  std::uint32_t trace_sample_n = 0;

  // --- durability (DESIGN.md §14) ---

  /// Write-ahead run journal target. Non-null enables journalling: the
  /// master appends a manifest, flushed result batches and completed
  /// regions through this store (must support_write()). Null disables
  /// the whole checkpoint path.
  storage::ObjectStore* checkpoint_store = nullptr;
  std::string checkpoint_name = "rocket.journal";

  /// Replay an existing journal before running: already-delivered pairs
  /// are NOT re-delivered, only the remaining frontier executes. A
  /// journal whose manifest fingerprint mismatches this config is
  /// ignored (fresh start). Requires checkpoint_store.
  bool resume = false;

  /// The master's flush unit, in pairs: accepted results are mirrored
  /// (with failover), journalled (with a checkpoint store) and delivered
  /// this many at a time, independent of how many pairs one result
  /// message carries. Every master flushes this way; the final pair
  /// always flushes.
  std::uint32_t journal_batch_pairs = 64;

  /// Chaos: probability that a sent frame is first delivered corrupted
  /// (then retransmitted clean). Exercises the transport CRC path.
  double frame_corrupt_rate = 0.0;
  std::uint64_t frame_corrupt_seed = 1;

  // --- grey-failure resilience (DESIGN.md §15) ---

  /// Straggler detection: a node whose EWMA delivered-pairs rate stays
  /// below this fraction of the cluster median for `suspect_intervals`
  /// consecutive telemetry intervals is marked degraded. Needs the
  /// snapshot stream (snapshot_interval_s > 0) for rate input. 0 keeps
  /// the binary alive/dead model.
  double degraded_rate_fraction = 0.0;
  std::uint32_t suspect_intervals = 2;

  /// Hysteresis: a degraded node recovers (and becomes grantable again)
  /// after holding its rate above recover_rate_fraction × median for
  /// recover_intervals consecutive intervals.
  double recover_rate_fraction = 0.7;
  std::uint32_t recover_intervals = 2;
  double health_ewma_alpha = 0.4;

  /// Straggler speculation bound: regions of a degraded node's
  /// undelivered backlog re-granted to the fastest healthy node per
  /// telemetry interval (first result wins; the ledger drops duplicates).
  /// 0 disables speculation while keeping health tracking.
  std::uint32_t speculation_regions_per_interval = 2;

  /// Grey-failure straggler injection (chaos tests, the demo's
  /// --slow-node): node `slow_node` runs every kernel `slow_factor`×
  /// slower and sees `slow_store_latency_us` of extra latency per
  /// object-store read. kNoSlowNode disables.
  static constexpr NodeId kNoSlowNode = ~NodeId{0};
  NodeId slow_node = kNoSlowNode;
  double slow_factor = 1.0;
  std::uint64_t slow_store_latency_us = 0;
};

/// Journal/resume observability (zero/false when checkpointing is off).
struct CheckpointStats {
  bool enabled = false;
  bool resumed = false;             // a prior journal was replayed
  bool torn_tail = false;           // replay found (and cut) a torn tail
  std::uint64_t pairs_recovered = 0;   // pairs restored from the journal
  std::uint64_t records_replayed = 0;  // valid records walked on resume
  std::uint64_t records_appended = 0;  // records written by this run
};

struct LiveClusterReport {
  std::uint64_t pairs = 0;        // results delivered to the master
  double wall_seconds = 0.0;
  std::uint64_t loads = 0;        // object-store load pipelines, all nodes
  std::uint64_t peer_loads = 0;   // loads served from a peer's host cache
  std::uint64_t remote_steals = 0;  // successful cross-node steals

  net::TrafficCounters traffic;
  cache::DirectoryStats directory;  // aggregated over all nodes
  PeerCacheStats peer_cache;        // aggregated requester-side chain stats
  cache::CacheStats host_cache;     // merged over all nodes' cache shards
  std::uint64_t cache_fast_hits = 0;  // lock-free fast-path pins, all nodes
  /// Tiles whose loads fully overlapped computation, all nodes (the
  /// prefetch pipeline's hit count; peer fetches prefetched ahead of need
  /// count exactly like store loads — the window drives the same load
  /// pipeline).
  std::uint64_t prefetch_hits = 0;
  double stall_seconds = 0.0;  // summed device load-stall time, all nodes

  // --- failure model (all zero in a fault-free run) ---
  std::uint64_t node_deaths = 0;        // death verdicts issued
  std::uint64_t regions_reexecuted = 0; // regions re-granted to survivors
  std::uint64_t duplicate_results_dropped = 0;  // master dedup drops
  std::uint64_t peer_retries = 0;       // fetch retransmits, all nodes
  FailoverStats failover;               // full failover detail, aggregated
  std::uint64_t master_failovers = 0;   // master-role adoptions
  std::uint64_t corrupted_frames = 0;   // injected corrupt frames (chaos)
  CheckpointStats checkpoint;           // journal/resume detail (§14)

  // --- grey-failure resilience (DESIGN.md §15) ---
  std::uint64_t regions_speculated = 0;  // straggler backlog re-grants
  std::uint64_t nodes_degraded = 0;      // degradation verdicts
  std::uint64_t nodes_recovered = 0;     // hysteresis recoveries
  std::uint64_t steals_avoided_degraded = 0;  // victim draws that skipped
                                              // stragglers
  std::uint64_t load_retries = 0;   // transient store-read retries, all nodes
  std::uint64_t failed_loads = 0;   // loads that fell to the failed-item path

  // --- causal tracing (DESIGN.md §16) ---

  /// Offline critical-path attribution over every sampled span of the
  /// run: percent of wall time per phase (sums to 100 by construction —
  /// idle is the uncovered remainder) and the top-k slowest traced tiles
  /// with their causal chains. Always populated: with tracing off the
  /// window is attributed 100% idle.
  telemetry::CriticalPathReport critical_path;

  /// Sampled spans still open when a node's engine wound down, closed
  /// forcibly with the aborted flag (the satellite-3 invariant: a killed
  /// node leaks no unclosed spans).
  std::uint64_t spans_aborted = 0;

  /// Flight-recorder rings written to the checkpoint store post-mortem.
  std::uint64_t flight_dumps = 0;

  /// Name-merged metrics over every node's engine and mesh registries
  /// (DESIGN.md §13): latency histograms add bucket-wise, counters add.
  telemetry::MetricsSnapshot metrics;
  /// Per-source-node traffic tables (indexed by node id); `traffic` above
  /// is their element-wise sum.
  std::vector<net::TrafficCounters> node_traffic;

  std::vector<runtime::NodeRuntime::Report> nodes;  // per-node detail
};

class LiveCluster {
 public:
  using Config = LiveClusterConfig;
  using Report = LiveClusterReport;

  explicit LiveCluster(Config config) : config_(std::move(config)) {}

  /// Evaluate every pair (i, j), i < j, of `app`'s items across the mesh.
  /// `on_result` is the master callback: invoked serially (on the master's
  /// service thread) exactly once per pair, in completion order. The
  /// result multiset is identical to a single-node run over the same
  /// store. Every node reads `store` concurrently (ObjectStore's
  /// concurrent-read contract). Blocks until the whole cluster has
  /// finished.
  Report run_all_pairs(const runtime::Application& app,
                       storage::ObjectStore& store,
                       const runtime::NodeRuntime::ResultFn& on_result);

  /// Latest ClusterSnapshot the master has folded (empty, seq 0, before
  /// the first interval elapses or when snapshot_interval_s == 0). Safe to
  /// poll from any thread while run_all_pairs blocks another.
  telemetry::ClusterSnapshot cluster_snapshot() const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  mutable std::mutex snapshot_mutex_;
  telemetry::ClusterSnapshot latest_snapshot_;
};

}  // namespace rocket::mesh
