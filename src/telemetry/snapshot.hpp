#pragma once

// Live cluster snapshot protocol (DESIGN.md §13): every node samples its
// runtime into a NodeStats each snapshot interval and ships it to the
// master on the heartbeat ticker (net::Tag::kTelemetry). The master folds
// the per-node streams into a ClusterSnapshot — rates from consecutive
// sample deltas, staleness from sample age — which LiveCluster exposes for
// polling and as a callback, driving `live_mesh_demo --live-stats`.

#include <cstdint>
#include <functional>
#include <vector>

namespace rocket::telemetry {

/// One node's cumulative-since-start counters plus instantaneous gauges.
/// Cheap to sample (atomic reads, no locks) and cheap to ship; rates are
/// the master's job, from deltas between consecutive snapshots.
struct NodeStats {
  std::uint64_t pairs = 0;
  std::uint64_t tiles = 0;
  std::uint64_t loads = 0;
  std::uint64_t peer_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_fills = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_fast_hits = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t remote_steals = 0;
  std::int64_t in_flight_tiles = 0;
  std::int64_t result_queue_depth = 0;
  std::uint32_t lanes = 0;      // profiler lanes contributing to busy time
  double busy_seconds = 0.0;    // summed across profiler lanes
  double uptime_seconds = 0.0;  // since the node's runtime started
};

/// Sampler a node's runtime registers with its mesh layer; called on the
/// ticker thread each snapshot interval. Empty function = no publisher.
using NodeStatsFn = std::function<NodeStats()>;

/// Master-side digest of one node's latest sample.
struct NodeSnapshot {
  std::uint32_t node = 0;
  bool alive = true;
  double age_seconds = 0.0;  // since the sample was taken (staleness)
  double pairs_per_sec = 0.0;   // from the last two samples' delta
  double busy_fraction = 0.0;   // busy_seconds delta over lane-time delta
  double cache_hit_rate = 0.0;  // hits / (hits + fills), cumulative
  NodeStats stats;
};

struct ClusterSnapshot {
  std::uint64_t seq = 0;
  double uptime_seconds = 0.0;
  std::uint64_t total_pairs = 0;
  double cluster_pairs_per_sec = 0.0;
  std::vector<NodeSnapshot> nodes;
};

}  // namespace rocket::telemetry
