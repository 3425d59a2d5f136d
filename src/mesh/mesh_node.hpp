#pragma once

// Per-node mesh service: the live counterpart of the cluster-layer
// protocols the simulator runs in virtual time.
//
// Each node of a LiveCluster owns one MeshNode. A dedicated service
// thread drains the node's transport inbox and serves four duties:
//   * mediator  — §4.1.3 directory lookups for the items this node
//                 mediates (item mod p), answered by forwarding a probe
//                 along the candidate chain;
//   * candidate — host-cache probes on behalf of remote requesters,
//                 through the HostCacheProbe the NodeRuntime registers
//                 while its engine is live;
//   * victim    — steal requests answered from the registered
//                 StealExporter;
//   * master    — on the master node only: exactly-once per-pair result
//                 aggregation (ResultLedger dedup), the failure detector's
//                 death verdicts with re-execution grants, end-game copies
//                 of a slow node's in-flight work to idle nodes, and the
//                 cluster-wide completion signal.
//
// A second, low-rate ticker thread drives everything timeout-shaped
// (DESIGN.md §12): heartbeat leases to the master, the master's
// missed-lease failure detector, and pending-peer-fetch deadlines (retry
// with backoff, then complete as a miss so the load pipeline falls back
// to the object store — the mechanism that also unblocks a *killed*
// node's own in-flight fetches). The ticker never mutates protocol state
// directly: death verdicts travel through the master's own inbox, so the
// ledger stays single-threaded on the service thread.
//
// Requester-side flows never block a runtime thread unboundedly:
// PeerFetchClient::fetch is fully asynchronous (its callback fires when
// the data or a failure message arrives, a failed send completes the
// fetch as a miss immediately, and the ticker bounds how long a silent
// peer can stall it), and remote_steal waits on its reply with a timeout.
// Together with the rule that the service thread only ever blocks on its
// own inbox, this is the mesh's deadlock-freedom argument (DESIGN.md §9).
//
// The mesh's discrete decisions — steals, death verdicts, re-grants,
// adoptions, failovers, end-game copies — are instants in the node's span
// log (DESIGN.md §13.3), recorded wherever their FailoverStats or steal
// counter counts, so a trace holds one instant per count.

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/distributed_directory.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/application.hpp"
#include "runtime/peer_fetch.hpp"
#include "steal/executor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"

namespace rocket::mesh {

/// Requester-side chain-walk statistics (the live analogue of the
/// simulator's DistCacheMetrics).
struct PeerCacheStats {
  std::uint64_t requests = 0;      // peer fetches issued by this node
  std::uint64_t chain_hits = 0;    // served from a peer's host cache
  std::uint64_t chain_misses = 0;  // exhausted or failed chains
  std::uint64_t retries = 0;       // fetch retransmits after a deadline
  std::uint64_t timeouts = 0;      // fetches failed after the retry budget
  std::vector<std::uint64_t> hits_at_hop;  // index 0 = first hop

  std::uint64_t total_hits() const {
    std::uint64_t sum = 0;
    for (const auto h : hits_at_hop) sum += h;
    return sum;
  }
};

PeerCacheStats& operator+=(PeerCacheStats& a, const PeerCacheStats& b);

/// Failure-model observability (DESIGN.md §12). Master fields are zero on
/// non-master nodes; stable once the cluster has quiesced.
struct FailoverStats {
  std::uint64_t node_deaths = 0;        // master: death verdicts issued
  std::uint64_t regions_reexecuted = 0; // master: regions re-granted
  std::uint64_t duplicate_results_dropped = 0;  // master: dedup drops
  std::uint64_t results_received = 0;   // master: pairs received, pre-dedup
  std::uint64_t regions_adopted = 0;    // re-execution grants parked here
  std::uint64_t master_failovers = 0;   // this node adopted the master role

  // --- end-game speculation (DESIGN.md §15) ---
  std::uint64_t regions_speculated = 0; // master: regions copied to idle nodes
  std::uint64_t pairs_speculated = 0;   // pairs covered by those copies
};

FailoverStats& operator+=(FailoverStats& a, const FailoverStats& b);

class MeshNode final : public runtime::PeerFetchClient {
 public:
  using ResultFn = std::function<void(const runtime::PairResult&)>;

  /// The LiveCluster master (aggregator, failure detector, ledger).
  static constexpr NodeId kMaster = 0;

  struct Config {
    NodeId id = 0;
    std::uint32_t num_workers = 1;  // steal cells, one per executor worker
    std::uint32_t hop_limit = 1;    // the paper's h
    std::uint64_t seed = 1;

    // --- failure model (DESIGN.md §12) ---

    /// Period of the liveness lease this node renews at the master.
    /// 0 disables heartbeats (single-node runs, protocol unit tests).
    double heartbeat_interval_s = 0.0;

    /// Master only: a non-master node silent for longer than this is
    /// declared dead. 0 disables the failure detector.
    double lease_timeout_s = 0.0;

    /// Pending peer fetches older than this are retransmitted with
    /// exponential backoff, then completed as a miss once
    /// `max_fetch_retries` is spent (the load pipeline falls back to the
    /// object store). 0 disables deadlines: a fetch then fails fast only
    /// when its send is rejected.
    double fetch_timeout_s = 0.0;
    std::uint32_t max_fetch_retries = 3;

    /// Victim side: notify the master of every successful steal transfer
    /// (StealExport) so the re-execution ledger tracks real ownership.
    /// Enabled by LiveCluster together with the master's ledger.
    bool export_leases = false;

    // --- telemetry (DESIGN.md §13) ---

    /// Period of this node's TelemetrySnapshot stream to the master
    /// (published on the ticker; the master publishes to itself so every
    /// node goes through the same path). 0 disables the stream.
    double snapshot_interval_s = 0.0;

    // --- timeline: instants and causal tracing (DESIGN.md §13.3, §16) ---

    /// Span log shared with this node's runtime: the mesh's instants
    /// (steals, deaths, re-grants, copies) and, with
    /// trace_sample_n > 0, its sampled spans. Null records nothing.
    telemetry::SpanLog* spans = nullptr;

    /// Black-box ring of recent span/transport events, dumped to the
    /// checkpoint store post-mortem. Null disables.
    telemetry::FlightRecorder* flight = nullptr;

    /// Deterministic message-level sampling for spans the mesh roots
    /// itself (steals, re-grants): every Nth by seeded hash. 0 disables
    /// mesh-rooted spans; propagated contexts on incoming messages (a
    /// sampled tile's result delivery among them) are honoured
    /// regardless.
    std::uint32_t trace_sample_n = 0;

    /// Master only: fired on the service thread with each fresh
    /// ClusterSnapshot (once per master snapshot interval).
    std::function<void(const telemetry::ClusterSnapshot&)> on_snapshot;

    // --- end-game speculation (DESIGN.md §15) ---

    /// A node whose cross-node steal comes back empty tells the master
    /// (IdleNotice); the master copies half of the most-indebted node's
    /// undelivered lease to it when the sender owes nothing. First result
    /// wins, so a copy costs only duplicate pairs. Off: the binary
    /// alive/dead model of DESIGN.md §12.
    bool speculation = false;

    // Master duties: set on the node that results are routed to (node 0 in
    // a LiveCluster); activated by a non-empty on_result/on_complete.
    std::uint64_t expected_pairs = 0;
    ResultFn on_result;                // user callback, invoked serially
    std::function<void()> on_complete; // fired once, on the service thread

    /// Master only: item count and initial partition (indexed by node) —
    /// seeds the exactly-once ResultLedger. Zero items / empty grants
    /// disable the ledger (no dedup, pre-failure-model aggregation).
    /// With `failover` these are set on EVERY node (any node may adopt
    /// the master role), but only the current master builds a ledger.
    std::uint32_t ledger_items = 0;
    std::vector<std::vector<dnc::Region>> initial_grants;

    // --- durability (DESIGN.md §14) ---

    /// Master failover: the master mirrors its aggregation state to a
    /// standby (kLedgerSync), every node heartbeat-watches the current
    /// master, and on master lease expiry the lowest live node adopts
    /// the role, dedups against its mirror, and re-grants the frontier.
    bool failover = false;

    /// Crash-safe run journal (shared across nodes; internally locked).
    /// The current master appends each flushed result batch. Null
    /// disables journalling.
    checkpoint::Journal* journal = nullptr;

    /// Pairs already delivered by a previous incarnation of this run
    /// (journal replay). The master pre-marks them in its ledger; they
    /// count toward expected_pairs but are NOT re-delivered.
    std::vector<dnc::Pair> recovered;

    /// Master: accepted results buffer until this many are pending (or
    /// the run completes), then flush as one unit: standby mirror (with
    /// failover) → journal append (with a journal) → user delivery.
    /// Counted in pairs, so a flush can fall mid-way through one result
    /// message. With heartbeats on and failover or a journal, the master
    /// tick also flushes a partial batch at least once per heartbeat
    /// interval.
    std::uint32_t result_batch_pairs = 64;
  };

  MeshNode(Config config, Transport& transport,
           std::shared_ptr<std::atomic<bool>> done);
  ~MeshNode();

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  /// Launch the service thread (and the ticker when any timeout feature
  /// is enabled). Call join() only after Transport::close().
  void start();
  void join();

  // ---- NodeRuntime wiring (MeshPort hooks) ----

  /// PeerFetchClient: mediator lookup + candidate chain walk, §4.1.3.
  /// A sampled `ctx` opens a peer.fetch span closed by complete_fetch
  /// (aborted when the fetch failed), and rides the request across the
  /// wire so the serving candidate's span links back (DESIGN.md §16).
  void fetch(ItemId item, DoneFn done,
             telemetry::SpanContext ctx = {}) override;

  /// Cross-node steal with a bounded reply wait; nullopt on timeout,
  /// empty-handed victim, or cluster completion. Nodes declared dead are
  /// skipped as victims.
  std::optional<dnc::Region> remote_steal(std::uint32_t worker);

  bool global_done() const {
    return done_->load(std::memory_order_acquire);
  }

  void register_probe(runtime::HostCacheProbe* probe);
  void register_exporter(steal::StealExporter* exporter);

  /// Runtime-stats sampler for the telemetry stream; install before the
  /// engine starts, clear (empty function) once it drains — same contract
  /// as register_probe.
  void register_stats(telemetry::NodeStatsFn fn);

  /// Wake blocked steal waiters (called cluster-wide on completion).
  void wake();

  // ---- metrics (stable once the cluster has quiesced) ----
  PeerCacheStats peer_stats() const;
  cache::DirectoryStats directory_stats() const;
  /// Master aggregation + this node's adoption counters. Unlocked master
  /// fields: call only after join() (reads are ordered by the thread
  /// join, like the report aggregation in LiveCluster).
  FailoverStats failover_stats() const;
  /// Mesh-side latency instruments (steal RTT, peer-fetch hit/miss, lease
  /// slack) — merged into the node's report next to the engine's metrics.
  telemetry::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }
  std::vector<NodeId> directory_candidates(ItemId item) const;  // testing
  bool is_dead(NodeId node) const {
    return dead_[node].load(std::memory_order_acquire);
  }

  /// The node currently holding the master role, as this node knows it.
  /// Result routing reads this so post-failover results reach the
  /// adopter, not the corpse.
  NodeId current_master() const {
    return master_.load(std::memory_order_acquire);
  }

 private:
  struct StealCell {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<dnc::Region> regions;  // stolen regions awaiting pickup
    std::uint32_t outstanding = 0;    // unanswered requests
    telemetry::SpanContext span;      // in-flight steal's context (§16)
    Rng rng{1};
  };

  /// One in-flight peer fetch (requester side). `deadline`/`attempts`
  /// drive the ticker's retry sweep when fetch_timeout_s > 0.
  struct PendingFetch {
    DoneFn done;
    std::uint32_t attempts = 0;
    std::chrono::steady_clock::time_point deadline{};
    std::chrono::steady_clock::time_point t0{};  // issue time (latency)
    telemetry::SpanContext span;  // sampled peer.fetch span (§16)
  };

  /// Master-side telemetry fold state for one publisher (service thread
  /// only): the last two samples, for rate-from-delta computation.
  struct SnapState {
    bool seen = false;
    telemetry::NodeStats last{};
    telemetry::NodeStats prev{};
    std::chrono::steady_clock::time_point last_at{};
    std::chrono::steady_clock::time_point prev_at{};
  };

  void serve_loop();
  void ticker_loop();
  void check_leases();
  void check_master_lease();
  void check_fetch_deadlines();
  void on_cache_request(const CacheRequest& req);
  void on_cache_probe(CacheProbe probe);
  void on_cache_data(CacheData data);
  void on_cache_failure(const CacheFailure& failure);
  void on_steal_request(const StealRequest& req);
  void on_steal_reply(const StealReply& reply, NodeId from);
  void on_result_msg(const ResultMsg& msg);
  void on_node_down(const NodeDown& down, NodeId from);
  void on_steal_export(const StealExport& exp);
  void on_region_grant(const RegionGrant& grant);
  void on_telemetry(const TelemetrySnapshot& snap);
  void on_ledger_sync(LedgerSync sync);
  void on_master_announce(const MasterAnnounce& ann);
  void on_master_tick();

  /// Master, service thread: grant an idle node a copy of part of the
  /// most-indebted node's undelivered lease (DESIGN.md §15).
  void on_idle_notice(const IdleNotice& notice);

  // --- durability (master, service thread; DESIGN.md §14) ---

  /// Flush the pending result batch: liveness check → standby mirror →
  /// journal append → user delivery, in that order. A failure at the
  /// mirror step means this node is dead: the batch is dropped whole (the
  /// adopter re-grants it), never partially delivered.
  void flush_results();

  /// Mirror the current aggregation state to the lowest live peer; full
  /// snapshot when the standby changed, delta (the pending batch)
  /// otherwise. Returns false only when this node itself is down.
  bool sync_to_standby();

  /// Adopt the master role after `dead_master`'s lease expired: rebuild
  /// the ledger from the mirror, announce, and re-grant the frontier.
  void adopt_master(NodeId dead_master);

  /// Ticker: sample this node's runtime and ship it to the master.
  void publish_snapshot();

  /// Master, service thread: re-grant `region` to a live survivor (or
  /// park it locally when no send succeeds).
  void regrant_region(const dnc::Region& region);
  void regrant_region_to(const dnc::Region& region, NodeId to);
  NodeId pick_survivor();

  /// Forward the probe to chain[index], skipping unreachable candidates;
  /// an exhausted chain reports a miss to the requester. `span` is the
  /// requester's causal context, carried along the whole chain walk.
  void forward_probe(ItemId item, NodeId requester, std::vector<NodeId> chain,
                     std::uint32_t index, const telemetry::SpanContext& span);

  /// Resolve the pending fetch for `item` and record the chain outcome.
  void complete_fetch(ItemId item, runtime::PeerPayload payload,
                      std::uint32_t hops, bool hit);

  bool is_master() const {
    return cfg_.id == master_.load(std::memory_order_acquire);
  }

  // --- causal tracing helpers (DESIGN.md §16) ---

  bool tracing() const {
    return cfg_.spans != nullptr && cfg_.trace_sample_n > 0;
  }

  /// Root context for a mesh-originated trace (steal, grant, deliver),
  /// deterministically sampled by `key` under the node seed.
  telemetry::SpanContext mesh_trace(std::uint64_t key) const {
    return tracing() ? telemetry::make_trace(cfg_.seed, key,
                                             cfg_.trace_sample_n)
                     : telemetry::SpanContext{};
  }

  /// Record a closed child span of `parent` on this node's span log.
  void record_child_span(const telemetry::SpanContext& parent,
                         std::uint64_t salt, telemetry::SpanPhase phase,
                         double start, double end);

  /// Record an instant on this node's span log, if it has one.
  void record_instant(telemetry::SpanPhase phase, std::uint32_t a,
                      std::uint32_t b = 0) {
    if (cfg_.spans != nullptr) cfg_.spans->instant(phase, a, b);
  }

  static constexpr NodeId kNoNode = ~NodeId{0};

  Config cfg_;
  Transport& transport_;
  std::shared_ptr<std::atomic<bool>> done_;
  std::thread service_;

  mutable std::mutex mutex_;  // directory, exporter, pending, stats, orphans
  cache::DistributedDirectory directory_;
  steal::StealExporter* exporter_ = nullptr;
  std::unordered_map<ItemId, PendingFetch> pending_;
  PeerCacheStats stats_;
  std::deque<dnc::Region> orphans_;  // regions awaiting local re-adoption
  telemetry::NodeStatsFn stats_fn_;  // guarded by mutex_; invoked outside

  // --- telemetry instruments (lock-free recording) ---
  telemetry::MetricsRegistry metrics_;
  telemetry::LatencyHistogram* steal_rtt_ = nullptr;
  telemetry::LatencyHistogram* fetch_hit_ = nullptr;
  telemetry::LatencyHistogram* fetch_miss_ = nullptr;
  telemetry::LatencyHistogram* lease_slack_ = nullptr;
  telemetry::Counter* fetch_retries_ = nullptr;
  telemetry::Counter* frame_corrupt_ = nullptr;
  std::atomic<std::uint64_t> remote_steal_count_{0};
  std::atomic<std::uint64_t> trace_key_seq_{0};  // mesh-rooted trace keys

  /// Separate lock for the probe pointer: serving a probe copies a whole
  /// slot-sized buffer, which must not stall requester-side fetch
  /// bookkeeping or mediator lookups under mutex_.
  mutable std::mutex probe_mutex_;
  runtime::HostCacheProbe* probe_ = nullptr;

  std::vector<std::unique_ptr<StealCell>> cells_;

  // --- master state (service thread only) ---
  std::uint64_t results_seen_ = 0;   // user-delivered results (incl. recovered)
  std::unique_ptr<ResultLedger> ledger_;
  FailoverStats failover_;
  std::uint32_t death_epoch_ = 0;
  NodeId next_regrant_ = 0;  // round-robin survivor cursor
  std::vector<SnapState> snap_states_;  // telemetry fold, by publisher
  std::uint64_t cluster_snapshot_seq_ = 0;
  /// Nodes granted an end-game copy: never copied from, so no pair is
  /// speculated twice.
  std::vector<bool> copy_holders_;

  // --- durability state (service thread only; DESIGN.md §14) ---
  /// Which node holds the master role. Atomic because the ticker and the
  /// result-routing path read it from other threads; written only by the
  /// service thread (adoption, announce).
  std::atomic<NodeId> master_{kMaster};
  bool crashed_ = false;  // this node observed its own injected death
  bool completed_ = false;  // on_complete fired (guard across failover)
  std::vector<runtime::PairResult> batch_;  // accepted, awaiting flush
  NodeId standby_ = kNoNode;
  bool standby_needs_snapshot_ = true;
  std::uint64_t sync_seq_ = 0;
  std::uint32_t failover_epoch_ = 0;
  /// Standby side: the mirrored delivered set.
  std::vector<dnc::Pair> mirror_;
  std::uint64_t mirror_seq_ = 0;

  // --- liveness (shared between service thread and ticker) ---
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::unique_ptr<std::atomic<std::int64_t>[]> last_seen_ns_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t heartbeat_seq_ = 0;  // ticker thread only
  std::vector<bool> declared_;       // ticker thread only: verdicts sent
  std::uint64_t snapshot_seq_ = 0;   // ticker thread only
  std::chrono::steady_clock::time_point next_snapshot_{};  // ticker only

  std::thread ticker_;
  std::mutex ticker_mutex_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;  // guarded by ticker_mutex_
};

}  // namespace rocket::mesh
