#include "mesh/mesh_node.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/log.hpp"

namespace rocket::mesh {

namespace {

/// How long a thief waits for a steal reply before re-polling its local
/// deques. Replies normally arrive in microseconds (one inbox hop each
/// way); the timeout only matters when the victim's service thread is
/// busy, and the executor's idle backoff bounds how often we re-request.
constexpr auto kStealReplyTimeout = std::chrono::milliseconds(1);

std::chrono::steady_clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

using telemetry::trace_now;

}  // namespace

PeerCacheStats& operator+=(PeerCacheStats& a, const PeerCacheStats& b) {
  a.requests += b.requests;
  a.chain_hits += b.chain_hits;
  a.chain_misses += b.chain_misses;
  a.retries += b.retries;
  a.timeouts += b.timeouts;
  if (a.hits_at_hop.size() < b.hits_at_hop.size()) {
    a.hits_at_hop.resize(b.hits_at_hop.size(), 0);
  }
  for (std::size_t h = 0; h < b.hits_at_hop.size(); ++h) {
    a.hits_at_hop[h] += b.hits_at_hop[h];
  }
  return a;
}

FailoverStats& operator+=(FailoverStats& a, const FailoverStats& b) {
  a.node_deaths += b.node_deaths;
  a.regions_reexecuted += b.regions_reexecuted;
  a.duplicate_results_dropped += b.duplicate_results_dropped;
  a.results_received += b.results_received;
  a.regions_adopted += b.regions_adopted;
  a.master_failovers += b.master_failovers;
  a.regions_speculated += b.regions_speculated;
  a.pairs_speculated += b.pairs_speculated;
  return a;
}

// --- causal tracing helpers (DESIGN.md §16) -------------------------------

void MeshNode::record_child_span(const telemetry::SpanContext& parent,
                                 std::uint64_t salt,
                                 telemetry::SpanPhase phase, double start,
                                 double end) {
  if (cfg_.spans == nullptr || !parent.sampled()) return;
  cfg_.spans->record(telemetry::child_of(parent, salt), phase, start, end);
}

MeshNode::MeshNode(Config config, Transport& transport,
                   std::shared_ptr<std::atomic<bool>> done)
    : cfg_(std::move(config)), transport_(transport), done_(std::move(done)),
      directory_(cfg_.hop_limit),
      epoch_(std::chrono::steady_clock::now()) {
  stats_.hits_at_hop.assign(cfg_.hop_limit, 0);
  const auto p = transport_.num_nodes();
  dead_ = std::make_unique<std::atomic<bool>[]>(p);
  last_seen_ns_ = std::make_unique<std::atomic<std::int64_t>[]>(p);
  for (std::uint32_t k = 0; k < p; ++k) {
    dead_[k].store(false, std::memory_order_relaxed);
    last_seen_ns_[k].store(0, std::memory_order_relaxed);
  }
  declared_.assign(p, false);
  copy_holders_.assign(p, false);
  for (std::uint32_t w = 0; w < std::max(1u, cfg_.num_workers); ++w) {
    auto cell = std::make_unique<StealCell>();
    cell->rng.reseed(cfg_.seed * 0x9E3779B97F4A7C15ULL +
                     (static_cast<std::uint64_t>(cfg_.id) << 20) + w + 1);
    cells_.push_back(std::move(cell));
  }
  if (cfg_.ledger_items > 0 && !cfg_.initial_grants.empty() && is_master()) {
    ledger_ = std::make_unique<ResultLedger>(cfg_.ledger_items, p);
    for (NodeId node = 0; node < cfg_.initial_grants.size(); ++node) {
      for (const auto& region : cfg_.initial_grants[node]) {
        ledger_->grant(node, region, /*reexecution=*/false);
      }
    }
    // Resume: pairs a previous incarnation already delivered are marked
    // up front — they count toward completion but are never re-delivered
    // (the journal, not this run, is their system of record).
    for (const dnc::Pair& pair : cfg_.recovered) {
      if (ledger_->mark_recovered(pair.left, pair.right)) ++results_seen_;
    }
  }
  snap_states_.assign(p, SnapState{});
  steal_rtt_ = &metrics_.histogram("steal.rtt");
  fetch_hit_ = &metrics_.histogram("peer_fetch.hit");
  fetch_miss_ = &metrics_.histogram("peer_fetch.miss");
  lease_slack_ = &metrics_.histogram("lease.slack");
  fetch_retries_ = &metrics_.counter("peer_fetch.retry");
  frame_corrupt_ = &metrics_.counter("net.frame_corrupt");
}

MeshNode::~MeshNode() { join(); }

void MeshNode::start() {
  const auto p = transport_.num_nodes();
  // Resume edge case: the journal already covered every pair. Nothing
  // will ever arrive to trigger completion, so fire it up front.
  if (is_master() && cfg_.expected_pairs > 0 &&
      results_seen_ >= cfg_.expected_pairs && !completed_ &&
      cfg_.on_complete) {
    completed_ = true;
    cfg_.on_complete();
  }
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  for (std::uint32_t k = 0; k < p; ++k) {
    last_seen_ns_[k].store(now_ns, std::memory_order_relaxed);
  }
  service_ = std::thread([this] { serve_loop(); });
  // With failover every node may end up master, so every node runs both
  // the detector and heartbeats; the ticker branches on the CURRENT role.
  const bool detector =
      (is_master() || cfg_.failover) && cfg_.lease_timeout_s > 0;
  const bool heartbeats = (!is_master() || cfg_.failover) &&
                          cfg_.heartbeat_interval_s > 0 && p > 1;
  const bool deadlines = cfg_.fetch_timeout_s > 0;
  const bool snapshots = cfg_.snapshot_interval_s > 0;
  const bool master_tick = (cfg_.failover || cfg_.journal != nullptr) &&
                           cfg_.heartbeat_interval_s > 0;
  if (detector || heartbeats || deadlines || snapshots || master_tick) {
    ticker_ = std::thread([this] { ticker_loop(); });
  }
}

void MeshNode::join() {
  {
    std::scoped_lock lock(ticker_mutex_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  if (service_.joinable()) service_.join();
}

void MeshNode::serve_loop() {
  while (auto msg = transport_.recv(cfg_.id)) {
    // A killed node observes its own death at the next message boundary
    // and goes silent: queued messages are discarded, nothing is acted
    // on. (Sends already fail at the transport; this stops the master
    // from journalling or delivering results as a corpse.)
    if (!crashed_ && transport_.is_node_down(cfg_.id)) crashed_ = true;
    if (crashed_) continue;
    // Frame integrity (satellite: CRC every transport payload). A
    // corrupted frame is dropped before it renews a lease or reaches a
    // handler — the injector always follows it with a clean retransmit,
    // so dropping is the whole recovery.
    if (msg->crc != 0 && frame_crc(msg->body) != msg->crc) {
      frame_corrupt_->add();
      continue;
    }
    const NodeId from = msg->from;
    if (from < transport_.num_nodes()) {
      // Any traffic renews the sender's lease, not just heartbeats — a
      // node busy shipping results is evidently alive.
      const std::int64_t now_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - epoch_)
              .count();
      last_seen_ns_[from].store(now_ns, std::memory_order_release);
    }
    if (cfg_.flight != nullptr) {
      // Black box: every message that reached a handler, with its causal
      // ids when the body carries a sampled context (DESIGN.md §16).
      telemetry::SpanContext sc;
      std::visit(
          [&sc](const auto& body) {
            if constexpr (requires { body.span; }) sc = body.span;
          },
          msg->body);
      cfg_.flight->record(
          static_cast<std::uint16_t>(telemetry::kFlightMessageBase +
                                     msg->body.index()),
          cfg_.id, sc.trace_id, sc.span_id, from, 0);
    }
    std::visit(
        [this, from](auto&& body) {
          using Body = std::decay_t<decltype(body)>;
          if constexpr (std::is_same_v<Body, CacheRequest>) {
            on_cache_request(body);
          } else if constexpr (std::is_same_v<Body, CacheProbe>) {
            on_cache_probe(std::move(body));
          } else if constexpr (std::is_same_v<Body, CacheData>) {
            on_cache_data(std::move(body));
          } else if constexpr (std::is_same_v<Body, CacheFailure>) {
            on_cache_failure(body);
          } else if constexpr (std::is_same_v<Body, StealRequest>) {
            on_steal_request(body);
          } else if constexpr (std::is_same_v<Body, StealReply>) {
            on_steal_reply(body, from);
          } else if constexpr (std::is_same_v<Body, ResultMsg>) {
            on_result_msg(body);
          } else if constexpr (std::is_same_v<Body, Heartbeat>) {
            // Lease already renewed above; the body carries nothing else.
          } else if constexpr (std::is_same_v<Body, NodeDown>) {
            on_node_down(body, from);
          } else if constexpr (std::is_same_v<Body, StealExport>) {
            on_steal_export(body);
          } else if constexpr (std::is_same_v<Body, RegionGrant>) {
            on_region_grant(body);
          } else if constexpr (std::is_same_v<Body, TelemetrySnapshot>) {
            on_telemetry(body);
          } else if constexpr (std::is_same_v<Body, LedgerSync>) {
            on_ledger_sync(std::move(body));
          } else if constexpr (std::is_same_v<Body, MasterAnnounce>) {
            on_master_announce(body);
          } else if constexpr (std::is_same_v<Body, MasterTick>) {
            on_master_tick();
          } else if constexpr (std::is_same_v<Body, IdleNotice>) {
            on_idle_notice(body);
          }
        },
        std::move(msg->body));
  }
}

// --- ticker: heartbeats, failure detection, fetch deadlines ---------------

void MeshNode::ticker_loop() {
  // Tick at the finest enabled granularity (heartbeats may renew more
  // often than their nominal interval, which is harmless).
  double period_s = 1.0;
  if (cfg_.heartbeat_interval_s > 0) {
    period_s = std::min(period_s, cfg_.heartbeat_interval_s);
  }
  if ((is_master() || cfg_.failover) && cfg_.lease_timeout_s > 0) {
    period_s = std::min(period_s, cfg_.lease_timeout_s / 4);
  }
  if (cfg_.fetch_timeout_s > 0) {
    period_s = std::min(period_s, cfg_.fetch_timeout_s / 2);
  }
  if (cfg_.snapshot_interval_s > 0) {
    period_s = std::min(period_s, cfg_.snapshot_interval_s);
  }
  const auto tick = seconds_to_duration(std::max(period_s, 1e-4));
  next_snapshot_ = std::chrono::steady_clock::now();

  std::unique_lock lock(ticker_mutex_);
  // Phase jitter (DESIGN.md §15 satellite): N nodes constructed together
  // would otherwise renew leases and publish snapshots in lockstep,
  // hammering the master's inbox in p-message bursts each interval. A
  // deterministic per-node phase offset in [0, tick) — BackoffPolicy's
  // jitter fn salted by the node id — spreads the arrivals evenly.
  {
    const BackoffPolicy phase{period_s, period_s, 1.0, 0};
    const double phase_s = 0.5 * phase.delay_seconds(0, cfg_.id + 1);
    if (phase_s > 0 &&
        ticker_cv_.wait_for(lock, seconds_to_duration(phase_s),
                            [this] { return ticker_stop_; })) {
      return;
    }
  }
  while (!ticker_cv_.wait_for(lock, tick, [this] { return ticker_stop_; })) {
    lock.unlock();
    const NodeId master_now = master_.load(std::memory_order_acquire);
    const bool i_am_master = cfg_.id == master_now;
    const auto p = transport_.num_nodes();
    if (cfg_.heartbeat_interval_s > 0 && p > 1) {
      if (!i_am_master) {
        transport_.send(cfg_.id, master_now, net::Tag::kHeartbeat,
                        Heartbeat{cfg_.id, ++heartbeat_seq_});
      } else if (cfg_.failover) {
        // Failover needs the master's liveness to be observable too:
        // broadcast its lease renewal so every standby's master-watch
        // has something to time out on.
        ++heartbeat_seq_;
        for (NodeId peer = 0; peer < p; ++peer) {
          if (peer == cfg_.id || dead_[peer].load(std::memory_order_acquire)) {
            continue;
          }
          transport_.send(cfg_.id, peer, net::Tag::kHeartbeat,
                          Heartbeat{cfg_.id, heartbeat_seq_});
        }
      }
    }
    if (i_am_master && cfg_.lease_timeout_s > 0) check_leases();
    if (!i_am_master && cfg_.failover && cfg_.lease_timeout_s > 0) {
      check_master_lease();
    }
    if (i_am_master && (cfg_.failover || cfg_.journal != nullptr)) {
      // Periodic master duties (standby resync, partial-batch flush) run
      // on the service thread, where the ledger lives.
      transport_.send(cfg_.id, cfg_.id, net::Tag::kControl, MasterTick{});
    }
    if (cfg_.fetch_timeout_s > 0) check_fetch_deadlines();
    if (cfg_.snapshot_interval_s > 0 &&
        std::chrono::steady_clock::now() >= next_snapshot_) {
      next_snapshot_ = std::chrono::steady_clock::now() +
                       seconds_to_duration(cfg_.snapshot_interval_s);
      publish_snapshot();
    }
    lock.lock();
  }
}

void MeshNode::check_leases() {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  const auto lease_ns =
      static_cast<std::int64_t>(cfg_.lease_timeout_s * 1e9);
  const auto p = transport_.num_nodes();
  for (NodeId k = 0; k < p; ++k) {
    if (k == cfg_.id || declared_[k]) continue;
    if (dead_[k].load(std::memory_order_acquire)) {
      declared_[k] = true;
      continue;
    }
    const std::int64_t silence_ns =
        now_ns - last_seen_ns_[k].load(std::memory_order_acquire);
    if (silence_ns < lease_ns) {
      // Lease slack: how much margin the node had left when the detector
      // looked. A slack distribution hugging zero means the timeout is
      // about to false-positive on a healthy-but-busy cluster.
      lease_slack_->record_ns(static_cast<std::uint64_t>(lease_ns - silence_ns));
      continue;
    }
    declared_[k] = true;
    // Deliver the verdict through our own inbox so every ledger mutation
    // happens on the service thread. A false positive (slow node, not a
    // dead one) is safe: its late results still dedup per pair.
    transport_.send(cfg_.id, cfg_.id, net::Tag::kFailover, NodeDown{k, 0});
  }
}

void MeshNode::check_master_lease() {
  // Standby side of failover: watch the CURRENT master's lease the same
  // way the master watches everyone else's. The verdict goes through our
  // own inbox; the service thread decides whether this node is the
  // lowest live survivor and must adopt.
  const NodeId m = master_.load(std::memory_order_acquire);
  if (m == cfg_.id || m >= transport_.num_nodes() || declared_[m]) return;
  if (dead_[m].load(std::memory_order_acquire)) {
    declared_[m] = true;
    return;
  }
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  const auto lease_ns = static_cast<std::int64_t>(cfg_.lease_timeout_s * 1e9);
  const std::int64_t silence_ns =
      now_ns - last_seen_ns_[m].load(std::memory_order_acquire);
  if (silence_ns < lease_ns) return;
  declared_[m] = true;
  transport_.send(cfg_.id, cfg_.id, net::Tag::kFailover, NodeDown{m, 0});
}

void MeshNode::check_fetch_deadlines() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<ItemId, telemetry::SpanContext>> retry;
  std::vector<ItemId> expired;
  {
    std::scoped_lock lock(mutex_);
    for (auto& [item, pending] : pending_) {
      if (pending.deadline.time_since_epoch().count() == 0 ||
          now < pending.deadline) {
        continue;
      }
      if (pending.attempts < cfg_.max_fetch_retries) {
        ++pending.attempts;
        // Shared jittered-exponential policy (common/backoff.hpp): base =
        // one fetch timeout, doubling per attempt, salted by the item id
        // so concurrent retriers don't retransmit in lockstep.
        const BackoffPolicy policy{cfg_.fetch_timeout_s,
                                   cfg_.fetch_timeout_s * 1024.0, 0.25, 10};
        pending.deadline = now + seconds_to_duration(policy.delay_seconds(
                                     pending.attempts, item));
        ++stats_.retries;
        fetch_retries_->add();
        record_instant(telemetry::SpanPhase::kFetchRetry,
                       static_cast<std::uint32_t>(item), pending.attempts);
        retry.emplace_back(item, pending.span);
      } else {
        ++stats_.timeouts;
        expired.push_back(item);
      }
    }
  }
  const auto p = transport_.num_nodes();
  for (const auto& [item, span] : retry) {
    const NodeId mediator = cache::DistributedDirectory::mediator_of(item, p);
    if (dead_[mediator].load(std::memory_order_acquire) ||
        !transport_.send(cfg_.id, mediator, net::Tag::kCacheRequest,
                         CacheRequest{item, cfg_.id, span})) {
      complete_fetch(item, {}, 0, false);
    }
  }
  for (const ItemId item : expired) complete_fetch(item, {}, 0, false);
}

// --- requester side: peer fetch ------------------------------------------

void MeshNode::fetch(ItemId item, DoneFn done, telemetry::SpanContext ctx) {
  const auto p = transport_.num_nodes();
  if (p < 2 || cfg_.hop_limit == 0) {
    done({});
    return;
  }
  if (cfg_.spans != nullptr && ctx.sampled()) {
    // The fetch's own peer.fetch span: closed by complete_fetch (aborted
    // on a miss or failure), or by the teardown sweep if this node dies
    // with the fetch still in flight.
    cfg_.spans->open(ctx, telemetry::SpanPhase::kPeerFetch, trace_now());
  }
  const NodeId mediator = cache::DistributedDirectory::mediator_of(item, p);
  {
    std::scoped_lock lock(mutex_);
    ++stats_.requests;
    // The host cache admits one writer per item, so one outstanding fetch
    // per item per node.
    ROCKET_CHECK(pending_.find(item) == pending_.end(),
                 "duplicate peer fetch for item");
    auto& pending = pending_[item];
    pending.done = std::move(done);
    pending.t0 = std::chrono::steady_clock::now();
    pending.span = ctx;
    if (cfg_.fetch_timeout_s > 0) {
      pending.deadline = pending.t0 + seconds_to_duration(cfg_.fetch_timeout_s);
    }
  }
  // Dead-peer fast path: a mediator already declared dead is not worth a
  // deadline wait; fall straight back to the object store.
  if (dead_[mediator].load(std::memory_order_acquire) ||
      !transport_.send(cfg_.id, mediator, net::Tag::kCacheRequest,
                       CacheRequest{item, cfg_.id, ctx})) {
    complete_fetch(item, {}, 0, false);  // mediator unreachable
  }
}

void MeshNode::complete_fetch(ItemId item, runtime::PeerPayload payload,
                              std::uint32_t hops, bool hit) {
  DoneFn done;
  std::chrono::steady_clock::time_point t0{};
  telemetry::SpanContext span;
  {
    std::scoped_lock lock(mutex_);
    const auto it = pending_.find(item);
    if (it == pending_.end()) return;
    done = std::move(it->second.done);
    t0 = it->second.t0;
    span = it->second.span;
    pending_.erase(it);
    if (hit) {
      ++stats_.chain_hits;
      if (hops >= 1 && hops <= stats_.hits_at_hop.size()) {
        ++stats_.hits_at_hop[hops - 1];
      }
    } else {
      ++stats_.chain_misses;
    }
    directory_.record_chain_outcome(hit, hops);
  }
  if (cfg_.spans != nullptr && span.sampled()) {
    // A miss closes the span as aborted: the causal chain ends here and
    // the tile falls back to the object-store load path.
    cfg_.spans->close(span.span_id, trace_now(), /*aborted=*/!hit);
  }
  if (t0.time_since_epoch().count() != 0) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    (hit ? fetch_hit_ : fetch_miss_)->record_seconds(elapsed);
  }
  done(std::move(payload));
}

void MeshNode::on_cache_data(CacheData data) {
  if (data.span.sampled()) {
    // Zero-width arrival span, child of the serving candidate's
    // peer.serve span: the return edge of the cross-node arrow pair.
    const double now = trace_now();
    record_child_span(data.span, 0x72656376 /* 'recv' */,
                      telemetry::SpanPhase::kPeerFetch, now, now);
  }
  complete_fetch(data.item,
                 runtime::PeerPayload{std::move(data.bytes), data.compressed},
                 data.hop, true);
}

void MeshNode::on_cache_failure(const CacheFailure& failure) {
  complete_fetch(failure.item, {}, failure.hops, false);
}

// --- mediator / candidate side -------------------------------------------

void MeshNode::on_cache_request(const CacheRequest& req) {
  std::vector<NodeId> chain;
  {
    std::scoped_lock lock(mutex_);
    // The directory retains at most h candidates, so the chain already
    // respects the hop limit (and the walk cap, when configured).
    chain = directory_.on_request(req.item, req.requester);
  }
  forward_probe(req.item, req.requester, std::move(chain), 0, req.span);
}

void MeshNode::forward_probe(ItemId item, NodeId requester,
                             std::vector<NodeId> chain, std::uint32_t index,
                             const telemetry::SpanContext& span) {
  const auto hops = static_cast<std::uint32_t>(chain.size());
  for (std::uint32_t k = index; k < chain.size(); ++k) {
    const NodeId candidate = chain[k];
    // Declared-dead candidates are skipped without a wire attempt; a
    // rejected send (transport-level down) skips the hop exactly like a
    // probe miss.
    if (dead_[candidate].load(std::memory_order_acquire)) continue;
    if (transport_.send(cfg_.id, candidate, net::Tag::kCacheForward,
                        CacheProbe{item, requester, chain, k, span})) {
      return;
    }
  }
  transport_.send(cfg_.id, requester, net::Tag::kCacheFailure,
                  CacheFailure{item, hops, span});
}

void MeshNode::on_cache_probe(CacheProbe probe) {
  const double t0 =
      cfg_.spans != nullptr && probe.span.sampled() ? trace_now() : 0.0;
  runtime::HostBuffer bytes;
  bool hit = false;
  {
    std::scoped_lock lock(probe_mutex_);
    if (probe_ != nullptr) hit = probe_->probe(probe.item, bytes);
  }
  if (hit) {
    telemetry::SpanContext serve;
    if (cfg_.spans != nullptr && probe.span.sampled()) {
      // peer.serve: this candidate's side of the fetch. Its id rides on
      // the CacheData so the requester's arrival span links back — the
      // pair of parent links is what Perfetto renders as two arrows
      // (requester → candidate, candidate → requester).
      serve = telemetry::child_of(probe.span, 0x73657276 /* 'serv' */);
      cfg_.spans->record(serve, telemetry::SpanPhase::kPeerServe, t0,
                         trace_now());
    }
    const Bytes payload = bytes.size();
    transport_.send(
        cfg_.id, probe.requester, net::Tag::kCacheData,
        CacheData{probe.item, probe.index + 1, false, std::move(bytes), serve},
        payload);
    return;
  }
  forward_probe(probe.item, probe.requester, std::move(probe.chain),
                probe.index + 1, probe.span);
}

// --- stealing -------------------------------------------------------------

std::optional<dnc::Region> MeshNode::remote_steal(std::uint32_t worker) {
  const auto p = transport_.num_nodes();
  if (p < 2) return std::nullopt;
  // Orphans first: re-execution grants parked here and regions this node
  // failed to ship to a dead thief.
  {
    std::scoped_lock lock(mutex_);
    if (!orphans_.empty()) {
      const dnc::Region out = orphans_.front();
      orphans_.pop_front();
      remote_steal_count_.fetch_add(1, std::memory_order_relaxed);
      record_instant(telemetry::SpanPhase::kRemoteSteal, worker, 1);
      return out;
    }
  }
  auto& cell = *cells_[worker % cells_.size()];
  std::unique_lock lock(cell.mutex);
  if (!cell.regions.empty()) {
    const dnc::Region out = cell.regions.front();
    cell.regions.pop_front();
    remote_steal_count_.fetch_add(1, std::memory_order_relaxed);
    record_instant(telemetry::SpanPhase::kRemoteSteal, worker, 1);
    return out;
  }
  if (global_done()) return std::nullopt;
  const auto t0 = std::chrono::steady_clock::now();
  if (cell.outstanding == 0) {
    // Uniform victim among the other live nodes (with nobody dead this
    // draws the same victim sequence as the pre-failure-model code). A
    // slow node is a victim like any other: stealing is what moves its
    // queued work (DESIGN.md §15).
    std::vector<NodeId> victims;
    victims.reserve(p - 1);
    for (NodeId v = 0; v < p; ++v) {
      if (v == cfg_.id || dead_[v].load(std::memory_order_acquire)) continue;
      victims.push_back(v);
    }
    if (victims.empty()) return std::nullopt;
    const NodeId victim = victims[cell.rng.uniform_index(victims.size())];
    ++cell.outstanding;
    telemetry::SpanContext steal_ctx;
    if (tracing()) {
      // Mesh-rooted trace: a steal has no tile context of its own. One
      // node-wide key counter keeps every mesh-rooted key distinct; the
      // folded node id keeps concurrent nodes' draws independent.
      steal_ctx = mesh_trace(
          (std::uint64_t{cfg_.id} << 40) ^
          trace_key_seq_.fetch_add(1, std::memory_order_relaxed));
      if (steal_ctx.sampled()) {
        if (cell.span.sampled()) {
          // The previous request timed out and its reply never arrived
          // (dead victim): close it rather than leaking an open span.
          cfg_.spans->close(cell.span.span_id, trace_now(), true);
        }
        cell.span = steal_ctx;
        cfg_.spans->open(steal_ctx, telemetry::SpanPhase::kSteal,
                         trace_now());
      }
    }
    lock.unlock();
    const bool sent =
        transport_.send(cfg_.id, victim, net::Tag::kStealRequest,
                        StealRequest{cfg_.id, worker, steal_ctx});
    lock.lock();
    if (!sent) {
      --cell.outstanding;
      if (cfg_.spans != nullptr && steal_ctx.sampled()) {
        cfg_.spans->close(steal_ctx.span_id, trace_now(), true);
        cell.span = {};
      }
      return std::nullopt;
    }
  }
  cell.cv.wait_for(lock, kStealReplyTimeout, [&] {
    return !cell.regions.empty() || global_done();
  });
  if (!cell.regions.empty()) {
    const dnc::Region out = cell.regions.front();
    cell.regions.pop_front();
    remote_steal_count_.fetch_add(1, std::memory_order_relaxed);
    steal_rtt_->record_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    record_instant(telemetry::SpanPhase::kRemoteSteal, worker, 1);
    return out;
  }
  // Timed out: treat the request as lost so the next attempt may try
  // another victim. `outstanding` is a throttle, not an exact count — a
  // late reply still parks its region in the cell (never lost), and the
  // guarded decrement in on_steal_reply keeps it non-negative.
  if (cell.outstanding > 0) --cell.outstanding;
  return std::nullopt;
}

void MeshNode::on_steal_request(const StealRequest& req) {
  const double t0 =
      cfg_.spans != nullptr && req.span.sampled() ? trace_now() : 0.0;
  std::optional<dnc::Region> region;
  {
    std::scoped_lock lock(mutex_);
    if (exporter_ != nullptr) region = exporter_->try_steal();
  }
  telemetry::SpanContext serve;
  if (cfg_.spans != nullptr && req.span.sampled()) {
    // steal.serve: the victim's side, child of the thief's steal span
    // (forward arrow); its id rides on the reply for the return arrow.
    serve = telemetry::child_of(req.span, 0x76696374 /* 'vict' */);
    cfg_.spans->record(serve, telemetry::SpanPhase::kStealServe, t0,
                       trace_now(), /*aborted=*/!region.has_value());
  }
  StealReply reply{req.worker, region.has_value(),
                   region.value_or(dnc::Region{}), serve};
  if (!transport_.send(cfg_.id, req.thief, net::Tag::kStealReply,
                       std::move(reply))) {
    if (region.has_value()) {
      // The thief vanished after we popped the region: park it as an
      // orphan so this node's own idle workers re-adopt it (they keep
      // polling remote_steal until the cluster is done, and the orphan's
      // pairs keep the done flag false) — pairs are never lost to a dead
      // peer.
      std::scoped_lock lock(mutex_);
      orphans_.push_back(*region);
    }
    return;
  }
  if (region.has_value() && cfg_.export_leases) {
    // Lease transfer notice, sent only AFTER the reply demonstrably
    // reached the thief's inbox: from here on the thief owns the region,
    // and the master's ledger must re-grant it if the *thief* dies (the
    // victim's own death no longer covers these pairs).
    transport_.send(cfg_.id, current_master(), net::Tag::kFailover,
                    StealExport{*region, req.thief, serve});
  }
}

void MeshNode::on_steal_reply(const StealReply& reply, NodeId from) {
  auto& cell = *cells_[reply.worker % cells_.size()];
  telemetry::SpanContext steal_ctx;
  {
    std::scoped_lock lock(cell.mutex);
    if (cell.outstanding > 0) --cell.outstanding;
    if (reply.has_region) cell.regions.push_back(reply.region);
    steal_ctx = std::exchange(cell.span, telemetry::SpanContext{});
  }
  if (cfg_.spans != nullptr && steal_ctx.sampled()) {
    const double now = trace_now();
    cfg_.spans->close(steal_ctx.span_id, now, /*aborted=*/!reply.has_region);
    if (reply.span.sampled()) {
      // Return edge: the reply's arrival, child of the victim's serve.
      record_child_span(reply.span, 0x61646f70 /* 'adop' */,
                        telemetry::SpanPhase::kSteal, now, now);
    }
  }
  cell.cv.notify_all();
  if (cfg_.speculation && !reply.has_region && !global_done()) {
    // End game (DESIGN.md §15): the victim had nothing queued. The master
    // decides whether this node is idle and the victim worth copying.
    transport_.send(cfg_.id, current_master(), net::Tag::kFailover,
                    IdleNotice{cfg_.id, from});
  }
}

void MeshNode::wake() {
  for (auto& cell : cells_) {
    std::scoped_lock lock(cell->mutex);
    cell->cv.notify_all();
  }
}

// --- master: results, deaths, re-grants -----------------------------------

void MeshNode::on_result_msg(const ResultMsg& msg) {
  // A result can only land on a non-master through stale routing to a
  // corpse (whose sends already fail) — a live non-master never receives
  // one, but guard anyway: acting would fork the aggregation.
  if (!is_master()) return;
  if (msg.span.sampled()) {
    // Arrival edge of a sampled tile's result-delivery hop (worker →
    // master); its parent is the tile's result.deliver span.
    const double now = trace_now();
    record_child_span(msg.span, 0x6d737472 /* 'mstr' */,
                      telemetry::SpanPhase::kDeliver, now, now);
  }
  // The batch is one tile's results; dedup, delivery and flushing stay
  // per pair. The death check the serve loop makes between messages is
  // repeated between pairs, so a kill stops the walk mid-batch exactly
  // where a per-pair message stream would have stopped.
  for (const runtime::PairResult& result : msg.results) {
    if (transport_.is_node_down(cfg_.id)) {
      crashed_ = true;
      return;
    }
    ++failover_.results_received;
    if (ledger_ != nullptr && !ledger_->record(result.left, result.right)) {
      // Duplicate: a re-executed pair whose original owner also
      // delivered, or a late result from a node declared dead. Dropped,
      // never double-counted — the exactly-once invariant (DESIGN.md §12).
      continue;
    }
    batch_.push_back(result);
    if (batch_.size() >= cfg_.result_batch_pairs ||
        results_seen_ + batch_.size() >= cfg_.expected_pairs) {
      flush_results();
    }
  }
}

// --- durability: flush ordering, standby mirror, adoption (§14) -----------

void MeshNode::flush_results() {
  if (batch_.empty()) return;
  // Step 1: a corpse flushes nothing. (The kill may have landed between
  // accepting the batch and now, via any thread's send firing the fault
  // injector.)
  if (transport_.is_node_down(cfg_.id)) {
    crashed_ = true;
    batch_.clear();
    return;
  }
  // Step 2: mirror before anything externally visible. A failed sync
  // means WE are down (sync_to_standby only fails for self-death):
  // abort the whole flush — no journal record, no user delivery — so
  // mirror, journal and delivered stay exactly equal and the adopter's
  // re-grant covers the dropped batch.
  if (cfg_.failover && !sync_to_standby()) {
    crashed_ = true;
    batch_.clear();
    return;
  }
  // Step 3: journal. No send happens between here and delivery, so the
  // injected crash model cannot separate them — a journalled batch IS a
  // delivered batch, which is what makes resume's replay exact.
  if (cfg_.journal != nullptr) cfg_.journal->append_results(batch_);
  // Step 4: deliver and account.
  for (const runtime::PairResult& result : batch_) {
    if (cfg_.on_result) cfg_.on_result(result);
  }
  results_seen_ += batch_.size();
  batch_.clear();
  if (results_seen_ >= cfg_.expected_pairs && !completed_ &&
      cfg_.on_complete) {
    completed_ = true;
    cfg_.on_complete();
  }
}

bool MeshNode::sync_to_standby() {
  const auto p = transport_.num_nodes();
  for (NodeId k = 0; k < p; ++k) {
    if (k == cfg_.id || dead_[k].load(std::memory_order_acquire)) continue;
    const bool fresh = (k != standby_) || standby_needs_snapshot_;
    LedgerSync sync;
    sync.master = cfg_.id;
    sync.seq = ++sync_seq_;
    sync.snapshot = fresh;
    if (fresh) {
      // Full snapshot: the ledger already recorded the pending batch at
      // accept time, so delivered_pairs() covers it — no separate delta.
      if (ledger_ != nullptr) sync.pairs = ledger_->delivered_pairs();
    } else {
      sync.pairs.reserve(batch_.size());
      for (const runtime::PairResult& result : batch_) {
        sync.pairs.push_back(dnc::Pair{result.left, result.right});
      }
    }
    const Bytes payload = sync.pairs.size() * sizeof(dnc::Pair);
    if (transport_.send(cfg_.id, k, net::Tag::kLedgerSync, std::move(sync),
                        payload)) {
      standby_ = k;
      standby_needs_snapshot_ = false;
      return true;
    }
    // Send failed: either the candidate just died (try the next, with a
    // snapshot) or we did (fatal for this flush).
    if (transport_.is_node_down(cfg_.id)) return false;
  }
  // No live peer to mirror to: a single survivor needs no standby.
  standby_ = kNoNode;
  standby_needs_snapshot_ = true;
  return !transport_.is_node_down(cfg_.id);
}

void MeshNode::on_ledger_sync(LedgerSync sync) {
  if (sync.master == cfg_.id) return;
  // In-process delivery is FIFO per sender; the seq guard only matters
  // across a master change (a stale ex-master's delta must not splice
  // into the new master's stream — snapshots reset the stream).
  if (!sync.snapshot && sync.seq <= mirror_seq_) return;
  mirror_seq_ = sync.seq;
  if (sync.snapshot) {
    mirror_ = std::move(sync.pairs);
  } else {
    mirror_.insert(mirror_.end(), sync.pairs.begin(), sync.pairs.end());
  }
}

void MeshNode::on_master_announce(const MasterAnnounce& ann) {
  if (ann.master >= transport_.num_nodes() || ann.master == cfg_.id) return;
  master_.store(ann.master, std::memory_order_release);
  failover_epoch_ = std::max(failover_epoch_, ann.epoch);
  wake();
}

void MeshNode::on_master_tick() {
  if (crashed_ || !is_master()) return;
  if (!batch_.empty()) {
    // Bounded staleness: a partial batch flushes within one tick even if
    // results trickle in slower than result_batch_pairs.
    flush_results();
    return;
  }
  if (cfg_.failover && standby_needs_snapshot_) sync_to_standby();
}

void MeshNode::adopt_master(NodeId dead_master) {
  const auto p = transport_.num_nodes();
  master_.store(cfg_.id, std::memory_order_release);
  ++failover_epoch_;
  ++failover_.master_failovers;
  // The master's death verdict is issued here, by the node that acts on
  // it — the old master obviously cannot count its own death.
  ++death_epoch_;
  ++failover_.node_deaths;
  record_instant(telemetry::SpanPhase::kNodeDeath, dead_master, death_epoch_);
  record_instant(telemetry::SpanPhase::kMasterFailover, cfg_.id,
                 failover_epoch_);
  // Rebuild the aggregation state: everything starts as the dead
  // master's lease, then the mirrored + recovered pairs are marked
  // delivered. The mirror equals the dead master's user-delivered set
  // exactly (flush step 2 precedes step 4 with no send between, and a
  // snapshot outside a flush is sent only with no batch pending), so
  // results_seen_ resumes at the true delivered count.
  ledger_ = std::make_unique<ResultLedger>(cfg_.ledger_items, p);
  ledger_->grant(dead_master, dnc::root_region(cfg_.ledger_items),
                 /*reexecution=*/false);
  results_seen_ = 0;
  for (const dnc::Pair& pair : cfg_.recovered) {
    if (ledger_->mark_recovered(pair.left, pair.right)) ++results_seen_;
  }
  for (const dnc::Pair& pair : mirror_) {
    if (ledger_->mark_recovered(pair.left, pair.right)) ++results_seen_;
  }
  mirror_.clear();
  batch_.clear();
  standby_ = kNoNode;
  standby_needs_snapshot_ = true;
  // Fresh leases for everyone: the new master's detector must not
  // declare survivors dead for silence accumulated under the old reign.
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  for (NodeId k = 0; k < p; ++k) {
    last_seen_ns_[k].store(now_ns, std::memory_order_release);
  }
  // Announce, and spread the death verdict (peers that detected the
  // master's death themselves dedup on dead_).
  for (NodeId peer = 0; peer < p; ++peer) {
    if (peer == cfg_.id || dead_[peer].load(std::memory_order_acquire)) {
      continue;
    }
    transport_.send(cfg_.id, peer, net::Tag::kFailover,
                    MasterAnnounce{cfg_.id, failover_epoch_});
    transport_.send(cfg_.id, peer, net::Tag::kFailover,
                    NodeDown{dead_master, death_epoch_});
  }
  // Conservative re-grant of the ENTIRE undelivered frontier. Required,
  // not an optimisation: results in flight to the dead master were
  // silently dropped with its inbox, and a live node that already sent a
  // pair there will never resend it — only re-execution recovers those
  // pairs, and the ledger's dedup absorbs the overlap with regions still
  // being computed.
  if (results_seen_ >= cfg_.expected_pairs) {
    if (!completed_ && cfg_.on_complete) {
      completed_ = true;
      cfg_.on_complete();
    }
    return;
  }
  for (const dnc::Region& region : ledger_->undelivered_of(dead_master)) {
    regrant_region(region);
  }
}

void MeshNode::on_node_down(const NodeDown& down, NodeId from) {
  const auto p = transport_.num_nodes();
  if (down.node >= p || down.node == cfg_.id) return;
  if (dead_[down.node].exchange(true, std::memory_order_acq_rel)) return;
  {
    std::scoped_lock lock(mutex_);
    // Mediator prune: never hand a dead node out as a candidate again.
    directory_.remove_node(down.node);
  }
  if (cfg_.failover && !is_master() &&
      down.node == master_.load(std::memory_order_acquire)) {
    // The master is gone. The lowest live node adopts; everyone else
    // waits for its MasterAnnounce (re-routing on dead_ in the
    // meantime). Every node ranks survivors the same way, so at most
    // one adopter emerges per death.
    NodeId lowest = cfg_.id;
    for (NodeId k = 0; k < p; ++k) {
      if (!dead_[k].load(std::memory_order_acquire)) {
        lowest = k;
        break;
      }
    }
    if (lowest == cfg_.id) adopt_master(down.node);
    wake();
    return;
  }
  if (is_master() && down.node == standby_) {
    // The mirror target died: re-establish it immediately so the
    // exposure window (results flushed but mirrored nowhere live) stays
    // one batch wide. A pending batch flushes instead of riding a bare
    // snapshot: the mirror must equal the delivered set, or an adopter
    // would count the batch delivered and never re-grant it (§14.3).
    standby_ = kNoNode;
    standby_needs_snapshot_ = true;
    if (cfg_.failover && !crashed_) {
      if (batch_.empty()) {
        sync_to_standby();
      } else {
        flush_results();
      }
    }
  }
  if (is_master() && from == cfg_.id) {
    // Locally-originated verdict (our own failure detector): broadcast to
    // the survivors, then re-grant the dead node's uncompleted lease.
    ++death_epoch_;
    ++failover_.node_deaths;
    record_instant(telemetry::SpanPhase::kNodeDeath, down.node,
                   death_epoch_);
    for (NodeId peer = 0; peer < p; ++peer) {
      if (peer == cfg_.id || dead_[peer].load(std::memory_order_acquire)) {
        continue;
      }
      transport_.send(cfg_.id, peer, net::Tag::kFailover,
                      NodeDown{down.node, death_epoch_});
    }
    if (ledger_ != nullptr) {
      for (const auto& region : ledger_->undelivered_of(down.node)) {
        regrant_region(region);
      }
    }
  }
  wake();
}

void MeshNode::on_steal_export(const StealExport& exp) {
  if (exp.span.sampled()) {
    // Third leg of a sampled steal: the lease-transfer notice reaching
    // the master (victim → master arrow, child of the serve span).
    const double now = trace_now();
    record_child_span(exp.span, 0x78707274 /* 'xprt' */,
                      telemetry::SpanPhase::kSteal, now, now);
  }
  if (ledger_ == nullptr || exp.thief >= transport_.num_nodes()) return;
  if (!dead_[exp.thief].load(std::memory_order_acquire)) {
    ledger_->transfer(exp.region, exp.thief);
    return;
  }
  // The thief died between the victim's reply and this notice landing:
  // no live node holds the region any more — re-grant it immediately.
  regrant_region(exp.region);
}

void MeshNode::on_region_grant(const RegionGrant& grant) {
  if (grant.span.sampled()) {
    // Adoption edge of a sampled re-grant (master → survivor arrow).
    const double now = trace_now();
    record_child_span(grant.span, 0x61646f70 /* 'adop' */,
                      telemetry::SpanPhase::kGrant, now, now);
  }
  {
    std::scoped_lock lock(mutex_);
    orphans_.push_back(grant.region);
  }
  ++failover_.regions_adopted;
  record_instant(telemetry::SpanPhase::kRegionAdopt, cfg_.id, grant.epoch);
  wake();
}

NodeId MeshNode::pick_survivor() {
  const auto p = transport_.num_nodes();
  for (std::uint32_t step = 0; step < p; ++step) {
    const NodeId candidate = next_regrant_;
    next_regrant_ = (next_regrant_ + 1) % p;
    if (!dead_[candidate].load(std::memory_order_acquire)) return candidate;
  }
  return cfg_.id;  // everyone else is gone: the master executes it
}

void MeshNode::regrant_region(const dnc::Region& region) {
  if (dnc::count_pairs(region) == 0) return;
  const NodeId to = pick_survivor();
  record_instant(telemetry::SpanPhase::kRegionRegrant, to,
                 static_cast<std::uint32_t>(std::min<std::uint64_t>(
                     dnc::count_pairs(region), UINT32_MAX)));
  regrant_region_to(region, to);
}

void MeshNode::regrant_region_to(const dnc::Region& region, NodeId to) {
  if (to != cfg_.id) {
    ledger_->grant(to, region, /*reexecution=*/true);
    telemetry::SpanContext grant;
    double t0 = 0.0;
    if (tracing()) {
      // region.grant roots its own mesh trace (same key counter as the
      // steal spans, so keys never collide within this node).
      grant = mesh_trace(
          (std::uint64_t{cfg_.id} << 40) ^
          trace_key_seq_.fetch_add(1, std::memory_order_relaxed));
      t0 = trace_now();
    }
    if (transport_.send(cfg_.id, to, net::Tag::kFailover,
                        RegionGrant{region, death_epoch_, grant})) {
      if (cfg_.spans != nullptr && grant.sampled()) {
        cfg_.spans->record(grant, telemetry::SpanPhase::kGrant, t0,
                           trace_now());
      }
      return;
    }
    // The chosen survivor is unreachable after all: take the lease back
    // so the ledger matches who will actually run it.
    ledger_->grant(cfg_.id, region, /*reexecution=*/false);
  } else {
    ledger_->grant(cfg_.id, region, /*reexecution=*/true);
  }
  {
    std::scoped_lock lock(mutex_);
    orphans_.push_back(region);
  }
  ++failover_.regions_adopted;
  record_instant(telemetry::SpanPhase::kRegionAdopt, cfg_.id, death_epoch_);
  wake();
}

// --- telemetry: snapshot stream (DESIGN.md §13) ---------------------------

void MeshNode::publish_snapshot() {
  telemetry::NodeStats stats;
  {
    // The sampler is invoked under mutex_ — the same contract as the
    // probe's lock — so register_stats({}) at engine teardown strictly
    // happens-before or happens-after any sampling, never mid-destruction.
    // The sampler only reads engine atomics and cache shard stats; nothing
    // it touches takes mutex_ back.
    std::scoped_lock lock(mutex_);
    if (stats_fn_) stats = stats_fn_();
    stats.peer_loads = stats_.chain_hits;
  }
  stats.remote_steals = remote_steal_count_.load(std::memory_order_relaxed);
  transport_.send(cfg_.id, current_master(), net::Tag::kTelemetry,
                  TelemetrySnapshot{cfg_.id, ++snapshot_seq_, stats});
}

void MeshNode::on_telemetry(const TelemetrySnapshot& snap) {
  if (!is_master() || snap.node >= snap_states_.size()) return;
  const auto now = std::chrono::steady_clock::now();
  SnapState& state = snap_states_[snap.node];
  if (state.seen) {
    state.prev = state.last;
    state.prev_at = state.last_at;
  }
  state.last = snap.stats;
  state.last_at = now;
  state.seen = true;

  // One ClusterSnapshot per master interval: the master publishes through
  // its own inbox like everyone else, so its own sample is the metronome.
  if (snap.node != cfg_.id || !cfg_.on_snapshot) return;

  telemetry::ClusterSnapshot cluster;
  cluster.seq = ++cluster_snapshot_seq_;
  cluster.uptime_seconds =
      std::chrono::duration<double>(now - epoch_).count();
  for (NodeId k = 0; k < snap_states_.size(); ++k) {
    const SnapState& s = snap_states_[k];
    if (!s.seen) continue;
    telemetry::NodeSnapshot ns;
    ns.node = k;
    ns.alive = !dead_[k].load(std::memory_order_acquire);
    ns.age_seconds = std::chrono::duration<double>(now - s.last_at).count();
    ns.stats = s.last;
    const double dt =
        std::chrono::duration<double>(s.last_at - s.prev_at).count();
    if (s.prev_at.time_since_epoch().count() != 0 && dt > 0) {
      ns.pairs_per_sec =
          static_cast<double>(s.last.pairs - s.prev.pairs) / dt;
      const std::uint32_t lanes = std::max(s.last.lanes, 1u);
      ns.busy_fraction = (s.last.busy_seconds - s.prev.busy_seconds) /
                         (dt * static_cast<double>(lanes));
    }
    // Staleness fix: a publisher two intervals silent is not still
    // delivering at its last-known rate — the frozen delta above would
    // otherwise report a phantom rate for as long as the node stays
    // quiet (a dead node's last sample never decays). Zero the
    // instantaneous fields; the cumulative stats keep their last sample.
    if (!ns.alive || ns.age_seconds > 2.0 * cfg_.snapshot_interval_s) {
      ns.pairs_per_sec = 0.0;
      ns.busy_fraction = 0.0;
    }
    const std::uint64_t lookups = s.last.cache_hits + s.last.cache_fills;
    if (lookups > 0) {
      ns.cache_hit_rate = static_cast<double>(s.last.cache_hits) /
                          static_cast<double>(lookups);
    }
    cluster.total_pairs += s.last.pairs;
    cluster.cluster_pairs_per_sec += ns.pairs_per_sec;
    cluster.nodes.push_back(std::move(ns));
  }
  cfg_.on_snapshot(cluster);
}

// --- end-game speculation (DESIGN.md §15) ---------------------------------

void MeshNode::on_idle_notice(const IdleNotice& notice) {
  const auto p = transport_.num_nodes();
  if (!is_master() || ledger_ == nullptr || notice.node >= p ||
      notice.victim >= p || notice.node == notice.victim) {
    return;
  }
  const auto live_source = [this](NodeId k) {
    return !dead_[k].load(std::memory_order_acquire) && !copy_holders_[k];
  };
  // 1. The sender owes nothing: truly idle, not a straggler between tiles.
  if (dead_[notice.node].load(std::memory_order_acquire) ||
      ledger_->pairs_owed(notice.node) > 0) {
    return;
  }
  // 2. The victim is alive, owes pairs and holds no copies.
  const std::uint64_t owed = ledger_->pairs_owed(notice.victim);
  if (!live_source(notice.victim) || owed == 0) return;
  // 3. No other live node without copies owes more: copies come from the
  //    slowest node, not from a fast node's last in-flight tiles.
  for (NodeId k = 0; k < p; ++k) {
    if (k != notice.victim && live_source(k) &&
        ledger_->pairs_owed(k) > owed) {
      return;
    }
  }
  // The victim's deques were empty, so what it owes is in flight, or
  // re-granted regions still parked in its orphan queue. Copy about half:
  // ownership moves in the ledger and the first result wins (Schoeneman &
  // Zola's speculation argument, made safe by the exactly-once ledger).
  const auto regions = ledger_->undelivered_of(notice.victim);
  copy_holders_[notice.node] = true;
  for (std::size_t k = 0; k < (regions.size() + 1) / 2; ++k) {
    ++failover_.regions_speculated;
    failover_.pairs_speculated += dnc::count_pairs(regions[k]);
    record_instant(telemetry::SpanPhase::kRegionSpeculated, notice.node,
                   notice.victim);
    regrant_region_to(regions[k], notice.node);
  }
}

void MeshNode::register_stats(telemetry::NodeStatsFn fn) {
  std::scoped_lock lock(mutex_);
  stats_fn_ = std::move(fn);
}

// --- wiring & metrics -----------------------------------------------------

void MeshNode::register_probe(runtime::HostCacheProbe* probe) {
  std::scoped_lock lock(probe_mutex_);
  probe_ = probe;
}

void MeshNode::register_exporter(steal::StealExporter* exporter) {
  std::scoped_lock lock(mutex_);
  exporter_ = exporter;
}

PeerCacheStats MeshNode::peer_stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

cache::DirectoryStats MeshNode::directory_stats() const {
  std::scoped_lock lock(mutex_);
  return directory_.stats();
}

FailoverStats MeshNode::failover_stats() const {
  FailoverStats out = failover_;
  if (ledger_ != nullptr) {
    out.duplicate_results_dropped = ledger_->duplicates();
    out.regions_reexecuted = ledger_->regions_regranted();
  }
  return out;
}

std::vector<NodeId> MeshNode::directory_candidates(ItemId item) const {
  std::scoped_lock lock(mutex_);
  return directory_.candidates(item);
}

}  // namespace rocket::mesh
