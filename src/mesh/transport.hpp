#pragma once

// Live cluster transport.
//
// mesh::Transport is the live counterpart of the simulated net::Fabric:
// typed point-to-point messages between p nodes, recorded through the same
// net::Tag traffic taxonomy so live and simulated traffic reports are
// directly comparable (a control message costs `control_message_size` wire
// bytes; a data message additionally counts its payload, mirroring
// Fabric::send_bulk).
//
// The in-process implementation delivers over one MpmcQueue inbox per
// node — N NodeRuntime peers run as one cluster inside a single process,
// which is the mesh's first deployment shape (real-socket transports slot
// in behind the same interface). It also provides per-node failure
// injection (`set_down`): sends to a down node fail fast, and every
// protocol layer above treats a failed send as a lost peer and degrades to
// its local fallback path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <variant>
#include <vector>

#include "common/queue.hpp"
#include "common/units.hpp"
#include "dnc/pair_space.hpp"
#include "net/tag.hpp"
#include "runtime/application.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"

namespace rocket::mesh {

using NodeId = net::NodeId;
using runtime::ItemId;

// --- typed message bodies -------------------------------------------------

/// Requester → mediator: "who has item i?" (§4.1.3).
struct CacheRequest {
  ItemId item = 0;
  NodeId requester = 0;
  telemetry::SpanContext span;  // causal context (DESIGN.md §16); 0 ids = unsampled
};

/// Mediator/candidate → candidate chain[index]: probe for the item; on a
/// miss the candidate forwards to chain[index + 1].
struct CacheProbe {
  ItemId item = 0;
  NodeId requester = 0;
  std::vector<NodeId> chain;
  std::uint32_t index = 0;
  telemetry::SpanContext span;
};

/// Candidate → requester: the host-level item payload, found at 1-based
/// `hop` of the chain. Large payloads may be lz-compressed by the
/// transport (see InProcessTransport::Config::compress_threshold); the
/// flag rides along so the requester's load pipeline can decompress on a
/// runtime thread.
struct CacheData {
  ItemId item = 0;
  std::uint32_t hop = 0;
  bool compressed = false;
  runtime::HostBuffer bytes;
  telemetry::SpanContext span;  // serving candidate's span (flow arrow source)
};

/// Exhausted chain → requester: distributed-cache miss after `hops`
/// candidates were handed out.
struct CacheFailure {
  ItemId item = 0;
  std::uint32_t hops = 0;
  telemetry::SpanContext span;
};

/// Idle worker `worker` on node `thief` → victim node.
struct StealRequest {
  NodeId thief = 0;
  std::uint32_t worker = 0;
  telemetry::SpanContext span;
};

/// Victim → thief: a region, or empty-handed.
struct StealReply {
  std::uint32_t worker = 0;
  bool has_region = false;
  dnc::Region region;
  telemetry::SpanContext span;  // victim's serve span (flow arrow source)
};

/// Worker node → master: one tile's completed pairs. The master dedups
/// and delivers per pair, so a batch may be partly duplicate (DESIGN.md
/// §12.4).
struct ResultMsg {
  std::vector<runtime::PairResult> results;
  telemetry::SpanContext span;  // sampled tile's result.deliver span
};

/// Node → master: periodic liveness lease renewal. The master's failure
/// detector declares a node dead after a configurable run of missed
/// leases (MeshNode::Config::lease_timeout_s).
struct Heartbeat {
  NodeId node = 0;
  std::uint64_t seq = 0;
};

/// Master → everyone (and master → itself, so the verdict is serialised
/// with result handling): `node` is declared dead. Mediators prune it
/// from candidate chains, thieves stop picking it as a victim, and the
/// master re-grants its uncompleted regions to survivors.
struct NodeDown {
  NodeId node = 0;
  std::uint32_t epoch = 0;  // cluster-wide death count when declared
};

/// Victim → master: lease transfer notice — `region` moved from this
/// victim's deques to `thief` through a successful steal reply. Keeps the
/// master's re-execution ledger current so a later death re-grants
/// exactly the regions the dead node actually owned.
struct StealExport {
  dnc::Region region;
  NodeId thief = 0;
  telemetry::SpanContext span;
};

/// Master → survivor: re-execution lease for a dead node's uncompleted
/// region. The receiver parks it in its orphan queue (the same machinery
/// that re-adopts regions whose thief vanished) and its idle workers
/// pick it up via remote_steal.
struct RegionGrant {
  dnc::Region region;
  std::uint32_t epoch = 0;  // re-execution epoch of the region's pairs
  telemetry::SpanContext span;
};

/// Node → master: periodic metrics sample on the heartbeat ticker
/// (DESIGN.md §13). The master folds the per-node streams into the live
/// ClusterSnapshot; a dead node simply stops publishing and its last
/// sample ages out in the master's staleness accounting.
struct TelemetrySnapshot {
  NodeId node = 0;
  std::uint64_t seq = 0;
  telemetry::NodeStats stats;
};

/// Master → standby: aggregation-state mirror (DESIGN.md §14). `snapshot`
/// carries the master's full delivered set (sent when a standby is first
/// chosen or replaced); a delta carries only the pairs of one flushed
/// batch. The mirror is the standby's only record of delivery: an
/// adopter recounts the delivered pairs from it.
struct LedgerSync {
  NodeId master = 0;
  std::uint64_t seq = 0;
  bool snapshot = false;
  std::vector<dnc::Pair> pairs;
};

/// New master → everyone: `master` has adopted the master role for
/// failover epoch `epoch` (count of adoptions so far + 1). Receivers
/// redirect results, heartbeats and telemetry to the new master.
struct MasterAnnounce {
  NodeId master = 0;
  std::uint32_t epoch = 0;
};

/// Master → itself on the heartbeat ticker: drives master-side periodic
/// work (standby sync, journal upkeep) on the service thread, where the
/// ledger lives.
struct MasterTick {};

/// Idle node → master (end-game speculation, DESIGN.md §15): `node`'s
/// cross-node steal from `victim` came back empty. The master may answer
/// with a RegionGrant copying part of the victim's undelivered lease.
struct IdleNotice {
  NodeId node = 0;
  NodeId victim = 0;
};

using MessageBody = std::variant<CacheRequest, CacheProbe, CacheData,
                                 CacheFailure, StealRequest, StealReply,
                                 ResultMsg, Heartbeat, NodeDown, StealExport,
                                 RegionGrant, TelemetrySnapshot, LedgerSync,
                                 MasterAnnounce, MasterTick, IdleNotice>;

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  net::Tag tag = net::Tag::kControl;
  /// frame_crc(body) stamped by the transport at send time; receivers
  /// verify before acting (satellite 1 of DESIGN.md §14). 0 only for
  /// messages that never crossed a transport (unit-test fabrication).
  std::uint32_t crc = 0;
  MessageBody body;
};

/// CRC32 over a message body: variant index plus every semantic field,
/// hashed field-by-field (never whole structs — padding bytes are
/// indeterminate). The integrity guard a wire transport would compute
/// over its serialised frame.
std::uint32_t frame_crc(const MessageBody& body);

// --- fault injection ------------------------------------------------------

/// One scripted node kill: the node goes down (both directions — a dead
/// node neither receives nor sends) once either trigger fires. Message
/// triggers are checked against the transport's global delivered-message
/// counter, which makes schedules replayable independent of wall-clock
/// speed; time triggers exist for interactive demos.
struct Fault {
  NodeId node = 0;
  /// Fire once `after_messages` messages have been delivered (0 = unused).
  std::uint64_t after_messages = 0;
  /// Fire once this much wall time elapsed since construction (0 = unused).
  double after_seconds = 0.0;
};

/// A scripted, replayable set of node kills, evaluated by the transport on
/// every send. `single_kill` derives a deterministic one-kill schedule
/// from a seed (never the master, node 0), for randomized chaos sweeps.
struct FaultSchedule {
  std::vector<Fault> faults;

  bool empty() const { return faults.empty(); }

  static FaultSchedule single_kill(std::uint64_t seed,
                                   std::uint32_t num_nodes,
                                   std::uint64_t max_messages);
};

// --- transport ------------------------------------------------------------

class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::uint32_t num_nodes() const = 0;

  /// Deliver `body` to `dst`'s inbox. Returns false when the destination
  /// is down or the transport is closed — the caller treats that exactly
  /// like a lost peer (skip the candidate, fail the fetch, give up the
  /// steal). Accounting is recorded only for delivered messages;
  /// `payload_bytes` adds bulk bytes on top of the control envelope.
  virtual bool send(NodeId src, NodeId dst, net::Tag tag, MessageBody body,
                    Bytes payload_bytes = 0) = 0;

  /// Blocking receive for `node`'s service thread; nullopt once the
  /// transport is closed and the inbox drained.
  virtual std::optional<Message> recv(NodeId node) = 0;

  /// Close every inbox (wakes all service threads).
  virtual void close() = 0;

  /// Whether `node` is known dead. The in-process transport answers from
  /// its fault injector; a wire transport may always answer false (a real
  /// crashed process simply stops executing — this hook is how an
  /// in-process "crashed" node observes its own death and goes silent).
  virtual bool is_node_down(NodeId node) const {
    (void)node;
    return false;
  }

  virtual net::TrafficCounters counters() const = 0;
};

class InProcessTransport final : public Transport {
 public:
  struct Config {
    /// Wire size charged per message envelope (matches the simulated
    /// fabric's control_message_size so traffic tables line up).
    Bytes control_message_size = 128;

    /// Peer-fetch payloads at or above this size are lz-compressed before
    /// delivery, and the traffic table records the compressed byte count
    /// (what a wire transport would actually move). Compression is kept
    /// only when it shrinks the payload. 0 disables.
    Bytes compress_threshold = 64_KiB;

    /// Scripted node kills, evaluated before every delivery (chaos tests
    /// and the demo's --kill-node flag). Empty = no injected faults.
    FaultSchedule faults;

    /// Chaos corrupt-frame injector: with this probability a send first
    /// delivers a copy whose body was mutated AFTER the CRC was stamped
    /// (the receiver must detect and drop it), then the clean frame —
    /// modelling a corrupted wire frame plus link-layer retransmit. A
    /// corrupted frame is therefore never the only delivery. 0 disables.
    double corrupt_rate = 0.0;
    std::uint64_t corrupt_seed = 1;
  };

  explicit InProcessTransport(std::uint32_t num_nodes)
      : InProcessTransport(num_nodes, Config()) {}
  InProcessTransport(std::uint32_t num_nodes, Config config);

  std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(inboxes_.size());
  }
  bool send(NodeId src, NodeId dst, net::Tag tag, MessageBody body,
            Bytes payload_bytes = 0) override;
  std::optional<Message> recv(NodeId node) override;
  void close() override;
  net::TrafficCounters counters() const override;

  /// Sender-side per-tag table for one node (what `node` put on the wire,
  /// incl. the compressed-vs-raw byte split). Summing over all nodes
  /// reproduces counters().
  net::TrafficCounters node_counters(NodeId node) const;

  /// Failure injection: a down node is dead in both directions — sends to
  /// it AND from it fail fast. Its already-queued messages still drain
  /// (they were on the wire before the crash).
  void set_down(NodeId node, bool down = true);
  bool is_down(NodeId node) const {
    return down_[node].load(std::memory_order_acquire);
  }
  bool is_node_down(NodeId node) const override {
    return node < num_nodes() && is_down(node);
  }

  /// Corrupted frames injected so far (each was followed by its clean
  /// retransmit).
  std::uint64_t corrupted_frames() const {
    return corrupted_.load(std::memory_order_acquire);
  }

  /// Asymmetric link failure: sends from `src` to `dst` fail while every
  /// other direction keeps working (models a one-way partition, which is
  /// how real failure detectors get fooled).
  void set_link_down(NodeId src, NodeId dst, bool down = true);

  /// Messages delivered so far (the clock FaultSchedule message triggers
  /// run on).
  std::uint64_t delivered_messages() const {
    return delivered_.load(std::memory_order_acquire);
  }

 private:
  void check_faults();

  Config config_;
  std::vector<std::unique_ptr<MpmcQueue<Message>>> inboxes_;
  std::unique_ptr<std::atomic<bool>[]> down_;
  std::unique_ptr<std::atomic<bool>[]> link_down_;  // [src * p + dst]
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> corrupted_{0};
  std::atomic<bool> faults_pending_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex fault_mutex_;
  std::vector<bool> fault_fired_;  // guarded by fault_mutex_
  mutable std::mutex counters_mutex_;
  net::TrafficCounters counters_;
  std::vector<net::TrafficCounters> node_counters_;  // by src node
  std::uint64_t corrupt_state_ = 0;  // splitmix64 state; counters_mutex_
};

}  // namespace rocket::mesh
