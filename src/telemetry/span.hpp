#pragma once

// The node's timeline (DESIGN.md §13.3, §16): one clock, the process
// epoch; a per-node span log holding both sampled causal spans and
// instants; and a lock-free black-box flight recorder whose last-K ring
// survives to the checkpoint store when a node dies.
//
// Spans are Dapper-style: their contexts propagate through every
// cross-node message in a tile's life, so the log records the tile
// lifecycle as a DAG. Sampling is deterministic: whether a tile (or item,
// or steal) is traced is a pure function of its identity and the run
// seed, so a replayed run samples exactly the same population and traces
// line up byte-for-byte. Instants are the mesh's discrete scheduling and
// failover decisions (steals, deaths, re-grants): zero-width records with
// no sampled context, logged whenever the node has a span log.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rocket::telemetry {

/// Origin of the one timeline (steady clock). The first caller pins it;
/// LiveCluster pins it before any node starts.
std::chrono::steady_clock::time_point process_epoch();

/// Seconds since process_epoch() at steady-clock time `t`: the stamp of
/// every timeline record — profiler lanes, spans, instants and flight
/// entries.
double trace_time(std::chrono::steady_clock::time_point t);

inline double trace_now() {
  return trace_time(std::chrono::steady_clock::now());
}

/// The context that rides on cross-node messages. trace_id == 0 means
/// "not sampled" — every propagation site checks sampled() and pays
/// nothing for the common case.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;

  bool sampled() const { return trace_id != 0; }
};

/// splitmix64 finalizer: the repo-wide cheap stateless mixer (the
/// transport's corruption draw uses the same construction).
std::uint64_t span_mix(std::uint64_t x);

/// Deterministic sampling decision + root context for a traced entity
/// (a tile keyed by its region, an item keyed by its id, a steal keyed by
/// its sequence). Every sample_n-th key (by hash) gets a trace; sample_n
/// == 0 disables tracing, sample_n == 1 traces everything. The returned
/// root context has parent_id == 0.
SpanContext make_trace(std::uint64_t seed, std::uint64_t key,
                       std::uint32_t sample_n);

/// Child span id derivation without coordination: a pure hash of the
/// parent context and a salt, so both ends of a message hop derive
/// identical ids from the propagated context.
SpanContext child_of(const SpanContext& parent, std::uint64_t salt);

/// Timeline vocabulary. The span phases form the tile DAG (DESIGN.md
/// §16): kTile is the root; the rest are children, some recorded on a
/// remote node (kPeerServe, kStealServe, kGrant cross the wire via the
/// propagated context). The instant kinds after them carry two arguments,
/// a and b, as noted per kind.
enum class SpanPhase : std::uint8_t {
  kTile = 0,       // grant/submit -> results delivered
  kLoadWait,       // submit -> working set resident
  kPeerFetch,      // requester side of a distributed-cache fetch
  kPeerServe,      // candidate side: probe hit served to a peer
  kGatePark,       // loaded, waiting behind another tile's compare task
  kCompute,        // the kernel pass
  kDeliver,        // results handed to the delivery path / master
  kSteal,          // thief side of a cross-node steal round trip
  kStealServe,     // victim side: region exported to the thief
  kGrant,          // master re-grant / recipient adoption
  // --- instants ---
  kRemoteSteal,       // a: worker, b: 1 = got a region
  kNodeDeath,         // a: dead node, b: death epoch
  kRegionRegrant,     // a: survivor granted to, b: pairs (saturated)
  kRegionAdopt,       // a: adopting node, b: grant epoch
  kFetchRetry,        // a: item id, b: attempt (peer fetch retransmitted)
  kMasterFailover,    // a: adopting node, b: failover epoch (§14)
  kRegionSpeculated,  // a: idle node copied to, b: victim copied from (§15)
  kCount
};

const char* span_phase_name(SpanPhase phase);

/// One record on the shared timeline (seconds since process_epoch()):
/// a closed span of a sampled trace, or an instant — start == end, no
/// sampled context, and per-kind arguments in a/b.
struct SpanRecord {
  SpanContext ctx;
  SpanPhase phase = SpanPhase::kTile;
  std::uint32_t node = 0;
  double start = 0.0;
  double end = 0.0;
  bool aborted = false;  // closed forcibly (node death, shutdown)
  std::uint32_t a = 0;   // instant arguments (see SpanPhase)
  std::uint32_t b = 0;

  bool instant() const { return !ctx.sampled(); }
};

class FlightRecorder;

/// Per-node log of sampled spans and instants. Records append under a
/// mutex (the sampled population is small by construction, and instants
/// are rare — steals, deaths, re-grants, never per pair); open() /
/// close() track in-flight spans so chaos tests can assert nothing leaks
/// — abort_open() closes every straggler with the aborted flag at
/// teardown. Every record is teed into the flight recorder, if any.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t node, std::size_t capacity = 1 << 14,
                   FlightRecorder* flight = nullptr);

  /// Append a closed span of a sampled context (unsampled: no-op). Drops
  /// (and counts) past capacity.
  void record(SpanRecord span);
  void record(const SpanContext& ctx, SpanPhase phase, double start,
              double end, bool aborted = false);

  /// Append an instant stamped now. Needs no sampled context; shares the
  /// capacity and drop counter with spans.
  void instant(SpanPhase phase, std::uint32_t a, std::uint32_t b = 0);

  /// Track an in-flight span; close() completes it by span id. close()
  /// on an unknown id is a no-op returning false (the opener died and
  /// abort_open already swept it, or it was never sampled).
  void open(const SpanContext& ctx, SpanPhase phase, double start);
  bool close(std::uint64_t span_id, double end, bool aborted = false);

  /// Close every still-open span as aborted at time t. Returns how many.
  std::size_t abort_open(double t);

  std::vector<SpanRecord> records() const;
  std::size_t open_count() const;
  std::uint64_t dropped() const;
  std::uint64_t aborted_count() const;
  std::uint32_t node() const { return node_; }

 private:
  struct OpenSpan {
    SpanContext ctx;
    SpanPhase phase;
    double start;
  };

  void append_locked(const SpanRecord& span);

  const std::uint32_t node_;
  const std::size_t capacity_;
  FlightRecorder* const flight_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::unordered_map<std::uint64_t, OpenSpan> open_;
  std::uint64_t dropped_ = 0;
  std::uint64_t aborted_ = 0;
};

/// One black-box entry. kind < SpanPhase::kCount is a span log record:
/// for a span close a/b carry start/end as microseconds, for an instant
/// its arguments. kind >= kFlightMessageBase is a received transport
/// message (kind - base == the MessageBody variant index, a == sender).
struct FlightRecord {
  double t = 0.0;  // seconds since process_epoch()
  std::uint32_t node = 0;
  std::uint16_t kind = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

constexpr std::uint16_t kFlightMessageBase = 100;

/// Lock-free last-K ring of span/transport events (DESIGN.md §16): every
/// writer claims a slot with one relaxed fetch_add and stores fields with
/// relaxed atomics, so recording is wait-free and TSAN-clean from any
/// thread. A reader racing a wrap may observe one mixed record — the
/// black box is best-effort by design; it is only read post-mortem.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);

  void record(std::uint16_t kind, std::uint32_t node, std::uint64_t trace_id,
              std::uint64_t span_id, std::uint64_t a,
              std::uint64_t b) noexcept;

  /// Snapshot of the ring, oldest first. Safe to call while writers run.
  std::vector<FlightRecord> dump() const;

  /// JSON-lines rendering of dump() — the checkpoint-store format.
  std::string dump_json_lines() const;

  std::uint64_t total_recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // claim index + 1; 0 == empty
    std::atomic<std::uint64_t> t_bits{0};
    std::atomic<std::uint64_t> kind_node{0};  // kind << 32 | node
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace rocket::telemetry
