#pragma once

// Causal distributed tracing (DESIGN.md §16): Dapper-style span contexts
// propagated through every cross-node message in a tile's life, a per-node
// span log recording the tile lifecycle as a DAG, and a lock-free black-box
// flight recorder whose last-K ring survives to the checkpoint store when a
// node dies.
//
// Sampling is deterministic: whether a tile (or item, or steal) is traced
// is a pure function of its identity and the run seed, so a replayed run
// samples exactly the same population and traces line up byte-for-byte.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rocket::telemetry {

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

/// Span vocabulary of the tile DAG (DESIGN.md §16). kTile is the root;
/// the rest are children, some recorded on a remote node (kPeerServe,
/// kStealServe, kGrant cross the wire via the propagated context).
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
  kCount
};

const char* span_phase_name(SpanPhase phase);

/// One closed span on the shared cluster timeline (seconds since
/// telemetry::process_epoch(), same clock as TraceEvent).
struct SpanRecord {
  SpanContext ctx;
  SpanPhase phase = SpanPhase::kTile;
  std::uint32_t node = 0;
  double start = 0.0;
  double end = 0.0;
  bool aborted = false;  // closed forcibly (node death, shutdown)
};

class FlightRecorder;

/// Per-node log of sampled spans. Closed spans append under a mutex (the
/// sampled population is small by construction); open() / close() track
/// in-flight spans so chaos tests can assert nothing leaks — abort_open()
/// closes every straggler with the aborted flag at teardown.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t node, std::size_t capacity = 1 << 14,
                   FlightRecorder* flight = nullptr);

  /// Append a closed span. Drops (and counts) past capacity.
  void record(SpanRecord span);
  void record(const SpanContext& ctx, SpanPhase phase, double start,
              double end, bool aborted = false);

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

/// One black-box entry. kind < SpanPhase::kCount is a span close (a/b
/// carry start/end as microseconds); kind >= kFlightMessageBase is a
/// received transport message (kind - base == the MessageBody variant
/// index, a == sender).
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
