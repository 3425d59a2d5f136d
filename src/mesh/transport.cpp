#include "mesh/transport.hpp"

#include "common/compress.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"

namespace rocket::mesh {

namespace {

// frame_crc helpers: hash one scalar field at a time (structs have
// indeterminate padding bytes), sizes before variable-length contents.

template <typename T>
void fold(std::uint32_t& crc, const T& v) {
  static_assert(std::is_arithmetic_v<T>, "fold scalar fields only");
  crc = crc32_update(crc, &v, sizeof v);
}

void fold_bool(std::uint32_t& crc, bool v) {
  const std::uint8_t b = v ? 1 : 0;
  fold(crc, b);
}

void fold_region(std::uint32_t& crc, const dnc::Region& r) {
  fold(crc, r.row_begin);
  fold(crc, r.row_end);
  fold(crc, r.col_begin);
  fold(crc, r.col_end);
  fold(crc, r.depth);
}

void fold_span(std::uint32_t& crc, const telemetry::SpanContext& s) {
  fold(crc, s.trace_id);
  fold(crc, s.span_id);
  fold(crc, s.parent_id);
}

void fold_body(std::uint32_t& crc, const CacheRequest& b) {
  fold(crc, b.item);
  fold(crc, b.requester);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const CacheProbe& b) {
  fold(crc, b.item);
  fold(crc, b.requester);
  fold(crc, static_cast<std::uint64_t>(b.chain.size()));
  for (const NodeId node : b.chain) fold(crc, node);
  fold(crc, b.index);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const CacheData& b) {
  fold(crc, b.item);
  fold(crc, b.hop);
  fold_bool(crc, b.compressed);
  fold(crc, static_cast<std::uint64_t>(b.bytes.size()));
  crc = crc32_update(crc, b.bytes.data(), b.bytes.size());
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const CacheFailure& b) {
  fold(crc, b.item);
  fold(crc, b.hops);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const StealRequest& b) {
  fold(crc, b.thief);
  fold(crc, b.worker);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const StealReply& b) {
  fold(crc, b.worker);
  fold_bool(crc, b.has_region);
  fold_region(crc, b.region);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const ResultMsg& b) {
  fold(crc, static_cast<std::uint64_t>(b.results.size()));
  for (const runtime::PairResult& result : b.results) {
    fold(crc, result.left);
    fold(crc, result.right);
    fold(crc, result.score);
  }
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const Heartbeat& b) {
  fold(crc, b.node);
  fold(crc, b.seq);
}

void fold_body(std::uint32_t& crc, const NodeDown& b) {
  fold(crc, b.node);
  fold(crc, b.epoch);
}

void fold_body(std::uint32_t& crc, const StealExport& b) {
  fold_region(crc, b.region);
  fold(crc, b.thief);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const RegionGrant& b) {
  fold_region(crc, b.region);
  fold(crc, b.epoch);
  fold_span(crc, b.span);
}

void fold_body(std::uint32_t& crc, const TelemetrySnapshot& b) {
  // NodeStats is a wide plain struct whose fields evolve with the
  // telemetry schema; (node, seq) identifies the frame, which is all the
  // corrupt-drop path needs (a corrupted stats sample is cosmetic, a
  // corrupted node/seq would misattribute it).
  fold(crc, b.node);
  fold(crc, b.seq);
}

void fold_body(std::uint32_t& crc, const LedgerSync& b) {
  fold(crc, b.master);
  fold(crc, b.seq);
  fold_bool(crc, b.snapshot);
  fold(crc, static_cast<std::uint64_t>(b.pairs.size()));
  for (const dnc::Pair& pair : b.pairs) {
    fold(crc, pair.left);
    fold(crc, pair.right);
  }
}

void fold_body(std::uint32_t& crc, const MasterAnnounce& b) {
  fold(crc, b.master);
  fold(crc, b.epoch);
}

void fold_body(std::uint32_t& crc, const MasterTick&) {}

void fold_body(std::uint32_t& crc, const IdleNotice& b) {
  fold(crc, b.node);
  fold(crc, b.victim);
}

/// Mutate one semantic field of the body — simulating bit rot on the wire
/// AFTER the CRC was stamped, so verification must fail.
void corrupt_body(MessageBody& body) {
  std::visit(
      [](auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, CacheRequest>) {
          b.item ^= 1u;
        } else if constexpr (std::is_same_v<T, CacheProbe>) {
          b.item ^= 1u;
        } else if constexpr (std::is_same_v<T, CacheData>) {
          if (!b.bytes.empty()) {
            b.bytes[b.bytes.size() / 2] ^= 0x40;
          } else {
            b.item ^= 1u;
          }
        } else if constexpr (std::is_same_v<T, CacheFailure>) {
          b.item ^= 1u;
        } else if constexpr (std::is_same_v<T, StealRequest>) {
          b.thief ^= 1u;
        } else if constexpr (std::is_same_v<T, StealReply>) {
          b.region.col_end ^= 1u;
        } else if constexpr (std::is_same_v<T, ResultMsg>) {
          if (!b.results.empty()) {
            b.results[b.results.size() / 2].left ^= 1u;
          } else {
            b.span.span_id ^= 1u;
          }
        } else if constexpr (std::is_same_v<T, Heartbeat>) {
          b.seq ^= 1u;
        } else if constexpr (std::is_same_v<T, NodeDown>) {
          b.node ^= 1u;
        } else if constexpr (std::is_same_v<T, StealExport>) {
          b.region.row_begin ^= 1u;
        } else if constexpr (std::is_same_v<T, RegionGrant>) {
          b.region.col_begin ^= 1u;
        } else if constexpr (std::is_same_v<T, TelemetrySnapshot>) {
          b.seq ^= 1u;
        } else if constexpr (std::is_same_v<T, LedgerSync>) {
          b.seq ^= 1u;
        } else if constexpr (std::is_same_v<T, MasterAnnounce>) {
          b.master ^= 1u;
        } else if constexpr (std::is_same_v<T, IdleNotice>) {
          b.victim ^= 1u;
        } else {
          static_assert(std::is_same_v<T, MasterTick>, "unhandled body");
        }
      },
      body);
}

}  // namespace

std::uint32_t frame_crc(const MessageBody& body) {
  std::uint32_t crc = 0;
  const auto index = static_cast<std::uint32_t>(body.index());
  fold(crc, index);
  std::visit([&crc](const auto& b) { fold_body(crc, b); }, body);
  return crc;
}

FaultSchedule FaultSchedule::single_kill(std::uint64_t seed,
                                         std::uint32_t num_nodes,
                                         std::uint64_t max_messages) {
  FaultSchedule schedule;
  if (num_nodes < 2 || max_messages == 0) return schedule;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  Fault fault;
  // Node 0 is the master by LiveCluster convention; master death is a
  // documented abort, not a survivable fault (DESIGN.md §12).
  fault.node = 1 + static_cast<NodeId>(rng.uniform_index(num_nodes - 1));
  fault.after_messages = 1 + rng.uniform_index(max_messages);
  schedule.faults.push_back(fault);
  return schedule;
}

InProcessTransport::InProcessTransport(std::uint32_t num_nodes, Config config)
    : config_(std::move(config)), down_(new std::atomic<bool>[num_nodes]),
      link_down_(new std::atomic<bool>[static_cast<std::size_t>(num_nodes) *
                                       num_nodes]),
      epoch_(std::chrono::steady_clock::now()),
      fault_fired_(config_.faults.faults.size(), false),
      node_counters_(num_nodes) {
  inboxes_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    inboxes_.push_back(std::make_unique<MpmcQueue<Message>>());
    down_[i].store(false, std::memory_order_relaxed);
  }
  for (std::size_t l = 0; l < static_cast<std::size_t>(num_nodes) * num_nodes;
       ++l) {
    link_down_[l].store(false, std::memory_order_relaxed);
  }
  faults_pending_.store(!config_.faults.empty(), std::memory_order_relaxed);
  corrupt_state_ = mix64(config_.corrupt_seed + 0x66726D63ULL);  // "frmc"
}

void InProcessTransport::check_faults() {
  if (!faults_pending_.load(std::memory_order_acquire)) return;
  const std::uint64_t delivered = delivered_.load(std::memory_order_acquire);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
          .count();
  std::scoped_lock lock(fault_mutex_);
  bool remaining = false;
  for (std::size_t f = 0; f < config_.faults.faults.size(); ++f) {
    if (fault_fired_[f]) continue;
    const Fault& fault = config_.faults.faults[f];
    const bool by_messages =
        fault.after_messages > 0 && delivered >= fault.after_messages;
    const bool by_time =
        fault.after_seconds > 0.0 && elapsed >= fault.after_seconds;
    if (by_messages || by_time) {
      fault_fired_[f] = true;
      set_down(fault.node);
    } else {
      remaining = true;
    }
  }
  if (!remaining) faults_pending_.store(false, std::memory_order_release);
}

bool InProcessTransport::send(NodeId src, NodeId dst, net::Tag tag,
                              MessageBody body, Bytes payload_bytes) {
  check_faults();
  // A dead node is dead in both directions: it cannot receive (dst down)
  // and it cannot speak (src down) — a killed node's unsent results are
  // lost exactly as a crashed process's would be.
  if (dst >= num_nodes() || closed_.load(std::memory_order_acquire) ||
      down_[dst].load(std::memory_order_acquire) ||
      (src < num_nodes() && down_[src].load(std::memory_order_acquire)) ||
      (src < num_nodes() &&
       link_down_[static_cast<std::size_t>(src) * num_nodes() + dst].load(
           std::memory_order_acquire))) {
    return false;
  }
  // Wire compression of bulk peer-fetch payloads: the traffic table must
  // account what a real transport would move, so compress before
  // recording (raw_bytes keeps the pre-compression payload size, which is
  // what the compressed-vs-raw split in the traffic report is built on).
  // Kept only when it actually shrinks the payload; the requester's load
  // pipeline decompresses (CacheData::compressed).
  Bytes raw_payload_bytes = payload_bytes;
  if (auto* data = std::get_if<CacheData>(&body)) {
    raw_payload_bytes = data->bytes.size();
    if (config_.compress_threshold > 0 && !data->compressed &&
        data->bytes.size() >= config_.compress_threshold) {
      ByteBuffer packed = lz_compress(data->bytes);
      if (packed.size() < data->bytes.size()) {
        data->bytes = std::move(packed);
        data->compressed = true;
      }
    }
    payload_bytes = data->bytes.size();
  }
  // The integrity stamp a wire transport would compute over its
  // serialised frame — after compression, so the receiver checks what was
  // actually on the wire.
  const std::uint32_t crc = frame_crc(body);
  bool corrupt = false;
  {
    std::scoped_lock lock(counters_mutex_);
    counters_.record(tag, payload_bytes + config_.control_message_size,
                     raw_payload_bytes + config_.control_message_size);
    if (src < node_counters_.size()) {
      node_counters_[src].record(
          tag, payload_bytes + config_.control_message_size,
          raw_payload_bytes + config_.control_message_size);
    }
    if (config_.corrupt_rate > 0.0) {
      const double u =
          static_cast<double>(splitmix64(corrupt_state_) >> 11) * 0x1.0p-53;
      corrupt = u < config_.corrupt_rate;
    }
  }
  if (corrupt) {
    // Deliver a mangled copy first, then the clean frame: a corrupted
    // wire frame followed by its link-layer retransmit. The receiver must
    // drop the first on CRC mismatch — a corrupted frame is never acted
    // on, and never the only delivery.
    Message mangled{src, dst, tag, crc, body};
    corrupt_body(mangled.body);
    if (frame_crc(mangled.body) == crc) mangled.crc = ~crc;  // MasterTick
    corrupted_.fetch_add(1, std::memory_order_acq_rel);
    inboxes_[dst]->push(std::move(mangled));
  }
  delivered_.fetch_add(1, std::memory_order_acq_rel);
  inboxes_[dst]->push(Message{src, dst, tag, crc, std::move(body)});
  return true;
}

std::optional<Message> InProcessTransport::recv(NodeId node) {
  return inboxes_[node]->pop();
}

void InProcessTransport::close() {
  closed_.store(true, std::memory_order_release);
  for (auto& inbox : inboxes_) inbox->close();
}

net::TrafficCounters InProcessTransport::counters() const {
  std::scoped_lock lock(counters_mutex_);
  return counters_;
}

net::TrafficCounters InProcessTransport::node_counters(NodeId node) const {
  std::scoped_lock lock(counters_mutex_);
  if (node >= node_counters_.size()) return {};
  return node_counters_[node];
}

void InProcessTransport::set_down(NodeId node, bool down) {
  down_[node].store(down, std::memory_order_release);
}

void InProcessTransport::set_link_down(NodeId src, NodeId dst, bool down) {
  link_down_[static_cast<std::size_t>(src) * num_nodes() + dst].store(
      down, std::memory_order_release);
}

}  // namespace rocket::mesh
