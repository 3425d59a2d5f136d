#include "telemetry/span.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

namespace rocket::telemetry {

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

double trace_time(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(t - process_epoch()).count();
}

std::uint64_t span_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

SpanContext make_trace(std::uint64_t seed, std::uint64_t key,
                       std::uint32_t sample_n) {
  if (sample_n == 0) return {};
  const std::uint64_t draw = span_mix(seed ^ span_mix(key));
  if (draw % sample_n != 0) return {};
  SpanContext ctx;
  // The ids must be nonzero: 0 is the "unsampled" sentinel. Folding in
  // distinct constants keeps trace and root span ids independent.
  ctx.trace_id = span_mix(draw ^ 0x7261636b65740aULL) | 1ULL;
  ctx.span_id = span_mix(draw ^ 0x73706e726f6f74ULL) | 1ULL;
  ctx.parent_id = 0;
  return ctx;
}

SpanContext child_of(const SpanContext& parent, std::uint64_t salt) {
  if (!parent.sampled()) return {};
  SpanContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id =
      span_mix(parent.trace_id ^ span_mix(parent.span_id) ^ salt) | 1ULL;
  ctx.parent_id = parent.span_id;
  return ctx;
}

const char* span_phase_name(SpanPhase phase) {
  switch (phase) {
    case SpanPhase::kTile: return "tile";
    case SpanPhase::kLoadWait: return "load.wait";
    case SpanPhase::kPeerFetch: return "peer.fetch";
    case SpanPhase::kPeerServe: return "peer.serve";
    case SpanPhase::kGatePark: return "compute.gate.park";
    case SpanPhase::kCompute: return "compute";
    case SpanPhase::kDeliver: return "result.deliver";
    case SpanPhase::kSteal: return "steal";
    case SpanPhase::kStealServe: return "steal.serve";
    case SpanPhase::kGrant: return "region.grant";
    case SpanPhase::kRemoteSteal: return "remote_steal";
    case SpanPhase::kNodeDeath: return "node_death";
    case SpanPhase::kRegionRegrant: return "region_regrant";
    case SpanPhase::kRegionAdopt: return "region_adopt";
    case SpanPhase::kFetchRetry: return "fetch_retry";
    case SpanPhase::kMasterFailover: return "master_failover";
    case SpanPhase::kRegionSpeculated: return "region_speculated";
    case SpanPhase::kCount: break;
  }
  return "?";
}

// --- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog(std::uint32_t node, std::size_t capacity,
                 FlightRecorder* flight)
    : node_(node), capacity_(capacity), flight_(flight) {}

void SpanLog::append_locked(const SpanRecord& span) {
  if (span.aborted) ++aborted_;
  if (records_.size() >= capacity_) {
    ++dropped_;
  } else {
    records_.push_back(span);
  }
  if (flight_ != nullptr) {
    const bool instant = span.instant();
    flight_->record(
        static_cast<std::uint16_t>(span.phase), node_, span.ctx.trace_id,
        span.ctx.span_id,
        instant ? span.a : static_cast<std::uint64_t>(span.start * 1e6),
        instant ? span.b : static_cast<std::uint64_t>(span.end * 1e6));
  }
}

void SpanLog::record(SpanRecord span) {
  if (!span.ctx.sampled()) return;
  span.node = node_;
  std::scoped_lock lock(mutex_);
  append_locked(span);
}

void SpanLog::record(const SpanContext& ctx, SpanPhase phase, double start,
                     double end, bool aborted) {
  SpanRecord span;
  span.ctx = ctx;
  span.phase = phase;
  span.start = start;
  span.end = end;
  span.aborted = aborted;
  record(span);
}

void SpanLog::instant(SpanPhase phase, std::uint32_t a, std::uint32_t b) {
  SpanRecord span;
  span.phase = phase;
  span.node = node_;
  span.start = span.end = trace_now();
  span.a = a;
  span.b = b;
  std::scoped_lock lock(mutex_);
  append_locked(span);
}

void SpanLog::open(const SpanContext& ctx, SpanPhase phase, double start) {
  if (!ctx.sampled()) return;
  std::scoped_lock lock(mutex_);
  open_[ctx.span_id] = OpenSpan{ctx, phase, start};
}

bool SpanLog::close(std::uint64_t span_id, double end, bool aborted) {
  if (span_id == 0) return false;
  std::scoped_lock lock(mutex_);
  const auto it = open_.find(span_id);
  if (it == open_.end()) return false;
  SpanRecord span;
  span.ctx = it->second.ctx;
  span.phase = it->second.phase;
  span.node = node_;
  span.start = it->second.start;
  span.end = end;
  span.aborted = aborted;
  open_.erase(it);
  append_locked(span);
  return true;
}

std::size_t SpanLog::abort_open(double t) {
  std::scoped_lock lock(mutex_);
  const std::size_t n = open_.size();
  for (const auto& [id, o] : open_) {
    SpanRecord span;
    span.ctx = o.ctx;
    span.phase = o.phase;
    span.node = node_;
    span.start = o.start;
    span.end = t < o.start ? o.start : t;
    span.aborted = true;
    append_locked(span);
  }
  open_.clear();
  return n;
}

std::vector<SpanRecord> SpanLog::records() const {
  std::scoped_lock lock(mutex_);
  return records_;
}

std::size_t SpanLog::open_count() const {
  std::scoped_lock lock(mutex_);
  return open_.size();
}

std::uint64_t SpanLog::dropped() const {
  std::scoped_lock lock(mutex_);
  return dropped_;
}

std::uint64_t SpanLog::aborted_count() const {
  std::scoped_lock lock(mutex_);
  return aborted_;
}

// --- FlightRecorder --------------------------------------------------------

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(capacity < 2 ? 2 : capacity)) {}

void FlightRecorder::record(std::uint16_t kind, std::uint32_t node,
                            std::uint64_t trace_id, std::uint64_t span_id,
                            std::uint64_t a, std::uint64_t b) noexcept {
  const double t = trace_now();
  const std::uint64_t index =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index & (slots_.size() - 1)];
  slot.t_bits.store(std::bit_cast<std::uint64_t>(t),
                    std::memory_order_relaxed);
  slot.kind_node.store((static_cast<std::uint64_t>(kind) << 32) | node,
                       std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.span_id.store(span_id, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  // Publish last: a slot is only dumped once its claim index lands.
  slot.seq.store(index + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::dump() const {
  // Collect every populated slot with its claim index, then order by it —
  // oldest surviving record first. Racing writers may leave one slot
  // mid-overwrite; its fields then mix two records, which is acceptable
  // for a post-mortem black box.
  std::vector<std::pair<std::uint64_t, FlightRecord>> found;
  found.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    FlightRecord r;
    r.t = std::bit_cast<double>(slot.t_bits.load(std::memory_order_relaxed));
    const std::uint64_t kn = slot.kind_node.load(std::memory_order_relaxed);
    r.kind = static_cast<std::uint16_t>(kn >> 32);
    r.node = static_cast<std::uint32_t>(kn & 0xffffffffULL);
    r.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    r.span_id = slot.span_id.load(std::memory_order_relaxed);
    r.a = slot.a.load(std::memory_order_relaxed);
    r.b = slot.b.load(std::memory_order_relaxed);
    found.emplace_back(seq, r);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<FlightRecord> out;
  out.reserve(found.size());
  for (const auto& [seq, r] : found) out.push_back(r);
  return out;
}

std::string FlightRecorder::dump_json_lines() const {
  std::string out;
  char line[256];
  for (const FlightRecord& r : dump()) {
    const char* kind_name =
        r.kind < static_cast<std::uint16_t>(SpanPhase::kCount)
            ? span_phase_name(static_cast<SpanPhase>(r.kind))
            : "msg";
    std::snprintf(
        line, sizeof(line),
        "{\"t\":%.6f,\"node\":%u,\"kind\":%u,\"kind_name\":\"%s\","
        "\"trace\":\"%016llx\",\"span\":\"%016llx\",\"a\":%llu,"
        "\"b\":%llu}\n",
        r.t, r.node, r.kind, kind_name,
        static_cast<unsigned long long>(r.trace_id),
        static_cast<unsigned long long>(r.span_id),
        static_cast<unsigned long long>(r.a),
        static_cast<unsigned long long>(r.b));
    out += line;
  }
  return out;
}

}  // namespace rocket::telemetry
