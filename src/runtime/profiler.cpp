#include "runtime/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "telemetry/span.hpp"

namespace rocket::runtime {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kIo: return "io";
    case TaskKind::kParse: return "parse";
    case TaskKind::kH2D: return "h2d";
    case TaskKind::kPreprocess: return "preprocess";
    case TaskKind::kCompare: return "compare";
    case TaskKind::kD2H: return "d2h";
    case TaskKind::kPostprocess: return "postprocess";
    case TaskKind::kControl: return "control";
    case TaskKind::kOther: return "other";
  }
  return "unknown";
}

std::size_t Profiler::add_lane(std::string name) {
  std::scoped_lock lock(mutex_);
  const std::size_t id = lane_count_.load(std::memory_order_relaxed);
  ROCKET_CHECK(id < kMaxLanes, "profiler lane slab exhausted");
  lanes_[id].name = std::move(name);
  // Publish after the lane is initialised: recording threads gate their
  // index on this count.
  lane_count_.store(id + 1, std::memory_order_release);
  return id;
}

void Profiler::record(std::size_t lane, TaskKind kind, Clock::time_point start,
                      Clock::time_point end) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  if (lane >= lane_count_.load(std::memory_order_acquire)) return;
  Lane& l = lanes_[lane];
  l.busy.fetch_add(std::chrono::duration<double>(end - start).count(),
                   std::memory_order_relaxed);
  if (!trace_) return;
  const Span span{kind, telemetry::trace_time(start),
                  telemetry::trace_time(end)};
  std::scoped_lock lock(mutex_);
  if (l.spans.size() >= span_cap_) {
    spans_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  l.spans.push_back(span);
}

std::vector<std::pair<std::string, double>> Profiler::busy_per_lane() const {
  const std::size_t n = lane_count_.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(lanes_[i].name,
                     lanes_[i].busy.load(std::memory_order_relaxed));
  }
  return out;
}

double Profiler::lane_busy_seconds(std::size_t lane) const {
  if (lane >= lane_count_.load(std::memory_order_acquire)) return 0.0;
  return lanes_[lane].busy.load(std::memory_order_relaxed);
}

std::string Profiler::render_timeline(std::size_t width) const {
  const std::size_t n = lane_count_.load(std::memory_order_acquire);
  std::scoped_lock lock(mutex_);
  double origin = std::numeric_limits<double>::infinity();
  double last = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& span : lanes_[i].spans) {
      origin = std::min(origin, span.start);
      last = std::max(last, span.end);
    }
  }
  const double horizon = last - origin;
  if (horizon <= 0.0 || width == 0) return "(no trace)\n";

  static constexpr char kGlyphs[] = {'I', 'P', '>', 'R', 'C', '<', 'T', '~', '.'};
  std::string out;
  std::size_t name_width = 0;
  for (std::size_t i = 0; i < n; ++i) {
    name_width = std::max(name_width, lanes_[i].name.size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Lane& lane = lanes_[i];
    std::string row(width, ' ');
    for (const auto& span : lane.spans) {
      auto lo =
          static_cast<std::size_t>((span.start - origin) / horizon * width);
      auto hi = static_cast<std::size_t>(
          std::ceil((span.end - origin) / horizon * width));
      lo = std::min(lo, width - 1);
      hi = std::clamp<std::size_t>(hi, lo + 1, width);
      for (std::size_t k = lo; k < hi; ++k) {
        row[k] = kGlyphs[static_cast<int>(span.kind)];
      }
    }
    out += lane.name;
    out.append(name_width - lane.name.size() + 2, ' ');
    out += '|';
    out += row;
    out += "|\n";
  }
  out += "legend: I=io P=parse >=h2d R=preprocess C=compare <=d2h "
         "T=postprocess ~=control\n";
  return out;
}

std::vector<Profiler::LaneView> Profiler::lanes_view() const {
  const std::size_t n = lane_count_.load(std::memory_order_acquire);
  std::scoped_lock lock(mutex_);
  std::vector<LaneView> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    LaneView view;
    view.name = lanes_[i].name;
    view.busy = lanes_[i].busy.load(std::memory_order_relaxed);
    view.spans = lanes_[i].spans;
    out.push_back(std::move(view));
  }
  return out;
}

}  // namespace rocket::runtime
