#pragma once

// Wall-clock task profiler for the live runtime (the paper's §4.3 trace
// facility, Fig 6). Each runtime thread registers a lane; tasks record
// spans (kind + start/end). The profiler renders an ASCII timeline, feeds
// the telemetry layer's Chrome-trace exporter (DESIGN.md §13), and
// aggregates busy time per lane — the live counterpart of Fig 8's bars.
// Spans are stamped on the process timeline (telemetry::trace_time), the
// one clock of every node's span log too, so lanes need no offset.
//
// Memory is bounded: each lane retains at most the constructor's span cap
// (overflow is counted in spans_dropped(), never allocated), and busy
// accounting is a per-lane atomic so a trace-off profiler costs two clock
// reads and one relaxed add per task. set_enabled(false) turns even that
// off: ScopedTask arms itself at construction and a disarmed task never
// touches the clock.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rocket::runtime {

enum class TaskKind : std::uint8_t {
  kIo,
  kParse,
  kH2D,
  kPreprocess,
  kCompare,
  kD2H,
  kPostprocess,
  kControl,  // scheduler/cache-callback continuations on the CPU pool
  kOther,
};

const char* task_kind_name(TaskKind kind);

class Profiler {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default per-lane span retention (~6 MiB/lane worst case), the cap
  /// NodeRuntime uses: a long mesh soak with trace on must not grow
  /// without bound. 0 passed to the constructor means no cap.
  static constexpr std::size_t kDefaultSpanCap = 1u << 18;

  struct Span {
    TaskKind kind;
    double start;  // seconds since telemetry::process_epoch()
    double end;
  };

  /// Copy-out form of one lane (snapshot for reports and the trace
  /// exporter; the live lane itself is not copyable — atomic busy).
  struct LaneView {
    std::string name;
    double busy = 0.0;
    std::vector<Span> spans;
  };

  explicit Profiler(bool trace = true,
                    std::size_t max_spans_per_lane = kDefaultSpanCap)
      : trace_(trace),
        span_cap_(max_spans_per_lane == 0 ? SIZE_MAX : max_spans_per_lane) {}

  /// Register a lane (thread); returns its id. Thread-safe. Lanes must be
  /// registered before other threads record to them (the runtime registers
  /// every lane before spawning its resource threads).
  std::size_t add_lane(std::string name);

  /// Record a completed span on `lane`. Lock-free unless the full trace is
  /// on (busy time is a relaxed atomic add; span retention locks).
  void record(std::size_t lane, TaskKind kind, Clock::time_point start,
              Clock::time_point end);

  /// Span retention on/off (construction-time; busy accounting is
  /// independent of it).
  bool trace() const { return trace_; }

  /// Master switch: disabled, record() returns before any arithmetic and
  /// ScopedTask never reads the clock. Busy totals stop accumulating too —
  /// this is the "telemetry off" measurement configuration.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool armed() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans discarded because their lane hit the span cap.
  std::uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }

  /// Aggregate busy seconds per lane.
  std::vector<std::pair<std::string, double>> busy_per_lane() const;

  /// Busy seconds of one lane — the overlap accounting's input: a
  /// device's load-stall time is its run wall time minus its GPU lane's
  /// busy time.
  double lane_busy_seconds(std::size_t lane) const;

  /// ASCII timeline (Fig 6 style): one row per lane, `width` buckets
  /// from the earliest retained span to the latest end.
  std::string render_timeline(std::size_t width = 80) const;

  /// Snapshot copy of every lane (name, busy, retained spans).
  std::vector<LaneView> lanes_view() const;

 private:
  /// Fixed lane slab: lanes are indexed without a lock on the busy path,
  /// so they must never relocate. The runtime registers three lanes per
  /// device, one per CPU-pool thread and one I/O lane per tile in flight
  /// (at most the job limit per device, 8 by default); 192 is far beyond
  /// any configuration in this repository.
  static constexpr std::size_t kMaxLanes = 192;

  struct Lane {
    std::string name;
    std::atomic<double> busy{0.0};
    std::vector<Span> spans;  // guarded by mutex_
  };

  bool trace_;
  std::size_t span_cap_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::size_t> lane_count_{0};
  std::atomic<std::uint64_t> spans_dropped_{0};
  mutable std::mutex mutex_;  // add_lane + span vectors
  std::unique_ptr<Lane[]> lanes_{new Lane[kMaxLanes]};
};

/// RAII span recorder. Arms itself against the profiler's master switch at
/// construction: a disarmed task costs two relaxed loads and zero clock
/// reads.
class ScopedTask {
 public:
  ScopedTask(Profiler& profiler, std::size_t lane, TaskKind kind)
      : profiler_(&profiler), lane_(lane), kind_(kind),
        armed_(profiler.armed()) {
    if (armed_) start_ = Profiler::Clock::now();
  }
  ScopedTask(const ScopedTask&) = delete;
  ScopedTask& operator=(const ScopedTask&) = delete;
  ~ScopedTask() {
    if (armed_) {
      profiler_->record(lane_, kind_, start_, Profiler::Clock::now());
    }
  }

 private:
  Profiler* profiler_;
  std::size_t lane_;
  TaskKind kind_;
  bool armed_;
  Profiler::Clock::time_point start_{};
};

}  // namespace rocket::runtime
