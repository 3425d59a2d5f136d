#pragma once

// Offline critical-path attribution over sampled span DAGs (DESIGN.md
// §16). Input: the cluster-merged SpanRecord set on the shared process
// timeline. Output: for the run window, the share of wall time each phase
// occupies on the cluster's critical path — at every instant the highest-
// priority phase active on ANY node wins (compute > peer-fetch > steal >
// load > deliver > gate-park), uncovered time is idle — plus the top-k
// slowest sampled tiles with their full causal chains. Idle is defined as
// the remainder, so the percentages sum to 100 by construction.

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "telemetry/span.hpp"

namespace rocket::telemetry {

/// Attribution categories of the run summary's critical_path block.
enum class PathPhase : std::uint8_t {
  kCompute = 0,
  kPeerFetch,
  kSteal,
  kLoad,
  kDeliver,
  kGatePark,
  kIdle,
  kCount
};

constexpr std::size_t kPathPhases =
    static_cast<std::size_t>(PathPhase::kCount);

const char* path_phase_name(PathPhase phase);

/// Category of a span phase. kTile spans are containers, not work, and
/// instants have no width — both map to kIdle and are excluded from
/// attribution.
PathPhase path_phase_of(SpanPhase phase);

struct PhaseShare {
  double seconds = 0.0;
  double percent = 0.0;
};

struct SlowTile {
  std::uint64_t trace_id = 0;
  std::uint32_t node = 0;  // node that ran the tile span
  double seconds = 0.0;    // tile span duration
  std::vector<SpanRecord> chain;  // all spans of the trace, by start time
};

struct CriticalPathReport {
  double window_seconds = 0.0;    // analyzed [start, end] width
  std::size_t spans_analyzed = 0;
  std::array<PhaseShare, kPathPhases> phases{};  // indexed by PathPhase
  std::vector<SlowTile> slowest;  // top-k sampled tiles by duration

  double percent(PathPhase phase) const {
    return phases[static_cast<std::size_t>(phase)].percent;
  }
};

/// Walk the merged span set over [window_start, window_end] (seconds on
/// the process timeline). Spans outside the window are clamped; instants
/// are ignored (spans_analyzed counts spans only); an empty window or
/// span set yields a report that is 100% idle.
CriticalPathReport analyze_critical_path(
    const std::vector<SpanRecord>& spans, double window_start,
    double window_end, std::size_t top_k = 5);

}  // namespace rocket::telemetry
