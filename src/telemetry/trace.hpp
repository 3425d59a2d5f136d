#pragma once

// Cluster-wide trace export (DESIGN.md §13): every node's Profiler lanes
// plus its span log — sampled causal spans and the instants of scheduling
// and failover decisions — serialised into one Chrome trace_event JSON
// that Perfetto / chrome://tracing loads directly: the live, multi-node
// rendering of the paper's Fig 6.
//
// One clock: every record is stamped in seconds since process_epoch()
// (telemetry/span.hpp), and every node of an in-process cluster shares
// one steady clock, so the exporter emits ts = start * 1e6 and all nodes
// land on one timeline with no per-node offset.
//
// Mapping: trace pid = node id (one "process" per node), tid = lane index
// within the node; lanes become "X" complete events, instants become "i"
// instant events on the row after the lanes, and sampled spans "X"
// events on a "causal" row after that.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/profiler.hpp"
#include "telemetry/span.hpp"

namespace rocket::telemetry {

/// One node's contribution to the cluster trace (rides in the node's
/// Report).
struct NodeTrace {
  std::vector<runtime::Profiler::LaneView> lanes;
  /// The node's span log (DESIGN.md §16). Sampled spans render on a
  /// dedicated "causal" lane, with "s"/"f" flow arrows between nodes
  /// wherever a span's parent lives on a different node; instants render
  /// as "i" events on their own row.
  std::vector<SpanRecord> causal_spans;
  std::uint64_t spans_dropped = 0;
};

/// Folds NodeTraces into one Chrome trace_event JSON document.
class TraceExporter {
 public:
  void add_node(std::uint32_t node, NodeTrace trace);

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — ts/dur in
  /// microseconds since process_epoch(), pid = node, tid = lane.
  std::string to_json() const;

  bool write_file(const std::string& path) const;

 private:
  std::vector<std::pair<std::uint32_t, NodeTrace>> nodes_;
};

}  // namespace rocket::telemetry
