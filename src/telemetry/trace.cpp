#include "telemetry/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/json_writer.hpp"

namespace rocket::telemetry {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

void TraceExporter::add_node(std::uint32_t node, NodeTrace trace) {
  nodes_.emplace_back(node, std::move(trace));
}

std::string TraceExporter::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  w.key("traceEvents");
  w.begin_array();
  for (const auto& [node, trace] : nodes_) {
    const std::string process = "node " + std::to_string(node);
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", node);
    w.key("args");
    w.begin_object();
    w.field("name", process);
    w.end_object();
    w.end_object();

    for (std::size_t lane = 0; lane < trace.lanes.size(); ++lane) {
      w.begin_object();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", node);
      w.field("tid", static_cast<std::uint64_t>(lane));
      w.key("args");
      w.begin_object();
      w.field("name", trace.lanes[lane].name);
      w.end_object();
      w.end_object();
    }

    for (std::size_t lane = 0; lane < trace.lanes.size(); ++lane) {
      for (const auto& span : trace.lanes[lane].spans) {
        w.begin_object();
        w.field("name", runtime::task_kind_name(span.kind));
        w.field("ph", "X");
        w.field("pid", node);
        w.field("tid", static_cast<std::uint64_t>(lane));
        w.field("ts", span.start * 1e6);
        w.field("dur", std::max(span.end - span.start, 0.0) * 1e6);
        w.end_object();
      }
    }

    // Instants on a tid past the lane range, so they render as their own
    // row.
    const auto instant_tid = static_cast<std::uint64_t>(trace.lanes.size());
    bool sampled = false;
    for (const auto& span : trace.causal_spans) {
      if (!span.instant()) {
        sampled = true;
        continue;
      }
      w.begin_object();
      w.field("name", span_phase_name(span.phase));
      w.field("ph", "i");
      w.field("s", "p");
      w.field("pid", node);
      w.field("tid", instant_tid);
      w.field("ts", span.start * 1e6);
      w.key("args");
      w.begin_object();
      w.field("a", span.a);
      w.field("b", span.b);
      w.end_object();
      w.end_object();
    }

    // Sampled causal spans (§16) on their own lane past the instants row.
    // Zero-width spans get a 1 us floor so Perfetto keeps them clickable
    // as flow endpoints.
    if (sampled) {
      const auto causal_tid = instant_tid + 1;
      w.begin_object();
      w.field("name", "thread_name");
      w.field("ph", "M");
      w.field("pid", node);
      w.field("tid", causal_tid);
      w.key("args");
      w.begin_object();
      w.field("name", "causal");
      w.end_object();
      w.end_object();
      for (const auto& span : trace.causal_spans) {
        if (span.instant()) continue;
        w.begin_object();
        w.field("name", span_phase_name(span.phase));
        w.field("cat", "causal");
        w.field("ph", "X");
        w.field("pid", node);
        w.field("tid", causal_tid);
        w.field("ts", span.start * 1e6);
        w.field("dur", std::max((span.end - span.start) * 1e6, 1.0));
        w.key("args");
        w.begin_object();
        w.field("trace", hex_id(span.ctx.trace_id));
        w.field("span", hex_id(span.ctx.span_id));
        w.field("parent", hex_id(span.ctx.parent_id));
        w.field("aborted", span.aborted);
        w.end_object();
        w.end_object();
      }
    }
  }

  // Flow arrows: a span whose parent closed on a DIFFERENT node is a
  // causal edge across the wire. The "s" step attaches inside the parent
  // slice, the "f" step (bp:"e") inside the child slice; Perfetto matches
  // them by (cat, id). Instants have no span id and take no part.
  struct FlowEnd {
    std::uint32_t node;
    std::uint64_t tid;
    double start;
    double end;
  };
  std::unordered_map<std::uint64_t, FlowEnd> by_span;
  for (const auto& [node, trace] : nodes_) {
    const auto causal_tid = static_cast<std::uint64_t>(trace.lanes.size()) + 1;
    for (const auto& span : trace.causal_spans) {
      if (span.instant()) continue;
      by_span[span.ctx.span_id] =
          FlowEnd{node, causal_tid, span.start, span.end};
    }
  }
  for (const auto& [node, trace] : nodes_) {
    const auto causal_tid = static_cast<std::uint64_t>(trace.lanes.size()) + 1;
    for (const auto& span : trace.causal_spans) {
      if (span.ctx.parent_id == 0) continue;
      const auto parent = by_span.find(span.ctx.parent_id);
      if (parent == by_span.end() || parent->second.node == node) continue;
      const double step_ts =
          std::clamp(span.start, parent->second.start, parent->second.end);
      w.begin_object();
      w.field("name", "causal");
      w.field("cat", "causal");
      w.field("ph", "s");
      w.field("id", hex_id(span.ctx.span_id));
      w.field("pid", parent->second.node);
      w.field("tid", parent->second.tid);
      w.field("ts", step_ts * 1e6);
      w.end_object();
      w.begin_object();
      w.field("name", "causal");
      w.field("cat", "causal");
      w.field("ph", "f");
      w.field("bp", "e");
      w.field("id", hex_id(span.ctx.span_id));
      w.field("pid", node);
      w.field("tid", causal_tid);
      w.field("ts", span.start * 1e6);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool TraceExporter::write_file(const std::string& path) const {
  return JsonWriter::write_string_to_file(path, to_json());
}

}  // namespace rocket::telemetry
