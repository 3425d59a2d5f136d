#!/usr/bin/env python3
"""Validate Rocket's telemetry artifacts (CI smoke, DESIGN.md section 13).

Usage:
    check_telemetry.py summary <run_summary.json> [--nodes N]
    check_telemetry.py trace <trace.json> [--nodes N] [--expect-flows]
                             [--expect-instants NAME[,NAME]]
    check_telemetry.py metrics <metrics.prom>

Checks that a run summary carries the documented rocket.run_summary/1
schema keys (including the section-16 critical_path block, whose phase
percentages must sum to 100 +/- 1), that a Chrome trace names one process
per node with timestamped events on the shared timeline (--expect-flows
additionally demands matched cross-node "s"/"f" flow-arrow pairs for both
a peer-fetched and a stolen tile; --expect-instants demands an "i" event
of each named kind), and that a Prometheus text exposition parses. Exits
non-zero with a message on the first violation.
"""

import argparse
import json
import sys

SUMMARY_KEYS = [
    "schema", "app", "mode", "num_nodes", "pairs", "wall_seconds",
    "pairs_per_sec", "loads", "peer_loads", "remote_steals",
    "cache_fast_hits", "prefetch_hits", "stall_seconds", "host_cache",
    "directory", "peer_cache", "failover", "health", "speculation",
    "checkpoint", "traffic", "node_traffic", "metrics", "critical_path",
    "nodes",
]

CRITICAL_PATH_KEYS = [
    "wall_seconds", "spans_analyzed", "spans_aborted", "flight_dumps",
    "phases", "slowest_tiles",
]

CRITICAL_PATH_PHASES = [
    "compute", "peer_fetch", "steal", "load", "deliver", "gate_park", "idle",
]

FAILOVER_KEYS = [
    "node_deaths", "regions_reexecuted", "duplicate_results_dropped",
    "results_received", "regions_adopted", "master_failovers",
    "corrupted_frames",
]

HEALTH_KEYS = ["load_retries", "failed_loads"]

SPECULATION_KEYS = ["regions", "pairs", "duplicate_results_dropped"]

CHECKPOINT_KEYS = [
    "enabled", "resumed", "torn_tail", "pairs_recovered",
    "records_replayed", "records_appended",
]

HISTOGRAM_KEYS = ["name", "count", "mean_s", "p50_s", "p99_s", "min_s",
                  "max_s"]

NODE_KEYS = ["node", "pairs", "tiles", "io_lanes", "admission"]

ADMISSION_KEYS = ["tiles_in_flight", "tile_ws_budget", "shards"]


def fail(message):
    print(f"check_telemetry: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_summary(path, nodes, expect_master_failover=False,
                  expect_resumed=False, expect_speculation=False):
    doc = json.load(open(path))
    for key in SUMMARY_KEYS:
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
    if doc["schema"] != "rocket.run_summary/1":
        fail(f"{path}: unexpected schema {doc['schema']!r}")
    if nodes is not None:
        if doc["num_nodes"] != nodes:
            fail(f"{path}: num_nodes {doc['num_nodes']} != {nodes}")
        if len(doc["nodes"]) != nodes:
            fail(f"{path}: {len(doc['nodes'])} node entries != {nodes}")
        if len(doc["node_traffic"]) != nodes:
            fail(f"{path}: {len(doc['node_traffic'])} traffic tables "
                 f"!= {nodes}")
    for tag in doc["traffic"]["per_tag"]:
        if tag["raw_bytes"] < tag["bytes"]:
            fail(f"{path}: tag {tag['tag']!r} raw_bytes < wire bytes")
    for key in FAILOVER_KEYS:
        if key not in doc["failover"]:
            fail(f"{path}: failover block missing {key!r}")
    for key in HEALTH_KEYS:
        if key not in doc["health"]:
            fail(f"{path}: health block missing {key!r}")
    for key in SPECULATION_KEYS:
        if key not in doc["speculation"]:
            fail(f"{path}: speculation block missing {key!r}")
    for key in CHECKPOINT_KEYS:
        if key not in doc["checkpoint"]:
            fail(f"{path}: checkpoint block missing {key!r}")
    cp = doc["critical_path"]
    for key in CRITICAL_PATH_KEYS:
        if key not in cp:
            fail(f"{path}: critical_path block missing {key!r}")
    phase_names = [p["phase"] for p in cp["phases"]]
    if phase_names != CRITICAL_PATH_PHASES:
        fail(f"{path}: critical_path phases {phase_names} != "
             f"{CRITICAL_PATH_PHASES}")
    if cp["wall_seconds"] > 0:
        total = sum(p["percent"] for p in cp["phases"])
        if abs(total - 100.0) > 1.0:
            fail(f"{path}: critical_path percentages sum to {total:.3f}, "
                 f"expected 100 +/- 1")
    for tile in cp["slowest_tiles"]:
        for key in ("trace", "node", "seconds", "chain"):
            if key not in tile:
                fail(f"{path}: slowest_tiles entry missing {key!r}")
        if not tile["chain"]:
            fail(f"{path}: slowest tile {tile['trace']} has an empty "
                 f"causal chain")
    for node in doc["nodes"]:
        for key in NODE_KEYS:
            if key not in node:
                fail(f"{path}: node entry missing {key!r}")
        for device in node["admission"]:
            for key in ADMISSION_KEYS:
                if key not in device:
                    fail(f"{path}: node {node['node']} admission entry "
                         f"missing {key!r}")
        lanes = sum(d["tiles_in_flight"] for d in node["admission"])
        if node["io_lanes"] != lanes:
            fail(f"{path}: node {node['node']} runs {node['io_lanes']} I/O "
                 f"lanes for {lanes} tiles in flight")
    for hist in doc["metrics"]["histograms"]:
        for key in HISTOGRAM_KEYS:
            if key not in hist:
                fail(f"{path}: histogram {hist.get('name')!r} missing "
                     f"{key!r}")
    if doc["pairs"] == 0:
        fail(f"{path}: zero pairs recorded")
    if expect_master_failover and doc["failover"]["master_failovers"] == 0:
        fail(f"{path}: expected a master failover, none recorded")
    if expect_resumed:
        if not doc["checkpoint"]["resumed"]:
            fail(f"{path}: expected a resumed run, checkpoint.resumed is "
                 f"false")
        if doc["checkpoint"]["pairs_recovered"] == 0:
            fail(f"{path}: resumed run recovered zero pairs")
    if expect_speculation:
        for key in ("regions", "pairs"):
            if doc["speculation"][key] == 0:
                fail(f"{path}: expected end-game speculation, zero {key} "
                     f"copied")
    print(f"check_telemetry: OK: {path} ({doc['pairs']} pairs, "
          f"{len(doc['nodes'])} nodes, "
          f"{len(doc['metrics']['histograms'])} histograms)")


def check_trace(path, nodes, expect_flows=False, expect_instants=()):
    doc = json.load(open(path))
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    process_names = {e["pid"]: e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e.get("name") == "process_name"}
    if nodes is not None and len(process_names) != nodes:
        fail(f"{path}: {len(process_names)} process_name entries != {nodes}")
    spans = [e for e in events if e.get("ph") == "X"]
    if not spans:
        fail(f"{path}: no complete ('X') span events")
    for e in spans:
        for key in ("pid", "tid", "ts", "dur", "name"):
            if key not in e:
                fail(f"{path}: span missing {key!r}: {e}")
        if e["ts"] < 0 or e["dur"] < 0:
            fail(f"{path}: negative ts/dur: {e}")
    span_pids = {e["pid"] for e in spans}
    if nodes is not None and len(span_pids) != nodes:
        fail(f"{path}: spans cover {len(span_pids)} nodes, expected {nodes}")
    instants = [e for e in events if e.get("ph") == "i"]
    missing = sorted(set(expect_instants) - {e.get("name") for e in instants})
    if missing:
        fail(f"{path}: no instant ('i') events named {missing}")
    flows_s = {e["id"]: e for e in events if e.get("ph") == "s"}
    flows_f = [e for e in events if e.get("ph") == "f"]
    if expect_flows:
        # Causal flow arrows (DESIGN.md section 16): an "s" on the parent
        # span's node matched by id with an "f" on the child span's node.
        # The child span's "X" event names the hop, so we can demand both
        # a peer-fetched tile and a stolen tile crossed node boundaries.
        if not flows_s or not flows_f:
            fail(f"{path}: expected flow events, found {len(flows_s)} 's' "
                 f"and {len(flows_f)} 'f'")
        span_name = {}
        for e in spans:
            args = e.get("args") or {}
            if "span" in args:
                span_name[args["span"]] = e["name"]
        cross_names = set()
        for e in flows_f:
            start = flows_s.get(e["id"])
            if start is None:
                continue
            if start["pid"] != e["pid"]:
                cross_names.add(span_name.get(e["id"], "?"))
        if not cross_names:
            fail(f"{path}: flow pairs exist but none cross nodes")
        if not cross_names & {"peer.fetch", "peer.serve"}:
            fail(f"{path}: no cross-node flow arrow for a peer-fetched "
                 f"tile (saw {sorted(cross_names)})")
        if not cross_names & {"steal", "steal.serve", "region.grant"}:
            fail(f"{path}: no cross-node flow arrow for a stolen tile "
                 f"(saw {sorted(cross_names)})")
    print(f"check_telemetry: OK: {path} ({len(spans)} spans over "
          f"{len(span_pids)} nodes, {len(instants)} instant events, "
          f"{len(flows_f)} flow arrows)")


def check_metrics(path):
    """Validate a Prometheus text exposition (format 0.0.4)."""
    types = {}
    samples = []
    for lineno, raw in enumerate(open(path), 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge",
                                                   "histogram"):
                fail(f"{path}:{lineno}: malformed TYPE line {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        try:
            value = float(value_part)
        except ValueError:
            fail(f"{path}:{lineno}: non-numeric sample value {line!r}")
        name = name_part.split("{", 1)[0]
        if not name.startswith("rocket_"):
            fail(f"{path}:{lineno}: sample {name!r} lacks the rocket_ "
                 f"prefix")
        samples.append((name, name_part, value))
    if not types:
        fail(f"{path}: no # TYPE lines")
    histograms = [n for n, t in types.items() if t == "histogram"]
    for family in histograms:
        buckets = [(n_full, v) for n, n_full, v in samples
                   if n == family + "_bucket"]
        if not any('le="+Inf"' in n_full for n_full, _ in buckets):
            fail(f"{path}: histogram {family!r} missing the +Inf bucket")
        counts = [v for _, v in buckets]
        if counts != sorted(counts):
            fail(f"{path}: histogram {family!r} buckets are not cumulative")
        for suffix in ("_sum", "_count"):
            if not any(n == family + suffix for n, _, _ in samples):
                fail(f"{path}: histogram {family!r} missing {suffix}")
    by_kind = {kind: sum(1 for t in types.values() if t == kind)
               for kind in ("counter", "gauge", "histogram")}
    if 0 in by_kind.values():
        fail(f"{path}: expected counters, gauges and histograms, got "
             f"{by_kind}")
    print(f"check_telemetry: OK: {path} ({len(types)} families: {by_kind}, "
          f"{len(samples)} samples)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("kind", choices=["summary", "trace", "metrics"])
    parser.add_argument("path")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--expect-flows", action="store_true",
                        help="trace only: fail unless matched cross-node "
                             "flow arrows exist for both a peer-fetched "
                             "and a stolen tile")
    parser.add_argument("--expect-instants", default="",
                        metavar="NAME[,NAME]",
                        help="trace only: fail unless an instant ('i') "
                             "event of each named kind exists")
    parser.add_argument("--expect-master-failover", action="store_true",
                        help="fail unless failover.master_failovers > 0")
    parser.add_argument("--expect-resumed", action="store_true",
                        help="fail unless the run resumed from a journal "
                             "and recovered pairs")
    parser.add_argument("--expect-speculation", action="store_true",
                        help="fail unless end-game speculation copied "
                             "regions and pairs to idle nodes")
    args = parser.parse_args()
    if args.kind == "summary":
        check_summary(args.path, args.nodes, args.expect_master_failover,
                      args.expect_resumed, args.expect_speculation)
    elif args.kind == "trace":
        check_trace(args.path, args.nodes, args.expect_flows,
                    [name for name in args.expect_instants.split(",")
                     if name])
    else:
        check_metrics(args.path)


if __name__ == "__main__":
    main()
