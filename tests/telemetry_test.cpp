// Telemetry layer tests (DESIGN.md §13, §16): histogram bucket math and
// merge associativity, lock-free concurrent accumulation (run under TSAN
// in CI), the snapshot message's transport round trip, live cluster
// snapshot streaming, the Chrome-trace exporter's one timeline, the
// run-summary JSON shape, the profiler's span-retention cap, span logs,
// instants and flight dumps, critical-path attribution, and the
// ROCKET_LOG_LEVEL parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "apps/forensics.hpp"
#include "common/log.hpp"
#include "dnc/pair_space.hpp"
#include "mesh/live_cluster.hpp"
#include "mesh/transport.hpp"
#include "runtime/profiler.hpp"
#include "storage/object_store.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/run_summary.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace rocket::telemetry {
namespace {

// --- histogram bucket math ------------------------------------------------

TEST(LatencyHistogram, BucketBoundaries) {
  // Bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b) ns.
  EXPECT_EQ(LatencyHistogram::bucket_of(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_of(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucket_of(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucket_of(1024), 11u);
  // The top bucket absorbs everything too large for 63 shifted bits.
  EXPECT_EQ(LatencyHistogram::bucket_of(~std::uint64_t{0}),
            kHistogramBuckets - 1);

  // Every bucket's floor maps back into that bucket, and floor-1 maps to
  // the bucket below — the boundary is exact everywhere.
  for (std::size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
    const auto floor = HistogramSnapshot::bucket_floor_ns(b);
    EXPECT_EQ(LatencyHistogram::bucket_of(floor), b) << "bucket " << b;
    EXPECT_EQ(LatencyHistogram::bucket_of(floor - 1), b - 1)
        << "bucket " << b;
  }
}

TEST(LatencyHistogram, RecordAndSnapshot) {
  LatencyHistogram h;
  h.record_ns(0);
  h.record_ns(5);       // bucket 3: [4, 8)
  h.record_ns(1000);    // bucket 10: [512, 1024)
  h.record_seconds(1e-6);  // 1000 ns again
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum_ns, 2005u);
  EXPECT_EQ(snap.min_ns, 0u);
  EXPECT_EQ(snap.max_ns, 1000u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.buckets[10], 2u);
  // Quantiles stay inside the recorded envelope (the bucket midpoint is
  // clamped to [min, max]).
  EXPECT_GE(snap.quantile_seconds(0.99), 0.0);
  EXPECT_LE(snap.quantile_seconds(0.99), 1000e-9);
  EXPECT_DOUBLE_EQ(snap.mean_seconds(), 2005e-9 / 4.0);
}

TEST(HistogramSnapshot, MergeIsAssociativeAndCommutative) {
  const auto make = [](std::uint64_t seed) {
    LatencyHistogram h;
    for (std::uint64_t i = 1; i <= 50; ++i) h.record_ns(seed * i * i);
    auto s = h.snapshot();
    s.name = "m";
    return s;
  };
  const auto a = make(3), b = make(17), c = make(1001);

  auto ab_c = a;
  ab_c += b;
  ab_c += c;
  auto bc = b;
  bc += c;
  auto a_bc = a;
  a_bc += bc;
  auto ba = b;
  ba += a;
  ba += c;

  for (const auto& merged : {a_bc, ba}) {
    EXPECT_EQ(ab_c.count, merged.count);
    EXPECT_EQ(ab_c.sum_ns, merged.sum_ns);
    EXPECT_EQ(ab_c.min_ns, merged.min_ns);
    EXPECT_EQ(ab_c.max_ns, merged.max_ns);
    EXPECT_EQ(ab_c.buckets, merged.buckets);
  }
}

// --- concurrent accumulation (TSAN target) --------------------------------

TEST(MetricsRegistry, ConcurrentAccumulationIsExact) {
  MetricsRegistry registry(true);
  auto& counter = registry.counter("c");
  auto& gauge = registry.gauge("g");
  auto& histogram = registry.histogram("h");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
        gauge.add(2);
        gauge.sub(1);
        histogram.record_ns(i);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("c"), kThreads * kPerThread);
  EXPECT_EQ(snap.gauge_value("g"),
            static_cast<std::int64_t>(kThreads * kPerThread));
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, kThreads * kPerThread);
}

TEST(MetricsRegistry, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry(false);
  auto& counter = registry.counter("c");
  auto& histogram = registry.histogram("h");
  counter.add(42);
  histogram.record_ns(1000);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("c"), 0u);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
}

TEST(MetricsSnapshot, MergeByNameAddsAndAppends) {
  MetricsRegistry a(true), b(true);
  a.counter("shared").add(3);
  b.counter("shared").add(4);
  b.counter("only_b").add(5);
  a.histogram("lat").record_ns(10);
  b.histogram("lat").record_ns(20);
  auto merged = a.snapshot();
  merged += b.snapshot();
  EXPECT_EQ(merged.counter_value("shared"), 7u);
  EXPECT_EQ(merged.counter_value("only_b"), 5u);
  EXPECT_EQ(merged.histogram("lat")->count, 2u);
}

// --- snapshot transport round trip ----------------------------------------

TEST(TelemetrySnapshot, RoundTripsThroughTransport) {
  mesh::InProcessTransport transport(2, {128});
  NodeStats stats;
  stats.pairs = 12345;
  stats.cache_hits = 77;
  stats.in_flight_tiles = -3;  // gauges may read transiently negative
  stats.busy_seconds = 1.5;
  stats.lanes = 9;
  ASSERT_TRUE(transport.send(1, 0, net::Tag::kTelemetry,
                             mesh::TelemetrySnapshot{1, 42, stats}));
  const auto msg = transport.recv(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, net::Tag::kTelemetry);
  const auto* snap = std::get_if<mesh::TelemetrySnapshot>(&msg->body);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->node, 1u);
  EXPECT_EQ(snap->seq, 42u);
  EXPECT_EQ(snap->stats.pairs, 12345u);
  EXPECT_EQ(snap->stats.cache_hits, 77u);
  EXPECT_EQ(snap->stats.in_flight_tiles, -3);
  EXPECT_DOUBLE_EQ(snap->stats.busy_seconds, 1.5);
  EXPECT_EQ(snap->stats.lanes, 9u);
  // Telemetry traffic lands under its own tag in the counters.
  const auto& per_tag = transport.counters()
      .per_tag[static_cast<std::size_t>(net::Tag::kTelemetry)];
  EXPECT_EQ(per_tag.messages, 1u);
}

// --- live cluster snapshot streaming --------------------------------------

TEST(LiveCluster, StreamsClusterSnapshotsMidRun) {
  storage::MemoryStore mem;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 6;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 5;
  apps::ForensicsDataset dataset(fc, mem);
  apps::ForensicsApplication app(dataset);
  // Throttle the store so the run comfortably spans several snapshot
  // intervals on any CI machine. Each node overlaps its reads (one I/O
  // lane per tile in flight), so one read's latency must span them.
  storage::ThrottledStore store(mem, 12000);

  mesh::LiveClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node.host_cache_capacity = 8_MiB;
  cfg.node.cpu_threads = 2;
  cfg.snapshot_interval_s = 0.005;
  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<std::uint64_t> max_nodes_seen{0};
  cfg.on_cluster_snapshot = [&](const telemetry::ClusterSnapshot& snap) {
    callbacks.fetch_add(1);
    std::uint64_t prev = max_nodes_seen.load();
    while (prev < snap.nodes.size() &&
           !max_nodes_seen.compare_exchange_weak(prev, snap.nodes.size())) {
    }
  };
  mesh::LiveCluster cluster(cfg);
  std::uint64_t pairs = 0;
  const auto report = cluster.run_all_pairs(
      app, store, [&](const runtime::PairResult&) { ++pairs; });

  EXPECT_EQ(pairs, report.pairs);
  EXPECT_GE(callbacks.load(), 1u);
  // Once both publishers have been sampled the snapshot covers the mesh.
  EXPECT_EQ(max_nodes_seen.load(), 2u);
  const auto last = cluster.cluster_snapshot();
  EXPECT_GE(last.seq, 1u);
  EXPECT_GT(last.uptime_seconds, 0.0);
  for (const auto& node : last.nodes) {
    EXPECT_TRUE(node.alive);
    EXPECT_LE(node.cache_hit_rate, 1.0);
  }
  // The cluster metrics merge carries the hot-seam histograms.
  EXPECT_NE(report.metrics.histogram("tile.latency"), nullptr);
  EXPECT_GT(report.metrics.histogram("tile.latency")->count, 0u);
  EXPECT_NE(report.metrics.histogram("cache.acquire_wait"), nullptr);
  // Per-node traffic tables sum to the cluster table.
  ASSERT_EQ(report.node_traffic.size(), 2u);
  std::uint64_t per_node_messages = 0;
  for (const auto& t : report.node_traffic) {
    per_node_messages += t.total_messages();
  }
  EXPECT_EQ(per_node_messages, report.traffic.total_messages());
}

// --- trace exporter -------------------------------------------------------

TEST(TraceExporter, AlignsNodesOnOneTimeline) {
  using runtime::Profiler;
  using runtime::TaskKind;

  // Lanes and span-log records of every node share one clock, seconds
  // since the process epoch: no per-node offset exists.
  NodeTrace n0;
  n0.lanes.push_back(Profiler::LaneView{
      "gpu0", 0.002, {{TaskKind::kCompare, 0.001, 0.003}}});
  SpanRecord death;  // an instant: no sampled context
  death.phase = SpanPhase::kNodeDeath;
  death.start = death.end = 0.004;
  death.a = 2;
  death.b = 1;
  n0.causal_spans.push_back(death);

  NodeTrace n1;
  n1.lanes.push_back(Profiler::LaneView{
      "gpu0", 0.001, {{TaskKind::kIo, 0.011, 0.012}}});

  TraceExporter exporter;
  exporter.add_node(0, n0);
  exporter.add_node(1, n1);
  const std::string json = exporter.to_json();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"node 1\""), std::string::npos);
  EXPECT_NE(json.find("\"node_death\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"a\":2,\"b\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"compare\""), std::string::npos);
  // Node 0's span starts at 1 ms on the shared timeline and node 1's io
  // span at 11 ms. Timestamps are written in microseconds.
  EXPECT_NE(json.find("\"ts\":1000,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":11000,"), std::string::npos);
  // Balanced JSON at the macro level.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(SpanLog, InstantsNeedNoSampledContextAndShareTheCap) {
  SpanLog log(0, /*capacity=*/4);
  for (int i = 0; i < 2; ++i) {
    log.record(make_trace(1, static_cast<std::uint64_t>(i), 1),
               SpanPhase::kCompute, 0.0, 1.0);
  }
  for (int i = 0; i < 8; ++i) {
    log.instant(SpanPhase::kRemoteSteal, static_cast<std::uint32_t>(i));
  }
  const auto records = log.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_FALSE(records[1].instant());
  EXPECT_TRUE(records[2].instant());
  EXPECT_EQ(records[2].phase, SpanPhase::kRemoteSteal);
  EXPECT_EQ(records[3].a, 1u);
  EXPECT_EQ(records[3].start, records[3].end);
}

// --- run summary ----------------------------------------------------------

TEST(RunSummary, EmitsDocumentedSchema) {
  runtime::NodeRuntime::Report node_report;
  node_report.pairs = 10;
  node_report.wall_seconds = 0.5;
  node_report.loads = 4;
  MetricsRegistry reg(true);
  reg.histogram("tile.latency").record_ns(1000000);
  reg.counter("peer_fetch.retry").add(2);
  node_report.metrics = reg.snapshot();

  const auto summary = RunSummary::from_node("unit", node_report);
  const std::string json = summary.to_json();
  EXPECT_NE(json.find("\"schema\":\"rocket.run_summary/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"single_node\""), std::string::npos);
  EXPECT_NE(json.find("\"pairs\":10"), std::string::npos);
  EXPECT_NE(json.find("\"tile.latency\""), std::string::npos);
  EXPECT_NE(json.find("\"peer_fetch.retry\":2"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- profiler span cap ----------------------------------------------------

TEST(Profiler, CapsSpanRetentionAndCounts) {
  using runtime::Profiler;
  using runtime::TaskKind;
  Profiler profiler(/*trace=*/true, /*max_spans_per_lane=*/4);
  const auto lane = profiler.add_lane("test");
  const auto t0 = Profiler::Clock::now();
  for (int i = 0; i < 10; ++i) {
    profiler.record(lane, TaskKind::kCompare, t0, t0);
  }
  EXPECT_EQ(profiler.spans_dropped(), 6u);
  const auto lanes = profiler.lanes_view();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].spans.size(), 4u);
}

TEST(Profiler, DisabledRecordIsANoOp) {
  using runtime::Profiler;
  using runtime::TaskKind;
  Profiler profiler(/*trace=*/true);
  profiler.set_enabled(false);
  const auto lane = profiler.add_lane("test");
  const auto t0 = Profiler::Clock::now();
  profiler.record(lane, TaskKind::kCompare, t0, t0 + std::chrono::seconds(1));
  EXPECT_EQ(profiler.lanes_view()[0].spans.size(), 0u);
  EXPECT_DOUBLE_EQ(profiler.lane_busy_seconds(lane), 0.0);
}

// --- causal tracing (DESIGN.md §16) ---------------------------------------

TEST(Span, MakeTraceIsDeterministicAndSamplesEveryNth) {
  // Same (seed, key, n) → byte-identical context: replays trace the same
  // population.
  const auto a = make_trace(42, 1234, 8);
  const auto b = make_trace(42, 1234, 8);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.parent_id, 0u);

  EXPECT_FALSE(make_trace(42, 1234, 0).sampled());  // 0 disables
  EXPECT_TRUE(make_trace(42, 1234, 1).sampled());   // 1 traces everything

  // n = 8 samples roughly every 8th key (hash-based, so statistical).
  std::size_t sampled = 0;
  constexpr std::size_t kKeys = 8000;
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (make_trace(42, k, 8).sampled()) ++sampled;
  }
  EXPECT_GT(sampled, kKeys / 16);
  EXPECT_LT(sampled, kKeys / 4);

  // Different seeds pick different populations.
  std::size_t differs = 0;
  for (std::size_t k = 0; k < 100; ++k) {
    if (make_trace(1, k, 4).sampled() != make_trace(2, k, 4).sampled()) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0u);
}

TEST(Span, ChildIdsDeriveIdenticallyOnBothEndsOfAHop) {
  const auto root = make_trace(7, 99, 1);
  ASSERT_TRUE(root.sampled());
  // Both ends of a message hop hold the same parent context, so both
  // derive the same child id without coordination.
  const auto sender_view = child_of(root, 0x73657276);
  const auto receiver_view = child_of(root, 0x73657276);
  EXPECT_EQ(sender_view.span_id, receiver_view.span_id);
  EXPECT_EQ(sender_view.trace_id, root.trace_id);
  EXPECT_EQ(sender_view.parent_id, root.span_id);
  // Different salts fan out to different children of the same parent.
  EXPECT_NE(child_of(root, 1).span_id, child_of(root, 2).span_id);
}

TEST(SpanLog, OpenCloseAbortAccounting) {
  SpanLog log(3);
  const auto t1 = make_trace(1, 0, 1);
  const auto t2 = make_trace(1, 1, 1);
  const auto t3 = make_trace(1, 2, 1);
  log.open(t1, SpanPhase::kTile, 1.0);
  log.open(t2, SpanPhase::kPeerFetch, 1.5);
  log.open(t3, SpanPhase::kSteal, 2.0);
  EXPECT_EQ(log.open_count(), 3u);

  EXPECT_TRUE(log.close(t1.span_id, 3.0));
  EXPECT_FALSE(log.close(t1.span_id, 3.0));  // already closed: no-op
  EXPECT_FALSE(log.close(0xdead, 3.0));      // unknown id: no-op
  EXPECT_EQ(log.open_count(), 2u);

  // The teardown sweep (satellite-3 invariant): every straggler closes
  // with the aborted flag; nothing leaks.
  EXPECT_EQ(log.abort_open(4.0), 2u);
  EXPECT_EQ(log.open_count(), 0u);
  EXPECT_EQ(log.aborted_count(), 2u);

  const auto records = log.records();
  ASSERT_EQ(records.size(), 3u);
  std::size_t aborted = 0;
  for (const auto& span : records) {
    EXPECT_GE(span.end, span.start);
    EXPECT_EQ(span.node, 3u);
    if (span.aborted) ++aborted;
  }
  EXPECT_EQ(aborted, 2u);
}

TEST(SpanLog, DropsPastCapacityAndCounts) {
  SpanLog log(0, /*capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    log.record(make_trace(1, static_cast<std::uint64_t>(i), 1),
               SpanPhase::kCompute, 0.0, 1.0);
  }
  EXPECT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
}

TEST(FlightRecorder, ConcurrentWritersKeepLastK) {
  FlightRecorder ring(256);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.record(static_cast<std::uint16_t>(kFlightMessageBase + t),
                    static_cast<std::uint32_t>(t), i, i + 1, i, i);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ring.total_recorded(), kThreads * kPerThread);
  const auto dump = ring.dump();
  EXPECT_EQ(dump.size(), 256u);  // exactly the last K survive
  // Oldest-first order by claim sequence.
  const auto lines = ring.dump_json_lines();
  std::size_t newlines = std::count(lines.begin(), lines.end(), '\n');
  EXPECT_EQ(newlines, dump.size());
}

TEST(FlightRecorder, SpanLogTeesClosesIntoTheRing) {
  FlightRecorder ring(16);
  SpanLog log(1, 64, &ring);
  const auto ctx = make_trace(3, 5, 1);
  log.record(ctx, SpanPhase::kCompute, 0.25, 0.75);
  log.instant(SpanPhase::kMasterFailover, 2, 7);
  const auto dump = ring.dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].kind,
            static_cast<std::uint16_t>(SpanPhase::kCompute));
  EXPECT_EQ(dump[0].node, 1u);
  EXPECT_EQ(dump[0].trace_id, ctx.trace_id);
  EXPECT_EQ(dump[0].a, 250000u);  // start in µs
  EXPECT_EQ(dump[0].b, 750000u);  // end in µs
  // An instant's entry carries its arguments instead.
  EXPECT_EQ(dump[1].kind,
            static_cast<std::uint16_t>(SpanPhase::kMasterFailover));
  EXPECT_EQ(dump[1].trace_id, 0u);
  EXPECT_EQ(dump[1].a, 2u);
  EXPECT_EQ(dump[1].b, 7u);
}

TEST(CriticalPath, HighestPriorityPhaseWinsAndIdleIsRemainder) {
  // Window [0, 1]. Load covers [0.1, 0.6), compute covers [0.2, 0.5) on
  // top of it; compute outranks load, so load keeps only its uncovered
  // flanks. Everything outside [0.1, 0.6) is idle.
  std::vector<SpanRecord> spans;
  SpanRecord load;
  load.ctx = make_trace(1, 0, 1);
  load.phase = SpanPhase::kLoadWait;
  load.start = 0.1;
  load.end = 0.6;
  SpanRecord compute;
  compute.ctx = make_trace(1, 1, 1);
  compute.phase = SpanPhase::kCompute;
  compute.start = 0.2;
  compute.end = 0.5;
  spans.push_back(load);
  spans.push_back(compute);

  const auto report = analyze_critical_path(spans, 0.0, 1.0);
  EXPECT_EQ(report.spans_analyzed, 2u);
  EXPECT_DOUBLE_EQ(report.window_seconds, 1.0);
  const auto seconds = [&](PathPhase p) {
    return report.phases[static_cast<std::size_t>(p)].seconds;
  };
  EXPECT_NEAR(seconds(PathPhase::kCompute), 0.3, 1e-9);
  EXPECT_NEAR(seconds(PathPhase::kLoad), 0.2, 1e-9);
  EXPECT_NEAR(seconds(PathPhase::kIdle), 0.5, 1e-9);
  double total_percent = 0.0;
  for (const auto& share : report.phases) total_percent += share.percent;
  EXPECT_NEAR(total_percent, 100.0, 1e-6);
}

TEST(CriticalPath, RanksSlowestTilesWithTheirChains) {
  std::vector<SpanRecord> spans;
  const auto slow = make_trace(9, 0, 1);
  const auto fast = make_trace(9, 1, 1);
  SpanRecord tile;
  tile.ctx = slow;
  tile.phase = SpanPhase::kTile;
  tile.start = 0.0;
  tile.end = 0.8;
  spans.push_back(tile);
  SpanRecord child;
  child.ctx = child_of(slow, 1);
  child.phase = SpanPhase::kCompute;
  child.start = 0.1;
  child.end = 0.7;
  spans.push_back(child);
  SpanRecord quick;
  quick.ctx = fast;
  quick.phase = SpanPhase::kTile;
  quick.start = 0.0;
  quick.end = 0.2;
  spans.push_back(quick);

  const auto report = analyze_critical_path(spans, 0.0, 1.0, /*top_k=*/2);
  ASSERT_EQ(report.slowest.size(), 2u);
  EXPECT_EQ(report.slowest[0].trace_id, slow.trace_id);
  EXPECT_NEAR(report.slowest[0].seconds, 0.8, 1e-9);
  EXPECT_EQ(report.slowest[0].chain.size(), 2u);  // tile + its child
  EXPECT_EQ(report.slowest[1].trace_id, fast.trace_id);
}

TEST(CriticalPath, EmptyInputIsAllIdle) {
  const auto report = analyze_critical_path({}, 0.0, 2.0);
  EXPECT_NEAR(report.percent(PathPhase::kIdle), 100.0, 1e-9);
  EXPECT_TRUE(report.slowest.empty());
}

TEST(MetricsSnapshot, PrometheusTextExposition) {
  MetricsRegistry registry(true);
  registry.counter("peer_fetch.retry").add(3);
  registry.gauge("result.queue_depth").add(7);
  registry.histogram("tile.latency").record_ns(1000000);
  registry.histogram("tile.latency").record_ns(4000000);
  const std::string text = registry.expose_text();

  // Names sanitise to the rocket_ prefix; dots become underscores.
  EXPECT_NE(text.find("# TYPE rocket_peer_fetch_retry counter"),
            std::string::npos);
  EXPECT_NE(text.find("rocket_peer_fetch_retry 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rocket_result_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("rocket_result_queue_depth 7"), std::string::npos);
  // Histograms export as cumulative _seconds families.
  EXPECT_NE(text.find("# TYPE rocket_tile_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("rocket_tile_latency_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rocket_tile_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(text.find("rocket_tile_latency_seconds_sum"),
            std::string::npos);
  // The exposition ends with a newline (required by the format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(TraceExporter, EmitsCausalSpansWithCrossNodeFlowArrows) {
  const auto root = make_trace(11, 0, 1);
  const auto serve = child_of(root, 0x73657276);

  NodeTrace n0;  // requester: opens the peer.fetch root
  SpanRecord fetch;
  fetch.ctx = root;
  fetch.phase = SpanPhase::kPeerFetch;
  fetch.node = 0;
  fetch.start = 0.001;
  fetch.end = 0.004;
  n0.causal_spans.push_back(fetch);

  NodeTrace n1;  // server: records the serve child of the propagated ctx
  SpanRecord served;
  served.ctx = serve;
  served.phase = SpanPhase::kPeerServe;
  served.node = 1;
  served.start = 0.002;
  served.end = 0.003;
  n1.causal_spans.push_back(served);

  TraceExporter exporter;
  exporter.add_node(0, n0);
  exporter.add_node(1, n1);
  const std::string json = exporter.to_json();

  EXPECT_NE(json.find("\"peer.fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"peer.serve\""), std::string::npos);
  // Parent on node 0, child on node 1 → one "s"/"f" flow pair binds the
  // two slices across processes.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"causal\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// Satellite 3: a node killed mid-run (its peer fetches in flight) must not
// leak sampled spans — the teardown sweep closes every orphan with the
// aborted flag, and the surviving spans still produce a coherent
// critical-path attribution. Runs under TSAN in CI like the rest of this
// binary, so it also exercises the tracing hot paths for races.
TEST(LiveCluster, KilledNodeLeavesNoUnclosedSampledSpans) {
  storage::MemoryStore mem;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 6;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 5;
  apps::ForensicsDataset dataset(fc, mem);
  apps::ForensicsApplication app(dataset);
  // Slow loads keep peer fetches in flight when the kill lands.
  storage::ThrottledStore store(mem, 1500);

  mesh::LiveClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node.host_cache_capacity = 8_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.trace = true;
  cfg.trace_sample_n = 1;  // trace everything: maximal leak surface
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  mesh::Fault fault;
  fault.node = 2;
  fault.after_seconds = 0.02;
  cfg.faults.faults.push_back(fault);

  mesh::LiveCluster cluster(cfg);
  std::atomic<std::uint64_t> pairs{0};
  const auto report = cluster.run_all_pairs(
      app, store, [&](const runtime::PairResult&) { pairs.fetch_add(1); });

  // Exactly-once survived the kill.
  EXPECT_EQ(pairs.load(), report.pairs);
  EXPECT_EQ(report.pairs, dnc::count_pairs(dnc::root_region(
                              app.item_count())));

  // Every sampled span in every node's trace is closed (end >= start);
  // orphans of the dead node carry the aborted flag instead of leaking.
  std::size_t spans_seen = 0;
  for (const auto& node : report.nodes) {
    for (const auto& span : node.trace.causal_spans) {
      EXPECT_GE(span.end, span.start);
      ++spans_seen;
    }
  }
  EXPECT_GT(spans_seen, 0u);
  // The attribution still accounts for (essentially) the whole window.
  double total_percent = 0.0;
  for (const auto& share : report.critical_path.phases) {
    total_percent += share.percent;
  }
  EXPECT_NEAR(total_percent, 100.0, 1.0);
  EXPECT_GT(report.critical_path.spans_analyzed, 0u);
}

// A sampled tile's result message carries the tile's own result.deliver
// context, so the master's arrival span — and Perfetto's worker→master
// arrow — hangs off that tile's span DAG.
TEST(LiveCluster, ResultDeliveryArrowsHangOffTheTileDag) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 6;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 7;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  mesh::LiveClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node.host_cache_capacity = 8_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.trace = true;
  cfg.trace_sample_n = 1;  // every tile sampled
  // A slow master cannot steal node 1's whole share on a loaded machine,
  // so node 1 always executes tiles whose results cross the mesh.
  cfg.slow_node = 0;
  cfg.slow_factor = 10.0;
  mesh::LiveCluster cluster(cfg);
  const auto report =
      cluster.run_all_pairs(app, store, [](const runtime::PairResult&) {});

  std::map<std::uint64_t, SpanRecord> by_id;
  for (const auto& node : report.nodes) {
    for (const auto& span : node.trace.causal_spans) {
      by_id[span.ctx.span_id] = span;
    }
  }
  std::size_t arrows = 0;
  for (const auto& [id, span] : by_id) {
    if (span.phase != SpanPhase::kDeliver) continue;
    ASSERT_NE(span.ctx.parent_id, 0u)
        << "no deliver span is a root of its own trace";
    const auto parent = by_id.find(span.ctx.parent_id);
    ASSERT_NE(parent, by_id.end());
    if (parent->second.node == span.node) continue;
    // Cross-node edge: the master's arrival child of a worker tile's
    // result.deliver span, whose parent is that tile's root.
    EXPECT_EQ(span.node, 0u);
    EXPECT_EQ(parent->second.phase, SpanPhase::kDeliver);
    const auto tile = by_id.find(parent->second.ctx.parent_id);
    ASSERT_NE(tile, by_id.end());
    EXPECT_EQ(tile->second.phase, SpanPhase::kTile);
    EXPECT_EQ(tile->second.node, parent->second.node);
    EXPECT_EQ(tile->second.ctx.trace_id, span.ctx.trace_id);
    ++arrows;
  }
  // Every tile is sampled and sends one message: one arrow per tile
  // node 1 executed.
  EXPECT_GT(report.nodes[1].tiles, 0u);
  EXPECT_EQ(arrows, report.nodes[1].tiles);
}

// A traced run logs every instant where its counter counts, sampling or
// not: one node_death per death verdict, one region_adopt per adopted
// region (the master adopting one itself included), and on each node one
// remote_steal per region its workers got from the mesh (orphan pickups
// included). Instants are not spans: the critical path analyzes none.
TEST(LiveCluster, InstantsMatchTheirCounters) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 17;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  mesh::LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.host_cache_capacity = 8_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.trace = true;  // no sampling: the span logs hold instants only
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.faults.faults.push_back(mesh::Fault{2, /*after_messages=*/40, 0.0});
  mesh::LiveCluster cluster(cfg);
  const auto report =
      cluster.run_all_pairs(app, store, [](const runtime::PairResult&) {});
  ASSERT_EQ(report.pairs,
            dnc::count_pairs(dnc::root_region(app.item_count())));

  const auto instants = [](const NodeTrace& trace, SpanPhase phase) {
    return static_cast<std::uint64_t>(std::count_if(
        trace.causal_spans.begin(), trace.causal_spans.end(),
        [phase](const SpanRecord& r) {
          return r.instant() && r.phase == phase;
        }));
  };
  std::uint64_t deaths = 0;
  std::uint64_t adoptions = 0;
  for (std::size_t id = 0; id < report.nodes.size(); ++id) {
    const NodeTrace& trace = report.nodes[id].trace;
    deaths += instants(trace, SpanPhase::kNodeDeath);
    adoptions += instants(trace, SpanPhase::kRegionAdopt);
    EXPECT_EQ(instants(trace, SpanPhase::kRemoteSteal),
              report.nodes[id].steal.remote_steals)
        << "node " << id;
  }
  EXPECT_GE(report.failover.node_deaths, 1u);
  EXPECT_EQ(deaths, report.failover.node_deaths);
  EXPECT_EQ(adoptions, report.failover.regions_adopted);
  EXPECT_EQ(report.critical_path.spans_analyzed, 0u);
}

// A master failover dumps every node's black box, and the adopter's dump
// names the handover: the span log tees the dead master's death verdict
// and the failover instant into the ring. 12 items keep each 1024-entry
// ring from wrapping.
TEST(LiveCluster, MasterFailoverDumpNamesTheHandover) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 6;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 23;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  storage::MemoryStore checkpoint;
  mesh::LiveClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node.host_cache_capacity = 8_MiB;
  cfg.node.cpu_threads = 2;
  cfg.trace_sample_n = 64;
  cfg.checkpoint_store = &checkpoint;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.faults.faults.push_back(mesh::Fault{0, /*after_messages=*/30, 0.0});
  mesh::LiveCluster cluster(cfg);
  const auto report =
      cluster.run_all_pairs(app, store, [](const runtime::PairResult&) {});

  ASSERT_EQ(report.failover.master_failovers, 1u);
  EXPECT_EQ(report.flight_dumps, 3u);
  const ByteBuffer bytes = checkpoint.read("rocket.flightrec.node1");
  const std::string dump(bytes.begin(), bytes.end());
  EXPECT_NE(dump.find("\"kind_name\":\"node_death\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind_name\":\"master_failover\""),
            std::string::npos);
}

// --- log level parsing ----------------------------------------------------

TEST(LogLevel, ParsesNamesAndDigits) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("3"), LogLevel::kError);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(parse_log_level("5"), std::nullopt);
}

}  // namespace
}  // namespace rocket::telemetry
