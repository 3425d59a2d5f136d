// Failure-model tests (DESIGN.md §12): scripted fault schedules and link
// partitions at the transport, the master's exactly-once ResultLedger, the
// mediator chain-walk cap, the heartbeat/lease failure detector, orphaned
// steal regions re-adopted under a racing node death (TSAN target), the
// bounded kFailed retry path, and the chaos acceptance matrix — LiveCluster
// runs that kill nodes mid-computation and must still produce the exact
// single-node result multiset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/forensics.hpp"
#include "apps/microscopy.hpp"
#include "cache/distributed_directory.hpp"
#include "common/backoff.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "dnc/pair_space.hpp"
#include "mesh/checkpoint.hpp"
#include "mesh/live_cluster.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/node_runtime.hpp"
#include "steal/executor.hpp"

namespace rocket::mesh {
namespace {

using runtime::ItemId;
using runtime::PairResult;
using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;
using PairSet = std::set<std::pair<dnc::ItemIndex, dnc::ItemIndex>>;

/// Expand regions into their pair set, asserting the regions are disjoint.
PairSet pair_set(const std::vector<dnc::Region>& regions) {
  PairSet out;
  for (const auto& region : regions) {
    dnc::for_each_pair(region, [&](const dnc::Pair& p) {
      EXPECT_TRUE(out.insert({p.left, p.right}).second)
          << "regions overlap at (" << p.left << "," << p.right << ")";
    });
  }
  return out;
}

// --- scripted fault schedules at the transport ----------------------------

TEST(FaultSchedule, SingleKillIsDeterministicAndSparesTheMaster) {
  std::set<NodeId> victims;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const auto schedule = FaultSchedule::single_kill(seed, 4, 200);
    ASSERT_EQ(schedule.faults.size(), 1u);
    const Fault& fault = schedule.faults[0];
    EXPECT_GE(fault.node, 1u) << "the master must never be scheduled";
    EXPECT_LE(fault.node, 3u);
    EXPECT_GE(fault.after_messages, 1u);
    EXPECT_LE(fault.after_messages, 200u);
    EXPECT_EQ(fault.after_seconds, 0.0);
    victims.insert(fault.node);

    // Replayable: the same seed derives the same schedule.
    const auto again = FaultSchedule::single_kill(seed, 4, 200);
    EXPECT_EQ(again.faults[0].node, fault.node);
    EXPECT_EQ(again.faults[0].after_messages, fault.after_messages);
  }
  // 64 seeds over 3 victims: every non-master node gets its turn.
  EXPECT_EQ(victims.size(), 3u);

  // Degenerate inputs produce no faults instead of killing the master.
  EXPECT_TRUE(FaultSchedule::single_kill(7, 1, 100).empty());
  EXPECT_TRUE(FaultSchedule::single_kill(7, 4, 0).empty());
}

TEST(InProcessTransport, MessageTriggeredFaultKillsTheNode) {
  InProcessTransport::Config tc;
  tc.faults.faults.push_back(Fault{2, /*after_messages=*/2, 0.0});
  InProcessTransport transport(3, tc);

  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{1, 0}));
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{2, 0}));
  EXPECT_FALSE(transport.is_down(2)) << "faults fire on send, not eagerly";

  // Two messages delivered: the next send evaluates the schedule and the
  // fault fires before delivery — node 2 is dead in both directions.
  EXPECT_FALSE(transport.send(0, 2, net::Tag::kCacheRequest,
                              CacheRequest{3, 0}));
  EXPECT_TRUE(transport.is_down(2));
  EXPECT_FALSE(transport.send(2, 1, net::Tag::kCacheRequest,
                              CacheRequest{4, 2}));
  // Survivor links keep working, and rejected sends are not recorded.
  EXPECT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{5, 0}));
  EXPECT_EQ(transport.counters().total_messages(), 3u);
  EXPECT_EQ(transport.delivered_messages(), 3u);
  transport.close();
}

TEST(InProcessTransport, TimeTriggeredFaultKillsTheNode) {
  InProcessTransport::Config tc;
  tc.faults.faults.push_back(Fault{1, 0, /*after_seconds=*/0.001});
  InProcessTransport transport(2, tc);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(transport.send(0, 1, net::Tag::kCacheRequest,
                              CacheRequest{1, 0}));
  EXPECT_TRUE(transport.is_down(1));
  transport.close();
}

TEST(InProcessTransport, LinkDownIsAsymmetric) {
  InProcessTransport transport(2);
  transport.set_link_down(0, 1);
  // The one-way partition: 0 cannot reach 1, but 1 still reaches 0 — the
  // shape that fools failure detectors without killing anybody.
  EXPECT_FALSE(transport.send(0, 1, net::Tag::kCacheRequest,
                              CacheRequest{1, 0}));
  EXPECT_TRUE(transport.send(1, 0, net::Tag::kCacheRequest,
                             CacheRequest{1, 1}));
  EXPECT_FALSE(transport.is_down(0));
  EXPECT_FALSE(transport.is_down(1));
  transport.set_link_down(0, 1, false);
  EXPECT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{2, 0}));
  transport.close();
}

// --- exactly-once result ledger -------------------------------------------

TEST(ResultLedger, FirstResultWinsLaterOnesDrop) {
  ResultLedger ledger(4, 2);
  ledger.grant(1, dnc::root_region(4), /*reexecution=*/false);

  EXPECT_TRUE(ledger.record(0, 1));
  EXPECT_FALSE(ledger.record(0, 1)) << "duplicates are dropped";
  EXPECT_FALSE(ledger.record(0, 1));
  EXPECT_TRUE(ledger.record(0, 2));
  EXPECT_EQ(ledger.delivered(), 2u);
  EXPECT_EQ(ledger.duplicates(), 2u);
}

TEST(ResultLedger, UndeliveredRegionsCoalesceIntoRowRuns) {
  const dnc::ItemIndex n = 8;
  ResultLedger ledger(n, 3);
  ledger.grant(1, dnc::root_region(n), false);

  // Deliver a prefix of row 0 and a mid-row pair of row 3: the remainder
  // must come back as exact row runs — no over- or under-coverage.
  ASSERT_TRUE(ledger.record(0, 1));
  ASSERT_TRUE(ledger.record(0, 2));
  ASSERT_TRUE(ledger.record(0, 3));
  ASSERT_TRUE(ledger.record(3, 5));

  const auto regions = ledger.undelivered_of(1);
  PairSet expected;
  dnc::for_each_pair(dnc::root_region(n), [&](const dnc::Pair& p) {
    expected.insert({p.left, p.right});
  });
  expected.erase({0, 1});
  expected.erase({0, 2});
  expected.erase({0, 3});
  expected.erase({3, 5});
  EXPECT_EQ(pair_set(regions), expected);
  for (const auto& region : regions) {
    EXPECT_EQ(region.row_end, region.row_begin + 1) << "row runs only";
  }
  // Row 3 splits around the delivered pair: (3,4) and (3,6..7).
  EXPECT_TRUE(std::find(regions.begin(), regions.end(),
                        dnc::Region{3, 4, 4, 5, 0}) != regions.end());
  EXPECT_TRUE(std::find(regions.begin(), regions.end(),
                        dnc::Region{3, 4, 6, 8, 0}) != regions.end());

  // An unknown owner holds nothing.
  EXPECT_TRUE(ledger.undelivered_of(2).empty());
}

TEST(ResultLedger, TransferMovesOnlyUndeliveredPairs) {
  const dnc::ItemIndex n = 6;
  ResultLedger ledger(n, 3);
  const auto root = dnc::root_region(n);
  ledger.grant(1, root, false);
  ASSERT_TRUE(ledger.record(0, 1));

  // Steal-transfer notice: everything undelivered now belongs to node 2;
  // the delivered pair's race is already over and stays put.
  ledger.transfer(root, 2);
  EXPECT_TRUE(ledger.undelivered_of(1).empty());
  PairSet expected;
  dnc::for_each_pair(root, [&](const dnc::Pair& p) {
    expected.insert({p.left, p.right});
  });
  expected.erase({0, 1});
  EXPECT_EQ(pair_set(ledger.undelivered_of(2)), expected);

  // A survivor re-grant counts as one re-executed region.
  ledger.grant(0, dnc::Region{0, 1, 1, 6, 0}, /*reexecution=*/true);
  EXPECT_EQ(ledger.regions_regranted(), 1u);
}

// --- mediator prune ------------------------------------------------------

TEST(DistributedDirectory, RemoveNodePrunesCandidates) {
  cache::DistributedDirectory directory(4);
  const cache::ItemId item = 9;
  directory.on_request(item, 1);
  directory.on_request(item, 2);
  directory.on_request(item, 3);
  ASSERT_EQ(directory.candidates(item),
            (std::vector<cache::NodeId>{3, 2, 1}));

  // The failure detector's prune: a dead node must never be handed out
  // as a candidate again.
  directory.remove_node(2);
  EXPECT_EQ(directory.candidates(item), (std::vector<cache::NodeId>{3, 1}));
  EXPECT_EQ(directory.on_request(item, 4),
            (std::vector<cache::NodeId>{3, 1}));
}

// --- heartbeat / lease failure detector -----------------------------------

/// p MeshNodes with the failure model live: the master runs the lease
/// detector over a small ledger, non-masters heartbeat. No runtimes.
struct DetectorHarness {
  static constexpr std::uint32_t kNodes = 3;
  static constexpr dnc::ItemIndex kItems = 8;

  InProcessTransport transport{kNodes};
  std::shared_ptr<std::atomic<bool>> done =
      std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  bool joined = false;

  DetectorHarness() {
    for (NodeId id = 0; id < kNodes; ++id) {
      MeshNode::Config mc;
      mc.id = id;
      if (id == MeshNode::kMaster) {
        // Generous lease vs heartbeat period: a healthy node missing a
        // verdict here would be a detector bug, not scheduling jitter.
        mc.lease_timeout_s = 0.25;
        mc.ledger_items = kItems;
        mc.initial_grants = dnc::partition_root(kItems, kNodes, 2);
      } else {
        mc.heartbeat_interval_s = 0.02;
      }
      nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
    }
    for (auto& node : nodes) node->start();
  }

  ~DetectorHarness() { shutdown(); }

  void shutdown() {
    if (joined) return;
    joined = true;
    transport.close();
    for (auto& node : nodes) node->join();
  }

  /// Spin until `node` is declared dead at every live observer.
  bool await_verdict(NodeId node, std::vector<NodeId> observers,
                     double timeout_s = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      bool all = true;
      for (const NodeId observer : observers) {
        all = all && nodes[observer]->is_dead(node);
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }
};

TEST(FailureDetector, MissedLeasesTriggerClusterWideVerdict) {
  DetectorHarness mesh;

  // Healthy cluster: heartbeats renew every lease, nobody is declared.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(1));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(2));

  // Kill node 2: its silence exceeds the lease and the master's verdict
  // is broadcast — the surviving peer learns it too.
  mesh.transport.set_down(2);
  EXPECT_TRUE(mesh.await_verdict(2, {0, 1}));
  EXPECT_FALSE(mesh.nodes[0]->is_dead(1)) << "healthy node unaffected";

  mesh.shutdown();
  FailoverStats failover = mesh.nodes[0]->failover_stats();
  for (NodeId id = 1; id < DetectorHarness::kNodes; ++id) {
    failover += mesh.nodes[id]->failover_stats();
  }
  EXPECT_GE(failover.node_deaths, 1u);
  // Node 2's initial grant had no delivered results: every one of its
  // pairs was re-granted to a survivor, and a survivor adopted them.
  EXPECT_GE(failover.regions_reexecuted, 1u);
  EXPECT_GE(failover.regions_adopted, 1u);
}

TEST(FailureDetector, OneWayPartitionStillDrawsVerdict) {
  DetectorHarness mesh;

  // Node 1 can receive but not send: its heartbeats vanish, so the master
  // must declare it — a false positive from the node's point of view,
  // which the ledger's dedup makes correctness-safe (DESIGN.md §12).
  mesh.transport.set_link_down(1, 0);
  EXPECT_TRUE(mesh.await_verdict(1, {0, 2}));
  EXPECT_FALSE(mesh.transport.is_down(1)) << "the node itself is alive";

  mesh.shutdown();
  FailoverStats failover = mesh.nodes[0]->failover_stats();
  EXPECT_GE(failover.node_deaths, 1u);
  EXPECT_GE(failover.regions_reexecuted, 1u);
}

// --- orphaned steal regions under a racing death (TSAN target) -------------

TEST(StealFailover, OrphanedRegionsExecuteExactlyOnce) {
  // Two mesh nodes, real executors, no failure detector: node 0 owns the
  // whole pair space and exports work, node 1 owns nothing and lives off
  // stealing. Node 1 is killed mid-run, so in-flight steal replies race
  // the kill three ways: delivered-and-executed on the thief, queued on
  // the wire (still drained — it was sent before the crash), or rejected
  // at send, in which case the victim parks the region as an orphan and
  // re-adopts it through its own steal hook. Every pair must execute
  // exactly once across both nodes — no loss, no re-execution.
  const dnc::ItemIndex n = 48;
  const auto root = dnc::root_region(n);
  const std::uint64_t total = dnc::count_pairs(root);

  InProcessTransport transport(2);
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;
  for (NodeId id = 0; id < 2; ++id) {
    MeshNode::Config mc;
    mc.id = id;
    mc.num_workers = 2;
    mc.seed = 17 + id;
    nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
  }
  for (auto& node : nodes) node->start();

  std::mutex mutex;
  std::map<std::pair<dnc::ItemIndex, dnc::ItemIndex>, int> counts;
  std::atomic<std::uint64_t> executed{0};
  const auto leaf = [&](const dnc::Region& region, std::uint32_t) {
    std::uint64_t batch = 0;
    {
      std::scoped_lock lock(mutex);
      dnc::for_each_pair(region, [&](const dnc::Pair& p) {
        ++counts[{p.left, p.right}];
        ++batch;
      });
    }
    if (executed.fetch_add(batch, std::memory_order_acq_rel) + batch ==
        total) {
      done->store(true, std::memory_order_release);
      for (auto& node : nodes) node->wake();
    }
  };

  // Kill the thief once a quarter of the work has run — deep inside the
  // steal traffic, not before it starts or after it drains.
  std::thread killer([&] {
    while (!done->load(std::memory_order_acquire) &&
           executed.load(std::memory_order_acquire) < total / 4) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    transport.set_down(1);
  });

  steal::StealExporter exporter;
  nodes[0]->register_exporter(&exporter);
  std::thread victim([&] {
    steal::StealExecutor::Config ec;
    ec.num_workers = 2;
    ec.max_leaf_pairs = 4;  // many leaves => many steals
    ec.seed = 5;
    steal::StealExecutor ex(ec);
    steal::StealExecutor::RemoteHooks hooks;
    hooks.steal = [&](std::uint32_t w) { return nodes[0]->remote_steal(w); };
    hooks.done = [&] { return nodes[0]->global_done(); };
    ex.run_partition({root}, leaf, hooks, &exporter);
  });
  std::thread thief([&] {
    steal::StealExecutor::Config ec;
    ec.num_workers = 2;
    ec.max_leaf_pairs = 4;
    ec.seed = 6;
    steal::StealExecutor ex(ec);
    steal::StealExecutor::RemoteHooks hooks;
    hooks.steal = [&](std::uint32_t w) { return nodes[1]->remote_steal(w); };
    hooks.done = [&] { return nodes[1]->global_done(); };
    ex.run_partition({}, leaf, hooks, nullptr);
  });

  victim.join();
  thief.join();
  killer.join();
  nodes[0]->register_exporter(nullptr);
  transport.close();
  for (auto& node : nodes) node->join();

  EXPECT_EQ(executed.load(), total);
  ASSERT_EQ(counts.size(), total);
  for (const auto& [pair, count] : counts) {
    EXPECT_EQ(count, 1) << "pair (" << pair.first << "," << pair.second
                        << ") executed " << count << " times";
  }
}

// --- chaos acceptance matrix ----------------------------------------------

ResultMap single_node_reference(const runtime::Application& app,
                                storage::ObjectStore& store) {
  runtime::NodeRuntime::Config cfg;
  cfg.devices = {gpu::titanx_maxwell()};
  cfg.host_cache_capacity = 64_MiB;
  cfg.cpu_threads = 2;
  runtime::NodeRuntime rt(cfg);
  ResultMap results;
  std::mutex mutex;
  rt.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    results[{r.left, r.right}] = r.score;
  });
  return results;
}

struct ChaosOutcome {
  ResultMap results;
  LiveClusterReport report;
};

/// A 4-node cluster with an aggressive failover clock (millisecond leases
/// and fetch deadlines) and the given kill schedule. One-pair leaves keep
/// two-item tiles, one result message per pair, so the message-count
/// kill points land mid-run.
ChaosOutcome run_chaos(const runtime::Application& app,
                       storage::ObjectStore& store, FaultSchedule faults) {
  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.node.max_leaf_pairs = 1;
  cfg.hop_limit = 2;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.faults = std::move(faults);
  LiveCluster cluster(cfg);

  ChaosOutcome outcome;
  outcome.report = cluster.run_all_pairs(
      app, store, [&](const PairResult& r) {
        outcome.results[{r.left, r.right}] = r.score;
      });
  return outcome;
}

void expect_survived_exactly(const ChaosOutcome& outcome,
                             const ResultMap& expected,
                             std::uint64_t min_deaths) {
  // The tentpole guarantee: the exact single-node result multiset, with
  // every re-executed duplicate dropped at the master — never
  // double-counted, never lost.
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
  EXPECT_GE(outcome.report.failover.node_deaths, min_deaths);
  EXPECT_GT(outcome.report.failover.regions_reexecuted, 0u)
      << "a mid-run death must orphan work";
  EXPECT_EQ(outcome.report.failover.results_received,
            outcome.report.pairs + outcome.report.duplicate_results_dropped)
      << "every received result is either delivered once or dropped";
}

TEST(ChaosMatrix, SingleKillsPreserveExactResults) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 17;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), 20ull * 19 / 2);

  // Kill each non-master node at an early, mid and late point of the
  // message stream. Message triggers make the schedules replayable
  // independent of wall-clock speed.
  for (const NodeId victim : {1u, 2u, 3u}) {
    for (const std::uint64_t after : {5ull, 35ull, 90ull}) {
      SCOPED_TRACE("kill node " + std::to_string(victim) + " after " +
                   std::to_string(after) + " messages");
      FaultSchedule schedule;
      schedule.faults.push_back(Fault{victim, after, 0.0});
      const auto outcome = run_chaos(app, store, std::move(schedule));
      expect_survived_exactly(outcome, expected, 1);
    }
  }
}

TEST(ChaosMatrix, TwoNodeDeathsSurvived) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 29;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Two of the three workers die at different points; the master and one
  // survivor absorb the whole pair space.
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{1, 20, 0.0});
  schedule.faults.push_back(Fault{2, 70, 0.0});
  const auto outcome = run_chaos(app, store, std::move(schedule));
  expect_survived_exactly(outcome, expected, 2);
}

TEST(ChaosMatrix, SeededSingleKillScheduleReplays) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 31;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // The randomized-sweep entry point: a seed fully determines the kill.
  const auto schedule = FaultSchedule::single_kill(99, 4, 120);
  ASSERT_EQ(schedule.faults.size(), 1u);
  const auto outcome = run_chaos(app, store, schedule);
  expect_survived_exactly(outcome, expected, 1);
}

TEST(ChaosMatrix, GreyFailureStragglerFlakyStoreAndKillSurvived) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 16;  // enough work for an end game after the kill
  fc.width = 48;
  fc.height = 40;
  fc.seed = 41;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // All three failure modes at once (DESIGN.md §15): node 1 is a grey
  // straggler (50x slower kernels, half a millisecond of extra store
  // latency per read), every node's store reads are flaky, and node 3
  // dies outright mid-run. The consecutive-failure cap keeps every
  // transient streak inside the default per-load retry allowance, so the
  // result multiset must still be exact.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 0.2;
  flaky_cfg.spike_rate = 0.1;
  flaky_cfg.spike_us = 100;
  flaky_cfg.max_consecutive_failures = 2;
  flaky_cfg.seed = 41;
  storage::FlakyStore flaky(store, flaky_cfg);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.speculation = true;
  cfg.node.trace = true;  // span logs hold the region_speculated instants
  cfg.slow_node = 1;
  cfg.slow_factor = 50.0;
  cfg.slow_store_latency_us = 500;
  cfg.faults.faults.push_back(Fault{3, 40, 0.0});
  LiveCluster cluster(cfg);

  ChaosOutcome outcome;
  outcome.report = cluster.run_all_pairs(
      app, flaky, [&](const PairResult& r) {
        outcome.results[{r.left, r.right}] = r.score;
      });

  expect_survived_exactly(outcome, expected, 1);
  EXPECT_EQ(outcome.report.failover.node_deaths, 1u)
      << "the straggler is slow, not dead: its heartbeats still flow and "
         "its lease must never expire";
  EXPECT_GT(outcome.report.failover.regions_speculated, 0u)
      << "idle nodes must receive copies of in-flight work";
  // One instant per copied region; b names the node copied from.
  std::uint64_t copies = 0;
  std::uint64_t from_straggler = 0;
  for (const auto& node : outcome.report.nodes) {
    for (const telemetry::SpanRecord& r : node.trace.causal_spans) {
      if (!r.instant() || r.phase != telemetry::SpanPhase::kRegionSpeculated) {
        continue;
      }
      ++copies;
      if (r.b == 1) ++from_straggler;
    }
  }
  EXPECT_EQ(copies, outcome.report.failover.regions_speculated);
  EXPECT_GT(2 * from_straggler, copies)
      << "most copies must come from the straggler, node 1";
  EXPECT_GT(outcome.report.load_retries, 0u)
      << "the flaky store must have fired";
  EXPECT_EQ(outcome.report.failed_loads, 0u)
      << "bounded streaks must never exhaust a load's retries";
}

// --- durability primitives: CRC32 and shared backoff (DESIGN.md §14) -------

TEST(Crc32, MatchesKnownAnswerAndChains) {
  // The IEEE/zlib check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);

  // Incremental updates compose to the one-shot answer.
  std::uint32_t crc = crc32_update(0, "1234", 4);
  crc = crc32_update(crc, "56789", 5);
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(BackoffPolicy, DoublesCapsAndJittersDeterministically) {
  const BackoffPolicy policy{1e-4, 1e-3, 0.25, 10};
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(0), 1e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(1), 2e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(2), 4e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(3), 8e-4);
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(4), 1e-3) << "cap binds";
  EXPECT_DOUBLE_EQ(policy.raw_delay_seconds(1000), 1e-3)
      << "huge attempts must not overflow the shift";

  for (std::uint32_t attempt = 0; attempt < 8; ++attempt) {
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const double raw = policy.raw_delay_seconds(attempt);
      const double jittered = policy.delay_seconds(attempt, salt);
      EXPECT_GE(jittered, raw * 0.75);
      EXPECT_LT(jittered, raw * 1.25);
      // The deterministic-for-test hook: same (attempt, salt), same delay.
      EXPECT_DOUBLE_EQ(jittered, policy.delay_seconds(attempt, salt));
    }
  }
  // Distinct salts decorrelate concurrent retriers.
  EXPECT_NE(policy.delay_seconds(3, 1), policy.delay_seconds(3, 2));

  const BackoffPolicy no_jitter{1e-4, 1e-3, 0.0, 10};
  EXPECT_DOUBLE_EQ(no_jitter.delay_seconds(2, 99),
                   no_jitter.raw_delay_seconds(2));
}

// --- transport frame CRC and the corrupt-frame injector --------------------

TEST(InProcessTransport, CorruptInjectorDeliversMangledThenCleanFrame) {
  InProcessTransport::Config tc;
  tc.corrupt_rate = 1.0;  // every frame gets a mangled twin
  InProcessTransport transport(2, tc);
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{7, 0}));

  // The mangled copy is delivered first and fails CRC verification...
  const auto mangled = transport.recv(1);
  ASSERT_TRUE(mangled.has_value());
  EXPECT_NE(frame_crc(mangled->body), mangled->crc);

  // ...and the clean retransmit always follows, intact.
  const auto clean = transport.recv(1);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(frame_crc(clean->body), clean->crc);
  ASSERT_TRUE(std::holds_alternative<CacheRequest>(clean->body));
  EXPECT_EQ(std::get<CacheRequest>(clean->body).item, 7u);

  EXPECT_EQ(transport.corrupted_frames(), 1u);
  transport.close();
}

TEST(InProcessTransport, FrameCrcCoversEveryBodyAlternative) {
  // Two bodies of the same alternative but different content must hash
  // differently; the same content under a different alternative too.
  const MessageBody a = CacheRequest{1, 0};
  const MessageBody b = CacheRequest{2, 0};
  EXPECT_NE(frame_crc(a), frame_crc(b));
  EXPECT_EQ(frame_crc(a), frame_crc(MessageBody{CacheRequest{1, 0}}));
  EXPECT_NE(frame_crc(MessageBody{Heartbeat{1, 0}}),
            frame_crc(MessageBody{NodeDown{1, 0}}));

  // Batched results: one result's score, the order of the results, and
  // the batch length each change the frame.
  const std::vector<PairResult> batch{{0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}};
  std::vector<PairResult> rescored = batch;
  rescored[1].score = 1.25;
  std::vector<PairResult> reordered = batch;
  std::swap(reordered[0], reordered[2]);
  std::vector<PairResult> shorter = batch;
  shorter.pop_back();
  const std::uint32_t base = frame_crc(MessageBody{ResultMsg{batch, {}}});
  EXPECT_EQ(base, frame_crc(MessageBody{ResultMsg{batch, {}}}));
  const std::set<std::uint32_t> crcs{
      base, frame_crc(MessageBody{ResultMsg{rescored, {}}}),
      frame_crc(MessageBody{ResultMsg{reordered, {}}}),
      frame_crc(MessageBody{ResultMsg{shorter, {}}}),
      frame_crc(MessageBody{ResultMsg{{}, {}}})};
  EXPECT_EQ(crcs.size(), 5u);
}

/// Field-by-field equality of two result batches (PairResult has no ==).
bool same_results(const std::vector<PairResult>& a,
                  const std::vector<PairResult>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PairResult& x, const PairResult& y) {
                      return x.left == y.left && x.right == y.right &&
                             x.score == y.score;
                    });
}

TEST(InProcessTransport, CorruptInjectorManglesAResultOfABatch) {
  InProcessTransport::Config tc;
  tc.corrupt_rate = 1.0;
  InProcessTransport transport(2, tc);
  const std::vector<PairResult> batch{
      {0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}, {0, 3, 2.0}, {1, 3, 0.0}};
  const telemetry::SpanContext span{7, 8, 9};
  ASSERT_TRUE(transport.send(1, 0, net::Tag::kResult, ResultMsg{batch, span}));

  // The mangled copy differs in a result field, not only in the span, and
  // fails verification...
  const auto mangled = transport.recv(0);
  ASSERT_TRUE(mangled.has_value());
  EXPECT_NE(frame_crc(mangled->body), mangled->crc);
  const auto& bad = std::get<ResultMsg>(mangled->body);
  EXPECT_EQ(bad.results.size(), batch.size());
  EXPECT_EQ(bad.span.span_id, span.span_id);
  EXPECT_FALSE(same_results(bad.results, batch));

  // ...while the clean retransmit carries the batch intact.
  const auto clean = transport.recv(0);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(frame_crc(clean->body), clean->crc);
  EXPECT_TRUE(same_results(std::get<ResultMsg>(clean->body).results, batch));
  transport.close();
}

TEST(MeshNode, MasterDropsAMangledBatchAndDeliversTheCleanOne) {
  InProcessTransport::Config tc;
  tc.corrupt_rate = 1.0;
  InProcessTransport transport(2, tc);
  auto done = std::make_shared<std::atomic<bool>>(false);
  const std::vector<PairResult> batch{
      {0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}, {0, 3, 2.0}, {1, 3, 0.0}};

  std::vector<PairResult> delivered;  // service thread only until join
  std::promise<void> completed;
  MeshNode::Config mc;
  mc.id = MeshNode::kMaster;
  mc.expected_pairs = batch.size();
  mc.on_result = [&](const PairResult& r) { delivered.push_back(r); };
  mc.on_complete = [&] { completed.set_value(); };
  MeshNode master(mc, transport, done);
  master.start();

  ASSERT_TRUE(transport.send(1, MeshNode::kMaster, net::Tag::kResult,
                             ResultMsg{batch, {}}));
  ASSERT_EQ(completed.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  transport.close();
  master.join();

  // Exactly the clean batch, in order: the mangled twin never reached
  // the aggregation.
  EXPECT_TRUE(same_results(delivered, batch));
  EXPECT_EQ(master.failover_stats().results_received, batch.size());
  std::uint64_t dropped = 0;
  for (const auto& [name, value] : master.metrics_snapshot().counters) {
    if (name == "net.frame_corrupt") dropped = value;
  }
  EXPECT_EQ(dropped, 1u);
}

// --- checkpoint journal: round trip and torn-tail fuzz ---------------------

TEST(Checkpoint, JournalRoundTripsThroughReplay) {
  storage::MemoryStore store;
  checkpoint::Manifest manifest;
  manifest.items = 10;
  manifest.num_nodes = 2;
  manifest.granularity = 2;
  manifest.seed = 7;
  manifest.expected_pairs = 45;
  manifest.fingerprint = checkpoint::Journal::fingerprint(10, 2, 2, 7);

  checkpoint::Journal journal(store, "run.journal");
  journal.start_fresh(manifest);
  journal.append_results({{0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}});
  journal.append_results({{2, 3, 0.25}});
  EXPECT_EQ(journal.records_appended(), 3u);

  const auto replay = checkpoint::Journal::replay(store, "run.journal");
  ASSERT_TRUE(replay.found);
  ASSERT_TRUE(replay.has_manifest);
  EXPECT_EQ(replay.manifest, manifest);
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.records, 3u);
  ASSERT_EQ(replay.results.size(), 4u);
  EXPECT_EQ(replay.results[0].left, 0u);
  EXPECT_EQ(replay.results[0].right, 1u);
  EXPECT_DOUBLE_EQ(replay.results[0].score, 0.5);
  EXPECT_DOUBLE_EQ(replay.results[3].score, 0.25);

  // A journal for a different run shape is a different fingerprint.
  EXPECT_NE(checkpoint::Journal::fingerprint(10, 2, 2, 7),
            checkpoint::Journal::fingerprint(10, 3, 2, 7));
  EXPECT_NE(checkpoint::Journal::fingerprint(10, 2, 2, 7),
            checkpoint::Journal::fingerprint(11, 2, 2, 7));

  // Replay of a missing object reports found=false, nothing recovered.
  const auto missing = checkpoint::Journal::replay(store, "nope");
  EXPECT_FALSE(missing.found);
  EXPECT_FALSE(missing.has_manifest);
  EXPECT_TRUE(missing.results.empty());
}

/// `candidate` recovered no more than `full` did, and everything it did
/// recover is an exact prefix — corruption may cost the tail, never
/// invent or reorder results.
void expect_replay_prefix(const checkpoint::Replay& candidate,
                          const checkpoint::Replay& full) {
  ASSERT_LE(candidate.results.size(), full.results.size());
  for (std::size_t i = 0; i < candidate.results.size(); ++i) {
    EXPECT_EQ(candidate.results[i].left, full.results[i].left);
    EXPECT_EQ(candidate.results[i].right, full.results[i].right);
    EXPECT_EQ(candidate.results[i].score, full.results[i].score);
  }
}

TEST(Checkpoint, TornJournalFuzzDetectsEveryCorruption) {
  storage::MemoryStore store;
  checkpoint::Manifest manifest;
  manifest.items = 8;
  manifest.num_nodes = 2;
  manifest.granularity = 2;
  manifest.seed = 3;
  manifest.expected_pairs = 28;
  manifest.fingerprint = checkpoint::Journal::fingerprint(8, 2, 2, 3);

  checkpoint::Journal journal(store, "j");
  journal.start_fresh(manifest);
  journal.append_results({{0, 1, 0.5}, {0, 2, 1.5}, {1, 2, -3.0}});
  journal.append_results({{0, 3, 2.0}, {1, 3, -0.5}});
  journal.append_results({{2, 3, 0.25}});
  const auto full = checkpoint::Journal::replay(store, "j");
  ASSERT_TRUE(full.found && full.has_manifest && !full.torn);
  ASSERT_EQ(full.records, 4u);
  const ByteBuffer bytes = store.read("j");
  ASSERT_EQ(full.valid_bytes, bytes.size());

  // Truncate at EVERY byte offset: the crash-mid-append shapes. Replay
  // must keep the valid prefix, flag the tear iff the cut is mid-record,
  // and truncate_to_valid must leave a clean journal behind.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    storage::MemoryStore cut;
    cut.put("j", ByteBuffer(bytes.begin(),
                            bytes.begin() + static_cast<std::ptrdiff_t>(len)));
    const auto replay = checkpoint::Journal::replay(cut, "j");
    ASSERT_TRUE(replay.found);
    expect_replay_prefix(replay, full);
    EXPECT_LE(replay.valid_bytes, len);
    EXPECT_EQ(replay.torn, replay.valid_bytes != len)
        << "every mid-record cut must be detected as a tear";

    checkpoint::Journal::truncate_to_valid(cut, "j", replay);
    const auto again = checkpoint::Journal::replay(cut, "j");
    EXPECT_FALSE(again.torn);
    EXPECT_EQ(again.records, replay.records);
    EXPECT_EQ(again.valid_bytes, replay.valid_bytes);
  }

  // Flip EVERY byte (one at a time): bit rot anywhere in a record must be
  // caught by the frame CRC (or framing bounds) — 100% detection, and the
  // records before the flipped one survive untouched.
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    SCOPED_TRACE("flipped byte " + std::to_string(offset));
    ByteBuffer mangled = bytes;
    mangled[offset] ^= 0xFF;
    storage::MemoryStore bad;
    bad.put("j", mangled);
    const auto replay = checkpoint::Journal::replay(bad, "j");
    ASSERT_TRUE(replay.found);
    EXPECT_TRUE(replay.torn);
    EXPECT_LT(replay.records, full.records);
    expect_replay_prefix(replay, full);
  }
}

/// Append `v` little-endian, the journal's on-disk byte order.
void put_le32(ByteBuffer& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xFF);
}

TEST(Checkpoint, RetiredRecordTypeEndsTheValidPrefix) {
  // Type 3 once held region-completion records. The format has no such
  // type now, so a CRC-clean type-3 record is a tear like any malformed
  // payload: replay keeps what precedes it and trusts nothing after it.
  storage::MemoryStore store;
  checkpoint::Manifest manifest;
  manifest.items = 8;
  manifest.num_nodes = 2;
  manifest.granularity = 2;
  manifest.seed = 3;
  manifest.expected_pairs = 28;
  manifest.fingerprint = checkpoint::Journal::fingerprint(8, 2, 2, 3);

  checkpoint::Journal journal(store, "j");
  journal.start_fresh(manifest);
  journal.append_results({{0, 1, 0.5}});
  const Bytes prefix = store.read("j").size();

  // A framed type-3 record with a region body (5 u32s) and a valid CRC.
  ByteBuffer payload{3};
  for (const std::uint32_t v : {0u, 1u, 1u, 8u, 0u}) put_le32(payload, v);
  ByteBuffer record;
  put_le32(record, static_cast<std::uint32_t>(payload.size()));
  put_le32(record, crc32(payload.data(), payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  store.append("j", record);
  journal.append_results({{2, 3, 0.25}});

  const auto replay = checkpoint::Journal::replay(store, "j");
  ASSERT_TRUE(replay.found && replay.has_manifest);
  EXPECT_TRUE(replay.torn);
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.valid_bytes, prefix);
  ASSERT_EQ(replay.results.size(), 1u);
  EXPECT_EQ(replay.results[0].left, 0u);
  EXPECT_EQ(replay.results[0].right, 1u);

  checkpoint::Journal::truncate_to_valid(store, "j", replay);
  const auto again = checkpoint::Journal::replay(store, "j");
  EXPECT_FALSE(again.torn);
  EXPECT_EQ(again.records, 2u);
  EXPECT_EQ(again.valid_bytes, prefix);
  EXPECT_EQ(again.results.size(), 1u);
}

// --- bounded kFailed retry: the terminal paths -----------------------------

TEST(NodeRuntime, ExhaustedAcquireRetriesFailPairsAndTerminate) {
  // A missing input makes every fill of that item abort, so queued
  // waiters see kFailed grants. With a zero retry budget each kFailed
  // goes straight to its terminal path (host-level load bypass, failed
  // tile item) — the run must still terminate with every other pair
  // exact.
  storage::MemoryStore store;
  apps::MicroscopyConfig mc;
  mc.particles = 5;
  mc.binding_sites = 8;
  mc.localizations_per_site_min = 3;
  mc.localizations_per_site_max = 5;
  apps::MicroscopyDataset dataset(mc, store);
  apps::MicroscopyApplication app(dataset);

  const ResultMap expected = single_node_reference(app, store);

  storage::MemoryStore broken;
  for (ItemId i = 0; i < 5; ++i) {
    if (i == 2) continue;
    broken.put(app.file_name(i), store.read(app.file_name(i)));
  }

  runtime::NodeRuntime::Config rt;
  rt.cpu_threads = 2;
  rt.host_cache_capacity = 1_MiB;
  rt.max_acquire_retries = 0;  // first kFailed is terminal
  runtime::NodeRuntime runtime(rt);
  ResultMap actual;
  std::mutex mutex;
  const auto report =
      runtime.run(app, broken, [&](const PairResult& r) {
        std::scoped_lock lock(mutex);
        actual[{r.left, r.right}] = r.score;
      });

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [pair, score] : actual) {
    if (pair.first == 2 || pair.second == 2) {
      EXPECT_TRUE(std::isnan(score));
    } else {
      EXPECT_NEAR(score, expected.at(pair), 1e-9);
    }
  }
  EXPECT_EQ(report.pairs, expected.size());
}

// --- master failover and checkpoint/resume chaos (DESIGN.md §14) -----------

struct DurableOutcome {
  ResultMap results;
  std::map<std::pair<ItemId, ItemId>, int> counts;  // delivery multiplicity
  LiveClusterReport report;
};

/// The run_chaos cluster with the durability layer fully engaged: small
/// flush batches (so crashes land between flushes), an optional journal,
/// and a callback safe against the master role moving across service
/// threads mid-run. Without `multi_pair_tiles`, one-pair leaves keep the
/// run_chaos two-item tiles. `multi_pair_tiles` allows one tile in flight
/// per device, which lets a tile's working set grow to a whole cache
/// shard: tiles, and so result messages, then carry many pairs each.
DurableOutcome run_durable(const runtime::Application& app,
                           storage::ObjectStore& store, FaultSchedule faults,
                           storage::ObjectStore* checkpoint = nullptr,
                           bool resume = false,
                           bool multi_pair_tiles = false) {
  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.heartbeat_interval_s = 0.005;
  cfg.lease_timeout_s = 0.05;
  cfg.fetch_timeout_s = 0.02;
  cfg.max_fetch_retries = 2;
  cfg.journal_batch_pairs = 8;
  if (multi_pair_tiles) {
    cfg.node.job_limit_per_worker = 1;
  } else {
    cfg.node.max_leaf_pairs = 1;
  }
  cfg.checkpoint_store = checkpoint;
  cfg.resume = resume;
  cfg.faults = std::move(faults);
  LiveCluster cluster(cfg);

  DurableOutcome outcome;
  std::mutex mutex;
  outcome.report =
      cluster.run_all_pairs(app, store, [&](const PairResult& r) {
        std::scoped_lock lock(mutex);
        outcome.results[{r.left, r.right}] = r.score;
        ++outcome.counts[{r.left, r.right}];
      });
  return outcome;
}

TEST(MasterFailover, KillMasterMatrixPreservesExactResults) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 41;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), 20ull * 19 / 2);

  // Kill node 0 — the initial master — early, mid and late in the message
  // stream. The lowest live node must adopt the role, dedup against its
  // mirrored ledger, and complete the aggregation: the exact single-node
  // multiset, every pair delivered exactly once across both masters.
  for (const std::uint64_t after : {5ull, 60ull, 150ull}) {
    SCOPED_TRACE("kill master after " + std::to_string(after) + " messages");
    FaultSchedule schedule;
    schedule.faults.push_back(Fault{0, after, 0.0});
    const auto outcome = run_durable(app, store, std::move(schedule));

    EXPECT_EQ(outcome.results, expected);
    EXPECT_EQ(outcome.report.pairs, expected.size());
    for (const auto& [pair, count] : outcome.counts) {
      EXPECT_EQ(count, 1) << "pair (" << pair.first << "," << pair.second
                          << ") delivered " << count << " times";
    }
    EXPECT_GE(outcome.report.failover.master_failovers, 1u)
        << "somebody must have adopted the master role";
    EXPECT_GE(outcome.report.failover.node_deaths, 1u);
    // A batch in flight at the old master when it died was received and
    // ledger-recorded but never delivered, so received may exceed
    // delivered + duplicates — but never the other way around.
    EXPECT_GE(outcome.report.failover.results_received,
              outcome.report.pairs +
                  outcome.report.duplicate_results_dropped);
  }
}

TEST(MasterFailover, MasterAndWorkerDeathsSurvivedTogether) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 43;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // A worker dies, then the master: the adopter inherits a cluster that
  // already lost a node and still finishes exactly.
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{2, 30, 0.0});
  schedule.faults.push_back(Fault{0, 90, 0.0});
  const auto outcome = run_durable(app, store, std::move(schedule));
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
  for (const auto& [pair, count] : outcome.counts) EXPECT_EQ(count, 1);
  EXPECT_GE(outcome.report.failover.master_failovers, 1u);
  // At least the master's death draws a verdict; the worker's may be
  // absorbed silently if the master dies before its lease detector fires
  // (the adopter's conservative full re-grant covers the worker anyway).
  EXPECT_GE(outcome.report.failover.node_deaths, 1u);
}

TEST(MasterFailover, StandbyThenMasterDeathLosesNoPendingPair) {
  // MeshNodes only, failover on and no ticker, so nothing flushes on a
  // timer. Node 1 becomes the standby, two accepted pairs wait in the
  // master's batch, the master declares node 1 dead, then the master
  // dies. Re-establishing the standby must not mirror the pending pairs
  // to node 2 without delivering them: node 2 adopts from its mirror and
  // would count them delivered and never re-grant them (DESIGN.md §14.3).
  constexpr std::uint32_t kNodes = 3;
  constexpr dnc::ItemIndex kItems = 8;
  const auto root = dnc::root_region(kItems);
  InProcessTransport transport(kNodes);
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::mutex mutex;
  std::vector<dnc::Pair> delivered;  // guarded by mutex
  std::vector<std::unique_ptr<MeshNode>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    MeshNode::Config mc;
    mc.id = id;
    mc.failover = true;
    mc.expected_pairs = dnc::count_pairs(root);
    mc.ledger_items = kItems;
    mc.initial_grants = dnc::partition_root(kItems, kNodes, 2);
    mc.result_batch_pairs = 4;
    mc.on_result = [&](const PairResult& r) {
      std::scoped_lock lock(mutex);
      delivered.push_back(dnc::Pair{r.left, r.right});
    };
    nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
  }
  for (auto& node : nodes) node->start();

  const auto await = [](const auto& ready) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!ready()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  const auto delivered_count = [&] {
    std::scoped_lock lock(mutex);
    return delivered.size();
  };

  // 1. A full batch flushes; its mirror snapshot makes node 1 the standby.
  ASSERT_TRUE(transport.send(
      1, MeshNode::kMaster, net::Tag::kResult,
      ResultMsg{{{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {0, 4, 1.0}}, {}}));
  ASSERT_TRUE(await([&] { return delivered_count() == 4; }));
  // 2. Two more pairs are accepted and wait for the next flush.
  ASSERT_TRUE(transport.send(2, MeshNode::kMaster, net::Tag::kResult,
                             ResultMsg{{{1, 2, 1.0}, {1, 3, 1.0}}, {}}));
  // 3. The master's own verdict on node 1, then the master's death. The
  // master broadcasts the verdict after re-establishing its standby.
  ASSERT_TRUE(transport.send(MeshNode::kMaster, MeshNode::kMaster,
                             net::Tag::kFailover, NodeDown{1, 1}));
  ASSERT_TRUE(await([&] { return nodes[2]->is_dead(1); }));
  transport.set_down(MeshNode::kMaster);
  // 4. Node 2 learns of the master's death and adopts the role.
  ASSERT_TRUE(transport.send(2, 2, net::Tag::kFailover,
                             NodeDown{MeshNode::kMaster, 2}));
  ASSERT_TRUE(await([&] { return nodes[2]->current_master() == 2; }));
  transport.close();
  for (auto& node : nodes) node->join();

  // 5. Every pair was delivered once or re-granted by the adopter.
  PairSet covered;
  for (const dnc::Pair& p : delivered) {
    EXPECT_TRUE(covered.insert({p.left, p.right}).second)
        << "pair (" << p.left << "," << p.right << ") delivered twice";
  }
  done->store(true, std::memory_order_release);
  while (const auto region = nodes[2]->remote_steal(0)) {
    dnc::for_each_pair(*region, [&](const dnc::Pair& p) {
      covered.insert({p.left, p.right});
    });
  }
  PairSet all;
  dnc::for_each_pair(root, [&](const dnc::Pair& p) {
    all.insert({p.left, p.right});
  });
  EXPECT_EQ(covered, all) << "a pair was neither delivered nor re-granted";
}

TEST(Checkpoint, KillAllThenResumeRoundTrip) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 47;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Run 1: every node dies, the master last (so some result batches have
  // been journalled). The watchdog ends the run; the journal survives.
  storage::MemoryStore checkpoint_store;
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{1, 30, 0.0});
  schedule.faults.push_back(Fault{2, 60, 0.0});
  schedule.faults.push_back(Fault{3, 90, 0.0});
  schedule.faults.push_back(Fault{0, 220, 0.0});
  const auto first =
      run_durable(app, store, std::move(schedule), &checkpoint_store);
  EXPECT_TRUE(first.report.checkpoint.enabled);
  EXPECT_FALSE(first.report.checkpoint.resumed);
  EXPECT_LT(first.results.size(), expected.size())
      << "the whole cluster died mid-run";
  for (const auto& [pair, count] : first.counts) EXPECT_EQ(count, 1);

  // Run 2: resume from the journal, no faults. Already-journalled pairs
  // are recovered (not re-delivered); only the remaining frontier runs.
  const auto second =
      run_durable(app, store, {}, &checkpoint_store, /*resume=*/true);
  EXPECT_TRUE(second.report.checkpoint.enabled);
  EXPECT_TRUE(second.report.checkpoint.resumed);
  EXPECT_EQ(second.report.checkpoint.pairs_recovered, first.results.size())
      << "the journal holds exactly what run 1 delivered (flush ordering)";
  EXPECT_EQ(second.report.pairs, expected.size())
      << "recovered + newly delivered covers the whole pair space";
  for (const auto& [pair, count] : second.counts) EXPECT_EQ(count, 1);

  // The union of the two runs' deliveries is the exact single-node
  // multiset: no pair lost, no pair delivered in both runs.
  ResultMap combined = first.results;
  for (const auto& [pair, score] : second.results) {
    EXPECT_TRUE(combined.emplace(pair, score).second)
        << "pair (" << pair.first << "," << pair.second
        << ") delivered by both runs";
  }
  EXPECT_EQ(combined, expected);
}

// --- multi-pair result batches under failure --------------------------------
//
// The chaos scenarios above run 2-item tiles, so each of their result
// messages carries one pair. These rerun a worker kill, a master kill and
// the kill-all/resume round trip with multi-pair tiles, so whole batches
// go through dedup, re-execution, failover and journal replay — and a
// flush of journal_batch_pairs = 8 regularly falls mid-message.

/// 20 forensics items; with one tile in flight per device the run
/// executes ~16 tiles of ~12 pairs.
struct MultiPairInputs {
  storage::MemoryStore store;
  apps::ForensicsDataset dataset;
  apps::ForensicsApplication app;
  ResultMap expected;

  static apps::ForensicsConfig config() {
    apps::ForensicsConfig fc;
    fc.cameras = 4;
    fc.images_per_camera = 5;
    fc.width = 48;
    fc.height = 40;
    fc.seed = 67;
    return fc;
  }

  MultiPairInputs()
      : dataset(config(), store), app(dataset),
        expected(single_node_reference(app, store)) {}
};

/// Exact single-node multiset, every pair delivered once, and results
/// that really travelled in multi-pair messages.
void expect_exact_batched(const DurableOutcome& outcome,
                          const ResultMap& expected) {
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());
  for (const auto& [pair, count] : outcome.counts) {
    EXPECT_EQ(count, 1) << "pair (" << pair.first << "," << pair.second
                        << ") delivered " << count << " times";
  }
  EXPECT_LT(outcome.report.traffic
                .per_tag[static_cast<std::size_t>(net::Tag::kResult)]
                .messages,
            expected.size() / 2)
      << "result messages must carry several pairs each";
}

TEST(MultiPairBatches, WorkerKillPreservesExactResults) {
  MultiPairInputs in;
  for (const std::uint64_t after : {20ull, 60ull}) {
    SCOPED_TRACE("kill node 2 after " + std::to_string(after) + " messages");
    FaultSchedule schedule;
    schedule.faults.push_back(Fault{2, after, 0.0});
    const auto outcome = run_durable(in.app, in.store, std::move(schedule),
                                     nullptr, false, /*multi_pair_tiles=*/true);
    expect_exact_batched(outcome, in.expected);
    EXPECT_GE(outcome.report.failover.node_deaths, 1u);
    EXPECT_GT(outcome.report.failover.regions_reexecuted, 0u)
        << "the kill must land mid-run and orphan work";
    EXPECT_EQ(outcome.report.failover.results_received,
              outcome.report.pairs + outcome.report.duplicate_results_dropped)
        << "results_received counts pairs, each delivered once or dropped";
  }
}

TEST(MultiPairBatches, MasterKillPreservesExactResults) {
  MultiPairInputs in;
  for (const std::uint64_t after : {20ull, 60ull}) {
    SCOPED_TRACE("kill master after " + std::to_string(after) + " messages");
    FaultSchedule schedule;
    schedule.faults.push_back(Fault{0, after, 0.0});
    const auto outcome = run_durable(in.app, in.store, std::move(schedule),
                                     nullptr, false, /*multi_pair_tiles=*/true);
    expect_exact_batched(outcome, in.expected);
    EXPECT_GE(outcome.report.failover.master_failovers, 1u)
        << "the kill must land mid-run and hand the master role over";
    EXPECT_GE(outcome.report.failover.results_received,
              outcome.report.pairs +
                  outcome.report.duplicate_results_dropped);
  }
}

TEST(MultiPairBatches, KillAllThenResumeRoundTrip) {
  MultiPairInputs in;
  storage::MemoryStore checkpoint_store;
  FaultSchedule schedule;
  schedule.faults.push_back(Fault{1, 30, 0.0});
  schedule.faults.push_back(Fault{2, 40, 0.0});
  schedule.faults.push_back(Fault{3, 50, 0.0});
  schedule.faults.push_back(Fault{0, 80, 0.0});
  const auto first = run_durable(in.app, in.store, std::move(schedule),
                                 &checkpoint_store, false,
                                 /*multi_pair_tiles=*/true);
  EXPECT_LT(first.results.size(), in.expected.size())
      << "the whole cluster died mid-run";
  EXPECT_GT(first.results.size(), 0u)
      << "batches were journalled before the master died";
  for (const auto& [pair, count] : first.counts) EXPECT_EQ(count, 1);

  const auto second = run_durable(in.app, in.store, {}, &checkpoint_store,
                                  /*resume=*/true, /*multi_pair_tiles=*/true);
  EXPECT_TRUE(second.report.checkpoint.resumed);
  EXPECT_EQ(second.report.checkpoint.pairs_recovered, first.results.size())
      << "the journal holds exactly what run 1 delivered";
  EXPECT_EQ(second.report.pairs, in.expected.size());
  for (const auto& [pair, count] : second.counts) EXPECT_EQ(count, 1);

  ResultMap combined = first.results;
  for (const auto& [pair, score] : second.results) {
    EXPECT_TRUE(combined.emplace(pair, score).second)
        << "pair (" << pair.first << "," << pair.second
        << ") delivered by both runs";
  }
  EXPECT_EQ(combined, in.expected);
}

TEST(Checkpoint, MismatchedFingerprintStartsFresh) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 4;
  fc.width = 32;
  fc.height = 32;
  fc.seed = 53;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  // Plant a journal for a DIFFERENT run shape: resume must reject it by
  // fingerprint and run everything from scratch.
  storage::MemoryStore checkpoint_store;
  checkpoint::Manifest foreign;
  foreign.items = 999;
  foreign.num_nodes = 2;
  foreign.granularity = 4;
  foreign.seed = 1;
  foreign.fingerprint = checkpoint::Journal::fingerprint(999, 2, 4, 1);
  checkpoint::Journal planted(checkpoint_store, checkpoint::kJournalName);
  planted.start_fresh(foreign);
  planted.append_results({{0, 1, 123.0}});

  const auto outcome =
      run_durable(app, store, {}, &checkpoint_store, /*resume=*/true);
  EXPECT_FALSE(outcome.report.checkpoint.resumed);
  EXPECT_EQ(outcome.report.checkpoint.pairs_recovered, 0u);
  EXPECT_EQ(outcome.results, expected);
  EXPECT_EQ(outcome.report.pairs, expected.size());

  // Plant a journal of THIS run's shape (8 items, 4 nodes, granularity 4,
  // seed 1) written in the earlier journal format: its manifest carries
  // that format's fingerprint salt ("rocketjl"), folded the same way.
  // Resume must reject it too and deliver the full multiset once.
  std::uint64_t old_fingerprint = mix64(0x726F636B65746A6CULL);
  for (const std::uint64_t field : {8ull, 4ull, 4ull, 1ull}) {
    old_fingerprint = mix64(old_fingerprint ^ field);
  }
  storage::MemoryStore old_format_store;
  checkpoint::Manifest same_shape;
  same_shape.items = 8;
  same_shape.num_nodes = 4;
  same_shape.granularity = 4;
  same_shape.seed = 1;
  same_shape.expected_pairs = expected.size();
  same_shape.fingerprint = old_fingerprint;
  checkpoint::Journal old_format(old_format_store, checkpoint::kJournalName);
  old_format.start_fresh(same_shape);
  old_format.append_results({{0, 1, 123.0}});

  const auto fresh =
      run_durable(app, store, {}, &old_format_store, /*resume=*/true);
  EXPECT_FALSE(fresh.report.checkpoint.resumed);
  EXPECT_EQ(fresh.report.checkpoint.pairs_recovered, 0u);
  EXPECT_EQ(fresh.results, expected);
  EXPECT_EQ(fresh.report.pairs, expected.size());
  for (const auto& [pair, count] : fresh.counts) EXPECT_EQ(count, 1);
}

TEST(ChaosMatrix, FrameCorruptionIsDetectedAndHarmless) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 5;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 59;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const ResultMap expected = single_node_reference(app, store);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  cfg.hop_limit = 2;
  cfg.frame_corrupt_rate = 0.05;
  cfg.frame_corrupt_seed = 61;
  LiveCluster cluster(cfg);

  ResultMap results;
  std::map<std::pair<ItemId, ItemId>, int> counts;
  std::mutex mutex;
  const auto report =
      cluster.run_all_pairs(app, store, [&](const PairResult& r) {
        std::scoped_lock lock(mutex);
        results[{r.left, r.right}] = r.score;
        ++counts[{r.left, r.right}];
      });

  // Corrupted frames were injected, detected at the receiver, and dropped
  // — the clean retransmits carried the run to the exact multiset.
  EXPECT_GT(report.corrupted_frames, 0u);
  EXPECT_EQ(results, expected);
  EXPECT_EQ(report.pairs, expected.size());
  for (const auto& [pair, count] : counts) EXPECT_EQ(count, 1);

  // Injected frames surface in the receiver-side drop counter. A mangled
  // frame still queued when the run completes is never drained, so the
  // drop count can trail the injection count — never exceed it.
  std::uint64_t dropped = 0;
  for (const auto& [name, value] : report.metrics.counters) {
    if (name == "net.frame_corrupt") dropped = value;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(dropped, report.corrupted_frames);
}

}  // namespace
}  // namespace rocket::mesh
