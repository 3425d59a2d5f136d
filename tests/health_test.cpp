// Grey-failure resilience tests (DESIGN.md §15): the FlakyStore fault
// injector, the load pipeline's transient-error retry loop and run-level
// error budget, the ledger's owed-work accounting, and end-game
// speculation: which idle node gets a copy of which node's in-flight
// work, and that the copy's first result wins.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "apps/forensics.hpp"
#include "dnc/pair_space.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/result_ledger.hpp"
#include "mesh/transport.hpp"
#include "runtime/node_runtime.hpp"
#include "storage/object_store.hpp"
#include "telemetry/span.hpp"

namespace rocket::mesh {
namespace {

using runtime::ItemId;
using runtime::PairResult;
using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;

// --- FlakyStore fault injector --------------------------------------------

TEST(FlakyStore, InjectsBoundedConsecutiveTransientErrors) {
  storage::MemoryStore inner;
  inner.put("item", ByteBuffer{42});

  storage::FlakyStore::Config cfg;
  cfg.error_rate = 1.0;  // every draw fails...
  cfg.max_consecutive_failures = 2;  // ...but never 3+ times in a row
  storage::FlakyStore store(inner, cfg);

  // Two throws, then the consecutive-failure cap forces a success.
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  const auto bytes = store.read("item");
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 42u);
  EXPECT_EQ(store.injected_errors(), 2u);

  // The success reset the streak: the pattern repeats.
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_THROW(store.read("item"), storage::TransientStoreError);
  EXPECT_NO_THROW(store.read("item"));
  EXPECT_EQ(store.injected_errors(), 4u);
}

TEST(FlakyStore, ZeroRatePassesThroughAndSpikesCount) {
  storage::MemoryStore inner;
  inner.put("a", ByteBuffer{1, 2});

  storage::FlakyStore::Config cfg;
  cfg.error_rate = 0.0;
  cfg.spike_rate = 1.0;
  cfg.spike_us = 1;  // keep the test fast; the count is what matters
  storage::FlakyStore store(inner, cfg);

  EXPECT_EQ(store.read("a").size(), 2u);
  EXPECT_EQ(store.read("a").size(), 2u);
  EXPECT_EQ(store.injected_errors(), 0u);
  EXPECT_EQ(store.injected_spikes(), 2u);
  EXPECT_TRUE(store.exists("a"));
  EXPECT_EQ(store.size_of("a"), 2u);
}

// --- load-pipeline retry loop ---------------------------------------------

ResultMap run_single_node(const runtime::Application& app,
                          storage::ObjectStore& store,
                          runtime::NodeRuntime::Config cfg,
                          runtime::NodeRuntime::Report* report_out) {
  runtime::NodeRuntime rt(std::move(cfg));
  ResultMap results;
  std::mutex mutex;
  const auto report = rt.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    results[{r.left, r.right}] = r.score;
  });
  if (report_out != nullptr) *report_out = report;
  return results;
}

runtime::NodeRuntime::Config small_node_config() {
  runtime::NodeRuntime::Config cfg;
  cfg.devices = {gpu::titanx_maxwell()};
  cfg.host_cache_capacity = 64_MiB;
  cfg.cpu_threads = 2;
  return cfg;
}

TEST(NodeRuntime, TransientLoadErrorsRetryToTheExactResult) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 3;
  fc.images_per_camera = 4;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 11;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected =
      run_single_node(app, store, small_node_config(), nullptr);
  ASSERT_EQ(expected.size(), 12ull * 11 / 2);

  // Half of all reads throw, but never more than twice in a row — the
  // default per-load retry allowance absorbs every streak, so the result
  // multiset is bit-identical to the clean run.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 0.5;
  flaky_cfg.max_consecutive_failures = 2;
  flaky_cfg.seed = 7;
  storage::FlakyStore flaky(store, flaky_cfg);

  runtime::NodeRuntime::Report report;
  const ResultMap results =
      run_single_node(app, flaky, small_node_config(), &report);

  EXPECT_EQ(results, expected);
  EXPECT_GT(report.load_retries, 0u) << "the injector must have fired";
  EXPECT_EQ(report.failed_loads, 0u)
      << "no load may exhaust its retries under the consecutive cap";
  EXPECT_GT(flaky.injected_errors(), 0u);
}

TEST(NodeRuntime, ExhaustedErrorBudgetFailsLoadsWithoutHanging) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 4;
  fc.width = 48;
  fc.height = 40;
  fc.seed = 13;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const std::uint64_t total = 8ull * 7 / 2;

  // Every read fails and streaks are effectively unbounded; a tiny
  // run-level error budget guarantees the retry loop gives up instead of
  // spinning forever. Failed items flow through the failed-pair path:
  // every pair is still delivered, with a NaN score.
  storage::FlakyStore::Config flaky_cfg;
  flaky_cfg.error_rate = 1.0;
  flaky_cfg.max_consecutive_failures = 1000000;
  storage::FlakyStore flaky(store, flaky_cfg);

  auto cfg = small_node_config();
  cfg.max_load_retries = 1000;   // per-load allowance is NOT the limiter
  cfg.load_error_budget = 16;    // ...the run-level budget is
  runtime::NodeRuntime::Report report;
  const ResultMap results = run_single_node(app, flaky, std::move(cfg),
                                            &report);

  ASSERT_EQ(results.size(), total) << "every pair must still be delivered";
  EXPECT_GT(report.failed_loads, 0u);
  std::size_t nan_pairs = 0;
  for (const auto& [pair, score] : results) {
    if (std::isnan(score)) ++nan_pairs;
  }
  EXPECT_EQ(nan_pairs, total)
      << "all items failed to load, so every pair must carry NaN";
}

// --- ResultLedger owed-work accounting ------------------------------------

TEST(ResultLedger, PairsOwedTracksGrantsTransfersAndDeliveries) {
  ResultLedger ledger(6, 3);
  EXPECT_EQ(ledger.pairs_owed(0), 0u);

  // Rows 0-1 (5 + 4 pairs) to node 0, rows 2-4 (3 + 2 + 1) to node 1.
  ledger.grant(0, dnc::Region{0, 2, 1, 6, 0}, false);
  ledger.grant(1, dnc::Region{2, 5, 3, 6, 0}, false);
  EXPECT_EQ(ledger.pairs_owed(0), 9u);
  EXPECT_EQ(ledger.pairs_owed(1), 6u);

  // Delivery shrinks the owner's debt; a duplicate changes nothing.
  EXPECT_TRUE(ledger.record(0, 1));
  EXPECT_FALSE(ledger.record(0, 1));
  EXPECT_EQ(ledger.pairs_owed(0), 8u);

  // A steal transfer moves the undelivered remainder of the region.
  ledger.transfer(dnc::Region{0, 1, 1, 6, 0}, 2);
  EXPECT_EQ(ledger.pairs_owed(0), 4u);
  EXPECT_EQ(ledger.pairs_owed(2), 4u);

  // Re-granting (speculation / failover) moves debt the same way: row 1's
  // four undelivered pairs leave node 0 and join node 1's six.
  ledger.grant(1, dnc::Region{1, 2, 2, 6, 0}, true);
  EXPECT_EQ(ledger.pairs_owed(0), 0u);
  EXPECT_EQ(ledger.pairs_owed(1), 10u);
}

// --- end-game speculation -------------------------------------------------

/// Poll `done` until it holds or ten seconds pass.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

constexpr dnc::ItemIndex kEndGameItems = 24;

/// Every pair (i, j), j > i, of rows [begin, end).
dnc::Region rows(dnc::ItemIndex begin, dnc::ItemIndex end) {
  return dnc::Region{begin, end, begin + 1, kEndGameItems, 0};
}

/// Four MeshNodes with no runtimes, tickers or exporters: every steal
/// comes back empty, so each remote_steal call sends the master a real
/// IdleNotice. Results are delivered by hand. Initial leases, in pairs:
/// node 0 owes 45, node 1 (the straggler) 111, node 2 54 and node 3 66.
struct EndGameMesh {
  static constexpr std::uint32_t kNodes = 4;

  InProcessTransport transport{kNodes};
  std::shared_ptr<std::atomic<bool>> done =
      std::make_shared<std::atomic<bool>>(false);
  telemetry::SpanLog master_spans{MeshNode::kMaster};
  const std::vector<std::vector<dnc::Region>> grants = {
      {rows(0, 2)}, {rows(2, 8)}, {rows(8, 12)}, {rows(12, 23)}};
  std::mutex mutex;
  std::map<std::pair<ItemId, ItemId>, int> deliveries;  // guarded by mutex
  std::vector<std::unique_ptr<MeshNode>> nodes;
  bool joined = false;

  explicit EndGameMesh(bool speculation = true) {
    for (NodeId id = 0; id < kNodes; ++id) {
      MeshNode::Config mc;
      mc.id = id;
      mc.speculation = speculation;
      if (id == MeshNode::kMaster) {
        mc.spans = &master_spans;
        mc.ledger_items = kEndGameItems;
        mc.initial_grants = grants;
        mc.expected_pairs = dnc::count_pairs(dnc::root_region(kEndGameItems));
        mc.result_batch_pairs = 1;
        mc.on_result = [this](const PairResult& r) {
          std::scoped_lock lock(mutex);
          ++deliveries[{r.left, r.right}];
        };
      }
      nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
    }
    for (auto& node : nodes) node->start();
  }

  ~EndGameMesh() { shutdown(); }

  /// failover_stats() is safe to read only after this.
  void shutdown() {
    if (joined) return;
    joined = true;
    transport.close();
    for (auto& node : nodes) node->join();
  }

  /// `from` reports a result for every pair of `region`; the master
  /// handles it after everything already in its inbox.
  void deliver(NodeId from, const dnc::Region& region) {
    ResultMsg msg;
    dnc::for_each_pair(region, [&](const dnc::Pair& pair) {
      msg.results.push_back(PairResult{pair.left, pair.right, 1.0});
    });
    transport.send(from, MeshNode::kMaster, net::Tag::kResult,
                   std::move(msg));
  }

  /// Deliver `node`'s whole initial lease and wait until it is accepted.
  void finish(NodeId node) {
    deliver(node, grants[node][0]);
    sync(MeshNode::kMaster);
  }

  /// Returns once `node` has handled every message already in its inbox:
  /// a directory request queued behind them counts when it is served.
  /// Transport counters count a message just before it is queued, so a
  /// sender is synced before its receiver.
  void sync(NodeId node) {
    const auto before = nodes[node]->directory_stats().requests;
    transport.send(node, node, net::Tag::kCacheRequest,
                   CacheRequest{0, node, {}});
    ASSERT_TRUE(eventually(
        [&] { return nodes[node]->directory_stats().requests > before; }));
  }

  std::uint64_t notices_sent(NodeId node) const {
    return transport.node_counters(node)
        .per_tag[static_cast<std::size_t>(net::Tag::kFailover)]
        .messages;
  }

  /// Steal (and so notify) from `node` until it has sent `count` more
  /// notices, then wait until the master has handled them.
  void idle(NodeId node, std::uint64_t count) {
    const auto target = notices_sent(node) + count;
    ASSERT_TRUE(eventually([&] {
      (void)nodes[node]->remote_steal(0);
      return notices_sent(node) >= target;
    }));
    sync(node);
    sync(MeshNode::kMaster);
  }

  /// Steal from `node` until it has adopted `count` granted regions.
  std::vector<dnc::Region> collect_copies(NodeId node, std::size_t count) {
    std::vector<dnc::Region> regions;
    EXPECT_TRUE(eventually([&] {
      if (auto region = nodes[node]->remote_steal(0)) {
        regions.push_back(*region);
      }
      return regions.size() >= count;
    }));
    return regions;
  }

  /// The master's region_speculated instants: (copied to, copied from).
  std::vector<std::pair<NodeId, NodeId>> copies() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const auto& r : master_spans.records()) {
      if (r.instant() && r.phase == telemetry::SpanPhase::kRegionSpeculated) {
        out.emplace_back(r.a, r.b);
      }
    }
    return out;
  }
};

std::set<std::pair<ItemId, ItemId>> pairs_of(
    const std::vector<dnc::Region>& regions) {
  std::set<std::pair<ItemId, ItemId>> out;
  for (const auto& region : regions) {
    dnc::for_each_pair(region, [&](const dnc::Pair& pair) {
      out.emplace(pair.left, pair.right);
    });
  }
  return out;
}

TEST(EndGame, IdleNodeReceivesACopyOfTheStragglersInFlightWork) {
  EndGameMesh mesh;
  mesh.finish(2);

  // Node 1 owes the most: one row run per row 2..7. The idle node gets
  // about half of them, the first three rows.
  const auto regions = mesh.collect_copies(2, 3);
  EXPECT_EQ(pairs_of(regions), pairs_of({rows(2, 5)}));
  mesh.sync(MeshNode::kMaster);
  const std::vector<std::pair<NodeId, NodeId>> expected(3, {2, 1});
  EXPECT_EQ(mesh.copies(), expected);

  mesh.shutdown();
  const FailoverStats stats = mesh.nodes[0]->failover_stats();
  EXPECT_EQ(stats.regions_speculated, 3u);
  EXPECT_EQ(stats.pairs_speculated, 21u + 20u + 19u);
  EXPECT_EQ(mesh.nodes[2]->failover_stats().regions_adopted, 3u);
}

TEST(EndGame, CopiesComeOnlyFromTheMostIndebtedLiveNode) {
  EndGameMesh mesh;
  // Node 1 delivers rows 2..4 and owes 51; node 3 now owes the most (66).
  mesh.deliver(1, rows(2, 5));
  mesh.finish(2);

  // While node 2 can reach only nodes 0 and 1, its notices name nodes
  // that owe less than node 3, and the master grants nothing.
  mesh.transport.set_link_down(2, 3);
  mesh.idle(2, 20);
  EXPECT_TRUE(mesh.copies().empty());

  // Once node 3 is reachable, the copy comes from node 3: rows 12..17,
  // six of its eleven row runs.
  mesh.transport.set_link_down(2, 3, false);
  const auto regions = mesh.collect_copies(2, 6);
  EXPECT_EQ(pairs_of(regions), pairs_of({rows(12, 18)}));
  mesh.sync(MeshNode::kMaster);
  const std::vector<std::pair<NodeId, NodeId>> expected(6, {2, 3});
  EXPECT_EQ(mesh.copies(), expected);
}

TEST(EndGame, NoPairIsCopiedTwiceWhenTwoNodesIdleInTurn) {
  EndGameMesh mesh;
  mesh.finish(2);
  mesh.finish(3);

  // Node 2 copies rows 2..4 of node 1 and now owes 60 pairs, more than
  // node 1's remaining 51; but a copy holder is never a source. Node 3's
  // copy is the first two of node 1's remaining rows 5..7.
  const auto first = mesh.collect_copies(2, 3);
  const auto second = mesh.collect_copies(3, 2);
  EXPECT_EQ(pairs_of(first), pairs_of({rows(2, 5)}));
  EXPECT_EQ(pairs_of(second), pairs_of({rows(5, 7)}));

  mesh.sync(MeshNode::kMaster);
  const auto copies = mesh.copies();
  ASSERT_EQ(copies.size(), 5u);
  for (const auto& [to, from] : copies) EXPECT_EQ(from, 1u);

  mesh.shutdown();
  EXPECT_EQ(mesh.nodes[0]->failover_stats().pairs_speculated,
            pairs_of(first).size() + pairs_of(second).size());
}

TEST(EndGame, NodeThatOwesPairsGetsNothing) {
  EndGameMesh mesh;
  // Node 2 delivers all but its last pair (11, 23).
  mesh.deliver(2, rows(8, 11));
  mesh.deliver(2, dnc::Region{11, 12, 12, 23, 0});
  mesh.idle(2, 20);
  EXPECT_TRUE(mesh.copies().empty()) << "a node that owes pairs is busy";

  // Its next notices are granted once the last pair lands.
  mesh.deliver(2, dnc::Region{11, 12, 23, 24, 0});
  EXPECT_EQ(mesh.collect_copies(2, 3).size(), 3u);
}

TEST(EndGame, SpeculationOffGrantsNothing) {
  EndGameMesh mesh(/*speculation=*/false);
  mesh.finish(2);

  // Twenty empty replies reach node 2 and are handled, with no notice.
  const auto replies = [&] {
    std::uint64_t sum = 0;
    for (NodeId k : {0u, 1u, 3u}) {
      sum += mesh.transport.node_counters(k)
                 .per_tag[static_cast<std::size_t>(net::Tag::kStealReply)]
                 .messages;
    }
    return sum;
  };
  ASSERT_TRUE(eventually([&] {
    EXPECT_FALSE(mesh.nodes[2]->remote_steal(0).has_value());
    return replies() >= 20;
  }));
  for (NodeId k : {1u, 3u, 0u, 2u, 0u}) mesh.sync(k);
  EXPECT_EQ(mesh.notices_sent(2), 0u);
  EXPECT_TRUE(mesh.copies().empty());

  mesh.shutdown();
  EXPECT_EQ(mesh.nodes[0]->failover_stats().regions_speculated, 0u);
}

TEST(EndGame, OwnersLateResultForACopiedPairIsDroppedAndDeliveredOnce) {
  EndGameMesh mesh;
  mesh.finish(2);
  const auto copied = mesh.collect_copies(2, 3);

  // The copy finishes first; the straggler's results for the same rows
  // arrive late. Then everything else lands.
  for (const auto& region : copied) mesh.deliver(2, region);
  mesh.deliver(1, rows(2, 8));
  mesh.deliver(0, rows(0, 2));
  mesh.deliver(3, rows(12, 23));
  mesh.sync(MeshNode::kMaster);
  const std::uint64_t total =
      dnc::count_pairs(dnc::root_region(kEndGameItems));

  {
    std::scoped_lock lock(mesh.mutex);
    EXPECT_EQ(mesh.deliveries.size(), total);
    for (const auto& [pair, times] : mesh.deliveries) EXPECT_EQ(times, 1);
  }
  mesh.shutdown();
  const FailoverStats stats = mesh.nodes[0]->failover_stats();
  EXPECT_EQ(stats.duplicate_results_dropped, pairs_of(copied).size());
  EXPECT_EQ(stats.results_received, total + pairs_of(copied).size());
}

}  // namespace
}  // namespace rocket::mesh
