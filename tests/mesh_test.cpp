// Live multi-node mesh tests: transport delivery and accounting, the
// §4.1.3 peer-fetch protocol (including dead and evicted candidate
// chains), and full LiveCluster runs checked for exact result-multiset
// equality with a single-node run over the same store.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>

#include "apps/forensics.hpp"
#include "common/compress.hpp"
#include "mesh/live_cluster.hpp"
#include "mesh/mesh_node.hpp"
#include "mesh/transport.hpp"
#include "read_overlap_store.hpp"
#include "runtime/node_runtime.hpp"

namespace rocket::mesh {
namespace {

using runtime::ItemId;
using runtime::PairResult;
using ResultMap = std::map<std::pair<ItemId, ItemId>, double>;

// --- transport ------------------------------------------------------------

TEST(InProcessTransport, DeliversTypedMessagesAndCounts) {
  InProcessTransport transport(2, {128});
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{7, 0}));
  runtime::HostBuffer payload(1000, 0xAB);
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheData,
                             CacheData{7, 1, false, payload},
                             payload.size()));

  auto first = transport.recv(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->from, 0u);
  EXPECT_EQ(first->tag, net::Tag::kCacheRequest);
  EXPECT_EQ(std::get<CacheRequest>(first->body).item, 7u);

  auto second = transport.recv(1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(std::get<CacheData>(second->body).bytes, payload);

  const auto counters = transport.counters();
  const auto& req =
      counters.per_tag[static_cast<std::size_t>(net::Tag::kCacheRequest)];
  const auto& data =
      counters.per_tag[static_cast<std::size_t>(net::Tag::kCacheData)];
  EXPECT_EQ(req.messages, 1u);
  EXPECT_EQ(req.bytes, 128u);  // control envelope only
  EXPECT_EQ(data.messages, 1u);
  EXPECT_EQ(data.bytes, 1000u + 128u);  // payload + envelope

  transport.close();
  EXPECT_FALSE(transport.recv(0).has_value());
}

TEST(InProcessTransport, CompressesLargePeerPayloadsOnTheWire) {
  InProcessTransport::Config tc;
  tc.control_message_size = 128;
  tc.compress_threshold = 1_KiB;
  InProcessTransport transport(2, tc);

  // Highly compressible payload above the threshold: must arrive
  // compressed, with the traffic table charging the compressed bytes.
  runtime::HostBuffer big(32 * 1024, 0x5A);
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheData,
                             CacheData{3, 1, false, big}, big.size()));
  auto msg = transport.recv(1);
  ASSERT_TRUE(msg.has_value());
  auto& data = std::get<CacheData>(msg->body);
  EXPECT_TRUE(data.compressed);
  EXPECT_LT(data.bytes.size(), big.size());
  EXPECT_EQ(lz_decompress(data.bytes), big);

  const auto& tag =
      transport.counters().per_tag[static_cast<std::size_t>(
          net::Tag::kCacheData)];
  EXPECT_EQ(tag.bytes, data.bytes.size() + tc.control_message_size);

  // Below the threshold: delivered verbatim.
  runtime::HostBuffer small(64, 0x5A);
  ASSERT_TRUE(transport.send(0, 1, net::Tag::kCacheData,
                             CacheData{4, 1, false, small}, small.size()));
  msg = transport.recv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_FALSE(std::get<CacheData>(msg->body).compressed);
  EXPECT_EQ(std::get<CacheData>(msg->body).bytes, small);
  transport.close();
}

TEST(InProcessTransport, DownNodeRejectsSends) {
  InProcessTransport transport(3);
  transport.set_down(2);
  EXPECT_FALSE(transport.send(0, 2, net::Tag::kCacheRequest,
                              CacheRequest{1, 0}));
  EXPECT_TRUE(transport.send(0, 1, net::Tag::kCacheRequest,
                             CacheRequest{1, 0}));
  // Rejected sends are not recorded.
  EXPECT_EQ(transport.counters().total_messages(), 1u);
  transport.close();
}

// --- peer-fetch protocol harness ------------------------------------------

/// Stand-in for a live engine's host cache: serves the items it was given.
struct FakeProbe final : runtime::HostCacheProbe {
  std::map<ItemId, runtime::HostBuffer> items;

  bool probe(ItemId item, runtime::HostBuffer& out) override {
    const auto it = items.find(item);
    if (it == items.end()) return false;
    out = it->second;
    return true;
  }
};

/// p MeshNodes over an in-process transport, no runtimes attached.
struct Harness {
  InProcessTransport transport;
  std::shared_ptr<std::atomic<bool>> done =
      std::make_shared<std::atomic<bool>>(false);
  std::vector<std::unique_ptr<MeshNode>> nodes;

  explicit Harness(std::uint32_t p, std::uint32_t hop_limit = 2)
      : transport(p) {
    for (NodeId id = 0; id < p; ++id) {
      MeshNode::Config mc;
      mc.id = id;
      mc.hop_limit = hop_limit;
      nodes.push_back(std::make_unique<MeshNode>(mc, transport, done));
    }
    for (auto& node : nodes) node->start();
  }

  ~Harness() {
    transport.close();
    for (auto& node : nodes) node->join();
  }

  /// Synchronous fetch: empty buffer = distributed-cache miss. Undoes
  /// wire compression like the runtime's peer stage would.
  runtime::HostBuffer fetch(NodeId node, ItemId item) {
    std::promise<runtime::HostBuffer> promise;
    auto future = promise.get_future();
    nodes[node]->fetch(item, [&promise](runtime::PeerPayload payload) {
      promise.set_value(payload.compressed ? lz_decompress(payload.bytes)
                                           : std::move(payload.bytes));
    });
    return future.get();
  }
};

TEST(MeshNode, PeerFetchHitsCandidateChain) {
  Harness mesh(3);
  const ItemId item = 7;  // mediator_of(7, 3) == 1
  ASSERT_EQ(cache::DistributedDirectory::mediator_of(item, 3), 1u);

  FakeProbe probe;
  probe.items[item] = runtime::HostBuffer{1, 2, 3, 4};
  mesh.nodes[1]->register_probe(&probe);

  // Node 1's own fetch misses (nobody was a candidate yet) but registers
  // it as the item's freshest candidate at the mediator.
  EXPECT_TRUE(mesh.fetch(1, item).empty());
  // Node 2 now walks the chain [1] and gets the bytes from node 1.
  EXPECT_EQ(mesh.fetch(2, item), (runtime::HostBuffer{1, 2, 3, 4}));

  const auto requester = mesh.nodes[2]->peer_stats();
  EXPECT_EQ(requester.requests, 1u);
  EXPECT_EQ(requester.chain_hits, 1u);
  ASSERT_GE(requester.hits_at_hop.size(), 1u);
  EXPECT_EQ(requester.hits_at_hop[0], 1u);

  const auto mediator = mesh.nodes[1]->directory_stats();
  EXPECT_EQ(mediator.requests, 2u);        // both fetches
  EXPECT_EQ(mediator.empty_responses, 1u); // node 1's first ask
  // Chain outcomes recorded requester-side: node 1 missed with 0 hops,
  // node 2 hit at hop 1.
  EXPECT_EQ(mesh.nodes[2]->directory_stats().chain_hits, 1u);
  EXPECT_EQ(mesh.nodes[2]->directory_stats().hops, 1u);
  EXPECT_EQ(mesh.nodes[1]->directory_stats().chain_misses, 1u);
}

TEST(MeshNode, EvictedCandidateChainMisses) {
  Harness mesh(3);
  const ItemId item = 7;  // mediator is node 1
  FakeProbe empty_probe;  // candidate no longer holds the item
  mesh.nodes[1]->register_probe(&empty_probe);

  EXPECT_TRUE(mesh.fetch(1, item).empty());  // seeds node 1 as candidate
  EXPECT_TRUE(mesh.fetch(2, item).empty());  // probe misses, chain exhausts

  const auto stats = mesh.nodes[2]->peer_stats();
  EXPECT_EQ(stats.chain_hits, 0u);
  EXPECT_EQ(stats.chain_misses, 1u);
  EXPECT_EQ(mesh.nodes[2]->directory_stats().hops, 1u);  // one hop walked
}

TEST(MeshNode, DeadCandidateDegradesToMiss) {
  Harness mesh(3);
  const ItemId item = 0;  // mediator is node 0; candidate will be node 1
  FakeProbe probe;
  probe.items[item] = runtime::HostBuffer{9};
  mesh.nodes[1]->register_probe(&probe);

  EXPECT_TRUE(mesh.fetch(1, item).empty());  // node 1 becomes the candidate
  mesh.transport.set_down(1);
  // The forward to the dead candidate fails; the mediator reports a miss
  // instead of hanging.
  EXPECT_TRUE(mesh.fetch(2, item).empty());
  EXPECT_EQ(mesh.nodes[2]->peer_stats().chain_misses, 1u);
}

TEST(MeshNode, DeadMediatorDegradesToMiss) {
  Harness mesh(3);
  const ItemId item = 7;  // mediator is node 1
  mesh.transport.set_down(1);
  EXPECT_TRUE(mesh.fetch(0, item).empty());
  EXPECT_EQ(mesh.nodes[0]->peer_stats().chain_misses, 1u);
}

TEST(MeshNode, UnservedCandidateForwardsAlongChain) {
  // A candidate with no live engine (no registered probe) behaves exactly
  // like an evicted one: the probe forwards to the next candidate, which
  // serves the item at hop 2.
  Harness mesh(4, /*hop_limit=*/2);
  const ItemId item = 5;  // mediator_of(5, 4) == 1
  FakeProbe probe;
  probe.items[item] = runtime::HostBuffer{42};
  mesh.nodes[3]->register_probe(&probe);

  EXPECT_TRUE(mesh.fetch(3, item).empty());           // candidates: [3]
  EXPECT_EQ(mesh.fetch(2, item),
            (runtime::HostBuffer{42}));               // hop 1; now [2, 3]
  EXPECT_EQ(mesh.fetch(0, item), (runtime::HostBuffer{42}))
      << "probe must forward past the unserved node 2 to node 3";
  const auto stats = mesh.nodes[0]->peer_stats();
  ASSERT_EQ(stats.hits_at_hop.size(), 2u);
  EXPECT_EQ(stats.hits_at_hop[1], 1u);  // found at the second hop
}

// --- LiveCluster end-to-end ----------------------------------------------

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

TEST(LiveCluster, FourNodeForensicsMatchesSingleNodeExactly) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 8;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 11;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const std::uint64_t pairs = 32ull * 31 / 2;

  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), pairs);

  // Default heartbeats arm the failover master (standby mirror, master
  // tick). With heartbeats off the master has no failover, no journal and
  // no tick: its flush batches are the only delivery path, and the final
  // pair's flush alone must end the run.
  for (const bool heartbeats : {true, false}) {
    SCOPED_TRACE(heartbeats ? "heartbeats on" : "heartbeats off");
    LiveClusterConfig cfg;
    cfg.num_nodes = 4;
    cfg.node.devices = {gpu::titanx_maxwell()};
    cfg.node.host_cache_capacity = 64_MiB;
    cfg.node.cpu_threads = 2;
    // Force multi-shard caches (with their lock-free fast path)
    // regardless of the host's core count: the exact-multiset guarantee
    // must hold with sharding enabled.
    cfg.node.cache_shards = 4;
    if (!heartbeats) cfg.heartbeat_interval_s = 0;
    LiveCluster cluster(cfg);

    // The master callback is serialised on the mesh service thread — no
    // mutex needed.
    ResultMap actual;
    const auto report = cluster.run_all_pairs(
        app, store,
        [&](const PairResult& r) { actual[{r.left, r.right}] = r.score; });

    // Exact multiset equality with the single-node run: peer-fetched
    // bytes are bit-identical to locally loaded ones, so scores match
    // exactly.
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(report.pairs, pairs);

    // No faults injected: the failure machinery (heartbeats, leases, the
    // master's ledger) runs but must be invisible — no verdicts, no
    // re-execution, no dropped results.
    EXPECT_EQ(report.node_deaths, 0u);
    EXPECT_EQ(report.regions_reexecuted, 0u);
    EXPECT_EQ(report.duplicate_results_dropped, 0u);
    EXPECT_EQ(report.failover.results_received, pairs);

    // Peer fetches actually replaced storage reads.
    EXPECT_GT(report.directory.chain_hits, 0u);
    EXPECT_GT(report.peer_loads, 0u);
    EXPECT_EQ(report.peer_cache.chain_hits, report.directory.chain_hits);
    EXPECT_EQ(report.peer_cache.total_hits(), report.peer_cache.chain_hits);
    EXPECT_EQ(report.peer_cache.chain_hits + report.peer_cache.chain_misses,
              report.peer_cache.requests);
    EXPECT_EQ(report.peer_loads, report.peer_cache.chain_hits);

    // Traffic accounting: one request message per fetch, one result
    // message per tile, and per-node pair counts sum to the total.
    const auto& traffic = report.traffic.per_tag;
    EXPECT_EQ(
        traffic[static_cast<std::size_t>(net::Tag::kCacheRequest)].messages,
        report.peer_cache.requests);
    std::uint64_t node_pairs = 0, node_loads = 0, node_tiles = 0;
    for (const auto& node : report.nodes) {
      node_pairs += node.pairs;
      node_loads += node.loads;
      node_tiles += node.tiles;
    }
    EXPECT_EQ(traffic[static_cast<std::size_t>(net::Tag::kResult)].messages,
              node_tiles);
    EXPECT_EQ(node_pairs, pairs);
    EXPECT_EQ(node_loads, report.loads);
    // Every node pulled its weight.
    for (const auto& node : report.nodes) EXPECT_GT(node.pairs, 0u);
    // Only a failover master mirrors its flushes to a standby.
    const auto mirrored =
        traffic[static_cast<std::size_t>(net::Tag::kLedgerSync)].messages;
    if (heartbeats) {
      EXPECT_GT(mirrored, 0u);
    } else {
      EXPECT_EQ(mirrored, 0u);
    }
  }
}

TEST(LiveCluster, NodesReadTheSharedStoreConcurrently) {
  // Every node reads the caller's store directly, with no mesh-wide lock:
  // while the first read waits, another read starts. Behind one store
  // mutex the first read times out alone and the peak stays 1.
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 3;
  fc.images_per_camera = 4;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 19;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = single_node_reference(app, store);

  LiveClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 16_MiB;
  cfg.node.cpu_threads = 2;
  LiveCluster cluster(cfg);
  testkit::ReadOverlapStore probe(store);
  ResultMap actual;
  cluster.run_all_pairs(app, probe, [&](const PairResult& r) {
    actual[{r.left, r.right}] = r.score;
  });
  EXPECT_GE(probe.peak(), 2);
  EXPECT_EQ(actual, expected);
}

TEST(LiveCluster, MultiPairTilesSendOneResultMessagePerTile) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 4;
  fc.images_per_camera = 8;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 13;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);
  const std::uint64_t pairs = 32ull * 31 / 2;

  const ResultMap expected = single_node_reference(app, store);
  ASSERT_EQ(expected.size(), pairs);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.host_cache_capacity = 64_MiB;
  cfg.node.cpu_threads = 2;
  cfg.node.cache_shards = 2;
  // One tile in flight per device: a tile's working set may grow to a
  // whole cache shard, so tiles — and their result messages — carry many
  // pairs each.
  cfg.node.job_limit_per_worker = 1;
  LiveCluster cluster(cfg);

  ResultMap actual;
  std::uint64_t deliveries = 0;
  const auto report = cluster.run_all_pairs(
      app, store, [&](const PairResult& r) {
        actual[{r.left, r.right}] = r.score;
        ++deliveries;
      });

  EXPECT_EQ(actual, expected);
  EXPECT_EQ(deliveries, pairs);
  EXPECT_EQ(report.pairs, pairs);
  EXPECT_EQ(report.duplicate_results_dropped, 0u);
  EXPECT_EQ(report.failover.results_received, pairs)
      << "the master counts pairs received, not messages";

  std::uint64_t tiles = 0;
  for (const auto& node : report.nodes) tiles += node.tiles;
  const auto& result_tag =
      report.traffic.per_tag[static_cast<std::size_t>(net::Tag::kResult)];
  EXPECT_EQ(result_tag.messages, tiles) << "one result message per tile";
  EXPECT_LT(result_tag.messages, pairs) << "tiles must hold several pairs";
  // Each message is charged its envelope plus sizeof(PairResult) per pair.
  EXPECT_EQ(result_tag.bytes, tiles * cfg.control_message_size +
                                  pairs * sizeof(PairResult));
}

TEST(LiveCluster, FailedPeerChainsFallBackToStoreInBothModes) {
  // Starved caches guarantee evicted candidate chains: fetches walk to
  // peers that have already dropped the item and must fall back to the
  // object store, with exact results (the §6.1 no-hang invariant, live).
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 3;
  fc.images_per_camera = 4;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 23;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = single_node_reference(app, store);

  LiveClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node.devices = {gpu::titanx_maxwell()};
  cfg.node.cpu_threads = 2;
  // 3 host slots and 4 device slots per node for 12 items.
  cfg.node.host_cache_capacity = 3 * app.slot_size();
  cfg.node.device_cache_capacity = 4 * app.slot_size();
  LiveCluster cluster(cfg);

  ResultMap actual;
  const auto report = cluster.run_all_pairs(
      app, store,
      [&](const PairResult& r) { actual[{r.left, r.right}] = r.score; });

  EXPECT_EQ(actual, expected);
  // Chains were walked and missed; the store served the fallbacks.
  EXPECT_GT(report.peer_cache.chain_misses, 0u);
  EXPECT_GT(report.loads, 0u);
}

/// Items whose parsed form is highly compressible — exercises the wire
/// compression of peer-fetch payloads end-to-end (compress in transport,
/// decompress in the requester's load pipeline).
class CompressibleApp final : public runtime::Application {
 public:
  CompressibleApp(std::uint32_t n, storage::MemoryStore& store) : n_(n) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      ByteBuffer bytes(kItemBytes, static_cast<std::uint8_t>(i % 5));
      store.put(file_name(i), std::move(bytes));
    }
  }

  std::string name() const override { return "compressible"; }
  std::uint32_t item_count() const override { return n_; }
  std::string file_name(runtime::ItemId item) const override {
    return "cmp_" + std::to_string(item);
  }
  void parse(runtime::ItemId, const ByteBuffer& file,
             runtime::HostBuffer& out) const override {
    out.assign(file.begin(), file.end());
  }
  double compare(runtime::ItemId left, const gpu::DeviceBuffer& left_data,
                 runtime::ItemId right,
                 const gpu::DeviceBuffer& right_data) const override {
    return static_cast<double>(left_data.data()[0]) * 31.0 +
           static_cast<double>(right_data.data()[0]) +
           static_cast<double>(left) * 1e-3 +
           static_cast<double>(right) * 1e-6;
  }
  Bytes slot_size() const override { return kItemBytes; }

 private:
  static constexpr std::size_t kItemBytes = 16 * 1024;
  std::uint32_t n_;
};

TEST(LiveCluster, PeerFetchPayloadsCompressOnTheWire) {
  storage::MemoryStore store;
  CompressibleApp app(12, store);

  runtime::NodeRuntime::Config ncfg;
  ncfg.devices = {gpu::titanx_maxwell()};
  ncfg.host_cache_capacity = 16_MiB;
  ncfg.cpu_threads = 2;
  ncfg.cache_shards = 4;
  runtime::NodeRuntime reference(ncfg);
  ResultMap expected;
  std::mutex mutex;
  reference.run(app, store, [&](const PairResult& r) {
    std::scoped_lock lock(mutex);
    expected[{r.left, r.right}] = r.score;
  });

  LiveClusterConfig cfg;
  cfg.num_nodes = 3;
  cfg.node = ncfg;
  cfg.peer_compress_threshold = 1_KiB;  // well below the 16 KiB items
  LiveCluster cluster(cfg);
  ResultMap actual;
  const auto report = cluster.run_all_pairs(
      app, store,
      [&](const PairResult& r) { actual[{r.left, r.right}] = r.score; });

  // Decompression in the loader's peer stage is bit-faithful: scores are
  // exact, and peer fetches actually happened.
  EXPECT_EQ(actual, expected);
  ASSERT_GT(report.peer_loads, 0u);

  // Every delivered payload was compressed: the per-message average of
  // the kCacheData traffic must be far below the raw slot size.
  const auto& data = report.traffic.per_tag[static_cast<std::size_t>(
      net::Tag::kCacheData)];
  ASSERT_GT(data.messages, 0u);
  EXPECT_LT(data.bytes / data.messages, app.slot_size() / 2);
}

TEST(LiveCluster, SingleNodeDegenerates) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 2;
  fc.images_per_camera = 4;
  fc.width = 64;
  fc.height = 48;
  fc.seed = 5;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  const ResultMap expected = single_node_reference(app, store);

  LiveClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.node.cpu_threads = 2;
  cfg.node.host_cache_capacity = 16_MiB;
  LiveCluster cluster(cfg);
  ResultMap actual;
  const auto report = cluster.run_all_pairs(
      app, store,
      [&](const PairResult& r) { actual[{r.left, r.right}] = r.score; });

  EXPECT_EQ(actual, expected);
  // No peers: no distributed-cache or steal traffic, only results.
  EXPECT_EQ(report.peer_cache.requests, 0u);
  EXPECT_EQ(report.directory.requests, 0u);
  EXPECT_EQ(report.remote_steals, 0u);
  EXPECT_EQ(report.traffic.per_tag[static_cast<std::size_t>(
                net::Tag::kResult)].messages,
            report.nodes[0].tiles);
}

TEST(LiveCluster, EmptyAndTrivialProblems) {
  storage::MemoryStore store;
  apps::ForensicsConfig fc;
  fc.cameras = 1;
  fc.images_per_camera = 2;
  fc.width = 64;
  fc.height = 48;
  apps::ForensicsDataset dataset(fc, store);
  apps::ForensicsApplication app(dataset);

  LiveClusterConfig cfg;
  cfg.num_nodes = 4;  // more nodes than work
  cfg.node.cpu_threads = 1;
  cfg.node.host_cache_capacity = 16_MiB;
  LiveCluster cluster(cfg);
  std::size_t results = 0;
  const auto report =
      cluster.run_all_pairs(app, store, [&](const PairResult&) { ++results; });
  EXPECT_EQ(results, 1u);
  EXPECT_EQ(report.pairs, 1u);
}

}  // namespace
}  // namespace rocket::mesh
