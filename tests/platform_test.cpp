// Tests for the platform substrates: net (fabric), storage, gpu.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gpu/device_spec.hpp"
#include "gpu/virtual_device.hpp"
#include "net/fabric.hpp"
#include "storage/object_store.hpp"
#include "storage/sim_store.hpp"

namespace rocket {
namespace {

// --- net ---

struct Payload {
  int value = 0;
};

using TestFabric = net::Fabric<Payload>;

sim::Process receive_one(TestFabric* fabric, net::NodeId node,
                         std::vector<std::pair<double, int>>* log,
                         sim::Simulation* sim) {
  auto env = co_await fabric->mailbox(node).recv();
  log->emplace_back(sim->now(), env.body.value);
}

TEST(Fabric, ControlMessageLatency) {
  sim::Simulation sim;
  net::FabricConfig cfg;
  cfg.latency = 2e-6;
  TestFabric fabric(sim, 4, cfg);
  std::vector<std::pair<double, int>> log;
  spawn(sim, receive_one(&fabric, 2, &log, &sim));
  fabric.send(0, 2, net::Tag::kControl, Payload{42});
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 2e-6);
  EXPECT_EQ(log[0].second, 42);
}

TEST(Fabric, LocalDeliveryHasZeroLatency) {
  sim::Simulation sim;
  TestFabric fabric(sim, 2, net::FabricConfig{});
  std::vector<std::pair<double, int>> log;
  spawn(sim, receive_one(&fabric, 1, &log, &sim));
  fabric.send(1, 1, net::Tag::kControl, Payload{7});
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 0.0);
}

sim::Process bulk_sender(TestFabric* fabric, Bytes bytes) {
  co_await fabric->send_bulk(0, 1, net::Tag::kCacheData, Payload{1}, bytes);
}

TEST(Fabric, BulkTransferSerialisesThroughNic) {
  sim::Simulation sim;
  net::FabricConfig cfg;
  cfg.latency = 0.0;
  cfg.link_bandwidth = mb_per_sec(100);
  TestFabric fabric(sim, 2, cfg);
  std::vector<std::pair<double, int>> log;
  spawn(sim, receive_one(&fabric, 1, &log, &sim));
  spawn(sim, bulk_sender(&fabric, 50_MB));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NEAR(log[0].first, 0.5, 1e-9);  // 50 MB at 100 MB/s
}

TEST(Fabric, TrafficAccountingPerTag) {
  sim::Simulation sim;
  TestFabric fabric(sim, 2, net::FabricConfig{});
  fabric.send(0, 1, net::Tag::kCacheRequest, Payload{});
  fabric.send(0, 1, net::Tag::kCacheRequest, Payload{});
  fabric.send(1, 0, net::Tag::kStealRequest, Payload{});
  sim.run_until(1.0);
  const auto& counters = fabric.counters();
  EXPECT_EQ(counters.per_tag[static_cast<int>(net::Tag::kCacheRequest)].messages, 2u);
  EXPECT_EQ(counters.per_tag[static_cast<int>(net::Tag::kStealRequest)].messages, 1u);
  EXPECT_EQ(counters.total_messages(), 3u);
  EXPECT_STREQ(net::tag_name(net::Tag::kCacheData), "cache-data");
}

// --- storage ---

TEST(MemoryStore, PutReadAndStats) {
  storage::MemoryStore store;
  store.put("a.bin", ByteBuffer{1, 2, 3});
  EXPECT_TRUE(store.exists("a.bin"));
  EXPECT_FALSE(store.exists("b.bin"));
  EXPECT_EQ(store.size_of("a.bin"), 3u);
  EXPECT_EQ(store.read("a.bin"), (ByteBuffer{1, 2, 3}));
  const storage::StoreStats stats = store.stats();
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.bytes_read, 3u);
  EXPECT_THROW(store.read("missing"), std::runtime_error);
}

/// Four threads read every object of `store` (retrying injected transient
/// errors) while a fifth polls `counted.stats()` — `counted` is the store
/// that counts reads: `store` itself, or the store a decorator wraps.
/// Then the counts must be exact.
void expect_exact_concurrent_reads(
    storage::ObjectStore& store, const storage::ObjectStore& counted,
    const std::map<std::string, ByteBuffer>& objects) {
  constexpr int kReaders = 4;
  constexpr int kRounds = 20;
  const storage::StoreStats before = counted.stats();
  std::atomic<int> readers_left{kReaders};
  std::atomic<int> wrong_bytes{0};
  std::atomic<bool> counts_went_back{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& [name, bytes] : objects) {
          for (;;) {
            try {
              if (store.read(name) != bytes) wrong_bytes.fetch_add(1);
              break;
            } catch (const storage::TransientStoreError&) {
            }
          }
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    std::uint64_t last = before.reads;
    while (readers_left.load() > 0) {
      const std::uint64_t reads = counted.stats().reads;
      if (reads < last) counts_went_back = true;
      last = reads;
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();

  Bytes object_bytes = 0;
  for (const auto& [name, bytes] : objects) object_bytes += bytes.size();
  const storage::StoreStats after = counted.stats();
  EXPECT_EQ(wrong_bytes.load(), 0);
  EXPECT_FALSE(counts_went_back.load());
  EXPECT_EQ(after.reads - before.reads,
            std::uint64_t{kReaders * kRounds} * objects.size());
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            Bytes{kReaders * kRounds} * object_bytes);
}

TEST(ObjectStore, ConcurrentReadsCountExactly) {
  std::map<std::string, ByteBuffer> objects;
  for (int i = 0; i < 4; ++i) {
    objects["obj_" + std::to_string(i)] =
        ByteBuffer(100 + 37 * i, static_cast<std::uint8_t>(i + 1));
  }
  storage::MemoryStore memory;
  storage::DirectoryStore directory(::testing::TempDir() +
                                    "/rocket_concurrent_store_test");
  for (const auto& [name, bytes] : objects) {
    memory.put(name, bytes);
    directory.put(name, bytes);
  }
  {
    SCOPED_TRACE("MemoryStore");
    expect_exact_concurrent_reads(memory, memory, objects);
  }
  {
    SCOPED_TRACE("DirectoryStore");
    expect_exact_concurrent_reads(directory, directory, objects);
  }
  {
    SCOPED_TRACE("ThrottledStore");
    storage::ThrottledStore throttled(memory, 50);
    expect_exact_concurrent_reads(throttled, memory, objects);
  }
  {
    SCOPED_TRACE("FlakyStore");
    storage::FlakyStore::Config cfg;
    cfg.error_rate = 0.3;
    cfg.seed = 5;
    storage::FlakyStore flaky(memory, cfg);
    expect_exact_concurrent_reads(flaky, memory, objects);
    EXPECT_GT(flaky.injected_errors(), 0u);
  }
}

TEST(DirectoryStore, RoundTripsFiles) {
  storage::DirectoryStore store(::testing::TempDir() + "/rocket_store_test");
  ByteBuffer payload(1000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  store.put("item_0001.dat", payload);
  EXPECT_TRUE(store.exists("item_0001.dat"));
  EXPECT_EQ(store.size_of("item_0001.dat"), payload.size());
  EXPECT_EQ(store.read("item_0001.dat"), payload);
  const auto names = store.list();
  EXPECT_NE(std::find(names.begin(), names.end(), "item_0001.dat"), names.end());
  EXPECT_THROW(store.read("nope"), std::runtime_error);
}

sim::Process timed_read(storage::SimulatedStore* store, Bytes bytes,
                        double* done, sim::Simulation* sim) {
  co_await store->read(bytes);
  *done = sim->now();
}

TEST(SimulatedStore, SingleReadTime) {
  sim::Simulation sim;
  storage::SimulatedStoreConfig cfg;
  cfg.bandwidth = mb_per_sec(100);
  cfg.request_overhead = 0.001;
  storage::SimulatedStore store(sim, cfg);
  double done = 0;
  spawn(sim, timed_read(&store, 10_MB, &done, &sim));
  sim.run();
  EXPECT_NEAR(done, 0.101, 1e-9);  // 1 ms overhead + 10 MB / 100 MBps
  EXPECT_EQ(store.reads(), 1u);
  EXPECT_EQ(store.bytes_read(), 10_MB);
}

TEST(SimulatedStore, ConcurrentReadsContend) {
  sim::Simulation sim;
  storage::SimulatedStoreConfig cfg;
  cfg.bandwidth = mb_per_sec(100);
  cfg.request_overhead = 0.0;
  storage::SimulatedStore store(sim, cfg);
  double a = 0, b = 0;
  spawn(sim, timed_read(&store, 10_MB, &a, &sim));
  spawn(sim, timed_read(&store, 10_MB, &b, &sim));
  sim.run();
  // Two concurrent 10 MB reads at 100 MB/s shared → 0.2 s each.
  EXPECT_NEAR(a, 0.2, 1e-6);
  EXPECT_NEAR(b, 0.2, 1e-6);
  EXPECT_NEAR(store.average_usage(sim.now()), mb_per_sec(100), mb_per_sec(1));
}

// --- gpu ---

TEST(DeviceSpec, CatalogueOrderingMatchesGenerations) {
  // Relative speeds must preserve the paper's qualitative ordering.
  EXPECT_LT(gpu::k20m().relative_speed, gpu::gtx980().relative_speed);
  EXPECT_LT(gpu::gtx980().relative_speed, gpu::titanx_maxwell().relative_speed);
  EXPECT_LT(gpu::titanx_maxwell().relative_speed,
            gpu::titanx_pascal().relative_speed);
  EXPECT_LT(gpu::titanx_pascal().relative_speed,
            gpu::rtx2080ti().relative_speed);
  EXPECT_DOUBLE_EQ(gpu::titanx_maxwell().relative_speed, 1.0);
}

TEST(DeviceSpec, CacheCapacityMatchesTable1) {
  // 291 slots of 38.1 MB fit in the TitanX Maxwell cache budget.
  const auto spec = gpu::titanx_maxwell();
  const auto slots = spec.cache_capacity() / megabytes(38.1);
  EXPECT_GE(slots, 288u);
  EXPECT_LE(slots, 294u);
}

TEST(DeviceSpec, KernelScaling) {
  const auto fast = gpu::rtx2080ti();
  const auto slow = gpu::k20m();
  EXPECT_NEAR(fast.scale_kernel_time(1.0), 1.0 / 2.4, 1e-12);
  EXPECT_GT(slow.scale_kernel_time(1.0), 2.0);
}

TEST(DeviceSpec, LookupByName) {
  EXPECT_EQ(gpu::device_by_name("RTX2080Ti").generation,
            gpu::Generation::kTuring);
  EXPECT_THROW(gpu::device_by_name("H100"), std::invalid_argument);
  EXPECT_STREQ(gpu::generation_name(gpu::Generation::kPascal), "Pascal");
}

TEST(VirtualDevice, AllocationAccounting) {
  gpu::VirtualDevice device(0, gpu::gtx980());  // 4 GB
  auto buffer = device.allocate(1_GB);
  EXPECT_EQ(device.allocated(), 1_GB);
  EXPECT_EQ(buffer.size(), 1_GB);
  {
    auto second = device.allocate(2_GB);
    EXPECT_EQ(device.allocated(), 3_GB);
  }
  EXPECT_EQ(device.allocated(), 1_GB);  // RAII returned the bytes
}

TEST(VirtualDevice, OutOfMemoryThrows) {
  gpu::VirtualDevice device(0, gpu::gtx980());
  auto hog = device.allocate(3_GB);
  EXPECT_THROW(device.allocate(2_GB), gpu::DeviceOutOfMemory);
  EXPECT_EQ(device.allocated(), 3_GB);  // failed alloc left no residue
}

TEST(VirtualDevice, MoveTransfersOwnership) {
  gpu::VirtualDevice device(0, gpu::titanx_maxwell());
  auto a = device.allocate(100_MB);
  a.data()[0] = 0xAB;
  gpu::DeviceBuffer b = std::move(a);
  EXPECT_EQ(b.size(), 100_MB);
  EXPECT_EQ(b.data()[0], 0xAB);
  EXPECT_EQ(device.allocated(), 100_MB);
  b = gpu::DeviceBuffer();
  EXPECT_EQ(device.allocated(), 0u);
}

}  // namespace
}  // namespace rocket
