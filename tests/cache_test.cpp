#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "cache/distributed_directory.hpp"
#include "cache/slot_cache.hpp"

namespace rocket::cache {
namespace {

using Outcome = SlotCache::Outcome;
using Grant = SlotCache::Grant;

SlotCache make_cache(std::uint32_t slots) {
  return SlotCache(SlotCache::Config{slots, megabytes(1), "test"});
}

TEST(SlotCache, MissThenFillThenHit) {
  auto cache = make_cache(2);
  const Grant g1 = cache.acquire(7, nullptr);
  ASSERT_EQ(g1.outcome, Outcome::kFill);
  EXPECT_FALSE(cache.readable(7));
  cache.publish(g1.slot);
  EXPECT_TRUE(cache.readable(7));
  cache.release(g1.slot);  // writer's pin

  const Grant g2 = cache.acquire(7, nullptr);
  EXPECT_EQ(g2.outcome, Outcome::kHit);
  EXPECT_EQ(g2.slot, g1.slot);
  cache.release(g2.slot);
  EXPECT_EQ(cache.stats().fills, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.check_invariants();
}

TEST(SlotCache, WaitersQueueBehindWriterAndGetPins) {
  auto cache = make_cache(2);
  const Grant writer = cache.acquire(1, nullptr);
  ASSERT_EQ(writer.outcome, Outcome::kFill);

  std::vector<Grant> grants;
  const Grant w1 = cache.acquire(1, [&](Grant g) { grants.push_back(g); });
  const Grant w2 = cache.acquire(1, [&](Grant g) { grants.push_back(g); });
  EXPECT_EQ(w1.outcome, Outcome::kQueued);
  EXPECT_EQ(w2.outcome, Outcome::kQueued);
  EXPECT_TRUE(grants.empty());
  EXPECT_EQ(cache.stats().write_waits, 2u);

  cache.publish(writer.slot);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].outcome, Outcome::kHit);
  EXPECT_EQ(grants[1].outcome, Outcome::kHit);
  // Writer + two waiters hold pins.
  EXPECT_EQ(cache.readers_of(writer.slot), 3u);
  cache.release(writer.slot);
  cache.release(writer.slot);
  cache.release(writer.slot);
  EXPECT_EQ(cache.readers_of(writer.slot), 0u);
  cache.check_invariants();
}

TEST(SlotCache, AbortPropagatesFailureToWaiters) {
  auto cache = make_cache(1);
  const Grant writer = cache.acquire(5, nullptr);
  ASSERT_EQ(writer.outcome, Outcome::kFill);
  std::optional<Grant> waited;
  cache.acquire(5, [&](Grant g) { waited = g; });
  cache.abort(writer.slot);
  ASSERT_TRUE(waited.has_value());
  EXPECT_EQ(waited->outcome, Outcome::kFailed);
  EXPECT_FALSE(cache.contains(5));
  EXPECT_GE(cache.stats().failures, 2u);
  // The slot is immediately reusable.
  const Grant retry = cache.acquire(5, nullptr);
  EXPECT_EQ(retry.outcome, Outcome::kFill);
  cache.check_invariants();
}

TEST(SlotCache, LruEvictionOrder) {
  auto cache = make_cache(2);
  for (const ItemId item : {10u, 11u}) {
    const Grant g = cache.acquire(item, nullptr);
    ASSERT_EQ(g.outcome, Outcome::kFill);
    cache.publish(g.slot);
    cache.release(g.slot);
  }
  // Touch item 10 so 11 becomes LRU.
  const Grant touch = cache.acquire(10, nullptr);
  ASSERT_EQ(touch.outcome, Outcome::kHit);
  cache.release(touch.slot);

  const Grant fresh = cache.acquire(12, nullptr);
  ASSERT_EQ(fresh.outcome, Outcome::kFill);
  cache.publish(fresh.slot);
  cache.release(fresh.slot);

  EXPECT_TRUE(cache.contains(10));
  EXPECT_FALSE(cache.contains(11));  // evicted as least recently used
  EXPECT_TRUE(cache.contains(12));
  EXPECT_EQ(cache.stats().evictions, 1u);
  cache.check_invariants();
}

TEST(SlotCache, PinnedSlotsAreNotEvictable) {
  auto cache = make_cache(1);
  const Grant g = cache.acquire(1, nullptr);
  cache.publish(g.slot);  // pin held by writer

  std::optional<Grant> deferred;
  const Grant blocked = cache.acquire(2, [&](Grant gr) { deferred = gr; });
  EXPECT_EQ(blocked.outcome, Outcome::kQueued);
  EXPECT_EQ(cache.stats().alloc_stalls, 1u);
  EXPECT_FALSE(deferred.has_value());

  cache.release(g.slot);  // unpin → allocation can proceed
  ASSERT_TRUE(deferred.has_value());
  EXPECT_EQ(deferred->outcome, Outcome::kFill);
  EXPECT_FALSE(cache.contains(1));  // evicted
  cache.check_invariants();
}

TEST(SlotCache, QueuedAllocationPiggybacksOnLaterFill) {
  auto cache = make_cache(1);
  const Grant g = cache.acquire(1, nullptr);
  cache.publish(g.slot);  // slot pinned by writer's read pin

  // Two queued allocations for the SAME item 2: when the pin drops, the
  // first becomes the writer and the second must wait on that writer (not
  // allocate a second slot for the same item).
  std::optional<Grant> first, second;
  cache.acquire(2, [&](Grant gr) { first = gr; });
  cache.acquire(2, [&](Grant gr) { second = gr; });
  cache.release(g.slot);

  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->outcome, Outcome::kFill);
  EXPECT_FALSE(second.has_value());  // waiting on the writer
  cache.publish(first->slot);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->outcome, Outcome::kHit);
  cache.check_invariants();
}

TEST(SlotCache, PendingAllocationsStayFifo) {
  // Stalled allocations are served in arrival order as slots free up —
  // the same order the simulator's replay of the policy depends on.
  auto cache = make_cache(2);
  const Grant a = cache.acquire(1, nullptr);
  const Grant b = cache.acquire(2, nullptr);
  cache.publish(a.slot);
  cache.publish(b.slot);

  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    const Grant g = cache.acquire(static_cast<ItemId>(10 + i), [&, i](Grant q) {
      order.push_back(i);
      if (q.outcome == Outcome::kFill) cache.abort(q.slot);
    });
    ASSERT_EQ(g.outcome, Outcome::kQueued);
  }
  cache.release(a.slot);
  cache.release(b.slot);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  cache.check_invariants();
}

TEST(SlotCache, StatsCountLoadsForReuseFactor) {
  auto cache = make_cache(4);
  // 8 distinct items through a 4-slot cache, twice: second pass re-loads
  // everything (LRU with sequential scan = worst case).
  for (int pass = 0; pass < 2; ++pass) {
    for (ItemId item = 0; item < 8; ++item) {
      const Grant g = cache.acquire(item, nullptr);
      ASSERT_EQ(g.outcome, Outcome::kFill);
      cache.publish(g.slot);
      cache.release(g.slot);
    }
  }
  EXPECT_EQ(cache.stats().fills, 16u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().evictions, 12u);
  cache.check_invariants();
}

TEST(SlotCache, ResidentCountTracksLiveItems) {
  auto cache = make_cache(3);
  EXPECT_EQ(cache.resident_items(), 0u);
  const Grant a = cache.acquire(1, nullptr);
  cache.publish(a.slot);
  EXPECT_EQ(cache.resident_items(), 1u);
  cache.release(a.slot);
  EXPECT_EQ(cache.resident_items(), 1u);  // still cached, just unpinned
  cache.check_invariants();
}

TEST(SlotCacheDeath, ReleaseWithoutPinAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cache = make_cache(1);
  const Grant g = cache.acquire(1, nullptr);
  cache.publish(g.slot);
  cache.release(g.slot);
  EXPECT_DEATH(cache.release(g.slot), "release");
}

TEST(SlotsForCapacity, ClampsToItemCount) {
  EXPECT_EQ(slots_for_capacity(gigabytes(11.1), megabytes(38.1), 4980), 291u);
  EXPECT_EQ(slots_for_capacity(gigabytes(40.0), megabytes(145.8), 2500), 274u);
  // Microscopy: far more capacity than items → clamp to n.
  EXPECT_EQ(slots_for_capacity(gigabytes(40.0), kilobytes(6.0), 256), 256u);
}

// --- Batched multi-acquire (the tile-batched execution path) ----------

TEST(SlotCacheBatch, HitFillMix) {
  auto cache = make_cache(4);
  // Pre-fill items 0 and 1.
  for (ItemId item : {0u, 1u}) {
    const Grant g = cache.acquire(item, nullptr);
    cache.publish(g.slot);
    cache.release(g.slot);
  }

  const std::vector<ItemId> items{0, 2, 1, 3};
  const auto grants = cache.acquire_batch(items, nullptr);
  ASSERT_EQ(grants.size(), 4u);
  EXPECT_EQ(grants[0].outcome, Outcome::kHit);
  EXPECT_EQ(grants[1].outcome, Outcome::kFill);
  EXPECT_EQ(grants[2].outcome, Outcome::kHit);
  EXPECT_EQ(grants[3].outcome, Outcome::kFill);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().fills, 4u);  // 2 pre-fills + 2 batch fills

  cache.publish(grants[1].slot);
  cache.publish(grants[3].slot);
  for (const auto& g : grants) cache.release(g.slot);
  cache.check_invariants();
}

TEST(SlotCacheBatch, QueuedBehindWriterResolvesWithIndex) {
  auto cache = make_cache(4);
  const Grant writer = cache.acquire(7, nullptr);
  ASSERT_EQ(writer.outcome, Outcome::kFill);

  std::vector<std::pair<std::size_t, Grant>> fired;
  const std::vector<ItemId> items{5, 7, 6};
  const auto grants = cache.acquire_batch(
      items, [&](std::size_t k, Grant g) { fired.emplace_back(k, g); });
  EXPECT_EQ(grants[0].outcome, Outcome::kFill);
  EXPECT_EQ(grants[1].outcome, Outcome::kQueued);  // behind the writer
  EXPECT_EQ(grants[2].outcome, Outcome::kFill);
  EXPECT_TRUE(fired.empty());

  cache.publish(writer.slot);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 1u);  // index into the batch
  EXPECT_EQ(fired[0].second.outcome, Outcome::kHit);
  EXPECT_EQ(fired[0].second.slot, writer.slot);

  cache.release(writer.slot);
  cache.release(fired[0].second.slot);
  cache.publish(grants[0].slot);
  cache.release(grants[0].slot);
  cache.publish(grants[2].slot);
  cache.release(grants[2].slot);
  cache.check_invariants();
}

TEST(SlotCacheBatch, WriterAbortPropagatesFailedToBatchWaiters) {
  auto cache = make_cache(4);
  const Grant writer = cache.acquire(3, nullptr);
  ASSERT_EQ(writer.outcome, Outcome::kFill);

  std::vector<std::pair<std::size_t, Grant>> fired;
  const std::vector<ItemId> items{3, 9};
  const auto grants = cache.acquire_batch(
      items, [&](std::size_t k, Grant g) { fired.emplace_back(k, g); });
  EXPECT_EQ(grants[0].outcome, Outcome::kQueued);
  EXPECT_EQ(grants[1].outcome, Outcome::kFill);

  cache.abort(writer.slot);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 0u);
  EXPECT_EQ(fired[0].second.outcome, Outcome::kFailed);

  cache.publish(grants[1].slot);
  cache.release(grants[1].slot);
  cache.check_invariants();
}

TEST(SlotCacheBatch, AllocStallServedAsPinsDrop) {
  auto cache = make_cache(2);
  // Pin both slots so the batch cannot allocate.
  const Grant a = cache.acquire(0, nullptr);
  const Grant b = cache.acquire(1, nullptr);
  cache.publish(a.slot);
  cache.publish(b.slot);

  std::vector<std::pair<std::size_t, Grant>> fired;
  const std::vector<ItemId> items{2, 3};
  const auto grants = cache.acquire_batch(
      items, [&](std::size_t k, Grant g) { fired.emplace_back(k, g); });
  EXPECT_EQ(grants[0].outcome, Outcome::kQueued);
  EXPECT_EQ(grants[1].outcome, Outcome::kQueued);
  EXPECT_EQ(cache.stats().alloc_stalls, 2u);

  cache.release(a.slot);  // one slot becomes evictable → first waiter fills
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 0u);
  EXPECT_EQ(fired[0].second.outcome, Outcome::kFill);
  cache.release(b.slot);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].first, 1u);
  EXPECT_EQ(fired[1].second.outcome, Outcome::kFill);

  cache.publish(fired[0].second.slot);
  cache.release(fired[0].second.slot);
  cache.publish(fired[1].second.slot);
  cache.release(fired[1].second.slot);
  cache.check_invariants();
}

// Multi-threaded stress: tile-shaped overlapping working sets pinned via
// acquire_batch through a mutex (exactly how the live runtime drives the
// policy object), with invariants audited throughout. Per-thread batch
// budgets are sized so concurrent demand can never exceed the slot supply
// (the runtime's deadlock-freedom invariant, DESIGN.md §6).
TEST(SlotCacheBatch, OverlappingTileStress) {
  constexpr std::uint32_t kSlots = 16;
  constexpr int kThreads = 4;
  constexpr std::uint32_t kBatch = kSlots / kThreads;  // 4 items per tile
  constexpr ItemId kUniverse = 64;
  constexpr int kRounds = 300;

  SlotCache cache(SlotCache::Config{kSlots, megabytes(1), "stress"});
  std::mutex mutex;

  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> pins_granted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(17 * t + 1);
      for (int round = 0; round < kRounds; ++round) {
        // A "tile": kBatch consecutive items from a random offset, so
        // ranges overlap across threads.
        const ItemId base =
            static_cast<ItemId>(rng() % (kUniverse - kBatch));
        std::vector<ItemId> items;
        for (std::uint32_t k = 0; k < kBatch; ++k) items.push_back(base + k);

        struct Pending {
          std::mutex m;
          std::condition_variable cv;
          std::vector<std::pair<std::size_t, Grant>> fired;
        } pending;

        std::vector<Grant> grants;
        {
          std::scoped_lock lock(mutex);
          grants = cache.acquire_batch(items, [&pending](std::size_t k,
                                                         Grant g) {
            std::scoped_lock plock(pending.m);
            pending.fired.emplace_back(k, g);
            pending.cv.notify_one();
          });
        }

        std::vector<SlotId> held;
        std::size_t queued = 0;
        auto resolve = [&](std::size_t k, Grant g) {
          // Failed grants retry as a fresh single acquire.
          while (g.outcome == Outcome::kFailed) {
            std::scoped_lock lock(mutex);
            g = cache.acquire(items[k], [&pending, k](Grant g2) {
              std::scoped_lock plock(pending.m);
              pending.fired.emplace_back(k, g2);
              pending.cv.notify_one();
            });
            if (g.outcome == Outcome::kQueued) return false;
          }
          if (g.outcome == Outcome::kFill) {
            std::scoped_lock lock(mutex);
            cache.publish(g.slot);
          }
          held.push_back(g.slot);
          return true;
        };

        for (std::size_t k = 0; k < grants.size(); ++k) {
          if (grants[k].outcome == Outcome::kQueued || !resolve(k, grants[k])) {
            ++queued;
          }
        }
        while (queued > 0) {
          std::pair<std::size_t, Grant> next;
          {
            std::unique_lock plock(pending.m);
            pending.cv.wait(plock, [&] { return !pending.fired.empty(); });
            next = pending.fired.back();
            pending.fired.pop_back();
          }
          if (resolve(next.first, next.second)) --queued;
        }

        pins_granted.fetch_add(held.size());
        {
          std::scoped_lock lock(mutex);
          if (round % 16 == 0) cache.check_invariants();
          for (const SlotId slot : held) cache.release(slot);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  cache.check_invariants();
  EXPECT_EQ(pins_granted.load(),
            static_cast<std::uint64_t>(kThreads) * kRounds * kBatch);
  EXPECT_GT(cache.stats().hits + cache.stats().fills, 0u);
}

// --- Distributed directory (the paper's §4.1.3 candidates protocol) ---

TEST(DistributedDirectory, FirstRequestHasNoCandidates) {
  DistributedDirectory dir(3);
  const auto chain = dir.on_request(/*item=*/9, /*requester=*/2);
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(dir.stats().empty_responses, 1u);
  EXPECT_EQ(dir.candidates(9), (std::vector<NodeId>{2}));
}

TEST(DistributedDirectory, ChainIsMostRecentFirst) {
  DistributedDirectory dir(3);
  dir.on_request(9, 0);
  dir.on_request(9, 1);
  dir.on_request(9, 2);
  const auto chain = dir.on_request(9, 5);
  EXPECT_EQ(chain, (std::vector<NodeId>{2, 1, 0}));
  EXPECT_EQ(dir.candidates(9), (std::vector<NodeId>{5, 2, 1}));  // trimmed to h=3
}

TEST(DistributedDirectory, RequesterExcludedFromOwnChain) {
  DistributedDirectory dir(3);
  dir.on_request(4, 7);
  const auto chain = dir.on_request(4, 7);  // same node asks again
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(dir.candidates(4), (std::vector<NodeId>{7}));  // deduplicated
}

TEST(DistributedDirectory, RepeatRequesterMovesToFront) {
  DistributedDirectory dir(3);
  dir.on_request(1, 0);
  dir.on_request(1, 1);
  dir.on_request(1, 0);  // node 0 again
  EXPECT_EQ(dir.candidates(1), (std::vector<NodeId>{0, 1}));
}

TEST(DistributedDirectory, BoundedCandidateList) {
  DistributedDirectory dir(2);
  for (NodeId node = 0; node < 10; ++node) dir.on_request(3, node);
  const auto list = dir.candidates(3);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], 9u);
  EXPECT_EQ(list[1], 8u);
}

TEST(DistributedDirectory, MediatorAssignment) {
  EXPECT_EQ(DistributedDirectory::mediator_of(0, 16), 0u);
  EXPECT_EQ(DistributedDirectory::mediator_of(17, 16), 1u);
  EXPECT_EQ(DistributedDirectory::mediator_of(4979, 16), 4979u % 16);
}

TEST(DistributedDirectory, ChainOutcomeCounters) {
  DistributedDirectory dir(3);
  dir.on_request(9, 0);
  dir.on_request(9, 1);
  EXPECT_EQ(dir.stats().requests, 2u);
  EXPECT_EQ(dir.stats().empty_responses, 1u);

  // Requester-side chain outcomes accumulate independently of lookups.
  dir.record_chain_outcome(/*hit=*/false, /*hops_walked=*/0);
  dir.record_chain_outcome(/*hit=*/true, /*hops_walked=*/1);
  dir.record_chain_outcome(/*hit=*/true, /*hops_walked=*/3);
  EXPECT_EQ(dir.stats().chain_hits, 2u);
  EXPECT_EQ(dir.stats().chain_misses, 1u);
  EXPECT_EQ(dir.stats().hops, 4u);

  // Aggregation across nodes sums every counter.
  DirectoryStats total;
  total += dir.stats();
  total += dir.stats();
  EXPECT_EQ(total.requests, 4u);
  EXPECT_EQ(total.chain_hits, 4u);
  EXPECT_EQ(total.chain_misses, 2u);
  EXPECT_EQ(total.hops, 8u);
}

class DirectoryDepthSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DirectoryDepthSweep, ListNeverExceedsH) {
  const std::uint32_t h = GetParam();
  DistributedDirectory dir(h);
  for (int round = 0; round < 50; ++round) {
    for (ItemId item = 0; item < 5; ++item) {
      dir.on_request(item, static_cast<NodeId>((round * 3 + item) % 13));
      EXPECT_LE(dir.candidates(item).size(), h);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, DirectoryDepthSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

}  // namespace
}  // namespace rocket::cache
