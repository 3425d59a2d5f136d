// Property-based tests: randomised stress on the policy core with
// invariants checked at every step, plus analytic cross-checks of the
// simulation primitives (queueing identities the models must satisfy).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/distributed_directory.hpp"
#include "cache/slot_cache.hpp"
#include "common/rng.hpp"
#include "dnc/pair_space.hpp"
#include "sim/primitives.hpp"
#include "sim/process.hpp"
#include "steal/scheduler.hpp"

namespace rocket {
namespace {

// --- SlotCache randomised stress -------------------------------------

struct CacheStressParam {
  std::uint32_t slots;
  std::uint32_t items;
  std::uint64_t seed;
};

class SlotCacheStress : public ::testing::TestWithParam<CacheStressParam> {};

TEST_P(SlotCacheStress, InvariantsHoldUnderRandomOperations) {
  const auto param = GetParam();
  cache::SlotCache cache({param.slots, 1_MB, "stress"});
  Rng rng(param.seed);

  // Outstanding state mirrored by the test (the "abstract model").
  std::multiset<cache::SlotId> read_pins;
  std::map<cache::SlotId, cache::ItemId> writers;  // slot -> item being filled
  std::uint64_t deferred_grants = 0;

  auto on_grant = [&](cache::SlotCache::Grant grant) {
    ++deferred_grants;
    if (grant.outcome == cache::SlotCache::Outcome::kHit) {
      read_pins.insert(grant.slot);
    } else if (grant.outcome == cache::SlotCache::Outcome::kFill) {
      writers[grant.slot] = cache.item_of(grant.slot);
    }
    // kFailed: nothing to track; the abstract client just gives up.
  };

  for (int step = 0; step < 20000; ++step) {
    const auto action = rng.uniform_index(10);
    if (action < 5) {  // acquire a random item
      const auto item = static_cast<cache::ItemId>(rng.uniform_index(param.items));
      const auto grant = cache.acquire(item, on_grant);
      if (grant.outcome == cache::SlotCache::Outcome::kHit) {
        read_pins.insert(grant.slot);
      } else if (grant.outcome == cache::SlotCache::Outcome::kFill) {
        writers[grant.slot] = item;
      }
    } else if (action < 7 && !read_pins.empty()) {  // release a random pin
      auto it = read_pins.begin();
      std::advance(it, static_cast<long>(rng.uniform_index(read_pins.size())));
      cache.release(*it);
      read_pins.erase(it);
    } else if (action < 9 && !writers.empty()) {  // publish a random writer
      auto it = writers.begin();
      std::advance(it, static_cast<long>(rng.uniform_index(writers.size())));
      const auto slot = it->first;
      writers.erase(it);
      cache.publish(slot);
      read_pins.insert(slot);  // the writer's pin
    } else if (!writers.empty()) {  // abort a random writer
      auto it = writers.begin();
      std::advance(it, static_cast<long>(rng.uniform_index(writers.size())));
      const auto slot = it->first;
      writers.erase(it);
      cache.abort(slot);
    }
    if (step % 500 == 0) cache.check_invariants();
  }
  // Drain: release all pins and abort all writers. Releases can fire
  // deferred grants that add *new* pins/writers (queued allocations being
  // served), so loop until the mirrored state is empty.
  while (!read_pins.empty() || !writers.empty()) {
    if (!read_pins.empty()) {
      const auto slot = *read_pins.begin();
      read_pins.erase(read_pins.begin());
      cache.release(slot);
    } else {
      const auto slot = writers.begin()->first;
      writers.erase(writers.begin());
      cache.abort(slot);
    }
  }
  cache.check_invariants();
  // Full reusability: `slots` fresh items can all be filled.
  for (std::uint32_t i = 0; i < param.slots; ++i) {
    const auto g = cache.acquire(1000000 + i, nullptr);
    ASSERT_EQ(g.outcome, cache::SlotCache::Outcome::kFill);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlotCacheStress,
    ::testing::Values(CacheStressParam{2, 8, 1}, CacheStressParam{4, 4, 2},
                      CacheStressParam{8, 64, 3}, CacheStressParam{64, 16, 4},
                      CacheStressParam{16, 1000, 5}));

// --- Scheduler conservation across shapes ------------------------------

struct SchedParam {
  std::vector<std::uint32_t> workers_per_node;
  std::uint32_t n;
  std::uint64_t leaf;
};

// gtest's fallback printer dumps the raw bytes, which include the vector's
// heap pointer; the printed value names each ctest case, so print fields.
void PrintTo(const SchedParam& p, std::ostream* os) {
  *os << "workers=";
  for (std::size_t i = 0; i < p.workers_per_node.size(); ++i) {
    *os << (i ? "," : "") << p.workers_per_node[i];
  }
  *os << " n=" << p.n << " leaf=" << p.leaf;
}

class SchedulerConservation : public ::testing::TestWithParam<SchedParam> {};

TEST_P(SchedulerConservation, EveryPairGrantedExactlyOnce) {
  const auto param = GetParam();
  steal::RegionScheduler::Config cfg;
  cfg.workers_per_node = param.workers_per_node;
  cfg.max_leaf_pairs = param.leaf;
  cfg.seed = 99;
  steal::RegionScheduler sched(cfg);
  sched.seed_root(param.n);

  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  bool progress = true;
  while (progress) {
    progress = false;
    for (steal::WorkerId w = 0; w < sched.num_workers(); ++w) {
      if (auto grant = sched.next_leaf(w)) {
        progress = true;
        EXPECT_LE(dnc::count_pairs(grant->region), param.leaf);
        dnc::for_each_pair(grant->region, [&](dnc::Pair p) {
          EXPECT_TRUE(seen.insert({p.left, p.right}).second)
              << "duplicate pair " << p.left << "," << p.right;
        });
      }
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(param.n) * (param.n - 1) / 2);
  EXPECT_TRUE(sched.all_empty());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, SchedulerConservation,
    ::testing::Values(SchedParam{{1}, 50, 1}, SchedParam{{4}, 64, 1},
                      SchedParam{{2, 2}, 64, 4}, SchedParam{{1, 2, 1}, 37, 2},
                      SchedParam{{2, 2, 2, 2}, 96, 8},
                      SchedParam{{8}, 128, 16}));

// --- Distributed directory: chain freshness property -------------------

TEST(DirectoryProperty, ChainAlwaysReflectsMostRecentRequesters) {
  // Whatever the request sequence, the chain handed to a requester is the
  // h most recent *other* requesters, most recent first.
  Rng rng(7);
  for (const std::uint32_t h : {1u, 2u, 4u}) {
    cache::DistributedDirectory dir(h);
    std::vector<cache::NodeId> history;
    for (int step = 0; step < 500; ++step) {
      const auto node = static_cast<cache::NodeId>(rng.uniform_index(6));
      const auto chain = dir.on_request(42, node);
      // Build the expected chain from our shadow history.
      std::vector<cache::NodeId> expected;
      std::set<cache::NodeId> used;
      for (auto it = history.rbegin();
           it != history.rend() && expected.size() < h; ++it) {
        if (*it == node || used.count(*it)) continue;
        expected.push_back(*it);
        used.insert(*it);
      }
      EXPECT_EQ(chain, expected) << "step " << step;
      // Shadow update: dedupe + prepend (mirrors the directory).
      history.erase(std::remove(history.begin(), history.end(), node),
                    history.end());
      history.push_back(node);
      if (history.size() > h) history.erase(history.begin());
    }
  }
}

// --- Simulation cross-checks against queueing identities ----------------

sim::Process mm1_like_arrivals(sim::Simulation& /*sim*/, sim::Resource& server,
                               Rng& rng, int jobs, double mean_interarrival,
                               double mean_service, double* busy_check) {
  for (int j = 0; j < jobs; ++j) {
    co_await sim::delay(rng.exponential(mean_interarrival));
    co_await server.acquire();
    const double s = rng.exponential(mean_service);
    *busy_check += s;
    co_await sim::delay(s);
    server.release();
  }
}

TEST(SimulationProperty, ResourceBusyTimeEqualsSumOfServiceTimes) {
  // Work conservation: a single server's busy integral equals the total
  // service demand regardless of queueing.
  sim::Simulation sim;
  sim::Resource server(sim, 1);
  Rng rng(17);
  double demand = 0.0;
  spawn(sim, mm1_like_arrivals(sim, server, rng, 500, 1.0, 0.7, &demand));
  sim.run();
  EXPECT_NEAR(server.busy_time(), demand, 1e-9);
  // Closed-loop client: expected utilisation = s / (a + s) = 0.7/1.7 ≈ 0.41.
  const double utilisation = server.busy_time() / sim.now();
  EXPECT_LT(utilisation, 1.0);
  EXPECT_NEAR(utilisation, 0.7 / 1.7, 0.05);
}

sim::Process ps_flow(sim::SharedBandwidth& link, Bytes size, double* done,
                     sim::Simulation* sim) {
  co_await link.transfer(size);
  *done = sim->now();
}

TEST(SimulationProperty, ProcessorSharingConservesBytes) {
  // N simultaneous equal flows on a PS link must all finish at exactly
  // N * size / capacity, and total bytes served equals the demand.
  for (const int flows : {1, 2, 3, 7, 16}) {
    sim::Simulation sim;
    sim::SharedBandwidth link(sim, 1000.0);
    std::vector<double> done(static_cast<std::size_t>(flows), 0.0);
    for (int f = 0; f < flows; ++f) {
      spawn(sim, ps_flow(link, 500, &done[static_cast<std::size_t>(f)], &sim));
    }
    sim.run();
    for (const double t : done) {
      EXPECT_NEAR(t, flows * 500.0 / 1000.0, 1e-6) << flows << " flows";
    }
    EXPECT_EQ(link.total_transferred(), static_cast<Bytes>(flows) * 500);
  }
}

TEST(SimulationProperty, PairDeterminismAcrossLeafBudgets) {
  // The set of pairs is invariant under the decomposition granularity.
  for (const std::uint64_t leaf : {1ull, 3ull, 10ull, 100ull}) {
    steal::RegionScheduler::Config cfg;
    cfg.workers_per_node = {3};
    cfg.max_leaf_pairs = leaf;
    cfg.seed = 5;
    steal::RegionScheduler sched(cfg);
    sched.seed_root(40);
    std::uint64_t total = 0;
    bool progress = true;
    while (progress) {
      progress = false;
      for (steal::WorkerId w = 0; w < 3; ++w) {
        if (auto grant = sched.next_leaf(w)) {
          total += dnc::count_pairs(grant->region);
          progress = true;
        }
      }
    }
    EXPECT_EQ(total, 40u * 39 / 2) << "leaf=" << leaf;
  }
}

}  // namespace
}  // namespace rocket
