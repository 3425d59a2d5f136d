#include "steal/executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "common/rng.hpp"

namespace rocket::steal {

std::optional<dnc::Region> StealExporter::try_steal() {
  std::scoped_lock lock(mutex_);
  if (deques_ == nullptr) return std::nullopt;
  for (auto* deque : *deques_) {
    if (dnc::Region* region = deque->steal()) {
      const dnc::Region out = *region;
      delete region;
      return out;
    }
  }
  return std::nullopt;
}

void StealExporter::install(std::vector<ChaseLevDeque<dnc::Region>*>* deques) {
  std::scoped_lock lock(mutex_);
  deques_ = deques;
}

void StealExporter::uninstall() {
  std::scoped_lock lock(mutex_);
  deques_ = nullptr;
}

StealExecutor::StealExecutor(Config config) : config_(config) {
  if (config_.max_leaf_pairs == 0) {
    throw std::invalid_argument("max_leaf_pairs must be at least 1");
  }
}

ExecutorStats StealExecutor::run(dnc::ItemIndex n, const LeafFn& leaf) {
  const auto total = static_cast<std::int64_t>(
      dnc::count_pairs(dnc::root_region(n)));
  std::atomic<std::int64_t> pairs_remaining{total};
  std::atomic<std::uint64_t> steals{0}, failed_sweeps{0}, leaves{0};

  std::vector<std::unique_ptr<ChaseLevDeque<dnc::Region>>> owned;
  std::vector<ChaseLevDeque<dnc::Region>*> deques;
  for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
    owned.push_back(std::make_unique<ChaseLevDeque<dnc::Region>>());
    deques.push_back(owned.back().get());
  }
  seed({dnc::root_region(n)}, deques);

  std::vector<std::thread> threads;
  threads.reserve(config_.num_workers);
  for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
    threads.emplace_back([&, w] {
      worker_loop(w, leaf, deques, pairs_remaining, steals, failed_sweeps,
                  leaves);
    });
  }
  for (auto& t : threads) t.join();

  ROCKET_CHECK(pairs_remaining.load() == 0, "executor lost pairs");
  ExecutorStats stats;
  stats.leaves = leaves.load();
  stats.steals = steals.load();
  stats.failed_steal_sweeps = failed_sweeps.load();
  return stats;
}

ExecutorStats StealExecutor::run_partition(
    const std::vector<dnc::Region>& regions, const LeafFn& leaf,
    const RemoteHooks& hooks, StealExporter* exporter) {
  ROCKET_CHECK(static_cast<bool>(hooks.done),
               "run_partition needs a done hook");
  std::atomic<std::uint64_t> steals{0}, remote_steals{0}, failed_sweeps{0},
      leaves{0};

  std::vector<std::unique_ptr<ChaseLevDeque<dnc::Region>>> owned;
  std::vector<ChaseLevDeque<dnc::Region>*> deques;
  for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
    owned.push_back(std::make_unique<ChaseLevDeque<dnc::Region>>());
    deques.push_back(owned.back().get());
  }
  seed(regions, deques);
  // Scope guard: the deques must come out of the exporter before they are
  // destroyed, even if thread spawning below throws.
  struct Installation {
    StealExporter* exporter;
    ~Installation() {
      if (exporter != nullptr) exporter->uninstall();
    }
  } installation{exporter};
  if (exporter != nullptr) exporter->install(&deques);

  std::vector<std::thread> threads;
  threads.reserve(config_.num_workers);
  for (std::uint32_t w = 0; w < config_.num_workers; ++w) {
    threads.emplace_back([&, w] {
      partition_worker_loop(w, leaf, deques, hooks, steals, remote_steals,
                            failed_sweeps, leaves);
    });
  }
  for (auto& t : threads) t.join();

  // done() means every pair cluster-wide was delivered, not that these
  // deques ran dry: the master may have re-granted or copied their pairs
  // to other nodes, which finished them first. A peer that aborted also
  // unblocks done() early; the caller surfaces that failure. Either way,
  // free what is left.
  std::uint64_t leftover = 0;
  for (auto* deque : deques) {
    while (dnc::Region* region = deque->steal()) {
      leftover += dnc::count_pairs(*region);
      delete region;
    }
  }
  if (leftover > 0) {
    ROCKET_DEBUG("partition run released %llu pairs left in its deques at "
                 "cluster completion",
                 static_cast<unsigned long long>(leftover));
  }

  ExecutorStats stats;
  stats.leaves = leaves.load();
  stats.steals = steals.load();
  stats.remote_steals = remote_steals.load();
  stats.failed_steal_sweeps = failed_sweeps.load();
  return stats;
}

void StealExecutor::seed(
    const std::vector<dnc::Region>& regions,
    std::vector<ChaseLevDeque<dnc::Region>*>& deques) const {
  if (config_.leaf_order == dnc::Traversal::kDepthFirst) {
    std::size_t next = 0;
    for (const auto& region : regions) {
      if (dnc::count_pairs(region) == 0) continue;
      deques[next % deques.size()]->push(new dnc::Region(region));
      ++next;
    }
    return;
  }
  // Materialised traversal: one contiguous chunk of the ordered leaf list
  // per worker, each pushed in reverse so the owner's LIFO pops walk its
  // chunk front to back. Chunking keeps the curve's adjacency within
  // every worker and starts all workers busy — seeding a single deque
  // would turn the other workers' entire share into per-leaf steals of
  // arbitrary far-end leaves.
  const auto ordered =
      dnc::leaves(regions, config_.max_leaf_pairs, config_.leaf_order);
  const std::size_t per_worker =
      (ordered.size() + deques.size() - 1) / deques.size();
  for (std::size_t w = 0; w < deques.size(); ++w) {
    const std::size_t begin = w * per_worker;
    const std::size_t end = std::min(ordered.size(), begin + per_worker);
    for (std::size_t i = end; i > begin; --i) {
      deques[w]->push(new dnc::Region(ordered[i - 1]));
    }
  }
}

std::uint64_t StealExecutor::descend(dnc::Region current,
                                     ChaseLevDeque<dnc::Region>& mine,
                                     const LeafFn& leaf, std::uint32_t id,
                                     std::atomic<std::uint64_t>& leaves) {
  // Depth-first descent to a leaf; siblings become stealable.
  while (dnc::count_pairs(current) > config_.max_leaf_pairs) {
    auto children = dnc::split(current);
    current = children.front();
    for (std::size_t i = children.size(); i > 1; --i) {
      mine.push(new dnc::Region(children[i - 1]));
    }
  }
  leaf(current, id);
  leaves.fetch_add(1, std::memory_order_relaxed);
  return dnc::count_pairs(current);
}

void StealExecutor::worker_loop(
    std::uint32_t id, const LeafFn& leaf,
    std::vector<ChaseLevDeque<dnc::Region>*>& deques,
    std::atomic<std::int64_t>& pairs_remaining,
    std::atomic<std::uint64_t>& steals,
    std::atomic<std::uint64_t>& failed_sweeps,
    std::atomic<std::uint64_t>& leaves) {
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + id + 1);
  ChaseLevDeque<dnc::Region>& mine = *deques[id];

  std::vector<std::uint32_t> victims;
  for (std::uint32_t w = 0; w < deques.size(); ++w) {
    if (w != id) victims.push_back(w);
  }

  while (pairs_remaining.load(std::memory_order_acquire) > 0) {
    dnc::Region* region = mine.pop();
    if (region == nullptr && !victims.empty()) {
      // Random-order sweep over all victims; steal the largest available.
      rng.shuffle(victims);
      for (const std::uint32_t victim : victims) {
        region = deques[victim]->steal();
        if (region != nullptr) {
          steals.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
    if (region == nullptr) {
      failed_sweeps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
      continue;
    }

    const dnc::Region current = *region;
    delete region;
    pairs_remaining.fetch_sub(
        static_cast<std::int64_t>(descend(current, mine, leaf, id, leaves)),
        std::memory_order_acq_rel);
  }
}

void StealExecutor::partition_worker_loop(
    std::uint32_t id, const LeafFn& leaf,
    std::vector<ChaseLevDeque<dnc::Region>*>& deques, const RemoteHooks& hooks,
    std::atomic<std::uint64_t>& steals,
    std::atomic<std::uint64_t>& remote_steals,
    std::atomic<std::uint64_t>& failed_sweeps,
    std::atomic<std::uint64_t>& leaves) {
  Rng rng(config_.seed * 0x9E3779B97F4A7C15ULL + id + 1);
  ChaseLevDeque<dnc::Region>& mine = *deques[id];

  std::vector<std::uint32_t> victims;
  for (std::uint32_t w = 0; w < deques.size(); ++w) {
    if (w != id) victims.push_back(w);
  }

  // Idle backoff mirrors the simulator's worker loop (1→16 ms): it bounds
  // the steal-request traffic an idle node generates while it waits for
  // the cluster-wide done signal.
  auto backoff = std::chrono::milliseconds(1);
  constexpr auto kMaxBackoff = std::chrono::milliseconds(16);

  while (!hooks.done()) {
    dnc::Region* region = mine.pop();
    if (region == nullptr && !victims.empty()) {
      rng.shuffle(victims);
      for (const std::uint32_t victim : victims) {
        region = deques[victim]->steal();
        if (region != nullptr) {
          steals.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    }
    if (region == nullptr && hooks.steal) {
      if (auto stolen = hooks.steal(id)) {
        remote_steals.fetch_add(1, std::memory_order_relaxed);
        descend(*stolen, mine, leaf, id, leaves);
        backoff = std::chrono::milliseconds(1);
        continue;
      }
    }
    if (region == nullptr) {
      failed_sweeps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kMaxBackoff);
      continue;
    }

    const dnc::Region current = *region;
    delete region;
    descend(current, mine, leaf, id, leaves);
    backoff = std::chrono::milliseconds(1);
  }
}

}  // namespace rocket::steal
