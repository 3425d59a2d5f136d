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
  // The root-seeded case of run_partition: with no peers, the run is done
  // once every pair has been handed out.
  const dnc::Region root = dnc::root_region(n);
  std::atomic<std::int64_t> pairs_remaining{
      static_cast<std::int64_t>(dnc::count_pairs(root))};
  RemoteHooks hooks;
  hooks.done = [&pairs_remaining] {
    return pairs_remaining.load(std::memory_order_acquire) <= 0;
  };
  const ExecutorStats stats = run_partition(
      {root},
      [&](const dnc::Region& region, std::uint32_t worker) {
        leaf(region, worker);
        pairs_remaining.fetch_sub(
            static_cast<std::int64_t>(dnc::count_pairs(region)),
            std::memory_order_acq_rel);
      },
      hooks, nullptr);
  ROCKET_CHECK(pairs_remaining.load() == 0, "executor lost pairs");
  return stats;
}

namespace {

/// Deal `regions` in curve_rank order round-robin over `deques`, pushing
/// each deque in reverse so its owner's LIFO pops follow the curve.
void seed(std::vector<dnc::Region> regions,
          std::vector<ChaseLevDeque<dnc::Region>*>& deques) {
  std::erase_if(regions, [](const dnc::Region& r) { return dnc::is_empty(r); });
  std::stable_sort(regions.begin(), regions.end(),
                   [](const dnc::Region& a, const dnc::Region& b) {
                     return dnc::curve_rank(a) < dnc::curve_rank(b);
                   });
  for (std::size_t i = regions.size(); i > 0; --i) {
    deques[(i - 1) % deques.size()]->push(new dnc::Region(regions[i - 1]));
  }
}

}  // namespace

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
      worker_loop(w, leaf, deques, hooks, steals, remote_steals,
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

void StealExecutor::descend(dnc::Region current,
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
}

void StealExecutor::worker_loop(
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
      if (hooks.steal) {
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, kMaxBackoff);
      } else {
        std::this_thread::yield();
      }
      continue;
    }

    const dnc::Region current = *region;
    delete region;
    descend(current, mine, leaf, id, leaves);
    backoff = std::chrono::milliseconds(1);
  }
}

}  // namespace rocket::steal
