#pragma once

// Live multithreaded divide-and-conquer executor (the Constellation role).
//
// Spawns one worker thread per configured worker (the runtime launches one
// per GPU, as the paper does). The seed regions go onto the workers'
// deques (Config::leaf_order); workers descend depth-first over their own
// Chase–Lev deque and steal the largest region from random victims when
// idle. The leaf callback is invoked on the worker's thread — Rocket's
// runtime uses it to submit comparison jobs, and its back-pressure
// (concurrent job limit) naturally throttles the executor, exactly as
// §4.2 describes.
//
// Two entry points:
//   * run()           — single-node: seed the root region, terminate when
//                       every pair has been handed out.
//   * run_partition() — one node of a live mesh: seed this node's share of
//                       a static partition, pull more work from peers
//                       through RemoteHooks when idle, export work to
//                       peers through a StealExporter, and terminate only
//                       on the cluster-wide done signal (local exhaustion
//                       means nothing — stolen work may still arrive).

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "dnc/pair_space.hpp"
#include "steal/deque.hpp"

namespace rocket::steal {

struct ExecutorStats {
  std::uint64_t leaves = 0;
  std::uint64_t steals = 0;         // intra-node (deque-to-deque)
  std::uint64_t remote_steals = 0;  // regions obtained from a peer node
  std::uint64_t failed_steal_sweeps = 0;
};

/// Thread-safe work-export valve for cross-node stealing: the mesh layer
/// holds one and serves peer steal requests from it while run_partition is
/// live. Outside the install window every try_steal returns nullopt, so a
/// straggling peer request after the run drains is answered empty instead
/// of touching freed deques.
class StealExporter {
 public:
  /// Steal one region from any worker's deque (the steal end holds the
  /// worker's shallowest = largest region, the paper's victim policy).
  std::optional<dnc::Region> try_steal();

 private:
  friend class StealExecutor;
  void install(std::vector<ChaseLevDeque<dnc::Region>*>* deques);
  void uninstall();

  std::mutex mutex_;
  std::vector<ChaseLevDeque<dnc::Region>*>* deques_ = nullptr;  // guarded
};

class StealExecutor {
 public:
  struct Config {
    std::uint32_t num_workers = 1;
    std::uint64_t max_leaf_pairs = 1;
    std::uint64_t seed = 1;

    /// Leaf visitation order of the seeded work: the root in run(), the
    /// node's partition share in run_partition(). kDepthFirst is the
    /// native work-stealing descent (seed regions pushed round-robin,
    /// siblings re-derived on the fly — the historical schedule). Any
    /// other order materialises the seeds' leaves up front (dnc::leaves,
    /// one curve grid for all seeds) and gives each worker's deque one
    /// contiguous chunk, so every worker pops its chunk in exactly that
    /// order; idle workers still steal from the far end. Regions stolen
    /// in from other nodes descend natively.
    dnc::Traversal leaf_order = dnc::Traversal::kDepthFirst;
  };

  /// Cross-node hooks for run_partition. `steal` may block briefly (it is
  /// internally bounded by a reply timeout); `done` is the cluster-wide
  /// termination flag — true only once every pair everywhere completed.
  struct RemoteHooks {
    std::function<std::optional<dnc::Region>(std::uint32_t worker)> steal;
    std::function<bool()> done;
  };

  /// leaf(region, worker) is called once for every leaf; the union of all
  /// leaf regions is exactly the root pair set.
  using LeafFn = std::function<void(const dnc::Region&, std::uint32_t)>;

  /// Throws std::invalid_argument when max_leaf_pairs is 0: a one-pair
  /// region would split into itself forever.
  explicit StealExecutor(Config config);

  /// Execute the full n-item all-pairs decomposition. Blocks until every
  /// pair has been handed to `leaf`. Returns aggregate stats.
  ExecutorStats run(dnc::ItemIndex n, const LeafFn& leaf);

  /// Execute one node's share of a mesh run: `regions` seed the local
  /// deques (in Config::leaf_order), idle workers fall back to
  /// hooks.steal after a failed local sweep, and the loop exits only
  /// when hooks.done() — by which point every locally seeded or
  /// stolen-in region has either been executed here or been exported
  /// through `exporter`. `exporter` may be null (no work export).
  ExecutorStats run_partition(const std::vector<dnc::Region>& regions,
                              const LeafFn& leaf, const RemoteHooks& hooks,
                              StealExporter* exporter);

 private:
  void worker_loop(std::uint32_t id, const LeafFn& leaf,
                   std::vector<ChaseLevDeque<dnc::Region>*>& deques,
                   std::atomic<std::int64_t>& pairs_remaining,
                   std::atomic<std::uint64_t>& steals,
                   std::atomic<std::uint64_t>& failed_sweeps,
                   std::atomic<std::uint64_t>& leaves);

  void partition_worker_loop(std::uint32_t id, const LeafFn& leaf,
                             std::vector<ChaseLevDeque<dnc::Region>*>& deques,
                             const RemoteHooks& hooks,
                             std::atomic<std::uint64_t>& steals,
                             std::atomic<std::uint64_t>& remote_steals,
                             std::atomic<std::uint64_t>& failed_sweeps,
                             std::atomic<std::uint64_t>& leaves);

  /// Seed the workers' deques with `regions` in Config::leaf_order. Both
  /// entry points start here.
  void seed(const std::vector<dnc::Region>& regions,
            std::vector<ChaseLevDeque<dnc::Region>*>& deques) const;

  /// Depth-first descent: split `region` down to a leaf, pushing siblings
  /// onto `mine`, then invoke leaf. Returns the leaf's pair count.
  std::uint64_t descend(dnc::Region region, ChaseLevDeque<dnc::Region>& mine,
                        const LeafFn& leaf, std::uint32_t id,
                        std::atomic<std::uint64_t>& leaves);

  Config config_;
};

}  // namespace rocket::steal
