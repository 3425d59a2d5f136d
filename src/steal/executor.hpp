#pragma once

// Live multithreaded divide-and-conquer executor (the Constellation role).
//
// Spawns one worker thread per configured worker (the runtime launches one
// per GPU, as the paper does). There is one schedule, and dnc::split()
// decides it: a split returns its quadrants along a Hilbert curve, so a
// worker's depth-first descent (pop, split, descend the first child, push
// the siblings) walks its region along the curve lazily, in O(depth)
// memory, and consecutive leaves share rows or columns. The simulator's
// RegionScheduler descends the same way, and dnc::leaves() is the
// one-worker reference sequence. Idle workers steal the oldest region of
// a random victim's Chase–Lev deque, which is its shallowest and largest
// (§4.2). The leaf callback is invoked on the worker's thread — Rocket's
// runtime uses it to submit comparison jobs, and its back-pressure
// (concurrent job limit) naturally throttles the executor, exactly as
// §4.2 describes.
//
// Two entry points share one worker loop:
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
  };

  /// Cross-node hooks for run_partition. `steal` may block briefly (it is
  /// internally bounded by a reply timeout) and may be empty (no remote
  /// work); `done` is the cluster-wide termination flag — true only once
  /// every pair everywhere completed.
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

  /// Execute one node's share of a mesh run. `regions`, sorted by
  /// dnc::curve_rank, are dealt round-robin over the workers' deques, so
  /// each owner pops its share along the curve and each steal end holds
  /// the share's last region. Idle workers fall back to hooks.steal after
  /// a failed local sweep, and the loop exits only when hooks.done() — by
  /// which point every locally seeded or stolen-in region has either been
  /// executed here or been exported through `exporter`. `exporter` may be
  /// null (no work export).
  ExecutorStats run_partition(const std::vector<dnc::Region>& regions,
                              const LeafFn& leaf, const RemoteHooks& hooks,
                              StealExporter* exporter);

 private:
  /// The one worker loop. Exits once hooks.done(). An idle worker sweeps
  /// the local deques in random order; if that fails it yields when there
  /// is no hooks.steal, and otherwise asks a peer, backing off 1→16 ms
  /// after each empty remote steal.
  void worker_loop(std::uint32_t id, const LeafFn& leaf,
                   std::vector<ChaseLevDeque<dnc::Region>*>& deques,
                   const RemoteHooks& hooks,
                   std::atomic<std::uint64_t>& steals,
                   std::atomic<std::uint64_t>& remote_steals,
                   std::atomic<std::uint64_t>& failed_sweeps,
                   std::atomic<std::uint64_t>& leaves);

  /// Depth-first descent: split `region` down to a leaf, pushing siblings
  /// onto `mine` so the owner pops them in split() order, then invoke
  /// leaf.
  void descend(dnc::Region region, ChaseLevDeque<dnc::Region>& mine,
               const LeafFn& leaf, std::uint32_t id,
               std::atomic<std::uint64_t>& leaves);

  Config config_;
};

}  // namespace rocket::steal
