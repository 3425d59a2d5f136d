#pragma once

// Fixed-slot software cache with WRITE/READ slot states (paper §4.1.1–4.1.2
// and Fig 4).
//
// The cache manages a fixed number of fixed-size slots. Each slot is either
// EMPTY, WRITE (one writer is filling it) or READ (n readers active). On a
// miss the least-recently-used unpinned slot is evicted and handed to the
// caller as the *writer*; concurrent requests for the same item queue on the
// WRITE slot and are granted read pins when the writer publishes. This
// synchronisation between jobs is exactly the paper's: "while one job is
// writing item i, other jobs that depend on item i are stalled until the
// slot becomes available."
//
// The class is a *policy* object: single-threaded, no blocking, callbacks
// for deferred grants. The live runtime wraps it in a mutex and the DES
// cluster drives it from coroutines; both backends therefore run identical
// replacement and synchronisation decisions (see DESIGN.md §5.1).

#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace rocket::cache {

using ItemId = std::uint32_t;
using SlotId = std::uint32_t;

inline constexpr SlotId kInvalidSlot = std::numeric_limits<SlotId>::max();
inline constexpr ItemId kNoItem = std::numeric_limits<ItemId>::max();

/// Statistics counters; all monotonically increasing.
struct CacheStats {
  std::uint64_t hits = 0;          // immediate read grants
  std::uint64_t write_waits = 0;   // queued behind an in-progress writer
  std::uint64_t fills = 0;         // caller became the writer (a "load")
  std::uint64_t evictions = 0;     // victim slot held a previous item
  std::uint64_t alloc_stalls = 0;  // no evictable slot; allocation queued
  std::uint64_t failures = 0;      // aborted fills propagated to waiters
};

/// Merge counters — used to aggregate per-shard stats (ShardedSlotCache)
/// and per-node stats (LiveCluster reports) into one table.
inline CacheStats& operator+=(CacheStats& a, const CacheStats& b) {
  a.hits += b.hits;
  a.write_waits += b.write_waits;
  a.fills += b.fills;
  a.evictions += b.evictions;
  a.alloc_stalls += b.alloc_stalls;
  a.failures += b.failures;
  return a;
}

class SlotCache {
 public:
  struct Config {
    std::uint32_t num_slots = 0;
    Bytes slot_size = 0;
    std::string name = "cache";
  };

  enum class Outcome {
    kHit,     // read pin granted; release(slot) when done
    kFill,    // caller is the writer; publish(slot) or abort(slot)
    kQueued,  // callback will fire later with kHit / kFill / kFailed
    kFailed,  // (callback-only) the writer aborted; retry or give up
  };

  struct Grant {
    Outcome outcome;
    SlotId slot = kInvalidSlot;
  };

  enum class Status : std::uint8_t { kEmpty, kWrite, kRead };

  /// Invoked after every mutation of a slot's (item, status, readers)
  /// triple, with the slot that changed, while the mutating call is still
  /// on the stack. ShardedSlotCache uses this to mirror slot state into
  /// its lock-free fast-path words; unset (the default) it costs one
  /// branch per mutation and the policy is byte-for-byte unchanged.
  using SlotObserver = std::function<void(SlotId)>;
  void set_slot_observer(SlotObserver observer) {
    observer_ = std::move(observer);
  }

  /// Invoked exactly once for queued requests, from within the publish /
  /// abort / release call that unblocked them. Never invoked re-entrantly
  /// from acquire().
  using Callback = std::function<void(Grant)>;

  explicit SlotCache(Config config);

  SlotCache(const SlotCache&) = delete;
  SlotCache& operator=(const SlotCache&) = delete;

  /// Request a read pin on `item`. Immediate outcomes are returned (kHit /
  /// kFill); otherwise kQueued is returned and `cb` fires later. `cb` may
  /// be empty only if the caller can prove no queueing can occur.
  Grant acquire(ItemId item, Callback cb);

  /// Per-entry callback of a batched acquire: fires once for every entry
  /// whose immediate outcome was kQueued, with that entry's index into the
  /// batch and the final grant (kHit / kFill / kFailed).
  using BatchCallback = std::function<void(std::size_t index, Grant)>;

  /// Request read pins on every item of `items` in one call — a tile job
  /// pins its whole working set with a single pass through the policy (the
  /// live runtime wraps the call in one mutex acquisition instead of one
  /// per item). Returns one Grant per item, index-aligned with `items`:
  /// kHit entries are pinned now, kFill entries made the caller the writer
  /// (drive the load pipeline, then publish/abort), kQueued entries resolve
  /// later through `cb`. Items already pinned earlier in the same batch are
  /// handled like any concurrent acquire (an extra pin, or a wait on the
  /// batch's own write slot), but callers normally pass distinct items.
  std::vector<Grant> acquire_batch(const std::vector<ItemId>& items,
                                   BatchCallback cb);

  /// Writer completed filling `slot`: transition WRITE→READ. The writer is
  /// granted the first read pin (do not call acquire again). All queued
  /// waiters receive read pins via their callbacks.
  void publish(SlotId slot);

  /// Writer failed: waiters receive kFailed, the slot returns to EMPTY.
  void abort(SlotId slot);

  /// Drop one read pin. When the last pin drops the slot becomes evictable
  /// and is stamped most-recently-used.
  void release(SlotId slot);

  /// Pin `item` only if it is present and readable right now; never
  /// allocates, queues or touches LRU order beyond the pin itself. Used by
  /// the distributed-cache probe path: a remote peer asking "do you have
  /// item i?" must not disturb the local cache on a miss. Probes are
  /// counted separately from regular hits/misses.
  std::optional<SlotId> try_pin(ItemId item);

  /// Add `n` read pins to a slot that already holds at least one. Used by
  /// ShardedSlotCache to fold lock-free fast-path pins back into the
  /// policy's reader count before a slow-path release; not a cache access,
  /// so it touches no stats and no LRU state.
  void pin_existing(SlotId slot, std::uint32_t n);

  std::uint64_t probe_hits() const { return probe_hits_; }
  std::uint64_t probe_misses() const { return probe_misses_; }

  /// Item lookup without side effects (no pin, no LRU touch).
  bool contains(ItemId item) const;

  /// Whether `item` is present and readable right now.
  bool readable(ItemId item) const;

  const CacheStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  std::uint32_t num_slots() const { return static_cast<std::uint32_t>(slots_.size()); }
  Bytes capacity() const { return static_cast<Bytes>(slots_.size()) * config_.slot_size; }

  /// Item currently held by `slot` (kNoItem if empty).
  ItemId item_of(SlotId slot) const { return slots_[slot].item; }
  std::uint32_t readers_of(SlotId slot) const { return slots_[slot].readers; }
  Status status_of(SlotId slot) const { return slots_[slot].status; }

  /// Number of slots currently holding readable items.
  std::uint32_t resident_items() const { return resident_; }

  /// Invariant audit for tests: verifies slot/map/LRU consistency.
  void check_invariants() const;

  /// One-line-per-slot debug description (diagnostics only).
  std::string debug_dump() const;

 private:
  struct Slot {
    ItemId item = kNoItem;
    Status status = Status::kEmpty;
    std::uint32_t readers = 0;
    std::vector<Callback> waiters;      // queued behind WRITE
    std::list<SlotId>::iterator lru_it; // valid iff in_lru
    bool in_lru = false;
  };

  struct PendingAlloc {
    ItemId item;
    Callback cb;
  };

  void unlink_lru(Slot& slot);
  void push_lru_back(SlotId id);
  void push_lru_front(SlotId id);

  /// Assign an evictable slot to `item` as a writer. Returns kInvalidSlot
  /// if nothing is evictable.
  SlotId allocate_for(ItemId item);

  /// A slot became evictable or empty: serve queued allocations.
  void drain_pending();

  Config config_;
  std::vector<Slot> slots_;
  std::unordered_map<ItemId, SlotId> index_;
  std::list<SlotId> lru_;  // front = coldest; contains exactly the evictable slots
  std::vector<PendingAlloc> pending_;
  CacheStats stats_;
  std::uint32_t resident_ = 0;
  std::uint64_t probe_hits_ = 0;
  std::uint64_t probe_misses_ = 0;
  SlotObserver observer_;
  void notify(SlotId slot) {
    if (observer_) observer_(slot);
  }
};

/// Helper: number of slots that fit in `capacity`, clamped to [0, max_items]
/// (more slots than items is pure waste; the paper's Fig 9 x-axis counts
/// slots the same way).
std::uint32_t slots_for_capacity(Bytes capacity, Bytes slot_size,
                                 std::uint32_t max_items);

}  // namespace rocket::cache
