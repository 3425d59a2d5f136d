#include "cache/slot_cache.hpp"

#include <algorithm>
#include <memory>

#include "common/log.hpp"

namespace rocket::cache {

SlotCache::SlotCache(Config config) : config_(std::move(config)) {
  slots_.resize(config_.num_slots);
  for (SlotId id = 0; id < config_.num_slots; ++id) {
    push_lru_back(id);
  }
}

void SlotCache::unlink_lru(Slot& slot) {
  if (slot.in_lru) {
    lru_.erase(slot.lru_it);
    slot.in_lru = false;
  }
}

void SlotCache::push_lru_back(SlotId id) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(!slot.in_lru, "slot already in LRU list");
  slot.lru_it = lru_.insert(lru_.end(), id);
  slot.in_lru = true;
}

void SlotCache::push_lru_front(SlotId id) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(!slot.in_lru, "slot already in LRU list");
  slot.lru_it = lru_.insert(lru_.begin(), id);
  slot.in_lru = true;
}

SlotId SlotCache::allocate_for(ItemId item) {
  // Prefer an EMPTY slot over evicting live data: walk from the cold end
  // and take the first empty one within a short prefix, else take the
  // coldest. (EMPTY slots are pushed to the front on abort, so in practice
  // the front element is the right victim; the scan is a safety net.)
  if (lru_.empty()) return kInvalidSlot;
  const SlotId victim = lru_.front();
  Slot& slot = slots_[victim];
  unlink_lru(slot);
  if (slot.status == Status::kRead) {
    ROCKET_CHECK(slot.readers == 0, "evicting a pinned slot");
    index_.erase(slot.item);
    ++stats_.evictions;
    --resident_;
  }
  slot.item = item;
  slot.status = Status::kWrite;
  slot.readers = 0;
  index_[item] = victim;
  ++stats_.fills;
  notify(victim);
  return victim;
}

SlotCache::Grant SlotCache::acquire(ItemId item, Callback cb) {
  const auto it = index_.find(item);
  if (it != index_.end()) {
    Slot& slot = slots_[it->second];
    if (slot.status == Status::kRead) {
      if (slot.readers == 0) unlink_lru(slot);
      ++slot.readers;
      ++stats_.hits;
      notify(it->second);
      return Grant{Outcome::kHit, it->second};
    }
    // WRITE in progress: queue behind the writer.
    ROCKET_CHECK(slot.status == Status::kWrite, "acquire: bad slot status");
    ++stats_.write_waits;
    slot.waiters.push_back(std::move(cb));
    return Grant{Outcome::kQueued, kInvalidSlot};
  }

  const SlotId slot = allocate_for(item);
  if (slot != kInvalidSlot) {
    return Grant{Outcome::kFill, slot};
  }
  ++stats_.alloc_stalls;
  pending_.push_back(PendingAlloc{item, std::move(cb)});
  return Grant{Outcome::kQueued, kInvalidSlot};
}

std::vector<SlotCache::Grant> SlotCache::acquire_batch(
    const std::vector<ItemId>& items, BatchCallback cb) {
  std::vector<Grant> grants;
  grants.reserve(items.size());
  // Shared so only queued entries pay for a callback copy; hits and fills
  // resolve inline and never touch it.
  auto shared_cb =
      cb ? std::make_shared<BatchCallback>(std::move(cb)) : nullptr;
  for (std::size_t k = 0; k < items.size(); ++k) {
    Callback entry_cb;
    if (shared_cb) {
      entry_cb = [shared_cb, k](Grant g) { (*shared_cb)(k, g); };
    }
    grants.push_back(acquire(items[k], std::move(entry_cb)));
  }
  return grants;
}

void SlotCache::publish(SlotId id) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(slot.status == Status::kWrite, "publish: slot not in WRITE");
  slot.status = Status::kRead;
  ++resident_;
  // Writer keeps the first pin; every waiter gets one more.
  slot.readers = 1 + static_cast<std::uint32_t>(slot.waiters.size());
  notify(id);
  std::vector<Callback> waiters = std::move(slot.waiters);
  slot.waiters.clear();
  stats_.hits += waiters.size();
  for (auto& cb : waiters) {
    if (cb) cb(Grant{Outcome::kHit, id});
  }
}

void SlotCache::abort(SlotId id) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(slot.status == Status::kWrite, "abort: slot not in WRITE");
  index_.erase(slot.item);
  slot.item = kNoItem;
  slot.status = Status::kEmpty;
  slot.readers = 0;
  notify(id);
  std::vector<Callback> waiters = std::move(slot.waiters);
  slot.waiters.clear();
  stats_.failures += waiters.size() + 1;
  push_lru_front(id);
  for (auto& cb : waiters) {
    if (cb) cb(Grant{Outcome::kFailed, kInvalidSlot});
  }
  drain_pending();
}

void SlotCache::release(SlotId id) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(slot.status == Status::kRead, "release: slot not in READ");
  ROCKET_CHECK(slot.readers > 0, "release: no pins held");
  if (--slot.readers == 0) {
    notify(id);
    push_lru_back(id);  // most-recently-used end
    drain_pending();
  } else {
    notify(id);
  }
}

void SlotCache::pin_existing(SlotId id, std::uint32_t n) {
  Slot& slot = slots_[id];
  ROCKET_CHECK(slot.status == Status::kRead && slot.readers > 0,
               "pin_existing: slot not pinned-readable");
  slot.readers += n;
  notify(id);
}

void SlotCache::drain_pending() {
  // One pass over the queue. A request whose item has meanwhile been filled
  // (or is being filled) piggy-backs on that slot — no free slot needed;
  // requests that still need an allocation are served FIFO while evictable
  // slots exist. Callbacks may re-enter acquire() and extend pending_, so
  // we detach the queue first and splice unserved requests back in front.
  std::vector<PendingAlloc> queue = std::move(pending_);
  pending_.clear();
  std::vector<PendingAlloc> unserved;
  for (auto& req : queue) {
    const auto it = index_.find(req.item);
    if (it != index_.end()) {
      Slot& slot = slots_[it->second];
      if (slot.status == Status::kRead) {
        if (slot.readers == 0) unlink_lru(slot);
        ++slot.readers;
        ++stats_.hits;
        notify(it->second);
        if (req.cb) req.cb(Grant{Outcome::kHit, it->second});
      } else {
        ++stats_.write_waits;
        slot.waiters.push_back(std::move(req.cb));
      }
      continue;
    }
    if (!lru_.empty()) {
      const SlotId slot = allocate_for(req.item);
      if (req.cb) req.cb(Grant{Outcome::kFill, slot});
    } else {
      unserved.push_back(std::move(req));
    }
  }
  pending_.insert(pending_.begin(), std::make_move_iterator(unserved.begin()),
                  std::make_move_iterator(unserved.end()));
}

std::optional<SlotId> SlotCache::try_pin(ItemId item) {
  const auto it = index_.find(item);
  if (it == index_.end() || slots_[it->second].status != Status::kRead) {
    ++probe_misses_;
    return std::nullopt;
  }
  Slot& slot = slots_[it->second];
  if (slot.readers == 0) unlink_lru(slot);
  ++slot.readers;
  ++probe_hits_;
  notify(it->second);
  return it->second;
}

bool SlotCache::contains(ItemId item) const { return index_.count(item) != 0; }

bool SlotCache::readable(ItemId item) const {
  const auto it = index_.find(item);
  return it != index_.end() && slots_[it->second].status == Status::kRead;
}

void SlotCache::check_invariants() const {
  std::size_t in_lru = 0;
  std::uint32_t resident = 0;
  for (SlotId id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    if (slot.in_lru) ++in_lru;
    switch (slot.status) {
      case Status::kEmpty:
        ROCKET_CHECK(slot.readers == 0 && slot.waiters.empty(),
                     "empty slot with readers/waiters");
        ROCKET_CHECK(slot.in_lru, "empty slot not evictable");
        ROCKET_CHECK(slot.item == kNoItem, "empty slot holds an item");
        break;
      case Status::kWrite:
        ROCKET_CHECK(!slot.in_lru, "writing slot in LRU list");
        ROCKET_CHECK(index_.at(slot.item) == id, "index mismatch (write)");
        break;
      case Status::kRead:
        ++resident;
        ROCKET_CHECK(index_.at(slot.item) == id, "index mismatch (read)");
        ROCKET_CHECK(slot.in_lru == (slot.readers == 0),
                     "LRU membership must equal unpinned");
        ROCKET_CHECK(slot.waiters.empty(), "readable slot has waiters");
        break;
    }
  }
  ROCKET_CHECK(in_lru == lru_.size(), "LRU size mismatch");
  ROCKET_CHECK(resident == resident_, "resident counter mismatch");
  // At quiescence, pending allocations exist only when nothing is
  // evictable, and only for items not already resident (those would have
  // piggy-backed in drain_pending).
  if (!pending_.empty()) {
    ROCKET_CHECK(lru_.empty(), "pending allocations with evictable slots");
    for (const auto& req : pending_) {
      ROCKET_CHECK(index_.count(req.item) == 0,
                   "pending allocation for a resident item");
    }
  }
}

std::string SlotCache::debug_dump() const {
  std::string out;
  char line[160];
  for (SlotId id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    const char* status = slot.status == Status::kEmpty   ? "EMPTY"
                         : slot.status == Status::kWrite ? "WRITE"
                                                         : "READ";
    std::snprintf(line, sizeof(line),
                  "  slot %u: item=%d status=%s readers=%u waiters=%zu lru=%d\n",
                  id, slot.item == kNoItem ? -1 : static_cast<int>(slot.item),
                  status, slot.readers, slot.waiters.size(),
                  slot.in_lru ? 1 : 0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "  pending_allocs=%zu\n", pending_.size());
  out += line;
  return out;
}

std::uint32_t slots_for_capacity(Bytes capacity, Bytes slot_size,
                                 std::uint32_t max_items) {
  if (slot_size == 0) return max_items;
  const auto raw = static_cast<std::uint64_t>(capacity / slot_size);
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(raw, max_items));
}

}  // namespace rocket::cache
