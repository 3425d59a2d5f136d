#pragma once

// Thread-safe queues for the live runtime. Mutex + condition-variable based
// (per C++ Core Guidelines CP.42: never wait without a condition). The hot
// producer/consumer paths in Rocket move pointers or small closures, so a
// lock-based MPMC queue is entirely adequate; lock-free structures are
// reserved for the work-stealing deque where contention patterns demand it.
// Bulk pop amortises the lock cost for consumers that drain short tasks in
// batches (see DESIGN.md §6).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace rocket {

/// Unbounded multi-producer/multi-consumer FIFO. `close()` wakes all
/// blocked consumers; after close, pop() drains remaining items and then
/// returns nullopt.
template <typename T>
class MpmcQueue {
 public:
  void push(T value) {
    {
      std::scoped_lock lock(mutex_);
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }

  /// Blocking pop; returns nullopt only once the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Blocking bulk pop: waits for at least one item, then drains up to
  /// `max_items` under the same lock. Returns an empty vector only once the
  /// queue is closed and empty. Consumers that process items in batches cut
  /// their lock traffic by the batch factor.
  std::vector<T> pop_bulk(std::size_t max_items) {
    std::vector<T> out;
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    const std::size_t n = std::min(max_items, items_.size());
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return out;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::scoped_lock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  void close() {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::scoped_lock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return items_.size();
  }

  bool empty() const {
    std::scoped_lock lock(mutex_);
    return items_.empty();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Counting semaphore with blocking acquire. Used for Rocket's
/// concurrent-job-limit back-pressure (paper §4.2). std::counting_semaphore
/// lacks a portable "wait for k" and introspection, hence this small class.
///
/// Benaphore-style: the count lives in an atomic so the uncontended
/// acquire/release (the common case once the pipeline is in steady state)
/// never touches the mutex. A negative count encodes the number of blocked
/// acquirers; each release past zero hands exactly one wakeup token to the
/// mutex/cv slow path, so tokens are never lost.
class Semaphore {
 public:
  explicit Semaphore(std::size_t initial)
      : count_(static_cast<std::int64_t>(initial)) {}

  void acquire() {
    if (count_.fetch_sub(1, std::memory_order_acq_rel) > 0) return;
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return wakeups_ > 0; });
    --wakeups_;
  }

  bool try_acquire() {
    auto count = count_.load(std::memory_order_relaxed);
    while (count > 0) {
      if (count_.compare_exchange_weak(count, count - 1,
                                       std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

  void release() {
    if (count_.fetch_add(1, std::memory_order_acq_rel) >= 0) return;
    {
      std::scoped_lock lock(mutex_);
      ++wakeups_;
    }
    cv_.notify_one();
  }

  std::size_t available() const {
    const auto count = count_.load(std::memory_order_acquire);
    return count > 0 ? static_cast<std::size_t>(count) : 0;
  }

 private:
  std::atomic<std::int64_t> count_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t wakeups_ = 0;
};

/// One-shot completion latch: count_down() until zero releases waiters.
/// (std::latch exists in C++20 but lacks try_wait-with-timeout on all
/// toolchains we target; this also tracks the count for assertions.)
///
/// The count is atomic so the per-task count_down — executed once per
/// tile — is a single fetch_sub; the mutex is only taken by the final
/// decrement to publish the wakeup, and by waiters.
///
/// Also usable as an in-flight gauge: construct with 0, count_up() on
/// submission, count_down() on completion, and wait() only once all
/// submissions are in (the count then decreases monotonically to zero).
/// The mesh runtime needs this form — a node executing a partition plus
/// stolen-in work cannot know its total up front.
class CountdownLatch {
 public:
  explicit CountdownLatch(std::size_t count)
      : count_(static_cast<std::int64_t>(count)) {}

  /// Raise the expected count (gauge use; see class comment).
  void count_up(std::size_t n = 1) {
    if (n == 0) return;
    count_.fetch_add(static_cast<std::int64_t>(n), std::memory_order_acq_rel);
  }

  /// Decrement by `n` (a tile counts down its whole pair block at once).
  void count_down(std::size_t n = 1) {
    if (n == 0) return;
    const auto delta = static_cast<std::int64_t>(n);
    if (count_.fetch_sub(delta, std::memory_order_acq_rel) - delta <= 0) {
      // Synchronise with wait()'s predicate re-check before notifying.
      std::scoped_lock lock(mutex_);
      cv_.notify_all();
    }
  }

  void wait() {
    if (count_.load(std::memory_order_acquire) <= 0) return;
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return count_.load(std::memory_order_acquire) <= 0; });
  }

  std::size_t remaining() const {
    const auto count = count_.load(std::memory_order_acquire);
    return count > 0 ? static_cast<std::size_t>(count) : 0;
  }

 private:
  std::atomic<std::int64_t> count_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace rocket
