#pragma once

// Test store that records how many reads overlap. Shared by the runtime
// and mesh tests that check store reads run concurrently.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "storage/object_store.hpp"

namespace rocket::testkit {

/// Decorator that records the peak number of reads in flight. Only its
/// first read waits, on a condition variable for at most 2 s, until a
/// second read is in flight: a caller that overlaps reads reaches a peak
/// of 2 at once, and one that serialises them reads a peak of 1 after
/// 2 s instead of hanging.
class ReadOverlapStore final : public storage::ObjectStore {
 public:
  explicit ReadOverlapStore(storage::ObjectStore& inner) : inner_(inner) {}

  ByteBuffer read(const std::string& name) override {
    {
      std::unique_lock lock(mutex_);
      peak_ = std::max(peak_, ++in_flight_);
      cv_.notify_all();
      if (!first_read_started_) {
        first_read_started_ = true;
        // peak_, not in_flight_: the second read may finish before this
        // one wakes, and it overlapped all the same.
        cv_.wait_for(lock, std::chrono::seconds(2),
                     [this] { return peak_ >= 2; });
      }
    }
    struct Leave {
      ReadOverlapStore* store;
      ~Leave() {
        std::scoped_lock lock(store->mutex_);
        --store->in_flight_;
      }
    } leave{this};
    return inner_.read(name);
  }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  Bytes size_of(const std::string& name) const override {
    return inner_.size_of(name);
  }
  std::vector<std::string> list() const override { return inner_.list(); }

  int peak() const {
    std::scoped_lock lock(mutex_);
    return peak_;
  }

 private:
  storage::ObjectStore& inner_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int in_flight_ = 0;  // guarded by mutex_
  int peak_ = 0;       // guarded by mutex_
  bool first_read_started_ = false;  // guarded by mutex_
};

}  // namespace rocket::testkit
