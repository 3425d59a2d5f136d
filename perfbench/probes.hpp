#pragma once

// Outside-in layer probes: decorators around the library's public
// interfaces (runtime::Application, storage::ObjectStore) that time every
// call from the caller's side. Nothing inside src/ is instrumented for the
// benchmark; the probes see exactly what the engine asks of each layer.
// They are armed only in traced repetitions.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/application.hpp"
#include "storage/object_store.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Latency samples recorded from any thread. Threads hash onto stripes, so
/// the engine's few recording threads rarely share a lock.
class Samples {
 public:
  void record(std::uint64_t ns) {
    Stripe& s = stripes_[std::hash<std::thread::id>{}(
                             std::this_thread::get_id()) %
                         stripes_.size()];
    std::scoped_lock lock(s.mutex);
    s.ns.push_back(ns);
  }

  /// Every sample recorded so far, in no particular order.
  std::vector<std::uint64_t> all() const {
    std::vector<std::uint64_t> out;
    for (const Stripe& s : stripes_) {
      std::scoped_lock lock(s.mutex);
      out.insert(out.end(), s.ns.begin(), s.ns.end());
    }
    return out;
  }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::vector<std::uint64_t> ns;
  };
  std::array<Stripe, 8> stripes_;
};

/// q-quantile of `ns` in microseconds (nearest rank); 0 when empty.
inline double quantile_us(std::vector<std::uint64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(k),
                   ns.end());
  return static_cast<double>(ns[k]) * 1e-3;
}

inline double mean_seconds(const std::vector<std::uint64_t>& ns) {
  if (ns.empty()) return 0.0;
  double sum = 0.0;
  for (const auto v : ns) sum += static_cast<double>(v);
  return sum * 1e-9 / static_cast<double>(ns.size());
}

/// Application decorator: forwards the four user functions and times each
/// call (the `apps` layer).
class TimedApplication final : public rocket::runtime::Application {
 public:
  explicit TimedApplication(const rocket::runtime::Application& inner)
      : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::uint32_t item_count() const override { return inner_.item_count(); }
  std::string file_name(rocket::runtime::ItemId item) const override {
    return inner_.file_name(item);
  }
  rocket::Bytes slot_size() const override { return inner_.slot_size(); }

  void parse(rocket::runtime::ItemId item, const rocket::ByteBuffer& file,
             rocket::runtime::HostBuffer& out) const override {
    const auto t0 = Clock::now();
    inner_.parse(item, file, out);
    parse_.record(ns_since(t0));
  }
  void preprocess(rocket::runtime::ItemId item,
                  rocket::gpu::DeviceBuffer& data) const override {
    const auto t0 = Clock::now();
    inner_.preprocess(item, data);
    preprocess_.record(ns_since(t0));
  }
  double compare(rocket::runtime::ItemId left,
                 const rocket::gpu::DeviceBuffer& left_data,
                 rocket::runtime::ItemId right,
                 const rocket::gpu::DeviceBuffer& right_data) const override {
    const auto t0 = Clock::now();
    const double score = inner_.compare(left, left_data, right, right_data);
    compare_.record(ns_since(t0));
    return score;
  }
  double postprocess(rocket::runtime::ItemId left,
                     rocket::runtime::ItemId right,
                     double score) const override {
    const auto t0 = Clock::now();
    const double out = inner_.postprocess(left, right, score);
    postprocess_.record(ns_since(t0));
    return out;
  }

  const Samples& parse_samples() const { return parse_; }
  const Samples& preprocess_samples() const { return preprocess_; }
  const Samples& compare_samples() const { return compare_; }
  const Samples& postprocess_samples() const { return postprocess_; }

 private:
  const rocket::runtime::Application& inner_;
  mutable Samples parse_, preprocess_, compare_, postprocess_;
};

/// Input-store decorator: counts and times every read (the `storage`
/// layer's load path). Thread-safe iff the wrapped store is.
class ProbedStore final : public rocket::storage::ObjectStore {
 public:
  explicit ProbedStore(rocket::storage::ObjectStore& inner) : inner_(inner) {}

  rocket::ByteBuffer read(const std::string& name) override {
    const auto t0 = Clock::now();
    rocket::ByteBuffer bytes = inner_.read(name);
    reads_.record(ns_since(t0));
    bytes_read_.fetch_add(bytes.size(), std::memory_order_relaxed);
    return bytes;
  }
  bool exists(const std::string& name) const override {
    return inner_.exists(name);
  }
  rocket::Bytes size_of(const std::string& name) const override {
    return inner_.size_of(name);
  }
  std::vector<std::string> list() const override { return inner_.list(); }

  const Samples& read_samples() const { return reads_; }
  std::uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }

 private:
  rocket::storage::ObjectStore& inner_;
  Samples reads_;
  std::atomic<std::uint64_t> bytes_read_{0};
};

/// Target of the write-ahead journal: a bounded ring that each append
/// copies into and then forgets, so the run pays a per-append copy while
/// peak RSS measures the engine, not a growing log.
/// With `probe` set it also counts and times appends (the `storage`
/// layer's journal path). Reads report the journal as absent.
class JournalSink final : public rocket::storage::ObjectStore {
 public:
  static constexpr std::size_t kRingBytes = std::size_t{1} << 22;

  explicit JournalSink(Samples* probe = nullptr)
      : probe_(probe), ring_(kRingBytes) {}

  rocket::ByteBuffer read(const std::string& name) override {
    throw std::runtime_error("journal sink keeps no objects: " + name);
  }
  bool exists(const std::string&) const override { return false; }
  rocket::Bytes size_of(const std::string&) const override { return 0; }
  std::vector<std::string> list() const override { return {}; }

  bool supports_write() const override { return true; }
  /// Whole-object writes (the journal's truncate, flight-recorder dumps)
  /// are not appends; they are dropped uncounted.
  void put(const std::string&, const rocket::ByteBuffer&) override {}
  void append(const std::string&, const rocket::ByteBuffer& data) override {
    const auto t0 = Clock::now();
    {
      std::scoped_lock lock(mutex_);
      for (std::size_t done = 0; done < data.size();) {
        const std::size_t chunk =
            std::min(data.size() - done, ring_.size() - cursor_);
        std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(done), chunk,
                    ring_.begin() + static_cast<std::ptrdiff_t>(cursor_));
        done += chunk;
        cursor_ = (cursor_ + chunk) % ring_.size();
      }
    }
    if (probe_ != nullptr) {
      probe_->record(ns_since(t0));
      bytes_.fetch_add(data.size(), std::memory_order_relaxed);
    }
  }

  std::uint64_t bytes_appended() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  Samples* probe_;
  std::atomic<std::uint64_t> bytes_{0};
  std::mutex mutex_;
  rocket::ByteBuffer ring_;  // guarded by mutex_
  std::size_t cursor_ = 0;   // guarded by mutex_
};

}  // namespace perfbench
