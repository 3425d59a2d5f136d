#pragma once

// Input-file storage abstractions.
//
// The paper serves input files from a central MinIO server over InfiniBand
// (§6.2), accessed via the Xenon library. Rocket abstracts this as an
// ObjectStore:
//   * MemoryStore    — in-memory blobs (unit tests, generated datasets)
//   * DirectoryStore — real files on the local filesystem (live runtime)
//   * SimulatedStore — virtual-time model of a shared storage server whose
//                      aggregate bandwidth is processor-shared among the
//                      cluster's concurrent reads (sim_store.hpp)
// Like that server, a live store serves concurrent reads: every node's
// I/O lanes read it at once, and nothing serialises them.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/compress.hpp"
#include "common/units.hpp"

namespace rocket::storage {

/// Read counters of a store, as one snapshot.
struct StoreStats {
  std::uint64_t reads = 0;
  Bytes bytes_read = 0;
};

/// Blocking object store used by the live runtime's I/O lanes.
///
/// Concurrency contract: `read`, `exists`, `size_of`, `list` and `stats`
/// may be called from any number of threads at once, and while another
/// thread writes a different object. One node runs one I/O lane per tile
/// it may hold in flight, and a mesh hands the same store to every node,
/// so reads overlap by design. Writes (`put`, `append`) to one object need
/// one writer at a time; the run journal has one. Every in-tree store
/// keeps this contract; each decorator keeps it iff the store it wraps
/// does.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  /// Read the named object. Throws std::runtime_error if missing.
  virtual ByteBuffer read(const std::string& name) = 0;

  virtual bool exists(const std::string& name) const = 0;
  virtual Bytes size_of(const std::string& name) const = 0;
  virtual std::vector<std::string> list() const = 0;

  // --- write path (DESIGN.md §14: the checkpoint journal's append log) ---
  // Read-only deployments (a store that fronts someone else's bucket) may
  // leave these unimplemented; the defaults throw. `append` creates the
  // object when missing, so a journal needs no separate create step.

  virtual bool supports_write() const { return false; }
  virtual void put(const std::string& name, const ByteBuffer& data);
  virtual void append(const std::string& name, const ByteBuffer& data);

  /// Snapshot of the read counters (relaxed: they order nothing).
  StoreStats stats() const {
    return {reads_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed)};
  }

 protected:
  /// Count one served read of `bytes`.
  void count_read(Bytes bytes) {
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<Bytes> bytes_read_{0};
};

/// In-memory store; also the backing catalogue for generated datasets.
/// Reads share the map's lock; `put` and `append` take it exclusively.
class MemoryStore final : public ObjectStore {
 public:
  ByteBuffer read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Bytes size_of(const std::string& name) const override;
  std::vector<std::string> list() const override;

  bool supports_write() const override { return true; }
  void put(const std::string& name, const ByteBuffer& data) override;
  void append(const std::string& name, const ByteBuffer& data) override;

  Bytes total_bytes() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, ByteBuffer> objects_;  // guarded by mutex_
};

/// Latency-injecting decorator: every read sleeps for a fixed wall-clock
/// delay before delegating. The live counterpart of SimulatedStore for
/// load-bound experiments — with it, a runtime configuration is I/O-bound
/// while every I/O lane is busy, which is what the prefetch-pipeline
/// head-to-head in bench_micro needs. Concurrent reads sleep side by side,
/// like requests in flight at one server. Thread-safe iff the wrapped
/// store is.
class ThrottledStore final : public ObjectStore {
 public:
  ThrottledStore(ObjectStore& inner, std::uint64_t read_latency_us)
      : inner_(&inner), read_latency_us_(read_latency_us) {}

  ByteBuffer read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Bytes size_of(const std::string& name) const override;
  std::vector<std::string> list() const override;

  bool supports_write() const override { return inner_->supports_write(); }
  void put(const std::string& name, const ByteBuffer& data) override;
  void append(const std::string& name, const ByteBuffer& data) override;

 private:
  ObjectStore* inner_;
  std::uint64_t read_latency_us_;
};

/// Transient object-store failure: the retryable error class absorbed by
/// the load pipeline's backoff budget (DESIGN.md §15). Permanent errors
/// (missing object, short read) stay plain runtime_errors and fail the
/// item immediately.
class TransientStoreError : public std::runtime_error {
 public:
  explicit TransientStoreError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Grey-failure chaos decorator: injects seeded transient read errors and
/// latency spikes — the storage half of the grey-failure model, a store
/// that times out intermittently but eventually serves every object.
/// Consecutive injected failures per object are capped, so a bounded
/// retry budget always wins; exists/size_of/list are never perturbed
/// (membership queries are assumed cached/cheap). Thread-safe. The draws
/// follow call order, which depends on how reads land on I/O lanes even
/// on one node, so which reads fail varies run to run; the per-object
/// consecutive cap still bounds every failure streak.
class FlakyStore final : public ObjectStore {
 public:
  struct Config {
    double error_rate = 0.0;    // P(read throws TransientStoreError)
    double spike_rate = 0.0;    // P(read sleeps spike_us first)
    std::uint64_t spike_us = 0;
    std::uint64_t seed = 1;
    /// Cap on consecutive injected failures per object; the next read of
    /// that object is then forced through, keeping every load winnable
    /// within a small retry budget.
    std::uint32_t max_consecutive_failures = 2;
  };

  FlakyStore(ObjectStore& inner, Config config);

  ByteBuffer read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Bytes size_of(const std::string& name) const override;
  std::vector<std::string> list() const override;

  bool supports_write() const override { return inner_->supports_write(); }
  void put(const std::string& name, const ByteBuffer& data) override;
  void append(const std::string& name, const ByteBuffer& data) override;

  std::uint64_t injected_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected_spikes() const {
    return spikes_.load(std::memory_order_relaxed);
  }

 private:
  /// Deterministic Bernoulli draw: hashes a per-store sequence number, so
  /// the n-th draw depends only on (seed, n), not wall time.
  bool roll(double rate);

  ObjectStore* inner_;
  Config cfg_;
  std::atomic<std::uint64_t> draws_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> spikes_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::uint32_t> consecutive_;  // guarded by mutex_
};

/// Real files rooted at a directory. Each read opens its own stream, so
/// reads need no lock.
class DirectoryStore final : public ObjectStore {
 public:
  explicit DirectoryStore(std::string root);

  ByteBuffer read(const std::string& name) override;
  bool exists(const std::string& name) const override;
  Bytes size_of(const std::string& name) const override;
  std::vector<std::string> list() const override;

  bool supports_write() const override { return true; }
  /// Write an object (used by dataset generators and journal recovery).
  void put(const std::string& name, const ByteBuffer& data) override;
  void append(const std::string& name, const ByteBuffer& data) override;

  const std::string& root() const { return root_; }

 private:
  std::string path_of(const std::string& name) const;
  std::string root_;
};

}  // namespace rocket::storage
