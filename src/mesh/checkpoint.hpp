#pragma once

// Crash-safe run journal (DESIGN.md §14).
//
// A LiveCluster run with a checkpoint store attached writes a write-ahead
// journal through storage::ObjectStore::append: one Manifest record up
// front (config fingerprint, so a resume against a different run is
// rejected), then one ResultBatch record per batch the master flushes.
// Every record is length-prefixed and CRC32-guarded:
//
//   [u32 length][u32 crc32(payload)][payload = u8 type + body]
//
// all little-endian. A crash mid-append leaves a torn tail — short frame,
// bad length, or CRC mismatch — which replay() detects; everything before
// the tear is trusted, the tail is discarded, and truncate_to_valid()
// rewrites the object to the valid prefix so the resumed run appends from
// a clean boundary. The journal never needs an fsync barrier beyond what
// the store provides: a record is either fully present and CRC-clean or
// it is the tear, and the master only acts on results AFTER their append
// returns (journal >= user-delivered, so replay can only over-cover, and
// the ledger's first-wins dedup absorbs over-coverage).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "runtime/application.hpp"
#include "storage/object_store.hpp"

namespace rocket::mesh::checkpoint {

/// Identifies the run a journal belongs to. A resume whose fingerprint
/// differs (different item count, node count, granularity or seed) must
/// start fresh — the pair space would not line up.
struct Manifest {
  std::uint64_t fingerprint = 0;
  std::uint32_t items = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t granularity = 0;
  std::uint64_t seed = 0;
  std::uint64_t expected_pairs = 0;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Everything replay() could recover from an existing journal object.
struct Replay {
  bool found = false;         // the object exists in the store
  bool has_manifest = false;  // a valid Manifest record was read
  Manifest manifest;
  std::vector<runtime::PairResult> results;  // journalled result batches
  std::uint64_t records = 0;  // valid records walked
  Bytes valid_bytes = 0;      // byte offset of the first invalid/torn byte
  bool torn = false;          // trailing bytes past valid_bytes exist
};

/// Object name of a LiveCluster run's journal in its checkpoint store.
inline constexpr const char* kJournalName = "rocket.journal";

class Journal {
 public:
  static constexpr std::uint8_t kManifest = 1;
  static constexpr std::uint8_t kResultBatch = 2;

  Journal(storage::ObjectStore& store, std::string name);

  /// Config fingerprint folding every field that shapes the pair space.
  static std::uint64_t fingerprint(std::uint32_t items,
                                   std::uint32_t num_nodes,
                                   std::uint32_t granularity,
                                   std::uint64_t seed);

  /// Walk the named journal object, validating record framing and CRCs.
  /// Returns found=false when the object does not exist. Stops at the
  /// first invalid byte (torn tail) and reports the valid prefix length.
  static Replay replay(storage::ObjectStore& store, const std::string& name);

  /// Rewrite the journal object to the valid prefix replay() reported —
  /// the resumed run then appends from a record boundary.
  static void truncate_to_valid(storage::ObjectStore& store,
                                const std::string& name, const Replay& replay);

  /// Reset the journal object to exactly one Manifest record.
  void start_fresh(const Manifest& manifest);

  void append_results(const std::vector<runtime::PairResult>& results);

  std::uint64_t records_appended() const;

 private:
  void append_record(std::uint8_t type, const ByteBuffer& body);

  storage::ObjectStore* store_;
  std::string name_;
  mutable std::mutex mutex_;
  std::uint64_t records_appended_ = 0;
};

}  // namespace rocket::mesh::checkpoint
