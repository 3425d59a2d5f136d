#pragma once

// Master-side exactly-once result accounting and re-execution ledger.
//
// The master of a LiveCluster owns one ResultLedger, mutated only on its
// mesh service thread (result handling, steal-transfer notices and death
// verdicts are all inbox messages, so ledger access is serialised for
// free). It tracks two things per pair of the root region:
//
//   * owner     — which node currently holds the lease to execute the
//                 pair. Set by the initial partition, moved by StealExport
//                 transfer notices, and re-granted to a survivor when the
//                 owner dies.
//   * delivered — whether a result for the pair has been accepted.
//
// The dedup invariant (DESIGN.md §12): the FIRST result received for a
// pair is delivered to the user callback; every later one is dropped and
// counted, whatever its sender's liveness. Ownership only decides what is
// RE-EXECUTED on a death — it can lag reality (a transfer notice in
// flight when the victim dies), and the worst such lag re-runs a region
// twice, which dedup absorbs. Nothing is ever lost: a region is re-granted
// unless a live node provably holds it, and every re-granted pair's
// result flows through the same ResultMsg path.
//
// Representation: flat per-pair arrays indexed by the closed-form upper-
// triangle index — O(1) record, O(n^2) memory: 5 B per pair (a 4-byte
// owner and a 1-byte delivered flag). That is the right trade at
// the mesh's current in-process scale (the simulator covers the
// million-item regime); a region-interval ledger drops the memory to
// O(grants) when a wire transport raises n.

#include <cstdint>
#include <vector>

#include "dnc/pair_space.hpp"
#include "net/tag.hpp"

namespace rocket::mesh {

class ResultLedger {
 public:
  using NodeId = net::NodeId;

  ResultLedger(dnc::ItemIndex n, std::uint32_t num_nodes);

  /// Lease every pair of `region` to `owner` (initial partition grant or
  /// survivor re-grant; re-grants count toward regions_regranted()).
  void grant(NodeId owner, const dnc::Region& region, bool reexecution);

  /// Steal-transfer notice: undelivered pairs of `region` now belong to
  /// `thief`. Delivered pairs are left alone (their race is already over).
  void transfer(const dnc::Region& region, NodeId thief);

  /// Record an incoming result. Returns true when this is the first result
  /// for the pair (deliver it); false for a duplicate (drop it).
  bool record(dnc::ItemIndex left, dnc::ItemIndex right);

  /// Pre-mark a pair as delivered without counting a duplicate: journal
  /// replay on resume, and a standby's mirrored state on master adoption
  /// (DESIGN.md §14). Returns true when the pair was newly marked.
  bool mark_recovered(dnc::ItemIndex left, dnc::ItemIndex right);

  /// Every delivered pair, row-major. O(n^2) scan — failover-time only.
  std::vector<dnc::Pair> delivered_pairs() const;

  /// The dead node's uncompleted lease, coalesced into row-run regions
  /// (ready to re-grant). Does not change ownership — call grant() with
  /// the chosen survivor for each returned region.
  std::vector<dnc::Region> undelivered_of(NodeId owner) const;

  /// Undelivered pairs currently leased to `owner` — O(1), maintained
  /// incrementally. End-game speculation (DESIGN.md §15) reads it twice:
  /// zero means a node is idle by completion, and the node owing the most
  /// is the one copied from.
  std::uint64_t pairs_owed(NodeId owner) const {
    return owner < owed_.size() ? owed_[owner] : 0;
  }

  std::uint64_t delivered() const { return delivered_count_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t regions_regranted() const { return regions_regranted_; }

 private:
  std::uint64_t index_of(dnc::ItemIndex i, dnc::ItemIndex j) const {
    // Row-major rank of (i, j), i < j, in the strict upper triangle.
    const std::uint64_t row_start =
        static_cast<std::uint64_t>(i) * n_ -
        (static_cast<std::uint64_t>(i) * (i + 1)) / 2;
    return row_start + (j - i - 1);
  }

  void dec_owed(NodeId owner) {
    if (owner < owed_.size() && owed_[owner] > 0) --owed_[owner];
  }
  void inc_owed(NodeId owner) {
    if (owner < owed_.size()) ++owed_[owner];
  }

  dnc::ItemIndex n_ = 0;
  std::vector<NodeId> owner_;          // per pair
  std::vector<std::uint8_t> delivered_;  // per pair (bool; uint8 for speed)
  std::vector<std::uint64_t> owed_;    // per node, undelivered leased pairs
  std::uint64_t delivered_count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t regions_regranted_ = 0;
};

}  // namespace rocket::mesh
