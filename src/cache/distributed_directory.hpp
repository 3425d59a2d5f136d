#pragma once

// Third-level (cluster) cache directory — the mediator protocol of §4.1.3.
//
// Item `i` is mediated by node `i mod p`. The mediator keeps, per item, the
// list of the `h` nodes that most recently *requested* the item — the
// "candidates" most likely to hold it now. A request from node A is
// answered with the current candidate chain C1..Ch, after which A is
// prepended (A is about to obtain the item one way or another, so it is
// the best future candidate). The requester then probes the chain hop by
// hop; each miss forwards to the next candidate; an exhausted chain is a
// distributed-cache miss and A falls back to executing the load locally.
//
// The directory itself is pure bookkeeping (this class); the message flow
// (h + 2 messages per request) lives in the cluster layer.

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/slot_cache.hpp"

namespace rocket::cache {

using NodeId = std::uint32_t;

struct DirectoryStats {
  std::uint64_t requests = 0;         // mediator lookups served
  std::uint64_t empty_responses = 0;  // no candidates were known
  std::uint64_t chain_hits = 0;       // chain walks that found the item on a peer
  std::uint64_t chain_misses = 0;     // exhausted chains (fell back to a load)
  std::uint64_t hops = 0;             // candidate hops walked across all chains
};

/// Aggregate per-node directory stats into cluster totals.
inline DirectoryStats& operator+=(DirectoryStats& a, const DirectoryStats& b) {
  a.requests += b.requests;
  a.empty_responses += b.empty_responses;
  a.chain_hits += b.chain_hits;
  a.chain_misses += b.chain_misses;
  a.hops += b.hops;
  return a;
}

class DistributedDirectory {
 public:
  /// `max_candidates` is the paper's h: the chain length handed out and the
  /// retention bound of the per-item list.
  explicit DistributedDirectory(std::uint32_t max_candidates)
      : max_candidates_(max_candidates) {}

  /// Mediator-side handling of a request for `item` from `requester`:
  /// returns the candidate chain (possibly empty) and records the requester
  /// as the most recent candidate. The requester itself is excluded from
  /// the returned chain (querying yourself is useless), mirroring the
  /// paper's note that B or Cx may equal A without harming correctness.
  std::vector<NodeId> on_request(ItemId item, NodeId requester);

  /// Requester-side outcome of a chain walk: `hops_walked` candidates were
  /// probed and the item was (or was not) found. Mediator lookups and chain
  /// outcomes happen on different nodes; each side records into its *own*
  /// node's directory so per-node stats aggregate to cluster totals without
  /// extra protocol messages.
  void record_chain_outcome(bool hit, std::uint32_t hops_walked) {
    if (hit) {
      ++stats_.chain_hits;
    } else {
      ++stats_.chain_misses;
    }
    stats_.hops += hops_walked;
  }

  /// Which node mediates `item` in a p-node cluster.
  static NodeId mediator_of(ItemId item, std::uint32_t num_nodes) {
    return static_cast<NodeId>(item % num_nodes);
  }

  std::uint32_t max_candidates() const { return max_candidates_; }
  const DirectoryStats& stats() const { return stats_; }

  /// Forget `node` everywhere: a dead node must never be handed out as a
  /// candidate again (the failure detector's directory prune).
  void remove_node(NodeId node);

  /// Candidate list snapshot (testing).
  std::vector<NodeId> candidates(ItemId item) const;

 private:
  std::uint32_t max_candidates_;
  std::unordered_map<ItemId, std::deque<NodeId>> candidates_;
  DirectoryStats stats_;
};

}  // namespace rocket::cache
