#include "mesh/result_ledger.hpp"

#include "common/log.hpp"

namespace rocket::mesh {

namespace {

constexpr net::NodeId kNoOwner = ~net::NodeId{0};

}  // namespace

ResultLedger::ResultLedger(dnc::ItemIndex n, std::uint32_t num_nodes)
    : n_(n) {
  const std::uint64_t pairs = dnc::count_pairs(dnc::root_region(n));
  owner_.assign(pairs, kNoOwner);
  delivered_.assign(pairs, 0);
  owed_.assign(num_nodes, 0);
}

void ResultLedger::grant(NodeId owner, const dnc::Region& region,
                         bool reexecution) {
  if (reexecution) ++regions_regranted_;
  dnc::for_each_pair(region, [&](const dnc::Pair& pair) {
    const std::uint64_t k = index_of(pair.left, pair.right);
    if (!delivered_[k] && owner_[k] != owner) {
      dec_owed(owner_[k]);
      inc_owed(owner);
    }
    owner_[k] = owner;
  });
}

void ResultLedger::transfer(const dnc::Region& region, NodeId thief) {
  dnc::for_each_pair(region, [&](const dnc::Pair& pair) {
    const std::uint64_t k = index_of(pair.left, pair.right);
    if (!delivered_[k] && owner_[k] != thief) {
      dec_owed(owner_[k]);
      inc_owed(thief);
      owner_[k] = thief;
    }
  });
}

bool ResultLedger::record(dnc::ItemIndex left, dnc::ItemIndex right) {
  ROCKET_CHECK(left < right && right < n_, "result outside the root region");
  const std::uint64_t k = index_of(left, right);
  if (delivered_[k]) {
    ++duplicates_;
    return false;
  }
  delivered_[k] = 1;
  ++delivered_count_;
  dec_owed(owner_[k]);
  return true;
}

bool ResultLedger::mark_recovered(dnc::ItemIndex left, dnc::ItemIndex right) {
  ROCKET_CHECK(left < right && right < n_, "recovered pair outside the root");
  const std::uint64_t k = index_of(left, right);
  if (delivered_[k]) return false;
  delivered_[k] = 1;
  ++delivered_count_;
  dec_owed(owner_[k]);
  return true;
}

std::vector<dnc::Pair> ResultLedger::delivered_pairs() const {
  std::vector<dnc::Pair> pairs;
  pairs.reserve(delivered_count_);
  for (dnc::ItemIndex i = 0; i + 1 < n_; ++i) {
    for (dnc::ItemIndex j = i + 1; j < n_; ++j) {
      if (delivered_[index_of(i, j)]) pairs.push_back(dnc::Pair{i, j});
    }
  }
  return pairs;
}

std::vector<dnc::Region> ResultLedger::undelivered_of(NodeId owner) const {
  // Coalesce the dead node's undelivered pairs into maximal row runs:
  // contiguous (i, [j0, j1)) strips become one Region each. Row runs are
  // exact (no over- or under-coverage) and already large in practice —
  // the initial partition and steal leaves are rectangles, so a death
  // leaves long contiguous strips per row.
  std::vector<dnc::Region> regions;
  for (dnc::ItemIndex i = 0; i + 1 < n_; ++i) {
    dnc::ItemIndex run_start = 0;
    bool in_run = false;
    for (dnc::ItemIndex j = i + 1; j < n_; ++j) {
      const std::uint64_t k = index_of(i, j);
      const bool mine = owner_[k] == owner && !delivered_[k];
      if (mine && !in_run) {
        run_start = j;
        in_run = true;
      } else if (!mine && in_run) {
        regions.push_back(dnc::Region{i, i + 1, run_start, j, 0});
        in_run = false;
      }
    }
    if (in_run) regions.push_back(dnc::Region{i, i + 1, run_start, n_, 0});
  }
  return regions;
}

}  // namespace rocket::mesh
