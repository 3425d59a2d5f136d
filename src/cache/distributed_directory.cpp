#include "cache/distributed_directory.hpp"

#include <algorithm>

namespace rocket::cache {

std::vector<NodeId> DistributedDirectory::on_request(ItemId item,
                                                     NodeId requester) {
  ++stats_.requests;
  auto& list = candidates_[item];

  std::vector<NodeId> chain;
  chain.reserve(list.size());
  for (const NodeId node : list) {
    if (node != requester) chain.push_back(node);
  }
  if (chain.empty()) ++stats_.empty_responses;

  // Record the requester as the freshest candidate: it is about to obtain
  // the item (from a peer or by loading) and will hold it for a while.
  // De-duplicate so repeat requesters don't flush other candidates out.
  const auto it = std::find(list.begin(), list.end(), requester);
  if (it != list.end()) list.erase(it);
  list.push_front(requester);
  while (list.size() > max_candidates_) list.pop_back();

  return chain;
}

void DistributedDirectory::remove_node(NodeId node) {
  for (auto& [item, list] : candidates_) {
    const auto it = std::find(list.begin(), list.end(), node);
    if (it != list.end()) list.erase(it);
  }
}

std::vector<NodeId> DistributedDirectory::candidates(ItemId item) const {
  const auto it = candidates_.find(item);
  if (it == candidates_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

}  // namespace rocket::cache
