#include "index/artree.h"

#include <algorithm>

#include "util/status.h"

namespace terids {

ArTree::ArTree(int dims, int fanout) : dims_(dims), fanout_(fanout) {
  TERIDS_CHECK(dims >= 1);
  TERIDS_CHECK(fanout >= 2);
}

void ArTree::ExtendBox(std::vector<Interval>* box,
                       const std::vector<Interval>& with) {
  if (box->empty()) {
    *box = with;
    return;
  }
  TERIDS_CHECK(box->size() == with.size());
  for (size_t d = 0; d < with.size(); ++d) {
    (*box)[d].Union(with[d]);
  }
}

void ArTree::BulkLoad(std::vector<ArTreeEntry> entries) {
  nodes_.clear();
  payload_to_leaf_.clear();
  payload_to_entry_.clear();
  entries_ = std::move(entries);
  entry_live_.assign(entries_.size(), true);
  live_entries_ = entries_.size();
  for (size_t i = 0; i < entries_.size(); ++i) {
    TERIDS_CHECK(static_cast<int>(entries_[i].box.size()) == dims_);
    payload_to_entry_[entries_[i].payload] = static_cast<int>(i);
  }
  if (entries_.empty()) {
    root_ = -1;
    return;
  }
  std::vector<int> ids(entries_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  root_ = BuildRec(&ids, 0, ids.size(), 0, /*parent=*/-1);
}

int ArTree::BuildRec(std::vector<int>* entry_ids, size_t begin, size_t end,
                     int dim, int parent) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_id].parent = parent;

  const size_t count = end - begin;
  if (count <= static_cast<size_t>(fanout_)) {
    Node& node = nodes_[node_id];
    node.leaf = true;
    for (size_t i = begin; i < end; ++i) {
      node.entry_ids.push_back((*entry_ids)[i]);
      payload_to_leaf_[entries_[(*entry_ids)[i]].payload] = node_id;
    }
    RecomputeNode(node_id);
    return node_id;
  }

  // Sort this slice by box center on the cycling dimension, then split into
  // fanout equal groups (k-d-style sort-tile-recurse).
  std::sort(entry_ids->begin() + begin, entry_ids->begin() + end,
            [this, dim](int a, int b) {
              const Interval& ia = entries_[a].box[dim];
              const Interval& ib = entries_[b].box[dim];
              return ia.lo + ia.hi < ib.lo + ib.hi;
            });
  size_t groups = std::min<size_t>(
      static_cast<size_t>(fanout_), (count + fanout_ - 1) / fanout_);
  if (groups < 2) groups = 2;
  const size_t per_group = (count + groups - 1) / groups;
  std::vector<int> children;
  for (size_t g = 0; g * per_group < count; ++g) {
    const size_t gb = begin + g * per_group;
    const size_t ge = std::min(end, gb + per_group);
    children.push_back(
        BuildRec(entry_ids, gb, ge, (dim + 1) % dims_, node_id));
  }
  Node& node = nodes_[node_id];
  node.leaf = false;
  node.children = std::move(children);
  RecomputeNode(node_id);
  return node_id;
}

void ArTree::RecomputeNode(int node_id) {
  Node& node = nodes_[node_id];
  node.box.clear();
  if (node.leaf) {
    for (int eid : node.entry_ids) {
      if (!entry_live_[eid]) continue;
      ExtendBox(&node.box, entries_[eid].box);
    }
  } else {
    for (int child : node.children) {
      if (nodes_[child].box.empty()) continue;
      ExtendBox(&node.box, nodes_[child].box);
    }
  }
  if (node.box.empty()) {
    node.box.assign(dims_, Interval::Empty());
  }
}

void ArTree::RecomputePath(int node_id) {
  for (int n = node_id; n != -1; n = nodes_[n].parent) {
    RecomputeNode(n);
  }
}

void ArTree::Insert(ArTreeEntry entry) {
  TERIDS_CHECK(static_cast<int>(entry.box.size()) == dims_);
  TERIDS_CHECK(payload_to_entry_.count(entry.payload) == 0);
  const int eid = static_cast<int>(entries_.size());
  payload_to_entry_[entry.payload] = eid;
  entries_.push_back(std::move(entry));
  entry_live_.push_back(true);
  ++live_entries_;

  if (root_ == -1) {
    root_ = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[root_].leaf = true;
  }
  // Descend to the leaf whose box needs the least total enlargement.
  int n = root_;
  while (!nodes_[n].leaf) {
    int best = -1;
    double best_cost = 0.0;
    for (int child : nodes_[n].children) {
      double cost = 0.0;
      for (int d = 0; d < dims_; ++d) {
        Interval grown = nodes_[child].box[d];
        grown.Union(entries_[eid].box[d]);
        cost += grown.width() - nodes_[child].box[d].width();
      }
      if (best == -1 || cost < best_cost) {
        best = child;
        best_cost = cost;
      }
    }
    TERIDS_CHECK(best != -1);
    n = best;
  }
  nodes_[n].entry_ids.push_back(eid);
  payload_to_leaf_[entries_[eid].payload] = n;

  // Split an overfull leaf along the dimension with the widest spread.
  if (static_cast<int>(nodes_[n].entry_ids.size()) > 2 * fanout_) {
    int split_dim = 0;
    {
      std::vector<Interval> spread(dims_, Interval::Empty());
      for (int e : nodes_[n].entry_ids) {
        for (int d = 0; d < dims_; ++d) {
          spread[d].Union(entries_[e].box[d]);
        }
      }
      double best_width = -1.0;
      for (int d = 0; d < dims_; ++d) {
        if (spread[d].width() > best_width) {
          best_width = spread[d].width();
          split_dim = d;
        }
      }
    }
    std::vector<int> eids = std::move(nodes_[n].entry_ids);
    std::sort(eids.begin(), eids.end(), [this, split_dim](int a, int b) {
      const Interval& ia = entries_[a].box[split_dim];
      const Interval& ib = entries_[b].box[split_dim];
      return ia.lo + ia.hi < ib.lo + ib.hi;
    });
    const size_t half = eids.size() / 2;
    const int sibling = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    // Note: nodes_.emplace_back may reallocate; re-reference n afterwards.
    nodes_[sibling].leaf = true;
    nodes_[n].entry_ids.assign(eids.begin(), eids.begin() + half);
    nodes_[sibling].entry_ids.assign(eids.begin() + half, eids.end());
    for (int e : nodes_[sibling].entry_ids) {
      payload_to_leaf_[entries_[e].payload] = sibling;
    }
    if (n == root_) {
      const int new_root = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      nodes_[new_root].leaf = false;
      nodes_[new_root].children = {n, sibling};
      nodes_[n].parent = new_root;
      nodes_[sibling].parent = new_root;
      root_ = new_root;
    } else {
      const int parent = nodes_[n].parent;
      nodes_[sibling].parent = parent;
      nodes_[parent].children.push_back(sibling);
    }
    RecomputeNode(sibling);
  }
  RecomputePath(n);
}

bool ArTree::Remove(int64_t payload) {
  auto it = payload_to_entry_.find(payload);
  if (it == payload_to_entry_.end() || !entry_live_[it->second]) {
    return false;
  }
  const int eid = it->second;
  entry_live_[eid] = false;
  --live_entries_;
  const int leaf = payload_to_leaf_.at(payload);
  auto& eids = nodes_[leaf].entry_ids;
  eids.erase(std::remove(eids.begin(), eids.end(), eid), eids.end());
  payload_to_entry_.erase(it);
  payload_to_leaf_.erase(payload);
  RecomputePath(leaf);
  return true;
}

void ArTree::Query(const NodePredicate& should_visit,
                   const EntryVisitor& on_entry) const {
  if (root_ == -1) {
    return;
  }
  QueryRec(root_, should_visit, on_entry);
}

void ArTree::QueryRec(int node_id, const NodePredicate& should_visit,
                      const EntryVisitor& on_entry) const {
  const Node& node = nodes_[node_id];
  if (node.leaf && node.entry_ids.empty()) {
    return;
  }
  NodeView view{node.box, node.leaf,
                static_cast<int>(node.leaf ? node.entry_ids.size()
                                           : node.children.size())};
  if (!should_visit(view)) {
    return;
  }
  if (node.leaf) {
    for (int eid : node.entry_ids) {
      if (entry_live_[eid]) {
        on_entry(entries_[eid]);
      }
    }
    return;
  }
  for (int child : node.children) {
    QueryRec(child, should_visit, on_entry);
  }
}

}  // namespace terids
