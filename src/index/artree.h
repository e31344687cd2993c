#ifndef TERIDS_INDEX_ARTREE_H_
#define TERIDS_INDEX_ARTREE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/interval.h"

namespace terids {

/// One indexed object: a d-dimensional box and an opaque payload id (the
/// rule index in the CDD-index).
struct ArTreeEntry {
  std::vector<Interval> box;
  int64_t payload = -1;
};

/// Aggregate R-tree over d-dimensional boxes; each node aggregates the
/// bounding box of the entries below it.
///
/// Construction is bulk (k-d-style sort-tile-recurse); single insertions and
/// payload removals are supported for the dynamic-repository extension
/// (Section 5.5). Queries are visitor-driven: the caller's node predicate
/// sees the node's bounding box and decides descent, so a pruning rule
/// needs no specialised tree.
class ArTree {
 public:
  struct NodeView {
    const std::vector<Interval>& box;
    bool is_leaf;
    int num_children;
  };

  using NodePredicate = std::function<bool(const NodeView&)>;
  using EntryVisitor = std::function<void(const ArTreeEntry&)>;

  explicit ArTree(int dims, int fanout = 16);

  /// Replaces the tree contents. Every entry's box must have `dims`
  /// dimensions.
  void BulkLoad(std::vector<ArTreeEntry> entries);

  /// Inserts a single entry (payloads must be unique across the tree).
  void Insert(ArTreeEntry entry);

  /// Removes the entry with this payload. Returns false if absent.
  bool Remove(int64_t payload);

  /// Depth-first traversal. `should_visit` gates every node (including the
  /// root); entries of visited leaves are passed to `on_entry`.
  void Query(const NodePredicate& should_visit,
             const EntryVisitor& on_entry) const;

  size_t size() const { return live_entries_; }
  int dims() const { return dims_; }

 private:
  struct Node {
    bool leaf = true;
    int parent = -1;
    std::vector<Interval> box;
    std::vector<int> children;       // node ids (internal nodes)
    std::vector<int> entry_ids;      // indices into entries_ (leaves)
  };

  int BuildRec(std::vector<int>* entry_ids, size_t begin, size_t end, int dim,
               int parent);
  void RecomputeNode(int node_id);
  void RecomputePath(int node_id);
  void QueryRec(int node_id, const NodePredicate& should_visit,
                const EntryVisitor& on_entry) const;
  static void ExtendBox(std::vector<Interval>* box,
                        const std::vector<Interval>& with);

  int dims_;
  int fanout_;
  int root_ = -1;
  std::vector<Node> nodes_;
  std::vector<ArTreeEntry> entries_;
  std::vector<bool> entry_live_;
  size_t live_entries_ = 0;
  std::unordered_map<int64_t, int> payload_to_leaf_;
  std::unordered_map<int64_t, int> payload_to_entry_;
};

}  // namespace terids

#endif  // TERIDS_INDEX_ARTREE_H_
