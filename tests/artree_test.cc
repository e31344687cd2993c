#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/artree.h"
#include "util/rng.h"

namespace terids {
namespace {

ArTreeEntry RandomEntry(Rng* rng, int dims, int64_t payload) {
  ArTreeEntry e;
  e.payload = payload;
  e.box.resize(dims);
  for (int d = 0; d < dims; ++d) {
    const double lo = rng->NextDouble();
    const double width = rng->NextDouble() * 0.2;
    e.box[d] = Interval::Of(lo, std::min(1.0, lo + width));
  }
  return e;
}

std::vector<Interval> RandomQueryBox(Rng* rng, int dims) {
  std::vector<Interval> box(dims);
  for (int d = 0; d < dims; ++d) {
    const double lo = rng->NextDouble();
    box[d] = Interval::Of(lo, std::min(1.0, lo + rng->NextDouble() * 0.4));
  }
  return box;
}

std::vector<int64_t> TreeRangeQuery(const ArTree& tree,
                                    const std::vector<Interval>& query) {
  std::vector<int64_t> got;
  tree.Query(
      [&query](const ArTree::NodeView& node) {
        for (size_t d = 0; d < query.size(); ++d) {
          if (!node.box[d].Overlaps(query[d])) {
            return false;
          }
        }
        return true;
      },
      [&got, &query](const ArTreeEntry& entry) {
        for (size_t d = 0; d < query.size(); ++d) {
          if (!entry.box[d].Overlaps(query[d])) {
            return;
          }
        }
        got.push_back(entry.payload);
      });
  std::sort(got.begin(), got.end());
  return got;
}

class ArTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ArTreePropertyTest, BulkLoadedRangeQueryMatchesBruteForce) {
  Rng rng(GetParam());
  const int dims = 1 + static_cast<int>(rng.NextBounded(5));
  const int n = 20 + static_cast<int>(rng.NextBounded(300));
  std::vector<ArTreeEntry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back(RandomEntry(&rng, dims, i));
  }
  ArTree tree(dims, 8);
  tree.BulkLoad(entries);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));

  for (int q = 0; q < 20; ++q) {
    const std::vector<Interval> query = RandomQueryBox(&rng, dims);
    std::vector<int64_t> want;
    for (const ArTreeEntry& e : entries) {
      bool hit = true;
      for (int d = 0; d < dims; ++d) {
        hit = hit && e.box[d].Overlaps(query[d]);
      }
      if (hit) want.push_back(e.payload);
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(TreeRangeQuery(tree, query), want);
  }
}

TEST_P(ArTreePropertyTest, IncrementalInsertMatchesBruteForce) {
  Rng rng(GetParam() * 101 + 7);
  const int dims = 2;
  ArTree tree(dims, 4);
  std::vector<ArTreeEntry> entries;
  for (int i = 0; i < 150; ++i) {
    ArTreeEntry e = RandomEntry(&rng, dims, i);
    entries.push_back(e);
    tree.Insert(e);
  }
  for (int q = 0; q < 15; ++q) {
    const std::vector<Interval> query = RandomQueryBox(&rng, dims);
    std::vector<int64_t> want;
    for (const ArTreeEntry& e : entries) {
      if (e.box[0].Overlaps(query[0]) && e.box[1].Overlaps(query[1])) {
        want.push_back(e.payload);
      }
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(TreeRangeQuery(tree, query), want);
  }
}

TEST_P(ArTreePropertyTest, RemoveHidesEntries) {
  Rng rng(GetParam() * 13 + 5);
  const int dims = 3;
  std::vector<ArTreeEntry> entries;
  for (int i = 0; i < 100; ++i) {
    entries.push_back(RandomEntry(&rng, dims, i));
  }
  ArTree tree(dims, 8);
  tree.BulkLoad(entries);
  // Remove every third entry.
  std::vector<bool> removed(entries.size(), false);
  for (size_t i = 0; i < entries.size(); i += 3) {
    EXPECT_TRUE(tree.Remove(static_cast<int64_t>(i)));
    removed[i] = true;
  }
  EXPECT_FALSE(tree.Remove(0));  // Already gone.
  const std::vector<Interval> everything(dims, Interval::Of(0.0, 1.0));
  std::vector<int64_t> got = TreeRangeQuery(tree, everything);
  std::vector<int64_t> want;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (!removed[i]) want.push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(got, want);
}

/// Box soundness: every node's bounding box must cover the boxes of all
/// live entries below it (otherwise box-based pruning would be unsound).
TEST_P(ArTreePropertyTest, NodeBoxesCoverEntries) {
  Rng rng(GetParam() * 7 + 3);
  const int dims = 2;
  std::vector<ArTreeEntry> entries;
  for (int i = 0; i < 120; ++i) {
    entries.push_back(RandomEntry(&rng, dims, i));
  }
  ArTree tree(dims, 8);
  tree.BulkLoad(entries);
  for (int i = 0; i < 40; ++i) {
    tree.Insert(RandomEntry(&rng, dims, 1000 + i));
  }

  // Visit with an always-true predicate: the visitor sees a leaf's entries
  // right after the predicate inspected that leaf, so each emitted entry
  // must lie inside the most recently seen leaf box.
  const std::vector<Interval>* leaf_box = nullptr;
  size_t seen = 0;
  tree.Query(
      [&](const ArTree::NodeView& node) {
        if (node.is_leaf) {
          leaf_box = &node.box;
        }
        return true;
      },
      [&](const ArTreeEntry& entry) {
        ++seen;
        ASSERT_NE(leaf_box, nullptr);
        for (int d = 0; d < dims; ++d) {
          EXPECT_LE((*leaf_box)[d].lo, entry.box[d].lo);
          EXPECT_GE((*leaf_box)[d].hi, entry.box[d].hi);
        }
      });
  EXPECT_EQ(seen, tree.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArTreePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(ArTreeTest, EmptyTreeQueriesCleanly) {
  ArTree tree(3);
  int visits = 0;
  tree.Query([](const ArTree::NodeView&) { return true; },
             [&visits](const ArTreeEntry&) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(tree.size(), 0u);
}

}  // namespace
}  // namespace terids
