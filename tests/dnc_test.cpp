#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "dnc/pair_space.hpp"

namespace rocket::dnc {
namespace {

TEST(PairSpace, RootRegionCountsMatchFormula) {
  for (const ItemIndex n : {0u, 1u, 2u, 3u, 8u, 100u, 4980u}) {
    const Region root = root_region(n);
    EXPECT_EQ(count_pairs(root),
              static_cast<PairCount>(n) * (n - 1) / 2)
        << "n=" << n;
  }
}

TEST(PairSpace, PaperWorkloadSizes) {
  // Table 1: number of pairs for the three applications.
  EXPECT_EQ(count_pairs(root_region(4980)), 12397710u);   // forensics
  EXPECT_EQ(count_pairs(root_region(2500)), 3123750u);    // bioinformatics
  EXPECT_EQ(count_pairs(root_region(256)), 32640u);       // microscopy (C(256,2))
}

// The paper's Table 1 lists 130,816 pairs for microscopy: that is C(512,2),
// i.e. counting each of the 256 particles' two scoring methods; our model
// uses C(n,2) with n given per experiment, so we verify the formula both ways.
TEST(PairSpace, MicroscopyPairAccounting) {
  EXPECT_EQ(count_pairs(root_region(512)), 130816u);
}

TEST(PairSpace, CountMatchesEnumerationOnRectangles) {
  // Exhaustive check on small rectangles including degenerate ones.
  for (ItemIndex r0 = 0; r0 <= 6; ++r0)
    for (ItemIndex r1 = r0; r1 <= 7; ++r1)
      for (ItemIndex c0 = 0; c0 <= 6; ++c0)
        for (ItemIndex c1 = c0; c1 <= 7; ++c1) {
          const Region region{r0, r1, c0, c1, 0};
          PairCount listed = 0;
          for_each_pair(region, [&](Pair p) {
            EXPECT_LT(p.left, p.right);
            EXPECT_GE(p.left, r0);
            EXPECT_LT(p.left, r1);
            EXPECT_GE(p.right, c0);
            EXPECT_LT(p.right, c1);
            ++listed;
          });
          EXPECT_EQ(count_pairs(region), listed)
              << "region [" << r0 << "," << r1 << ")x[" << c0 << "," << c1 << ")";
        }
}

TEST(PairSpace, SplitPreservesPairSetExactly) {
  // Property: recursively splitting the root must enumerate every pair
  // exactly once (the paper's Fig 5 decomposition is a partition).
  for (const ItemIndex n : {2u, 3u, 5u, 8u, 13u, 33u, 64u}) {
    std::set<std::pair<ItemIndex, ItemIndex>> seen;
    std::deque<Region> work{root_region(n)};
    while (!work.empty()) {
      const Region region = work.front();
      work.pop_front();
      if (count_pairs(region) <= 1) {
        for_each_pair(region, [&](Pair p) {
          const bool inserted = seen.insert({p.left, p.right}).second;
          EXPECT_TRUE(inserted) << "duplicate pair " << p.left << "," << p.right;
        });
        continue;
      }
      PairCount child_total = 0;
      for (const Region& child : split(region)) {
        EXPECT_EQ(child.depth, region.depth + 1);
        EXPECT_GT(count_pairs(child), 0u);
        child_total += count_pairs(child);
        work.push_back(child);
      }
      EXPECT_EQ(child_total, count_pairs(region));
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n) * (n - 1) / 2);
  }
}

TEST(PairSpace, SplitOfSinglePairReturnsSelf) {
  const Region leaf{3, 4, 7, 8, 5};
  ASSERT_EQ(count_pairs(leaf), 1u);
  const auto children = split(leaf);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], leaf);
}

TEST(PairSpace, EmptyRegions) {
  EXPECT_TRUE(is_empty(Region{0, 0, 0, 0, 0}));
  EXPECT_TRUE(is_empty(Region{5, 10, 0, 5, 0}));  // entirely below diagonal
  EXPECT_FALSE(is_empty(root_region(2)));
}

TEST(PairSpace, WorkingSetMatchesEnumeration) {
  for (ItemIndex r0 = 0; r0 <= 5; ++r0)
    for (ItemIndex r1 = r0; r1 <= 6; ++r1)
      for (ItemIndex c0 = 0; c0 <= 5; ++c0)
        for (ItemIndex c1 = c0; c1 <= 6; ++c1) {
          const Region region{r0, r1, c0, c1, 0};
          std::set<ItemIndex> items;
          for_each_pair(region, [&](Pair p) {
            items.insert(p.left);
            items.insert(p.right);
          });
          EXPECT_EQ(working_set_size(region), items.size())
              << "region [" << r0 << "," << r1 << ")x[" << c0 << "," << c1 << ")";
        }
}

TEST(PairSpace, WorkingSetItemsMatchEnumeration) {
  // row_items / col_items / working_set_items feed the tile-batched
  // execution path: the union must be exactly the sorted distinct items of
  // the region, and its size must agree with the closed-form count.
  for (ItemIndex r0 = 0; r0 <= 5; ++r0)
    for (ItemIndex r1 = r0; r1 <= 6; ++r1)
      for (ItemIndex c0 = 0; c0 <= 5; ++c0)
        for (ItemIndex c1 = c0; c1 <= 6; ++c1) {
          const Region region{r0, r1, c0, c1, 0};
          std::set<ItemIndex> lefts, rights, all;
          for_each_pair(region, [&](Pair p) {
            lefts.insert(p.left);
            rights.insert(p.right);
            all.insert(p.left);
            all.insert(p.right);
          });
          const ItemRange rows = row_items(region);
          const ItemRange cols = col_items(region);
          std::set<ItemIndex> row_set, col_set;
          for (ItemIndex i = rows.begin; i < rows.end; ++i) row_set.insert(i);
          for (ItemIndex j = cols.begin; j < cols.end; ++j) col_set.insert(j);
          EXPECT_EQ(row_set, lefts)
              << "rows of [" << r0 << "," << r1 << ")x[" << c0 << "," << c1 << ")";
          EXPECT_EQ(col_set, rights)
              << "cols of [" << r0 << "," << r1 << ")x[" << c0 << "," << c1 << ")";

          const std::vector<ItemIndex> ws = working_set_items(region);
          EXPECT_TRUE(std::is_sorted(ws.begin(), ws.end()));
          EXPECT_EQ(std::set<ItemIndex>(ws.begin(), ws.end()), all);
          EXPECT_EQ(ws.size(), all.size()) << "duplicates in working set";
          EXPECT_EQ(ws.size(), working_set_size(region));
        }
}

TEST(PairSpace, WorkingSetItemsOfRootAndLeaf) {
  const std::vector<ItemIndex> root_ws = working_set_items(root_region(8));
  ASSERT_EQ(root_ws.size(), 8u);
  for (ItemIndex i = 0; i < 8; ++i) EXPECT_EQ(root_ws[i], i);

  // Off-diagonal tile: rows and cols are disjoint ranges.
  const Region tile{0, 2, 6, 8, 3};
  const std::vector<ItemIndex> ws = working_set_items(tile);
  EXPECT_EQ(ws, (std::vector<ItemIndex>{0, 1, 6, 7}));
  EXPECT_EQ(row_items(tile), (ItemRange{0, 2}));
  EXPECT_EQ(col_items(tile), (ItemRange{6, 8}));
}

TEST(PairSpace, DeepSplitShrinksWorkingSet) {
  // Locality property motivating divide-and-conquer: each split at least
  // halves (approximately) the referenced item span.
  Region region = root_region(1024);
  std::uint64_t prev = working_set_size(region);
  for (int depth = 0; depth < 8; ++depth) {
    const auto children = split(region);
    ASSERT_FALSE(children.empty());
    // Follow the densest child.
    region = *std::max_element(
        children.begin(), children.end(), [](const Region& a, const Region& b) {
          return count_pairs(a) < count_pairs(b);
        });
    const std::uint64_t ws = working_set_size(region);
    EXPECT_LE(ws, prev);
    prev = ws;
  }
  EXPECT_LE(prev, 16u);
}

TEST(PairSpace, PairsOfReturnsRowMajor) {
  const Region region{0, 3, 0, 3, 0};
  const auto pairs = pairs_of(region);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
  EXPECT_EQ(pairs[1], (Pair{0, 2}));
  EXPECT_EQ(pairs[2], (Pair{1, 2}));
}

/// Test-local row-major order: the locality baseline that re-walks the
/// full column span every row of tiles.
std::vector<Region> row_major(std::vector<Region> leaves) {
  std::sort(leaves.begin(), leaves.end(), [](const Region& a, const Region& b) {
    return std::tie(a.row_begin, a.col_begin) <
           std::tie(b.row_begin, b.col_begin);
  });
  return leaves;
}

TEST(PairSpace, LeavesEnumerateIdenticalSetAcrossOrders) {
  // The descent's leaves partition the region: every pair exactly once,
  // every leaf within budget, whatever order split() visits them in.
  for (const Region& region :
       {root_region(64), Region{0, 64, 64, 128, 0}, root_region(17)}) {
    std::set<std::pair<ItemIndex, ItemIndex>> covered;
    PairCount total = 0;
    for (const Region& leaf : leaves({region}, 16)) {
      EXPECT_LE(count_pairs(leaf), 16u);
      for_each_pair(leaf, [&](Pair p) {
        EXPECT_TRUE(covered.insert({p.left, p.right}).second);
        ++total;
      });
    }
    EXPECT_EQ(total, count_pairs(region));
    std::set<std::pair<ItemIndex, ItemIndex>> expected;
    for_each_pair(region, [&](Pair p) { expected.insert({p.left, p.right}); });
    EXPECT_EQ(covered, expected);
  }
}

TEST(PairSpace, SplitVisitsQuadrantsAlongTheCurve) {
  // split() returns its quadrants in curve_rank order, and a region's
  // rank is its origin's alone: depth plays no part.
  for (const Region& region :
       {root_region(64), Region{0, 64, 64, 128, 0}, Region{3, 40, 9, 77, 2}}) {
    const auto children = split(region);
    ASSERT_GT(children.size(), 1u);
    for (std::size_t i = 1; i < children.size(); ++i) {
      EXPECT_LT(curve_rank(children[i - 1]), curve_rank(children[i]));
    }
  }
  EXPECT_EQ(curve_rank(Region{8, 16, 24, 32, 1}),
            curve_rank(Region{8, 9, 24, 25, 7}));
}

TEST(PairSpace, CurveOrderBeatsRowMajorOnTransitions) {
  // The locality property the tile scheduler leans on, measured as the
  // cold items consecutive leaves introduce (a 1-leaf-lookback cache).
  // On an n=64 square region (64 8x8 tiles) the descent's curve order —
  // consecutive tiles always share a side, i.e. share rows or columns —
  // must yield strictly fewer distinct-item transitions than a row-major
  // scan.
  const Region square{0, 64, 64, 128, 0};
  const auto curve = cold_transition_items(leaves({square}, 64));
  const auto rows = cold_transition_items(row_major(leaves({square}, 64)));
  EXPECT_LT(curve, rows);

  // Every step along the curve shares a side: 64 tiles of 16 items, first
  // tile all cold, then 8 new items per step.
  EXPECT_EQ(curve, 16u + 63u * 8u);

  // The triangle (the real workload's root) preserves the ordering.
  const auto tri = leaves({root_region(64)}, 64);
  EXPECT_LT(cold_transition_items(tri), cold_transition_items(row_major(tri)));
}

TEST(PairSpace, PartitionRootCoversPairSetExactly) {
  for (const ItemIndex n : {2u, 3u, 17u, 37u}) {
    for (const std::uint32_t parts : {1u, 2u, 5u, 8u}) {
      const auto partition = partition_root(n, parts);
      ASSERT_EQ(partition.size(), parts);
      std::set<std::pair<ItemIndex, ItemIndex>> seen;
      for (const auto& regions : partition) {
        for (const Region& region : regions) {
          for_each_pair(region, [&](Pair p) {
            EXPECT_TRUE(seen.insert({p.left, p.right}).second)
                << "duplicate pair " << p.left << "," << p.right;
          });
        }
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(n) * (n - 1) / 2)
          << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(PairSpace, PartitionRootBalancesLoad) {
  const auto partition = partition_root(64, 4);
  std::vector<PairCount> load;
  for (const auto& regions : partition) {
    PairCount pairs = 0;
    for (const Region& region : regions) pairs += count_pairs(region);
    load.push_back(pairs);
  }
  const auto [min_it, max_it] = std::minmax_element(load.begin(), load.end());
  EXPECT_GT(*min_it, 0u) << "every node gets work";
  // Greedy largest-first keeps the spread modest (not a tight bound; the
  // mesh corrects residual imbalance by stealing).
  EXPECT_LE(*max_it, 2 * *min_it);
}

TEST(PairSpace, PartitionRootIsDeterministic) {
  const auto a = partition_root(33, 3);
  const auto b = partition_root(33, 3);
  EXPECT_EQ(a, b);
}

TEST(PairSpace, PartitionRootEdgeCases) {
  EXPECT_TRUE(partition_root(10, 0).empty());
  // More parts than pairs: trailing parts are empty, nothing is lost.
  const auto partition = partition_root(3, 8);
  ASSERT_EQ(partition.size(), 8u);
  PairCount total = 0;
  for (const auto& regions : partition) {
    for (const Region& region : regions) total += count_pairs(region);
  }
  EXPECT_EQ(total, 3u);
  // n too small for any pair.
  for (const auto& regions : partition_root(1, 4)) {
    EXPECT_TRUE(regions.empty());
  }
}

}  // namespace
}  // namespace rocket::dnc
