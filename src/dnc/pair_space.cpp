#include "dnc/pair_space.hpp"

#include <algorithm>
#include <tuple>

namespace rocket::dnc {

Region root_region(ItemIndex n) { return Region{0, n, 0, n, 0}; }

PairCount count_pairs(const Region& r) {
  if (r.row_begin >= r.row_end || r.col_begin >= r.col_end) return 0;
  // Rows fully inside the rectangle's column span: i + 1 <= col_begin.
  const std::uint64_t cols = r.col_end - r.col_begin;
  const std::uint64_t full_rows_end = std::min<std::uint64_t>(r.row_end, r.col_begin);
  std::uint64_t total = 0;
  if (full_rows_end > r.row_begin) {
    total += (full_rows_end - r.row_begin) * cols;
  }
  // Partial rows: i >= col_begin contribute (col_end - 1 - i) pairs while
  // positive, i.e. for i in [lo, hi) with hi = min(row_end, col_end - 1).
  const std::uint64_t lo = std::max<std::uint64_t>(r.row_begin, r.col_begin);
  const std::uint64_t hi =
      std::min<std::uint64_t>(r.row_end, r.col_end > 0 ? r.col_end - 1 : 0);
  if (hi > lo) {
    const std::uint64_t count = hi - lo;
    const std::uint64_t first = r.col_end - 1 - lo;   // largest term
    const std::uint64_t last = r.col_end - hi;        // smallest term
    total += count * (first + last) / 2;
  }
  return total;
}

bool is_empty(const Region& region) { return count_pairs(region) == 0; }

std::vector<Region> split(const Region& r) {
  std::vector<Region> out;
  if (count_pairs(r) <= 1) {
    out.push_back(r);
    return out;
  }
  const ItemIndex row_mid = r.row_begin + (r.row_end - r.row_begin) / 2;
  const ItemIndex col_mid = r.col_begin + (r.col_end - r.col_begin) / 2;
  const std::array<Region, 4> quadrants{{
      {r.row_begin, row_mid, r.col_begin, col_mid, r.depth + 1},
      {r.row_begin, row_mid, col_mid, r.col_end, r.depth + 1},
      {row_mid, r.row_end, r.col_begin, col_mid, r.depth + 1},
      {row_mid, r.row_end, col_mid, r.col_end, r.depth + 1},
  }};
  for (const auto& q : quadrants) {
    if (!is_empty(q)) out.push_back(q);
  }
  std::sort(out.begin(), out.end(), [](const Region& a, const Region& b) {
    return curve_rank(a) < curve_rank(b);
  });
  return out;
}

std::uint64_t curve_rank(const Region& region) {
  // The classic rotate-and-flip accumulation of the Hilbert d-index.
  std::uint32_t x = region.col_begin;
  std::uint32_t y = region.row_begin;
  std::uint64_t d = 0;
  for (std::uint32_t s = 1u << 30; s > 0; s >>= 1) {
    const std::uint32_t rx = (x & s) ? 1 : 0;
    const std::uint32_t ry = (y & s) ? 1 : 0;
    d += static_cast<std::uint64_t>(s) * s * ((3 * rx) ^ ry);
    if (ry == 0) {  // rotate the quadrant so the curve stays continuous
      if (rx == 1) {
        x = s - 1 - x;
        y = s - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

std::vector<Pair> pairs_of(const Region& region) {
  std::vector<Pair> out;
  out.reserve(static_cast<std::size_t>(count_pairs(region)));
  for_each_pair(region, [&](Pair p) { out.push_back(p); });
  return out;
}

ItemRange row_items(const Region& r) {
  if (is_empty(r)) return ItemRange{};
  const ItemIndex hi = std::min<ItemIndex>(
      r.row_end, r.col_end > 0 ? r.col_end - 1 : 0);
  if (hi <= r.row_begin) return ItemRange{};
  return ItemRange{r.row_begin, hi};
}

ItemRange col_items(const Region& r) {
  if (is_empty(r)) return ItemRange{};
  const ItemIndex lo = std::max<ItemIndex>(r.col_begin, r.row_begin + 1);
  if (r.col_end <= lo) return ItemRange{};
  return ItemRange{lo, r.col_end};
}

std::vector<ItemIndex> working_set_items(const Region& r) {
  std::vector<ItemIndex> out;
  const ItemRange rows = row_items(r);
  const ItemRange cols = col_items(r);
  out.reserve(rows.size() + cols.size());
  for (ItemIndex i = rows.begin; i < rows.end; ++i) out.push_back(i);
  // rows.begin < cols.begin always (cols start past row_begin), so the
  // union stays sorted by skipping the overlapping prefix of cols.
  const ItemIndex col_start =
      rows.empty() ? cols.begin : std::max(cols.begin, rows.end);
  for (ItemIndex j = col_start; j < cols.end; ++j) out.push_back(j);
  return out;
}

namespace {

/// Mirror of StealExecutor::descend: split while over budget, children in
/// split() order.
void collect_leaves(const Region& region, PairCount max_leaf_pairs,
                    std::vector<Region>& out) {
  if (count_pairs(region) == 0) return;
  if (count_pairs(region) <= max_leaf_pairs) {
    out.push_back(region);
    return;
  }
  for (const Region& child : split(region)) {
    collect_leaves(child, max_leaf_pairs, out);
  }
}

}  // namespace

std::vector<Region> leaves(const std::vector<Region>& roots,
                           PairCount max_leaf_pairs) {
  std::vector<Region> ranked = roots;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Region& a, const Region& b) {
    return curve_rank(a) < curve_rank(b);
  });
  std::vector<Region> out;
  for (const Region& root : ranked) {
    collect_leaves(root, std::max<PairCount>(1, max_leaf_pairs), out);
  }
  return out;
}

std::uint64_t cold_transition_items(const std::vector<Region>& leaves) {
  std::uint64_t total = 0;
  std::vector<ItemIndex> prev;
  for (const Region& leaf : leaves) {
    std::vector<ItemIndex> ws = working_set_items(leaf);
    for (const ItemIndex item : ws) {
      if (!std::binary_search(prev.begin(), prev.end(), item)) ++total;
    }
    prev = std::move(ws);
  }
  return total;
}

std::vector<std::vector<Region>> partition_root(ItemIndex n,
                                                std::uint32_t parts,
                                                std::uint32_t granularity) {
  std::vector<std::vector<Region>> out(parts);
  if (parts == 0) return out;
  std::vector<Region> regions;
  const Region root = root_region(n);
  if (count_pairs(root) > 0) regions.push_back(root);

  const auto target = static_cast<std::uint64_t>(parts) *
                      std::max<std::uint32_t>(1, granularity);
  while (regions.size() < target) {
    const auto it = std::max_element(
        regions.begin(), regions.end(), [](const Region& a, const Region& b) {
          return count_pairs(a) < count_pairs(b);
        });
    if (it == regions.end() || count_pairs(*it) <= 1) break;
    const Region victim = *it;
    regions.erase(it);
    for (const auto& child : split(victim)) regions.push_back(child);
  }

  // Largest-first into the lightest part (greedy makespan heuristic); ties
  // broken by region coordinates so the assignment is deterministic.
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) {
              const auto pa = count_pairs(a), pb = count_pairs(b);
              if (pa != pb) return pa > pb;
              return std::tie(a.row_begin, a.col_begin) <
                     std::tie(b.row_begin, b.col_begin);
            });
  std::vector<PairCount> load(parts, 0);
  for (const auto& region : regions) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    out[lightest].push_back(region);
    load[lightest] += count_pairs(region);
  }
  return out;
}

std::uint64_t working_set_size(const Region& r) {
  if (is_empty(r)) return 0;
  // Rows that contribute at least one pair: [row_begin, min(row_end, col_end-1)).
  const std::uint64_t row_lo = r.row_begin;
  const std::uint64_t row_hi =
      std::min<std::uint64_t>(r.row_end, r.col_end > 0 ? r.col_end - 1 : 0);
  // Columns that contribute: [max(col_begin, row_begin+1), col_end).
  const std::uint64_t col_lo = std::max<std::uint64_t>(r.col_begin, row_lo + 1);
  const std::uint64_t col_hi = r.col_end;
  const std::uint64_t rows = row_hi > row_lo ? row_hi - row_lo : 0;
  const std::uint64_t cols = col_hi > col_lo ? col_hi - col_lo : 0;
  // Overlap between the row range and column range counts once.
  const std::uint64_t overlap_lo = std::max(row_lo, col_lo);
  const std::uint64_t overlap_hi = std::min(row_hi, col_hi);
  const std::uint64_t overlap = overlap_hi > overlap_lo ? overlap_hi - overlap_lo : 0;
  return rows + cols - overlap;
}

}  // namespace rocket::dnc
