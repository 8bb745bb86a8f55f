#include "checks.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace e2ebench {

using cardbench::Column;
using cardbench::Database;
using cardbench::EvalCompare;
using cardbench::PlanNode;
using cardbench::Query;
using cardbench::Table;

std::vector<uint64_t> ConnectedSubsets(
    size_t num_tables, const std::vector<std::pair<int, int>>& edges) {
  std::vector<uint64_t> neighbours(num_tables, 0);
  for (const auto& [a, b] : edges) {
    neighbours[a] |= uint64_t{1} << b;
    neighbours[b] |= uint64_t{1} << a;
  }
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> stack;
  for (size_t t = 0; t < num_tables; ++t) stack.push_back(uint64_t{1} << t);
  while (!stack.empty()) {
    const uint64_t set = stack.back();
    stack.pop_back();
    if (!seen.insert(set).second) continue;
    uint64_t frontier = 0;
    for (size_t t = 0; t < num_tables; ++t) {
      if (set >> t & 1) frontier |= neighbours[t];
    }
    frontier &= ~set;
    for (size_t t = 0; t < num_tables; ++t) {
      if (frontier >> t & 1) stack.push_back(set | uint64_t{1} << t);
    }
  }
  std::vector<uint64_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint64_t> ConnectedSubsetsBruteForce(
    size_t num_tables, const std::vector<std::pair<int, int>>& edges) {
  std::vector<uint64_t> out;
  for (uint64_t mask = 1; mask < (uint64_t{1} << num_tables); ++mask) {
    std::vector<int> parent(num_tables);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const auto& [a, b] : edges) {
      if ((mask >> a & 1) && (mask >> b & 1)) parent[find(a)] = find(b);
    }
    int root = -1;
    bool connected = true;
    for (size_t t = 0; t < num_tables && connected; ++t) {
      if (!(mask >> t & 1)) continue;
      if (root < 0) root = find(static_cast<int>(t));
      connected = find(static_cast<int>(t)) == root;
    }
    if (connected) out.push_back(mask);
  }
  return out;
}

std::vector<std::pair<int, int>> LocalEdges(const Query& query) {
  std::vector<std::pair<int, int>> edges;
  for (const auto& join : query.joins) {
    edges.emplace_back(query.TableIndex(join.left_table),
                       query.TableIndex(join.right_table));
  }
  return edges;
}

JoinTreeCounter::JoinTreeCounter(const Query& query, const Database& db) {
  const size_t n = query.tables.size();
  std::vector<const Table*> tables(n, nullptr);
  for (size_t t = 0; t < n; ++t) {
    tables[t] = db.FindTable(query.tables[t]);
    if (tables[t] == nullptr) {
      error_ = "unknown table " + query.tables[t];
      return;
    }
  }
  auto column_of = [&](int t, const std::string& name) -> const Column* {
    if (t < 0) return nullptr;
    auto idx = tables[t]->FindColumn(name);
    return idx ? &tables[t]->column(*idx) : nullptr;
  };
  for (const auto& join : query.joins) {
    Edge e;
    e.a = query.TableIndex(join.left_table);
    e.b = query.TableIndex(join.right_table);
    e.col_a = column_of(e.a, join.left_column);
    e.col_b = column_of(e.b, join.right_column);
    if (e.col_a == nullptr || e.col_b == nullptr) {
      error_ = "unresolved join " + join.ToString();
      return;
    }
    edges_.push_back(e);
  }
  std::vector<std::pair<int, int>> pairs;
  for (const Edge& e : edges_) pairs.emplace_back(e.a, e.b);
  const uint64_t full = (uint64_t{1} << n) - 1;
  const auto subsets = ConnectedSubsetsBruteForce(n, pairs);
  if (edges_.size() + 1 != n ||
      !std::binary_search(subsets.begin(), subsets.end(), full)) {
    error_ = "join graph of " + query.name + " is not a tree";
    return;
  }
  rows_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    struct Filter {
      const Column* column;
      cardbench::CompareOp op;
      cardbench::Value value;
    };
    std::vector<Filter> filters;
    for (const auto& pred : query.predicates) {
      if (pred.table != query.tables[t]) continue;
      const Column* column = column_of(static_cast<int>(t), pred.column);
      if (column == nullptr) {
        error_ = "unresolved predicate " + pred.ToString();
        return;
      }
      filters.push_back({column, pred.op, pred.value});
    }
    const size_t num_rows = tables[t]->num_rows();
    for (size_t r = 0; r < num_rows; ++r) {
      bool keep = true;
      for (const Filter& f : filters) {
        if (!f.column->IsValid(r) ||
            !EvalCompare(f.column->Get(r), f.op, f.value)) {
          keep = false;
          break;
        }
      }
      if (keep) rows_[t].push_back(static_cast<uint32_t>(r));
    }
  }
}

std::vector<uint64_t> JoinTreeCounter::RowWeights(int table, int parent,
                                                  uint64_t mask,
                                                  bool* overflow) const {
  const std::vector<uint32_t>& rows = rows_[table];
  std::vector<uint64_t> weights(rows.size(), 1);
  for (const Edge& e : edges_) {
    int child = -1;
    const Column* mine = nullptr;
    const Column* theirs = nullptr;
    if (e.a == table) {
      child = e.b, mine = e.col_a, theirs = e.col_b;
    } else if (e.b == table) {
      child = e.a, mine = e.col_b, theirs = e.col_a;
    } else {
      continue;
    }
    if (child == parent || !(mask >> child & 1)) continue;
    const std::vector<uint64_t> child_weights =
        RowWeights(child, table, mask, overflow);
    std::unordered_map<cardbench::Value, uint64_t> by_key;
    by_key.reserve(child_weights.size());
    const std::vector<uint32_t>& child_rows = rows_[child];
    for (size_t i = 0; i < child_rows.size(); ++i) {
      if (child_weights[i] == 0 || !theirs->IsValid(child_rows[i])) continue;
      uint64_t& slot = by_key[theirs->Get(child_rows[i])];
      if (__builtin_add_overflow(slot, child_weights[i], &slot)) {
        *overflow = true;
      }
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (weights[i] == 0) continue;
      uint64_t factor = 0;
      if (mine->IsValid(rows[i])) {
        auto it = by_key.find(mine->Get(rows[i]));
        if (it != by_key.end()) factor = it->second;
      }
      if (__builtin_mul_overflow(weights[i], factor, &weights[i])) {
        *overflow = true;
      }
    }
  }
  return weights;
}

uint64_t JoinTreeCounter::Count(uint64_t mask, bool* overflow) const {
  *overflow = false;
  if (mask == 0 || !error_.empty()) return 0;
  const int root = std::countr_zero(mask);
  uint64_t total = 0;
  for (uint64_t w : RowWeights(root, -1, mask, overflow)) {
    if (__builtin_add_overflow(total, w, &total)) *overflow = true;
  }
  return total;
}

bool CountMatches(uint64_t reference, double program) {
  return static_cast<double>(reference) == program;
}

bool PErrorAtLeastOne(double p_error) { return p_error >= 1.0 - 1e-9; }

bool SameMaskSet(std::vector<uint64_t> a, std::vector<uint64_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

namespace {
bool Covers(const PlanNode& node, uint64_t* seen, uint64_t* mask_out) {
  if (node.IsScan()) {
    if (std::popcount(node.table_mask) != 1 || (*seen & node.table_mask)) {
      return false;
    }
    *seen |= node.table_mask;
    *mask_out = node.table_mask;
    return true;
  }
  if (node.left == nullptr || node.right == nullptr) return false;
  uint64_t left = 0, right = 0;
  if (!Covers(*node.left, seen, &left) || !Covers(*node.right, seen, &right)) {
    return false;
  }
  *mask_out = left | right;
  return (left & right) == 0 && node.table_mask == *mask_out;
}
}  // namespace

bool PlanCoversEachTableOnce(const PlanNode& plan, size_t num_tables) {
  uint64_t seen = 0, mask = 0;
  const uint64_t full = (uint64_t{1} << num_tables) - 1;
  return Covers(plan, &seen, &mask) && seen == full && mask == full;
}

bool CardsBitIdentical(const std::map<uint64_t, double>& served,
                       const std::vector<uint64_t>& masks,
                       const std::vector<double>& direct) {
  if (served.size() != masks.size() || masks.size() != direct.size()) {
    return false;
  }
  for (size_t i = 0; i < masks.size(); ++i) {
    auto it = served.find(masks[i]);
    if (it == served.end()) return false;
    if (std::bit_cast<uint64_t>(it->second) !=
        std::bit_cast<uint64_t>(direct[i])) {
      return false;
    }
  }
  return true;
}

bool HitsPlusMissesEqual(uint64_t hits, uint64_t misses, size_t masks) {
  return hits + misses == masks;
}

bool RowCountsMatch(const Database& a, const Database& b) {
  if (a.table_names() != b.table_names()) return false;
  for (const auto& name : a.table_names()) {
    if (a.TableOrDie(name).num_rows() != b.TableOrDie(name).num_rows()) {
      return false;
    }
  }
  return true;
}

}  // namespace e2ebench
