#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Reference computations and output checks of the benchmark. The counter
// and the sub-plan enumerator are written apart from the program: they read
// storage columns directly and share no code with src/exec, TrueCardService
// or QueryGraph.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace e2ebench {

/// Connected table subsets of a graph on `num_tables` vertices, grown from
/// each table by adding one join neighbour at a time; sorted ascending.
std::vector<uint64_t> ConnectedSubsets(
    size_t num_tables, const std::vector<std::pair<int, int>>& edges);

/// The same set by testing every one of the 2^n - 1 subsets with a
/// union-find; the self-tests' reference for ConnectedSubsets.
std::vector<uint64_t> ConnectedSubsetsBruteForce(
    size_t num_tables, const std::vector<std::pair<int, int>>& edges);

/// Local-index join edges of `query` (tables in query order).
std::vector<std::pair<int, int>> LocalEdges(const cardbench::Query& query);

/// Exact COUNT(*) of connected sub-plans of a query whose join graph is a
/// tree. Filters are applied once per table; a sub-plan is counted bottom-up
/// from the lowest-numbered table as root, each child folded into a
/// join key -> matching-row-count hash map. NULL keys join nothing and NULL
/// values fail every predicate.
class JoinTreeCounter {
 public:
  JoinTreeCounter(const cardbench::Query& query,
                  const cardbench::Database& db);

  /// Empty when the query is usable; otherwise why not (not a tree, an
  /// unknown name).
  const std::string& error() const { return error_; }

  /// Count of the sub-plan `mask` (must be connected). Sets *overflow when
  /// the count does not fit in 64 bits.
  uint64_t Count(uint64_t mask, bool* overflow) const;

 private:
  struct Edge {
    int a = -1, b = -1;
    const cardbench::Column* col_a = nullptr;
    const cardbench::Column* col_b = nullptr;
  };
  std::vector<uint64_t> RowWeights(int table, int parent, uint64_t mask,
                                   bool* overflow) const;

  std::string error_;
  std::vector<std::vector<uint32_t>> rows_;  // filtered row ids per table
  std::vector<Edge> edges_;
};

/// Check predicates; each returns true when the output is right.
bool CountMatches(uint64_t reference, double program);
/// P-Error of a plan is >= 1 when the true-cardinality plan is the DP
/// optimum under true cardinalities; 1e-9 absorbs recosting round-off.
bool PErrorAtLeastOne(double p_error);
bool SameMaskSet(std::vector<uint64_t> a, std::vector<uint64_t> b);
/// Every table of the query appears in exactly one leaf, and every join's
/// mask is the disjoint union of its children's.
bool PlanCoversEachTableOnce(const cardbench::PlanNode& plan,
                             size_t num_tables);
/// Same masks and the same doubles, bit for bit.
bool CardsBitIdentical(const std::map<uint64_t, double>& served,
                       const std::vector<uint64_t>& masks,
                       const std::vector<double>& direct);
bool HitsPlusMissesEqual(uint64_t hits, uint64_t misses, size_t masks);
/// Every table of `a` holds as many rows as the same table of `b`.
bool RowCountsMatch(const cardbench::Database& a, const cardbench::Database& b);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
