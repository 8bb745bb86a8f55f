#ifndef CARDBENCH_EXEC_TRUE_CARD_H_
#define CARDBENCH_EXEC_TRUE_CARD_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "exec/executor.h"
#include "query/query.h"
#include "query/query_graph.h"

namespace cardbench {

/// Computes and memoizes exact cardinalities of (sub-plan) queries. This
/// backs the TrueCard oracle baseline, the Q-Error/P-Error metrics, and the
/// training labels of the query-driven estimators.
///
/// Counts come from a count-only join-tree counter that materializes no join
/// result. Each table's filtered rows are scanned once per call. Each child
/// table then sends its parent a `join key -> summed weight` message, where a
/// row's weight is the number of join tuples of the child's subtree that it
/// heads. Messages are memoized per (child, parent, subtree mask), so all
/// connected sub-plans of a query share them. The counter reads no wall
/// clock; its cost is linear in the filtered rows per message.
///
/// The counter reproduces the executor's cut-off rule exactly: a sub-plan
/// is OutOfRange when a non-root join of BuildCountingPlan's greedy
/// left-deep order would output more than `max_intermediate_tuples` rows.
/// Sub-plans whose join graph is not a tree (cycles, or parallel edges
/// between two tables), queries with self-joins, and counts that overflow
/// uint64_t fall back to executing that counting plan.
class TrueCardService {
 public:
  explicit TrueCardService(const Database& db,
                           ExecLimits limits = DefaultLimits(),
                           ExecOptions options = ExecOptions());

  /// Exact COUNT(*) of `query` (which may be a sub-plan query). Cached by
  /// the query's canonical key. Returns OutOfRange under the cut-off rule
  /// above (or, on the executor fallback, when its wall clock runs out).
  /// Thread-safe: the memo table is synchronized and every call counts with
  /// its own counter, so concurrent uncached calls run in parallel.
  Result<double> Card(const Query& query);

  /// Exact COUNT(*) of the sub-plan of `graph` selected by the connected
  /// table subset `mask`. Memo-compatible with the Query overload: the key
  /// is the precomputed canonical key of the induced sub-query, so disk
  /// caches written by either path serve the other.
  Result<double> Card(const QueryGraph& graph, uint64_t mask);

  /// Exact cardinalities of every connected sub-plan of `query`, keyed by
  /// table-subset bitmask — the full sub-plan query space of §4.2. One
  /// counter serves every sub-plan. Each sub-plan is memoized under its own
  /// canonical key and obeys its own cut-off rule, exactly as if Card had
  /// been called on it; the first failing sub-plan's error is returned.
  Result<std::unordered_map<uint64_t, double>> AllSubplanCards(
      const Query& query);

  /// Same, over a compiled graph: the connected-subset enumeration and the
  /// per-mask canonical keys come precomputed from the graph.
  Result<std::unordered_map<uint64_t, double>> AllSubplanCards(
      const QueryGraph& graph);

  /// Builds the greedy left-deep hash-join counting plan: start from the
  /// smallest filtered table, then attach the smallest connected one (ties
  /// go to the earlier table in query order). The counter's fallback
  /// executes it; tests use it as the counter's reference.
  std::unique_ptr<PlanNode> BuildCountingPlan(const Query& query) const;

  /// Persists the memo table, one "key<TAB>card" line per entry, so
  /// repeated bench runs skip recomputation. Writes a temporary file next to
  /// `path` and renames it over `path`, so readers never see a torn file.
  Status SaveCache(const std::string& path) const;

  /// Merges a file written by SaveCache into the memo table. Every value
  /// must be a finite, non-negative integral number written in full. On any
  /// bad line the memo table is left unchanged and InvalidArgument is
  /// returned.
  Status LoadCache(const std::string& path);

  /// Copies every memoized cardinality from `other` (used to transfer
  /// results computed under different execution limits).
  void ImportFrom(const TrueCardService& other);

  size_t cache_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

  const Database& db() const { return db_; }

  static ExecLimits DefaultLimits() {
    ExecLimits limits;
    limits.timeout_seconds = 120.0;
    limits.max_intermediate_tuples = 50000000;
    return limits;
  }

 private:
  class JoinTreeCounter;

  /// Number of rows of `table` passing the filter predicates of `query`.
  double FilteredBaseCard(const Query& query, const std::string& table) const;

  /// Memoized exact count of the connected sub-plan `mask` of the counter's
  /// query; `sub` is that sub-plan as a query and `key` its canonical key.
  Result<double> CardOf(JoinTreeCounter& counter, const Query& sub,
                        const std::string& key, uint64_t mask);

  const Database& db_;
  ExecLimits limits_;
  Executor executor_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> cache_;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_TRUE_CARD_H_
