// Self-tests of the benchmark's own reference code and arithmetic. Not part
// of the repository's test suite; run with `python3 e2ebench/run.py
// --selftest` (see README). Exits 0 when every test passes.

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/rng.h"
#include "datagen/stats_gen.h"
#include "query/query.h"
#include "storage/table.h"
#include "trace.h"
#include "workload/workload_gen.h"

namespace e2ebench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// COUNT(*) by nested loops: tables are bound one at a time, in query order,
// and a row is kept only if every join edge to an already bound table holds.
uint64_t NestedLoopCount(const cardbench::Query& query,
                         const cardbench::Database& db, uint64_t mask) {
  const size_t n = query.tables.size();
  std::vector<const cardbench::Table*> tables(n);
  for (size_t t = 0; t < n; ++t) tables[t] = db.FindTable(query.tables[t]);
  std::vector<size_t> order;
  for (size_t t = 0; t < n; ++t) {
    if (mask >> t & 1) order.push_back(t);
  }
  std::vector<size_t> bound(n, 0);
  auto value_ok = [&](size_t t, size_t row) {
    for (const auto& pred : query.predicates) {
      if (pred.table != query.tables[t]) continue;
      const auto& col = tables[t]->ColumnByName(pred.column);
      if (!col.IsValid(row) ||
          !cardbench::EvalCompare(col.Get(row), pred.op, pred.value)) {
        return false;
      }
    }
    return true;
  };
  auto joins_ok = [&](size_t depth) {
    const size_t t = order[depth];
    for (const auto& join : query.joins) {
      const int l = query.TableIndex(join.left_table);
      const int r = query.TableIndex(join.right_table);
      int other = -1;
      std::string mine, theirs;
      if (l == static_cast<int>(t)) {
        other = r, mine = join.left_column, theirs = join.right_column;
      } else if (r == static_cast<int>(t)) {
        other = l, mine = join.right_column, theirs = join.left_column;
      } else {
        continue;
      }
      bool earlier = false;
      for (size_t d = 0; d < depth; ++d) earlier |= order[d] == static_cast<size_t>(other);
      if (!earlier) continue;
      const auto& a = tables[t]->ColumnByName(mine);
      const auto& b = tables[other]->ColumnByName(theirs);
      if (!a.IsValid(bound[t]) || !b.IsValid(bound[other]) ||
          a.Get(bound[t]) != b.Get(bound[other])) {
        return false;
      }
    }
    return true;
  };
  std::function<uint64_t(size_t)> rec = [&](size_t depth) -> uint64_t {
    if (depth == order.size()) return 1;
    const size_t t = order[depth];
    uint64_t total = 0;
    for (size_t row = 0; row < tables[t]->num_rows(); ++row) {
      if (!value_ok(t, row)) continue;
      bound[t] = row;
      if (joins_ok(depth)) total += rec(depth + 1);
    }
    return total;
  };
  return rec(0);
}

void TestCounterAgainstNestedLoops() {
  cardbench::StatsGenConfig config;
  config.scale = 0.01;
  config.seed = 7;
  const auto db = cardbench::GenerateStatsDatabase(config);
  cardbench::Rng rng(11);
  size_t checked = 0;
  for (int i = 0; i < 40; ++i) {
    const size_t num_tables = 2 + i % 3;
    auto tmpl = cardbench::RandomJoinTemplate(*db, rng, num_tables, true);
    if (!tmpl.ok()) continue;
    cardbench::Query query = *tmpl;
    cardbench::AddRandomPredicates(*db, rng, 1 + i % 3, query);
    const JoinTreeCounter counter(query, *db);
    if (!counter.error().empty()) continue;  // not a tree; counted elsewhere
    for (uint64_t mask : ConnectedSubsets(query.tables.size(), LocalEdges(query))) {
      bool overflow = false;
      const uint64_t fast = counter.Count(mask, &overflow);
      const uint64_t slow = NestedLoopCount(query, *db, mask);
      Expect(!overflow && fast == slow,
             "counter " + std::to_string(fast) + " vs nested loops " +
                 std::to_string(slow) + " on " + query.ToSql() + " mask " +
                 std::to_string(mask));
      ++checked;
    }
  }
  Expect(checked >= 40, "too few sub-plans compared: " + std::to_string(checked));

  cardbench::Query cyclic;
  cyclic.tables = {"users", "posts"};
  cyclic.joins = {{"posts", "OwnerUserId", "users", "Id"},
                  {"posts", "LastEditorUserId", "users", "Id"}};
  Expect(!JoinTreeCounter(cyclic, *db).error().empty(),
         "a two-edge join between two tables is not reported as a non-tree");
}

void TestEnumerator() {
  cardbench::Rng rng(3);
  for (size_t n = 1; n <= 10; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::pair<int, int>> edges;
      const size_t m = rng.NextUint64(2 * n);
      for (size_t k = 0; k < m; ++k) {
        const int a = static_cast<int>(rng.NextUint64(n));
        const int b = static_cast<int>(rng.NextUint64(n));
        if (a != b) edges.emplace_back(a, b);
      }
      Expect(ConnectedSubsets(n, edges) == ConnectedSubsetsBruteForce(n, edges),
             "enumerator differs from brute force at n=" + std::to_string(n));
    }
  }
  // A path a-b-c has 6 connected subsets: 3 singletons, ab, bc, abc.
  Expect(ConnectedSubsets(3, {{0, 1}, {1, 2}}) ==
             std::vector<uint64_t>({1, 2, 3, 4, 6, 7}),
         "path of three tables");
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
              uint32_t thread = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

void TestArithmetic() {
  Expect(Near(Percentile({1, 2, 3, 4}, 50), 2.5), "median of 1..4");
  Expect(Near(Percentile({5}, 99), 5), "percentile of one value");
  Expect(Near(Percentile({10, 0, 20}, 0), 0) && Near(Percentile({10, 0, 20}, 100), 20),
         "extreme percentiles");
  Expect(Near(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90), 10),
         "p90 of 1..11");
  Expect(Percentile({}, 50) == 0, "percentile of nothing");
  Expect(UnionLength({{0, 10}, {5, 15}, {20, 25}}) == 20, "union of overlaps");
  Expect(UnionLength({{0, 10}, {2, 3}}) == 10, "union of nested");

  // Parent [0,100) with children [10,30) and [20,50) (overlapping, from two
  // threads) and a grandchild inside the first child.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),      MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50, 1),   MakeSpan(4, 2, 12, 18),
      MakeSpan(5, 0, 120, 150),    MakeSpan(6, 0, 130, 140, 1)};
  const std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 60, "self time of the parent is 100 - 40");
  Expect(self[1] == 14, "self time of the first child is 20 - 6");
  Expect(self[2] == 30 && self[3] == 6 && self[4] == 30,
         "self time of leaves is their duration");
  // Pass window [0,200) on thread 0: top-level spans 1 and 5 cover 130;
  // span 6 runs on another thread and does not count.
  Expect(Residual(spans, 0, 0, 200) == 70, "residual of a pass");
  Expect(Residual(spans, 0, 110, 90) == 60, "residual of a later window");
}

void TestChecksRejectOneWrongValue() {
  Expect(CountMatches(42, 42.0) && !CountMatches(42, 43.0), "count check");
  Expect(PErrorAtLeastOne(1.0) && PErrorAtLeastOne(3.5) &&
             !PErrorAtLeastOne(0.999),
         "P-Error check");
  Expect(SameMaskSet({1, 2, 3}, {3, 1, 2}) && !SameMaskSet({1, 2, 3}, {1, 2, 5}),
         "mask set check");

  auto scan = [](uint64_t mask) {
    auto node = std::make_unique<cardbench::PlanNode>();
    node->type = cardbench::PlanNode::Type::kScan;
    node->table_mask = mask;
    return node;
  };
  auto join = [](std::unique_ptr<cardbench::PlanNode> l,
                 std::unique_ptr<cardbench::PlanNode> r) {
    auto node = std::make_unique<cardbench::PlanNode>();
    node->type = cardbench::PlanNode::Type::kJoin;
    node->table_mask = l->table_mask | r->table_mask;
    node->left = std::move(l);
    node->right = std::move(r);
    return node;
  };
  const auto good = join(join(scan(1), scan(2)), scan(4));
  const auto twice = join(join(scan(1), scan(2)), scan(2));
  const auto missing = join(scan(1), scan(2));
  Expect(PlanCoversEachTableOnce(*good, 3), "a good plan covers");
  Expect(!PlanCoversEachTableOnce(*twice, 3), "a plan with a table twice");
  Expect(!PlanCoversEachTableOnce(*missing, 3), "a plan missing a table");

  const std::map<uint64_t, double> served = {{1, 10.0}, {3, 2.5}};
  Expect(CardsBitIdentical(served, {1, 3}, {10.0, 2.5}), "identical cards");
  Expect(!CardsBitIdentical(served, {1, 3},
                            {10.0, std::nextafter(2.5, 3.0)}),
         "cards one ULP apart");
  Expect(!CardsBitIdentical(served, {1, 2}, {10.0, 2.5}), "cards on another mask");
  Expect(HitsPlusMissesEqual(3, 4, 7) && !HitsPlusMissesEqual(3, 4, 8),
         "hits plus misses check");

  cardbench::StatsGenConfig config;
  config.scale = 0.01;
  const auto a = cardbench::GenerateStatsDatabase(config);
  const auto b = cardbench::GenerateStatsDatabase(config);
  Expect(RowCountsMatch(*a, *b), "equal generations have equal row counts");
  cardbench::Table& users = b->TableOrDie("users");
  std::vector<std::optional<cardbench::Value>> row(users.num_columns());
  Expect(users.AppendRow(row).ok(), "append a row");
  Expect(!RowCountsMatch(*a, *b), "one extra row is detected");

  bool overflow = false;
  cardbench::Query single;
  single.tables = {"users"};
  const JoinTreeCounter counter(single, *a);
  Expect(CountMatches(counter.Count(1, &overflow),
                      static_cast<double>(a->TableOrDie("users").num_rows())),
         "a single-table count is the row count");
}

}  // namespace
}  // namespace e2ebench

int main() {
  cardbench::LogLevel() = 0;
  e2ebench::TestEnumerator();
  e2ebench::TestArithmetic();
  e2ebench::TestChecksRejectOneWrongValue();
  e2ebench::TestCounterAgainstNestedLoops();
  if (e2ebench::failures == 0) {
    std::printf("e2ebench self-tests passed\n");
    return 0;
  }
  std::printf("%d self-test failures\n", e2ebench::failures);
  return 1;
}
