#include "exec/true_card.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/str_util.h"
#include "storage/filter.h"

namespace cardbench {

namespace {

constexpr uint64_t Bit(int table) { return uint64_t{1} << table; }

}  // namespace

/// Count-only join-tree counter over one query (see the class comment of
/// TrueCardService). Tables are the query's, by local index; filtered rows
/// are computed on first use, so a call that hits the memo table scans
/// nothing. Not thread-safe: each call of the service owns one.
class TrueCardService::JoinTreeCounter {
 public:
  JoinTreeCounter(const Database& db, const Query& query);

  /// Exact count of the connected sub-plan `mask`, or nullopt when the
  /// counter cannot count it: `mask` is not a tree, the query has a
  /// self-join or an unresolvable name, or a product or sum overflows.
  std::optional<uint64_t> Count(uint64_t mask);

  /// Masks of the non-root joins of BuildCountingPlan's greedy order over
  /// the tree `mask`: its prefixes of 2 to |mask| - 1 tables.
  std::vector<uint64_t> GreedyJoinPrefixes(uint64_t mask);

 private:
  /// Join key -> number of join tuples of a subtree whose root row has that
  /// key; `overflow` marks a message whose weights did not fit uint64_t.
  struct Message {
    bool overflow = false;
    std::unordered_map<Value, uint64_t> weights;
  };
  /// One join edge seen from one endpoint.
  struct Incidence {
    int other = -1;                       ///< the other endpoint's index
    size_t directed = 0;                  ///< id of the message other -> this
    const Column* column = nullptr;       ///< this endpoint's join column
    const Column* other_column = nullptr; ///< the other endpoint's
  };

  const std::vector<uint32_t>& Rows(int table);
  bool IsTree(uint64_t mask) const;
  /// Tables of `mask` reachable from `start` inside `mask`.
  uint64_t Component(uint64_t mask, int start) const;
  /// The memoized message the subtree `subtree`, rooted at the table
  /// `edge.other`, sends over `edge` (an incidence of its parent).
  const Message& MessageOver(const Incidence& edge, uint64_t subtree);
  /// Calls sink(row, weight) for every filtered row of `table` with a
  /// non-zero weight in the tree `subtree` (which holds `table`): the
  /// product of the messages its neighbours in `subtree` send it. Returns
  /// false on overflow or when the sink does.
  template <typename Sink>
  bool WeighRows(int table, uint64_t subtree, Sink&& sink);

  const Query& query_;
  bool usable_ = true;
  std::vector<const Table*> tables_;
  std::vector<std::optional<std::vector<uint32_t>>> rows_;
  std::vector<uint64_t> adjacency_;
  std::vector<uint64_t> edge_masks_;
  std::vector<std::vector<Incidence>> incidences_;
  std::vector<std::unordered_map<uint64_t, Message>> messages_;
  std::unordered_map<uint64_t, std::optional<uint64_t>> counts_;
};

TrueCardService::JoinTreeCounter::JoinTreeCounter(const Database& db,
                                                  const Query& query)
    : query_(query),
      rows_(query.tables.size()),
      adjacency_(query.tables.size(), 0),
      incidences_(query.tables.size()) {
  for (size_t i = 0; i < query.tables.size(); ++i) {
    const Table* table = db.FindTable(query.tables[i]);
    // A self-join names one table twice; the executor path handles it.
    if (table == nullptr ||
        query.TableIndex(query.tables[i]) != static_cast<int>(i)) {
      usable_ = false;
    }
    tables_.push_back(table);
  }
  if (!usable_) return;
  for (const JoinEdge& edge : query.joins) {
    const int l = query.TableIndex(edge.left_table);
    const int r = query.TableIndex(edge.right_table);
    // Edges to tables outside the query join nothing (as in the executor).
    if (l < 0 || r < 0) continue;
    const auto lc = tables_[l]->FindColumn(edge.left_column);
    const auto rc = tables_[r]->FindColumn(edge.right_column);
    if (!lc || !rc) {
      usable_ = false;
      return;
    }
    const Column* left = &tables_[l]->column(*lc);
    const Column* right = &tables_[r]->column(*rc);
    const size_t directed = messages_.size();
    messages_.resize(directed + 2);
    // Message `directed` flows r -> l, message `directed + 1` flows l -> r.
    incidences_[l].push_back({r, directed, left, right});
    incidences_[r].push_back({l, directed + 1, right, left});
    adjacency_[l] |= Bit(r);
    adjacency_[r] |= Bit(l);
    edge_masks_.push_back(Bit(l) | Bit(r));
  }
}

const std::vector<uint32_t>& TrueCardService::JoinTreeCounter::Rows(
    int table) {
  if (!rows_[table]) {
    const Table& t = *tables_[table];
    const auto compiled =
        CompilePredicatesFor(t, query_.tables[table], query_.predicates);
    rows_[table].emplace();
    FilterRangeConjunction(compiled, 0, t.num_rows(), &*rows_[table]);
  }
  return *rows_[table];
}

bool TrueCardService::JoinTreeCounter::IsTree(uint64_t mask) const {
  if (mask == 0) return false;
  int edges = 0;
  for (uint64_t edge : edge_masks_) edges += (edge & mask) == edge;
  return edges == std::popcount(mask) - 1 &&
         Component(mask, std::countr_zero(mask)) == mask;
}

uint64_t TrueCardService::JoinTreeCounter::Component(uint64_t mask,
                                                     int start) const {
  uint64_t seen = Bit(start);
  uint64_t frontier = seen;
  while (frontier != 0) {
    uint64_t next = 0;
    for (uint64_t f = frontier; f != 0; f &= f - 1) {
      next |= adjacency_[std::countr_zero(f)];
    }
    frontier = next & mask & ~seen;
    seen |= frontier;
  }
  return seen;
}

template <typename Sink>
bool TrueCardService::JoinTreeCounter::WeighRows(int table, uint64_t subtree,
                                                 Sink&& sink) {
  struct Input {
    const Column* column;
    const std::unordered_map<Value, uint64_t>* weights;
  };
  std::vector<Input> inputs;
  const uint64_t rest = subtree & ~Bit(table);
  for (const Incidence& inc : incidences_[table]) {
    if ((rest & Bit(inc.other)) == 0) continue;
    const Message& message = MessageOver(inc, Component(rest, inc.other));
    if (message.overflow) return false;
    inputs.push_back({inc.column, &message.weights});
  }
  for (uint32_t row : Rows(table)) {
    uint64_t weight = 1;
    for (const Input& input : inputs) {
      // NULL keys join nothing.
      if (!input.column->IsValid(row)) {
        weight = 0;
        break;
      }
      const auto it = input.weights->find(input.column->Get(row));
      if (it == input.weights->end()) {
        weight = 0;
        break;
      }
      if (__builtin_mul_overflow(weight, it->second, &weight)) return false;
    }
    if (weight != 0 && !sink(row, weight)) return false;
  }
  return true;
}

const TrueCardService::JoinTreeCounter::Message&
TrueCardService::JoinTreeCounter::MessageOver(const Incidence& edge,
                                              uint64_t subtree) {
  auto& memo = messages_[edge.directed];
  if (auto it = memo.find(subtree); it != memo.end()) return it->second;
  const Column* key = edge.other_column;
  Message message;
  message.overflow =
      !WeighRows(edge.other, subtree, [&](uint32_t row, uint64_t weight) {
        if (!key->IsValid(row)) return true;
        uint64_t& sum = message.weights[key->Get(row)];
        return !__builtin_add_overflow(sum, weight, &sum);
      });
  return memo.emplace(subtree, std::move(message)).first->second;
}

std::optional<uint64_t> TrueCardService::JoinTreeCounter::Count(
    uint64_t mask) {
  if (auto it = counts_.find(mask); it != counts_.end()) return it->second;
  uint64_t total = 0;
  const bool ok = usable_ && IsTree(mask) &&
                  WeighRows(std::countr_zero(mask), mask,
                            [&](uint32_t, uint64_t weight) {
                              return !__builtin_add_overflow(total, weight,
                                                             &total);
                            });
  return counts_[mask] = ok ? std::optional<uint64_t>(total) : std::nullopt;
}

std::vector<uint64_t> TrueCardService::JoinTreeCounter::GreedyJoinPrefixes(
    uint64_t mask) {
  // Smallest filtered table among `candidates`; ties go to query order.
  auto smallest = [&](uint64_t candidates) {
    int best = -1;
    for (uint64_t c = candidates; c != 0; c &= c - 1) {
      const int t = std::countr_zero(c);
      if (best < 0 || Rows(t).size() < Rows(best).size()) best = t;
    }
    return best;
  };
  std::vector<uint64_t> prefixes;
  uint64_t joined = Bit(smallest(mask));
  uint64_t remaining = mask & ~joined;
  while (remaining != 0) {
    uint64_t frontier = 0;
    for (uint64_t j = joined; j != 0; j &= j - 1) {
      frontier |= adjacency_[std::countr_zero(j)];
    }
    const int next = smallest(frontier & remaining);
    joined |= Bit(next);
    remaining &= ~Bit(next);
    if (remaining != 0) prefixes.push_back(joined);
  }
  return prefixes;
}

TrueCardService::TrueCardService(const Database& db, ExecLimits limits,
                                 ExecOptions options)
    : db_(db), limits_(limits), executor_(db, limits, options) {}

double TrueCardService::FilteredBaseCard(const Query& query,
                                         const std::string& table_name) const {
  const Table& table = db_.TableOrDie(table_name);
  const auto compiled =
      CompilePredicatesFor(table, table_name, query.predicates);
  return static_cast<double>(
      CountRangeConjunction(compiled, 0, table.num_rows()));
}

std::unique_ptr<PlanNode> TrueCardService::BuildCountingPlan(
    const Query& query) const {
  auto make_scan = [&](const std::string& table) {
    auto scan = std::make_unique<PlanNode>();
    scan->type = PlanNode::Type::kScan;
    scan->table = table;
    scan->scan_method = ScanMethod::kSeqScan;
    for (const auto& pred : query.predicates) {
      if (pred.table == table) scan->filters.push_back(pred);
    }
    const int idx = query.TableIndex(table);
    scan->table_mask = uint64_t{1} << idx;
    return scan;
  };

  // Greedy left-deep order: start from the smallest filtered table, then
  // repeatedly attach the connected table with the smallest filtered
  // cardinality. Any order yields the same exact count; small-first keeps
  // intermediates manageable.
  std::vector<std::string> remaining = query.tables;
  std::string first = remaining[0];
  double best = std::numeric_limits<double>::max();
  for (const auto& t : remaining) {
    const double card = FilteredBaseCard(query, t);
    if (card < best) {
      best = card;
      first = t;
    }
  }
  std::unique_ptr<PlanNode> plan = make_scan(first);
  remaining.erase(std::find(remaining.begin(), remaining.end(), first));
  std::vector<std::string> joined = {first};

  while (!remaining.empty()) {
    // Pick the connected remaining table with the smallest filtered card.
    std::string next;
    double next_card = std::numeric_limits<double>::max();
    for (const auto& cand : remaining) {
      bool connected = false;
      for (const auto& edge : query.joins) {
        const bool touches_cand =
            edge.left_table == cand || edge.right_table == cand;
        if (!touches_cand) continue;
        const std::string& other =
            edge.left_table == cand ? edge.right_table : edge.left_table;
        if (std::find(joined.begin(), joined.end(), other) != joined.end()) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      const double card = FilteredBaseCard(query, cand);
      if (card < next_card) {
        next_card = card;
        next = cand;
      }
    }
    CARDBENCH_CHECK(!next.empty(), "query join graph disconnected: %s",
                    query.CanonicalKey().c_str());

    // Collect the edges connecting `next` to the joined set.
    std::vector<JoinEdge> connecting;
    for (const auto& edge : query.joins) {
      const bool next_left = edge.left_table == next;
      const bool next_right = edge.right_table == next;
      if (!next_left && !next_right) continue;
      const std::string& other = next_left ? edge.right_table : edge.left_table;
      if (std::find(joined.begin(), joined.end(), other) != joined.end()) {
        connecting.push_back(edge);
      }
    }
    CARDBENCH_CHECK(!connecting.empty(), "no connecting edge for %s",
                    next.c_str());

    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = JoinMethod::kHashJoin;
    join->edge = connecting[0];
    join->extra_edges.assign(connecting.begin() + 1, connecting.end());
    auto scan = make_scan(next);
    join->table_mask = plan->table_mask | scan->table_mask;
    join->left = std::move(plan);
    join->right = std::move(scan);
    plan = std::move(join);

    joined.push_back(next);
    remaining.erase(std::find(remaining.begin(), remaining.end(), next));
  }
  return plan;
}

Result<double> TrueCardService::CardOf(JoinTreeCounter& counter,
                                       const Query& sub,
                                       const std::string& key, uint64_t mask) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  uint64_t count = 0;
  bool counted = false;
  if (const std::optional<uint64_t> tree_count = counter.Count(mask)) {
    count = *tree_count;
    counted = true;
    for (uint64_t prefix : counter.GreedyJoinPrefixes(mask)) {
      const std::optional<uint64_t> rows = counter.Count(prefix);
      if (!rows) {
        counted = false;  // overflow: let the executor decide
        break;
      }
      if (*rows > limits_.max_intermediate_tuples) {
        return Status::OutOfRange(
            "true-cardinality computation exceeded limits: " + sub.ToSql());
      }
    }
  }
  if (!counted) {
    auto plan = BuildCountingPlan(sub);
    CARDBENCH_ASSIGN_OR_RETURN(ExecResult result,
                               executor_.ExecuteCount(*plan));
    if (result.timed_out) {
      return Status::OutOfRange(
          "true-cardinality computation exceeded limits: " + sub.ToSql());
    }
    count = result.count;
  }
  const double card = static_cast<double>(count);
  std::lock_guard<std::mutex> lock(mu_);
  cache_[key] = card;
  return card;
}

Result<double> TrueCardService::Card(const Query& query) {
  JoinTreeCounter counter(db_, query);
  return CardOf(counter, query, query.CanonicalKey(), query.FullMask());
}

Result<double> TrueCardService::Card(const QueryGraph& graph, uint64_t mask) {
  const std::string& key = graph.CanonicalKey(mask);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  return Card(graph.InducedRef(mask));
}

Result<std::unordered_map<uint64_t, double>> TrueCardService::AllSubplanCards(
    const Query& query) {
  JoinTreeCounter counter(db_, query);
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : EnumerateConnectedSubsets(query)) {
    const Query sub = query.Induced(mask);
    CARDBENCH_ASSIGN_OR_RETURN(double card,
                               CardOf(counter, sub, sub.CanonicalKey(), mask));
    cards[mask] = card;
  }
  return cards;
}

Result<std::unordered_map<uint64_t, double>> TrueCardService::AllSubplanCards(
    const QueryGraph& graph) {
  JoinTreeCounter counter(db_, graph.query());
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : graph.connected_subsets()) {
    CARDBENCH_ASSIGN_OR_RETURN(
        double card, CardOf(counter, graph.InducedRef(mask),
                            graph.CanonicalKey(mask), mask));
    cards[mask] = card;
  }
  return cards;
}

void TrueCardService::ImportFrom(const TrueCardService& other) {
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [key, card] : other.cache_) cache_[key] = card;
}

Status TrueCardService::SaveCache(const std::string& path) const {
  const std::string tmp = path + StrFormat(".%d.tmp", getpid());
  {
    std::ofstream out(tmp);
    if (!out) return Status::IOError("cannot open " + tmp);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, card] : cache_) {
      out << key << '\t' << StrFormat("%.17g", card) << '\n';
    }
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return Status::IOError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status TrueCardService::LoadCache(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::unordered_map<std::string, double> loaded;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    const size_t tab = line.rfind('\t');
    const auto card = tab == std::string::npos
                          ? Result<double>(Status::InvalidArgument("no tab"))
                          : ParseNumber<double>(
                                std::string_view(line).substr(tab + 1));
    if (!card.ok() || !std::isfinite(*card) || *card < 0 ||
        *card != std::floor(*card)) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: not a \"key<TAB>count\" line with a "
                    "non-negative integral count",
                    path.c_str(), line_no));
    }
    loaded[line.substr(0, tab)] = *card;
  }
  if (in.bad()) return Status::IOError("read failed: " + path);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, card] : loaded) cache_[key] = card;
  return Status::OK();
}

}  // namespace cardbench
