// Parity suite for TrueCardService's join-tree counter: every count it
// returns must equal the count of executing BuildCountingPlan on the same
// sub-plan, and it must cut off (OutOfRange) exactly where that execution
// reports a timeout.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "datagen/imdb_gen.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "workload/workload_gen.h"

namespace cardbench {
namespace {

/// Limits under which the reference execution never hits its wall clock.
ExecLimits NoClock(size_t max_intermediate_tuples) {
  ExecLimits limits;
  limits.timeout_seconds = 3600.0;
  limits.max_intermediate_tuples = max_intermediate_tuples;
  return limits;
}

class TrueCardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig sc;
    sc.scale = 0.05;
    stats_ = GenerateStatsDatabase(sc).release();
    ImdbGenConfig ic;
    ic.scale = 0.05;
    imdb_ = GenerateImdbDatabase(ic).release();
    stats_queries_ = new std::vector<Query>(
        MakeWorkload(*stats_, WorkloadOptions::StatsCeb(), 40));
    imdb_queries_ = new std::vector<Query>(
        MakeWorkload(*imdb_, WorkloadOptions::JobLight(), 30));
  }
  static void TearDownTestSuite() {
    delete imdb_queries_;
    delete stats_queries_;
    delete imdb_;
    delete stats_;
  }

  static std::vector<Query> MakeWorkload(const Database& db,
                                         WorkloadOptions options,
                                         size_t num_queries) {
    options.num_queries = num_queries;
    options.num_templates = 20;
    options.max_true_card *= 0.05;
    TrueCardService service(db);
    auto workload = GenerateWorkload(db, service, "parity", options);
    EXPECT_TRUE(workload.ok()) << workload.status().ToString();
    EXPECT_EQ(workload->queries.size(), num_queries);
    return workload->queries;
  }

  /// The reference: executing the counting plan, or nullopt on a timeout.
  static std::optional<uint64_t> Execute(const Database& db,
                                         const Query& query,
                                         ExecLimits limits) {
    const TrueCardService planner(db);
    const Executor executor(db, limits);
    auto result = executor.ExecuteCount(*planner.BuildCountingPlan(query));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result->timed_out) return std::nullopt;
    return result->count;
  }

  /// Every connected sub-plan of every query, counted by a cold service
  /// both ways, must agree.
  static void ExpectSubplanParity(const Database& db,
                                  const std::vector<Query>& queries) {
    TrueCardService service(db);
    size_t subplans = 0;
    for (const Query& query : queries) {
      const QueryGraph graph(query, db);
      auto cards = service.AllSubplanCards(graph);
      ASSERT_TRUE(cards.ok()) << cards.status().ToString();
      ASSERT_EQ(cards->size(), graph.connected_subsets().size());
      for (uint64_t mask : graph.connected_subsets()) {
        const Query& sub = graph.InducedRef(mask);
        const auto expected =
            Execute(db, sub, TrueCardService::DefaultLimits());
        ASSERT_TRUE(expected.has_value()) << sub.ToSql();
        EXPECT_EQ(cards->at(mask), static_cast<double>(*expected))
            << sub.ToSql();
        ++subplans;
      }
    }
    EXPECT_GT(subplans, queries.size());
  }

  static Database* stats_;
  static Database* imdb_;
  static std::vector<Query>* stats_queries_;
  static std::vector<Query>* imdb_queries_;
};

Database* TrueCardTest::stats_ = nullptr;
Database* TrueCardTest::imdb_ = nullptr;
std::vector<Query>* TrueCardTest::stats_queries_ = nullptr;
std::vector<Query>* TrueCardTest::imdb_queries_ = nullptr;

TEST_F(TrueCardTest, StatsCebSubplansMatchExecutor) {
  ExpectSubplanParity(*stats_, *stats_queries_);
}

TEST_F(TrueCardTest, JobLightSubplansMatchExecutor) {
  ExpectSubplanParity(*imdb_, *imdb_queries_);
}

TEST_F(TrueCardTest, TrainingLabelsMatchExecutor) {
  const ExecLimits limits = NoClock(20000000);
  TrueCardService service(*stats_, limits);
  auto training = GenerateTrainingQueries(*stats_, service, 150, 2028);
  ASSERT_TRUE(training.ok()) << training.status().ToString();
  ASSERT_EQ(training->size(), 150u);
  for (const TrainingQuery& labelled : *training) {
    const auto expected = Execute(*stats_, labelled.query, limits);
    ASSERT_TRUE(expected.has_value()) << labelled.query.ToSql();
    EXPECT_EQ(labelled.cardinality, static_cast<double>(*expected))
        << labelled.query.ToSql();
  }
}

TEST_F(TrueCardTest, NonTreeJoinGraphsFallBackToExecutor) {
  // A triangle (cycle) and two parallel edges between the same two tables:
  // neither is a join tree, so both are counted by executing the plan. Their
  // tree-shaped sub-plans still go through the counter.
  const char* kSql[] = {
      "SELECT COUNT(*) FROM users, posts, comments WHERE "
      "posts.OwnerUserId = users.Id AND comments.PostId = posts.Id AND "
      "comments.UserId = users.Id AND users.Reputation >= 2;",
      "SELECT COUNT(*) FROM users, posts WHERE posts.OwnerUserId = users.Id "
      "AND posts.LastEditorUserId = users.Id;",
  };
  for (const char* sql : kSql) {
    auto query = ParseSql(sql);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    TrueCardService service(*stats_);
    auto card = service.Card(*query);
    ASSERT_TRUE(card.ok()) << card.status().ToString();
    const auto expected =
        Execute(*stats_, *query, TrueCardService::DefaultLimits());
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(*card, static_cast<double>(*expected)) << sql;
    EXPECT_GT(*card, 0.0) << sql;

    TrueCardService cold(*stats_);
    auto cards = cold.AllSubplanCards(*query);
    ASSERT_TRUE(cards.ok()) << cards.status().ToString();
    for (const auto& [mask, sub_card] : *cards) {
      const Query sub = query->Induced(mask);
      const auto sub_expected =
          Execute(*stats_, sub, TrueCardService::DefaultLimits());
      ASSERT_TRUE(sub_expected.has_value());
      EXPECT_EQ(sub_card, static_cast<double>(*sub_expected)) << sub.ToSql();
    }
  }
}

TEST_F(TrueCardTest, CutOffMatchesExecutorTimeouts) {
  // A cap small enough to cut off part of the workload's sub-plans: the
  // counter must report OutOfRange for exactly those, and exact counts for
  // the rest.
  for (size_t cap : {size_t{50}, size_t{2000}}) {
    const ExecLimits limits = NoClock(cap);
    TrueCardService service(*stats_, limits);
    size_t cut = 0;
    size_t counted = 0;
    for (const Query& query : *stats_queries_) {
      const QueryGraph graph(query, *stats_);
      for (uint64_t mask : graph.connected_subsets()) {
        const Query& sub = graph.InducedRef(mask);
        const auto expected = Execute(*stats_, sub, limits);
        auto card = service.Card(sub);
        if (expected.has_value()) {
          ASSERT_TRUE(card.ok()) << sub.ToSql();
          EXPECT_EQ(*card, static_cast<double>(*expected)) << sub.ToSql();
          ++counted;
        } else {
          ASSERT_FALSE(card.ok()) << sub.ToSql();
          EXPECT_EQ(card.status().code(), StatusCode::kOutOfRange);
          ++cut;
        }
      }
    }
    EXPECT_GT(cut, 0u) << "cap " << cap;
    EXPECT_GT(counted, 0u) << "cap " << cap;
  }
}

TEST_F(TrueCardTest, CutOffIsExactAtTheLargestIntermediate) {
  // The largest non-root join output of the counting plan is the smallest
  // cap that lets the query through: at that cap it counts, one below it is
  // cut off.
  size_t checked = 0;
  for (const Query& query : *stats_queries_) {
    if (query.tables.size() < 3) continue;
    const TrueCardService planner(*stats_);
    const Executor executor(*stats_, NoClock(1000000000));
    auto result =
        executor.ExecuteCount(*planner.BuildCountingPlan(query), true);
    ASSERT_TRUE(result.ok());
    uint64_t largest = 0;
    for (const auto& [mask, rows] : result->actual_rows) {
      const int tables = std::popcount(mask);
      if (tables >= 2 && mask != query.FullMask()) {
        largest = std::max(largest, static_cast<uint64_t>(rows));
      }
    }
    if (largest == 0) continue;
    TrueCardService at_cap(*stats_, NoClock(largest));
    auto card = at_cap.Card(query);
    ASSERT_TRUE(card.ok()) << query.ToSql();
    EXPECT_EQ(*card, static_cast<double>(result->count));
    TrueCardService below_cap(*stats_, NoClock(largest - 1));
    EXPECT_EQ(below_cap.Card(query).status().code(), StatusCode::kOutOfRange)
        << query.ToSql();
    ++checked;
  }
  EXPECT_GT(checked, 5u);
}

/// A hand-made database whose counts are known: `a`, `b` and `c` have three
/// rows each, `a.k` and `b.k` all hold 1 (a 9-row join) while `b.j` and
/// `c.j` are distinct (a 3-row join); `n0.k` and `n1.k` mix NULLs with
/// values equal to the zero stored under a NULL.
std::unique_ptr<Database> TinyDatabase() {
  auto db = std::make_unique<Database>("tiny");
  auto add = [&](const std::string& name, std::vector<std::string> columns,
                 std::vector<std::vector<std::optional<Value>>> rows) {
    Table* table = *db->AddTable(name);
    for (const auto& column : columns) {
      EXPECT_TRUE(table->AddColumn(column, ColumnKind::kKey).ok());
    }
    for (const auto& row : rows) EXPECT_TRUE(table->AppendRow(row).ok());
  };
  add("a", {"k"}, {{1}, {1}, {1}});
  add("b", {"k", "j"}, {{1, 1}, {1, 2}, {1, 3}});
  add("c", {"j"}, {{1}, {2}, {3}});
  add("n0", {"k"}, {{0}, {std::nullopt}, {1}});
  add("n1", {"k"}, {{0}, {0}, {std::nullopt}, {1}});
  return db;
}

TEST(TrueCardTinyTest, GreedyTiesGoToTheEarlierTable) {
  // a, b and c tie on size, so the greedy order starts from a and its first
  // join is a-b (9 rows). Starting from c instead would join c-b (3 rows)
  // first and never exceed a cap of 5.
  const auto db = TinyDatabase();
  auto query = ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE a.k = b.k AND b.j = c.j;");
  ASSERT_TRUE(query.ok());
  TrueCardService capped(*db, NoClock(5));
  EXPECT_EQ(capped.Card(*query).status().code(), StatusCode::kOutOfRange);
  TrueCardService at_cap(*db, NoClock(9));
  auto card = at_cap.Card(*query);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(*card, 9.0);
}

TEST(TrueCardTinyTest, NullKeysJoinNothing) {
  const auto db = TinyDatabase();
  for (const char* sql :
       {"SELECT COUNT(*) FROM n0, n1 WHERE n0.k = n1.k;",
        "SELECT COUNT(*) FROM n1, n0 WHERE n1.k = n0.k;"}) {
    auto query = ParseSql(sql);
    ASSERT_TRUE(query.ok());
    TrueCardService service(*db);
    auto card = service.Card(*query);
    ASSERT_TRUE(card.ok());
    EXPECT_EQ(*card, 3.0) << sql;
  }
}

TEST_F(TrueCardTest, ConcurrentCallsOnOneServiceAgree) {
  std::vector<std::unordered_map<uint64_t, double>> expected;
  {
    TrueCardService serial(*stats_);
    for (const Query& query : *stats_queries_) {
      auto cards = serial.AllSubplanCards(query);
      ASSERT_TRUE(cards.ok());
      expected.push_back(*cards);
    }
  }
  TrueCardService shared(*stats_);
  std::vector<std::thread> threads;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < stats_queries_->size(); ++i) {
        // Stagger the threads so some race on the same uncached keys.
        const size_t q = (i + t * 3) % stats_queries_->size();
        const Query& query = (*stats_queries_)[q];
        if ((i + t) % 2 == 0) {
          auto card = shared.Card(query);
          if (!card.ok() || *card != expected[q].at(query.FullMask())) {
            ++mismatches;
          }
        } else {
          const QueryGraph graph(query, *stats_);
          auto cards = shared.AllSubplanCards(graph);
          if (!cards.ok() || *cards != expected[q]) ++mismatches;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

class TrueCardCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StatsGenConfig sc;
    sc.scale = 0.02;
    db_ = GenerateStatsDatabase(sc);
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("cardbench_true_card_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path) << text;
    return path;
  }

  std::unique_ptr<Database> db_;
  std::filesystem::path dir_;
};

TEST_F(TrueCardCacheTest, SaveLoadRoundTrip) {
  TrueCardService service(*db_);
  auto query = ParseSql(
      "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = "
      "comments.PostId AND comments.Score >= 1;");
  ASSERT_TRUE(query.ok());
  auto cards = service.AllSubplanCards(*query);
  ASSERT_TRUE(cards.ok());
  const std::string path = (dir_ / "cache.tsv").string();
  ASSERT_TRUE(service.SaveCache(path).ok());
  // No temporary file is left next to the cache.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);

  TrueCardService reloaded(*db_);
  ASSERT_TRUE(reloaded.LoadCache(path).ok());
  EXPECT_EQ(reloaded.cache_size(), service.cache_size());
  auto again = reloaded.AllSubplanCards(*query);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *cards);
}

TEST_F(TrueCardCacheTest, RejectsBadValuesAndLeavesMemoUnchanged) {
  const std::string good = "T:a|J:|P:\t12\n";
  for (const std::string bad :
       {"T:b|J:|P:\tnot-a-number\n", "T:b|J:|P:\t12abc\n",
        "T:b|J:|P:\t-3\n", "T:b|J:|P:\t2.5\n", "T:b|J:|P:\tinf\n",
        "T:b|J:|P:\tnan\n", "T:b|J:|P:\t\n", "no tab at all\n",
        "T:b|J:|P:\t 7\n"}) {
    TrueCardService service(*db_);
    ASSERT_TRUE(service.LoadCache(Write("good.tsv", good)).ok());
    ASSERT_EQ(service.cache_size(), 1u);
    const Status status =
        service.LoadCache(Write("bad.tsv", "T:c|J:|P:\t5\n" + bad));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(service.cache_size(), 1u) << bad;
  }
  TrueCardService service(*db_);
  EXPECT_EQ(service.LoadCache((dir_ / "missing.tsv").string()).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace cardbench
