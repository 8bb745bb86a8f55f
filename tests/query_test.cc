#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "query/parser.h"
#include "query/query.h"

namespace cardbench {
namespace {

Query ThreeTableChain() {
  // a -(x)- b -(y)- c
  Query q;
  q.tables = {"a", "b", "c"};
  q.joins = {{"a", "x", "b", "x"}, {"b", "y", "c", "y"}};
  q.predicates = {{"a", "v", CompareOp::kGt, 5}, {"c", "w", CompareOp::kEq, 1}};
  return q;
}

TEST(QueryTest, TableIndex) {
  const Query q = ThreeTableChain();
  EXPECT_EQ(q.TableIndex("a"), 0);
  EXPECT_EQ(q.TableIndex("c"), 2);
  EXPECT_EQ(q.TableIndex("zzz"), -1);
}

TEST(QueryTest, ConnectivityOfChain) {
  const Query q = ThreeTableChain();
  EXPECT_TRUE(q.IsConnected(0b111));
  EXPECT_TRUE(q.IsConnected(0b011));  // a-b
  EXPECT_TRUE(q.IsConnected(0b110));  // b-c
  EXPECT_FALSE(q.IsConnected(0b101));  // a, c not adjacent
  EXPECT_TRUE(q.IsConnected(0b001));
  EXPECT_FALSE(q.IsConnected(0));
}

TEST(QueryTest, EnumerateConnectedSubsetsOfChain) {
  const Query q = ThreeTableChain();
  const auto subsets = EnumerateConnectedSubsets(q);
  // 3 singletons + {ab} + {bc} + {abc} = 6 (not {ac}).
  EXPECT_EQ(subsets.size(), 6u);
  // Popcount-ordered.
  EXPECT_EQ(std::popcount(subsets.front()), 1);
  EXPECT_EQ(subsets.back(), q.FullMask());
}

TEST(QueryTest, InducedSubqueryKeepsInsideEdgesAndPredicates) {
  const Query q = ThreeTableChain();
  const Query sub = q.Induced(0b011);  // {a, b}
  EXPECT_EQ(sub.tables.size(), 2u);
  ASSERT_EQ(sub.joins.size(), 1u);
  EXPECT_EQ(sub.joins[0].left_table, "a");
  ASSERT_EQ(sub.predicates.size(), 1u);
  EXPECT_EQ(sub.predicates[0].table, "a");
}

TEST(QueryTest, CanonicalKeyIsOrderInvariant) {
  Query q1 = ThreeTableChain();
  Query q2 = ThreeTableChain();
  std::swap(q2.tables[0], q2.tables[2]);
  std::swap(q2.predicates[0], q2.predicates[1]);
  std::swap(q2.joins[0], q2.joins[1]);
  EXPECT_EQ(q1.CanonicalKey(), q2.CanonicalKey());
}

TEST(QueryTest, CanonicalKeyDistinguishesPredicates) {
  Query q1 = ThreeTableChain();
  Query q2 = ThreeTableChain();
  q2.predicates[0].value = 6;
  EXPECT_NE(q1.CanonicalKey(), q2.CanonicalKey());
}

TEST(ParserTest, ParsesJoinQuery) {
  const auto result = ParseSql(
      "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = comments.PostId "
      "AND posts.Score >= 3 AND comments.Score < 5;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = *result;
  EXPECT_EQ(q.tables.size(), 2u);
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].ToString(), "posts.Id = comments.PostId");
  ASSERT_EQ(q.predicates.size(), 2u);
  EXPECT_EQ(q.predicates[0].op, CompareOp::kGe);
  EXPECT_EQ(q.predicates[1].op, CompareOp::kLt);
  EXPECT_EQ(q.predicates[1].value, 5);
}

TEST(ParserTest, ParsesSingleTableNoWhere) {
  const auto result = ParseSql("SELECT COUNT(*) FROM users;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tables.size(), 1u);
  EXPECT_TRUE(result->joins.empty());
  EXPECT_TRUE(result->predicates.empty());
}

TEST(ParserTest, ParsesNegativeLiteralsAndNeq) {
  const auto result = ParseSql(
      "SELECT COUNT(*) FROM posts WHERE posts.Score >= -2 AND "
      "posts.PostTypeId <> 3;");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->predicates[0].value, -2);
  EXPECT_EQ(result->predicates[1].op, CompareOp::kNeq);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSql("select count ( * ) from users;").ok());
}

TEST(ParserTest, RejectsNonEquiJoin) {
  const auto result = ParseSql(
      "SELECT COUNT(*) FROM a, b WHERE a.x < b.y;");
  EXPECT_FALSE(result.ok());
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSql("DELETE FROM users;").ok());
  EXPECT_FALSE(ParseSql("SELECT COUNT(*) FROM a WHERE a.x ==;").ok());
}

TEST(ParserTest, OutOfRangeLiteralIsInvalidArgument) {
  const auto result = ParseSql(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= "
      "99999999999999999999;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The extremes of the value domain still parse.
  const auto extreme = ParseSql(
      "SELECT COUNT(*) FROM users WHERE users.Reputation >= "
      "9223372036854775807 AND users.Views > -9223372036854775807;");
  ASSERT_TRUE(extreme.ok()) << extreme.status().ToString();
  EXPECT_EQ(extreme->predicates[0].value, std::numeric_limits<Value>::max());
  EXPECT_EQ(extreme->predicates[1].value, -std::numeric_limits<Value>::max());
}

TEST(ParserTest, RoundTripThroughToSql) {
  const auto original = ParseSql(
      "SELECT COUNT(*) FROM posts, comments WHERE posts.Id = comments.PostId "
      "AND posts.Score >= 3;");
  ASSERT_TRUE(original.ok());
  const auto reparsed = ParseSql(original->ToSql());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(original->CanonicalKey(), reparsed->CanonicalKey());
}

TEST(ValueRangeTest, FoldsConjunctions) {
  ValueRange range;
  range.Apply(CompareOp::kGe, 3);
  range.Apply(CompareOp::kLt, 10);
  EXPECT_EQ(range.lo, 3);
  EXPECT_EQ(range.hi, 9);
  EXPECT_TRUE(range.Contains(3));
  EXPECT_TRUE(range.Contains(9));
  EXPECT_FALSE(range.Contains(10));
  range.Apply(CompareOp::kEq, 20);
  EXPECT_TRUE(range.Empty());
}

}  // namespace
}  // namespace cardbench
