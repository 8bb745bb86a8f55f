#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "harness/bench_env.h"

namespace cardbench {
namespace {

BenchFlags SmokeFlags() {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 8;
  flags.exec_timeout = 10.0;
  flags.cache_dir = ::testing::TempDir() + "/cardbench_harness_cache";
  flags.training_queries = 100;
  return flags;
}

TEST(BenchFlagsTest, ParsesAllFlags) {
  const char* argv[] = {"prog",
                        "--fast",
                        "--scale=0.25",
                        "--max-queries=17",
                        "--exec-timeout=3.5",
                        "--estimators=PostgreSQL,FLAT",
                        "--training-queries=50",
                        "--seed=9"};
  const BenchFlags flags =
      ParseBenchFlags(8, const_cast<char**>(argv));
  EXPECT_TRUE(flags.fast);
  EXPECT_DOUBLE_EQ(flags.scale, 0.25);
  EXPECT_EQ(flags.max_queries, 17u);
  EXPECT_DOUBLE_EQ(flags.exec_timeout, 3.5);
  ASSERT_EQ(flags.estimators.size(), 2u);
  EXPECT_EQ(flags.estimators[1], "FLAT");
  EXPECT_EQ(flags.training_queries, 50u);
  EXPECT_EQ(flags.seed, 9u);
}

TEST(BenchFlagsTest, MalformedNumbersExitWithUsageError) {
  // Each used to be read in part ("12abc" as 12) or to abort with an
  // uncaught std::out_of_range.
  for (const char* arg :
       {"--scale=12abc", "--scale=nan", "--max-queries=-1",
        "--seed=99999999999999999999", "--verbose=", "--threads=abc"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(ParseBenchFlags(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), " must be ")
        << arg;
  }
}

TEST(BenchEnvTest, EndToEndSmoke) {
  const BenchFlags flags = SmokeFlags();
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  ASSERT_TRUE(env_result.ok()) << env_result.status().ToString();
  BenchEnv& env = **env_result;

  EXPECT_EQ(env.dataset_name(), "STATS");
  EXPECT_GT(env.query_contexts().size(), 0u);
  EXPECT_LE(env.query_contexts().size(), flags.max_queries);

  // Every context holds the full sub-plan card map and a positive
  // true-plan cost.
  for (const auto& ctx : env.query_contexts()) {
    EXPECT_EQ(ctx.true_cards.size(),
              EnumerateConnectedSubsets(*ctx.query).size());
    EXPECT_GT(ctx.true_plan_cost, 0.0);
  }

  // Oracle run: executes exactly, P-Error == 1 for every query.
  auto oracle = env.MakeNamedEstimator("TrueCard");
  ASSERT_TRUE(oracle.ok());
  const auto run = env.RunEstimator(**oracle);
  ASSERT_EQ(run.queries.size(), env.query_contexts().size());
  for (const auto& q : run.queries) {
    EXPECT_NEAR(q.p_error, 1.0, 1e-9) << q.query_name;
    EXPECT_FALSE(q.timed_out);
    // Oracle sub-plan Q-Errors are all exactly 1.
    for (double qe : q.subplan_qerrors) EXPECT_DOUBLE_EQ(qe, 1.0);
  }

  // A real estimator run: P-Error >= 1, inference time accounted.
  auto pg = env.MakeNamedEstimator("PostgreSQL");
  ASSERT_TRUE(pg.ok());
  const auto pg_run = env.RunEstimator(**pg);
  for (const auto& q : pg_run.queries) {
    EXPECT_GE(q.p_error, 1.0 - 1e-9);
    EXPECT_GE(q.plan_seconds, q.inference_seconds);
    EXPECT_GT(q.num_estimates, 0u);
  }
  EXPECT_GT(pg_run.EndToEndSeconds(), 0.0);
  EXPECT_FALSE(pg_run.AllQErrors().empty());
}

TEST(BenchEnvTest, TrueCardCachePersistsAcrossEnvs) {
  const BenchFlags flags = SmokeFlags();
  std::filesystem::remove_all(flags.cache_dir);
  {
    auto env = BenchEnv::Create(BenchDataset::kStats, flags);
    ASSERT_TRUE(env.ok());
  }
  // Second creation must find the cache file on disk.
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(flags.cache_dir)) {
    found |= entry.path().extension() == ".tsv";
  }
  EXPECT_TRUE(found);
  auto env = BenchEnv::Create(BenchDataset::kStats, flags);
  ASSERT_TRUE(env.ok());
  EXPECT_GT((*env)->truecard().cache_size(), 0u);
}

TEST(BenchEnvTest, CorruptTrueCardCacheIsRebuiltNotTrusted) {
  BenchFlags flags = SmokeFlags();
  flags.cache_dir = ::testing::TempDir() + "/cardbench_harness_corrupt_" +
                    std::to_string(getpid());
  std::filesystem::remove_all(flags.cache_dir);
  {
    auto env = BenchEnv::Create(BenchDataset::kStats, flags);
    ASSERT_TRUE(env.ok());
  }
  std::string path;
  for (const auto& entry :
       std::filesystem::directory_iterator(flags.cache_dir)) {
    if (entry.path().extension() == ".tsv") path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  // A torn value must not be read as 12.
  auto corrupt = [&] {
    std::ofstream(path, std::ios::app) << "T:users|J:|P:\t12abc\n";
  };
  corrupt();
  auto env = BenchEnv::Create(BenchDataset::kStats, flags);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_GT((*env)->truecard().cache_size(), 0u);
  TrueCardService reread((*env)->db());
  EXPECT_TRUE(reread.LoadCache(path).ok()) << "cache not rewritten";

  corrupt();
  EXPECT_EQ((*env)->training().size(), flags.training_queries);
  TrueCardService after_training((*env)->db());
  EXPECT_TRUE(after_training.LoadCache(path).ok()) << "cache not rewritten";
  std::filesystem::remove_all(flags.cache_dir);
}

}  // namespace
}  // namespace cardbench
