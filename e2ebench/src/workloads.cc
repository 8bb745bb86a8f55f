#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cardest/registry.h"
#include "cardest/truecard_est.h"
#include "checks.h"
#include "common/rng.h"
#include "datagen/stats_gen.h"
#include "datagen/streaming_feed.h"
#include "datagen/update_split.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "metrics/metrics.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "service/estimation_service.h"
#include "trace.h"
#include "workload/workload_gen.h"

namespace e2ebench {
namespace {

using cardbench::Database;
using cardbench::Query;
using cardbench::QueryGraph;

// Every workload runs on one STATS instance and one STATS-CEB workload:
// the generators' seed is the repository's default (every bench binary
// uses 2021), and --seed drives the order and timing of the operations.
// With seed-driven data the heaviest queries change from seed to seed, and
// over five seeds throughput and latency spread by 47-69% (quartile
// distance over median), more than any regression bound could absorb.
constexpr uint64_t kDataSeed = 2021;
// STATS scale factor (1.0 ~ 1/10 of the real STATS) and the number of
// executed (query, cardinality) pairs the query-driven estimators train on.
// Both are sized so that a cold set-up of stats-ceb-e2e takes about 20 s
// on a 4-vCPU host: the benchmark is run 48 times per comparison.
constexpr double kScale = 0.5;
constexpr size_t kTrainingQueries = 1000;
// serve-refresh: service workers and open-loop client threads (and
// connections), feed rounds per second of run time (a round takes about
// 0.28 s), and the fixed open-loop rate (see README for the capacity it is
// set against). The closed loop is
// a single client, so that the process's CPU time over a request is that
// request's own.
constexpr size_t kClients = 2;
constexpr double kRoundsPerSecond = 3.5;
constexpr double kOpenLoopRate = 5000.0;

// The estimators of each workload, on their full model configs.
const std::vector<std::string>& EstimatorsFor(const std::string& workload) {
  static const std::vector<std::string> e2e = {"PostgreSQL", "MultiHist",
                                               "BayesCard", "FLAT", "LW-XGB"};
  static const std::vector<std::string> serve = {"PostgreSQL", "MultiHist",
                                                 "UniSample"};
  return workload == "stats-ceb-e2e" ? e2e : serve;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The measured work moves to the next vCPU at every pass (or serve round).
// On this shared host the hypervisor slows one vCPU at a time, by up to
// 1.5x, for minutes: a fixed loop pinned to each of the four vCPUs in turn
// ran 26-29 ms on three of them and 40-41 ms on the fourth, and which one
// was slow changed between rounds. A run left on one vCPU reads that
// vCPU's speed, so runs fell into a fast and a slow group 40% apart. Moved
// round the vCPUs, every operation is repeated on each of them, and its
// best repetition (see KeepBest) comes from one the host did not slow.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
  }

  // Pins the calling thread, or with `all_threads` every thread of the
  // process (listed in /proc/self/task), to the next vCPU. Threads the
  // process starts afterwards inherit the pin.
  bool Next(bool all_threads) {
    if (cpus_.empty()) return false;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    if (!all_threads) return sched_setaffinity(0, sizeof(one), &one) == 0;
    std::error_code ec;
    bool ok = true;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      ok &= sched_setaffinity(tid, sizeof(one), &one) == 0;
    }
    return ok && !ec;
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Fisher-Yates over the repository's deterministic generator, so a seed
// gives the same order everywhere.
template <typename T>
void Shuffle(std::vector<T>& items, cardbench::Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextUint64(i)]);
  }
}

struct Usage {
  double cpu_s = 0, minor_faults = 0, ctx_switches = 0, max_rss_mb = 0;
};
Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

// One pass (or serve replay) of measured work: operations done, the wall
// time they took together, and the wall latency of each. These give the
// wall-clock figures printed beside the end-to-end metrics.
struct Unit {
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  std::vector<double> wall_us;
};

// The end-to-end timings are taken from each operation's best CPU time.
// Every pass (or replay) repeats the same operations, and `best_cpu_us[op]`
// keeps the lowest CPU time any repetition of operation `op` took. The
// machine is shared: its speed changes from one stretch of seconds to the
// next by up to 1.6x, and the CPU time of a fixed loop spreads by 15-20%
// (quartile distance over median) between stretches of 10-40 s. Contention
// only ever slows an operation, so its fastest repetition is the steadiest
// estimate of its cost, and a slower program slows that repetition too.
// CPU time also leaves out steal (the kernel accounts steal time
// paravirtually) and time spent waiting to run.
void KeepBest(std::vector<double>& best_cpu_us, size_t op, int64_t cpu_ns) {
  if (best_cpu_us.size() <= op) {
    best_cpu_us.resize(op + 1, std::numeric_limits<double>::infinity());
  }
  best_cpu_us[op] =
      std::min(best_cpu_us[op], static_cast<double>(cpu_ns) * 1e-3);
}

struct Summary {
  // From the best CPU times: operations per CPU second over one repetition
  // of each, and the median and p99 over operations.
  double cpu_per_s = 0, cpu_p50_us = 0, cpu_p99_us = 0;
  // Pooled over every unit of the run.
  double wall_per_s = 0, wall_p50_us = 0, wall_p99_us = 0;
  size_t samples = 0;
};

Summary Summarize(const std::vector<Unit>& units,
                  const std::vector<double>& best_cpu_us) {
  Summary summary;
  std::vector<double> best;
  double best_sum_us = 0;
  for (double us : best_cpu_us) {
    if (!std::isfinite(us)) continue;  // never completed
    best.push_back(us);
    best_sum_us += us;
  }
  if (best_sum_us > 0) {
    summary.cpu_per_s = static_cast<double>(best.size()) / (best_sum_us * 1e-6);
  }
  summary.cpu_p50_us = Percentile(best, 50);
  summary.cpu_p99_us = Percentile(best, 99);
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  std::vector<double> wall_us;
  for (const Unit& unit : units) {
    ops += unit.ops;
    wall_ns += unit.wall_ns;
    wall_us.insert(wall_us.end(), unit.wall_us.begin(), unit.wall_us.end());
  }
  if (wall_ns > 0) {
    summary.wall_per_s =
        static_cast<double>(ops) / (static_cast<double>(wall_ns) * 1e-9);
  }
  summary.wall_p50_us = Percentile(wall_us, 50);
  summary.wall_p99_us = Percentile(wall_us, 99);
  summary.samples = wall_us.size();
  return summary;
}

// Figures collected by either half of a run; the untraced half feeds the
// end-to-end metrics, the traced half the span-derived ones.
struct Half {
  uint64_t ops = 0;
  int64_t wall_ns = 0;
  std::vector<std::pair<int64_t, int64_t>> passes;  // start, wall
  double PerOpNs() const {
    return ops == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(ops);
  }
};

class Run {
 public:
  explicit Run(const RunOptions& options) : options_(options) {}

  void Fail(const std::string& what) {
    if (out_.errors.size() < 20) out_.errors.push_back(what);
    out_.correct = false;
  }
  void Layer(const std::string& name, double value) { layer_[name] = value; }
  void Extra(const std::string& name, double value, const std::string& unit) {
    out_.extra.push_back({name, value, unit});
  }
  // `setup_cpu_s` is the process's CPU time when set-up ends; the wall
  // set-up time and the wall figures of `sum` are printed beside it.
  void EndToEnd(double setup_cpu_s, double setup_wall_s, const Summary& sum) {
    out_.end_to_end = {{"setup_s", setup_cpu_s, "s"},
                       {"peak_rss_mb", ReadUsage().max_rss_mb, "MB"},
                       {"queries_per_cpu_s", sum.cpu_per_s, "1/s"},
                       {"cpu_us_p50", sum.cpu_p50_us, "us"},
                       {"cpu_us_p99", sum.cpu_p99_us, "us"}};
    Extra("setup_wall_s", setup_wall_s, "s");
    Extra("wall_queries_per_s", sum.wall_per_s, "1/s");
    Extra("wall_us_p50", sum.wall_p50_us, "us");
    Extra("wall_us_p99", sum.wall_p99_us, "us");
  }
  // Span-derived per-layer figures common to all workloads.
  void LayersFromSpans(const Half& untraced, const Half& traced,
                       const Usage& before, const Usage& after);
  Outcome Finish();

  const RunOptions& options() const { return options_; }
  Outcome& out() { return out_; }

 private:
  RunOptions options_;
  Outcome out_;
  std::map<std::string, double> layer_;
};

// Every per-layer metric, in report order. A workload that does not
// exercise a layer reports 0 for it.
std::vector<std::pair<std::string, std::string>> PerLayerCatalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"query.parse_us", "us"},          {"query.compile_us", "us"},
      {"query.subplans", "count"},       {"cardest.estimate_us", "us"},
      {"cardest.ns_per_subplan", "ns"}};
  for (const auto& e : EstimatorNames()) {
    c.emplace_back("cardest." + e + ".estimate_us", "us");
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"cardest.qerror_p90", "ratio"},    {"optimizer.enumerate_us", "us"},
      {"optimizer.recost_us", "us"},      {"optimizer.plan_us_p50", "us"},
      {"optimizer.perror_p90", "ratio"},  {"exec.query_ms", "ms"},
      {"exec.intermediate_tuples", "count"}, {"exec.ns_per_tuple", "ns"},
      {"setup.datagen_s", "s"},           {"setup.workload_s", "s"},
      {"setup.truecard_s", "s"},          {"setup.training_queries_s", "s"}};
  c.insert(c.end(), rest.begin(), rest.end());
  for (const auto& e : EstimatorNames()) c.emplace_back("setup.train." + e + "_s", "s");
  const std::vector<std::pair<std::string, std::string>> tail = {
      {"datagen.apply_batch_ms", "ms"},  {"service.refresh_ms", "ms"},
      {"service.refresh.PostgreSQL_ms", "ms"},
      {"service.refresh.MultiHist_ms", "ms"},
      {"service.refresh.UniSample_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"}, {"service.hit_us_p50", "us"},
      {"service.miss_us_p50", "us"},     {"server.rtt_us_p50", "us"},
      {"server.transport_us_p50", "us"}, {"load.lag_us_p99", "us"},
      {"proc.cpu_s", "s"},               {"proc.minor_faults", "count"},
      {"proc.ctx_switches", "count"},    {"trace.overhead_pct", "%"},
      {"trace.residual_pct", "%"}};
  c.insert(c.end(), tail.begin(), tail.end());
  return c;
}

void Run::LayersFromSpans(const Half& untraced, const Half& traced,
                          const Usage& before, const Usage& after) {
  const std::vector<Span> spans = Tracer::Get().spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  struct Acc {
    double n = 0, self_ns = 0, dur_ns = 0, work = 0;
  };
  std::map<std::pair<int, int>, Acc> by_kind_tag;  // tag -1 = all tags
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    for (int tag : {-1, static_cast<int>(s.tag)}) {
      Acc& a = by_kind_tag[{static_cast<int>(s.kind), tag}];
      a.n += 1;
      a.self_ns += static_cast<double>(self[i]);
      a.dur_ns += static_cast<double>(s.end_ns - s.start_ns);
      a.work += static_cast<double>(s.count);
    }
  }
  auto acc = [&](SpanKind kind, int tag = -1) {
    auto it = by_kind_tag.find({static_cast<int>(kind), tag});
    return it == by_kind_tag.end() ? Acc{} : it->second;
  };
  auto mean = [](double total, double n) { return n == 0 ? 0.0 : total / n; };
  Acc a = acc(SpanKind::kParse);
  Layer("query.parse_us", mean(a.self_ns, a.n) * 1e-3);
  a = acc(SpanKind::kCompile);
  Layer("query.compile_us", mean(a.self_ns, a.n) * 1e-3);
  Layer("query.subplans", mean(a.work, a.n));
  a = acc(SpanKind::kEstimate);
  Layer("cardest.estimate_us", mean(a.self_ns, a.n) * 1e-3);
  Layer("cardest.ns_per_subplan", mean(a.self_ns, a.work));
  for (const auto& e : EstimatorNames()) {
    a = acc(SpanKind::kEstimate, EstimatorTag(e));
    Layer("cardest." + e + ".estimate_us", mean(a.self_ns, a.n) * 1e-3);
  }
  a = acc(SpanKind::kPlan);
  Layer("optimizer.enumerate_us", mean(a.self_ns, a.n) * 1e-3);
  a = acc(SpanKind::kRecost);
  Layer("optimizer.recost_us", mean(a.self_ns, a.n) * 1e-3);
  a = acc(SpanKind::kExecute);
  Layer("exec.query_ms", mean(a.dur_ns, a.n) * 1e-6);
  Layer("exec.intermediate_tuples", mean(a.work, a.n));
  Layer("exec.ns_per_tuple", mean(a.dur_ns, a.work));
  a = acc(SpanKind::kApplyBatch);
  Layer("datagen.apply_batch_ms", mean(a.dur_ns, a.n) * 1e-6);
  a = acc(SpanKind::kRefresh);
  Layer("service.refresh_ms", mean(a.dur_ns, a.n) * 1e-6);
  for (const char* e : {"PostgreSQL", "MultiHist", "UniSample"}) {
    a = acc(SpanKind::kUpdate, EstimatorTag(e));
    Layer(std::string("service.refresh.") + e + "_ms",
          mean(a.dur_ns, a.n) * 1e-6);
  }
  Layer("proc.cpu_s", after.cpu_s - before.cpu_s);
  Layer("proc.minor_faults", after.minor_faults - before.minor_faults);
  Layer("proc.ctx_switches", after.ctx_switches - before.ctx_switches);
  Layer("trace.overhead_pct",
        untraced.PerOpNs() > 0
            ? 100.0 * (traced.PerOpNs() / untraced.PerOpNs() - 1.0)
            : 0.0);
  double residual = 0, wall = 0;
  for (const auto& [start, pass_wall] : traced.passes) {
    residual += static_cast<double>(
        Residual(spans, ThreadIndex(), start, pass_wall));
    wall += static_cast<double>(pass_wall);
  }
  Layer("trace.residual_pct", wall > 0 ? 100.0 * residual / wall : 0.0);
}

Outcome Run::Finish() {
  if (options_.trace) {
    for (const auto& [name, unit] : PerLayerCatalog()) {
      auto it = layer_.find(name);
      out_.per_layer.push_back(
          {name, it == layer_.end() ? 0.0 : it->second, unit});
    }
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/trace-" + options_.workload +
                             "-seed" + std::to_string(options_.seed) + ".tsv";
    if (!Tracer::Get().WriteTsv(path)) Fail("cannot write " + path);
  } else if (Tracer::Get().size() != 0) {
    Fail("the untraced run recorded spans");
  }
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// stats-ceb-e2e.

struct CebQuery {
  Query query;
  std::string sql;
  std::unordered_map<uint64_t, double> true_cards;
  double true_plan_cost = 0;
  uint64_t reference_count = 0;  // the benchmark's own count of the query
};

struct Ceb {
  std::unique_ptr<Database> db;
  std::unique_ptr<cardbench::TrueCardService> truecard;
  std::unique_ptr<cardbench::Optimizer> optimizer;
  std::vector<CebQuery> queries;
  std::vector<std::unique_ptr<TimedEstimator>> estimators;
};

void PrebuildKeyIndexes(const Database& db) {
  for (const auto& name : db.table_names()) {
    const cardbench::Table& table = db.TableOrDie(name);
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).kind() == cardbench::ColumnKind::kKey) {
        (void)table.GetIndex(c);
      }
    }
  }
}

cardbench::Result<std::vector<Query>> MakeWorkload(const Database& db,
                                                   uint64_t seed) {
  cardbench::TrueCardService truecard(db);
  cardbench::WorkloadOptions options = cardbench::WorkloadOptions::StatsCeb();
  options.seed = seed;
  options.max_true_card *= std::max(kScale, 0.01);
  CARDBENCH_ASSIGN_OR_RETURN(
      cardbench::Workload workload,
      cardbench::GenerateWorkload(db, truecard, "STATS-CEB", options));
  return std::move(workload.queries);
}

// Builds everything a STATS-CEB pass needs, timing each phase into the
// setup.* layer figures. Returns false (with Fail called) on error.
bool BuildCeb(Run& run, Ceb& ceb) {
  const uint64_t seed = kDataSeed;
  int64_t t = NowNs();
  auto lap = [&t]() {
    const int64_t now = NowNs();
    const double s = Seconds(now - t);
    t = now;
    return s;
  };
  cardbench::StatsGenConfig config;
  config.seed = seed;
  config.scale = kScale;
  ceb.db = cardbench::GenerateStatsDatabase(config);
  PrebuildKeyIndexes(*ceb.db);
  run.Layer("setup.datagen_s", lap());

  auto workload = MakeWorkload(*ceb.db, seed);
  if (!workload.ok()) {
    run.Fail("workload generation: " + workload.status().ToString());
    return false;
  }
  run.Layer("setup.workload_s", lap());

  ceb.truecard = std::make_unique<cardbench::TrueCardService>(*ceb.db);
  ceb.optimizer = std::make_unique<cardbench::Optimizer>(*ceb.db);
  cardbench::TrueCardEstimator oracle(*ceb.truecard);
  for (Query& query : *workload) {
    CebQuery q;
    q.sql = query.ToSql();
    QueryGraph graph(query, *ceb.db);
    auto cards = ceb.truecard->AllSubplanCards(graph);
    auto plan = ceb.optimizer->Plan(graph, oracle);
    if (!cards.ok() || !plan.ok()) {
      run.Fail("true cardinalities of " + query.name);
      return false;
    }
    q.true_cards = std::move(*cards);
    q.true_plan_cost = ceb.optimizer->RecostWithCards(*plan->plan, q.true_cards);
    q.query = std::move(query);
    ceb.queries.push_back(std::move(q));
  }
  run.Layer("setup.truecard_s", lap());

  std::vector<cardbench::TrainingQuery> training;
  bool needs_training = false;
  for (const auto& name : EstimatorsFor(run.options().workload)) {
    needs_training |= cardbench::EstimatorNeedsTraining(name);
  }
  if (needs_training) {
    // The same tighter limits the repository's harness uses for training.
    cardbench::ExecLimits limits;
    limits.timeout_seconds = 10.0;
    limits.max_intermediate_tuples = 20000000;
    cardbench::TrueCardService service(*ceb.db, limits);
    auto generated = cardbench::GenerateTrainingQueries(
        *ceb.db, service, kTrainingQueries, seed + 7);
    if (!generated.ok()) {
      run.Fail("training queries: " + generated.status().ToString());
      return false;
    }
    training = std::move(*generated);
  }
  run.Layer("setup.training_queries_s", lap());

  for (const auto& name : EstimatorsFor(run.options().workload)) {
    auto est = cardbench::MakeEstimator(
        name, *ceb.db, *ceb.truecard,
        cardbench::EstimatorNeedsTraining(name) ? &training : nullptr);
    if (!est.ok()) {
      run.Fail(name + ": " + est.status().ToString());
      return false;
    }
    ceb.estimators.push_back(std::make_unique<TimedEstimator>(std::move(*est)));
    run.Layer("setup.train." + name + "_s", lap());
  }
  return true;
}

// Checks the set-up against the benchmark's own computations: every exact
// sub-plan cardinality against the join-tree counter, every query's
// sub-plan set against the independent enumeration, and the SQL text
// against the query it was printed from.
void CheckCeb(Run& run, Ceb& ceb) {
  Scope span(SpanKind::kCheck);
  for (CebQuery& q : ceb.queries) {
    const JoinTreeCounter counter(q.query, *ceb.db);
    if (!counter.error().empty()) {
      run.Fail(counter.error());
      continue;
    }
    std::vector<uint64_t> masks;
    for (const auto& [mask, truth] : q.true_cards) {
      masks.push_back(mask);
      bool overflow = false;
      const uint64_t count = counter.Count(mask, &overflow);
      if (overflow || !CountMatches(count, truth)) {
        run.Fail(q.query.name + ": true card of mask " + std::to_string(mask) +
                 " is " + std::to_string(truth) + ", counter says " +
                 std::to_string(count));
      }
      if (mask == q.query.FullMask()) q.reference_count = count;
    }
    if (!SameMaskSet(masks, ConnectedSubsets(q.query.tables.size(),
                                             LocalEdges(q.query)))) {
      run.Fail(q.query.name + ": sub-plan set differs from the enumeration");
    }
    auto parsed = cardbench::ParseSql(q.sql);
    if (!parsed.ok() || parsed->CanonicalKey() != q.query.CanonicalKey()) {
      run.Fail(q.query.name + ": SQL text does not parse back to the query");
    }
  }
}

struct CebFigures {
  std::vector<Unit> passes;     // SQL text to result, per (query, estimator)
  std::vector<double> best_cpu_us;  // per (query, estimator): see KeepBest
  std::vector<double> plan_us;  // SQL text to chosen plan
  std::vector<double> qerrors, perrors;
};

// One pass over every query under every estimator, in an order drawn from
// `rng`: parse, compile, plan, recost and COUNT(*). The first pass also
// collects the accuracy figures and checks the estimators' sub-plan
// requests.
void CebPass(Run& run, Ceb& ceb, const cardbench::Executor& executor,
             bool first, cardbench::Rng& rng, CebFigures& fig, Half& half) {
  const bool analyze = Tracer::Get().enabled();
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t qi = 0; qi < ceb.queries.size(); ++qi) {
    for (size_t ei = 0; ei < ceb.estimators.size(); ++ei) {
      order.emplace_back(qi, ei);
    }
  }
  Shuffle(order, rng);
  const int64_t pass_start = NowNs();
  Unit& unit = fig.passes.emplace_back();
  std::vector<uint64_t> asked;
  for (const auto& [qi, ei] : order) {
    {
      CebQuery& q = ceb.queries[qi];
      TimedEstimator* est = ceb.estimators[ei].get();
      ++run.out().attempted;
      asked.clear();
      if (first) est->set_mask_sink(&asked);
      const int64_t start = NowNs();
      const int64_t cpu_start = ThreadCpuNs();
      auto parsed = TimedParse(q.sql);
      if (!parsed.ok()) {
        ++run.out().failed;
        est->set_mask_sink(nullptr);
        continue;
      }
      auto graph = TimedCompile(*parsed, *ceb.db);
      auto plan = TimedPlan(*ceb.optimizer, *graph, *est);
      const int64_t planned = NowNs();
      est->set_mask_sink(nullptr);
      if (!plan.ok()) {
        ++run.out().failed;
        continue;
      }
      const double cost =
          TimedRecost(*ceb.optimizer, *plan->plan, q.true_cards);
      auto exec = TimedExecute(executor, *plan->plan, analyze);
      const bool ok = exec.ok() && !exec->timed_out;
      if (ok && !CountMatches(q.reference_count,
                              static_cast<double>(exec->count))) {
        run.Fail(q.query.name + " under " + est->name() + " counted " +
                 std::to_string(exec->count));
      }
      const int64_t cpu_end = ThreadCpuNs();
      const int64_t end = NowNs();
      if (!ok) {
        ++run.out().failed;
        continue;
      }
      KeepBest(fig.best_cpu_us, qi * ceb.estimators.size() + ei,
               cpu_end - cpu_start);
      unit.wall_us.push_back(static_cast<double>(end - start) * 1e-3);
      ++unit.ops;
      fig.plan_us.push_back(static_cast<double>(planned - start) * 1e-3);
      const double p_error = cost / q.true_plan_cost;
      if (!PErrorAtLeastOne(p_error)) {
        run.Fail(q.query.name + " under " + est->name() + ": P-Error " +
                 std::to_string(p_error));
      }
      if (first) {
        fig.perrors.push_back(p_error);
        for (const auto& [mask, card] : plan->injected_cards) {
          fig.qerrors.push_back(cardbench::QError(card, q.true_cards.at(mask)));
        }
        if (!SameMaskSet(asked, ConnectedSubsets(q.query.tables.size(),
                                                 LocalEdges(q.query)))) {
          run.Fail(q.query.name + ": " + est->name() +
                   " was asked for other sub-plans than the connected ones");
        }
        if (!PlanCoversEachTableOnce(*plan->plan, q.query.tables.size())) {
          run.Fail(q.query.name + " under " + est->name() +
                   ": plan does not cover each table once");
        }
      }
      ++half.ops;
    }
  }
  const int64_t wall = NowNs() - pass_start;
  unit.wall_ns = wall;
  half.wall_ns += wall;
  half.passes.emplace_back(pass_start, wall);
}

Outcome RunCeb(const RunOptions& options) {
  Run run(options);
  Ceb ceb;
  if (!BuildCeb(run, ceb)) return run.Finish();
  const double setup_cpu_s = Seconds(ProcessCpuNs());
  const double setup_wall_s = Seconds(NowNs() - options.start_ns);
  const int64_t check_start = NowNs();
  CheckCeb(run, ceb);
  run.Extra("check_s", Seconds(NowNs() - check_start), "s");

  cardbench::Executor executor(*ceb.db);
  CebFigures warm_fig, untraced_fig, traced_fig;
  Half warm, untraced, traced;
  cardbench::Rng rng(options.seed);
  // A first pass fills the caches and collects the accuracy figures and
  // first-pass checks; it is not timed. The traced mode then measures half
  // the time untraced and half traced, so that the tracing overhead is a
  // same-run comparison.
  CpuRotation rotation;
  auto pass = [&](bool first, CebFigures& fig, Half& half) {
    if (!rotation.Next(false)) run.Fail("cannot pin the benchmark thread");
    CebPass(run, ceb, executor, first, rng, fig, half);
  };
  pass(true, warm_fig, warm);
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  int64_t begin = NowNs();
  do {
    pass(false, untraced_fig, untraced);
  } while (Seconds(NowNs() - begin) < budget);
  Usage before, after;
  if (options.trace) {
    Tracer::Get().SetEnabled(true);
    before = ReadUsage();
    begin = NowNs();
    do {
      pass(false, traced_fig, traced);
    } while (Seconds(NowNs() - begin) < budget);
    after = ReadUsage();
    Tracer::Get().SetEnabled(false);
  }

  const CebFigures& fig = untraced_fig;
  const Summary sum = Summarize(fig.passes, fig.best_cpu_us);
  const double p50 = sum.wall_p50_us, p99 = sum.wall_p99_us;
  const double plan_p50 = Percentile(fig.plan_us, 50);
  const double qerror_p90 = Percentile(warm_fig.qerrors, 90);
  const double perror_p90 = Percentile(warm_fig.perrors, 90);
  run.EndToEnd(setup_cpu_s, setup_wall_s, sum);
  run.Extra("query_ms_p50", p50 * 1e-3, "ms");
  run.Extra("query_ms_p99", p99 * 1e-3, "ms");
  run.Extra("plan_us_p50", plan_p50, "us");
  run.Extra("qerror_p90", qerror_p90, "ratio");
  run.Extra("perror_p90", perror_p90, "ratio");
  run.Extra("passes", static_cast<double>(untraced.passes.size()), "count");
  run.Extra("samples", static_cast<double>(sum.samples), "count");
  if (options.trace) {
    run.LayersFromSpans(untraced, traced, before, after);
    run.Layer("cardest.qerror_p90", qerror_p90);
    run.Layer("optimizer.perror_p90", perror_p90);
    run.Layer("optimizer.plan_us_p50", plan_p50);
  }
  return run.Finish();
}

// ---------------------------------------------------------------------------
// serve-refresh.

struct Reply {
  bool sent = false;
  cardbench::Status transport;
  cardbench::ServerResponse response;
  int64_t due_ns = 0, send_ns = 0, end_ns = 0;
  int64_t cpu_ns = 0;  // process CPU time over the call (closed loop only)
};

struct ServeQuery {
  Query query;
  std::string sql;
  std::unique_ptr<QueryGraph> graph;  // on the live database
};

struct ServeFigures {
  // Per round: the closed-loop replay (round-trip latencies) and the
  // open-loop replay (latencies from the due time).
  std::vector<Unit> closed, open;
  std::vector<double> best_cpu_us;  // per closed-loop request: see KeepBest
  std::vector<double> lag_us, rtt_us, transport_us, hit_us, miss_us;
  std::vector<double> refresh_ms;
  uint64_t hits = 0, misses = 0;
};

Outcome RunServe(const RunOptions& options) {
  Run run(options);
  // The whole serving stack (client, event loop, service workers) runs on
  // one vCPU at a time. A request passes through three threads; spread over
  // vCPUs, each hand-off wakes an idle vCPU, which on a shared host costs a
  // hypervisor round trip and a cold cache, and the best CPU time per
  // request then moved by 26% from run to run against 15% pinned.
  CpuRotation rotation;
  if (!rotation.Next(false)) {
    run.Fail("cannot pin the serving stack to one vCPU");
    return run.Finish();
  }
  const auto& names = EstimatorsFor(options.workload);
  int64_t t = NowNs();
  auto lap = [&t]() {
    const int64_t now = NowNs();
    const double s = Seconds(now - t);
    t = now;
    return s;
  };
  cardbench::StatsGenConfig config;
  config.seed = kDataSeed;
  config.scale = kScale;
  const auto full = cardbench::GenerateStatsDatabase(config);
  // The models see the older half of STATS; the rest streams in.
  cardbench::TimeSplit split = cardbench::SplitDatabaseByTime(
      *full, cardbench::StatsTimestampColumn, 0.5);
  Database& live = *split.stale;
  run.Layer("setup.datagen_s", lap());

  auto workload = MakeWorkload(*full, kDataSeed);
  if (!workload.ok()) {
    run.Fail("workload generation: " + workload.status().ToString());
    return run.Finish();
  }
  std::vector<ServeQuery> queries;
  for (Query& query : *workload) {
    ServeQuery q;
    q.sql = query.ToSql();
    q.query = std::move(query);
    queries.push_back(std::move(q));
  }
  run.Layer("setup.workload_s", lap());

  cardbench::TrueCardService live_truecard(live);
  cardbench::ServiceOptions service_options;
  service_options.num_threads = kClients;
  cardbench::EstimationService service(service_options);
  std::vector<const TimedEstimator*> served;
  for (const auto& name : names) {
    auto est = cardbench::MakeEstimator(name, live, live_truecard, nullptr);
    if (!est.ok()) {
      run.Fail(name + ": " + est.status().ToString());
      return run.Finish();
    }
    auto timed = std::make_unique<TimedEstimator>(std::move(*est));
    served.push_back(timed.get());
    service.RegisterEstimator(std::move(timed));
    run.Layer("setup.train." + name + "_s", lap());
  }
  cardbench::CardServer server(service, live);
  if (auto status = server.Start(); !status.ok()) {
    run.Fail("server start: " + status.ToString());
    return run.Finish();
  }
  std::vector<cardbench::CardClient> clients(kClients);
  for (auto& client : clients) {
    if (auto status = client.Connect("127.0.0.1", server.port());
        !status.ok()) {
      run.Fail("connect: " + status.ToString());
      server.Stop();
      return run.Finish();
    }
  }
  const size_t rounds = static_cast<size_t>(
      std::max(2.0, std::round(options.seconds * kRoundsPerSecond)));
  cardbench::StreamingInsertFeed feed(live, std::move(split.insertions),
                                      cardbench::StatsTimestampColumn, rounds);
  const double setup_cpu_s = Seconds(ProcessCpuNs());
  const double setup_wall_s = Seconds(NowNs() - options.start_ns);

  {
    Scope span(SpanKind::kCheck);
    for (ServeQuery& q : queries) {
      q.graph = std::make_unique<QueryGraph>(q.query, live);
      if (!SameMaskSet(q.graph->connected_subsets(),
                       ConnectedSubsets(q.query.tables.size(),
                                        LocalEdges(q.query)))) {
        run.Fail(q.query.name + ": sub-plan set differs from the enumeration");
      }
    }
  }

  const size_t per_replay = queries.size() * served.size();
  // direct[e][q]: the served model's own EstimateCards, untimed.
  std::vector<std::vector<std::vector<double>>> direct(served.size());
  std::vector<uint64_t> versions(served.size(), 0);
  std::vector<Reply> replies(per_replay);

  auto request_of = [&](size_t i) {
    cardbench::ServerRequest request;
    request.estimator = served[i % served.size()]->name();
    request.sql = queries[i / served.size()].sql;
    return request;
  };
  // Sends replay request i on client c; `due` is when it was meant to go.
  auto send = [&](size_t c, size_t i, int64_t due, uint64_t phase) {
    Reply& r = replies[i];
    Scope span(SpanKind::kRequest,
               served[i % served.size()]->tag(), phase);
    r.due_ns = due;
    r.send_ns = NowNs();
    auto result = clients[c].Call(request_of(i));
    r.end_ns = NowNs();
    r.sent = true;
    r.transport = result.status();
    if (result.ok()) r.response = std::move(*result);
  };
  auto check_replies = [&](ServeFigures& fig, bool open_loop) {
    Scope span(SpanKind::kCheck);
    for (size_t i = 0; i < per_replay; ++i) {
      Reply& r = replies[i];
      ++run.out().attempted;
      if (!r.sent || !r.transport.ok() || !r.response.ok()) {
        ++run.out().failed;
        continue;
      }
      const size_t e = i % served.size(), qi = i / served.size();
      const auto& masks = queries[qi].graph->connected_subsets();
      const auto& resp = r.response;
      if (resp.model_version != versions[e]) {
        run.Fail(queries[qi].query.name + " under " + served[e]->name() +
                 ": model version " + std::to_string(resp.model_version) +
                 ", refresh reported " + std::to_string(versions[e]));
      }
      if (!CardsBitIdentical(resp.cards, masks, direct[e][qi])) {
        run.Fail(queries[qi].query.name + " under " + served[e]->name() +
                 ": served cards differ from the model's own");
      }
      if (!HitsPlusMissesEqual(resp.cache_hits, resp.cache_misses,
                               masks.size())) {
        run.Fail(queries[qi].query.name + ": hits + misses != sub-plans");
      }
      fig.hits += resp.cache_hits;
      fig.misses += resp.cache_misses;
      const double rtt_us = static_cast<double>(r.end_ns - r.send_ns) * 1e-3;
      fig.rtt_us.push_back(rtt_us);
      fig.transport_us.push_back(rtt_us - resp.elapsed_us);
      (resp.cache_misses == 0 ? fig.hit_us : fig.miss_us)
          .push_back(resp.elapsed_us);
      if (open_loop) {
        fig.open.back().wall_us.push_back(
            static_cast<double>(r.end_ns - r.due_ns) * 1e-3);
        fig.lag_us.push_back(static_cast<double>(r.send_ns - r.due_ns) * 1e-3);
      } else {
        KeepBest(fig.best_cpu_us, i, r.cpu_ns);
        fig.closed.back().wall_us.push_back(rtt_us);
      }
      r = Reply();
    }
  };

  ServeFigures untraced_fig, traced_fig;
  Half untraced, traced;
  Usage before, after;
  cardbench::Rng rng(options.seed);
  std::vector<size_t> order(per_replay);
  for (size_t round = 0; round < rounds; ++round) {
    if (!rotation.Next(true)) run.Fail("cannot move the serving stack");
    const bool traced_round = options.trace && round >= rounds / 2;
    if (traced_round && !Tracer::Get().enabled()) {
      Tracer::Get().SetEnabled(true);
      before = ReadUsage();
    }
    ServeFigures& fig = traced_round ? traced_fig : untraced_fig;
    Half& half = traced_round ? traced : untraced;
    const int64_t round_start = NowNs();

    // 1. With no request in flight: one micro-batch, one refresh.
    ++run.out().attempted;
    cardbench::Result<cardbench::InsertionBatch> batch =
        cardbench::Status::Internal("not applied");
    {
      Scope span(SpanKind::kApplyBatch);
      batch = feed.ApplyNext(live);
    }
    if (!batch.ok()) {
      ++run.out().failed;
      run.Fail("insertion batch: " + batch.status().ToString());
      break;
    }
    cardbench::RefreshReport report;
    const int64_t refresh_start = NowNs();
    cardbench::Status refreshed;
    {
      Scope span(SpanKind::kRefresh);
      refreshed = service.RefreshIncremental(*batch, &report);
    }
    fig.refresh_ms.push_back(static_cast<double>(NowNs() - refresh_start) *
                             1e-6);
    if (!refreshed.ok()) {
      ++run.out().failed;
      run.Fail("refresh: " + refreshed.ToString());
      break;
    }
    for (const auto& entry : report.entries) {
      const size_t e = std::find_if(served.begin(), served.end(),
                                    [&](const TimedEstimator* s) {
                                      return s->name() == entry.name;
                                    }) -
                       served.begin();
      if (e == served.size() || !entry.status.ok() ||
          entry.full_retrain_required) {
        run.Fail(entry.name + " did not refresh incrementally");
        continue;
      }
      versions[e] = entry.model_version;
    }
    {
      Scope span(SpanKind::kCheck);
      for (size_t e = 0; e < served.size(); ++e) {
        direct[e].clear();
        for (const ServeQuery& q : queries) {
          const auto& masks = q.graph->connected_subsets();
          direct[e].push_back(served[e]->inner().EstimateCards(
              *q.graph, std::span<const uint64_t>(masks)));
        }
      }
    }

    // 2a. Closed loop, one client: it sends its next request when the last
    // one returns. The first replay after a refresh misses the cache. With
    // one request in flight, the process's CPU time over a call is the CPU
    // time of that request's whole path (client, event loop, worker).
    for (size_t i = 0; i < per_replay; ++i) order[i] = i;
    Shuffle(order, rng);
    {
      Scope phase(SpanKind::kPhase, 0);
      Unit& unit = fig.closed.emplace_back();
      const int64_t start = NowNs();
      for (size_t k = 0; k < per_replay; ++k) {
        const int64_t cpu = ProcessCpuNs();
        send(0, order[k], NowNs(), phase.id());
        replies[order[k]].cpu_ns = ProcessCpuNs() - cpu;
      }
      unit.wall_ns = NowNs() - start;
      unit.ops = per_replay;
      half.ops += per_replay;
      half.wall_ns += unit.wall_ns;
    }
    check_replies(fig, false);

    // 2b. Open loop at a fixed rate: the k-th request of the (reshuffled)
    // replay is due at start + k / rate whether or not earlier ones have
    // returned. Client c sends every kClients-th request.
    Shuffle(order, rng);
    {
      Scope phase(SpanKind::kPhase, 1);
      const int64_t start = NowNs() + 1000000;
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          for (size_t k = c; k < per_replay; k += kClients) {
            const int64_t due =
                start + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                             kOpenLoopRate);
            const int64_t now = NowNs();
            if (now < due) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            }
            send(c, order[k], due, phase.id());
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    fig.open.emplace_back();
    check_replies(fig, true);
    half.passes.emplace_back(round_start, NowNs() - round_start);
  }
  if (options.trace) {
    after = ReadUsage();
    Tracer::Get().SetEnabled(false);
  }
  server.Stop();
  if (!feed.Done() || !RowCountsMatch(live, *full)) {
    run.Fail("after the last batch the tables differ from a full generation");
  }

  const ServeFigures& fig = untraced_fig;
  const Summary sum = Summarize(fig.closed, fig.best_cpu_us);
  const Summary open = Summarize(fig.open, {});
  run.EndToEnd(setup_cpu_s, setup_wall_s, sum);
  run.Extra("serve_rps", sum.wall_per_s, "1/s");
  run.Extra("serve_us_p50", open.wall_p50_us, "us");
  run.Extra("serve_us_p99", open.wall_p99_us, "us");
  run.Extra("refresh_ms_p50", Percentile(fig.refresh_ms, 50), "ms");
  run.Extra("rounds", static_cast<double>(rounds), "count");
  run.Extra("open_loop_rate", kOpenLoopRate, "1/s");
  run.Extra("samples", static_cast<double>(sum.samples), "count");
  if (options.trace) {
    // Traced rounds carry the serving figures; the overhead compares the
    // closed-loop time per request of the two halves.
    run.LayersFromSpans(untraced, traced, before, after);
    const ServeFigures& tf = traced_fig;
    const double total = static_cast<double>(tf.hits + tf.misses);
    run.Layer("service.cache_hit_ratio",
              total > 0 ? static_cast<double>(tf.hits) / total : 0.0);
    run.Layer("service.hit_us_p50", Percentile(tf.hit_us, 50));
    run.Layer("service.miss_us_p50", Percentile(tf.miss_us, 50));
    run.Layer("server.rtt_us_p50", Percentile(tf.rtt_us, 50));
    run.Layer("server.transport_us_p50", Percentile(tf.transport_us, 50));
    run.Layer("load.lag_us_p99", Percentile(tf.lag_us, 99));
  }
  return run.Finish();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "stats-ceb-e2e", "serve-refresh"};
  return names;
}

Outcome RunWorkload(const RunOptions& options) {
  if (options.workload == "serve-refresh") return RunServe(options);
  return RunCeb(options);
}

}  // namespace e2ebench
