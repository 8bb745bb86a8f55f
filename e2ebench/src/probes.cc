#include "probes.h"

#include <algorithm>

#include "query/parser.h"
#include "trace.h"

namespace e2ebench {

using cardbench::Result;

const std::vector<std::string>& EstimatorNames() {
  static const std::vector<std::string> names = {
      "PostgreSQL", "MultiHist", "UniSample",
      "BayesCard",  "FLAT",      "LW-XGB"};
  return names;
}

uint16_t EstimatorTag(const std::string& name) {
  const auto& names = EstimatorNames();
  return static_cast<uint16_t>(
      std::find(names.begin(), names.end(), name) - names.begin());
}

TimedEstimator::TimedEstimator(
    std::unique_ptr<cardbench::CardinalityEstimator> inner)
    : inner_(std::move(inner)), tag_(EstimatorTag(inner_->name())) {}

double TimedEstimator::EstimateCard(const cardbench::QueryGraph& graph,
                                    uint64_t mask) const {
  Scope span(SpanKind::kEstimate, tag_);
  span.set_count(1);
  if (mask_sink_ != nullptr) mask_sink_->push_back(mask);
  return inner_->EstimateCard(graph, mask);
}

double TimedEstimator::EstimateCard(const cardbench::Query& subquery) const {
  Scope span(SpanKind::kEstimate, tag_);
  span.set_count(1);
  return inner_->EstimateCard(subquery);
}

std::vector<double> TimedEstimator::EstimateCards(
    const cardbench::QueryGraph& graph,
    std::span<const uint64_t> masks) const {
  Scope span(SpanKind::kEstimate, tag_);
  span.set_count(masks.size());
  if (mask_sink_ != nullptr) {
    mask_sink_->insert(mask_sink_->end(), masks.begin(), masks.end());
  }
  return inner_->EstimateCards(graph, masks);
}

cardbench::Status TimedEstimator::IncrementalUpdate(
    const cardbench::InsertionBatch& batch) {
  Scope span(SpanKind::kUpdate, tag_);
  span.set_count(batch.total_inserted_rows());
  return inner_->IncrementalUpdate(batch);
}

Result<cardbench::Query> TimedParse(const std::string& sql) {
  Scope span(SpanKind::kParse);
  return cardbench::ParseSql(sql);
}

std::unique_ptr<cardbench::QueryGraph> TimedCompile(
    const cardbench::Query& query, const cardbench::Database& db) {
  Scope span(SpanKind::kCompile);
  auto graph = std::make_unique<cardbench::QueryGraph>(query, db);
  span.set_count(graph->connected_subsets().size());
  return graph;
}

Result<cardbench::PlanResult> TimedPlan(const cardbench::Optimizer& optimizer,
                                        const cardbench::QueryGraph& graph,
                                        const TimedEstimator& estimator) {
  Scope span(SpanKind::kPlan, estimator.tag());
  return optimizer.Plan(graph, estimator);
}

double TimedRecost(const cardbench::Optimizer& optimizer,
                   const cardbench::PlanNode& plan,
                   const std::unordered_map<uint64_t, double>& cards) {
  Scope span(SpanKind::kRecost);
  return optimizer.RecostWithCards(plan, cards);
}

Result<cardbench::ExecResult> TimedExecute(const cardbench::Executor& executor,
                                           const cardbench::PlanNode& plan,
                                           bool analyze) {
  Scope span(SpanKind::kExecute);
  auto result = executor.ExecuteCount(plan, analyze);
  if (analyze && result.ok()) {
    double tuples = 0;
    for (const auto& [mask, rows] : result->actual_rows) {
      if (mask != plan.table_mask) tuples += rows;
    }
    span.set_count(static_cast<uint64_t>(tuples));
  }
  return result;
}

}  // namespace e2ebench
