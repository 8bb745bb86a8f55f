#ifndef E2EBENCH_PROBES_H_
#define E2EBENCH_PROBES_H_

// Timed entry points into the program's modules. Each wraps one public call
// in a span (a no-op when tracing is off) and otherwise forwards unchanged.

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cardest/estimator.h"
#include "common/status.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/query.h"
#include "query/query_graph.h"

namespace e2ebench {

/// Every estimator a workload may use, in tag order; per-estimator metrics
/// are named after these.
const std::vector<std::string>& EstimatorNames();
/// Index of `name` in EstimatorNames().
uint16_t EstimatorTag(const std::string& name);

/// Forwards every call to the wrapped estimator, timing EstimateCards and
/// IncrementalUpdate. The optimizer and the estimation service are handed
/// this object, so their calls into `cardest` pass through it.
class TimedEstimator final : public cardbench::CardinalityEstimator {
 public:
  explicit TimedEstimator(
      std::unique_ptr<cardbench::CardinalityEstimator> inner);

  const cardbench::CardinalityEstimator& inner() const { return *inner_; }
  uint16_t tag() const { return tag_; }
  /// While set, the masks of every EstimateCards call are appended to
  /// `sink`. Single-threaded callers only.
  void set_mask_sink(std::vector<uint64_t>* sink) { mask_sink_ = sink; }

  std::string name() const override { return inner_->name(); }
  double EstimateCard(const cardbench::QueryGraph& graph,
                      uint64_t mask) const override;
  double EstimateCard(const cardbench::Query& subquery) const override;
  std::vector<double> EstimateCards(
      const cardbench::QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  cardbench::Status Serialize(std::ostream& out) const override {
    return inner_->Serialize(out);
  }
  double TrainSeconds() const override { return inner_->TrainSeconds(); }
  bool SupportsUpdate() const override { return inner_->SupportsUpdate(); }
  bool SupportsIncrementalUpdate() const override {
    return inner_->SupportsIncrementalUpdate();
  }
  cardbench::Status Update() override { return inner_->Update(); }
  cardbench::Status IncrementalUpdate(
      const cardbench::InsertionBatch& batch) override;

 private:
  std::unique_ptr<cardbench::CardinalityEstimator> inner_;
  uint16_t tag_ = 0;
  std::vector<uint64_t>* mask_sink_ = nullptr;
};

cardbench::Result<cardbench::Query> TimedParse(const std::string& sql);
std::unique_ptr<cardbench::QueryGraph> TimedCompile(
    const cardbench::Query& query, const cardbench::Database& db);
cardbench::Result<cardbench::PlanResult> TimedPlan(
    const cardbench::Optimizer& optimizer, const cardbench::QueryGraph& graph,
    const TimedEstimator& estimator);
double TimedRecost(const cardbench::Optimizer& optimizer,
                   const cardbench::PlanNode& plan,
                   const std::unordered_map<uint64_t, double>& cards);
/// With `analyze` (traced runs) the span's count is the number of tuples
/// the plan's nodes below the root produced.
cardbench::Result<cardbench::ExecResult> TimedExecute(
    const cardbench::Executor& executor, const cardbench::PlanNode& plan,
    bool analyze);

}  // namespace e2ebench

#endif  // E2EBENCH_PROBES_H_
